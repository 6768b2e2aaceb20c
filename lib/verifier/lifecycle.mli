(** Path-sensitive lifecycle analysis.

    The verifier proves kernel-interface compliance: kernel objects are
    released on every path, memory accesses are SFI-safe. It deliberately
    does {e not} police the extension's own resources — a [kflex_malloc]
    block leaked on one branch, freed twice, or dereferenced while possibly
    NULL is legal as far as the kernel is concerned (the SFI guard makes the
    stray access safe). Those are still bugs in the extension, and exactly
    the classes ROADMAP item 5 gates admission tiers on.

    [Lifecycle] finds them with {e path evidence}. It runs a disjunctive
    forward dataflow pass (on {!Dataflow.forward}) whose facts are sets of
    abstract paths; each path carries the lifecycle status of every
    allocation site it has seen ([Unchecked] = live but possibly NULL,
    [Held] = live and non-NULL, [Released]), which registers/stack slots
    still reference each site, the stack of spin locks currently held, and
    the pc trace that realises the path. All transfer rules are derived from
    the {!Contract} registry (allocator = [R_heap_ptr_or_null] return with a
    declared destructor; lock pairs = [lock_ordinal] metadata), so a new
    helper pattern is a registry entry, not a new traversal.

    The pass is tuned to never flag what it cannot witness: facts only flow
    along edges the verifier found feasible, values that escape the tracked
    cells (pointer arithmetic, stores to the heap, passed to an unrelated
    helper) silently untrack their site, and every finding carries the pc
    trace of a concrete candidate path. The fuzzer's seventh oracle executes
    flagged programs along that witness and fails the analysis if the
    claimed fact is refuted ({!Kflex_fuzz.Oracle}). *)

type kind =
  | Leak  (** an allocation is live on some path reaching [Exit] *)
  | Double_release  (** released again after a release on the same path *)
  | Use_after_release  (** dereferenced after a release on the same path *)
  | Null_deref
      (** a possibly-NULL allocator result dereferenced with no null check
          dominating the access on this path (SFI-safe, still a bug) *)
  | Lock_hazard
      (** a blocking/acquiring helper call, a potential cancellation point
          (unbounded-loop back edge), or program exit while a spin lock is
          held *)
  | Lock_order
      (** nested locks acquired against the global (ordinal, address) order,
          or the same lock taken twice — self-deadlock *)
  | Chain_unreachable
      (** chain composition: an upstream program's exit verdicts make this
          program unreachable, so its effects (including releases) never
          run *)
  | Gave_up
      (** the path fixpoint ran out of budget: the program is unchecked for
          every other kind (reported at pc 0, site 0, empty witness) *)

type finding = {
  kind : kind;
  site : int;
      (** pc of the event the finding is about: the allocation site
          ([Leak]/[Double_release]/[Use_after_release]/[Null_deref]), the
          acquisition pc of the relevant lock ([Lock_hazard]/[Lock_order]),
          or the blocking program's exit pc ([Chain_unreachable]). *)
  pc : int;  (** pc at which the defect manifests *)
  witness : int list;
      (** pc trace of a path from entry that realises the finding, ending at
          [pc]. For [Chain_unreachable]: the blocking program's reachable
          exit pcs (the evidence that none can produce the pass verdict). *)
  msg : string;
}

type chain_finding = {
  index : int;  (** position of the flagged program in the chain *)
  finding : finding;
}

val kind_name : kind -> string
(** Stable machine-readable name ([leak], [double-release], ...) used by
    [kflexc lint --json] — part of the documented schema, do not repurpose. *)

val pp_finding : Format.formatter -> finding -> unit

val run : contracts:Contract.registry -> Verify.analysis -> finding list
(** Analyse one verified program. Findings are deduplicated by
    [(kind, site, pc)] (keeping the shortest witness) and sorted by
    [(pc, kind, site)]. If the fixpoint exceeds its budget of block visits
    ({!Dataflow.forward}'s), the result is one
    {!Gave_up} finding instead: a program the analysis could not finish
    never reads as clean. *)

val run_chain :
  contracts:Contract.registry ->
  pass_verdict:int64 ->
  ?default_ret:int64 ->
  Verify.analysis list ->
  chain_finding list
(** Analyse an engine chain as a whole: each program individually (findings
    tagged with their chain position), plus cross-program composition — if
    some program's reachable exits all carry an r0 abstract value that
    excludes [pass_verdict], every downstream program is flagged
    [Chain_unreachable] (its releases and effects can never run). Sorted by
    [(index, pc, kind)].

    A cancelled program returns the hook's default verdict instead of its
    own r0, so when [default_ret] (default: [pass_verdict] itself, the XDP
    situation) equals [pass_verdict], the exclusion proof additionally
    requires the blocking program to be uncancellable: no heap accesses
    (cancellation sites), no loops (checkpoints), and no spin-lock
    acquisitions (stall sites). *)
