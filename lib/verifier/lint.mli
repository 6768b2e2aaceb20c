(** Bytecode lint: structured diagnostics from the verifier's analysis.

    Verification answers "is this extension safe to load"; lint answers
    "does this extension say what its author meant". It reuses the
    verifier's abstract-interpretation facts ({!Verify.analysis}) plus a
    conservative syntactic pass over the bytecode, and reports:

    - {e unreachable code}: blocks the abstract semantics never reaches —
      either disconnected from the entry, or guarded by a contradictory
      branch (a [refine] that proves an edge dead);
    - {e dead stores}: stack slots written and then overwritten or
      abandoned at [exit] without an intervening read;
    - {e always/never-taken branches}: conditional jumps with a provably
      dead edge;
    - {e redundant guards}: hand-written [land]-sanitisations that the
      known-bits analysis proves are no-ops — the runtime guard they
      imitate would have been elided anyway;
    - {e ignored helper results}: value-returning helper calls whose [r0]
      is clobbered before any use.

    Every diagnostic is conservative: a finding is only emitted when the
    analysis {e proves} the code is inert on all paths, so there are no
    false positives on verified programs. Dead-store and ignored-result
    tracking run as whole-program backward liveness on {!Dataflow}; a
    helper call only keeps a slot alive when its contract says it can read
    it (an [A_stack_ptr n] argument covering the slot at the abstract call
    state, or an argument shape that could hide a stack pointer). The one
    global give-up left is a stack address escaping [r10] into data flow,
    where slots can alias through any register.

    The two dataflow passes run within a budget of block visits. A pass
    that exhausts it reports an {e analysis-gave-up} diagnostic at pc 0
    instead of nothing, so a program the analysis could not finish never
    reads as clean. *)

type kind =
  | Unreachable
  | Dead_store
  | Always_taken
  | Never_taken
  | Redundant_guard
  | Ignored_result
  | Gave_up  (** a dataflow pass ran out of budget; its kind is unchecked *)

type diag = { pc : int; kind : kind; msg : string }

val run : contracts:Contract.registry -> Verify.analysis -> diag list
(** Diagnostics in ascending pc order. [contracts] distinguishes
    value-returning helpers from unit ones for {!Ignored_result}. *)

val fp_escapes : Kflex_bpf.Insn.t -> bool
(** Whether an instruction reads the frame pointer r10 as a value (not as
    the base of a load or store), so that a stack address escapes into
    data flow and may alias any slot from any register. *)

val kind_name : kind -> string
(** Stable kebab-case identifier, e.g. ["dead-store"]. *)

val exit_code : diag list -> int
(** The [kflexc lint] exit-code contract: [0] for a clean program, [1] when
    there are findings. (Exit code [2] — compile/verify failure — is the
    CLI's, since no diagnostics exist then.) *)

val pp_diag : Format.formatter -> diag -> unit
