(** The KFlex verifier.

    Checks {e kernel-interface compliance} by abstract interpretation over
    the program CFG — the role the eBPF verifier plays in KFlex's design
    (§3). It enforces:

    - no use of uninitialised registers or stack;
    - context accesses within bounds, context read-only;
    - stack accesses within the 512-byte frame at known offsets;
    - helper calls matching their {!Contract.t} (argument shapes, arity);
    - reference discipline: every acquired kernel object is released on all
      paths, never leaked to extension memory, and loops converge for kernel
      resources — anything acquired in an iteration is released within it
      (§3.1);
    - in [Ebpf] mode: no extension heap and no unbounded loops (this is what
      restricts plain eBPF's flexibility, §2.2);
    - in [Kflex] mode: heap accesses are permitted unconditionally — memory
      safety for them is delegated to the SFI runtime — and unbounded loops
      are permitted and reported for C1 instrumentation.

    Alongside the safety verdict, verification produces the {!analysis} that
    Kie consumes: the classification of every heap access as guard-elidable
    or not (range analysis, §3.2/§5.4), the unbounded loops, and the held
    kernel resources at every instruction (object tables, §3.3). *)

type mode = Ebpf | Kflex

type error_kind =
  | E_uninit
  | E_bounds
  | E_type
  | E_helper
  | E_leak
  | E_loop
  | E_resource

type error = { pc : int option; kind : error_kind; msg : string }

type heap_access = {
  pc : int;
  is_store : bool;  (** stores and atomics need write guards *)
  is_atomic : bool;
  width : int;
  addr_reg : Kflex_bpf.Reg.t;
  elidable : bool;
      (** the verifier proved the unsanitised address already lies within the
          heap: a non-null heap pointer whose effective offset range fits
          [0 .. heap_size - width] *)
  formation : bool;
      (** the address is an untrusted word (loaded from the heap or a raw
          scalar) rather than a manipulated heap pointer — its guard {e
          forms} a heap pointer and can never be elided. Table 3 of the
          paper excludes these from the elision statistics. *)
  stored_ptr : bool;
      (** (stores only) the stored value is statically a heap pointer; with
          a shared heap Kie rewrites the store to translate-on-store
          ({!Kflex_bpf.Insn.Xstore}, §3.4). *)
  eff : Range.t;
      (** the effective address the access dereferences — the heap offset
          range (displacement folded in) for pointer accesses, or the raw
          scalar range for formation accesses. Carries the interval and
          known-bits evidence behind the [elidable] verdict, so reports can
          show {e why} a guard was or wasn't elided. *)
}

type branch_verdict =
  | Always_taken  (** the fall-through edge is dead *)
  | Never_taken  (** the taken edge is dead *)

type res_entry = {
  res : State.resource;
  loc : State.loc;  (** where the object lives at this point, on all paths *)
}

type stats = {
  block_visits : int;
      (** blocks the fixpoint executed, counting every re-visit of a block
          whose entry state grew *)
  joins : int;  (** states joined into a block that already had one *)
  widenings : int;
      (** joins widened because their block had already been joined into
          more than 8 times *)
}
(** The work the fixpoint did, as counts. They depend only on the program
    and the analysis, never on timing. *)

type analysis = {
  prog : Kflex_bpf.Prog.t;
  cfg : Kflex_bpf.Cfg.t;
  heap_accesses : heap_access list;  (** in increasing pc order *)
  unbounded : Kflex_bpf.Cfg.loop list;
  res_at : res_entry list array;  (** held resources before each pc *)
  stack_used : int;  (** bytes of stack frame touched *)
  insn_count : int;
  reached : bool array;
      (** per CFG block id: whether the abstract semantics ever delivered a
          state to it. A structurally-connected block that stays unreached
          is dead code behind contradictory branches — lint material. *)
  verdicts : (int * branch_verdict) list;
      (** conditional jumps with a provably-dead edge, by pc, ascending *)
  redundant_masks : (int * int64) list;
      (** [And] instructions (by pc, ascending, with the mask value —
          immediate or known-constant register) that provably cannot change
          their operand: all possibly-set bits already inside the mask —
          redundant hand-written sanitisation *)
  stats : stats;
  replay : replay;  (** what {!states_at} is built from *)
}

and replay
(** The fixpoint's block-entry states and the verification environment. *)

val run :
  mode:mode ->
  contracts:Contract.registry ->
  ctx_size:int ->
  ?heap_size:int64 ->
  ?sleepable:bool ->
  Kflex_bpf.Prog.t ->
  (analysis, error) result
(** Verify a program. [heap_size] must be a power of two when given; omitting
    it (or running in [Ebpf] mode) makes any heap access an error. *)

val states_at : analysis -> State.t option array
(** The final abstract pre-state per pc — the fixpoint facts the verifier
    committed to at each instruction; [None] for unreached pcs. The
    fuzzer's containment oracle checks every concrete register value
    against these ([reg_bounds_sync] for whole programs), and lint and
    the lifecycle analysis read them. {!run} keeps only the block-entry
    states: the first call replays the final pass from them, and later
    calls return the same array. Safe to call from several domains at
    once. The states must not be written. *)

val error_kind_name : error_kind -> string
(** Stable lower-case name (["uninit"], ["bounds"], …) — part of the
    [kflexc lint --json] schema contract. *)

val pp_error : Format.formatter -> error -> unit
