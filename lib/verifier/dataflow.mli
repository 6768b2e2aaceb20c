(** Generic dataflow fixpoint engine over a verified program's CFG.

    Both {!Lint} (slot/r0 liveness) and {!Lifecycle} (resource and lock
    facts) are instances of the same worklist iteration; this module factors
    it out so new analyses are a [spec] record, not a bespoke traversal.

    The engine consumes a {!Verify.analysis} rather than a bare CFG because
    the verifier's results sharpen the graph: blocks the abstract semantics
    never delivered a state to are skipped entirely, and conditional edges
    the verifier proved dead ({!Verify.branch_verdict}) are not propagated
    along — a client analysis therefore never sees facts from an infeasible
    path the verifier already ruled out. *)

type 'f spec = {
  join : 'f -> 'f -> 'f;  (** least upper bound at control-flow merges *)
  equal : 'f -> 'f -> bool;  (** convergence test *)
  transfer : int -> Kflex_bpf.Insn.t -> 'f -> 'f;
      (** [transfer pc insn fact] — the effect of one instruction. Forward:
          maps the pre-fact to the post-fact. Backward: maps the post-fact
          to the pre-fact. *)
  edge : (int -> Kflex_bpf.Insn.t -> taken:bool -> 'f -> 'f) option;
      (** forward only: refine the post-fact of a conditional jump along a
          specific outcome edge (e.g. a null check splitting a [Maybe_null]
          fact). Ignored by {!backward}. *)
}

exception Diverged
(** Raised when the iteration fails to converge within a generous budget —
    a backstop against non-monotone or infinite-lattice specs. Clients
    report that they gave up rather than reading as clean. *)

val forward : Verify.analysis -> init:'f -> 'f spec -> 'f option array
(** Solve a forward problem. [init] seeds pc 0. Returns the fixpoint
    {e pre}-fact for every pc ([None] for pcs in blocks the verifier never
    reached, or structurally unreachable ones). *)

val backward : Verify.analysis -> exit_fact:'f -> 'f spec -> 'f option array
(** Solve a backward problem. [exit_fact] seeds every [Exit] instruction
    (and any block with no live successors). Returns the fixpoint
    {e post}-fact for every pc — the fact holding {e after} the instruction
    executes, before control reaches any successor. *)

val with_budget : int -> (unit -> 'a) -> 'a
(** [with_budget n f] runs [f] with every fixpoint the calling domain
    solves capped at [n] block visits instead of the default
    [64 * (blocks + 4)^2]: a test seam, so that a small program can reach
    the {!Diverged} path. *)
