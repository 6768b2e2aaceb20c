(** Template JIT: an instrumented program compiled to OCaml closures with
    direct-threaded dispatch, charging exactly what [Vm.Ref_interp]
    charges (the implementation's header gives the fusion rules). *)

type t

val compile : Kflex_bpf.Prog.t -> t
(** The hook-free form, with superinstruction fusion. *)

val compile_hooked : Kflex_bpf.Prog.t -> t
(** The form for runs with [on_insn]/[on_site] observers: unfused, each
    instruction's closure behind a prelude that consults the hooks in
    {!Machine.state}, in the reference interpreter's observation order. *)

val run : t -> Machine.state -> unit
(** Execute from pc 0 to [Exit]; faults propagate as exceptions. The
    state's helper table must be linked against {!helper_names}. *)

val helper_names : t -> string array
val fused_pairs : t -> int
