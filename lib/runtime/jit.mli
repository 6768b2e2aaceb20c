(** Template JIT: an instrumented program compiled to OCaml closures with
    direct-threaded dispatch, charging exactly what [Vm.Ref_interp]
    charges (the implementation's header gives the fusion rules).

    The hook-free form compiles each pure region (a maximal run of
    Mov/Alu/Neg and in-frame stack accesses) to its net effect: copies,
    constants and stores propagate, and the writes no later instruction
    and no unwinder can read are dropped. A register write is kept when a
    later instruction may read it or when a fault point downstream could
    hand it to the unwinder, which reads the object-table registers of the
    faulting pc ({!unwind_regs}). So at every fault point the registers the
    unwinder reads, the whole frame, the heap and every counter are exactly
    what the reference interpreter holds; registers nothing reads may
    differ. *)

type t

val compile : Kflex_kie.Instrument.t -> t
(** The hook-free form: superinstruction fusion and net-effect regions.
    Depends on the instrumented program and on {!unwind_regs}, nothing
    else. *)

val compile_hooked : Kflex_bpf.Prog.t -> t
(** The form for runs with [on_insn]/[on_site] observers: unfused, no
    write dropped, each instruction's closure behind a prelude that
    consults the hooks in {!Machine.state}, in the reference interpreter's
    observation order. *)

val run : t -> Machine.state -> unit
(** Execute from pc 0 to [Exit]; faults propagate as exceptions. The
    state's helper table must be linked against {!helper_names}. *)

val unwind_regs : Kflex_kie.Instrument.t -> int array
(** Per instrumented pc, the registers (a bitmask over r0–r10) that
    object-table unwinding reads if that pc faults. *)

val helper_names : t -> string array

val fused_pairs : t -> int
(** Instructions absorbed into superinstructions and regions. *)

val closures : t -> int
(** Closures built: one per entered pc plus {!region_ops}. *)

val region_ops : t -> int
(** Ops built for net-effect regions, over every region entry. *)

val pure_insns : t -> int
(** Pure instructions the regions cover, counted per region entry like
    {!region_ops}. *)
