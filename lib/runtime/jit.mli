(** Template JIT: an instrumented program compiled to OCaml closures with
    direct-threaded dispatch, charging exactly what [Vm.Ref_interp]
    charges (the implementation's header gives the fusion rules). It has
    one form, with no observation hooks: runs with [on_insn] or [on_site]
    observers take [Vm.Ref_interp] instead.

    It compiles each pure region (a maximal run of Mov/Alu/Neg, in-frame
    stack accesses and packet-builtin calls) to its net effect: copies,
    constants and stores propagate, and the writes no later instruction
    and no unwinder can read are dropped. A register or
    frame-byte write is kept when a later instruction may read it or when
    a fault point downstream could hand it to the unwinder, which reads the
    object-table registers and slots of the faulting pc ({!unwind_locs}).
    So at every fault point the locations the unwinder reads, the heap, the
    packet and every counter are exactly what the reference interpreter
    holds; registers and frame bytes nothing reads may differ. *)

type t

val compile : Kflex_kie.Instrument.t -> t
(** Superinstruction fusion and net-effect regions. Depends on the
    instrumented program and on {!unwind_locs}, nothing else. *)

val run : t -> Machine.state -> unit
(** Execute from pc 0 to [Exit]; faults propagate as exceptions. The
    state's helper table must be linked against {!helper_names}. *)

val unwind_locs : Kflex_kie.Instrument.t -> int array
(** Per instrumented pc, two words naming the locations object-table
    unwinding reads if that pc faults: at [2 * pc] the registers (a bitmask
    over r0–r10), at [2 * pc + 1] the frame slots 1–63 ([L_slot i] at bit
    [i - 1]). Slot 0 has no bit: the fused form keeps every store to it,
    so nothing it compiles depends on whether the unwinder reads it. *)

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

val native_ops : t -> int
(** The {!region_ops} that run a packet builtin. *)

val dead_frame_stores : t -> int
(** Frame stores the regions drop because no byte they write is read
    before it is overwritten, counted per region entry like
    {!region_ops}. *)
