(** Bytecode programs.

    A program is a named, immutable sequence of instructions. [create]
    performs the structural well-formedness checks that precede verification
    proper: jump targets in range, memory offsets encodable in a signed
    16-bit field, no fall-off-the-end paths, and (for un-instrumented input
    programs) the absence of Kie-only instructions. *)

type t

exception Malformed of string
(** Raised by [create] with a human-readable reason. *)

val create : ?allow_instrumentation:bool -> name:string -> Insn.t array -> t
(** [create ~name insns] validates and wraps [insns].
    @param allow_instrumentation accept [Guard]/[Checkpoint] instructions
    (used for Kie output); defaults to [false].
    @raise Malformed if the program is structurally invalid. *)

val name : t -> string

val insns : t -> Insn.t array
(** The instruction sequence. Callers must not mutate the result. *)

val length : t -> int

val get : t -> int -> Insn.t
(** [get p pc] is the instruction at [pc].
    @raise Invalid_argument if [pc] is out of range. *)

val is_instrumented : t -> bool
(** Whether the program contains Kie instrumentation. *)

val pp : Format.formatter -> t -> unit
(** Full disassembly listing with pcs. *)

val pp_with_notes :
  notes:(int -> string option) -> Format.formatter -> t -> unit
(** Like {!pp}, but appends [; note] after any instruction for which
    [notes pc] is [Some note] — used by [kflexc report] to annotate heap
    accesses with the analysis evidence (offset ranges, known bits) behind
    each guard-elision decision. *)

val stack_size : int
(** Size in bytes of the per-invocation extension stack (512, as in eBPF). *)

val slot_of_full_store : int -> int -> int option
(** [slot_of_full_store disp width] is the 8-byte frame slot that [width]
    bytes at [r10 + disp] fill exactly, if they fill one. Slot 0 starts at
    [r10 - stack_size]. *)

val overlapping_slots : int -> int -> int list
(** The frame slots, ascending, that [width] bytes at [r10 + disp] overlap.
    Bytes outside the frame overlap no slot. *)

val max_insns : int
(** Maximum program length accepted by [create] (1,000,000, matching the
    post-5.2 eBPF limit for privileged loads). *)
