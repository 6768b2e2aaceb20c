(** Label-based assembler.

    Programs are written as a list of items mixing instructions and symbolic
    labels; [assemble] resolves labels to relative jump offsets and produces a
    validated {!Prog.t}. This is the target of the eclang code generator and
    the convenient way to write extensions by hand in tests and examples. *)

type item =
  | I of Insn.t  (** a concrete instruction *)
  | L of string  (** a label definition *)
  | Ja_l of string  (** unconditional jump to a label *)
  | Jcond_l of Insn.cond * Reg.t * Insn.src * string
      (** conditional jump to a label *)

exception Error of string

val assemble : ?allow_instrumentation:bool -> name:string -> item list -> Prog.t
(** Resolve labels and validate, through a {!Buf}.
    @raise Error on duplicate or undefined labels.
    @raise Prog.Malformed if the resolved program is invalid. *)

(** Emitting in place: instructions written into a growing array, labels
    as ints placed at a pc, and each jump to a label not yet placed
    patched by {!Buf.finish}. {!assemble} and the eclang code generator
    write through it. *)
module Buf : sig
  type t

  val create : unit -> t
  val emit : t -> Insn.t -> unit

  val label : t -> int
  (** A new label, not yet placed. *)

  val placed : t -> int -> bool

  val place : t -> int -> unit
  (** Place a label at the next instruction. *)

  val ja : t -> int -> unit
  (** Emit an unconditional jump to a label. *)

  val jcond : t -> Insn.cond -> Reg.t -> Insn.src -> int -> unit
  (** Emit a conditional jump to a label. *)

  val finish : t -> Insn.t array
  (** Patch the jumps; the instructions, for {!Prog.create}.
      @raise Error when a jump's label was never placed. *)
end

(** Convenience constructors, so assembly reads close to eBPF mnemonics. *)

val mov : Reg.t -> Reg.t -> item
val movi : Reg.t -> int64 -> item
val alu : Insn.alu_op -> Reg.t -> Reg.t -> item
val alui : Insn.alu_op -> Reg.t -> int64 -> item
val ldx : Insn.size -> Reg.t -> Reg.t -> int -> item
val stx : Insn.size -> Reg.t -> int -> Reg.t -> item
val sti : Insn.size -> Reg.t -> int -> int64 -> item
val call : string -> item
val exit_ : item
val label : string -> item
val ja : string -> item
val jmp : Insn.cond -> Reg.t -> Reg.t -> string -> item
val jmpi : Insn.cond -> Reg.t -> int64 -> string -> item
