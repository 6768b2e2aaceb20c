(** Abstract machine state for verification.

    Tracks the abstract value of each register, the contents of the 512-byte
    extension stack at 8-byte slot granularity, and the set of kernel
    resources currently held (the input to object-table generation, §3.3).

    States form a lattice: {!join} merges the states flowing into a CFG
    block; {!widen} accelerates convergence around loops.

    A state is written in place: the verifier runs a block on a {!copy} of
    its entry state and copies again only where a path splits. The arrays
    behind a state are shared copy-on-write, so a copy costs one small
    record and a write copies only the registers, origins or 8-slot stack
    chunk it touches. The lattice operations never write their operands. *)

type slot =
  | S_empty  (** never written — reads are errors *)
  | S_misc  (** scalar bytes of unknown value *)
  | S_spill of Value.t
      (** an aligned 8-byte spill of a tracked value, never [Uninit] (only
          used values are stored) *)

type resource = { id : int; klass : string; destructor : string }

type t

val nslots : int

val init : ctx_nullable:bool -> t
(** The entry state: [r1] = context pointer, [r10] = frame pointer, all other
    registers uninitialised, empty stack, no resources. *)

val copy : t -> t
(** A state equal to the argument that later writes to either leave the
    other unchanged. *)

(** {2 Reading} *)

val get : t -> Kflex_bpf.Reg.t -> Value.t

val origin : t -> Kflex_bpf.Reg.t -> int
(** The stack slot the register was loaded from and still mirrors, or -1.
    Lets branch refinements on a register narrow the spilled copy too — the
    precision the eBPF verifier keeps for spilled registers, and what makes
    loop-counter-indexed heap accesses provably safe (§5.4). *)

val slot : t -> int -> slot
(** Slot [i] covers bytes [8i..8i+7] of the stack frame, byte 0 being
    [r10 - 512]. *)

val res : t -> resource list
(** Held resources, sorted by id. *)

val has_res : t -> int -> bool

(** {2 Writing in place} *)

val set : t -> Kflex_bpf.Reg.t -> Value.t -> unit
(** Write a register (clears its origin). *)

val set_from_slot : t -> Kflex_bpf.Reg.t -> Value.t -> int -> unit
(** Like {!set}, recording that the register mirrors a stack slot. *)

val clobber : t -> Kflex_bpf.Reg.t list -> unit
(** {!set} each register to [Uninit]. *)

val refine_mirrored : t -> Kflex_bpf.Reg.t -> Value.t -> unit
(** Narrow a register (after a branch refinement) and, when it mirrors a
    stack slot, narrow the spilled copy too. *)

val write_slot : t -> int -> slot -> unit
(** Update a stack slot, invalidating registers that mirrored it. *)

val put_slot : t -> int -> slot -> unit
(** Update a stack slot, leaving the registers that mirrored it with their
    origin (a helper writing through a buffer argument). *)

val add_res : t -> resource -> unit
val remove_res : t -> int -> unit

val substitute_obj : t -> id:int -> Value.t -> unit
(** Replace every copy of object [id] (register and spilled) by the given
    value — used when a resource is released or null-pruned. *)

val set_nonnull_obj : t -> id:int -> unit
(** Mark every copy of object [id] as non-null (after a null check). *)

(** {2 Lattice} *)

val equal : t -> t -> bool

val join : t -> t -> (t, string) result
(** [Error] when the resource sets differ — a path acquired a resource the
    other did not, which the verifier rejects (it is also the §3.1
    loop-convergence violation when the join point is a loop header). *)

val widen : prev:t -> t -> t
(** Replace, in the new state, every range that grew since [prev] by the
    full range, forcing fixpoints to terminate. *)

(** {2 Resource locations} *)

type loc = L_reg of Kflex_bpf.Reg.t | L_slot of int

val find_obj : t -> int -> loc option
(** Some location (register preferred) currently holding the object with the
    given resource id. *)

val leaked : t -> resource list
(** Held resources with no remaining location — fatal: the runtime could not
    release them on cancellation. *)

val take_moved : t -> bool
(** Whether, since the last call (or the {!copy} that made the state), a
    write put an object into a location or took one out of it, or the held
    resources changed; clears the record. When [false], {!find_obj} and
    {!leaked} answer as they did then: a write can drop an object's last
    copy only by overwriting a location that held it. *)

val pp : Format.formatter -> t -> unit
