(** Abstract machine state for verification.

    Tracks the abstract value of each register, the contents of the 512-byte
    extension stack at 8-byte slot granularity, and the set of kernel
    resources currently held (the input to object-table generation, §3.3).

    States form a lattice: {!join} merges the states flowing into a CFG
    block; {!widen} accelerates convergence around loops. *)

type slot =
  | S_empty  (** never written — reads are errors *)
  | S_misc  (** scalar bytes of unknown value *)
  | S_spill of Value.t
      (** an aligned 8-byte spill of a tracked value, never [Uninit] (only
          used values are stored) *)

type resource = { id : int; klass : string; destructor : string }

type t = {
  regs : Value.t array;  (** length 11, indexed by register number *)
  stack : slot array;  (** length 64; slot [i] covers bytes [8i..8i+7] of
      the stack frame, byte 0 being [r10 - 512] *)
  res : resource list;  (** held resources, sorted by id *)
  origin : int array;
      (** length 11: the stack slot register [i] was loaded from (and still
          mirrors), or -1. Lets branch refinements on a register narrow the
          spilled copy too — the precision the eBPF verifier keeps for
          spilled registers, and what makes loop-counter-indexed heap
          accesses provably safe (§5.4). *)
}

val nslots : int

val init : ctx_nullable:bool -> t
(** The entry state: [r1] = context pointer, [r10] = frame pointer, all other
    registers uninitialised, empty stack, no resources. *)

val get : t -> Kflex_bpf.Reg.t -> Value.t
val set : t -> Kflex_bpf.Reg.t -> Value.t -> t
(** Write a register (clears its origin). *)

val set_from_slot : t -> Kflex_bpf.Reg.t -> Value.t -> int -> t
(** Like {!set}, recording that the register mirrors a stack slot. *)

val clobber : t -> Kflex_bpf.Reg.t list -> t
(** {!set} each register to [Uninit], in one copy of the state. *)

val refine_mirrored : t -> Kflex_bpf.Reg.t -> Value.t -> t
(** Narrow a register (after a branch refinement) and, when it mirrors a
    stack slot, narrow the spilled copy too. *)

val write_slot : t -> int -> slot -> t
(** Update a stack slot, invalidating registers that mirrored it. *)

val equal : t -> t -> bool

val join : t -> t -> (t, string) result
(** [Error] when the resource sets differ — a path acquired a resource the
    other did not, which the verifier rejects (it is also the §3.1
    loop-convergence violation when the join point is a loop header). *)

val widen : prev:t -> t -> t
(** Replace, in the new state, every range that grew since [prev] by the
    full range, forcing fixpoints to terminate. *)

val add_res : t -> resource -> t
val remove_res : t -> int -> t
val has_res : t -> int -> bool

(** {2 Resource locations} *)

type loc = L_reg of Kflex_bpf.Reg.t | L_slot of int

val find_obj : t -> int -> loc option
(** Some location (register preferred) currently holding the object with the
    given resource id. *)

val leaked : t -> resource list
(** Held resources with no remaining location — fatal: the runtime could not
    release them on cancellation. *)

val objects_moved : prev:t -> t -> bool
(** Whether [st], computed from [prev], may hold its objects elsewhere: its
    resource list is a different list, or it wrote a register or stack slot
    that holds an object before or after. When [false], {!find_obj} answers
    the same on both states and [leaked st] is [leaked prev]: a transfer can
    drop an object's last copy only by overwriting a location that held
    it. *)

val substitute_obj : t -> id:int -> Value.t -> t
(** Replace every copy of object [id] (register and spilled) by the given
    value — used when a resource is released or null-pruned. *)

val set_nonnull_obj : t -> id:int -> t
(** Mark every copy of object [id] as non-null (after a null check). *)

val pp : Format.formatter -> t -> unit
