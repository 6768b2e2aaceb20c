(** The extension-defined data structures of §5.2 (Figure 5, Table 3).

    Five structures — chained hash map, doubly linked list, red-black tree,
    skiplist — plus the two network sketches (count-min, count sketch),
    each written in eclang, defined entirely inside the extension heap, and
    driven through the full verify → Kie → runtime pipeline. The red-black
    tree and skiplist demonstrate what §5.2 claims eBPF cannot host:
    rebalancing rotations, variable-level towers, and allocation in the
    operation itself. *)

type kind = Hashmap | Linked_list | Rbtree | Skiplist | Countmin | Countsketch

val all : kind list
(** In Figure 5's order. *)

val name : kind -> string

val source : kind -> string
(** The eclang program with a dispatching entry (op 0 = update, 1 = lookup,
    2 = delete; payload: u8 op @0, u64 key @1, u64 value @9). *)

val op_source : kind -> [ `Update | `Lookup | `Delete ] -> string
(** A program whose entry performs only the given operation — what Table 3
    compiles to count guards per function. *)

val chain_source : kind -> string
(** Like {!source}, but the entry returns [XDP_PASS] (2) after the
    operation, so multi-tenant chains attached to one hook fall through to
    every structure. *)

(** Instrumentation mode for an instance. *)
type mode =
  | M_kflex  (** full KFlex runtime checks *)
  | M_perf  (** performance mode: read guards dropped (§3.2) *)
  | M_kmod  (** no instrumentation — the unsafe kernel-module baseline *)
  | M_noelide  (** ablation: every heap access guarded, range analysis
          ignored (§5.4) *)

type instance

val create : ?mode:mode -> ?heap_bits:int -> kind -> instance
(** Compile, verify, instrument and load one structure with its own heap
    (default 16 MiB) and kernel state. The VM PRNG is reseeded so
    randomised structures build identical shapes across modes.
    @raise Failure if the verifier rejects the program (a bug). *)

val op_packet : op:int -> key:int64 -> value:int64 -> Kflex_kernel.Packet.t
(** The driver packet for one operation (op 0 = update, 1 = lookup,
    2 = delete) — exposed so benchmarks can drive {!Kflex.run_packet}
    directly with explicit stats. *)

val exec_op : instance -> op:int -> key:int64 -> value:int64 -> int64 * int
(** Run one operation; returns (result, VM cost units).
    @raise Failure on cancellation (operations must terminate). *)

val update : instance -> key:int64 -> value:int64 -> int64 * int
val lookup : instance -> key:int64 -> int64 * int
val delete : instance -> key:int64 -> int64 * int

val loaded : instance -> Kflex.loaded
val kind : instance -> kind
