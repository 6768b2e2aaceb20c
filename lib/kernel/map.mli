(** eBPF maps — the kernel-provided data structures plain eBPF extensions
    are restricted to (§2.2), grown into the map-kind spectrum production
    extensions actually lean on.

    Keys and values are fixed-size byte strings in the kernel; the
    copy-through-stack helper variants used by our ISA move 8-byte handles,
    so maps here are keyed by [int64] with [int64] values (a hash of the
    full key — the same trick BMC uses to index its cache).  Capacity is
    fixed at creation: plain eBPF has no dynamic allocation.

    Kinds:
    - [Array], [Hash]: private per-instance stores (the seed semantics).
    - [Percpu]: one bank per CPU; the owner's operations are
      shard-local and uncontended, {!merged} sums across banks.
    - [Spinlock]: every value carries a lock word; {!try_lock} /
      {!unlock_id} implement [bpf_spin_lock]-style critical sections, and
      plain operations only succeed for the current holder.
    - [Rcu_shared]: a shared map published through one [Atomic] snapshot,
      a persistent hash trie — wait-free readers, serialized writers,
      retired snapshots reclaimed on per-CPU epoch quiescence
      ({!rcu_quiesce}, {!rcu_synchronize}). *)

type kind = Array | Hash | Percpu | Spinlock | Rcu_shared

val kind_name : kind -> string

type t

val create : ?kind:kind -> ?cpus:int -> max_entries:int -> unit -> t
(** [kind] defaults to [Hash] (the seed behaviour); [cpus] (default 1)
    sizes the Percpu banks and the RCU epoch vector. *)

val kind : t -> kind
val cpus : t -> int

(** {2 Allocation-free operations}

    Keys and values travel through a caller-owned [io] bank — slot 0 the
    key, slot 1 the value — because an [int64] argument or result boxes at
    every call that does not inline. None of these allocates on a hit or a
    miss, and no update of an existing key allocates except on
    [Rcu_shared], whose copy-on-write publish builds the new snapshot's
    path by design. The option-returning operations further down wrap
    them. *)

type io = Kflex_runtime.U64.bank

val io : unit -> io

val find_io : t -> cpu:int -> io -> bool
(** {!lookup}: on a hit the value lands in slot 1. *)

val store_io : t -> cpu:int -> io -> bool
(** {!update} of key slot 0 to value slot 1. *)

val remove_io : t -> cpu:int -> io -> bool
(** {!delete}. *)

val sum_io : t -> io -> bool
(** {!merged}: on a hit the merged value lands in slot 1. *)

val lock_io : t -> cpu:int -> io -> int
(** {!try_lock}: the lock id ([> 0]) when acquired, [0] for
    [Unavailable], [-1] for [Contended]. *)

(** {2 Option-returning operations} *)

val lookup : ?cpu:int -> t -> int64 -> int64 option
(** [cpu] selects the Percpu bank and identifies the holder for Spinlock
    maps (a non-holder's lookup is a miss); ignored by private kinds.
    Rcu_shared lookups are wait-free reads of the published snapshot. *)

val update : ?cpu:int -> t -> int64 -> int64 -> bool
(** [false] when the map is full and the key absent, when an Array key is
    out of range, or when a Spinlock value is touched without holding its
    lock.  Rcu_shared updates publish a new snapshot version. *)

val delete : ?cpu:int -> t -> int64 -> bool
(** Array maps have no delete ([false]); a Spinlock delete requires the
    lock and tolerates the later unlock of the removed slot. *)

val merged : t -> int64 -> int64 option
(** Percpu: the sum of the key's value across every bank ([None] when no
    bank has it).  Any other kind: a plain [lookup ~cpu:0]. *)

val entries : t -> int
val max_entries : t -> int

val to_list : t -> (int64 * int64) list
(** Stable dump, sorted by key: merged across Percpu banks; Array elides
    default-zero slots.  Tests and the linearizability oracle compare
    final map states with it. *)

(** {2 Spin-locked values} *)

type lock_result =
  | Acquired of int  (** the slot's stable lock id *)
  | Unavailable  (** map full (key absent) or not a Spinlock map *)
  | Contended  (** bounded spin exhausted — includes self-deadlock *)

val try_lock : ?cpu:int -> t -> int64 -> lock_result
(** Find-or-create the key's slot, then a bounded CAS spin on its lock
    word.  The acquire CAS / release store pair makes the value field
    race-free across holders (OCaml 5 memory model). *)

val unlock_id : ?cpu:int -> t -> int -> bool
(** Release by lock id; [false] unless [cpu] is the current holder. *)

val lock_held : t -> int64 -> bool
(** Observation for tests: is the key's lock word currently taken? *)

(** {2 RCU epochs} *)

type rcu_stats = {
  version : int;  (** snapshot versions published so far *)
  retired : int;  (** snapshots awaiting quiescence *)
  reclaimed : int;  (** snapshots reclaimed since creation *)
}

val rcu_quiesce : t -> cpu:int -> unit
(** Announce a quiescent state for [cpu] (the engine calls this between
    events), then reclaim every retired snapshot whose stamped epoch
    vector every CPU has advanced past.  No-op on other kinds. *)

val rcu_synchronize : t -> unit
(** A full grace period (the engine's attach/detach quiescence): advance
    every epoch and reclaim everything retired before the call. *)

val rcu_stats : t -> rcu_stats option
(** [None] unless the map is [Rcu_shared]. *)

val rcu_depth : t -> int64 -> int
(** The trie nodes a lookup of the key descends through in the published
    snapshot (0 on other kinds). The trie branches 16 ways on 4 bits per
    level of [k * 0x9E3779B97F4A7C15] (a bijection), top bits first, and a
    node covers at least two keys, so the depth is at most 16. *)

(** {2 Registry (map file descriptors)} *)

type registry

val registry : unit -> registry

val register : registry -> t -> int64
(** Returns the fd an extension passes as the helper's first argument.
    fds start at 3 and are monotonic — never reused, even after
    {!unregister} — so a stale fd can only ever miss. *)

val absent : t
(** The map {!get} answers for an unbound fd (compare with [==]). *)

val get : registry -> int64 -> t
(** The map bound to an fd, or {!absent}: fds index an array, so this is
    one bounds test and one load. *)

val find : registry -> int64 -> t option
(** [None] for never-issued and unregistered (stale) fds alike. *)

val unregister : registry -> int64 -> bool
(** Drop the fd binding (the map itself may live on elsewhere — shared
    maps are registered into several per-shard registries). [false] when
    the fd is not currently bound. *)
