(** The KFlex memory allocator (§3.2, §4.1).

    A size-class allocator over an extension heap, mirroring the paper's
    design: per-CPU caches of free objects for each size class, refilled
    from a global pool, with physical pages populated on demand as the
    allocator hands memory out. Each block carries an 8-byte header holding
    its size class, so [free] needs only the pointer.

    The allocator owns heap offsets from [data_start] (past the reserved
    words and extension globals) to the end of the heap. *)

type t

val create : ?ncpu:int -> ?data_start:int64 -> Heap.t -> t
(** @param ncpu number of per-CPU caches (default 8).
    @param data_start first heap offset the allocator may use (default 64;
    offset 0 holds the [*terminate] word). *)

val heap : t -> Heap.t

val size_classes : int array
(** Payload sizes of the classes, ascending. *)

val alloc : t -> cpu:int -> int64 -> int64 option
(** [alloc t ~cpu size] returns the heap {e offset} of a zeroed block with at
    least [size] payload bytes, or [None] when the heap is exhausted or
    [size] exceeds the largest class. Served from the CPU's cache when
    possible; otherwise the cache is refilled from the global pool. *)

val free : t -> cpu:int -> int64 -> bool
(** [free t ~cpu off] returns a block to the CPU's cache; [false] when [off]
    is not a currently live block (double free or wild pointer — the
    extension's problem, never the kernel's; the block is ignored). *)

val alloc_off : t -> cpu:int -> int -> int
(** The allocation-free form of {!alloc} (which wraps it): the payload
    offset, or -1. *)

val free_off : t -> cpu:int -> int -> bool
(** The allocation-free form of {!free} (which wraps it). *)

val live_blocks : t -> int
(** Number of allocated-and-not-freed blocks (for tests and accounting). *)

val cache_occupancy : t -> cpu:int -> int
(** Total objects cached for one CPU (tests the refill/drain behaviour). *)
