(** Extension heaps (§3.2, §4.1).

    A heap is a power-of-two-sized region of the simulated kernel virtual
    address space, mapped at an address aligned to its size so that SFI
    masking can extract the offset bits, flanked by 32 KB guard zones that
    absorb the signed 16-bit displacements of memory instructions, and
    demand-paged: physical backing for a 4 KB page exists only once the
    allocator (or a user-space mapping) has populated it. Extension accesses
    to an unpopulated page fault, which the runtime turns into a cancellation
    (C2, §3.3).

    Addresses: the kernel view maps the heap at {!kbase}; a heap shared with
    user space (§3.4) is additionally visible at {!ubase}. Both bases are
    size-aligned, so the same masking recovers the offset from either view. *)

type t

exception Fault of { addr : int64; reason : string }

val page_size : int
(** 4096. *)

val create : ?shared:bool -> ?kbase:int64 -> size:int64 -> unit -> t
(** Create a heap. [size] must be a power of two between one page and 2{^40}
    bytes; physical backing is allocated lazily per page. [shared] also maps
    the heap at its user-space base. [kbase] overrides the kernel-view base
    address (default 2{^46}); it must be size-aligned, at least the default,
    and leave the user-space window (2{^47}) and its guard zones clear —
    the fuzzer randomises it to check no analysis or instrumentation baked
    in the constant.
    @raise Invalid_argument on a bad size or base. *)

val geometry_error : kbase:int64 -> size:int64 -> string option
(** Why {!create} would refuse this size and base, or [None] if it would
    accept them. *)

val size : t -> int64
val mask : t -> int64
val kbase : t -> int64
val ubase : t -> int64 option
val is_shared : t -> bool

val sanitize : t -> int64 -> int64
(** The SFI guard function: [kbase + (addr land mask)] (§3.2). *)

val translate_user : t -> int64 -> int64
(** Translate-on-store: [ubase + (addr land mask)] (§3.4).
    @raise Invalid_argument if the heap is not shared. *)

val offset_of_addr : t -> int64 -> int64 option
(** The heap offset designated by a kernel- or user-view address within
    [heap ± guard zones]; [None] for wild addresses. The offset may be
    negative or beyond [size] when the address lands in a guard zone. *)

val populate : t -> off:int64 -> len:int64 -> unit
(** Back all pages covering [off, off+len) (allocator / mmap path). *)

val populated_bytes : t -> int64
(** Physical memory currently backing the heap (the cgroup accounting of
    §4.1). *)

val snapshot : t -> (int64 * string) list
(** Contents of every backed page, as [(page index, 4 KB of bytes)] sorted by
    index — a deterministic digest source for differential testing. *)

(** {2 Sized accesses}

    [addr] is a virtual address (either view). Little-endian.
    @raise Fault on guard-zone hits, unpopulated pages or wild addresses. *)

val read : t -> width:int -> int64 -> int64
val write : t -> width:int -> int64 -> int64 -> unit

(** {2 Width-specialized extension accesses}

    Hot-path variants of {!read}/{!write} for the Jit and the helper ABI:
    one unsigned bound check against a precomputed limit and a direct page
    access. Semantics (including fault reasons and their order) are
    exactly those of the generic pair — unusual cases fall back to it.
    The width (1, 2, 4 or 8; any other value acts as 8) comes second.
    Pass it as an int literal: the bodies are forced inline, and a
    literal folds each call site to that width's code alone. *)

val load : t -> int -> int64 -> int64
val store : t -> int -> int64 -> int64 -> unit

(** {2 Offset-based accesses for trusted code (runtime, user space)}

    These bypass the fault machinery for in-range, populated offsets and are
    used by the allocator and the user-space side of shared heaps. *)

val read_off : t -> width:int -> int64 -> int64
val write_off : t -> width:int -> int64 -> int64 -> unit

val set64_off : t -> int -> int64 -> unit
(** [write_off ~width:8] at a native-int offset, allocation-free when the
    word sits inside one page. *)

val zero_off : t -> off:int -> len:int -> unit
(** Zero [len] bytes from offset [off], populating pages as {!write_off}
    would. *)
