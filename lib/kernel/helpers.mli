(** Kernel-side helper implementations.

    The kernel half of the extension interface: socket lookups (which take
    references — the canonical acquired resource of §3.3) and eBPF map
    operations. Each helper charges the cost model's estimate of its kernel
    work so benchmarks account for helper time. The packet accessors are VM
    builtins ({!Kflex_runtime.Vm.native_builtins}): the packet travels with
    the invocation, not with the kernel state. *)

type t
(** Kernel state shared by all helpers: socket table and map registry. *)

val create : unit -> t

val sockets : t -> Socket.t
val maps : t -> Map.registry

val implementations : t -> (string * Kflex_runtime.Vm.helper) list
(** All kernel helper implementations, to pass to {!Kflex_runtime.Vm.create}:
    [bpf_sk_lookup_udp], [bpf_sk_lookup_tcp], [bpf_sk_release], [bpf_map_lookup],
    [bpf_map_update], [bpf_map_delete], [bpf_map_lock], [bpf_map_unlock],
    [bpf_map_sum].

    Map helpers dispatch on the fd's {!Map.kind} and charge that kind's
    {!Cost.map_cost}.  [bpf_map_lock(fd, &key)] returns a NULL-able lock
    handle packing [(fd << 32) | slot_id] (acquired resource, destructor
    [bpf_map_unlock]); contention past the bounded spin stalls the helper
    so the watchdog cancels and the unwinder releases held locks.
    [bpf_map_sum(fd, &key, &out)] is the Percpu merged read (plain lookup
    on other kinds). *)

val lock_handle : fd:int64 -> id:int -> int64
val lock_handle_fd : int64 -> int64
val lock_handle_id : int64 -> int
