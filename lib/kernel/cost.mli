(** The calibrated cost model.

    Our substrate is an OCaml VM, not the paper's 96-core Xeon testbed,
    so absolute numbers cannot match; what the model preserves is {e where}
    request processing time is spent, which is what produces the paper's
    shapes: an XDP extension skips the transport stack and the kernel/user
    boundary, an [sk_skb] extension skips only the boundary, and a
    user-space server pays for everything. Per-layer costs are drawn from
    the microsecond-scale-RPC literature the paper builds on ([22, 46, 63]
    in its bibliography).

    Extension compute time is {e measured}, not assumed: benchmarks execute
    the real instrumented bytecode and convert retired cost units to time
    via {!insn_ns}. *)

(** {2 Per-map-kind helper costs (VM cost units)}

    Explicit hit/miss/update/delete charges per {!Map.kind}, replacing the
    seed's flat per-helper charge.  Invariants (pinned by the kernel
    tests): per kind [lookup_miss <= lookup_hit <= update] and
    [delete <= update]; across kinds each operation is ordered
    Array <= Percpu <= Hash <= Spinlock <= Rcu_shared lookups, and the
    Rcu_shared update/delete (copy + publish + retire) dominates every
    other kind's. *)

type map_cost = {
  lookup_hit : int;
  lookup_miss : int;
  update : int;
  delete : int;
}

val map_cost : Map.kind -> map_cost

val map_lock_cost : int
(** [bpf_map_lock]: lock-word CAS on top of the slot probe. *)

val map_unlock_cost : int
(** [bpf_map_unlock]: release store. *)

val map_merge_cost : cpus:int -> int
(** [bpf_map_sum] over a Percpu map: one probe per bank. *)

val insn_ns : float
(** Nanoseconds per VM cost unit (4 ns: a few x86 instructions per eBPF
    insn at 2.3 GHz, including the eBPF ISA inefficiencies — register
    pressure, memcpy quality — that §5.2 discusses). *)

val nic_to_xdp_ns : float
(** NIC + driver work to deliver a frame to the XDP hook (~300 ns). *)

val xdp_tx_ns : float
(** Transmitting an XDP_TX reply (~300 ns). *)

val udp_stack_ns : float
(** IP + UDP receive processing past XDP (~1.7 µs). *)

val tcp_stack_ns : float
(** IP + TCP receive processing past XDP (~3.4 µs). *)

val syscall_ns : float
(** One syscall boundary crossing incl. data copy (~700 ns). *)

val wakeup_ctx_switch_ns : float
(** Blocking socket wake-up, scheduling and context switch (~2.6 µs). *)

val native_speedup : float
(** Throughput advantage of native code over interpreted eBPF for the same
    logic (register pressure, memcpy quality — §5.2 measures the kernel
    module baseline ~9% faster): multiply extension compute by this to
    estimate the native cost of the same logic. *)

(** {2 Per-deployment request service time (ns)}

    [compute_ns] is the measured application-logic time. *)

val xdp_service_ns : compute_ns:float -> reply:bool -> float
(** Full request handled at the XDP hook (KFlex-Memcached, BMC hits). *)

val skb_service_ns : proto_tcp:bool -> compute_ns:float -> float
(** Request handled at [sk_skb], after the transport stack (KFlex-Redis). *)

val user_service_ns : proto_tcp:bool -> compute_ns:float -> float
(** Request handled by a user-space server thread over kernel sockets. *)
