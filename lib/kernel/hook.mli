(** Kernel extension hooks.

    Extensions attach to a hook and are invoked per event. We model the two
    hooks the paper's evaluation uses — XDP (raw ethernet ingress, §5.1
    Memcached) and [sk_skb] (post-transport stream, §5.1 Redis) — plus the
    hook-specific context block and default return codes that cancellation
    falls back to (network hooks pass by default, security hooks deny;
    §4.3). *)

type kind = Xdp | Sk_skb | Lsm

val ctx_size : int
(** Size in bytes of the context block (64). Layout:
    - offset 0, u32: packet payload length
    - offset 4, u32: transport (0 = UDP, 1 = TCP)
    - offset 8, u16: source port
    - offset 10, u16: destination port
    - remaining bytes reserved (zero). *)

val build_ctx : Packet.t -> Bytes.t
(** A fresh context block for the packet. *)

val fill_ctx : Bytes.t -> Packet.t -> unit
(** Write the packet's fields into a reused [ctx_size]-byte block whose
    reserved bytes are zero ({!build_ctx} is a fresh block plus this). *)

(** XDP return codes (the subset we use). *)

val xdp_aborted : int64
val xdp_drop : int64
val xdp_pass : int64
val xdp_tx : int64  (** transmit the (possibly rewritten) packet back *)

val default_ret : kind -> int64
(** What a cancelled extension returns: [xdp_pass] for XDP, pass (0) for
    [Sk_skb], deny (-1) for [Lsm] (§4.3). *)

val pass_verdict : kind -> int64
(** The verdict on which a hook chain falls through to the next attached
    program (tail-call composition): [xdp_pass] for XDP, pass (0) for
    [Sk_skb], allow (0) for [Lsm]. Any other verdict is terminal — first
    drop/tx/deny wins. *)

val sleepable : kind -> bool
(** Whether extensions at this hook may call sleepable helpers. *)
