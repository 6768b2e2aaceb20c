type kind = Xdp | Sk_skb | Lsm

let ctx_size = 64

module U64 = Kflex_runtime.U64

(* Only bytes 0–11 carry fields; a reused buffer keeps the rest zero. The
   raw stores allocate nothing (the stdlib's [set_int32_le] takes a boxed
   [int32]). *)
let fill_ctx b (p : Packet.t) =
  if Bytes.length b <> ctx_size then invalid_arg "Hook.fill_ctx: buffer size";
  U64.set32 b 0 (Int32.of_int (Packet.len p));
  U64.set32 b 4 (Int64.to_int32 (Packet.proto_code p.Packet.proto));
  U64.set16 b 8 (p.Packet.src_port land 0xffff);
  U64.set16 b 10 (p.Packet.dst_port land 0xffff)

let build_ctx p =
  let b = Bytes.make ctx_size '\000' in
  fill_ctx b p;
  b

let xdp_aborted = 0L
let xdp_drop = 1L
let xdp_pass = 2L
let xdp_tx = 3L

let default_ret = function Xdp -> xdp_pass | Sk_skb -> 0L | Lsm -> -1L
let pass_verdict = function Xdp -> xdp_pass | Sk_skb -> 0L | Lsm -> 0L
let sleepable = function Xdp | Sk_skb -> false | Lsm -> true
