type proto = Udp | Tcp

type t = {
  proto : proto;
  src_port : int;
  dst_port : int;
  payload : Bytes.t;
}

let make ~proto ~src_port ~dst_port payload =
  { proto; src_port; dst_port; payload }

let len t = Bytes.length t.payload

(* The packet builtins' own semantics ({!Kflex_runtime.Vm.pkt_read}), so a
   host-side read agrees with an extension's. *)
let read t ~width off =
  Kflex_runtime.Vm.pkt_read t.payload ~width (Int64.of_int off)

let write t ~width off v =
  Kflex_runtime.Vm.pkt_write t.payload ~width (Int64.of_int off) v

let proto_code = function Udp -> 0L | Tcp -> 1L
