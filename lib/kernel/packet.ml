module U64 = Kflex_runtime.U64

type proto = Udp | Tcp

type t = {
  proto : proto;
  src_port : int;
  dst_port : int;
  payload : Bytes.t;
}

let make ~proto ~src_port ~dst_port payload =
  { proto; src_port; dst_port; payload }

let none = make ~proto:Udp ~src_port:0 ~dst_port:0 Bytes.empty
let len t = Bytes.length t.payload

(* [off + width] can overflow for attacker-chosen offsets near [max_int];
   compare against [length - width] instead, which cannot. Past the check
   the raw accessors need no bounds test of their own. The width-specific
   accessors inline into the helpers, so the value never leaves a machine
   register. *)
let[@inline always] fits t off width =
  off >= 0 && off <= Bytes.length t.payload - width

let[@inline always] read8 t off =
  if fits t off 1 then Int64.of_int (Char.code (U64.get8 t.payload off)) else 0L

let[@inline always] read16 t off =
  if fits t off 2 then Int64.of_int (U64.get16 t.payload off) else 0L

let[@inline always] read32 t off =
  if fits t off 4 then
    Int64.logand (Int64.of_int32 (U64.get32 t.payload off)) 0xffff_ffffL
  else 0L

let[@inline always] read64 t off =
  if fits t off 8 then U64.get64 t.payload off else 0L

let[@inline always] write8 t off v =
  if fits t off 1 then
    U64.set8 t.payload off (Char.unsafe_chr (Int64.to_int (Int64.logand v 0xffL)))

let[@inline always] write16 t off v =
  if fits t off 2 then
    U64.set16 t.payload off (Int64.to_int (Int64.logand v 0xffffL))

let[@inline always] write32 t off v =
  if fits t off 4 then U64.set32 t.payload off (Int64.to_int32 v)

let[@inline always] write64 t off v =
  if fits t off 8 then U64.set64 t.payload off v

let read t ~width off =
  match width with
  | 1 -> read8 t off
  | 2 -> read16 t off
  | 4 -> read32 t off
  | 8 -> read64 t off
  | _ -> if fits t off width then invalid_arg "Packet.read: width" else 0L

let write t ~width off v =
  match width with
  | 1 -> write8 t off v
  | 2 -> write16 t off v
  | 4 -> write32 t off v
  | 8 -> write64 t off v
  | _ -> if fits t off width then invalid_arg "Packet.write: width"

let proto_code = function Udp -> 0L | Tcp -> 1L
