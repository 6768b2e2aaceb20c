(** Network packets of the simulated kernel.

    A deliberately small representation: the experiments in the paper are
    key-value request/response workloads over UDP (Memcached GETs) and TCP
    (Memcached SETs, all of Redis), so a packet carries its transport, ports
    and an opaque payload the extensions parse with the [pkt_read_*]
    helpers. *)

type proto = Udp | Tcp

type t = {
  proto : proto;
  src_port : int;
  dst_port : int;
  payload : Bytes.t;  (** mutable: extensions build replies in place *)
}

val make : proto:proto -> src_port:int -> dst_port:int -> Bytes.t -> t

val read : t -> width:int -> int -> int64
(** Little-endian read at a payload offset, as the [pkt_read_*] builtins
    read it: 0 unless the [width] bytes lie inside the payload. [width] is
    1, 2, 4 or 8. *)

val write : t -> width:int -> int -> int64 -> unit
(** Little-endian write at a payload offset, as [pkt_write_*] writes it:
    ignored unless the [width] bytes lie inside the payload. *)

val len : t -> int

val proto_code : proto -> int64
(** 0 for UDP, 1 for TCP — as exposed in the hook context. *)
