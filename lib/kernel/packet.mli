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
(** Little-endian read at a payload offset; 0 beyond the payload (the
    bounds-checked helper contract). *)

val write : t -> width:int -> int -> int64 -> unit
(** Little-endian write at a payload offset; ignored beyond the payload. *)

val read8 : t -> int -> int64
val read16 : t -> int -> int64
val read32 : t -> int -> int64
val read64 : t -> int -> int64
(** {!read} at a fixed width; inlined, so nothing is boxed. *)

val write8 : t -> int -> int64 -> unit
val write16 : t -> int -> int64 -> unit
val write32 : t -> int -> int64 -> unit
val write64 : t -> int -> int64 -> unit

val none : t
(** The empty packet: every read is 0 and every write is ignored. *)

val len : t -> int

val proto_code : proto -> int64
(** 0 for UDP, 1 for TCP — as exposed in the hook context. *)
