(** Binary min-heap priority queue for the event loop. *)

type 'a t

val create : unit -> 'a t
val push : 'a t -> float -> 'a -> unit
val pop : 'a t -> (float * 'a) option
(** Smallest key first; FIFO among equal keys. *)
