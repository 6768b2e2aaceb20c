(** A small discrete-event simulation engine.

    Plays the role of the paper's RFC 2544 testbed (§5): virtual time in
    nanoseconds, an event loop, and nothing else — the closed- and
    open-loop lane model is built on top in {!Lanes}. *)

type t

val create : unit -> t
val now : t -> float
(** Current virtual time in ns. *)

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** Run a thunk [delay] ns from now (events at equal times run in schedule
    order). *)

val run : ?until:float -> t -> unit
(** Drain the event queue, optionally stopping once virtual time would
    exceed [until]. *)

val events_processed : t -> int
