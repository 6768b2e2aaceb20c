(** The virtual-time load driver: FIFO service lanes over the {!Des}.

    Plays the paper's testbed (§5) in both of its load shapes. Each lane
    is a FIFO queue in front of [servers] identical servers; [place]
    routes a request to its lane, and [service ~lane idx req] {e executes}
    request [idx] when a server takes it and returns its service time in
    ns, so results reflect the real per-request work of the system under
    test. Lanes serve concurrently in virtual time.

    - An anonymous worker pool (Figs. 2–7) is one lane with [workers]
      servers.
    - A sharded engine is one lane per shard, placed by its flow hash.

    Latency is recorded per lane and folded with
    {!Kflex_workload.Stats.merge}.

    [gc] models the co-designed auxiliary slow path of §5.3: every
    [period] ns each server owes one [pause] ns stall, taken before the
    next request it starts. *)

type source =
  | Closed of { clients : int; rtt_ns : float; warmup_frac : float }
      (** [clients] each keep one request outstanding, [rtt_ns] round
          trip; the first [warmup_frac] of requests are not measured.
          Latency runs from issue to the reply's arrival. *)
  | Open of (int -> float)
      (** Request [idx] arrives at the given virtual ns (from 0, never
          going backwards), whatever has completed. Latency runs from the
          scheduled arrival to completion, queueing included, so overload
          is measured rather than excused (no coordinated omission). *)

type result = {
  throughput_mops : float;
  mean_us : float;
  p50_us : float;
  p99_us : float;
  p999_us : float;
  completed : int;  (** every request, warm-up included *)
  span_ns : float;
      (** the measured window: first to last measured reply (closed),
          first arrival to last completion (open) *)
}

val run :
  ?servers:int ->
  ?gc:float * float ->
  lanes:int ->
  place:('req -> int) ->
  service:(lane:int -> int -> 'req -> float) ->
  requests:int ->
  gen:(int -> 'req) ->
  source ->
  result
(** Issue requests [0 .. requests - 1], [gen idx] building each one when
    it is issued. [servers] defaults to 1. Raises [Invalid_argument] on a
    non-positive count and on [Open] arrivals that are negative or go
    backwards, before serving any request. *)
