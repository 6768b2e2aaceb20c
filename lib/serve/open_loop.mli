(** The open-loop serving front end (§5 serving shape).

    Generates Zipfian requests on an {!Kflex_workload.Arrivals} schedule,
    encodes them to real Memcached-binary / RESP bytes, tears the bytes
    into fragments through per-connection {!Ring}s, parses them back with
    {!Wire}'s incremental decoders, and multiplexes the resulting
    app-model packets onto a multi-tenant {!Kflex_engine.Engine}.

    {!run_deterministic} serves the schedule in virtual time. Latency runs
    from each request's {e scheduled generation time} to its verdict —
    queueing delay under overload is measured, not silently excused
    (coordinated-omission avoidance). The wall-clock measurement of the
    same pipeline is kbench ([benchmark/]), which drives
    {!generate}'s schedule and {!make_engine}'s threaded engine. *)

type request = {
  gen_ns : float;  (** scheduled generation time (schedule origin = 0) *)
  hook : Kflex_kernel.Hook.kind;
  pkt : Kflex_kernel.Packet.t;
}

type config = {
  proto : Wire.proto;
  rate : float;  (** offered load, requests/second *)
  conns : int;  (** simulated connections (ring + decoder each) *)
  requests : int;
  keyspace : int;
  zipf_s : float;
  set_frac : float;  (** write fraction (SET; split with ZADD on Redis) *)
  arrival : Kflex_workload.Arrivals.kind;
  seed : int64;
  max_frag : int;  (** largest wire fragment written at once *)
  ring_bytes : int;  (** per-connection ring capacity *)
  burn : bool;  (** attach the over-deadline burner tenant *)
  burn_iters : int;
  deadline_us : float;  (** engine reaper deadline *)
  guard : bool;
      (** attach the {!Kflex_apps.Ratelimit} guard tenants (token-bucket
          rate limiter over the engine-shared Spinlock map, conntrack over
          the shared RCU map) ahead of the burner and the cache *)
  guard_capacity : int;  (** bucket tokens per key class per window *)
  guard_window_us : float;  (** bucket refill window *)
}

val default : config

val generate : config -> request array
(** The full wire pipeline, deterministically in [seed]: every emitted
    request survived encode → fragment → ring → incremental parse.
    Returns exactly [requests] records sorted by [gen_ns]. *)

val attach_tenants : config -> Kflex_engine.Engine.t -> unit
(** Attach, in chain order: the guard tenants over engine-shared maps
    (when [guard] — sharing the maps first, so they sit at fds 3/4 for
    every tenant), the burner (when [burn]), then the §5.1 cache
    extension for [proto]; all at the protocol's hook.
    The shared maps are reachable afterwards via
    [Engine.shared_maps]. *)

val make_engine :
  config -> mode:Kflex_engine.Engine.mode -> shards:int -> Kflex_engine.Engine.t
(** [create] with the config's reaper deadline + {!attach_tenants}. *)

type outcome = {
  offered_rps : float;
  achieved_rps : float;
  mean_us : float;
  p50_us : float;
  p99_us : float;
  p999_us : float;
  completed : int;
  cancelled : int;  (** chain entries reaped past the deadline *)
  leaked : int;  (** invariantly 0 *)
  digest : int64;
      (** verdict-stream digest: [(index, verdict, cancelled)] of every
          request folded in index order — bit-equal across same-seed
          runs *)
  span_s : float;  (** first arrival to last completion, virtual s *)
}

val ns_of_cost : int -> float

val run_deterministic : ?shards:int -> config -> outcome
(** Virtual-time run: {!Kflex_sim.Lanes.run} with an [Open] source, one
    lane per shard placed by the engine's flow hash, and
    {!Kflex_engine.Engine.run_on} executing each request when its shard
    takes it. Same seed ⇒ bit-identical outcome, digest included. *)

val determinism_check : ?shards:int -> config -> bool * int64 * int64
(** Two independent deterministic runs of the same config: [(ok, d1, d2)]
    where [ok] = digests bit-equal, zero leaks, equal completion counts —
    the repo's ninth determinism check. *)
