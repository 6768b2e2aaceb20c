(** The fuzzing campaign driver.

    Each case draws two independent streams from the master RNG
    ({!Kflex_workload.Rng.split}): one for program generation, one for
    environment-layout randomisation (heap size and base, populated pages,
    packet bytes, PRNG seed, socket-lookup hit/miss). Every oracle's
    failures take one path: shrunk while they still fail under the same
    oracle, then written as reproducer files. Everything is deterministic
    in [(seed, count)] — two runs produce identical summaries, logs and
    reproducers. *)

type summary = {
  cases : int;
  accepted : int;  (** verifier-accepted, every per-program oracle green *)
  rejected : int;  (** verifier refused (expected for random programs) *)
  invalid : int;  (** did not even assemble (generator bug, kept visible) *)
  chained : int;
      (** accepted cases additionally run as a 2-program chain through the
          chain oracle, engine against direct runs (the partner program
          comes from the continuation of the case's generation stream) *)
  shared : int;
      (** accepted cases additionally checked by the shared-map
          linearizability oracle ({!Oracle.shared_equiv}) on a fresh
          shard-independent program drawn from the same continuation *)
  flagged : int;
      (** total lifecycle findings the static pass reported across all
          verifier-accepted cases — each checked against the concrete
          no-false-positive oracle ({!Oracle.lifecycle_report}) *)
  failures : int;  (** oracle violations — each one is a soundness bug *)
  reproducers : string list;  (** shrunk reproducer files written *)
}

val pp_summary : Format.formatter -> summary -> unit

val run :
  ?out_dir:string ->
  ?log:(string -> unit) ->
  ?threaded_shared:bool ->
  seed:int64 ->
  count:int ->
  unit ->
  summary
(** [run ~seed ~count ()] fuzzes [count] cases. Reproducers go to [out_dir]
    (default ["."], created if missing); [log] receives one line per failure
    and occasional progress lines (default: silent). [threaded_shared]
    (default false) escalates every shared-oracle pass to a 4-shard
    [`Threaded] safety run ({!Oracle.shared_safety}) — real cross-domain
    contention; failures are recorded but not shrunk (interleavings are
    scheduler-chosen). *)
