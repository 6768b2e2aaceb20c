(** The multi-tenant extension engine.

    Lifts the one-program facade ({!Kflex.load} / {!Kflex.run_packet}) to
    the shape the paper evaluates (§5): N per-CPU {e shards}, each owning
    its own heaps, kernel helper state, {!Kflex_runtime.Vm.stats} and
    PRNG/clock streams; per-hook {e chains} of attached extensions with
    tail-call verdict composition; an {e admission pipeline}
    (verify → instrument → compile, via {!Kflex.admit} and the shared
    compiled-program cache) run once per attach; and a deadline that
    cancels an invocation at a checkpoint, as the paper's watchdog does.

    Two execution modes, both on the compiled form:
    - [`Deterministic] (default): events run synchronously on their flow
      shard in the caller's thread — single-shard runs are bit-identical to
      the facade; the sim and tests use this.
    - [`Threaded]: one OCaml 5 domain per shard consuming a per-shard queue.
      A worker that empties its queue polls for new work for 1 ms before
      it parks, so a request arriving within that window is taken without
      a wake-up. With a deadline configured, the engine's {!Reaper} is
      scanned on the wall clock by the process's one watchdog domain,
      shared by every threaded engine, as a kernel runs one watchdog for
      all of its programs.

    Chain registry updates are epoch-quiesced: mutations publish an
    immutable generation-stamped snapshot ({!Chain}) through one atomic,
    and detach/replace wait until every shard has observed the new
    generation (or is idle), so teardown never races a heap still in use. *)

type t

type mode = [ `Deterministic | `Threaded ]

type handle
(** An attachment: one admitted program instantiated on every shard. *)

val create :
  ?shards:int ->
  ?mode:mode ->
  ?quantum:int ->
  ?deadline_ns:float ->
  ?seed:int64 ->
  unit ->
  t
(** [shards] defaults to 1; [quantum] is the default per-invocation cost
    budget for attached programs (unset = the VM default); [deadline_ns]
    is a per-invocation deadline, which cancels an invocation at its first
    checkpoint past it with [Ext_cancelled]; [seed] derives each shard's
    [bpf_get_prandom_u32] stream. A threaded engine reads the deadline on
    the wall clock, through its reaper. A deterministic engine reads it as
    a budget of [⌊deadline_ns / Cost.insn_ns⌋] cost units: each instance
    gets the smaller of that budget and its quantum, and reports a spent
    budget as [Ext_cancelled].
    @raise Invalid_argument if [shards < 1] or [deadline_ns] is not finite
    and positive.
    Threaded engines spawn their worker domains here — call {!shutdown}
    when done. A new worker parks until its first event; after each batch
    it spins for at most the 1 ms poll window, so a shard costs at most one
    window of CPU per batch. A threaded engine with a deadline registers
    its reaper with the watchdog domain, which scans every registered
    reaper every 500 µs. The first such engine in the process spawns the
    watchdog; it is never joined, and it blocks while no engine is
    registered. *)

val attach :
  t ->
  ?name:string ->
  ?mode:Kflex_verifier.Verify.mode ->
  ?options:Kflex_kie.Instrument.options ->
  ?globals_size:int64 ->
  ?quantum:int ->
  ?heap_size:int64 ->
  ?kbase:int64 ->
  ?configure:
    (shard:int -> Kflex_kernel.Helpers.t -> Kflex_runtime.Heap.t option -> unit) ->
  hook:Kflex_kernel.Hook.kind ->
  Kflex_bpf.Prog.t ->
  (handle, Kflex_verifier.Verify.error) result
(** Admit the program once ({!Kflex.admit}: verify with the §4.3
    spill-retry, instrument, compile through the shared cache), then
    instantiate it on every shard —
    [heap_size] gives each shard its own private heap (at [kbase] if
    supplied), and each instance gets fresh kernel helper state plus the
    shard's PRNG/clock helper overrides. [configure] runs once per shard
    after instantiation (listen on sockets, populate heap pages, …);
    engine-shared maps ({!share_map}) are registered first, so
    tenant-private maps get fds after theirs. The new program is appended
    to [hook]'s chain. *)

val detach : t -> handle -> unit
(** Remove from the chain and wait for epoch quiescence; idempotent. *)

val replace :
  t ->
  handle ->
  ?name:string ->
  ?mode:Kflex_verifier.Verify.mode ->
  ?options:Kflex_kie.Instrument.options ->
  ?globals_size:int64 ->
  ?quantum:int ->
  ?heap_size:int64 ->
  ?kbase:int64 ->
  ?configure:
    (shard:int -> Kflex_kernel.Helpers.t -> Kflex_runtime.Heap.t option -> unit) ->
  Kflex_bpf.Prog.t ->
  (handle, Kflex_verifier.Verify.error) result
(** Atomically swap a live attachment for a freshly admitted program at the
    same chain position (one epoch, O(1) chain work — admission is cached).
    The replacement is instantiated fresh: private maps registered by the
    old attachment's [configure] do not survive (their fds go stale), while
    engine-shared maps ({!share_map}) persist and are re-registered at the
    same fds. *)

(** {2 Shared maps} *)

val share_map : t -> Kflex_kernel.Map.t -> int64
(** Hand the engine a cross-shard map. Every {e subsequent} attach/replace
    registers it into each instance's per-shard registry — in share order,
    before the tenant's [configure] — so the returned fd (3, 4, … in share
    order) is valid for every later attachment on every shard. Create
    Percpu/Rcu_shared maps with [~cpus] ≥ the engine's shard count. The
    engine announces a per-shard RCU quiescent state after every event and
    a full grace period at each registry quiescence (attach/detach/replace),
    reclaiming retired snapshots. *)

val shared_maps : t -> Kflex_kernel.Map.t list
(** The maps handed to {!share_map}, in share (= fd) order. *)

type run_result = {
  verdict : int64;  (** composed chain verdict *)
  executed : int;  (** chain entries that ran *)
  cancelled : int;  (** entries cancelled during this event *)
  cost : int;  (** cost units charged across the chain *)
  outcomes : Kflex_runtime.Vm.outcome list;  (** per entry, chain order *)
}

val shard_of : t -> Kflex_kernel.Packet.t -> int
(** The flow hash: deterministic shard placement by (proto, ports). *)

val run_packet :
  t -> ?hook:Kflex_kernel.Hook.kind -> Kflex_kernel.Packet.t -> run_result
(** Deliver one event to its flow shard's chain (default hook [Xdp]),
    synchronously. Deterministic mode only. *)

val run_on :
  t ->
  shard:int ->
  ?hook:Kflex_kernel.Hook.kind ->
  Kflex_kernel.Packet.t ->
  run_result
(** Like {!run_packet} on an explicit shard — the DES closed loop routes
    placement itself. Deterministic mode only. *)

val submit :
  t ->
  ?hook:Kflex_kernel.Hook.kind ->
  ?on_done:(run_result -> unit) ->
  Kflex_kernel.Packet.t ->
  unit
(** Threaded mode: enqueue an event on its flow shard. [on_done] runs on
    the shard's domain immediately after the chain executes — the
    open-loop server records per-request completion timestamps with it
    (shard-local, so callbacks for one shard never race each other). The
    shard's worker takes its whole queue per lock round trip. A worker
    still polling after its last batch sees the push and takes it; only a
    parked worker is signalled, and each such signal counts in
    {!shard_wakeups}.
    @raise Invalid_argument after {!shutdown}: no worker would run it. *)

val drain : t -> unit
(** Block until every shard queue is empty and no event is executing —
    on a per-shard idle condition, not by polling. A worker polling for
    new work counts as idle, so [drain] does not wait out its window. *)

val shutdown : t -> unit
(** Drain, stop and join the worker domains, then unregister the reaper
    from the watchdog: once [shutdown] returns, no scan touches the engine.
    Idempotent; a deterministic engine needs no shutdown but tolerates
    one. *)

(** {2 Observation} *)

type totals = {
  events : int;
  cancelled : int;
  leaked : int;  (** ledger entries leaked by cancellations — invariantly 0 *)
  verdicts : (int64 * int) list;  (** verdict histogram, sorted *)
  stats : Kflex_runtime.Vm.stats;  (** merged across shards *)
}

val totals : t -> totals
(** Fold the per-shard records (read-side aggregation — the hot path only
    ever touches shard-local state). Call after {!drain} in threaded mode. *)

val shards : t -> int
val mode : t -> mode
val shard_stats : t -> int -> Kflex_runtime.Vm.stats
val shard_events : t -> int -> int

val shard_wakeups : t -> int -> int
(** Submits that found the shard's worker parked and signalled it —
    requests that paid a futex wake-up. A request taken by the polling
    worker is not counted. Always 0 in deterministic mode. *)

val shard_verdicts : t -> int -> (int64 * int) list

val socket_refs : t -> int
(** Outstanding socket references across every live instance — 0 between
    events (cancellation unwinding guarantees it). *)

val reaper : t -> Reaper.t
(** The engine's reaper (threaded engines with a deadline scan it) — tests
    register §4.4 time-slices on it. *)

val epoch : t -> int
(** Current registry generation. *)

val chain_length : t -> Kflex_kernel.Hook.kind -> int

val seed_shard : t -> shard:int -> ?vtime:int64 -> int64 -> unit
(** Reset a shard's PRNG (as {!Kflex_runtime.Vm.seed_prandom} would) and
    virtual clock — differential tests align shard 0 with the facade's
    global streams. *)

val handle_name : handle -> string

val instance : handle -> shard:int -> Kflex.loaded
(** The per-shard instantiation behind an attachment (tests inspect heaps
    and kernels through it). *)
