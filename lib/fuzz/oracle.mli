(** The differential oracle engine.

    Every verifier-accepted program is executed concretely under several
    instrumentation regimes and checked against six per-program
    invariants by {!run_case}:

    - {b roundtrip}: [Encode.encode |> Encode.decode] reproduces the program
      instruction for instruction (and the disassembler prints it without
      raising);
    - {b containment}: running the {e uninstrumented} program (the kmod
      baseline, whose pcs coincide with the verifier's), every concrete
      register value lies inside the verifier's final interval for that
      register at that pc and is consistent with its tnum — a
      [reg_bounds_sync] analogue for whole programs;
    - {b elision}: execution with guards elided (the default) is
      observationally identical — outcome, heap pages, packet bytes — to
      execution with every guard forced ({!Kflex_kie.Instrument.forced_guards}),
      and no elided access ever faults outside the heap;
    - {b cancellation}: injecting an asynchronous cancellation at each
      Checkpoint/heap-access site unwinds through the object tables with
      zero leaked resources (ledger and socket refcounts) and the hook's
      default return code;
    - {b repr}: the boxed reference interpreter
      ({!Kflex_runtime.Vm.Ref_interp}) and both compiled forms — hooked and
      fused — agree on outcome, stats counters, heap pages and packet bytes
      ({!repr_equiv});
    - {b lifecycle}: no static lifecycle finding is refuted by a concrete
      run ({!lifecycle_report}).

    Multi-program and multi-shard properties have their own entry points:
    {b chain} ({!chain_equiv}) and {b shared} ({!shared_equiv},
    {!shared_safety}).

    All runs are deterministic: fresh heap/kernel state per run, the
    [bpf_get_prandom_u32] stream reseeded from the case's config. *)

type config = {
  heap_size : int64;  (** power of two in [4K, 1T] *)
  kbase : int64;
      (** randomized heap base, size-aligned in [2{^46}, 2{^47}) (see
          {!Kflex_runtime.Heap.create}) *)
  pages : int list;  (** heap pages populated before the run (page 0 — the
      globals — is always populated) *)
  port : int;  (** UDP+TCP listening port for socket lookups *)
  prandom : int64;  (** seed for the in-VM PRNG *)
  payload : string;  (** packet payload *)
  src_port : int;
  dst_port : int;
  quantum : int;  (** watchdog budget (deliberately small, so infinite
      loops cancel quickly) *)
  insn_budget : int;  (** containment-trace instruction budget *)
  inject_cap : int;  (** max cancellation injections per case *)
}

val default_config : config
(** 64 KB heap at the default base, all pages populated, port 53, quantum
    300k, modest budgets — what the corpus replayer uses unless a
    reproducer file overrides it. *)

type env = {
  ext : Kflex_runtime.Vm.ext;
  kernel : Kflex_kernel.Helpers.t;
  heap : Kflex_runtime.Heap.t;
  pkt : Kflex_kernel.Packet.t;
  ctx : Bytes.t;
}

val build_env :
  ?helpers_shim:
    ((string * Kflex_runtime.Vm.helper) list ->
    (string * Kflex_runtime.Vm.helper) list) ->
  config ->
  Kflex_kie.Instrument.t ->
  env
(** The fresh, deterministic world of one oracle run: the config's heap
    geometry and pages, listening sockets, one map of every shared-capable
    kind at fds 3–6, and the config's packet installed. [helpers_shim]
    shadows helper implementations. Seed the PRNG ({!Kflex_runtime.Vm.seed_prandom}
    with [prandom]) before running. *)

type failure = {
  oracle : string;
      (** ["roundtrip" | "containment" | "elision" | "cancellation" |
          "repr" | "lifecycle" | "chain" | "shared" | "harness"] *)
  detail : string;
}

type verdict =
  | Pass
  | Rejected of string  (** the verifier refused the program (not a bug) *)
  | Fail of failure

val run_case : config -> Kflex_bpf.Prog.t -> verdict
(** Verify the program, then run the per-program oracles. Deterministic in
    [(config, prog)]. *)

val run_case_stats : config -> Kflex_bpf.Prog.t -> verdict * int
(** {!run_case} plus the number of lifecycle findings the static pass
    reported on the program (0 for rejected programs) — the campaign's
    [flagged] counter. *)

val run_case_exn : config -> Kflex_bpf.Prog.t -> verdict
(** Like {!run_case}, but harness exceptions propagate — so a debugger (or a
    test) sees the backtrace instead of a [Fail] with oracle ["harness"]. *)

val chain_equiv : config -> Kflex_bpf.Prog.t -> Kflex_bpf.Prog.t -> verdict
(** The chain oracle: a 2-program chain executed by a one-shard
    {!Kflex_engine.Engine} must be observationally equivalent to running
    the programs sequentially through the facade with tail-call verdict
    composition — composed verdict, per-program outcomes, shared stats,
    heap snapshots, packet bytes — with zero leaked resources on either
    side. [Rejected] when the verifier refuses either program under this
    config. Deterministic in [(config, prog1, prog2)]. *)

val shared_equiv : config -> Kflex_bpf.Prog.t -> verdict
(** The shared-map linearizability oracle (the tenth): the program —
    generated in {!Gen.generate}[ ~shared:true]'s shard-independent dialect
    — is attached heap-less to a 4-shard and a 1-shard deterministic
    engine, both sharing a spin-locked map (fd 3) and an RCU-style map
    (fd 4) via {!Kflex_engine.Engine.share_map}. Both engines apply the
    same 16-event sequence (per-event reseeded PRNG, flow placement spread
    by src_port), and every observable must agree event for event:
    verdicts, outcomes, chain costs, packet bytes, final contents and RCU
    version of both shared maps, merged stats — with zero leaks and no
    lock left held on either side. [Rejected] when heap-less admission
    refuses the program. Deterministic in [(config, prog)]. *)

val shared_safety :
  ?shards:int -> ?events:int -> config -> Kflex_bpf.Prog.t -> verdict
(** The threaded half of the shared-map contract: run [events] (default 64)
    through a [`Threaded] engine with [shards] (default 4) domains and the
    same shared-map layout, then check the safety invariants the scheduler
    cannot excuse — every event executed, zero leaked ledger entries, zero
    socket refs, no spin lock left held (cancellation inside a critical
    section must unwind the lock). Interleaving-dependent observables are
    deliberately not compared. *)

(** Concrete status of one static lifecycle finding (the seventh oracle).

    A finding is [Refuted] — an oracle failure — only when the kmod-baseline
    run followed the finding's full pc witness and the concrete evidence
    contradicts the claim (the "leaked" block was freed, the "released"
    block is live, the lock is not held, ...). [Confirmed] means the run
    followed the witness and the claimed event concretely happened.
    [Unexercised] means the concrete path diverged from the witness before
    its end (the usual case: one run explores one path), so the static
    claim is neither provable nor disprovable by this execution. *)
type lifecycle_status = Confirmed | Unexercised | Refuted

val lifecycle_status_name : lifecycle_status -> string

val lifecycle_report :
  config ->
  Kflex_bpf.Prog.t ->
  ((Kflex_verifier.Lifecycle.finding * lifecycle_status) list, string) result
(** Run the static lifecycle pass, then classify every finding against two
    concrete kmod-baseline executions: the normal run, and — for
    [Null_deref] findings, which live on the allocator's null arm — a run
    with every allocator shadowed to report exhaustion. [Error] when the
    verifier rejects the program. The no-false-positive contract tested by
    the corpus gate and the fuzz property is: no finding is ever [Refuted]. *)

val repr_equiv : config -> Kflex_kie.Instrument.t -> failure option
(** The executor oracle in isolation: the kept-boxed reference interpreter
    ({!Kflex_runtime.Vm.Ref_interp}) against the hooked and the fused
    compiled forms, in fresh environments, comparing outcome, stats, heap
    pages and packet payload. [None] means all three agree bit-for-bit.
    Runs on every fuzz case and corpus replay via [run_case]; exposed for
    the qcheck differential and representation suites in the runtime
    tests. *)

val pp_verdict : Format.formatter -> verdict -> unit
