(** The differential oracle engine.

    Every oracle observes runs through one record, {!obs}: a direct VM run
    ({!run}) or an engine event stream. A differential
    oracle is a pair of runs that must agree: both keep the {!invariants}
    (no leaked ledger entry, every cancellation returns the hook's default,
    no socket reference or spin lock left over), and {!diff} finds nothing
    once the fields the two configurations may legitimately disagree on are
    blanked. {!run_case} checks six per-program properties:

    - {b roundtrip}: [Encode.encode |> Encode.decode] reproduces the program
      instruction for instruction (and the disassembler prints it without
      raising);
    - {b containment}: running the {e uninstrumented} program (the kmod
      baseline, whose pcs coincide with the verifier's), every concrete
      register value lies inside the verifier's final interval for that
      register at that pc and is consistent with its tnum — a
      [reg_bounds_sync] analogue for whole programs;
    - {b elision}: the run with guards elided (the default) against the run
      with every guard forced ({!Kflex_kie.Instrument.forced_guards}), stats
      and costs blanked (forced guards are charged); when both hit the
      watchdog only the invariants are compared. No elided access ever
      faults outside the heap;
    - {b cancellation}: injecting an asynchronous cancellation at each
      Checkpoint/heap-access site unwinds as [Ext_cancelled] and keeps the
      invariants;
    - {b repr}: the boxed reference interpreter
      ({!Kflex_runtime.Vm.Ref_interp}) against the compiled form, with the
      site count blanked ({!repr_equiv});
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
  insn_budget : int;
      (** containment- and lifecycle-trace instruction budget, at least 1
          ({!Corpus.read} refuses less: a budget of 0 observes nothing) *)
  inject_cap : int;
      (** max cancellation injections per case, at least 1 ({!Corpus.read}
          refuses less: 0 would switch the cancellation oracle off) *)
}

val default_config : config
(** 64 KB heap at the default base, all pages populated, port 53, quantum
    300k, modest budgets — what the corpus replayer uses unless a
    reproducer file overrides it. *)

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

val chain_equiv : config -> Kflex_bpf.Prog.t -> Kflex_bpf.Prog.t -> verdict
(** The chain oracle: a 2-program chain executed by a one-shard
    {!Kflex_engine.Engine} against the same chain run directly ({!run},
    [Fused]) — composed verdict, per-program outcomes, shared stats, heap
    snapshots, packet bytes, and the invariants on both sides. [Rejected]
    when the verifier refuses either program under this config.
    Deterministic in [(config, prog1, prog2)]. *)

val shared_equiv : config -> Kflex_bpf.Prog.t -> verdict
(** The shared-map linearizability oracle (the tenth): the program —
    generated in {!Gen.generate}[ ~shared:true]'s shard-independent dialect
    — is attached heap-less to a 4-shard and a 1-shard deterministic
    engine, both sharing a spin-locked map (fd 3) and an RCU-style map
    (fd 4) via {!Kflex_engine.Engine.share_map}. Both apply the same
    16-event sequence (per-event reseeded PRNG, flow placement spread by
    src_port), and the two observations must agree, with the invariants on
    both. [Rejected] when heap-less admission refuses the program.
    Deterministic in [(config, prog)]. *)

val shared_safety : config -> Kflex_bpf.Prog.t -> verdict
(** The threaded half of the shared-map contract: 64 events through a
    4-shard [`Threaded] engine with the same shared maps, then the safety
    properties the scheduler cannot excuse — every event executed and the
    invariants hold (cancellation inside a critical section must unwind the
    lock). Interleaving-dependent observables are deliberately not
    compared. *)

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
(** The executor oracle in isolation: the reference interpreter against
    the compiled form. [None] means the two agree. Runs on every fuzz case
    and corpus replay via [run_case], where it shares the reference run of
    the elision and cancellation oracles; exposed for the qcheck
    differential suite in the runtime tests. *)

val pp_verdict : Format.formatter -> verdict -> unit

(** {2 Observations}

    What the oracles compare, exposed so tests can drive the direct runner
    and check that the comparator can fail. *)

type obs = {
  outcomes : Kflex_runtime.Vm.outcome list;
      (** every program run, in order; empty when a probe stopped the run *)
  events : (int64 * int) list;  (** per event: composed verdict, cost *)
  stats : Kflex_runtime.Vm.stats;  (** accumulated over the whole run *)
  payloads : string list;  (** per event: packet bytes afterwards *)
  heaps : (int64 * string) list list;
      (** per program (and shard): {!Kflex_runtime.Heap.snapshot} *)
  maps : (int64 * int64) list list;
      (** contents of every map the programs reach, each once, fd order *)
  rcu_version : int;  (** versions published by those RCU maps *)
  sites : int;  (** cancellation sites passed (reference runs only) *)
  leaked : int;  (** ledger entries cancellations failed to release *)
  sock_refs : int;  (** socket references left outstanding *)
  locks : int;  (** spin locks left held in those maps *)
}

type probe = {
  budget : int;  (** the run stops, with no outcome, at this instruction *)
  on_insn : int -> int -> int64 array -> unit;
      (** pc, cost so far, registers — before each instruction *)
  on_site : int -> unit;  (** cost so far, at each cancellation site *)
}

(** The VM form a direct run takes. *)
type executor =
  | Reference of probe
      (** {!Kflex_runtime.Vm.Ref_interp}, observing each instruction and
          counting sites *)
  | Inject of int
      (** {!Kflex_runtime.Vm.Ref_interp} observing sites only, cancelling
          at the k-th *)
  | Fused  (** the compiled form ({!Kflex_runtime.Jit}) *)

val run : config -> executor -> Kflex_kie.Instrument.t list -> obs
(** The direct runner: the programs as one chain (tail-call verdict
    composition) on the config's packet, each in a fresh instance of the
    config's world — heap geometry and pages, listening sockets, one map of
    every shared-capable kind at fds 3–6 — with shared stats and the PRNG
    reseeded. One event. *)

val diff : obs -> obs -> string option
(** The one comparator: the first field (outcomes, events, stats, payloads,
    heaps, maps, rcu_version, sites) on which the two observations differ,
    as ["field: detail"]; [None] when they agree. *)

val invariants : obs -> string option
(** What every run must keep, named like {!diff}'s fields: nothing
    [leaked], each cancelled outcome returning the hook's default, no
    [sock_refs], no [locks] held. *)
