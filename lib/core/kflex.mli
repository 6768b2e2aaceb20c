(** KFlex — the public facade.

    Ties the whole pipeline of Figure 1 together: a bytecode extension is
    {e verified} for kernel-interface compliance (step 1, {!Kflex_verifier}),
    {e instrumented} by Kie with SFI guards and cancellation points (step 2,
    {!Kflex_kie}), and handed to the {e runtime} that executes it with
    memory safety and safe termination enforced (step 3, {!Kflex_runtime}).

    {[
      let kernel = Kflex_kernel.Helpers.create () in
      let heap = Kflex_runtime.Heap.create ~size:(1 lsl 20 |> Int64.of_int) () in
      match Kflex.load ~kernel ~heap ~hook:Kflex_kernel.Hook.Xdp prog with
      | Error e -> (* rejected by the verifier *)
      | Ok ext ->
          let outcome = Kflex.run_packet ext packet in
          ...
    ]} *)

type loaded = {
  ext : Kflex_runtime.Vm.ext;
  kie : Kflex_kie.Instrument.t;
  heap : Kflex_runtime.Heap.t option;
  alloc : Kflex_runtime.Alloc.t option;
  kernel : Kflex_kernel.Helpers.t;
  hook : Kflex_kernel.Hook.kind;
}

type admitted
(** A verified, instrumented and JIT-compiled program — the output of the
    admission pipeline, ready to be instantiated any number of times (once
    per engine shard) without re-verifying or recompiling. *)

val contracts : Kflex_verifier.Contract.registry
(** The default helper contracts ({!Kflex_verifier.Contract.kflex_base}). *)

type cache_stats = {
  hits : int;
  misses : int;
  entries : int;
  evictions : int;
  capacity : int;
}

val jit_cache_stats : unit -> cache_stats
(** Compiled-program cache counters. The cache is keyed by {!jit_cache_key},
    so reloading the same program (fuzz oracles, repeated attaches,
    per-shard instantiation) compiles once — and it is LRU-bounded at
    [capacity] (64) entries, with [evictions] counting programs dropped to
    stay under it. *)

val jit_cache_key : Kflex_kie.Instrument.t -> string
(** The MD5 of a canonical byte form of everything the fused form depends
    on: the instrumented instructions, in their binary encoding
    ({!Kflex_bpf.Encode.encode_insn}), and each pc's unwind locations, the
    registers and frame slots of its object table
    ({!Kflex_runtime.Jit.unwind_locs}). Equal programs get equal keys,
    however their values share memory. *)

val compile_cached :
  key:string -> Kflex_kie.Instrument.t -> Kflex_runtime.Jit.t
(** The cache lookup admission performs, under [key] (normally
    {!jit_cache_key}). A hit also compares the cached entry's canonical
    form with the program's, byte for byte; on a mismatch (a key
    collision) it counts a miss, compiles, and replaces the entry. *)

val admit :
  ?mode:Kflex_verifier.Verify.mode ->
  ?options:Kflex_kie.Instrument.options ->
  ?heap_size:int64 ->
  hook:Kflex_kernel.Hook.kind ->
  Kflex_bpf.Prog.t ->
  (admitted, Kflex_verifier.Verify.error) result
(** The once-per-program half of {!load}: verify (with the §4.3 spill-retry
    on [E_leak]), instrument, and compile through the shared cache. [options] defaults to the standard
    instrumentation with translate-on-store {e off}; callers instantiating
    over shared heaps must pass options explicitly (as {!load} does).
    [heap_size] bounds the verifier's heap-pointer ranges exactly as an
    attached heap of that size would. *)

val instantiate :
  ?heap:Kflex_runtime.Heap.t ->
  ?globals_size:int64 ->
  ?quantum:int ->
  ?extra_helpers:(string * Kflex_runtime.Vm.helper) list ->
  kernel:Kflex_kernel.Helpers.t ->
  admitted ->
  loaded
(** The per-instance half of {!load}: build the heap allocator, link helpers
    and create the VM extension over an already-admitted program. O(1) per
    shard — the engine calls this once per (attachment, shard) with the
    shard's own heap, kernel state and helper overrides; every instance
    shares the admission's compiled form. *)

val load :
  ?mode:Kflex_verifier.Verify.mode ->
  ?options:Kflex_kie.Instrument.options ->
  ?heap:Kflex_runtime.Heap.t ->
  ?globals_size:int64 ->
  ?quantum:int ->
  kernel:Kflex_kernel.Helpers.t ->
  hook:Kflex_kernel.Hook.kind ->
  Kflex_bpf.Prog.t ->
  (loaded, Kflex_verifier.Verify.error) result
(** Verify, instrument and prepare an extension.

    - [mode] defaults to [Kflex]; pass [Ebpf] to get stock-eBPF behaviour
      (no heap, unbounded loops rejected) for baselines like BMC.
    - [heap] attaches an extension heap (§3.1); an allocator is created over
      it with [globals_size] bytes reserved past the runtime words, and
      translate-on-store is enabled automatically for shared heaps unless
      [options] overrides it.
    - [quantum] is the watchdog budget in cost units (§4.3).

    When verification fails because an acquired resource has no single
    location at a join (the §4.3 object-table corner case), the loader
    retries with {!Kflex_kie.Spill.mitigate} applied — acquisitions spilled
    to unique stack slots — and loads the rewritten program on success. *)

val run_packet :
  loaded ->
  ?cpu:int ->
  ?stats:Kflex_runtime.Vm.stats ->
  Kflex_kernel.Packet.t ->
  Kflex_runtime.Vm.outcome
(** Deliver one packet to the extension at its hook: installs the packet in
    the kernel helper state, builds the hook context and executes. *)

val run_packet_into :
  loaded ->
  ctx:Bytes.t ->
  cpu:int ->
  stats:Kflex_runtime.Vm.stats ->
  Kflex_kernel.Packet.t ->
  Kflex_runtime.Vm.outcome
(** {!run_packet} with a caller-filled context block
    ({!Kflex_kernel.Hook.fill_ctx}) and no optional arguments — the
    engine's allocation-free per-event entry. *)

val globals_base : int64
(** Heap offset where extension globals start (64; offsets 0–63 are reserved
    for the runtime, including the [*terminate] word at 0). *)
