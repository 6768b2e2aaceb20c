(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§5). Run `main.exe all` or a single experiment id
   (table1 | fig2 | fig3 | fig4 | fig5 | fig6 | fig7 | table3 | ablation |
   bechamel).

   Absolute numbers come from our VM + calibrated cost model, not
   the authors' testbed: the reproduction target is the shape — who wins,
   by what factor, where the crossovers are. EXPERIMENTS.md records
   paper-vs-measured for each experiment. *)

let pf = Format.printf

let requests =
  match Sys.getenv_opt "KFLEX_BENCH_REQUESTS" with
  | Some s -> (try int_of_string s with _ -> 30_000)
  | None -> 30_000

let hr title = pf "@.=== %s ===@." title

(* ---------------------------------------------------------------- *)

let table1 () =
  hr "Table 1: approaches to safe kernel extensibility (qualitative)";
  pf "  %-38s %-11s %-11s %-11s@." "Approach" "Flexibility" "Performance"
    "Practicality";
  List.iter
    (fun (a, f, p, pr) -> pf "  %-38s %-11s %-11s %-11s@." a f p pr)
    [
      ("Safe languages (e.g., SPIN)", "yes", "yes", "no");
      ("Software Fault Isolation (e.g., VINO)", "yes", "no", "yes");
      ("Static verification (e.g., eBPF)", "no", "yes", "yes");
      ("KFlex (this reproduction)", "yes", "yes", "yes");
    ]

let print_cells title paper cells =
  hr title;
  pf "  (paper: %s)@." paper;
  List.iter (fun cell -> pf "%a@." Kflex_apps.E2e.pp_rows cell) cells

let fig2 () =
  print_cells
    "Figure 2: Memcached, 8 server threads (throughput / p99 latency)"
    "KFlex 1.23-2.83x over BMC, 2.33-3.01x over user space"
    (Kflex_apps.E2e.fig_memcached ~workers:8 ~requests ())

let fig3 () =
  print_cells "Figure 3: Memcached, 16 server threads"
    "benefits similar to 8 threads"
    (Kflex_apps.E2e.fig_memcached ~workers:16 ~requests ())

let fig4 () =
  print_cells "Figure 4: Redis at sk_skb vs user space (KeyDB)"
    "KFlex 1.61-2.14x throughput; benefit smaller than Memcached (TCP stack \
     still paid)"
    (Kflex_apps.E2e.fig_redis ~workers:8 ~requests ())

let fig7 () =
  print_cells
    "Figure 7: co-designed Memcached (user-space GC every 1s, shared heap)"
    "KFlex 2.2-2.9x throughput; tail-latency gain reduced by GC contention"
    (Kflex_apps.E2e.fig_codesign ~workers:8 ~requests ())

let fig6 () =
  hr "Figure 6: Redis ZADD (hashmap -> on-demand skiplist), 1 server thread";
  pf "  (paper: KFlex 1.65x throughput, 52.8%% lower p99)@.";
  List.iter
    (fun (r : Kflex_apps.E2e.row) ->
      pf "    %-22s %6.3f MOps/s   p99 %8.1f us@." r.Kflex_apps.E2e.system
        r.Kflex_apps.E2e.throughput_mops r.Kflex_apps.E2e.p99_us)
    (Kflex_apps.E2e.fig_zadd ~requests:(requests / 2) ())

(* ---- Figure 5: data structures ---------------------------------------- *)

let ds_preload inst ~n =
  for i = 0 to n - 1 do
    ignore
      (Kflex_apps.Datastructs.update inst ~key:(Int64.of_int i)
         ~value:(Int64.of_int (i * 3)))
  done

let ds_measure inst ~n ~samples =
  let rng = Kflex_workload.Rng.create ~seed:99L in
  let avg f =
    let total = ref 0 in
    for _ = 1 to samples do
      total := !total + f (Int64.of_int (Kflex_workload.Rng.int rng n))
    done;
    float_of_int !total /. float_of_int samples
  in
  let upd =
    avg (fun k -> snd (Kflex_apps.Datastructs.update inst ~key:k ~value:123L))
  in
  let lkp = avg (fun k -> snd (Kflex_apps.Datastructs.lookup inst ~key:k)) in
  let del =
    avg (fun k ->
        let _, c = Kflex_apps.Datastructs.delete inst ~key:k in
        (* reinsert to keep the size stable *)
        ignore (Kflex_apps.Datastructs.update inst ~key:k ~value:7L);
        c)
  in
  (upd, lkp, del)

let fig5 () =
  hr "Figure 5: data structures offloaded with KFlex (per-op latency, ns)";
  pf "  (paper: KFlex ~9%% throughput / ~31.7%% latency overhead vs KMod;@.";
  pf "   performance mode recovers 3-4%% on pointer-chasing structures)@.";
  pf "  %-12s %-8s %12s %12s %12s %10s %10s@." "structure" "op" "KMod(ns)"
    "KFlex-PM(ns)" "KFlex(ns)" "PM ovr" "KFlex ovr";
  let samples = 200 in
  List.iter
    (fun kind ->
      let n =
        match kind with
        | Kflex_apps.Datastructs.Linked_list ->
            4096 (* paper uses 64K elements; scaled for run time *)
        | _ -> 16384
      in
      let is_sketch =
        kind = Kflex_apps.Datastructs.Countmin
        || kind = Kflex_apps.Datastructs.Countsketch
      in
      let measure mode =
        let inst = Kflex_apps.Datastructs.create ~mode kind in
        ds_preload inst ~n:(if is_sketch then 4096 else n);
        ds_measure inst ~n ~samples
      in
      let a3 = measure Kflex_apps.Datastructs.M_kmod in
      let b3 = measure Kflex_apps.Datastructs.M_perf in
      let c3 = measure Kflex_apps.Datastructs.M_kflex in
      let row op =
        let m (u, l, d) = match op with `U -> u | `L -> l | `D -> d in
        let a = m a3 and b = m b3 and c = m c3 in
        let ns x = x *. Kflex_kernel.Cost.insn_ns in
        pf "  %-12s %-8s %12.0f %12.0f %12.0f %9.1f%% %9.1f%%@."
          (Kflex_apps.Datastructs.name kind)
          (match op with `U -> "update" | `L -> "lookup" | `D -> "delete")
          (ns a) (ns b) (ns c)
          (100. *. ((b -. a) /. a))
          (100. *. ((c -. a) /. a))
      in
      row `U;
      row `L;
      if not is_sketch then row `D)
    Kflex_apps.Datastructs.all

(* ---- VM executors: reference vs closure-compiled (BENCH_vm.json) ------- *)

(* Wall-clock insns/sec of the boxed reference interpreter
   ([Vm.Ref_interp]) and the fused Jit on the Fig. 5 data-structure
   workloads. Each variant runs the identical deterministic op sequence on
   a freshly built structure; the cost-model stats must be bit-identical
   across variants (executors only change wall-clock time, never
   accounting). *)

type jit_meas = {
  jm_stats : Kflex_runtime.Vm.stats;
  jm_secs : float;
  jm_compile_ms : float;
  jm_fused : int;
  jm_mwords : float;  (* minor-heap words allocated inside the timed loop *)
}

let jit_variant kind ~opseq ~preload variant =
  let inst = Kflex_apps.Datastructs.create kind in
  let loaded = Kflex_apps.Datastructs.loaded inst in
  let compile_ms, fused =
    match variant with
    | `Ref -> (0., 0)
    | `Fused ->
        let t0 = Unix.gettimeofday () in
        let jit = Kflex_runtime.Vm.precompile loaded.Kflex.ext in
        ( (Unix.gettimeofday () -. t0) *. 1000.,
          Kflex_runtime.Jit.fused_pairs jit )
  in
  ds_preload inst ~n:preload;
  (* packets built outside the timed window; the PRNG stream (skiplist
     tower levels) restarts identically for every variant *)
  let pkts =
    Array.map
      (fun (op, key) -> Kflex_apps.Datastructs.op_packet ~op ~key ~value:1L)
      opseq
  in
  Kflex_runtime.Vm.seed_prandom 0x2545F4914F6CDD1DL;
  let stats = Kflex_runtime.Vm.fresh_stats () in
  (* level the GC playing field: later variants otherwise inherit the
     earlier variants' heap and pay their major collections *)
  Gc.compact ();
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let run pkt =
    match variant with
    | `Ref ->
        Kflex_kernel.Helpers.set_packet loaded.Kflex.kernel pkt;
        let o =
          Kflex_runtime.Vm.Ref_interp.exec loaded.Kflex.ext
            ~ctx:(Kflex_kernel.Hook.build_ctx pkt) ~stats ()
        in
        Kflex_kernel.Helpers.clear_packet loaded.Kflex.kernel;
        o
    | `Fused -> Kflex.run_packet loaded ~stats pkt
  in
  for i = 0 to Array.length pkts - 1 do
    match run pkts.(i) with
    | Kflex_runtime.Vm.Finished _ -> ()
    | Kflex_runtime.Vm.Cancelled _ ->
        failwith ("jit bench: op cancelled on " ^ Kflex_apps.Datastructs.name kind)
  done;
  {
    jm_stats = stats;
    jm_secs = Unix.gettimeofday () -. t0;
    jm_compile_ms = compile_ms;
    jm_fused = fused;
    jm_mwords = Gc.minor_words () -. w0;
  }

(* Best-of-[reps] wall clock: the host's timing noise dwarfs the
   variant differences in a single pass, and the minimum is the standard
   robust estimator for deterministic workloads. Stats are deterministic,
   so any repetition's counters serve for the identity check. *)
let jit_best ~reps kind ~opseq ~preload variant =
  let best = ref (jit_variant kind ~opseq ~preload variant) in
  for _ = 2 to reps do
    let m = jit_variant kind ~opseq ~preload variant in
    if m.jm_secs < !best.jm_secs then best := m
  done;
  !best

let stats_tuple (s : Kflex_runtime.Vm.stats) =
  (s.Kflex_runtime.Vm.insns, s.Kflex_runtime.Vm.guards,
   s.Kflex_runtime.Vm.checkpoints, s.Kflex_runtime.Vm.helper_calls,
   s.Kflex_runtime.Vm.helper_cost)

(* Allocation gate: the compiled hook-free hot path must allocate zero
   minor-heap words per retired instruction. Two loops run warmed at two
   iteration counts; the per-instruction rate is the words delta over the
   insns delta, which cancels the constant per-exec cost.
   - helper-free: frame spill/reload, guarded heap store+load, ALU chain,
     conditional back edge — every construct the compiler specializes;
   - helper-bearing: packet reads and writes, a hash-map lookup and update,
     [kflex_malloc] + [kflex_free] of a recycled block and a
     [kflex_spin_lock] pair every iteration — the direct helper ABI, the
     unboxed map, allocator and ledger paths. *)
let helper_gate_src iters =
  Printf.sprintf
    {|
struct cell { a: u64; b: u64; }
global lock: u64;

fn prog(c: ctx) -> u64 {
  var kbuf: bytes[8];
  var vbuf: bytes[8];
  var acc: u64 = 0;
  var i: u64 = 0;
  st64(&kbuf, 0, 5);
  while (i < %d) {
    acc = acc + pkt_read_u8(c, i & 7) + pkt_read_u64(c, 8);
    pkt_write_u16(c, 20, i);
    acc = acc + bpf_map_lookup(3, &kbuf, &vbuf);
    st64(&vbuf, 0, i);
    acc = acc + bpf_map_update(3, &kbuf, &vbuf);
    var n: ptr<cell> = new cell;
    if (n != null) { free n; }
    var h: u64 = kflex_spin_lock(&lock);
    kflex_spin_unlock(h);
    i = i + 1;
  }
  return acc & 1;
}
|}
    iters

let alloc_gate_words_per_insn () =
  let open Kflex_bpf in
  let items iters =
    Asm.
      [
        call "kflex_heap_base";
        mov Reg.R6 Reg.R0;
        movi Reg.R7 (Int64.of_int iters);
        label "loop";
        stx Insn.U64 Reg.R10 (-8) Reg.R7;
        ldx Insn.U64 Reg.R1 Reg.R10 (-8);
        alui Insn.And Reg.R1 0xffL;
        alui Insn.Mul Reg.R1 8L;
        mov Reg.R2 Reg.R6;
        alu Insn.Add Reg.R2 Reg.R1;
        stx Insn.U64 Reg.R2 64 Reg.R7;
        ldx Insn.U64 Reg.R3 Reg.R2 64;
        alu Insn.Xor Reg.R3 Reg.R7;
        alui Insn.Sub Reg.R7 1L;
        jmpi Insn.Ne Reg.R7 0L "loop";
        mov Reg.R0 Reg.R3;
        exit_;
      ]
  in
  let measure go stats =
    go () (* first run compiles and warms the pooled state *);
    let i0 = stats.Kflex_runtime.Vm.insns in
    let w0 = Gc.minor_words () in
    go ();
    (Gc.minor_words () -. w0, stats.Kflex_runtime.Vm.insns - i0)
  in
  let run iters =
    let prog = Asm.assemble ~name:"alloc_gate" (items iters) in
    let heap = Kflex_runtime.Heap.create ~size:65536L () in
    Kflex_runtime.Heap.populate heap ~off:0L ~len:4096L;
    let analysis =
      match
        Kflex_verifier.Verify.run ~mode:Kflex_verifier.Verify.Kflex
          ~contracts:Kflex.contracts ~ctx_size:64
          ~heap_size:(Kflex_runtime.Heap.size heap) prog
      with
      | Ok a -> a
      | Error e ->
          Format.kasprintf failwith "alloc gate: verify: %a"
            Kflex_verifier.Verify.pp_error e
    in
    let kie = Kflex_kie.Instrument.run analysis in
    let ext = Kflex_runtime.Vm.create ~heap ~quantum:max_int ~helpers:[] kie in
    let ctx = Bytes.make 64 '\000' in
    let stats = Kflex_runtime.Vm.fresh_stats () in
    measure
      (fun () ->
        match Kflex_runtime.Vm.exec ext ~ctx ~stats () with
        | Kflex_runtime.Vm.Finished _ -> ()
        | Kflex_runtime.Vm.Cancelled _ -> failwith "alloc gate: cancelled")
      stats
  in
  let run_helpers iters =
    let c =
      Kflex_eclang.Compile.compile_string ~name:"alloc_gate_helpers"
        (helper_gate_src iters)
    in
    let kernel = Kflex_kernel.Helpers.create () in
    let m = Kflex_kernel.Map.create ~max_entries:64 () in
    ignore (Kflex_kernel.Map.register (Kflex_kernel.Helpers.maps kernel) m : int64);
    let loaded =
      match
        Kflex.load
          ~heap:(Kflex_runtime.Heap.create ~size:65536L ())
          ~globals_size:
            c.Kflex_eclang.Compile.layout.Kflex_eclang.Compile.globals_size
          ~quantum:max_int ~kernel ~hook:Kflex_kernel.Hook.Xdp
          c.Kflex_eclang.Compile.prog
      with
      | Ok l -> l
      | Error e ->
          Format.kasprintf failwith "alloc gate: helpers: %a"
            Kflex_verifier.Verify.pp_error e
    in
    let pkt =
      Kflex_kernel.Packet.make ~proto:Kflex_kernel.Packet.Udp ~src_port:1
        ~dst_port:2 (Bytes.make 64 '\001')
    in
    let ctx = Kflex_kernel.Hook.build_ctx pkt in
    let stats = Kflex_runtime.Vm.fresh_stats () in
    measure
      (fun () ->
        match Kflex.run_packet_into loaded ~ctx ~cpu:0 ~stats pkt with
        | Kflex_runtime.Vm.Finished _ -> ()
        | Kflex_runtime.Vm.Cancelled _ -> failwith "alloc gate: helpers cancelled")
      stats
  in
  let rate run =
    let w1, i1 = run 50_000 in
    let w2, i2 = run 100_000 in
    (w2 -. w1) /. float_of_int (i2 - i1)
  in
  (rate run, rate run_helpers)

let jit_bench ~smoke =
  hr "VM executors: reference interpreter vs closure-compiled (insns/sec \
      wall-clock)";
  let ops = if smoke then 1_500 else 20_000 in
  pf "  (%d ops per variant, 25%% update / 75%% lookup; identical stats \
      required)@." ops;
  pf "  %-12s %12s %12s %8s %6s %8s@." "structure" "ref/s" "fused/s" "spd"
    "fused#" "w/insn";
  let rows = ref [] in
  let mismatches = ref 0 in
  List.iter
    (fun kind ->
      let n =
        match kind with
        | Kflex_apps.Datastructs.Linked_list -> if smoke then 192 else 1024
        | _ -> if smoke then 1024 else 8192
      in
      let preload =
        match kind with
        | Kflex_apps.Datastructs.Countmin | Kflex_apps.Datastructs.Countsketch
          -> min n 2048
        | _ -> n
      in
      let opseq =
        let rng = Kflex_workload.Rng.create ~seed:7L in
        Array.init ops (fun i ->
            let op = if i land 3 = 0 then 0 else 1 (* 25% upd / 75% lkp *) in
            (op, Int64.of_int (Kflex_workload.Rng.int rng n)))
      in
      let reps = if smoke then 2 else 15 in
      let v = jit_best ~reps kind ~opseq ~preload in
      let mr = v `Ref in
      let mf = v `Fused in
      let same = stats_tuple mr.jm_stats = stats_tuple mf.jm_stats in
      if not same then begin
        incr mismatches;
        let p (a, b, c, d, e) = Printf.sprintf "(%d,%d,%d,%d,%d)" a b c d e in
        pf "  %-12s STATS MISMATCH ref %s fused %s@."
          (Kflex_apps.Datastructs.name kind)
          (p (stats_tuple mr.jm_stats))
          (p (stats_tuple mf.jm_stats))
      end;
      let insns = float_of_int mr.jm_stats.Kflex_runtime.Vm.insns in
      let ips m = insns /. m.jm_secs in
      pf "  %-12s %12.3e %12.3e %7.2fx %6d %8.4f@."
        (Kflex_apps.Datastructs.name kind)
        (ips mr) (ips mf) (ips mf /. ips mr) mf.jm_fused
        (mf.jm_mwords /. insns);
      rows := (kind, mr, mf, same) :: !rows)
    Kflex_apps.Datastructs.all;
  let rows = List.rev !rows in
  (* geometric mean and minimum of the fused speedup across workloads *)
  let speedups =
    List.map
      (fun (_, mr, mf, _) -> mr.jm_secs /. mf.jm_secs)
      rows
  in
  let geomean =
    exp (List.fold_left (fun a s -> a +. log s) 0. speedups
         /. float_of_int (List.length speedups))
  in
  let minimum = List.fold_left min infinity speedups in
  pf "  fused speedup: min %.2fx, geomean %.2fx%s@." minimum geomean
    (if !mismatches = 0 then "" else "  (STATS MISMATCHES!)");
  let gate_wpi, gate_helpers_wpi = alloc_gate_words_per_insn () in
  let gate_ok = gate_wpi = 0. && gate_helpers_wpi = 0. in
  pf "  alloc gate: %.6f minor words/insn on the hook-free compiled loop, \
      %.6f on the helper-bearing loop (%s)@."
    gate_wpi gate_helpers_wpi
    (if gate_ok then "PASS" else "FAIL — hot path allocates");
  (* machine-readable results *)
  let oc = open_out "BENCH_vm.json" in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n  \"ops_per_variant\": %d,\n  \"smoke\": %b,\n  \"workloads\": [\n"
    ops smoke;
  List.iteri
    (fun i (kind, mr, mf, same) ->
      let insns = float_of_int mr.jm_stats.Kflex_runtime.Vm.insns in
      let ips m = insns /. m.jm_secs in
      p "    {\"name\": %S, \"insns\": %d, \"guards\": %d, \"checkpoints\": \
         %d, \"helper_cost\": %d,\n"
        (Kflex_apps.Datastructs.name kind)
        mr.jm_stats.Kflex_runtime.Vm.insns mr.jm_stats.Kflex_runtime.Vm.guards
        mr.jm_stats.Kflex_runtime.Vm.checkpoints
        mr.jm_stats.Kflex_runtime.Vm.helper_cost;
      p "     \"ref_insns_per_sec\": %.0f, \"fused_insns_per_sec\": %.0f,\n"
        (ips mr) (ips mf);
      p "     \"speedup_fused\": %.3f, \"compile_ms\": %.3f, \"fused_pairs\": \
         %d, \"fused_minor_words_per_insn\": %.6f, \"stats_identical\": \
         %b}%s\n"
        (ips mf /. ips mr)
        mf.jm_compile_ms mf.jm_fused
        (mf.jm_mwords /. insns)
        same
        (if i = List.length rows - 1 then "" else ","))
    rows;
  p "  ],\n  \"summary\": {\"min_speedup_fused\": %.3f, \
     \"geomean_speedup_fused\": %.3f, \"stats_identical\": %b, \
     \"alloc_gate_minor_words_per_insn\": %.6f, \
     \"alloc_gate_helpers_minor_words_per_insn\": %.6f, \
     \"alloc_gate_passed\": %b}\n}\n"
    minimum geomean (!mismatches = 0) gate_wpi gate_helpers_wpi gate_ok;
  close_out oc;
  pf "  wrote BENCH_vm.json@.";
  if !mismatches > 0 || not gate_ok then exit 1

(* ---- Engine: multi-tenant scaling curve (BENCH_engine.json) ------------ *)

(* Aggregate throughput of the multi-tenant engine as shards and chain
   length grow, measured in DES virtual time (the host these numbers came
   from has 2 vCPUs, fewer than 4 shards, so the per-CPU scaling claim is
   about the simulated shard model, not host parallelism): each shard serves its own FIFO of flow-hashed events,
   service time = the chain's charged cost through the calibrated model.
   Also checks the single-shard engine is observationally identical to
   direct runs on every fuzz reproducer (the chain oracle run as a
   self-pair). *)

let engine_corpus_identity () =
  let dir = "test/corpus" in
  if not (Sys.file_exists dir && Sys.is_directory dir) then (0, 0, 0)
  else
    Array.fold_left
      (fun (ok, skip, bad) f ->
        if Filename.check_suffix f ".kfxr" then begin
          let t =
            Result.get_ok (Kflex_fuzz.Corpus.read (Filename.concat dir f))
          in
          match Kflex_fuzz.Oracle.chain_equiv t.Kflex_fuzz.Corpus.config
                  t.Kflex_fuzz.Corpus.prog t.Kflex_fuzz.Corpus.prog
          with
          | Kflex_fuzz.Oracle.Pass -> (ok + 1, skip, bad)
          | Kflex_fuzz.Oracle.Rejected _ -> (ok, skip + 1, bad)
          | Kflex_fuzz.Oracle.Fail fl ->
              pf "  corpus DIVERGENCE %s: %s@." f fl.Kflex_fuzz.Oracle.detail;
              (ok, skip, bad + 1)
        end
        else (ok, skip, bad))
      (0, 0, 0) (Sys.readdir dir)

type eng_row = {
  er_kind : Kflex_apps.Datastructs.kind;
  er_shards : int;
  er_chain : int;
  er_res : Kflex_sim.Lanes.result;
  er_tot : Kflex_engine.Engine.totals;
}

(* The engine closed loop: one lane per shard, placed by the flow hash,
   each event executed by [Engine.run_on] when its shard takes it. *)
let closed_engine eng pkts =
  Kflex_sim.Lanes.run
    ~lanes:(Kflex_engine.Engine.shards eng)
    ~place:(Kflex_engine.Engine.shard_of eng)
    ~service:(fun ~lane _ pkt ->
      let r = Kflex_engine.Engine.run_on eng ~shard:lane pkt in
      Kflex_kernel.Cost.xdp_service_ns
        ~compute_ns:
          (float_of_int r.Kflex_engine.Engine.cost *. Kflex_kernel.Cost.insn_ns)
        ~reply:false)
    ~requests:(Array.length pkts) ~gen:(Array.get pkts)
    (Kflex_sim.Lanes.Closed { clients = 32; rtt_ns = 2_000.; warmup_frac = 0.1 })

let engine_bench ~smoke =
  hr "Engine: multi-tenant scaling (shards x chain, DES virtual time)";
  let events = if smoke then 1_200 else min 6_000 (max 2_000 (requests / 5)) in
  let structures =
    [
      Kflex_apps.Datastructs.Hashmap; Kflex_apps.Datastructs.Rbtree;
      Kflex_apps.Datastructs.Skiplist;
    ]
  in
  let keyspace = 4096 in
  (* deterministic op/key/flow sequence shared by every configuration *)
  let opseq =
    let rng = Kflex_workload.Rng.create ~seed:11L in
    Array.init events (fun i ->
        let op = if i land 3 = 0 then 0 else 1 in
        ( op,
          Int64.of_int (Kflex_workload.Rng.int rng keyspace),
          1024 + Kflex_workload.Rng.int rng 60000 ))
  in
  let pkts =
    Array.map
      (fun (op, key, src_port) ->
        let b = Bytes.make 17 '\000' in
        Bytes.set b 0 (Char.chr op);
        Bytes.set_int64_le b 1 key;
        Bytes.set_int64_le b 9 1L;
        Kflex_kernel.Packet.make ~proto:Kflex_kernel.Packet.Udp ~src_port
          ~dst_port:9 b)
      opseq
  in
  let run_config compiled ~shards ~chain =
    let eng = Kflex_engine.Engine.create ~shards () in
    let handles =
      List.init chain (fun _ ->
          match
            Kflex_engine.Engine.attach eng
              ~globals_size:
                compiled.Kflex_eclang.Compile.layout
                  .Kflex_eclang.Compile.globals_size
              ~heap_size:(Int64.shift_left 1L 22)
              ~hook:Kflex_kernel.Hook.Xdp compiled.Kflex_eclang.Compile.prog
          with
          | Ok h -> h
          | Error e ->
              Format.kasprintf failwith "engine bench: rejected: %a"
                Kflex_verifier.Verify.pp_error e)
    in
    let res = closed_engine eng pkts in
    let tot = Kflex_engine.Engine.totals eng in
    List.iter (fun h -> Kflex_engine.Engine.detach eng h) handles;
    (res, tot)
  in
  pf "  (%d events, 25%% update / 75%% lookup, 32 clients; throughput is@."
    events;
  pf "   aggregate MOps/s in simulated time across per-CPU shards)@.";
  pf "  %-10s %5s %5s %12s %10s %8s %6s@." "structure" "shard" "chain"
    "MOps/s" "p99(us)" "cancel" "leak";
  let rows = ref [] in
  List.iter
    (fun kind ->
      let compiled =
        Kflex_eclang.Compile.compile_string
          ~name:(Kflex_apps.Datastructs.name kind ^ "_chain")
          (Kflex_apps.Datastructs.chain_source kind)
      in
      List.iter
        (fun chain ->
          List.iter
            (fun shards ->
              let res, tot = run_config compiled ~shards ~chain in
              pf "  %-10s %5d %5d %12.3f %10.1f %8d %6d@."
                (Kflex_apps.Datastructs.name kind)
                shards chain res.Kflex_sim.Lanes.throughput_mops
                res.Kflex_sim.Lanes.p99_us
                tot.Kflex_engine.Engine.cancelled
                tot.Kflex_engine.Engine.leaked;
              rows :=
                {
                  er_kind = kind;
                  er_shards = shards;
                  er_chain = chain;
                  er_res = res;
                  er_tot = tot;
                }
                :: !rows)
            [ 1; 2; 4 ])
        [ 1; 3 ])
    structures;
  let rows = List.rev !rows in
  let tp r = r.er_res.Kflex_sim.Lanes.throughput_mops in
  let speedups =
    List.filter_map
      (fun r ->
        if r.er_shards <> 4 then None
        else
          let base =
            List.find
              (fun b ->
                b.er_kind = r.er_kind && b.er_chain = r.er_chain
                && b.er_shards = 1)
              rows
          in
          Some (r.er_kind, r.er_chain, tp r /. tp base))
      rows
  in
  let min_speedup =
    List.fold_left (fun a (_, _, s) -> Stdlib.min a s) infinity speedups
  in
  List.iter
    (fun (k, c, s) ->
      pf "  %-10s chain %d: 4-shard speedup %.2fx@."
        (Kflex_apps.Datastructs.name k)
        c s)
    speedups;
  let corpus_ok, corpus_skip, corpus_bad = engine_corpus_identity () in
  pf "  corpus identity: %d identical, %d skipped, %d divergent@." corpus_ok
    corpus_skip corpus_bad;
  pf "  min 4-shard speedup %.2fx (gate: > 1.8x)@." min_speedup;
  (* --- shared-map configs ---------------------------------------------- *)
  (* Cross-shard state through engine-shared maps, same DES closed loop.
     percpu_counter: every event bumps a per-key counter in a shared Percpu
     map — banks are shard-local, so scaling must survive the shared map.
     rcu_read_mostly: <=1% writes against the shared RCU map, compared to
     the same program over a tenant-private Hash map — wait-free snapshot
     reads must stay within 20% of the uncontended private baseline. *)
  let shared_pkts ~write_every =
    let rng = Kflex_workload.Rng.create ~seed:13L in
    Array.init events (fun i ->
        let b = Bytes.make 17 '\000' in
        if i mod write_every = 0 then Bytes.set b 0 '\001';
        Bytes.set_int64_le b 1
          (Int64.of_int (Kflex_workload.Rng.int rng keyspace));
        Kflex_kernel.Packet.make ~proto:Kflex_kernel.Packet.Udp
          ~src_port:(1024 + Kflex_workload.Rng.int rng 60000)
          ~dst_port:9 b)
  in
  let counter_src = {|
fn prog(c: ctx) -> u64 {
  var kbuf: bytes[8];
  var vbuf: bytes[8];
  st64(&kbuf, 0, pkt_read_u64(c, 1) & 1023);
  var n: u64 = 0;
  if (bpf_map_lookup(3, &kbuf, &vbuf) == 1) { n = ld64(&vbuf, 0); }
  st64(&vbuf, 0, n + 1);
  bpf_map_update(3, &kbuf, &vbuf);
  return 2;
}
|}
  in
  let read_mostly_src = {|
fn prog(c: ctx) -> u64 {
  var kbuf: bytes[8];
  var vbuf: bytes[8];
  st64(&kbuf, 0, pkt_read_u64(c, 1) & 1023);
  if (pkt_read_u8(c, 0) == 1) {
    var n: u64 = 0;
    if (bpf_map_lookup(3, &kbuf, &vbuf) == 1) { n = ld64(&vbuf, 0); }
    st64(&vbuf, 0, n + 1);
    bpf_map_update(3, &kbuf, &vbuf);
    return 2;
  }
  if (bpf_map_lookup(3, &kbuf, &vbuf) == 1) { return 2; }
  return 1;
}
|}
  in
  let run_shared ~name ~src ~pkts ~fd3 ~shards =
    let compiled =
      Kflex_eclang.Compile.compile_string ~name ~use_heap:false src
    in
    let eng = Kflex_engine.Engine.create ~shards () in
    let configure =
      match fd3 with
      | `Shared make ->
          ignore (Kflex_engine.Engine.share_map eng (make ~shards));
          None
      | `Private make ->
          Some
            (fun ~shard:_ kernel _heap ->
              ignore
                (Kflex_kernel.Map.register
                   (Kflex_kernel.Helpers.maps kernel)
                   (make ~shards)))
    in
    (match
       Kflex_engine.Engine.attach eng ~name ?configure
         ~hook:Kflex_kernel.Hook.Xdp compiled.Kflex_eclang.Compile.prog
     with
    | Ok _ -> ()
    | Error e ->
        Format.kasprintf failwith "engine bench (%s): rejected: %a" name
          Kflex_verifier.Verify.pp_error e);
    let res = closed_engine eng pkts in
    let tot = Kflex_engine.Engine.totals eng in
    Kflex_engine.Engine.shutdown eng;
    (res, tot)
  in
  let percpu_map ~shards =
    Kflex_kernel.Map.create ~kind:Kflex_kernel.Map.Percpu ~cpus:shards
      ~max_entries:1024 ()
  in
  let rcu_map ~shards =
    Kflex_kernel.Map.create ~kind:Kflex_kernel.Map.Rcu_shared ~cpus:shards
      ~max_entries:1024 ()
  in
  let hash_map ~shards:_ =
    Kflex_kernel.Map.create ~kind:Kflex_kernel.Map.Hash ~max_entries:1024 ()
  in
  let counter_pkts = shared_pkts ~write_every:1 in
  let rm_pkts = shared_pkts ~write_every:128 in
  pf "  %-18s %5s %12s %8s %6s@." "shared config" "shard" "MOps/s" "cancel"
    "leak";
  let shared_rows = ref [] in
  let record name shards (res, (tot : Kflex_engine.Engine.totals)) =
    pf "  %-18s %5d %12.3f %8d %6d@." name shards
      res.Kflex_sim.Lanes.throughput_mops tot.Kflex_engine.Engine.cancelled
      tot.Kflex_engine.Engine.leaked;
    shared_rows := (name, shards, res, tot) :: !shared_rows;
    res.Kflex_sim.Lanes.throughput_mops
  in
  let pc1 =
    record "percpu_counter" 1
      (run_shared ~name:"percpu_counter" ~src:counter_src ~pkts:counter_pkts
         ~fd3:(`Shared percpu_map) ~shards:1)
  in
  let pc4 =
    record "percpu_counter" 4
      (run_shared ~name:"percpu_counter" ~src:counter_src ~pkts:counter_pkts
         ~fd3:(`Shared percpu_map) ~shards:4)
  in
  let rcu4 =
    record "rcu_read_mostly" 4
      (run_shared ~name:"rcu_read_mostly" ~src:read_mostly_src ~pkts:rm_pkts
         ~fd3:(`Shared rcu_map) ~shards:4)
  in
  let hash4 =
    record "private_hash" 4
      (run_shared ~name:"private_hash" ~src:read_mostly_src ~pkts:rm_pkts
         ~fd3:(`Private hash_map) ~shards:4)
  in
  let shared_rows = List.rev !shared_rows in
  let percpu_speedup = pc4 /. pc1 in
  let rcu_ratio = rcu4 /. hash4 in
  let shared_leaks =
    List.fold_left
      (fun a (_, _, _, t) -> a + t.Kflex_engine.Engine.leaked)
      0 shared_rows
  in
  pf "  percpu 4-shard speedup %.2fx (gate: >= 2.5x)@." percpu_speedup;
  pf "  rcu read-mostly vs private hash %.2fx (gate: >= 0.8x)@." rcu_ratio;
  let leaks = List.fold_left (fun a r -> a + r.er_tot.Kflex_engine.Engine.leaked) 0 rows in
  let oc = open_out "BENCH_engine.json" in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n  \"events\": %d,\n  \"smoke\": %b,\n  \"configs\": [\n" events smoke;
  List.iteri
    (fun i r ->
      p "    {\"structure\": %S, \"shards\": %d, \"chain\": %d, \
         \"throughput_mops\": %.4f, \"p99_us\": %.2f, \"events\": %d, \
         \"cancelled\": %d, \"leaked\": %d}%s\n"
        (Kflex_apps.Datastructs.name r.er_kind)
        r.er_shards r.er_chain (tp r) r.er_res.Kflex_sim.Lanes.p99_us
        r.er_tot.Kflex_engine.Engine.events r.er_tot.Kflex_engine.Engine.cancelled
        r.er_tot.Kflex_engine.Engine.leaked
        (if i = List.length rows - 1 then "" else ","))
    rows;
  p "  ],\n  \"scaling_4shard_vs_1\": [\n";
  List.iteri
    (fun i (k, c, s) ->
      p "    {\"structure\": %S, \"chain\": %d, \"speedup\": %.3f}%s\n"
        (Kflex_apps.Datastructs.name k)
        c s
        (if i = List.length speedups - 1 then "" else ","))
    speedups;
  p "  ],\n  \"shared_configs\": [\n";
  List.iteri
    (fun i (name, shards, res, (tot : Kflex_engine.Engine.totals)) ->
      p "    {\"config\": %S, \"shards\": %d, \"throughput_mops\": %.4f, \
         \"p99_us\": %.2f, \"events\": %d, \"cancelled\": %d, \"leaked\": \
         %d}%s\n"
        name shards res.Kflex_sim.Lanes.throughput_mops
        res.Kflex_sim.Lanes.p99_us tot.Kflex_engine.Engine.events
        tot.Kflex_engine.Engine.cancelled tot.Kflex_engine.Engine.leaked
        (if i = List.length shared_rows - 1 then "" else ","))
    shared_rows;
  let shared_ok =
    percpu_speedup >= 2.5 && rcu_ratio >= 0.8 && shared_leaks = 0
  in
  p "  ],\n  \"summary\": {\"min_speedup_4shard\": %.3f, \"leaked\": %d, \
     \"corpus_identical\": %d, \"corpus_skipped\": %d, \"corpus_divergent\": \
     %d, \"percpu_speedup_4shard\": %.3f, \"rcu_vs_private_hash\": %.3f, \
     \"shared_leaked\": %d, \"gate_passed\": %b}\n}\n"
    min_speedup leaks corpus_ok corpus_skip corpus_bad percpu_speedup
    rcu_ratio shared_leaks
    (min_speedup > 1.8 && corpus_bad = 0 && leaks = 0 && shared_ok);
  close_out oc;
  pf "  wrote BENCH_engine.json@.";
  if min_speedup <= 1.8 || corpus_bad > 0 || leaks > 0 || not shared_ok then
    exit 1

(* ---- Serve: open-loop front end in virtual time (BENCH_serve.json) ---- *)

(* The §5 serving shape end to end: wire-protocol ingest through the
   per-connection rings, Zipfian keys, open-loop arrivals, the burner
   tenant putting reaper cancellations into the tail. Both measurements
   run DETERMINISTIC in VIRTUAL time (the measuring host has 2 vCPUs, so
   wall-clock 4-shard scaling measures the host, not the shard model —
   same convention as BENCH_engine.json):

   - the determinism gate runs the same seeded schedule twice and demands
     bit-equal verdict-stream digests with zero leaks;
   - shard scaling serves the schedule in deep overload at 1, 2 and 4
     shards; every row must complete every request with a finite tail,
     no leaks, and reaper cancellations in the overload tail.

   The wall-clock measurement of the same pipeline is kbench
   (benchmark/). *)

module OL = Kflex_serve.Open_loop

let serve_bench ~smoke =
  hr "Serve: open-loop front end (virtual-time determinism and scaling)";
  let point_requests = if smoke then 3_000 else 100_000 in
  let base = { OL.default with OL.requests = point_requests } in
  (* 1. determinism gate: the ninth check, end to end through the wire *)
  let det_cfg =
    { base with OL.requests = (if smoke then 2_000 else 20_000) }
  in
  let det_ok, d1, d2 = OL.determinism_check ~shards:2 det_cfg in
  pf "  determinism: run1 %Lx run2 %Lx -> %s@." d1 d2
    (if det_ok then "bit-identical" else "DIVERGENT");
  (* 2. shard scaling in virtual time, deep overload (throughput = the
     shard model's capacity, as in BENCH_engine.json) *)
  let scale_cfg = { base with OL.rate = 20_000_000.0 } in
  let scaling =
    List.map
      (fun shards ->
        let o = OL.run_deterministic ~shards scale_cfg in
        pf "  %d shard(s): %12.0f req/s (virtual), %d cancelled, %d leaked@."
          shards o.OL.achieved_rps o.OL.cancelled o.OL.leaked;
        (shards, o))
      [ 1; 2; 4 ]
  in
  let ach sh = (List.assoc sh scaling).OL.achieved_rps in
  let speedup4 = ach 4 /. ach 1 in
  pf "  4-shard vs 1-shard (virtual time): %.2fx (gate: >= 2.5x)@." speedup4;
  (* gates, over the scaling rows *)
  let sum f = List.fold_left (fun a (_, o) -> a + f o) 0 scaling in
  let leaks = sum (fun o -> o.OL.leaked) in
  let overload_cancelled = sum (fun o -> o.OL.cancelled) in
  let tails_finite =
    List.for_all
      (fun (_, o) -> Float.is_finite o.OL.p999_us && o.OL.p999_us > 0.0)
      scaling
  in
  let complete =
    List.for_all (fun (_, o) -> o.OL.completed = point_requests) scaling
  in
  let gate =
    det_ok && leaks = 0 && tails_finite && complete && overload_cancelled > 0
    && speedup4 >= 2.5
  in
  let oc = open_out "BENCH_serve.json" in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n  \"smoke\": %b,\n  \"proto\": \"memcached\",\n" smoke;
  p "  \"requests_per_point\": %d,\n  \"conns\": %d,\n" base.OL.requests
    base.OL.conns;
  p "  \"zipf_s\": %.2f,\n  \"set_frac\": %.2f,\n  \"deadline_us\": %.1f,\n"
    base.OL.zipf_s base.OL.set_frac base.OL.deadline_us;
  p "  \"determinism\": {\"digest_run1\": \"%Lx\", \"digest_run2\": \"%Lx\", \
     \"bit_identical\": %b},\n"
    d1 d2 det_ok;
  p "  \"shard_scaling\": {\"mode\": \"virtual_time\", \"note\": \
     \"deterministic open loop in deep overload; virtual time because the \
     measuring host has 2 vCPUs (nproc 2), fewer than the shards; same \
     convention as BENCH_engine.json\", \"rows\": [\n";
  List.iteri
    (fun i (sh, o) ->
      p "    {\"shards\": %d, \"achieved_rps\": %.0f, \"p999_us\": %.2f, \
         \"cancelled\": %d, \"leaked\": %d}%s\n"
        sh o.OL.achieved_rps o.OL.p999_us o.OL.cancelled o.OL.leaked
        (if i = List.length scaling - 1 then "" else ","))
    scaling;
  p "  ], \"speedup_4shard_vs_1\": %.3f},\n" speedup4;
  p "  \"summary\": {\"determinism_ok\": %b, \"leaked\": %d, \
     \"overload_cancelled\": %d, \"tails_finite\": %b, \"complete\": %b, \
     \"speedup_4shard\": %.3f, \"gate_passed\": %b}\n}\n"
    det_ok leaks overload_cancelled tails_finite complete speedup4 gate;
  close_out oc;
  pf "  wrote BENCH_serve.json@.";
  if not gate then begin
    pf
      "  serve gate FAILED (determinism %b, leaks %d, cancelled-in-overload \
       %d, tails finite %b, complete %b, speedup %.2fx)@."
      det_ok leaks overload_cancelled tails_finite complete speedup4;
    exit 1
  end

(* ---- Table 3: guard elision ------------------------------------------- *)

let verify_ds prog =
  Kflex_verifier.Verify.run ~mode:Kflex_verifier.Verify.Kflex
    ~contracts:Kflex.contracts ~ctx_size:Kflex_kernel.Hook.ctx_size
    ~heap_size:(Int64.shift_left 1L 24) prog

(* Run [f] with the known-bits half of the verifier's domain disabled, i.e.
   with the plain interval analysis the seed shipped. Used to measure how
   many extra guards the tnum domain elides. *)
let interval_only f =
  Kflex_verifier.Range.set_tnum false;
  Fun.protect ~finally:(fun () -> Kflex_verifier.Range.set_tnum true) f

(* (sites, elided interval-only, elided interval+tnum) for one compiled op;
   None if verification fails. *)
let elision_counts prog =
  let count analysis =
    let kie = Kflex_kie.Instrument.run analysis in
    kie.Kflex_kie.Instrument.report
  in
  match (interval_only (fun () -> verify_ds prog), verify_ds prog) with
  | Ok a_int, Ok a_tnum ->
      let r_int = count a_int and r_tnum = count a_tnum in
      Some (r_int, r_tnum)
  | _ -> None

let table3 () =
  hr "Table 3: SFI guards elided by the verifier's range analysis";
  pf "  (paper: 76%% of pointer-manipulation guards elided on average;@.";
  pf "   el(int) = interval domain only, el(+tnum) = with known bits)@.";
  pf "  %-24s %6s %8s %9s %4s %8s %9s@." "function" "sites" "el(int)"
    "el(+tnum)" "d" "emitted" "elided%";
  let total_sites = ref 0
  and total_int = ref 0
  and total_tnum = ref 0 in
  List.iter
    (fun kind ->
      List.iter
        (fun (opname, op) ->
          let src = Kflex_apps.Datastructs.op_source kind op in
          let compiled =
            Kflex_eclang.Compile.compile_string
              ~name:(Kflex_apps.Datastructs.name kind ^ "_" ^ opname)
              src
          in
          match elision_counts compiled.Kflex_eclang.Compile.prog with
          | None ->
              pf "  %-24s VERIFY ERROR@."
                (Kflex_apps.Datastructs.name kind ^ " " ^ opname)
          | Some (r_int, r) ->
              total_sites := !total_sites + r.Kflex_kie.Report.counted_sites;
              total_int := !total_int + r_int.Kflex_kie.Report.elided;
              total_tnum := !total_tnum + r.Kflex_kie.Report.elided;
              pf "  %-24s %6d %8d %9d %+4d %8d %8.0f%%@."
                (Kflex_apps.Datastructs.name kind ^ " " ^ opname)
                r.Kflex_kie.Report.counted_sites r_int.Kflex_kie.Report.elided
                r.Kflex_kie.Report.elided
                (r.Kflex_kie.Report.elided - r_int.Kflex_kie.Report.elided)
                r.Kflex_kie.Report.emitted
                (100. *. Kflex_kie.Report.elision_ratio r))
        [ ("update", `Update); ("lookup", `Lookup); ("delete", `Delete) ])
    Kflex_apps.Datastructs.all;
  if !total_sites > 0 then
    pf "  %-24s %6d %8d %9d %+4d %8s %8.0f%%@." "TOTAL" !total_sites !total_int
      !total_tnum
      (!total_tnum - !total_int)
      ""
      (100. *. float_of_int !total_tnum /. float_of_int !total_sites)

(* ---- Ablation: does verification reduce SFI overhead? (§5.4) ----------- *)

(* Table 3 counts guards statically; this ablation measures the runtime
   cost the elision saves, by running the same workload with the range
   analysis honoured vs ignored (every heap access guarded). *)
let ablation () =
  hr "Ablation (§5.4): guard elision ON vs OFF (per-op cost units)";
  pf "  %-12s %10s %12s %12s %10s %8s %9s@." "structure" "KMod" "KFlex"
    "no-elision" "saved" "el(int)" "el(+tnum)";
  List.iter
    (fun kind ->
      let static_elided =
        (* static elision counts for this structure's update op, with and
           without the known-bits domain *)
        let compiled =
          Kflex_eclang.Compile.compile_string
            ~name:(Kflex_apps.Datastructs.name kind ^ "_update")
            (Kflex_apps.Datastructs.op_source kind `Update)
        in
        elision_counts compiled.Kflex_eclang.Compile.prog
      in
      let cost mode =
        let inst = Kflex_apps.Datastructs.create ~mode kind in
        for i = 0 to 4095 do
          ignore
            (Kflex_apps.Datastructs.update inst ~key:(Int64.of_int i)
               ~value:1L)
        done;
        let total = ref 0 in
        for i = 0 to 1023 do
          let _, c =
            Kflex_apps.Datastructs.update inst ~key:(Int64.of_int (i * 3))
              ~value:2L
          in
          total := !total + c
        done;
        float_of_int !total /. 1024.
      in
      let kmod = cost Kflex_apps.Datastructs.M_kmod in
      let kflex = cost Kflex_apps.Datastructs.M_kflex in
      let noel = cost Kflex_apps.Datastructs.M_noelide in
      let el_int, el_tnum =
        match static_elided with
        | Some (r_int, r_tnum) ->
            ( string_of_int r_int.Kflex_kie.Report.elided,
              string_of_int r_tnum.Kflex_kie.Report.elided )
        | None -> ("?", "?")
      in
      pf "  %-12s %10.1f %12.1f %12.1f %9.1f%% %8s %9s@."
        (Kflex_apps.Datastructs.name kind)
        kmod kflex noel
        (100. *. (noel -. kflex) /. (noel -. kmod +. 1e-9))
        el_int el_tnum)
    [
      Kflex_apps.Datastructs.Hashmap; Kflex_apps.Datastructs.Rbtree;
      Kflex_apps.Datastructs.Skiplist; Kflex_apps.Datastructs.Countmin;
    ];
  pf "  ('saved' = share of instrumentation overhead removed by elision)@."

(* ---- Bechamel micro-benchmarks ----------------------------------------- *)

(* One Bechamel Test.make per experiment family: wall-clock cost of the
   representative inner operation (VM-executed data-structure ops and
   end-to-end requests), complementing the cost-model numbers above. *)
let bechamel () =
  hr "Bechamel micro-benchmarks (host wall-clock of VM-executed ops)";
  let open Bechamel in
  let hm = Kflex_apps.Datastructs.create Kflex_apps.Datastructs.Hashmap in
  ds_preload hm ~n:4096;
  let sk = Kflex_apps.Datastructs.create Kflex_apps.Datastructs.Skiplist in
  ds_preload sk ~n:4096;
  let mc = Kflex_apps.Memcached.create_kflex () in
  for rank = 0 to 1023 do
    ignore
      (Kflex_apps.Memcached.exec_kflex mc
         (Kflex_apps.Memcached.op_packet ~op:Kflex_apps.Memcached.Set ~rank))
  done;
  let rd = Kflex_apps.Redis.create () in
  let counter = ref 0 in
  let tests =
    [
      (* Figures 2/3/7: one Memcached GET through the full pipeline *)
      Test.make ~name:"fig2_memcached_get"
        (Staged.stage (fun () ->
             incr counter;
             ignore
               (Kflex_apps.Memcached.exec_kflex mc
                  (Kflex_apps.Memcached.op_packet ~op:Kflex_apps.Memcached.Get
                     ~rank:(!counter land 1023)))));
      (* Figures 4/6: one Redis ZADD *)
      Test.make ~name:"fig4_redis_zadd"
        (Staged.stage (fun () ->
             incr counter;
             ignore
               (Kflex_apps.Redis.exec rd
                  (Kflex_apps.Redis.op_packet
                     ~op:
                       (Kflex_apps.Redis.Zadd
                          (Int64.of_int !counter, Int64.of_int !counter))
                     ~rank:1))));
      (* Figure 5 / Table 3: hashmap + skiplist lookups *)
      Test.make ~name:"fig5_hashmap_lookup"
        (Staged.stage (fun () ->
             incr counter;
             ignore
               (Kflex_apps.Datastructs.lookup hm
                  ~key:(Int64.of_int (!counter land 4095)))));
      Test.make ~name:"fig5_skiplist_lookup"
        (Staged.stage (fun () ->
             incr counter;
             ignore
               (Kflex_apps.Datastructs.lookup sk
                  ~key:(Int64.of_int (!counter land 4095)))));
    ]
  in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) ~kde:None () in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  List.iter
    (fun test ->
      let results =
        Benchmark.all cfg instances (Test.make_grouped ~name:"g" [ test ])
      in
      let results =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false
             ~predictors:[| Measure.run |])
          Toolkit.Instance.monotonic_clock results
      in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> pf "  %-28s %12.0f ns/op@." name est
          | _ -> pf "  %-28s (no estimate)@." name)
        results)
    tests

(* ------------------------------------------------------------------------ *)

let all () =
  table1 ();
  fig2 ();
  fig3 ();
  fig4 ();
  fig5 ();
  fig6 ();
  fig7 ();
  table3 ();
  ablation ();
  bechamel ()

let () =
  let which = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  match which with
  | "table1" -> table1 ()
  | "fig2" -> fig2 ()
  | "fig3" -> fig3 ()
  | "fig4" -> fig4 ()
  | "fig5" -> fig5 ()
  | "fig6" -> fig6 ()
  | "fig7" -> fig7 ()
  | "table3" -> table3 ()
  | "ablation" -> ablation ()
  | "bechamel" -> bechamel ()
  | "jit" ->
      jit_bench
        ~smoke:(Array.length Sys.argv > 2 && Sys.argv.(2) = "--smoke")
  | "engine" ->
      engine_bench
        ~smoke:(Array.length Sys.argv > 2 && Sys.argv.(2) = "--smoke")
  | "serve" ->
      serve_bench
        ~smoke:(Array.length Sys.argv > 2 && Sys.argv.(2) = "--smoke")
  | "all" -> all ()
  | other ->
      pf
        "unknown experiment %s (use \
         table1|fig2|fig3|fig4|fig5|fig6|fig7|table3|ablation|bechamel|jit|engine|serve|all)@."
        other;
      exit 1
