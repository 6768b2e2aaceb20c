(* Multi-tenant engine tests: hook-chain verdict composition, the
   attach/detach/replace lifecycle with epoch quiescence, the LRU-bounded
   compiled-program cache behind admission, per-shard state isolation,
   shard-count invariance of flow-keyed chains, and single-shard
   equivalence with the one-program facade. *)

open Kflex_kernel
module Engine = Kflex_engine.Engine
module Chain = Kflex_engine.Chain
module Vm = Kflex_runtime.Vm

let compile name src = Kflex_eclang.Compile.compile_string ~name src

let prog_of (c : Kflex_eclang.Compile.compiled) = c.Kflex_eclang.Compile.prog

let globals_of (c : Kflex_eclang.Compile.compiled) =
  c.Kflex_eclang.Compile.layout.Kflex_eclang.Compile.globals_size

(* a heapless extension returning a constant verdict *)
let ret_src v = Printf.sprintf "fn prog(c: ctx) -> u64 { return %d; }" v

let attach_exn ?name ?globals_size ?heap_size ?configure eng prog =
  match
    Engine.attach eng ?name ?globals_size ?heap_size ?configure ~hook:Hook.Xdp
      prog
  with
  | Ok h -> h
  | Error e ->
      Alcotest.failf "attach rejected: %a" Kflex_verifier.Verify.pp_error e

let attach_ret eng v =
  let name = Printf.sprintf "ret%d" v in
  (* even a constant-return program needs a (tiny) heap: instrumentation
     polls the terminate word at heap offset 0 *)
  attach_exn ~name ~heap_size:4096L eng (prog_of (compile name (ret_src v)))

let pkt ?(src_port = 1) ?(dst_port = 2) ?(payload = Bytes.make 17 '\000') () =
  Packet.make ~proto:Packet.Udp ~src_port ~dst_port payload

(* --- verdict composition ------------------------------------------------ *)

let t_chain_composition () =
  let eng = Engine.create () in
  (* empty chain: the hook's pass verdict, nothing ran *)
  let r = Engine.run_packet eng (pkt ()) in
  Alcotest.(check int64) "empty = pass" Hook.xdp_pass r.Engine.verdict;
  Alcotest.(check int) "none ran" 0 r.Engine.executed;
  (* pass falls through; the first non-pass verdict wins and stops *)
  let _a = attach_ret eng 2 in
  let _b = attach_ret eng 3 in
  let _c = attach_ret eng 1 in
  Alcotest.(check int) "chain length" 3 (Engine.chain_length eng Hook.Xdp);
  let r = Engine.run_packet eng (pkt ()) in
  Alcotest.(check int64) "first non-pass wins" Hook.xdp_tx r.Engine.verdict;
  Alcotest.(check int) "stopped at tx" 2 r.Engine.executed;
  Alcotest.(check int) "outcomes per ran entry" 2
    (List.length r.Engine.outcomes);
  (* all-pass chain runs every entry *)
  let eng2 = Engine.create () in
  let _ = attach_ret eng2 2 and _ = attach_ret eng2 2 in
  let r2 = Engine.run_packet eng2 (pkt ()) in
  Alcotest.(check int64) "all pass" Hook.xdp_pass r2.Engine.verdict;
  Alcotest.(check int) "both ran" 2 r2.Engine.executed

(* Verdicts 0–255 are tallied in an array, any other in a table; both
   observations merge the two exactly, sorted by verdict. *)
let t_verdict_tally () =
  let eng = Engine.create () in
  let _ =
    attach_exn ~name:"echo" ~heap_size:4096L eng
      (prog_of
         (compile "echo" "fn prog(c: ctx) -> u64 { return pkt_read_u64(c, 0); }"))
  in
  let sent = [ 0L; 3L; 255L; 256L; 3L; -1L; 1000L; 0L; 256L; 3L ] in
  List.iter
    (fun v ->
      let payload = Bytes.create 8 in
      Bytes.set_int64_le payload 0 v;
      let r = Engine.run_packet eng (pkt ~payload ()) in
      Alcotest.(check int64) "verdict echoed" v r.Engine.verdict)
    sent;
  let expect =
    List.sort_uniq compare sent
    |> List.map (fun v -> (v, List.length (List.filter (( = ) v) sent)))
  in
  Alcotest.(check (list (pair int64 int))) "shard tally" expect
    (Engine.shard_verdicts eng 0);
  Alcotest.(check (list (pair int64 int))) "totals" expect
    (Engine.totals eng).Engine.verdicts

let t_chain_module () =
  (* the pure chain structure underneath the registry *)
  let c = Chain.empty in
  Alcotest.(check int) "gen 0" 0 (Chain.generation c);
  let c = Chain.attach c Hook.Xdp "a" in
  let c = Chain.attach c Hook.Xdp "b" in
  let c = Chain.attach c Hook.Lsm "l" in
  Alcotest.(check int) "xdp len" 2 (Chain.length c Hook.Xdp);
  Alcotest.(check int) "lsm len" 1 (Chain.length c Hook.Lsm);
  Alcotest.(check int) "3 mutations" 3 (Chain.generation c);
  let c', removed = Chain.detach c Hook.Xdp (fun x -> x = "a") in
  Alcotest.(check (list string)) "removed" [ "a" ] removed;
  Alcotest.(check int) "shrunk" 1 (Chain.length c' Hook.Xdp);
  Alcotest.(check int) "gen bumped" 4 (Chain.generation c');
  (* detaching a missing entry does not publish a new generation *)
  let c'', removed' = Chain.detach c' Hook.Xdp (fun x -> x = "zzz") in
  Alcotest.(check (list string)) "nothing removed" [] removed';
  Alcotest.(check int) "gen unchanged" 4 (Chain.generation c'');
  let c3, old = Chain.replace c' Hook.Xdp (fun x -> x = "b") "b2" in
  Alcotest.(check (option string)) "replaced" (Some "b") old;
  Alcotest.(check int) "same arity" 1 (Chain.length c3 Hook.Xdp);
  (* verdict fall-through rule *)
  Alcotest.(check bool) "xdp pass continues" true
    (Chain.continue_on Hook.Xdp Hook.xdp_pass);
  Alcotest.(check bool) "xdp drop stops" false
    (Chain.continue_on Hook.Xdp Hook.xdp_drop);
  Alcotest.(check bool) "lsm 0 continues" true (Chain.continue_on Hook.Lsm 0L)

(* --- attach / detach / replace lifecycle -------------------------------- *)

let t_lifecycle_epochs () =
  let eng = Engine.create ~shards:2 () in
  let e0 = Engine.epoch eng in
  let a = attach_ret eng 2 in
  let b = attach_ret eng 1 in
  Alcotest.(check bool) "attach bumps epoch" true (Engine.epoch eng > e0);
  Alcotest.(check int) "two attached" 2 (Engine.chain_length eng Hook.Xdp);
  let r = Engine.run_packet eng (pkt ()) in
  Alcotest.(check int64) "drop wins" Hook.xdp_drop r.Engine.verdict;
  (* replace the dropper with a passer in place *)
  let e1 = Engine.epoch eng in
  let b' =
    match
      Engine.replace eng b ~name:"ret2'" ~heap_size:4096L
        (prog_of (compile "ret2'" (ret_src 2)))
    with
    | Ok h -> h
    | Error e -> Alcotest.failf "replace: %a" Kflex_verifier.Verify.pp_error e
  in
  Alcotest.(check bool) "replace bumps epoch" true (Engine.epoch eng > e1);
  Alcotest.(check int) "arity kept" 2 (Engine.chain_length eng Hook.Xdp);
  let r = Engine.run_packet eng (pkt ()) in
  Alcotest.(check int64) "now passes" Hook.xdp_pass r.Engine.verdict;
  Alcotest.(check int) "both ran" 2 r.Engine.executed;
  (* detach is idempotent *)
  Engine.detach eng a;
  Engine.detach eng a;
  Alcotest.(check int) "one left" 1 (Engine.chain_length eng Hook.Xdp);
  Engine.detach eng b';
  Alcotest.(check int) "empty" 0 (Engine.chain_length eng Hook.Xdp);
  Alcotest.(check int) "no socket refs after teardown" 0
    (Engine.socket_refs eng)

(* --- the LRU-bounded compiled-program cache ----------------------------- *)

let t_jit_cache_lru () =
  let capacity = (Kflex.jit_cache_stats ()).Kflex.capacity in
  let admit_ret i =
    let name = Printf.sprintf "cache%d" i in
    match
      Kflex.admit ~heap_size:4096L ~hook:Hook.Xdp
        (prog_of (compile name (ret_src (100 + i))))
    with
    | Ok a -> a
    | Error e -> Alcotest.failf "admit: %a" Kflex_verifier.Verify.pp_error e
  in
  let s0 = Kflex.jit_cache_stats () in
  (* three more distinct programs than the capacity *)
  let last = capacity + 2 in
  for i = 0 to last do
    ignore (admit_ret i)
  done;
  let s1 = Kflex.jit_cache_stats () in
  Alcotest.(check int) "all missed" (s0.Kflex.misses + last + 1)
    s1.Kflex.misses;
  Alcotest.(check bool) "bounded" true (s1.Kflex.entries <= capacity);
  Alcotest.(check bool) "evicted" true
    (s1.Kflex.evictions >= s0.Kflex.evictions + 3);
  (* the most recent program is still cached ... *)
  ignore (admit_ret last);
  let s2 = Kflex.jit_cache_stats () in
  Alcotest.(check int) "hit" (s1.Kflex.hits + 1) s2.Kflex.hits;
  (* ... and the oldest was evicted, so it misses again *)
  ignore (admit_ret 0);
  let s3 = Kflex.jit_cache_stats () in
  Alcotest.(check int) "stale missed" (s2.Kflex.misses + 1) s3.Kflex.misses

(* The fused form depends on each pc's unwind registers as well as on the
   instructions, so the cache key covers both, and a key collision must
   compile rather than hand back another program's form. *)
let kie_of src =
  let prog = prog_of (compile "cached" src) in
  match
    Kflex_verifier.Verify.run ~mode:Kflex_verifier.Verify.Kflex
      ~contracts:Kflex.contracts ~ctx_size:Hook.ctx_size ~heap_size:65536L prog
  with
  | Ok a -> Kflex_kie.Instrument.run a
  | Error e -> Alcotest.failf "verify: %a" Kflex_verifier.Verify.pp_error e

(* [kie] with register [r] added to the object table of original pc [p] *)
let with_unwind_reg (kie : Kflex_kie.Instrument.t) p r =
  let tables = Array.copy kie.Kflex_kie.Instrument.tables in
  tables.(p) <-
    {
      Kflex_kie.Instrument.klass = "k";
      destructor = "d";
      loc = Kflex_verifier.State.L_reg (Kflex_bpf.Reg.of_int r);
    }
    :: tables.(p);
  { kie with Kflex_kie.Instrument.tables }

(* [kie] with a handle in frame slot [slot] added to the object table of
   original pc [p] *)
let with_unwind_slot (kie : Kflex_kie.Instrument.t) p slot =
  let tables = Array.copy kie.Kflex_kie.Instrument.tables in
  tables.(p) <-
    {
      Kflex_kie.Instrument.klass = "k";
      destructor = "d";
      loc = Kflex_verifier.State.L_slot slot;
    }
    :: tables.(p);
  { kie with Kflex_kie.Instrument.tables }

(* Two programs with the same instructions and unwind registers whose
   object tables hold a handle in different frame slots: the fused form
   keeps different frame stores for each, so they key apart and compile
   separately, and attaching either again hits its own entry. *)
let t_jit_cache_slots () =
  let kie = kie_of (ret_src 11) in
  let a = with_unwind_slot kie 0 63 and b = with_unwind_slot kie 0 62 in
  let ka = Kflex.jit_cache_key a and kb = Kflex.jit_cache_key b in
  if ka = kb then Alcotest.fail "key ignores the object table's slot";
  if ka = Kflex.jit_cache_key kie then Alcotest.fail "key ignores slot entries";
  let s0 = Kflex.jit_cache_stats () in
  let ta = Kflex.compile_cached ~key:ka a in
  let tb = Kflex.compile_cached ~key:kb b in
  let s1 = Kflex.jit_cache_stats () in
  Alcotest.(check int) "both compiled" (s0.Kflex.misses + 2) s1.Kflex.misses;
  Alcotest.(check bool) "separate forms" false (ta == tb);
  Alcotest.(check bool) "first again: a hit" true
    (Kflex.compile_cached ~key:ka a == ta);
  Alcotest.(check bool) "second again: a hit" true
    (Kflex.compile_cached ~key:kb b == tb);
  let s2 = Kflex.jit_cache_stats () in
  Alcotest.(check int) "two hits" (s1.Kflex.hits + 2) s2.Kflex.hits;
  Alcotest.(check int) "no further compile" s1.Kflex.misses s2.Kflex.misses;
  (* a forced collision: same key, other slot — compiled afresh *)
  let tb' = Kflex.compile_cached ~key:ka b in
  let s3 = Kflex.jit_cache_stats () in
  Alcotest.(check int) "slots differ: a miss" (s2.Kflex.misses + 1)
    s3.Kflex.misses;
  Alcotest.(check bool) "a fresh form" false (tb' == ta)

let t_jit_cache_key () =
  let kie = kie_of (ret_src 11) in
  let key = Kflex.jit_cache_key kie in
  Alcotest.(check string) "deterministic" key (Kflex.jit_cache_key kie);
  Array.iteri
    (fun p _ ->
      List.iter
        (fun r ->
          if Kflex.jit_cache_key (with_unwind_reg kie p r) = key then
            Alcotest.failf "key ignores r%d at pc %d" r p)
        [ 0; 6; 10 ])
    kie.Kflex_kie.Instrument.tables

let t_jit_cache_collision () =
  let k1 = kie_of (ret_src 11) and k2 = kie_of (ret_src 22) in
  let key = "forced collision" in
  let run kie t =
    let heap = Kflex_runtime.Heap.create ~size:65536L () in
    Kflex_runtime.Heap.populate heap ~off:0L ~len:4096L;
    let ext = Vm.create ~heap ~helpers:[] kie in
    Vm.set_compiled ext t;
    match Vm.exec ext ~ctx:(Bytes.make Hook.ctx_size '\000') () with
    | Vm.Finished v -> v
    | Vm.Cancelled _ -> Alcotest.fail "cancelled"
  in
  let s0 = Kflex.jit_cache_stats () in
  let t1 = Kflex.compile_cached ~key k1 in
  let t2 = Kflex.compile_cached ~key k2 in
  let s1 = Kflex.jit_cache_stats () in
  Alcotest.(check int) "both compiled" (s0.Kflex.misses + 2) s1.Kflex.misses;
  Alcotest.(check int) "no hit" s0.Kflex.hits s1.Kflex.hits;
  Alcotest.(check int64) "first program" 11L (run k1 t1);
  Alcotest.(check int64) "second program, not the first" 22L (run k2 t2);
  Alcotest.(check bool) "the entry now holds the second" true
    (Kflex.compile_cached ~key k2 == t2);
  (* same instructions, another pc's unwind registers: compiled afresh *)
  let t2' = Kflex.compile_cached ~key (with_unwind_reg k2 0 6) in
  let s2 = Kflex.jit_cache_stats () in
  Alcotest.(check int) "one hit" (s1.Kflex.hits + 1) s2.Kflex.hits;
  Alcotest.(check int) "unwind registers differ: a miss" (s1.Kflex.misses + 1)
    s2.Kflex.misses;
  Alcotest.(check bool) "a fresh form" false (t2' == t2)

(* The key depends on the program, not on how its values share memory:
   Memcached compiled from source, whose instructions share constants, and
   the same program decoded from its encoding, which shares nothing, make
   one entry, and the second admission hits it. *)
let t_jit_cache_decoded () =
  let prog =
    (Kflex_eclang.Compile.compile_string ~name:"memcached"
       Kflex_apps.Memcached.kflex_source).Kflex_eclang.Compile.prog
  in
  let decoded = Kflex_bpf.Encode.decode (Kflex_bpf.Encode.encode prog) in
  let admit p =
    match Kflex.admit ~heap_size:(Int64.shift_left 1L 26) ~hook:Hook.Xdp p with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "admit: %a" Kflex_verifier.Verify.pp_error e
  in
  admit prog;
  let s1 = Kflex.jit_cache_stats () in
  admit decoded;
  let s2 = Kflex.jit_cache_stats () in
  Alcotest.(check int) "no second compile" s1.Kflex.misses s2.Kflex.misses;
  Alcotest.(check int) "the decoded program hits" (s1.Kflex.hits + 1) s2.Kflex.hits;
  Alcotest.(check int) "no second entry"
    (s1.Kflex.entries + s1.Kflex.evictions)
    (s2.Kflex.entries + s2.Kflex.evictions)

(* The cache compares encodings, so [Encode] must be injective on what it
   compares: every app and example program, instrumented, decodes back to
   the same instructions. *)
let t_encode_roundtrip_instrumented () =
  let module A = Kflex_apps in
  let dir = "../examples/ec" in
  let examples =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".ec")
    |> List.map (fun f ->
           (f, Hook.Xdp, In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all))
  in
  let ds =
    List.concat_map
      (fun k ->
        let n = A.Datastructs.name k in
        [ (n, Hook.Xdp, A.Datastructs.source k);
          (n ^ ".chain", Hook.Xdp, A.Datastructs.chain_source k);
          (n ^ ".update", Hook.Xdp, A.Datastructs.op_source k `Update);
          (n ^ ".lookup", Hook.Xdp, A.Datastructs.op_source k `Lookup);
          (n ^ ".delete", Hook.Xdp, A.Datastructs.op_source k `Delete) ])
      A.Datastructs.all
  in
  let programs =
    [
      ("memcached", Hook.Xdp, A.Memcached.kflex_source);
      ("redis", Hook.Sk_skb, A.Redis.source);
      ("ratelimit", Hook.Xdp,
        A.Ratelimit.bucket_source ~pass:2L ~drop:1L ~capacity:64 ~window_ns:1_000_000L);
      ("conntrack", Hook.Xdp, A.Ratelimit.conntrack_source ~pass:2L ~drop:1L);
    ]
    @ ds @ examples
  in
  let instrumented = ref 0 in
  (* BMC is the one plain-eBPF app: no heap *)
  let bmc = ("memcached.bmc", Hook.Xdp, A.Memcached.bmc_source) in
  List.iter
    (fun ((name, hook, src) as p) ->
      let ebpf = p == bmc in
      let prog =
        (Kflex_eclang.Compile.compile_string ~name ~use_heap:(not ebpf) src)
          .Kflex_eclang.Compile.prog
      in
      match
        Kflex_verifier.Verify.run
          ~mode:(if ebpf then Kflex_verifier.Verify.Ebpf else Kflex_verifier.Verify.Kflex)
          ~contracts:Kflex.contracts ~ctx_size:Hook.ctx_size
          ?heap_size:(if ebpf then None else Some (Int64.shift_left 1L 24))
          ~sleepable:(Hook.sleepable hook) prog
      with
      | Error _ -> () (* a rejected example has no instrumented form *)
      | Ok a ->
          incr instrumented;
          let p = (Kflex_kie.Instrument.run a).Kflex_kie.Instrument.prog in
          let d = Kflex_bpf.Encode.decode (Kflex_bpf.Encode.encode p) in
          let insns = Kflex_bpf.Prog.insns in
          if
            not
              (Kflex_bpf.Prog.name d = Kflex_bpf.Prog.name p
              && Kflex_bpf.Prog.is_instrumented d = Kflex_bpf.Prog.is_instrumented p
              && Array.length (insns d) = Array.length (insns p)
              && Array.for_all2 Kflex_bpf.Insn.equal (insns d) (insns p))
          then Alcotest.failf "%s: the instrumented program does not round-trip" name)
    (bmc :: programs);
  Alcotest.(check bool) "examples read" true (List.length examples >= 3);
  Alcotest.(check bool) "every program but the buggy example instrumented"
    true
    (!instrumented >= List.length programs)

(* kbench's set-up cycle: the tenants of an overload engine, created and
   shut down twice; the second cycle compiles nothing. *)
let t_jit_cache_repeat_attach () =
  let cfg = { Kflex_serve.Open_loop.default with guard = true; burn = false } in
  let cycle () =
    Engine.shutdown
      (Kflex_serve.Open_loop.make_engine cfg ~mode:`Deterministic ~shards:1)
  in
  cycle ();
  let s0 = Kflex.jit_cache_stats () in
  cycle ();
  let s1 = Kflex.jit_cache_stats () in
  Alcotest.(check int) "no compile" s0.Kflex.misses s1.Kflex.misses;
  Alcotest.(check int) "every tenant hits" (s0.Kflex.hits + 3) s1.Kflex.hits

(* --- per-shard state ---------------------------------------------------- *)

(* flow-keyed per-shard counter: counts per flow must not depend on how
   flows are sharded, so aggregate verdicts are shard-count invariant *)
let counter_src = {|
struct node { key: u64; count: u64; next: ptr<node>; }
global buckets: [ptr<node>; 64];

fn bump(k: u64) -> u64 {
  var b: u64 = k & 63;
  var n: ptr<node> = buckets[b];
  while (n != null) {
    if (n.key == k) { n.count = n.count + 1; return n.count; }
    n = n.next;
  }
  var m: ptr<node> = new node;
  if (m == null) { return 0; }
  m.key = k;
  m.count = 1;
  m.next = buckets[b];
  buckets[b] = m;
  return 1;
}

fn prog(c: ctx) -> u64 {
  var flow: u64 = pkt_read_u64(c, 1);
  var n: u64 = bump(flow);
  if (n > 5) { return 1; }
  return 2;
}
|}

let flow_packets ~events =
  let rng = Kflex_workload.Rng.create ~seed:3L in
  Array.init events (fun _ ->
      let flow = Kflex_workload.Rng.int rng 40 in
      let b = Bytes.make 17 '\000' in
      Bytes.set_int64_le b 1 (Int64.of_int flow);
      pkt ~src_port:(1024 + (flow * 131)) ~payload:b ())

let attach_counter eng =
  let c = compile "counter" counter_src in
  attach_exn ~name:"counter" ~globals_size:(globals_of c)
    ~heap_size:(Int64.shift_left 1L 16)
    eng (prog_of c)

let t_shard_invariance () =
  let run shards =
    let eng = Engine.create ~shards () in
    let _ = attach_counter eng in
    let pkts = flow_packets ~events:600 in
    Array.iter (fun p -> ignore (Engine.run_packet eng p)) pkts;
    (eng, Engine.totals eng)
  in
  let eng3, t3 = run 3 in
  let _, t1 = run 1 in
  Alcotest.(check bool) "histograms equal" true
    (t3.Engine.verdicts = t1.Engine.verdicts);
  Alcotest.(check int) "all events" 600 t3.Engine.events;
  Alcotest.(check int) "no leaks" 0 t3.Engine.leaked;
  (* placement is the flow hash: per-shard counts sum to the total and more
     than one shard did work *)
  let per = List.init 3 (fun s -> Engine.shard_events eng3 s) in
  Alcotest.(check int) "events partitioned" 600
    (List.fold_left ( + ) 0 per);
  Alcotest.(check bool) "spread across shards" true
    (List.length (List.filter (fun n -> n > 0) per) > 1);
  (* read-side totals merge the per-shard stats exactly *)
  let insns s = s.Vm.insns and guards s = s.Vm.guards in
  Alcotest.(check int) "stats merged (insns)"
    (List.fold_left ( + ) 0
       (List.init 3 (fun s -> insns (Engine.shard_stats eng3 s))))
    (insns t3.Engine.stats);
  Alcotest.(check int) "stats merged (guards)"
    (List.fold_left ( + ) 0
       (List.init 3 (fun s -> guards (Engine.shard_stats eng3 s))))
    (guards t3.Engine.stats)

(* single-shard engine vs the one-program facade, same program and inputs:
   verdicts, costs and stats must be identical *)
let t_facade_equivalence () =
  let kind = Kflex_apps.Datastructs.Hashmap in
  let c =
    compile "hashmap_eq" (Kflex_apps.Datastructs.source kind)
  in
  (* facade *)
  let inst = Kflex_apps.Datastructs.create kind in
  (* engine, same source attached on one shard *)
  let eng = Engine.create ~shards:1 () in
  let _ =
    attach_exn ~name:"hashmap" ~globals_size:(globals_of c)
      ~heap_size:(Int64.shift_left 1L 24)
      eng (prog_of c)
  in
  let stats_f = Vm.fresh_stats () in
  let check_op ~op ~key ~value =
    let p = Kflex_apps.Datastructs.op_packet ~op ~key ~value in
    let vf =
      match
        Kflex.run_packet (Kflex_apps.Datastructs.loaded inst) ~stats:stats_f p
      with
      | Vm.Finished v -> v
      | Vm.Cancelled _ -> Alcotest.fail "facade op cancelled"
    in
    let r = Engine.run_packet eng p in
    Alcotest.(check int64)
      (Printf.sprintf "op %d key %Ld" op key)
      vf r.Engine.verdict
  in
  for i = 0 to 63 do
    check_op ~op:0 ~key:(Int64.of_int i) ~value:(Int64.of_int (i * 7))
  done;
  for i = 0 to 63 do
    check_op ~op:1 ~key:(Int64.of_int i) ~value:0L
  done;
  for i = 0 to 15 do
    check_op ~op:2 ~key:(Int64.of_int (i * 4)) ~value:0L
  done;
  let se = Engine.shard_stats eng 0 in
  Alcotest.(check int) "same insns" stats_f.Vm.insns se.Vm.insns;
  Alcotest.(check int) "same guards" stats_f.Vm.guards se.Vm.guards;
  Alcotest.(check int) "same checkpoints" stats_f.Vm.checkpoints
    se.Vm.checkpoints;
  Alcotest.(check int) "same helper cost" stats_f.Vm.helper_cost
    se.Vm.helper_cost

(* --- threaded mode ------------------------------------------------------ *)

let t_threaded_smoke () =
  let eng = Engine.create ~shards:2 ~mode:`Threaded () in
  let _ = attach_counter eng in
  let pkts = flow_packets ~events:400 in
  Array.iter (fun p -> Engine.submit eng p) pkts;
  Engine.drain eng;
  let t = Engine.totals eng in
  Engine.shutdown eng;
  Alcotest.(check int) "all drained" 400 t.Engine.events;
  Alcotest.(check int) "no leaks" 0 t.Engine.leaked;
  (* flow-keyed verdicts match a deterministic single-shard run *)
  let det = Engine.create ~shards:1 () in
  let _ = attach_counter det in
  Array.iter (fun p -> ignore (Engine.run_packet det p)) pkts;
  Alcotest.(check bool) "threaded = deterministic histogram" true
    ((Engine.totals det).Engine.verdicts = t.Engine.verdicts)

(* --- engine-shared maps ------------------------------------------------- *)

(* read-modify-write of a spin-locked shared counter: the whole increment
   runs inside the bpf_map_lock critical section, so per-key totals must
   equal the number of successful lock acquisitions even under real
   cross-domain contention *)
let shared_counter_src = {|
fn prog(c: ctx) -> u64 {
  var kbuf: bytes[8];
  var vbuf: bytes[8];
  st64(&kbuf, 0, pkt_read_u16(c, 0) & 7);
  var h: u64 = bpf_map_lock(3, &kbuf);
  if (h == 0) { return 1; }
  var n: u64 = 0;
  if (bpf_map_lookup(3, &kbuf, &vbuf) == 1) { n = ld64(&vbuf, 0); }
  st64(&vbuf, 0, n + 1);
  bpf_map_update(3, &kbuf, &vbuf);
  bpf_map_unlock(h);
  return 2;
}
|}

let attach_shared_counter eng =
  let c = compile "shared_counter" shared_counter_src in
  attach_exn ~name:"shared_counter" ~globals_size:(globals_of c)
    ~heap_size:4096L eng (prog_of c)

(* the programs above key on the first payload u16; vary the port too so
   flow hashing spreads events across shards *)
let key_pkt k =
  let b = Bytes.make 17 '\000' in
  Bytes.set_uint16_le b 0 (k land 0xFFFF);
  pkt ~src_port:(1 + (k * 131 mod 4096)) ~payload:b ()

let t_share_map_fds () =
  let eng = Engine.create ~shards:2 () in
  let spin = Map.create ~kind:Map.Spinlock ~max_entries:64 () in
  let rcu = Map.create ~kind:Map.Rcu_shared ~cpus:2 ~max_entries:64 () in
  let fd_spin = Engine.share_map eng spin in
  let fd_rcu = Engine.share_map eng rcu in
  Alcotest.(check int64) "first shared fd is 3" 3L fd_spin;
  Alcotest.(check int64) "second shared fd is 4" 4L fd_rcu;
  Alcotest.(check bool) "share order" true
    (Engine.shared_maps eng == [ spin; rcu ]
    || Engine.shared_maps eng = [ spin; rcu ]);
  let _ = attach_shared_counter eng in
  (* updates through the fd land in the map object we handed over *)
  for i = 0 to 15 do
    ignore (Engine.run_packet eng (key_pkt i))
  done;
  let total = List.fold_left (fun a (_, v) -> Int64.add a v) 0L (Map.to_list spin) in
  Alcotest.(check int64) "all increments in the shared map" 16L total;
  Alcotest.(check bool) "no lock left held" true
    (List.for_all (fun (k, _) -> not (Map.lock_held spin k)) (Map.to_list spin))

let t_shared_counter_threaded () =
  (* the linearizability check under real contention: 4 domains, 8 hot
     keys, every successful lock acquisition is one increment *)
  let eng = Engine.create ~shards:4 ~mode:`Threaded () in
  let spin = Map.create ~kind:Map.Spinlock ~max_entries:64 () in
  ignore (Engine.share_map eng spin);
  let _ = attach_shared_counter eng in
  let events = 800 in
  for i = 0 to events - 1 do
    Engine.submit eng (key_pkt i)
  done;
  Engine.drain eng;
  let t = Engine.totals eng in
  Engine.shutdown eng;
  Alcotest.(check int) "all events ran" events t.Engine.events;
  Alcotest.(check int) "no leaks" 0 t.Engine.leaked;
  let passes =
    try List.assoc 2L t.Engine.verdicts with Not_found -> 0
  in
  let drops = try List.assoc 1L t.Engine.verdicts with Not_found -> 0 in
  Alcotest.(check int) "every event passed or dropped" events (passes + drops);
  let total = List.fold_left (fun a (_, v) -> Int64.add a v) 0L (Map.to_list spin) in
  Alcotest.(check int64) "counter = successful acquisitions"
    (Int64.of_int passes) total;
  Alcotest.(check bool) "no lock left held" true
    (List.for_all
       (fun k -> not (Map.lock_held spin (Int64.of_int k)))
       [ 0; 1; 2; 3; 4; 5; 6; 7 ])

(* cancellation landing inside the critical section: the reaper fires while
   the lock is held, and the unwind must release it and leak nothing *)
let t_cancel_in_critical_section () =
  let slow_src = {|
fn prog(c: ctx) -> u64 {
  var kbuf: bytes[8];
  st64(&kbuf, 0, 0);
  var h: u64 = bpf_map_lock(3, &kbuf);
  if (h == 0) { return 1; }
  var i: u64 = 0;
  while (i < 1000000) { i = i + 1; }
  bpf_map_unlock(h);
  return 2;
}
|}
  in
  let eng = Engine.create ~shards:2 () in
  let spin = Map.create ~kind:Map.Spinlock ~max_entries:8 () in
  ignore (Engine.share_map eng spin);
  let c = compile "slow_lock" slow_src in
  (match
     Engine.attach eng ~name:"slow_lock" ~globals_size:(globals_of c)
       ~heap_size:4096L ~quantum:2000 ~hook:Hook.Xdp (prog_of c)
   with
  | Ok _ -> ()
  | Error e ->
      Alcotest.failf "attach rejected: %a" Kflex_verifier.Verify.pp_error e);
  for i = 0 to 7 do
    ignore (Engine.run_packet eng (key_pkt i))
  done;
  let t = Engine.totals eng in
  Alcotest.(check bool) "quantum fired" true (t.Engine.cancelled > 0);
  Alcotest.(check int) "no ledger leaks" 0 t.Engine.leaked;
  Alcotest.(check bool) "lock released by the unwind" false
    (Map.lock_held spin 0L);
  Alcotest.(check int) "no socket refs" 0 (Engine.socket_refs eng)

(* replace semantics: engine-shared maps persist at the same fds across a
   replace; maps registered by the old attachment's [configure] do not —
   the replacement's configure starts from a fresh registry (shared maps
   first, so private fds land after theirs, here at 5) *)
let t_replace_shared_persists () =
  let persist_src = {|
fn prog(c: ctx) -> u64 {
  var kbuf: bytes[8];
  var vbuf: bytes[8];
  st64(&kbuf, 0, pkt_read_u16(c, 0));
  st64(&vbuf, 0, 1);
  bpf_map_update(4, &kbuf, &vbuf);
  st64(&kbuf, 0, 0);
  var v: u64 = 0;
  if (bpf_map_lookup(5, &kbuf, &vbuf) == 1) { v = ld64(&vbuf, 0); }
  return v;
}
|}
  in
  let eng = Engine.create ~shards:2 () in
  let spin = Map.create ~kind:Map.Spinlock ~max_entries:8 () in
  let rcu = Map.create ~kind:Map.Rcu_shared ~cpus:2 ~max_entries:64 () in
  ignore (Engine.share_map eng spin);
  ignore (Engine.share_map eng rcu);
  let c = compile "persist" persist_src in
  let configure tag ~shard:_ kernel _heap =
    let m = Map.create ~max_entries:8 () in
    ignore (Map.update m 0L tag);
    ignore (Map.register (Helpers.maps kernel) m)
  in
  let h =
    attach_exn ~name:"persist" ~globals_size:(globals_of c) ~heap_size:4096L
      ~configure:(configure 7L) eng (prog_of c)
  in
  let r = Engine.run_packet eng (key_pkt 100) in
  Alcotest.(check int64) "private map visible at fd 5" 7L r.Engine.verdict;
  Alcotest.(check bool) "rcu entry written" true
    (Map.merged rcu 100L <> None);
  let v0 = (Option.get (Map.rcu_stats rcu)).Map.version in
  let h' =
    match
      Engine.replace eng h ~name:"persist2" ~globals_size:(globals_of c)
        ~heap_size:4096L ~configure:(configure 9L) (prog_of c)
    with
    | Ok h -> h
    | Error e -> Alcotest.failf "replace: %a" Kflex_verifier.Verify.pp_error e
  in
  ignore h';
  let r = Engine.run_packet eng (key_pkt 200) in
  (* the replacement sees its own private map (old fd-5 data is gone) ... *)
  Alcotest.(check int64) "fresh private map after replace" 9L r.Engine.verdict;
  (* ... while the engine-shared RCU map persisted at fd 4 with its data *)
  Alcotest.(check bool) "old shared entry survives" true
    (Map.merged rcu 100L <> None);
  Alcotest.(check bool) "new shared entry lands" true
    (Map.merged rcu 200L <> None);
  Alcotest.(check bool) "rcu kept publishing" true
    ((Option.get (Map.rcu_stats rcu)).Map.version > v0);
  (* registry quiescence at replace ran a full grace period: nothing
     retired from before the swap is still pending *)
  Engine.detach eng h';
  Alcotest.(check int) "retired drained at quiescence" 0
    (Option.get (Map.rcu_stats rcu)).Map.retired

(* --- watchdog slots and shutdown ------------------------------------------ *)

module Reaper = Kflex_engine.Reaper

let slot_ext () =
  let h = attach_ret (Engine.create ()) 2 in
  (Engine.instance h ~shard:0).Kflex.ext

let t_slot_protocol () =
  let ext = slot_ext () in
  let r = Reaper.create ~slots:2 () in
  let s = Reaper.slot r 1 in
  Reaper.arm s ext ~deadline:100.;
  Reaper.scan r ~now:50.;
  Alcotest.(check bool) "before the deadline: no cancel" false (Vm.cancelled ext);
  Reaper.scan r ~now:150.;
  Alcotest.(check bool) "after it: cancelled" true (Vm.cancelled ext);
  Vm.reset_cancel ext;
  Reaper.scan r ~now:200.;
  Alcotest.(check bool) "a second scan does not cancel again" false
    (Vm.cancelled ext);
  Vm.cancel ext;
  Reaper.disarm r s ~finished:false;
  Alcotest.(check bool) "disarm clears the reaper's flag" false (Vm.cancelled ext);
  Alcotest.(check int) "counted once" 1 (Reaper.cancellations r);
  (* a scan that read the word before a disarm and re-arm is stale *)
  Reaper.arm s ext ~deadline:100.;
  let w = Reaper.expired s ~now:150. in
  Alcotest.(check bool) "expired" true (w >= 0);
  Reaper.disarm r s ~finished:true;
  Reaper.arm s ext ~deadline:100.;
  Alcotest.(check bool) "stale word cannot cancel" false (Reaper.cancel_if s w);
  Alcotest.(check bool) "new invocation untouched" false (Vm.cancelled ext);
  Alcotest.(check bool) "a fresh word can" true
    (Reaper.cancel_if s (Reaper.expired s ~now:150.));
  (* a cancel that landed after the last cancellation point never took
     effect: not counted *)
  Reaper.disarm r s ~finished:true;
  Alcotest.(check int) "late cancel not counted" 1 (Reaper.cancellations r);
  Alcotest.(check bool) "flag cleared" false (Vm.cancelled ext);
  (* idle slots are never cancelled *)
  Alcotest.(check int) "idle never expires" (-1) (Reaper.expired s ~now:1e18)

(* Odd keys loop until the reaper cancels them; even keys return at once
   and reach no cancellation point. Under real cross-domain scheduling no
   even request may be cancelled, every cancellation the reaper counts is
   a [Cancelled] outcome, and unwinding leaks nothing. *)
let runaway_src =
  {|
fn prog(c: ctx) -> u64 {
  var k: u64 = pkt_read_u64(c, 1);
  if ((k & 1) == 1) {
    var i: u64 = 0;
    while (i < 1000000000000) { i = i + 1; }
  }
  return 2;
}
|}

let slot_stress shards =
  let eng =
    Engine.create ~shards ~mode:`Threaded ~quantum:max_int ~deadline_ns:1e6 ()
  in
  let c = compile "runaway" runaway_src in
  ignore
    (attach_exn ~name:"runaway" ~heap_size:4096L eng (prog_of c) : Engine.handle);
  let events = 20_000 in
  let even_cancelled = Atomic.make 0
  and cancelled = Atomic.make 0
  and completed = Atomic.make 0 in
  for i = 0 to events - 1 do
    let key = if i mod 100 = 50 then (2 * i) + 1 else 2 * i in
    let payload = Bytes.make 17 '\000' in
    Bytes.set_int64_le payload 1 (Int64.of_int key);
    Engine.submit eng
      ~on_done:(fun r ->
        Atomic.incr completed;
        List.iter
          (function
            | Vm.Cancelled _ ->
                Atomic.incr cancelled;
                if key land 1 = 0 then Atomic.incr even_cancelled
            | Vm.Finished _ -> ())
          r.Engine.outcomes)
      (pkt ~src_port:(1 + (i mod 64)) ~payload ())
  done;
  Engine.drain eng;
  let t = Engine.totals eng in
  Engine.shutdown eng;
  let label fmt = Printf.sprintf ("%d shard(s): " ^^ fmt) shards in
  Alcotest.(check int) (label "all completed") events (Atomic.get completed);
  Alcotest.(check int) (label "no even request cancelled") 0
    (Atomic.get even_cancelled);
  Alcotest.(check int) (label "no leaks") 0 t.Engine.leaked;
  Alcotest.(check int) (label "reaper count = cancelled outcomes")
    (Atomic.get cancelled)
    (Reaper.cancellations (Engine.reaper eng));
  Alcotest.(check bool) (label "runaways were cancelled") true
    (Atomic.get cancelled > 0)

let t_slot_stress () = List.iter slot_stress [ 1; 2 ]

let t_submit_after_shutdown () =
  let eng = Engine.create ~mode:`Threaded ~deadline_ns:1e9 () in
  let _ = attach_ret eng 2 in
  Engine.submit eng (pkt ());
  Engine.shutdown eng;
  Alcotest.check_raises "rejected"
    (Invalid_argument "Engine.submit: engine is shut down") (fun () ->
      Engine.submit eng (pkt ()));
  Engine.drain eng;
  Alcotest.(check int) "the accepted event ran" 1 (Engine.totals eng).Engine.events

(* --- one watchdog per process ------------------------------------------ *)

(* Odd keys loop 50M times, over a second uncancelled, so a runaway the
   watchdog misses comes back finished instead of hanging the test. *)
let looping_src =
  {|
fn prog(c: ctx) -> u64 {
  var k: u64 = pkt_read_u64(c, 1);
  if ((k & 1) == 1) {
    var i: u64 = 0;
    while (i < 50000000) { i = i + 1; }
  }
  return 2;
}
|}

let looping_engine () =
  let eng =
    Engine.create ~mode:`Threaded ~quantum:max_int ~deadline_ns:2e5 ()
  in
  let c = compile "looping" looping_src in
  ignore
    (attach_exn ~name:"looping" ~heap_size:4096L eng (prog_of c) : Engine.handle);
  eng

(* Submit one runaway; the cell counts it once it comes back cancelled. *)
let submit_runaway eng cancelled =
  let payload = Bytes.make 17 '\000' in
  Bytes.set_int64_le payload 1 1L;
  Engine.submit eng
    ~on_done:(fun r ->
      ignore (Atomic.fetch_and_add cancelled r.Engine.cancelled : int))
    (pkt ~payload ())

let check_reaped name eng ~runaways cancelled =
  Engine.drain eng;
  Alcotest.(check int) (name ^ ": runaways cancelled") runaways
    (Atomic.get cancelled);
  Alcotest.(check int) (name ^ ": reaper counted them") runaways
    (Reaper.cancellations (Engine.reaper eng));
  Alcotest.(check int) (name ^ ": no leaks") 0 (Engine.totals eng).Engine.leaked

(* One watchdog scans both engines: a runaway on each, in flight at once,
   is cancelled. *)
let t_watchdog_two_engines () =
  let a = looping_engine () and b = looping_engine () in
  let ca = Atomic.make 0 and cb = Atomic.make 0 in
  submit_runaway a ca;
  submit_runaway b cb;
  check_reaped "a" a ~runaways:1 ca;
  check_reaped "b" b ~runaways:1 cb;
  Engine.shutdown a;
  Engine.shutdown b

(* Unregistering one engine leaves the other watched. *)
let t_watchdog_after_shutdown () =
  let a = looping_engine () and b = looping_engine () in
  Engine.shutdown a;
  let cb = Atomic.make 0 in
  submit_runaway b cb;
  check_reaped "survivor" b ~runaways:1 cb;
  Engine.shutdown b

(* Registration against live scans: 100 deadline engines come and go while
   runaways queue on a long-lived one, so the registry changes while the
   watchdog is cancelling. Every shutdown must return and every runaway
   must be cancelled. *)
let t_watchdog_churn () =
  let long = looping_engine () and cancelled = Atomic.make 0 in
  for _ = 1 to 100 do
    submit_runaway long cancelled;
    Engine.shutdown (Engine.create ~mode:`Threaded ~deadline_ns:2e5 ())
  done;
  check_reaped "long-lived" long ~runaways:100 cancelled;
  Engine.shutdown long

(* --- one deadline in both modes ------------------------------------------- *)

(* One event: synchronously on a deterministic engine, through [submit] and
   [drain] on a threaded one. *)
let run_one eng p =
  match Engine.mode eng with
  | `Deterministic -> Engine.run_packet eng p
  | `Threaded -> (
      let r = ref None in
      Engine.submit eng ~on_done:(fun res -> r := Some res) p;
      Engine.drain eng;
      match !r with Some r -> r | None -> Alcotest.fail "event never completed")

(* Open_loop's burner, set to loop for seconds: key 7 burns, others return. *)
let burner =
  compile "burner"
    (Kflex_serve.Open_loop.burner_source ~pass:(Hook.pass_verdict Hook.Xdp)
       ~iters:1_000_000_000)

let key_pkt k =
  let payload = Bytes.make 17 '\000' in
  Bytes.set_int64_le payload 1 k;
  pkt ~payload ()

let burner_engine ?quantum ?deadline_ns mode =
  let eng = Engine.create ~mode ?quantum ?deadline_ns () in
  ignore
    (attach_exn ~name:"burner" ~heap_size:4096L eng (prog_of burner)
      : Engine.handle);
  eng

let deadline_cancel_pc (r : Engine.run_result) =
  match r.Engine.outcomes with
  | [ Vm.Cancelled { reason = Vm.Ext_cancelled; orig_pc; _ } ] -> orig_pc
  | _ -> Alcotest.fail "the burner was not cancelled by its deadline"

(* A 200 us deadline cancels the burner at the same checkpoint on the
   cost budget and on the wall clock. *)
let t_burner_both_modes () =
  let run mode =
    let eng = burner_engine ~quantum:max_int ~deadline_ns:2e5 mode in
    let r = run_one eng (key_pkt 7L) in
    Engine.shutdown eng;
    r
  in
  let det = run `Deterministic and thr = run `Threaded in
  Alcotest.(check int) "same cancellation point" (deadline_cancel_pc det)
    (deadline_cancel_pc thr);
  List.iter
    (fun (r : Engine.run_result) ->
      Alcotest.(check int64) "pass verdict" (Hook.pass_verdict Hook.Xdp)
        r.Engine.verdict)
    [ det; thr ];
  Alcotest.(check int) "deterministic cost: the budget, then its checkpoint"
    50_001 det.Engine.cost

(* A deterministic deadline D is the quantum ⌊D / insn_ns⌋: the same
   outcomes, costs and stats, the reason aside. *)
let t_deadline_is_quantum () =
  let d = 2e5 in
  let run eng =
    let rs = List.map (fun k -> run_one eng (key_pkt k)) [ 7L; 8L; 7L ] in
    (rs, Engine.totals eng)
  in
  let by_deadline, t1 = run (burner_engine ~deadline_ns:d `Deterministic)
  and by_quantum, t2 =
    run
      (burner_engine ~quantum:(int_of_float (d /. Cost.insn_ns)) `Deterministic)
  in
  List.iter2
    (fun (a : Engine.run_result) (b : Engine.run_result) ->
      Alcotest.(check int64) "verdict" a.Engine.verdict b.Engine.verdict;
      Alcotest.(check int) "cost" a.Engine.cost b.Engine.cost;
      Alcotest.(check int) "cancelled" a.Engine.cancelled b.Engine.cancelled;
      match (a.Engine.outcomes, b.Engine.outcomes) with
      | [ Vm.Finished x ], [ Vm.Finished y ] ->
          Alcotest.(check int64) "finished" x y
      | [ Vm.Cancelled x ], [ Vm.Cancelled y ] ->
          Alcotest.(check bool) "reasons" true
            (x.reason = Vm.Ext_cancelled && y.reason = Vm.Quantum_expired);
          Alcotest.(check int) "orig_pc" x.orig_pc y.orig_pc;
          Alcotest.(check bool) "released" true (x.released = y.released);
          Alcotest.(check int64) "ret" x.ret y.ret
      | _ -> Alcotest.fail "outcomes differ")
    by_deadline by_quantum;
  Alcotest.(check bool) "stats" true (t1.Engine.stats = t2.Engine.stats);
  Alcotest.(check int) "events cancelled" 2 t1.Engine.cancelled;
  Alcotest.(check int) "same tally" t1.Engine.cancelled t2.Engine.cancelled

(* A loop Loopcheck calls bounded gets no checkpoint, so no deadline can
   land in it, whatever it reads: both modes must agree on the verdict and
   on the cancellations. Today both run it to its end. *)
let t_bounded_heap_loop_both_modes () =
  let prog =
    let open Kflex_bpf in
    Asm.(
      assemble ~name:"bounded_heap_loop"
        [
          call "kflex_heap_base";
          mov Reg.R6 Reg.R0;
          movi Reg.R1 0L;
          label "loop";
          ldx Insn.U64 Reg.R2 Reg.R6 8;
          alui Insn.Add Reg.R1 1L;
          jmpi Insn.Lt Reg.R1 1_000_000L "loop";
          movi Reg.R0 7L;
          exit_;
        ])
  in
  let run mode =
    let eng = Engine.create ~mode ~deadline_ns:2e5 () in
    ignore (attach_exn ~name:"loop" ~heap_size:4096L eng prog : Engine.handle);
    let r = run_one eng (pkt ()) in
    Engine.shutdown eng;
    r
  in
  let det = run `Deterministic and thr = run `Threaded in
  Alcotest.(check int64) "same verdict" det.Engine.verdict thr.Engine.verdict;
  Alcotest.(check int) "same cancellations" det.Engine.cancelled
    thr.Engine.cancelled

(* --- hand-off: poll before parking ----------------------------------------- *)

let wait_for counter n =
  while Atomic.get counter < n do
    Domain.cpu_relax ()
  done

(* The poll window documented in engine.mli. *)
let poll_window = 0.001

(* Each request is submitted as soon as the previous one completes. The
   worker parks only after a whole window without a push, so a request
   whose [submit] returned within the window of the previous completion
   must be taken without a wake-up, on any host. One the submitter sends
   later, because a busy host descheduled it, may wake the worker. *)
let t_back_to_back () =
  let eng = Engine.create ~mode:`Threaded () in
  let _ = attach_counter eng in
  let pkts = flow_packets ~events:100 in
  let det = Engine.create () in
  let _ = attach_counter det in
  let expected = Array.map (fun p -> (Engine.run_packet det p).Engine.verdict) pkts in
  let got = Array.make 100 (-1L) and completed = Atomic.make 0 in
  let done_at = ref 0.0 and in_window = ref 0 and woken_in_window = ref 0 in
  Array.iteri
    (fun i p ->
      let prev_done = !done_at and w0 = Engine.shard_wakeups eng 0 in
      Engine.submit eng
        ~on_done:(fun r ->
          got.(i) <- r.Engine.verdict;
          done_at := Unix.gettimeofday ();
          Atomic.incr completed)
        p;
      let woke = Engine.shard_wakeups eng 0 > w0 in
      if i > 0 && Unix.gettimeofday () -. prev_done < poll_window then begin
        incr in_window;
        if woke then incr woken_in_window
      end;
      wait_for completed (i + 1))
    pkts;
  let wakeups = Engine.shard_wakeups eng 0 in
  Engine.shutdown eng;
  Alcotest.(check (array int64)) "every verdict" expected got;
  if !woken_in_window > 0 then
    Alcotest.failf
      "%d of the %d requests sent within the window woke the worker (%d \
       wake-ups in all)"
      !woken_in_window !in_window wakeups

(* After a gap longer than the poll window the worker parks, and the next
   submit wakes it exactly once. A worker descheduled for the whole gap
   may not have parked yet; the gap then doubles, up to 80 ms. *)
let t_park_after_gap () =
  let eng = Engine.create ~mode:`Threaded () in
  let _ = attach_ret eng 2 in
  let completed = Atomic.make 0 in
  let request () =
    let c0 = Atomic.get completed in
    Engine.submit eng ~on_done:(fun _ -> Atomic.incr completed) (pkt ());
    wait_for completed (c0 + 1)
  in
  let rec attempt gap =
    Unix.sleepf gap;
    let w0 = Engine.shard_wakeups eng 0 in
    request ();
    match Engine.shard_wakeups eng 0 - w0 with
    | 1 -> ()
    | 0 when gap < 0.08 -> attempt (2. *. gap)
    | d -> Alcotest.failf "a submit after a %.0f ms gap woke the worker %d times" (gap *. 1e3) d
  in
  request ();
  attempt 0.005;
  Engine.shutdown eng

(* Two submitters, two shards, gaps on both sides of the poll window:
   every request completes exactly once and in submission order per
   (submitter, shard); drain and shutdown return while the workers poll. *)
let t_handoff_stress () =
  let eng = Engine.create ~shards:2 ~mode:`Threaded () in
  let _ = attach_counter eng in
  let per = 300 in
  let completions = Array.init (2 * per) (fun _ -> Atomic.make 0) in
  let last = Array.make_matrix 2 2 (-1) (* [submitter][shard], written by the shard *)
  and reordered = Atomic.make 0 in
  let submitter who =
    Domain.spawn (fun () ->
        let rng = Random.State.make [| who |] in
        for i = 0 to per - 1 do
          Unix.sleepf [| 0.0; 0.0001; 0.0005; 0.002 |].(Random.State.int rng 4);
          let p = pkt ~src_port:(1024 + (who * 64) + (i mod 40)) () in
          let shard = Engine.shard_of eng p in
          Engine.submit eng
            ~on_done:(fun _ ->
              Atomic.incr completions.((who * per) + i);
              if last.(who).(shard) >= i then Atomic.incr reordered;
              last.(who).(shard) <- i)
            p
        done)
  in
  List.iter Domain.join [ submitter 0; submitter 1 ];
  Engine.drain eng;
  let t = Engine.totals eng in
  Engine.shutdown eng;
  Alcotest.(check (list int)) "each completed once" []
    (List.filter
       (fun i -> Atomic.get completions.(i) <> 1)
       (List.init (2 * per) Fun.id));
  Alcotest.(check int) "FIFO per (submitter, shard)" 0 (Atomic.get reordered);
  Alcotest.(check int) "all events" (2 * per) t.Engine.events;
  Alcotest.(check int) "no leaks" 0 t.Engine.leaked;
  Alcotest.(check bool) "both shards used" true
    (Engine.shard_events eng 0 > 0 && Engine.shard_events eng 1 > 0)

(* About 0.7 ms per event on a 2-vCPU host. *)
let slow_src =
  {|
fn prog(c: ctx) -> u64 {
  var i: u64 = 0;
  while (i < 20000) { i = i + 1; }
  return 2;
}
|}

(* A worker takes its whole queue as one batch. attach and detach must
   each return one event after they publish, not when the batch ends:
   the worker reports a new generation as it starts the first event
   under it. A gate holds the worker in an event of its own until the
   whole backlog is queued, so the backlog is one batch. *)
let t_quiesce_one_event () =
  let eng = Engine.create ~mode:`Threaded ~quantum:max_int () in
  let c = compile "slow" slow_src in
  ignore (attach_exn ~name:"slow" ~heap_size:4096L eng (prog_of c) : Engine.handle);
  let backlog = 300 and completed = Atomic.make 0 in
  let gate = Mutex.create () and held = Atomic.make 0 in
  Mutex.lock gate;
  Engine.submit eng
    ~on_done:(fun _ ->
      Atomic.incr held;
      Mutex.protect gate ignore)
    (pkt ());
  wait_for held 1;
  for _ = 1 to backlog do
    Engine.submit eng ~on_done:(fun _ -> Atomic.incr completed) (pkt ())
  done;
  Mutex.unlock gate;
  let h = attach_ret eng 2 in
  let at_attach = Atomic.get completed in
  Engine.detach eng h;
  let at_detach = Atomic.get completed in
  Engine.drain eng;
  Engine.shutdown eng;
  Alcotest.(check int) "backlog ran" backlog (Atomic.get completed);
  if at_attach > backlog / 2 || at_detach > backlog / 2 then
    Alcotest.failf "attach returned after %d, detach after %d of %d events"
      at_attach at_detach backlog

(* --- allocation gate ------------------------------------------------------ *)

(* The warmed mc_overload chain — spin-locked rate limiter, RCU conntrack,
   Memcached — through [Engine.run_packet]. Helpers, maps, the ledger, the
   allocator and the shard's context block allocate nothing; what remains
   per request is the [run_result] itself and its outcome list. *)
let chain_words_per_request () =
  let cfg =
    {
      Kflex_serve.Open_loop.default with
      burn = false;
      guard = true;
      guard_capacity = 1_000_000;
    }
  in
  let eng = Engine.create ~shards:1 ~seed:42L () in
  Kflex_serve.Open_loop.attach_tenants cfg eng;
  let n = 2048 in
  let pkts =
    Array.init n (fun i ->
        Kflex_apps.Memcached.op_packet
          ~op:(if i mod 8 = 0 then Kflex_apps.Memcached.Set else Kflex_apps.Memcached.Get)
          ~rank:(i * 7919 mod 1024))
  in
  let pass () = Array.iter (fun p -> ignore (Engine.run_packet eng p : Engine.run_result)) pkts in
  pass ();
  pass ();
  let w0 = Gc.minor_words () in
  pass ();
  (Gc.minor_words () -. w0) /. float_of_int n

let t_chain_allocation () =
  let w = chain_words_per_request () in
  if w > 32. then Alcotest.failf "%.1f minor words per request (gate: 32)" w

let () =
  Alcotest.run "engine"
    [
      ( "chain",
        [
          Alcotest.test_case "verdict composition" `Quick t_chain_composition;
          Alcotest.test_case "verdict tally" `Quick t_verdict_tally;
          Alcotest.test_case "chain structure" `Quick t_chain_module;
          Alcotest.test_case "lifecycle + epochs" `Quick t_lifecycle_epochs;
        ] );
      ( "cache",
        [
          Alcotest.test_case "LRU bound + eviction" `Quick t_jit_cache_lru;
          Alcotest.test_case "key covers unwind registers" `Quick
            t_jit_cache_key;
          Alcotest.test_case "collision compiles" `Quick t_jit_cache_collision;
          Alcotest.test_case "repeat attaches hit" `Quick
            t_jit_cache_repeat_attach;
          Alcotest.test_case "key covers unwind slots" `Quick t_jit_cache_slots;
          Alcotest.test_case "decoded program hits" `Quick t_jit_cache_decoded;
          Alcotest.test_case "encode round-trips instrumented programs" `Quick
            t_encode_roundtrip_instrumented;
        ] );
      ( "shards",
        [
          Alcotest.test_case "shard-count invariance" `Quick t_shard_invariance;
          Alcotest.test_case "facade equivalence" `Quick t_facade_equivalence;
          Alcotest.test_case "threaded smoke" `Quick t_threaded_smoke;
          Alcotest.test_case "chain allocation" `Quick t_chain_allocation;
          Alcotest.test_case "watchdog slot protocol" `Quick t_slot_protocol;
          Alcotest.test_case "watchdog slot stress" `Quick t_slot_stress;
          Alcotest.test_case "submit after shutdown" `Quick
            t_submit_after_shutdown;
        ] );
      ( "watchdog",
        [
          Alcotest.test_case "two engines" `Quick t_watchdog_two_engines;
          Alcotest.test_case "after a shutdown" `Quick
            t_watchdog_after_shutdown;
          Alcotest.test_case "register under live scans" `Quick
            t_watchdog_churn;
          Alcotest.test_case "burner in both modes" `Quick t_burner_both_modes;
          Alcotest.test_case "deadline is a quantum" `Quick
            t_deadline_is_quantum;
          Alcotest.test_case "bounded heap loop in both modes" `Quick
            t_bounded_heap_loop_both_modes;
        ] );
      ( "hand-off",
        [
          Alcotest.test_case "back to back" `Quick t_back_to_back;
          Alcotest.test_case "park after a gap" `Quick t_park_after_gap;
          Alcotest.test_case "two submitters" `Quick t_handoff_stress;
          Alcotest.test_case "quiesce within one event" `Quick
            t_quiesce_one_event;
        ] );
      ( "shared maps",
        [
          Alcotest.test_case "share_map fds" `Quick t_share_map_fds;
          Alcotest.test_case "threaded shared counter" `Quick
            t_shared_counter_threaded;
          Alcotest.test_case "cancel in critical section" `Quick
            t_cancel_in_critical_section;
          Alcotest.test_case "replace keeps shared maps" `Quick
            t_replace_shared_persists;
        ] );
    ]
