(* Differential fuzzer tests: corpus replay, a fixed-seed smoke campaign,
   bit-for-bit determinism, and the shrinker. *)
open Kflex_bpf
module Gen = Kflex_fuzz.Gen
module Oracle = Kflex_fuzz.Oracle
module Shrink = Kflex_fuzz.Shrink
module Corpus = Kflex_fuzz.Corpus
module Campaign = Kflex_fuzz.Campaign
module Rng = Kflex_workload.Rng

let smoke_dir () =
  let d = Filename.concat (Filename.get_temp_dir_name ()) "kflex_fuzz_test" in
  if not (Sys.file_exists d) then Unix.mkdir d 0o755;
  d

let read_repro path =
  match Corpus.read path with
  | Ok r -> r
  | Error e -> Alcotest.failf "%a" Corpus.pp_error e

let corpus_files () =
  Sys.readdir "corpus" |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".kfxr")
  |> List.sort compare

(* Every committed reproducer — shrunk finds from past campaigns plus the
   hand-written near-miss cases — must replay without any oracle failing.
   The executor oracle checks the reference interpreter against both
   compiled forms on each, so every historical find also pins the Jit. *)
let t_corpus_replay () =
  let files = corpus_files () in
  Alcotest.(check bool)
    (Printf.sprintf "corpus is non-trivial (%d files)" (List.length files))
    true
    (List.length files >= 8);
  List.iter
    (fun f ->
      match Corpus.replay (read_repro (Filename.concat "corpus" f)) with
      | Oracle.Fail fl -> Alcotest.failf "%s: [%s] %s" f fl.Oracle.oracle fl.Oracle.detail
      | Oracle.Pass | Oracle.Rejected _ -> ())
    files

(* Malformed reproducers are errors naming the file, line and key — never
   an escaping exception, and never a heap geometry [Heap.create] would
   refuse at replay. *)
let t_corpus_malformed () =
  let valid = Filename.concat (smoke_dir ()) "valid.kfxr" in
  Corpus.write valid Oracle.default_config
    (Gen.assemble [ Asm.movi Reg.R0 0L; Asm.exit_ ]);
  let lines = In_channel.with_open_text valid In_channel.input_lines in
  let expect name ~edit ~line ~key =
    let path = Filename.concat (smoke_dir ()) (name ^ ".kfxr") in
    Out_channel.with_open_text path (fun oc ->
        List.iter (fun l -> output_string oc (edit l ^ "\n")) lines);
    match Corpus.read path with
    | Ok _ -> Alcotest.failf "%s: accepted" name
    | Error e ->
        Alcotest.(check (pair int string)) name (line, key)
          (e.Corpus.line, e.Corpus.key)
  in
  let set key v l =
    if String.starts_with ~prefix:(key ^ " ") l then key ^ " " ^ v else l
  in
  expect "heap_nan" ~edit:(set "heap_size" "zz") ~line:2 ~key:"heap_size";
  expect "heap_not_pow2" ~edit:(set "heap_size" "0x3000") ~line:2
    ~key:"heap_size";
  expect "kbase_unaligned" ~edit:(set "kbase" "0x400000001000") ~line:3
    ~key:"kbase";
  expect "pages_bad" ~edit:(set "pages" "0,x") ~line:4 ~key:"pages";
  expect "payload_odd" ~edit:(set "payload" "abc") ~line:12 ~key:"payload";
  expect "prog_garbage" ~edit:(set "prog" "00ff") ~line:13 ~key:"prog";
  expect "bad_magic" ~edit:(fun l -> if l = List.hd lines then "nope" else l)
    ~line:1 ~key:"magic";
  expect "no_prog"
    ~edit:(fun l -> if String.starts_with ~prefix:"prog " l then "" else l)
    ~line:12 ~key:"prog";
  (* below 1, a budget or cap breaks an oracle or silently switches it off *)
  expect "budget_zero" ~edit:(set "insn_budget" "0") ~line:10
    ~key:"insn_budget";
  expect "inject_negative" ~edit:(set "inject_cap" "-1") ~line:11
    ~key:"inject_cap";
  expect "inject_zero" ~edit:(set "inject_cap" "0") ~line:11 ~key:"inject_cap"

(* A small fixed-seed campaign: no oracle may fail, every program must
   assemble, and random rejects must stay a minority (the generator would
   silently lose its teeth otherwise). *)
let t_smoke_campaign () =
  let s = Campaign.run ~out_dir:(smoke_dir ()) ~seed:42L ~count:200 () in
  Alcotest.(check int) "no failures" 0 s.Campaign.failures;
  Alcotest.(check int) "all assemble" 0 s.Campaign.invalid;
  Alcotest.(check bool)
    (Printf.sprintf "mostly accepted (%d/200)" s.Campaign.accepted)
    true (s.Campaign.accepted > 100)

let t_campaign_deterministic () =
  let run () = Campaign.run ~out_dir:(smoke_dir ()) ~seed:7L ~count:60 () in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical summaries" true (a = b)

let t_gen_deterministic () =
  let gen () =
    let rng = Rng.create ~seed:99L in
    Gen.generate ~rng ~heap_size:65536L ~port:53 ()
  in
  let a = gen () and b = gen () in
  Alcotest.(check bool) "identical items" true (a = b);
  Alcotest.(check string) "identical encoding"
    (Encode.encode (Gen.assemble a))
    (Encode.encode (Gen.assemble b))

(* The oracles on known-good input: a tiny hand-written program passes
   every per-program oracle. *)
let t_oracle_pass () =
  let prog =
    Gen.assemble
      [
        Asm.mov Reg.R6 Reg.R1;
        Asm.call "kflex_heap_base";
        Asm.mov Reg.R7 Reg.R0;
        Asm.sti Insn.U64 Reg.R7 256 42L;
        Asm.ldx Insn.U64 Reg.R3 Reg.R7 256;
        Asm.mov Reg.R0 Reg.R3;
        Asm.alui Insn.And Reg.R0 3L;
        Asm.exit_;
      ]
  in
  match Oracle.run_case Oracle.default_config prog with
  | Oracle.Pass -> ()
  | v -> Alcotest.failf "expected pass: %a" Oracle.pp_verdict v

(* A harness exception — here a heap geometry [Heap.create] refuses — is a
   [Fail] of the ["harness"] oracle, never an escaping exception. *)
let t_oracle_harness_catch () =
  (* a config the heap rejects: kbase not size-aligned *)
  let cfg = { Oracle.default_config with Oracle.kbase = 0x4000_0000_1000L } in
  let prog = Gen.assemble [ Asm.movi Reg.R0 0L; Asm.exit_ ] in
  match Oracle.run_case cfg prog with
  | Oracle.Fail f -> Alcotest.(check string) "harness" "harness" f.Oracle.oracle
  | v -> Alcotest.failf "expected harness failure: %a" Oracle.pp_verdict v

(* Shrinking against a synthetic predicate: anything containing the marker
   instruction "fails", so the minimum is exactly one item. *)
let t_shrink_minimises () =
  let marker = Asm.I (Insn.Neg Reg.R3) in
  let junk =
    List.concat_map
      (fun i ->
        [
          Asm.movi Reg.R1 (Int64.of_int i);
          Asm.alui Insn.Add Reg.R1 1L;
          Asm.movi Reg.R2 77L;
        ])
      (List.init 10 Fun.id)
  in
  let items = junk @ [ marker ] @ junk in
  let check cand = List.mem marker cand in
  let small = Shrink.shrink ~check items in
  Alcotest.(check int) "one item left" 1 (List.length small);
  Alcotest.(check bool) "the marker" true (List.mem marker small)

(* Operand simplification: immediates shrink toward zero while the
   predicate (an in-bounds store exists) keeps holding. *)
let t_shrink_simplifies () =
  let items = [ Asm.I (Insn.St (Insn.U64, Reg.R7, 96, 1234L)) ] in
  let check = function
    | [ Asm.I (Insn.St (Insn.U64, Reg.R7, _, _)) ] -> true
    | _ -> false
  in
  match Shrink.shrink ~check items with
  | [ Asm.I (Insn.St (Insn.U64, Reg.R7, off, v)) ] ->
      Alcotest.(check int) "offset zeroed" 0 off;
      Alcotest.(check int64) "imm zeroed" 0L v
  | _ -> Alcotest.fail "unexpected shrink result"

(* Includes the empty page list and empty payload a campaign layout can
   produce: [write] leaves those keys with no value. *)
let t_corpus_roundtrip () =
  let prog = Gen.assemble [ Asm.movi Reg.R0 7L; Asm.exit_ ] in
  let cfg =
    {
      Oracle.default_config with
      Oracle.heap_size = 4096L;
      Oracle.kbase = 0x4567_0000_0000L;
      Oracle.pages = [ 0 ];
      Oracle.prandom = 0xdeadbeefL;
      Oracle.payload = "\x00\xff\x7f ok";
    }
  in
  List.iter
    (fun (name, cfg) ->
      let path = Filename.concat (smoke_dir ()) (name ^ ".kfxr") in
      Corpus.write path ~oracle:"elision" cfg prog;
      let r = read_repro path in
      Alcotest.(check (option string)) "oracle" (Some "elision") r.Corpus.oracle;
      Alcotest.(check bool) (name ^ " config") true (r.Corpus.config = cfg);
      Alcotest.(check string) "prog" (Encode.encode prog)
        (Encode.encode r.Corpus.prog))
    [
      ("roundtrip", cfg);
      ("roundtrip_empty", { cfg with Oracle.pages = []; Oracle.payload = "" });
    ]

(* The chain oracle on known-good input: a hand-written pass-through pair
   run as a 2-program chain through the single-shard engine must be
   observationally identical to the same chain run directly. *)
let t_chain_oracle_pass () =
  let p1 =
    Gen.assemble
      [
        Asm.mov Reg.R6 Reg.R1;
        Asm.call "kflex_heap_base";
        Asm.sti Insn.U64 Reg.R0 256 41L;
        Asm.movi Reg.R0 2L;
        (* XDP_PASS: the chain falls through *)
        Asm.exit_;
      ]
  in
  let p2 =
    Gen.assemble
      [
        Asm.call "kflex_heap_base";
        Asm.ldx Insn.U64 Reg.R3 Reg.R0 256;
        Asm.mov Reg.R0 Reg.R3;
        Asm.exit_;
      ]
  in
  match Oracle.chain_equiv Oracle.default_config p1 p2 with
  | Oracle.Pass -> ()
  | v -> Alcotest.failf "expected chain pass: %a" Oracle.pp_verdict v

(* Every committed reproducer also replays as a self-pair chain: the
   single-shard engine must agree with direct runs on the very inputs that
   once broke an oracle — this is the deterministic-mode bit-identity claim
   on the reproducer corpus. *)
let t_corpus_chain_identity () =
  corpus_files ()
  |> List.iter (fun f ->
         let r = read_repro (Filename.concat "corpus" f) in
         match Oracle.chain_equiv r.Corpus.config r.Corpus.prog r.Corpus.prog with
         | Oracle.Fail fl ->
             Alcotest.failf "%s: [%s] %s" f fl.Oracle.oracle fl.Oracle.detail
         | Oracle.Pass | Oracle.Rejected _ -> ())

let t_chain_equiv_deterministic () =
  let rng = Rng.create ~seed:21L in
  let p1 = Gen.assemble (Gen.generate ~rng ~heap_size:65536L ~port:53 ()) in
  let p2 = Gen.assemble (Gen.generate ~rng ~heap_size:65536L ~port:53 ()) in
  let a = Oracle.chain_equiv Oracle.default_config p1 p2 in
  let b = Oracle.chain_equiv Oracle.default_config p1 p2 in
  Alcotest.(check bool) "same verdict" true (a = b)

(* A chain-pair reproducer file round-trips including its second program. *)
let t_corpus_pair_roundtrip () =
  let p1 = Gen.assemble [ Asm.movi Reg.R0 2L; Asm.exit_ ] in
  let p2 = Gen.assemble [ Asm.movi Reg.R0 1L; Asm.exit_ ] in
  let path = Filename.concat (smoke_dir ()) "pair.kfxr" in
  Corpus.write path ~oracle:"chain" ~prog2:p2 Oracle.default_config p1;
  let r = read_repro path in
  Alcotest.(check (option string)) "oracle" (Some "chain") r.Corpus.oracle;
  (match r.Corpus.prog2 with
  | Some q -> Alcotest.(check string) "prog2" (Encode.encode p2) (Encode.encode q)
  | None -> Alcotest.fail "prog2 lost");
  Alcotest.(check string) "prog" (Encode.encode p1) (Encode.encode r.Corpus.prog)

(* Regression: the campaign must flag a genuinely unsound runtime. We
   simulate one by replaying a wild-store program against a config whose
   quantum is so small the A/B runs still agree — i.e. the case passes —
   then making sure verdicts are stable across two replays (determinism of
   run_case itself). *)
let t_run_case_deterministic () =
  let rng = Rng.create ~seed:5L in
  let items = Gen.generate ~rng ~heap_size:65536L ~port:53 () in
  let prog = Gen.assemble items in
  let a = Oracle.run_case Oracle.default_config prog in
  let b = Oracle.run_case Oracle.default_config prog in
  Alcotest.(check bool) "same verdict" true (a = b)

(* --- the shared-map linearizability oracle ------------------------------ *)

(* A hand-written shared-dialect program: take the spin lock on fd 3,
   update the locked value, release, then write and sum through the RCU
   map on fd 4. Sharded-vs-reference must agree on everything. *)
let shared_prog () =
  Gen.assemble
    [
      Asm.mov Reg.R6 Reg.R1;
      (* spin-locked section on fd 3, key 1 *)
      Asm.sti Insn.U64 Reg.fp (-8) 1L;
      Asm.movi Reg.R1 3L;
      Asm.mov Reg.R2 Reg.fp;
      Asm.alui Insn.Add Reg.R2 (-8L);
      Asm.call "bpf_map_lock";
      Asm.jmpi Insn.Eq Reg.R0 0L "miss";
      Asm.stx Insn.U64 Reg.fp (-40) Reg.R0;
      Asm.sti Insn.U64 Reg.fp (-16) 7L;
      Asm.movi Reg.R1 3L;
      Asm.mov Reg.R2 Reg.fp;
      Asm.alui Insn.Add Reg.R2 (-8L);
      Asm.mov Reg.R3 Reg.fp;
      Asm.alui Insn.Add Reg.R3 (-16L);
      Asm.call "bpf_map_update";
      Asm.ldx Insn.U64 Reg.R1 Reg.fp (-40);
      Asm.call "bpf_map_unlock";
      Asm.label "miss";
      (* rcu map on fd 4: publish key 2 -> 9, then read it back *)
      Asm.sti Insn.U64 Reg.fp (-24) 2L;
      Asm.sti Insn.U64 Reg.fp (-32) 9L;
      Asm.movi Reg.R1 4L;
      Asm.mov Reg.R2 Reg.fp;
      Asm.alui Insn.Add Reg.R2 (-24L);
      Asm.mov Reg.R3 Reg.fp;
      Asm.alui Insn.Add Reg.R3 (-32L);
      Asm.call "bpf_map_update";
      Asm.movi Reg.R1 4L;
      Asm.mov Reg.R2 Reg.fp;
      Asm.alui Insn.Add Reg.R2 (-24L);
      Asm.mov Reg.R3 Reg.fp;
      Asm.alui Insn.Add Reg.R3 (-32L);
      Asm.call "bpf_map_sum";
      Asm.movi Reg.R0 2L;
      Asm.exit_;
    ]

let t_shared_oracle_pass () =
  match Oracle.shared_equiv Oracle.default_config (shared_prog ()) with
  | Oracle.Pass -> ()
  | v -> Alcotest.failf "expected shared pass: %a" Oracle.pp_verdict v

let t_shared_safety_pass () =
  match Oracle.shared_safety Oracle.default_config (shared_prog ()) with
  | Oracle.Pass -> ()
  | v -> Alcotest.failf "expected shared safety pass: %a" Oracle.pp_verdict v

(* The shared dialect must be shard-independent by construction: no heap
   base, no sockets, no processor id, no per-CPU map fds. *)
let t_shared_gen_dialect () =
  let forbidden =
    [
      "kflex_heap_base"; "kflex_malloc"; "kflex_free"; "bpf_sk_lookup_udp";
      "bpf_sk_lookup_tcp"; "bpf_sk_release"; "bpf_get_smp_processor_id";
    ]
  in
  for seed = 1 to 50 do
    let rng = Rng.create ~seed:(Int64.of_int seed) in
    let items =
      Gen.generate ~shared:true ~rng ~heap_size:65536L ~port:53 ()
    in
    List.iter
      (function
        | Asm.I (Insn.Call name) when List.mem name forbidden ->
            Alcotest.failf "seed %d: shared program calls %s" seed name
        | _ -> ())
      items
  done

let t_shared_equiv_deterministic () =
  let rng = Rng.create ~seed:31L in
  let items = Gen.generate ~shared:true ~rng ~heap_size:65536L ~port:53 () in
  let prog = Gen.assemble items in
  let a = Oracle.shared_equiv Oracle.default_config prog in
  let b = Oracle.shared_equiv Oracle.default_config prog in
  Alcotest.(check bool) "same verdict" true (a = b);
  match a with
  | Oracle.Fail f -> Alcotest.failf "[%s] %s" f.Oracle.oracle f.Oracle.detail
  | _ -> ()

(* The acceptance gate: a 1000-case campaign with every shared-oracle pass
   escalated to a 4-shard threaded safety run must come back clean. *)
let t_shared_campaign_threaded () =
  let s =
    Campaign.run ~out_dir:(smoke_dir ()) ~threaded_shared:true ~seed:1024L
      ~count:1000 ()
  in
  Alcotest.(check int) "no failures" 0 s.Campaign.failures;
  Alcotest.(check bool)
    (Printf.sprintf "shared oracle exercised (%d/1000)" s.Campaign.shared)
    true
    (s.Campaign.shared > 400)

(* A shared reproducer file replays through the shared oracle. *)
let t_corpus_shared_replay () =
  let path = Filename.concat (smoke_dir ()) "shared.kfxr" in
  Corpus.write path ~oracle:"shared" Oracle.default_config (shared_prog ());
  let r = read_repro path in
  Alcotest.(check (option string)) "oracle" (Some "shared") r.Corpus.oracle;
  match Corpus.replay r with
  | Oracle.Fail fl -> Alcotest.failf "[%s] %s" fl.Oracle.oracle fl.Oracle.detail
  | Oracle.Pass | Oracle.Rejected _ -> ()

(* --- the comparator ------------------------------------------------------ *)

let observe_direct exec items =
  let cfg = Oracle.default_config in
  match
    Kflex_verifier.Verify.run ~mode:Kflex_verifier.Verify.Kflex
      ~contracts:Kflex.contracts ~ctx_size:Kflex_kernel.Hook.ctx_size
      ~heap_size:cfg.Oracle.heap_size ~sleepable:false (Gen.assemble items)
  with
  | Error e -> Alcotest.failf "rejected: %a" Kflex_verifier.Verify.pp_error e
  | Ok analysis -> Oracle.run cfg exec [ Kflex_kie.Instrument.run analysis ]

(* The comparator can fail: two observations of real runs that differ in
   exactly one field must be told apart, by that field's name, and two runs
   of the same input must not. The two programs differ in everything a run
   observes — a heap store and its site against a packet write and an RCU
   map update — and each case keeps one observation and takes a single
   field from the other. *)
let t_comparator () =
  let quiet =
    Oracle.Reference
      { Oracle.budget = max_int; on_insn = (fun _ _ _ -> ()); on_site = ignore }
  in
  let heap_store =
    [
      Asm.call "kflex_heap_base";
      Asm.sti Insn.U64 Reg.R0 256 42L;
      Asm.movi Reg.R0 1L;
      Asm.exit_;
    ]
  and pkt_and_map =
    [
      Asm.movi Reg.R2 0L;
      Asm.movi Reg.R3 0xffL;
      Asm.call "pkt_write_u8";
      (* fd 6: the rcu_shared map *)
      Asm.sti Insn.U64 Reg.fp (-8) 1L;
      Asm.sti Insn.U64 Reg.fp (-16) 9L;
      Asm.movi Reg.R1 6L;
      Asm.mov Reg.R2 Reg.fp;
      Asm.alui Insn.Add Reg.R2 (-8L);
      Asm.mov Reg.R3 Reg.fp;
      Asm.alui Insn.Add Reg.R3 (-16L);
      Asm.call "bpf_map_update";
      Asm.movi Reg.R0 2L;
      Asm.exit_;
    ]
  in
  let a = observe_direct quiet heap_store
  and c = observe_direct quiet pkt_and_map in
  let same what x y =
    match Oracle.diff x y with
    | None -> ()
    | Some d -> Alcotest.failf "%s: identical runs differ: %s" what d
  in
  same "heap store" a (observe_direct quiet heap_store);
  same "packet and map" c (observe_direct quiet pkt_and_map);
  let names field x y =
    List.iter
      (fun (x, y) ->
        match Oracle.diff x y with
        | Some d when String.starts_with ~prefix:(field ^ ":") d -> ()
        | Some d -> Alcotest.failf "%s: reported as %s" field d
        | None -> Alcotest.failf "%s: no difference found" field)
      [ (x, y); (y, x) ]
  in
  names "outcomes" a { a with Oracle.outcomes = c.Oracle.outcomes };
  names "events" a { a with Oracle.events = c.Oracle.events };
  names "stats" a { a with Oracle.stats = c.Oracle.stats };
  names "payloads" a { a with Oracle.payloads = c.Oracle.payloads };
  names "heaps" a { a with Oracle.heaps = c.Oracle.heaps };
  names "sites" a { a with Oracle.sites = c.Oracle.sites };
  names "maps" a { a with Oracle.maps = c.Oracle.maps };
  names "rcu_version" a { a with Oracle.rcu_version = c.Oracle.rcu_version };
  (* the invariants name what they find the same way *)
  let broken field o =
    match Oracle.invariants o with
    | Some d when String.starts_with ~prefix:(field ^ ":") d -> ()
    | Some d -> Alcotest.failf "%s: reported as %s" field d
    | None -> Alcotest.failf "%s: invariants hold" field
  in
  Alcotest.(check (option string)) "invariants hold" None
    (Oracle.invariants a);
  broken "leaked" { a with Oracle.leaked = 1 };
  broken "sock_refs" { a with Oracle.sock_refs = 1 };
  broken "locks" { a with Oracle.locks = 1 };
  match observe_direct (Oracle.Inject 0) heap_store with
  | { Oracle.outcomes = [ Kflex_runtime.Vm.Cancelled c ]; _ } as o ->
      Alcotest.(check (option string)) "injection unwinds" None
        (Oracle.invariants o);
      broken "outcomes"
        { o with Oracle.outcomes = [ Kflex_runtime.Vm.Cancelled { c with ret = 7L } ] }
  | _ -> Alcotest.fail "injection at the heap store did not cancel"

(* --- the lifecycle no-false-positive contract --------------------------- *)

module Lifecycle = Kflex_verifier.Lifecycle

(* A finding is a false positive only when concrete execution follows its
   full pc witness and contradicts the claim — [Oracle.Refuted]. Anything
   merely unexercised is fine (one run explores one path); anything
   confirmed is the pass working as designed. *)
let lifecycle_no_refutation name cfg prog =
  match Oracle.lifecycle_report cfg prog with
  | Error _ -> ()
  | Ok statuses ->
      List.iter
        (fun ((f : Lifecycle.finding), st) ->
          if st = Oracle.Refuted then
            Alcotest.failf "%s: refuted %s at pc %d (site %d): %s" name
              (Lifecycle.kind_name f.Lifecycle.kind)
              f.Lifecycle.pc f.Lifecycle.site f.Lifecycle.msg)
        statuses

(* Every committed reproducer, under its own config: no lifecycle finding on
   either program of a pair may be refuted by concrete execution. *)
let t_corpus_lifecycle_gate () =
  corpus_files ()
  |> List.iter (fun f ->
         let r = read_repro (Filename.concat "corpus" f) in
         lifecycle_no_refutation f r.Corpus.config r.Corpus.prog;
         Option.iter
           (lifecycle_no_refutation (f ^ "#2") r.Corpus.config)
           r.Corpus.prog2)

(* The concrete side of the oracle must be able to say [Confirmed], not just
   [Unexercised] — otherwise the no-refutation property would be vacuous.
   Two straight-line programs whose findings any run exercises: *)
let t_lifecycle_confirms () =
  let status name prog kind =
    match Oracle.lifecycle_report Oracle.default_config prog with
    | Error e -> Alcotest.failf "%s: rejected: %s" name e
    | Ok statuses -> (
        match
          List.find_opt
            (fun ((f : Lifecycle.finding), _) -> f.Lifecycle.kind = kind)
            statuses
        with
        | Some (_, st) -> Oracle.lifecycle_status_name st
        | None ->
            Alcotest.failf "%s: no %s finding" name (Lifecycle.kind_name kind))
  in
  let leak =
    Gen.assemble
      [
        Asm.movi Reg.R1 64L;
        Asm.call "kflex_malloc";
        Asm.movi Reg.R0 0L;
        Asm.exit_;
      ]
  in
  Alcotest.(check string) "leak confirmed" "confirmed"
    (status "leak" leak Lifecycle.Leak);
  let nullderef =
    Gen.assemble
      [
        Asm.movi Reg.R1 64L;
        Asm.call "kflex_malloc";
        Asm.ldx Insn.U64 Reg.R3 Reg.R0 0;
        Asm.movi Reg.R0 0L;
        Asm.exit_;
      ]
  in
  Alcotest.(check string) "null-deref confirmed" "confirmed"
    (status "nullderef" nullderef Lifecycle.Null_deref)

(* 1000 fuzz-generated programs (the generator deliberately emits unchecked
   malloc derefs about half the time, so lifecycle findings are common):
   every finding on every verifier-accepted program must be confirmed or
   unexercised, never refuted. *)
let prop_lifecycle_no_false_positive =
  QCheck.Test.make ~count:1000 ~name:"lifecycle findings are never refuted"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create ~seed:(Int64.of_int seed) in
      let cfg = Oracle.default_config in
      let items =
        Gen.generate ~rng ~heap_size:cfg.Oracle.heap_size ~port:cfg.Oracle.port ()
      in
      match Gen.assemble items with
      | exception _ -> true
      | prog -> (
          match Oracle.lifecycle_report cfg prog with
          | Error _ -> true
          | Ok statuses ->
              List.for_all (fun (_, st) -> st <> Oracle.Refuted) statuses))

let () =
  Alcotest.run "fuzz"
    [
      ( "fuzz",
        [
          Alcotest.test_case "corpus replay" `Quick t_corpus_replay;
          Alcotest.test_case "corpus malformed" `Quick t_corpus_malformed;
          Alcotest.test_case "smoke campaign" `Slow t_smoke_campaign;
          Alcotest.test_case "campaign deterministic" `Quick
            t_campaign_deterministic;
          Alcotest.test_case "generator deterministic" `Quick
            t_gen_deterministic;
          Alcotest.test_case "oracle pass" `Quick t_oracle_pass;
          Alcotest.test_case "harness catch" `Quick t_oracle_harness_catch;
          Alcotest.test_case "shrink minimises" `Quick t_shrink_minimises;
          Alcotest.test_case "shrink simplifies" `Quick t_shrink_simplifies;
          Alcotest.test_case "corpus roundtrip" `Quick t_corpus_roundtrip;
          Alcotest.test_case "run_case deterministic" `Quick
            t_run_case_deterministic;
          Alcotest.test_case "chain oracle pass" `Quick t_chain_oracle_pass;
          Alcotest.test_case "corpus chain identity" `Quick
            t_corpus_chain_identity;
          Alcotest.test_case "chain_equiv deterministic" `Quick
            t_chain_equiv_deterministic;
          Alcotest.test_case "corpus pair roundtrip" `Quick
            t_corpus_pair_roundtrip;
          Alcotest.test_case "shared oracle pass" `Quick t_shared_oracle_pass;
          Alcotest.test_case "shared safety pass" `Quick t_shared_safety_pass;
          Alcotest.test_case "shared generator dialect" `Quick
            t_shared_gen_dialect;
          Alcotest.test_case "shared_equiv deterministic" `Quick
            t_shared_equiv_deterministic;
          Alcotest.test_case "shared campaign threaded" `Slow
            t_shared_campaign_threaded;
          Alcotest.test_case "corpus shared replay" `Quick
            t_corpus_shared_replay;
          Alcotest.test_case "comparator names each field" `Quick
            t_comparator;
          Alcotest.test_case "corpus lifecycle gate" `Quick
            t_corpus_lifecycle_gate;
          Alcotest.test_case "lifecycle oracle confirms" `Quick
            t_lifecycle_confirms;
          QCheck_alcotest.to_alcotest prop_lifecycle_no_false_positive;
        ] );
    ]
