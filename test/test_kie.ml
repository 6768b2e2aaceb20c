(* Kie instrumentation tests: guard insertion/elision, checkpoint placement,
   jump fixups, translate-on-store, object tables, mode switches. *)
open Kflex_bpf
open Kflex_verifier
open Kflex_kie

let contracts = Contract.registry Contract.kflex_base

let analyse ?(heap_size = 65536L) items =
  let prog = Asm.assemble ~name:"t" items in
  match
    Verify.run ~mode:Verify.Kflex ~contracts ~ctx_size:64 ~heap_size prog
  with
  | Ok a -> a
  | Error e -> Alcotest.failf "verify failed: %a" Verify.pp_error e

let opts ?(pm = false) ?(xlate = false) ?(kmod = false) ?(noelide = false) () =
  {
    Instrument.performance_mode = pm;
    translate_on_store = xlate;
    kmod_baseline = kmod;
    no_elision = noelide;
  }

open Asm
open Reg

let unsafe_rw =
  (* one unguardable read and one unguardable write *)
  [
    ldx Insn.U32 R2 R1 0;
    ldx Insn.U64 R3 R2 0;
    stx Insn.U64 R2 0 R3;
    movi R0 0L;
    exit_;
  ]

let t_guard_insertion () =
  let k = Instrument.run ~options:(opts ()) (analyse unsafe_rw) in
  let r = k.Instrument.report in
  Alcotest.(check int) "formation guards" 2 r.Report.formation;
  Alcotest.(check int) "counted" 0 r.Report.counted_sites;
  let guards =
    Array.to_list (Prog.insns k.Instrument.prog)
    |> List.filter (function Insn.Guard _ -> true | _ -> false)
  in
  Alcotest.(check int) "2 guards emitted" 2 (List.length guards)

let t_perf_mode_reads_unguarded () =
  let k = Instrument.run ~options:(opts ~pm:true ()) (analyse unsafe_rw) in
  let r = k.Instrument.report in
  Alcotest.(check int) "read dropped" 1 r.Report.reads_unguarded;
  let guards =
    Array.to_list (Prog.insns k.Instrument.prog)
    |> List.filter (function Insn.Guard _ -> true | _ -> false)
    |> List.length
  in
  Alcotest.(check int) "only the write guard" 1 guards

let t_kmod_no_instrumentation () =
  let k = Instrument.run ~options:(opts ~kmod:true ()) (analyse unsafe_rw) in
  Alcotest.(check bool) "no instrumentation" false
    (Prog.is_instrumented k.Instrument.prog);
  Alcotest.(check int) "same length" (List.length unsafe_rw)
    (Prog.length k.Instrument.prog)

let t_elided_guard_not_emitted () =
  let a =
    analyse
      [ call "kflex_heap_base"; ldx Insn.U64 R0 R0 8; movi R0 0L; exit_ ]
  in
  let k = Instrument.run ~options:(opts ()) a in
  let r = k.Instrument.report in
  Alcotest.(check int) "1 site" 1 r.Report.counted_sites;
  Alcotest.(check int) "1 elided" 1 r.Report.elided;
  Alcotest.(check int) "0 emitted" 0 r.Report.emitted

let unbounded =
  [
    movi R1 1024L;
    label "loop";
    ldx Insn.U64 R1 R1 0;
    jmpi Insn.Ne R1 0L "loop";
    movi R0 0L;
    exit_;
  ]

let t_checkpoint_at_back_edge () =
  let k = Instrument.run ~options:(opts ()) (analyse unbounded) in
  Alcotest.(check int) "1 checkpoint" 1 k.Instrument.report.Report.checkpoints;
  (* the checkpoint must sit immediately before the back-edge branch *)
  let insns = Prog.insns k.Instrument.prog in
  let cp_pos = ref (-1) in
  Array.iteri
    (fun i x -> match x with Insn.Checkpoint _ -> cp_pos := i | _ -> ())
    insns;
  Alcotest.(check bool) "found" true (!cp_pos >= 0);
  (match insns.(!cp_pos + 1) with
  | Insn.Jcond (_, _, _, off) ->
      Alcotest.(check bool) "backward" true (off < 0)
  | i -> Alcotest.failf "expected back edge after checkpoint, got %a" Insn.pp i)

let t_jump_fixup_semantics () =
  (* instrumented and uninstrumented programs must compute the same result *)
  let items =
    [
      call "kflex_heap_base";
      mov R6 R0;
      sti Insn.U64 R6 64 0L;
      movi R7 0L;
      label "loop";
      ldx Insn.U64 R2 R6 64;
      alui Insn.Add R2 3L;
      stx Insn.U64 R6 64 R2;
      alui Insn.Add R7 1L;
      jmpi Insn.Lt R7 10L "loop";
      ldx Insn.U64 R0 R6 64;
      exit_;
    ]
  in
  let run options =
    let k = Instrument.run ~options (analyse items) in
    let heap = Kflex_runtime.Heap.create ~size:65536L () in
    Kflex_runtime.Heap.populate heap ~off:0L ~len:4096L;
    let ext = Kflex_runtime.Vm.create ~heap ~helpers:[] k in
    match Kflex_runtime.Vm.exec ext ~ctx:(Bytes.make 64 '\000') () with
    | Kflex_runtime.Vm.Finished v -> v
    | Kflex_runtime.Vm.Cancelled _ -> Alcotest.fail "unexpected cancellation"
  in
  Alcotest.(check int64) "kflex = 30" 30L (run (opts ()));
  Alcotest.(check int64) "kmod = 30" 30L (run (opts ~kmod:true ()));
  Alcotest.(check int64) "pm = 30" 30L (run (opts ~pm:true ()))

let t_xstore_rewrite () =
  let items =
    [
      call "kflex_heap_base";
      mov R2 R0;
      stx Insn.U64 R2 64 R0;
      movi R0 0L;
      exit_;
    ]
  in
  let k = Instrument.run ~options:(opts ~xlate:true ()) (analyse items) in
  Alcotest.(check int) "1 xlate" 1 k.Instrument.report.Report.xlate_stores;
  let has_xstore =
    Array.exists
      (function Insn.Xstore _ -> true | _ -> false)
      (Prog.insns k.Instrument.prog)
  in
  Alcotest.(check bool) "xstore present" true has_xstore;
  (* without the option the store is untouched *)
  let k2 = Instrument.run ~options:(opts ()) (analyse items) in
  Alcotest.(check int) "0 xlate" 0 k2.Instrument.report.Report.xlate_stores

let t_object_table_c2 () =
  (* a heap access while holding a lock: its C2 table names the lock *)
  let items =
    [
      call "kflex_heap_base";
      mov R6 R0;
      mov R1 R6;
      call "kflex_spin_lock";
      mov R7 R0;
      ldx Insn.U64 R2 R6 128;
      mov R1 R7;
      call "kflex_spin_unlock";
      movi R0 0L;
      exit_;
    ]
  in
  let k = Instrument.run ~options:(opts ()) (analyse items) in
  (* the table the unwinder reads when the load faults *)
  let insns = Prog.insns k.Instrument.prog in
  let loads =
    List.filter
      (fun pc -> match insns.(pc) with Insn.Ldx _ -> true | _ -> false)
      (List.init (Array.length insns) Fun.id)
  in
  match loads with
  | [ pc ] -> (
      match k.Instrument.tables.(k.Instrument.orig_of_new.(pc)) with
      | [ e ] ->
          Alcotest.(check string) "lock" "kflex_lock" e.Instrument.klass;
          Alcotest.(check string) "destructor" "kflex_spin_unlock"
            e.Instrument.destructor
      | t -> Alcotest.failf "expected 1 entry, got %d" (List.length t))
  | l -> Alcotest.failf "expected 1 heap load, got %d" (List.length l)

let t_pc_maps_consistent () =
  let k = Instrument.run ~options:(opts ()) (analyse unsafe_rw) in
  let n = Prog.length k.Instrument.prog in
  Array.iteri
    (fun orig newpc ->
      Alcotest.(check bool) "in range" true (newpc >= 0 && newpc < n);
      Alcotest.(check int) "roundtrip" orig
        k.Instrument.orig_of_new.(newpc))
    k.Instrument.pc_map

let t_spill_mitigation () =
  (* §4.3 corner case: the socket lands in r7 on one path and r8 on the
     other — no single object-table location. Raw verification rejects it;
     the spill rewrite gives it a canonical stack slot and it verifies. *)
  let items =
    [
      mov R6 R1;
      ldx Insn.U32 R2 R1 0;
      sti Insn.U64 R10 (-16) 0L;
      sti Insn.U64 R10 (-8) 0L;
      stx Insn.U64 R10 (-24) R2;
      mov R2 R10;
      alui Insn.Add R2 (-16L);
      movi R3 16L;
      movi R4 0L;
      movi R5 0L;
      mov R1 R6;
      call "bpf_sk_lookup_udp";
      jmpi Insn.Ne R0 0L "got";
      movi R0 0L;
      exit_;
      label "got";
      ldx Insn.U64 R2 R10 (-24);
      jmpi Insn.Eq R2 0L "left";
      mov R7 R0;
      movi R8 0L;
      movi R0 0L;
      ja "merge";
      label "left";
      mov R8 R0;
      movi R7 0L;
      movi R0 0L;
      label "merge";
      (* neither r7 nor r8 survives the join as the tracked copy *)
      alu Insn.Or R7 R8;
      mov R1 R7;
      call "bpf_sk_release";
      movi R0 0L;
      exit_;
    ]
  in
  let prog = Asm.assemble ~name:"conflict" items in
  (match
     Verify.run ~mode:Verify.Kflex ~contracts ~ctx_size:64 ~heap_size:65536L
       prog
   with
  | Error { Verify.kind = Verify.E_leak; msg; _ } ->
      Alcotest.(check string) "join-leak message"
        "held sock (id 11) has no common location across the paths joining \
         here — the runtime could not release it on cancellation (§4.3; the \
         loader will retry with spilled acquisitions)"
        msg
  | Error e -> Alcotest.failf "expected leak, got %a" Verify.pp_error e
  | Ok _ -> Alcotest.fail "raw program should be rejected");
  match Spill.mitigate ~contracts prog with
  | None -> Alcotest.fail "mitigation should apply"
  | Some prog' -> (
      (* The spill resolves the object-table conflict at the join: the
         resource now has a canonical stack location on every path, so the
         analysis no longer reports a leak there. (Our join-based verifier
         is stricter than the paper's path-sensitive one: the joined
         register values are still unusable downstream, so this program's
         later use of r7 remains invalid — but the cancellation table is
         whole, which is what §4.3 is about.) *)
      match
        Verify.run ~mode:Verify.Kflex ~contracts ~ctx_size:64
          ~heap_size:65536L prog'
      with
      | Ok _ -> ()
      | Error { Verify.kind = Verify.E_leak; _ } ->
          Alcotest.fail "mitigation must resolve the table conflict"
      | Error { Verify.kind = Verify.E_uninit; _ } -> ()
      | Error e -> Alcotest.failf "unexpected error: %a" Verify.pp_error e)

let t_spill_semantics_preserved () =
  (* the spill rewrite must not change program behaviour *)
  let items =
    [
      call "kflex_heap_base";
      mov R6 R0;
      mov R1 R6;
      call "kflex_spin_lock";
      mov R7 R0;
      movi R8 0L;
      label "loop";
      alui Insn.Add R8 7L;
      jmpi Insn.Lt R8 70L "loop";
      mov R1 R7;
      call "kflex_spin_unlock";
      mov R0 R8;
      exit_;
    ]
  in
  let prog = Asm.assemble ~name:"sem" items in
  let run p =
    match
      Verify.run ~mode:Verify.Kflex ~contracts ~ctx_size:64 ~heap_size:65536L p
    with
    | Error e -> Alcotest.failf "verify: %a" Verify.pp_error e
    | Ok a ->
        let k = Instrument.run a in
        let heap = Kflex_runtime.Heap.create ~size:65536L () in
        Kflex_runtime.Heap.populate heap ~off:0L ~len:4096L;
        let ext = Kflex_runtime.Vm.create ~heap ~helpers:[] k in
        (match Kflex_runtime.Vm.exec ext ~ctx:(Bytes.make 64 '\000') () with
        | Kflex_runtime.Vm.Finished v -> v
        | Kflex_runtime.Vm.Cancelled _ -> Alcotest.fail "cancelled")
  in
  let base = run prog in
  let spilled =
    match Spill.mitigate ~contracts prog with
    | Some p -> p
    | None -> Alcotest.fail "lock acquisition should trigger a spill"
  in
  Alcotest.(check int64) "same result" base (run spilled)

let t_spill_no_acquires () =
  let prog = Asm.assemble ~name:"plain" [ movi R0 0L; exit_ ] in
  Alcotest.(check bool) "nothing to do" true
    (Spill.mitigate ~contracts prog = None)

let t_no_elision_ablation () =
  let a =
    analyse
      [ call "kflex_heap_base"; ldx Insn.U64 R0 R0 8; movi R0 0L; exit_ ]
  in
  let k = Instrument.run ~options:(opts ~noelide:true ()) a in
  Alcotest.(check int) "guard emitted despite proof" 1
    k.Instrument.report.Report.emitted;
  Alcotest.(check int) "none elided" 0 k.Instrument.report.Report.elided

let t_elision_ratio () =
  Alcotest.(check (float 0.001)) "empty = 1.0" 1.0
    (Kflex_kie.Report.elision_ratio Kflex_kie.Report.zero)

let () =
  Alcotest.run "kie"
    [
      ( "instrument",
        [
          Alcotest.test_case "guard insertion" `Quick t_guard_insertion;
          Alcotest.test_case "performance mode" `Quick t_perf_mode_reads_unguarded;
          Alcotest.test_case "kmod baseline" `Quick t_kmod_no_instrumentation;
          Alcotest.test_case "elided not emitted" `Quick t_elided_guard_not_emitted;
          Alcotest.test_case "checkpoint placement" `Quick t_checkpoint_at_back_edge;
          Alcotest.test_case "jump fixup semantics" `Quick t_jump_fixup_semantics;
          Alcotest.test_case "translate-on-store" `Quick t_xstore_rewrite;
          Alcotest.test_case "C2 object table" `Quick t_object_table_c2;
          Alcotest.test_case "pc maps" `Quick t_pc_maps_consistent;
          Alcotest.test_case "elision ratio" `Quick t_elision_ratio;
          Alcotest.test_case "no-elision ablation" `Quick t_no_elision_ablation;
          Alcotest.test_case "spill mitigation (4.3)" `Quick t_spill_mitigation;
          Alcotest.test_case "spill preserves semantics" `Quick
            t_spill_semantics_preserved;
          Alcotest.test_case "spill no-op" `Quick t_spill_no_acquires;
        ] );
    ]
