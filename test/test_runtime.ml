(* Runtime tests: heap (demand paging, guard zones, SFI arithmetic),
   allocator, ledger, time slices, user mapping, and the VM (ALU semantics,
   cancellation variants, object-table unwinding). *)
open Kflex_runtime
open Kflex_bpf

(* --- heap ---------------------------------------------------------------- *)

let t_heap_create_validation () =
  List.iter
    (fun size ->
      match Heap.create ~size () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "size %Ld should be rejected" size)
    [ 0L; 100L; 4095L; 6000L; Int64.shift_left 1L 41 ]

let t_heap_sanitize () =
  let h = Heap.create ~size:65536L () in
  let kbase = Heap.kbase h in
  (* in-heap addresses are fixed points *)
  Alcotest.(check int64) "fixpoint" (Int64.add kbase 100L)
    (Heap.sanitize h (Int64.add kbase 100L));
  (* wild addresses land in the heap *)
  Alcotest.(check int64) "wild" (Int64.add kbase 0xbeefL)
    (Heap.sanitize h 0xdead_beefL);
  (* user-view addresses map to the same offset in kernel view *)
  let hs = Heap.create ~shared:true ~size:65536L () in
  let u = Heap.translate_user hs (Int64.add (Heap.kbase hs) 4242L) in
  Alcotest.(check int64) "translate+sanitize" (Int64.add (Heap.kbase hs) 4242L)
    (Heap.sanitize hs u)

let t_heap_not_shared () =
  let h = Heap.create ~size:4096L () in
  Alcotest.(check bool) "no ubase" true (Heap.ubase h = None);
  match Heap.translate_user h 0L with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "translate_user should fail"

let t_heap_demand_paging () =
  let h = Heap.create ~size:65536L () in
  Alcotest.(check int64) "empty" 0L (Heap.populated_bytes h);
  (match Heap.read h ~width:8 (Heap.kbase h) with
  | exception Heap.Fault { reason; _ } ->
      Alcotest.(check string) "unpopulated" "unpopulated heap page" reason
  | _ -> Alcotest.fail "expected fault");
  Heap.populate h ~off:0L ~len:1L;
  Alcotest.(check int64) "one page" 4096L (Heap.populated_bytes h);
  Alcotest.(check int64) "read zero" 0L (Heap.read h ~width:8 (Heap.kbase h))

let t_heap_guard_zone () =
  let h = Heap.create ~size:4096L () in
  Heap.populate h ~off:0L ~len:4096L;
  (* just past the heap end but within the guard zone: Fault, not escape *)
  (match Heap.read h ~width:8 (Int64.add (Heap.kbase h) 4096L) with
  | exception Heap.Fault { reason; _ } ->
      Alcotest.(check string) "guard" "guard zone access" reason
  | _ -> Alcotest.fail "expected guard-zone fault");
  (match Heap.read h ~width:8 (Int64.sub (Heap.kbase h) 8L) with
  | exception Heap.Fault _ -> ()
  | _ -> Alcotest.fail "expected fault below heap");
  (* a straddling access at the boundary *)
  match Heap.read h ~width:8 (Int64.add (Heap.kbase h) 4092L) with
  | exception Heap.Fault _ -> ()
  | _ -> Alcotest.fail "expected fault on straddle"

let t_heap_wild () =
  let h = Heap.create ~size:4096L () in
  match Heap.write h ~width:8 0x1234L 1L with
  | exception Heap.Fault { reason; _ } ->
      Alcotest.(check string) "wild" "access outside any heap mapping" reason
  | _ -> Alcotest.fail "expected wild fault"

let prop_heap_rw_roundtrip =
  QCheck.Test.make ~count:300 ~name:"heap read/write roundtrip"
    QCheck.(pair (int_bound 65000) (pair (int_bound 3) (map Int64.of_int int)))
    (fun (off, (wsel, v)) ->
      let h = Heap.create ~size:65536L () in
      let width = [| 1; 2; 4; 8 |].(wsel) in
      let off = Int64.of_int (min off (65536 - width)) in
      Heap.write_off h ~width off v;
      let mask =
        if width = 8 then -1L
        else Int64.sub (Int64.shift_left 1L (8 * width)) 1L
      in
      Heap.read_off h ~width off = Int64.logand v mask)

let t_heap_straddle_pages () =
  let h = Heap.create ~size:65536L () in
  (* write across the page 0 / page 1 boundary *)
  Heap.write_off h ~width:8 4092L 0x1122334455667788L;
  Alcotest.(check int64) "straddle" 0x1122334455667788L
    (Heap.read_off h ~width:8 4092L)

(* --- allocator -------------------------------------------------------------- *)

let t_alloc_basic () =
  let h = Heap.create ~size:65536L () in
  let a = Alloc.create ~ncpu:2 h in
  let b1 = Option.get (Alloc.alloc a ~cpu:0 64L) in
  let b2 = Option.get (Alloc.alloc a ~cpu:0 64L) in
  Alcotest.(check bool) "distinct" true (b1 <> b2);
  Alcotest.(check int) "live" 2 (Alloc.live_blocks a);
  Alcotest.(check bool) "free" true (Alloc.free a ~cpu:0 b1);
  Alcotest.(check bool) "double free" false (Alloc.free a ~cpu:0 b1);
  Alcotest.(check int) "live" 1 (Alloc.live_blocks a)

let t_alloc_zeroed () =
  let h = Heap.create ~size:65536L () in
  let a = Alloc.create h in
  let b = Option.get (Alloc.alloc a ~cpu:0 64L) in
  Heap.write_off h ~width:8 b 0xffffL;
  Alcotest.(check bool) "freed" true (Alloc.free a ~cpu:0 b);
  let b2 = Option.get (Alloc.alloc a ~cpu:0 64L) in
  (* reuse of the same class must come back zeroed *)
  Alcotest.(check int64) "zeroed" 0L (Heap.read_off h ~width:8 b2)

let t_alloc_too_big () =
  let h = Heap.create ~size:65536L () in
  let a = Alloc.create h in
  Alcotest.(check bool) "huge" true (Alloc.alloc a ~cpu:0 1_000_000L = None)

let t_alloc_exhaustion () =
  let h = Heap.create ~size:4096L () in
  let a = Alloc.create h in
  let count = ref 0 in
  (try
     while !count < 10_000 do
       match Alloc.alloc a ~cpu:0 512L with
       | Some _ -> incr count
       | None -> raise Exit
     done
   with Exit -> ());
  Alcotest.(check bool) "exhausted eventually" true (!count > 0 && !count < 10);
  Alcotest.(check bool) "stays exhausted" true (Alloc.alloc a ~cpu:0 512L = None)

let prop_alloc_no_overlap =
  QCheck.Test.make ~count:50 ~name:"live allocations never overlap"
    QCheck.(list_of_size (QCheck.Gen.int_range 1 80) (int_bound 500))
    (fun sizes ->
      let h = Heap.create ~size:(Int64.shift_left 1L 20) () in
      let a = Alloc.create h in
      let live = ref [] in
      List.iter
        (fun sz ->
          match Alloc.alloc a ~cpu:0 (Int64.of_int (max 1 sz)) with
          | Some off -> live := (off, max 1 sz) :: !live
          | None -> ())
        sizes;
      let rec no_overlap = function
        | [] -> true
        | (o1, s1) :: rest ->
            List.for_all
              (fun (o2, s2) ->
                Int64.add o1 (Int64.of_int s1) <= o2
                || Int64.add o2 (Int64.of_int s2) <= o1)
              rest
            && no_overlap rest
      in
      no_overlap !live)

let t_alloc_populates_pages () =
  (* §4.1: physical pages appear as the allocator hands memory out, and are
     accounted (the cgroup analogue) *)
  let h = Heap.create ~size:(Int64.shift_left 1L 20) () in
  let a = Alloc.create h in
  let before = Heap.populated_bytes h in
  ignore (Option.get (Alloc.alloc a ~cpu:0 4096L));
  Alcotest.(check bool) "pages appeared" true (Heap.populated_bytes h > before)

let t_alloc_class_reuse () =
  (* freeing a big block and allocating a small one must not alias *)
  let h = Heap.create ~size:(Int64.shift_left 1L 20) () in
  let a = Alloc.create h in
  let big = Option.get (Alloc.alloc a ~cpu:0 1024L) in
  ignore (Alloc.free a ~cpu:0 big);
  let small1 = Option.get (Alloc.alloc a ~cpu:0 16L) in
  let small2 = Option.get (Alloc.alloc a ~cpu:0 16L) in
  Alcotest.(check bool) "distinct small blocks" true (small1 <> small2)

let t_alloc_per_cpu_cache () =
  let h = Heap.create ~size:(Int64.shift_left 1L 20) () in
  let a = Alloc.create ~ncpu:4 h in
  let b = Option.get (Alloc.alloc a ~cpu:1 64L) in
  Alcotest.(check bool) "cpu1 cache warmed" true (Alloc.cache_occupancy a ~cpu:1 > 0);
  Alcotest.(check int) "cpu2 cold" 0 (Alloc.cache_occupancy a ~cpu:2);
  ignore (Alloc.free a ~cpu:2 b);
  Alcotest.(check bool) "freed into cpu2" true (Alloc.cache_occupancy a ~cpu:2 > 0)

(* --- ledger / timeslice / usermap -------------------------------------------- *)

let t_ledger () =
  let l = Ledger.create () in
  Ledger.acquire l ~handle:42L ~destructor:"d";
  Alcotest.(check int) "one" 1 (Ledger.count l);
  Alcotest.(check bool) "release" true (Ledger.release l ~handle:42L);
  Alcotest.(check bool) "again" false (Ledger.release l ~handle:42L);
  Alcotest.(check int) "empty" 0 (Ledger.count l)

let t_timeslice () =
  let ts = Timeslice.create () in
  Alcotest.(check bool) "fresh" false (Timeslice.should_preempt ts ~now:0.0);
  Timeslice.lock_acquired ts ~now:0.0;
  Alcotest.(check bool) "within slice" false
    (Timeslice.should_preempt ts ~now:(Timeslice.slice_ns /. 2.));
  Alcotest.(check bool) "expired" true
    (Timeslice.should_preempt ts ~now:(Timeslice.slice_ns *. 2.));
  (* nesting: inner lock does not extend the slice *)
  Timeslice.lock_acquired ts ~now:(Timeslice.slice_ns *. 2.);
  Alcotest.(check int) "nested" 2 (Timeslice.nesting ts);
  Timeslice.lock_released ts;
  Timeslice.lock_released ts;
  Alcotest.(check bool) "disarmed" false
    (Timeslice.should_preempt ts ~now:(Timeslice.slice_ns *. 10.))

let t_usermap () =
  let h = Heap.create ~shared:true ~size:65536L () in
  Heap.populate h ~off:0L ~len:4096L;
  let u = Usermap.attach h in
  let addr = Usermap.addr_of_off u 128L in
  Usermap.write u ~width:8 addr 7L;
  Alcotest.(check int64) "user write visible at kernel offset" 7L
    (Heap.read_off h ~width:8 128L);
  Alcotest.(check bool) "heap addr" true (Usermap.is_heap_addr u addr);
  Alcotest.(check bool) "wild addr" false (Usermap.is_heap_addr u 0x1234L);
  let ts = Timeslice.create () in
  Alcotest.(check bool) "lock" true (Usermap.try_lock u ~off:8L ~slice:ts ~now:0.0);
  Alcotest.(check bool) "contended" false
    (Usermap.try_lock u ~off:8L ~slice:ts ~now:0.0);
  Usermap.unlock u ~off:8L ~slice:ts;
  Alcotest.(check int) "nesting back to 0" 0 (Timeslice.nesting ts)

(* --- VM ------------------------------------------------------------------------ *)

let contracts = Kflex_verifier.Contract.registry Kflex_verifier.Contract.kflex_base

let load ?heap ?alloc ?quantum ?options items =
  let prog = Asm.assemble ~name:"t" items in
  let analysis =
    match
      Kflex_verifier.Verify.run ~mode:Kflex_verifier.Verify.Kflex ~contracts
        ~ctx_size:64
        ?heap_size:(Option.map Heap.size heap)
        prog
    with
    | Ok a -> a
    | Error e -> Alcotest.failf "verify: %a" Kflex_verifier.Verify.pp_error e
  in
  let kie = Kflex_kie.Instrument.run ?options analysis in
  Vm.create ?heap ?alloc ?quantum ~helpers:[] kie

let run ?(ctx = Bytes.make 64 '\000') ext =
  Vm.exec ext ~ctx ()

let expect_ret items expected =
  match run (load items) with
  | Vm.Finished v -> Alcotest.(check int64) "ret" expected v
  | Vm.Cancelled _ -> Alcotest.fail "unexpected cancellation"

open Asm
open Reg

let t_alu_semantics () =
  expect_ret [ movi R0 6L; alui Insn.Mul R0 7L; exit_ ] 42L;
  expect_ret [ movi R0 7L; alui Insn.Div R0 0L; exit_ ] 0L (* div-by-0 = 0 *);
  expect_ret [ movi R0 7L; alui Insn.Mod R0 0L; exit_ ] 7L;
  expect_ret [ movi R0 (-1L); alui Insn.Rsh R0 32L; exit_ ] 0xffff_ffffL;
  expect_ret [ movi R0 (-8L); alui Insn.Arsh R0 2L; exit_ ] (-2L);
  expect_ret [ movi R0 1L; alui Insn.Lsh R0 63L; exit_ ] Int64.min_int;
  expect_ret [ movi R0 5L; I (Insn.Neg R0); exit_ ] (-5L)

let t_unsigned_compare () =
  (* -1 is the largest unsigned value *)
  expect_ret
    [
      movi R1 (-1L);
      movi R0 0L;
      jmpi Insn.Gt R1 5L "big";
      exit_;
      label "big";
      movi R0 1L;
      exit_;
    ]
    1L;
  expect_ret
    [
      movi R1 (-1L);
      movi R0 0L;
      jmpi Insn.Sgt R1 5L "big";
      exit_;
      label "big";
      movi R0 1L;
      exit_;
    ]
    0L

let t_ctx_read () =
  let ctx = Bytes.make 64 '\000' in
  Bytes.set_int32_le ctx 8 77l;
  match run ~ctx (load [ ldx Insn.U32 R0 R1 8; exit_ ]) with
  | Vm.Finished v -> Alcotest.(check int64) "ctx" 77L v
  | Vm.Cancelled _ -> Alcotest.fail "cancelled"

let with_heap ?quantum items =
  let heap = Heap.create ~size:65536L () in
  Heap.populate heap ~off:0L ~len:4096L;
  let alloc = Alloc.create ~data_start:256L heap in
  (heap, load ~heap ~alloc ?quantum items)

let t_atomics () =
  let heap, ext =
    with_heap
      [
        call "kflex_heap_base";
        mov R6 R0;
        sti Insn.U64 R6 64 10L;
        movi R2 5L;
        I (Insn.Atomic (Insn.Fetch_add, Insn.U64, R6, 64, R2));
        (* r2 = old (10), heap[64] = 15 *)
        movi R3 100L;
        I (Insn.Atomic (Insn.Xchg, Insn.U64, R6, 64, R3));
        (* r3 = 15, heap[64] = 100 *)
        movi R0 100L;
        movi R4 222L;
        I (Insn.Atomic (Insn.Cmpxchg, Insn.U64, R6, 64, R4));
        (* success: heap[64] = 222, r0 = 100 *)
        alu Insn.Add R0 R2;
        alu Insn.Add R0 R3;
        exit_;
      ]
  in
  (match run ext with
  | Vm.Finished v -> Alcotest.(check int64) "fetch results" 125L v
  | Vm.Cancelled _ -> Alcotest.fail "cancelled");
  Alcotest.(check int64) "cmpxchg stored" 222L (Heap.read_off heap ~width:8 64L)

let t_malloc_free_via_vm () =
  let _, ext =
    with_heap
      [
        movi R1 48L;
        call "kflex_malloc";
        jmpi Insn.Ne R0 0L "ok";
        movi R0 0L;
        exit_;
        label "ok";
        mov R6 R0;
        sti Insn.U64 R6 0 1234L;
        ldx Insn.U64 R7 R6 0;
        mov R1 R6;
        call "kflex_free";
        mov R0 R7;
        exit_;
      ]
  in
  match run ext with
  | Vm.Finished v -> Alcotest.(check int64) "roundtrip" 1234L v
  | Vm.Cancelled _ -> Alcotest.fail "cancelled"

let t_quantum_cancellation () =
  let heap, ext =
    with_heap ~quantum:5_000
      [
        call "kflex_heap_base";
        mov R1 R0;
        alui Insn.Add R1 64L;
        stx Insn.U64 R1 0 R1;
        label "loop";
        ldx Insn.U64 R1 R1 0;
        jmpi Insn.Ne R1 0L "loop";
        movi R0 0L;
        exit_;
      ]
  in
  ignore heap;
  match run ext with
  | Vm.Cancelled { reason = Vm.Quantum_expired; _ } ->
      Alcotest.(check bool) "ext-wide cancel flag" true (Vm.cancelled ext)
  | Vm.Cancelled { reason; _ } ->
      Alcotest.failf "wrong reason %s"
        (match reason with Vm.Page_fault -> "page" | _ -> "other")
  | Vm.Finished _ -> Alcotest.fail "should have been cancelled"

(* §4.4 through the engine's central reaper: a user-space thread holds a
   lock past its extended time slice while an extension spins waiting for
   it. The reaper must (a) forcibly preempt the holder once the slice
   expires ([should_preempt]/[force_preempt]) and (b) inject cancellation
   into the spinning extension at its deadline — kernel forward progress
   beats waiting out a faulty application. Only a threaded engine's
   watchdog scans the reaper, so the test runs one, on the wall clock. *)
let t_engine_reaper_contention () =
  let module Engine = Kflex_engine.Engine in
  let module Reaper = Kflex_engine.Reaper in
  let src = {|
global lock: u64;

fn prog(c: ctx) -> u64 {
  var spins: u64 = 0;
  while (lock != 0) {
    spins = spins + 1;
  }
  return 2;
}
|}
  in
  let compiled = Kflex_eclang.Compile.compile_string ~name:"spinner" src in
  let lock_off = Kflex_eclang.Compile.global_offset compiled "lock" in
  (* deadline chosen past the 50 us slice: the holder is preempted first,
     the spinner is reaped after *)
  let eng =
    Engine.create ~shards:1 ~mode:`Threaded ~deadline_ns:150_000.0 ()
  in
  let ts = Timeslice.create () in
  Timeslice.lock_acquired ts ~now:0.0;
  Reaper.watch (Engine.reaper eng) ts;
  let configure ~shard:_ _kernel heap =
    match heap with
    | Some h -> Heap.write h ~width:8 (Int64.add (Heap.kbase h) lock_off) 1L
    | None -> Alcotest.fail "spinner has no heap"
  in
  (match
     Engine.attach eng ~name:"spinner"
       ~globals_size:
         compiled.Kflex_eclang.Compile.layout.Kflex_eclang.Compile.globals_size
       ~heap_size:(Int64.shift_left 1L 16)
       ~configure ~hook:Kflex_kernel.Hook.Xdp
       compiled.Kflex_eclang.Compile.prog
   with
  | Ok _ -> ()
  | Error e ->
      Alcotest.failf "spinner rejected: %a" Kflex_verifier.Verify.pp_error e);
  let pkt =
    Kflex_kernel.Packet.make ~proto:Kflex_kernel.Packet.Udp ~src_port:1
      ~dst_port:2 (Bytes.make 16 '\000')
  in
  let run () =
    let r = ref None in
    Engine.submit eng ~on_done:(fun res -> r := Some res) pkt;
    Engine.drain eng;
    match !r with Some r -> r | None -> Alcotest.fail "event never completed"
  in
  let r = run () in
  (match r.Engine.outcomes with
  | [ Vm.Cancelled { reason = Vm.Ext_cancelled; _ } ] -> ()
  | [ Vm.Cancelled { reason = _; _ } ] ->
      Alcotest.fail "cancelled, but not by the reaper's injection"
  | _ -> Alcotest.fail "spinning extension was not cancelled");
  Alcotest.(check int) "event counted cancelled" 1 r.Engine.cancelled;
  Alcotest.(check int) "holder force-preempted once" 1
    (Reaper.preemptions (Engine.reaper eng));
  Alcotest.(check bool) "reaper injected the cancel" true
    (Reaper.cancellations (Engine.reaper eng) >= 1);
  let t = Engine.totals eng in
  Alcotest.(check int) "no leaked resources" 0 t.Engine.leaked;
  (* a second event on the same (still-contended) chain is reaped again:
     the cancel flag was rearmed, not left sticky *)
  let r2 = run () in
  Alcotest.(check int) "second event reaped too" 1 r2.Engine.cancelled;
  Reaper.unwatch (Engine.reaper eng) ts;
  Engine.shutdown eng

let t_cancel_cross_cpu () =
  let _, ext = with_heap [ movi R0 7L; exit_ ] in
  Vm.cancel ext;
  (* no checkpoints in this program: it still finishes *)
  (match run ext with
  | Vm.Finished v -> Alcotest.(check int64) "ret" 7L v
  | Vm.Cancelled _ -> Alcotest.fail "no cp to cancel at");
  Vm.reset_cancel ext;
  Alcotest.(check bool) "reset" false (Vm.cancelled ext)

let t_on_cancel_callback () =
  let heap = Heap.create ~size:65536L () in
  let prog =
    Asm.assemble ~name:"t" [ movi R1 8192L; ldx Insn.U64 R0 R1 0; exit_ ]
  in
  let analysis =
    match
      Kflex_verifier.Verify.run ~mode:Kflex_verifier.Verify.Kflex ~contracts
        ~ctx_size:64 ~heap_size:65536L prog
    with
    | Ok a -> a
    | Error e -> Alcotest.failf "verify: %a" Kflex_verifier.Verify.pp_error e
  in
  let kie = Kflex_kie.Instrument.run analysis in
  let ext =
    Vm.create ~heap ~default_ret:2L ~on_cancel:(fun d -> Int64.add d 40L)
      ~helpers:[] kie
  in
  match Vm.exec ext ~ctx:(Bytes.make 64 '\000') () with
  | Vm.Cancelled { ret; reason = Vm.Page_fault; _ } ->
      Alcotest.(check int64) "callback adjusted" 42L ret
  | _ -> Alcotest.fail "expected page-fault cancellation"

let t_stats_accounting () =
  let stats = Vm.fresh_stats () in
  let _, ext = with_heap [ movi R1 2048L; ldx Insn.U64 R0 R1 0; exit_ ] in
  (match Vm.exec ext ~ctx:(Bytes.make 64 '\000') ~stats () with
  | Vm.Finished _ -> ()
  | Vm.Cancelled _ -> Alcotest.fail "page 0 is populated");
  Alcotest.(check bool) "insns counted" true (stats.Vm.insns >= 3);
  Alcotest.(check int) "one guard" 1 stats.Vm.guards

(* --- the Jit against the reference interpreter -------------------------- *)

let stats_tuple (s : Vm.stats) =
  (s.Vm.insns, s.Vm.guards, s.Vm.checkpoints, s.Vm.helper_calls,
   s.Vm.helper_cost)

(* The boxed reference interpreter and the Jit as interchangeable runs. *)
let ref_exec ext ~ctx ~stats = Vm.Ref_interp.exec ext ~ctx ~stats ()
let jit_exec ext ~ctx ~stats = Vm.exec ext ~ctx ~stats ()

(* Run the same program under both executors, each in a fresh environment,
   and return outcome plus the full cost-accounting tuple. *)
let both_backends ?quantum items =
  let go exec =
    let _, ext = with_heap ?quantum items in
    let stats = Vm.fresh_stats () in
    let o = exec ext ~ctx:(Bytes.make 64 '\000') ~stats in
    (o, stats_tuple stats)
  in
  (go ref_exec, go jit_exec)

let check_stats (a, b, c, d, e) (a', b', c', d', e') =
  Alcotest.(check int) "insns" a a';
  Alcotest.(check int) "guards" b b';
  Alcotest.(check int) "checkpoints" c c';
  Alcotest.(check int) "helper calls" d d';
  Alcotest.(check int) "helper cost" e e'

(* A program mixing frame slots, guarded heap traffic, ALU chains and a
   branch — the constructs the compiler specializes and fuses — must produce
   the identical outcome and identical stats on both executors. *)
let t_jit_parity () =
  let items =
    [
      call "kflex_heap_base";
      mov R6 R0;
      movi R1 0x1234_5678_9abc_def0L;
      stx Insn.U64 R10 (-8) R1;
      ldx Insn.U32 R2 R10 (-8);
      stx Insn.U64 R6 128 R2;
      ldx Insn.U64 R3 R6 128;
      alui Insn.Mul R3 3L;
      jmpi Insn.Gt R3 0L "big";
      movi R3 7L;
      label "big";
      mov R0 R3;
      exit_;
    ]
  in
  let (oi, si), (oc, sc) = both_backends items in
  (match (oi, oc) with
  | Vm.Finished a, Vm.Finished b ->
      Alcotest.(check int64) "ret" a b;
      Alcotest.(check int64) "value" (Int64.mul 0x9abc_def0L 3L) b
  | _ -> Alcotest.fail "expected Finished on both executors");
  check_stats si sc

(* Quantum expiry fires at a checkpoint; the Jit must cancel with the same
   reason after exactly the same number of instructions. *)
(* The packet builtins compile natively in the fused form (no helper-table
   slot) and must agree with the reference interpreter's helper-table call
   at every edge of the payload: before it, at its start, flush with its
   end, one byte past it, at [Int64.max_int] (where [off + width] wraps),
   and with no packet installed at all. *)
let t_jit_packet_builtins () =
  let len = 16 in
  let payload () = Bytes.init len (fun i -> Char.chr (0xa0 + i)) in
  let le p off w =
    let v = ref 0L in
    for i = w - 1 downto 0 do
      v := Int64.logor (Int64.shift_left !v 8)
          (Int64.of_int (Char.code (Bytes.get p (off + i))))
    done;
    !v
  in
  let ctx = Bytes.make 64 '\000' in
  (* [exec] with the payload [p] installed, or with none *)
  let fused ext ~pkt ~stats =
    match pkt with
    | Some pkt -> Vm.exec ext ~ctx ~pkt ~stats ()
    | None -> Vm.exec ext ~ctx ~stats ()
  in
  let reference ext ~pkt ~stats =
    match pkt with
    | Some pkt -> Vm.Ref_interp.exec ext ~ctx ~pkt ~stats ()
    | None -> Vm.Ref_interp.exec ext ~ctx ~stats ()
  in
  let check name items expect_ret expect_payload =
    List.iter
      (fun installed ->
        let name = if installed then name else name ^ ", no packet" in
        let go exec =
          let ext = load items and p = payload () and stats = Vm.fresh_stats () in
          let o = exec ext ~pkt:(if installed then Some p else None) ~stats in
          (o, stats_tuple stats, Bytes.to_string p, ext)
        in
        let o, st, pl, ext = go fused in
        let o', st', pl', _ = go reference in
        Alcotest.(check int) (name ^ ": no helper-table slot") 0
          (Array.length (Jit.helper_names (Vm.precompile ext)));
        Alcotest.(check bool) (name ^ ": outcome = reference") true (o = o');
        check_stats st st';
        Alcotest.(check string) (name ^ ": payload = reference") pl' pl;
        Alcotest.(check bool) (name ^ ": result") true
          (o = Vm.Finished (if installed then expect_ret else 0L));
        Alcotest.(check string) (name ^ ": payload")
          (if installed then expect_payload else Bytes.to_string (payload ()))
          pl)
      [ true; false ]
  in
  let offsets w = [ -1L; 0L; Int64.of_int (len - w); Int64.of_int (len - w + 1); Int64.max_int ] in
  let inside off w = off >= 0L && off <= Int64.of_int (len - w) in
  check "pkt_len" [ call "pkt_len"; exit_ ] (Int64.of_int len)
    (Bytes.to_string (payload ()));
  List.iter
    (fun w ->
      List.iter
        (fun off ->
          let name = Printf.sprintf "pkt_read_u%d at %Ld" (8 * w) off in
          let expect =
            if inside off w then le (payload ()) (Int64.to_int off) w else 0L
          in
          check name
            [ movi R2 off; call (Printf.sprintf "pkt_read_u%d" (8 * w)); exit_ ]
            expect
            (Bytes.to_string (payload ()));
          let name = Printf.sprintf "pkt_write_u%d at %Ld" (8 * w) off in
          let v = 0x1122334455667788L in
          let expect = payload () in
          if inside off w then
            for i = 0 to w - 1 do
              Bytes.set expect
                (Int64.to_int off + i)
                (Char.chr
                   (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xffL)))
            done;
          check name
            [
              movi R2 off;
              movi R3 v;
              movi R0 7L;
              call (Printf.sprintf "pkt_write_u%d" (8 * w));
              exit_;
            ]
            0L (Bytes.to_string expect))
        (offsets w))
    [ 1; 2; 4; 8 ]

(* The fused form never consults the helper table for a native builtin,
   so an override would silently split the executors: refused. *)
let t_native_override_refused () =
  let kie =
    Kflex_kie.Instrument.run
      (match
         Kflex_verifier.Verify.run ~mode:Kflex_verifier.Verify.Kflex ~contracts
           ~ctx_size:64
           (Asm.assemble ~name:"t" [ call "pkt_len"; exit_ ])
       with
      | Ok a -> a
      | Error e -> Alcotest.failf "verify: %a" Kflex_verifier.Verify.pp_error e)
  in
  List.iter
    (fun n ->
      match Vm.create ~helpers:[ (n, fun _ -> ()) ] kie with
      | _ -> Alcotest.failf "override of %s accepted" n
      | exception Invalid_argument _ -> ())
    Vm.native_builtins;
  (* other builtins may still be shadowed (the engine's per-shard PRNG) *)
  ignore (Vm.create ~helpers:[ ("bpf_get_prandom_u32", fun _ -> ()) ] kie : Vm.ext)

let t_jit_quantum_parity () =
  let items =
    [
      call "kflex_heap_base";
      mov R1 R0;
      alui Insn.Add R1 64L;
      stx Insn.U64 R1 0 R1;
      label "loop";
      ldx Insn.U64 R1 R1 0;
      jmpi Insn.Ne R1 0L "loop";
      movi R0 0L;
      exit_;
    ]
  in
  let (oi, si), (oc, sc) = both_backends ~quantum:5_000 items in
  (match (oi, oc) with
  | ( Vm.Cancelled { reason = Vm.Quantum_expired; _ },
      Vm.Cancelled { reason = Vm.Quantum_expired; _ } ) ->
      ()
  | _ -> Alcotest.fail "expected quantum cancellation on both executors");
  check_stats si sc

(* A wild pointer is sanitized by the fused Guard+Ldx superinstruction into
   the heap window; here it lands on an unpopulated page, so both executors
   must page-fault with identical accounting. *)
let t_jit_fused_fault_parity () =
  let items = [ movi R1 0xdead_beefL; ldx Insn.U64 R0 R1 0; exit_ ] in
  let (oi, si), (oc, sc) = both_backends items in
  (match (oi, oc) with
  | ( Vm.Cancelled { reason = Vm.Page_fault; _ },
      Vm.Cancelled { reason = Vm.Page_fault; _ } ) ->
      ()
  | _ -> Alcotest.fail "expected page fault on both executors");
  check_stats si sc

(* Repeated runs reuse the pooled execution state; the persistent heap must
   accumulate identically under either executor. *)
let t_jit_state_reuse () =
  let items =
    [
      call "kflex_heap_base";
      mov R6 R0;
      ldx Insn.U64 R1 R6 200;
      mov R0 R1;
      alui Insn.Add R1 1L;
      stx Insn.U64 R6 200 R1;
      exit_;
    ]
  in
  let go ext exec =
    match exec ext ~ctx:(Bytes.make 64 '\000') ~stats:(Vm.fresh_stats ()) with
    | Vm.Finished v -> v
    | Vm.Cancelled _ -> Alcotest.fail "unexpected cancellation"
  in
  let _, er = with_heap items in
  let _, ej = with_heap items in
  List.iter
    (fun expect ->
      Alcotest.(check int64) "reference counter" expect (go er ref_exec);
      Alcotest.(check int64) "compiled counter" expect (go ej jit_exec))
    [ 0L; 1L; 2L ]

(* Random verifier-accepted programs: the reference interpreter and both
   compiled forms must agree on outcome, stats, heap pages and packet bytes
   — the executor oracle applied as a qcheck property. *)
module Oracle = Kflex_fuzz.Oracle

(* Verify and instrument under a fuzz config; [None] when rejected
   (rejection is not an executor question). *)
let admit_for (cfg : Oracle.config) prog =
  match
    Kflex_verifier.Verify.run ~mode:Kflex_verifier.Verify.Kflex ~contracts
      ~ctx_size:Kflex_kernel.Hook.ctx_size ~heap_size:cfg.Oracle.heap_size
      ~sleepable:false prog
  with
  | Error _ -> None
  | Ok analysis -> Some (Kflex_kie.Instrument.run analysis)

let generated seed =
  let cfg = Oracle.default_config in
  Kflex_fuzz.Gen.assemble
    (Kflex_fuzz.Gen.generate ~rng:(Kflex_workload.Rng.create ~seed)
       ~heap_size:cfg.Oracle.heap_size ~port:cfg.Oracle.port ())

let prop_jit_differential =
  QCheck.Test.make ~name:"interp/compiled differential (random programs)"
    ~count:60
    QCheck.(map Int64.of_int small_int)
    (fun seed ->
      let cfg = Oracle.default_config in
      match Option.map (Oracle.repr_equiv cfg) (admit_for cfg (generated seed)) with
      | None | Some None -> true
      | Some (Some f) ->
          QCheck.Test.fail_reportf "[%s] %s" f.Oracle.oracle f.Oracle.detail)

(* --- cancellation sites on the reference interpreter ---------------------- *)

(* One observed run through the oracles' direct runner: (pc, cost so far,
   registers) at each [on_insn] and (pc, cost so far) at each [on_site],
   for the first [trace_cap] instructions, and the outcomes — none unless
   the run ended within them. *)
let trace_cap = 10_000

let observe cfg kie =
  let steps = ref [] and sites = ref [] and pc_now = ref 0 in
  let probe =
    {
      Oracle.budget = trace_cap + 1;
      on_insn =
        (fun pc cost regs ->
          pc_now := pc;
          steps := (pc, cost, Array.copy regs) :: !steps);
      on_site = (fun cost -> sites := (!pc_now, cost) :: !sites);
    }
  in
  let o = Oracle.run cfg (Oracle.Reference probe) [ kie ] in
  (List.rev !steps, List.rev !sites, o.Oracle.outcomes)

(* The sites a trace implies, derived from its own registers rather than
   from the interpreter's site test: every Checkpoint, and every access
   whose address leaves the stack and ctx windows, each seen with its own
   instruction charged. A checkpoint whose watchdog fires never reaches its
   site. *)
let expected_sites kie steps outcome =
  let insns = Prog.insns kie.Kflex_kie.Instrument.prog in
  let inside base size addr w =
    let off = Int64.sub addr base in
    off >= 0L && off <= Int64.of_int (size - w)
  in
  let leaves regs b off sz =
    let addr = Int64.add regs.(Reg.to_int b) (Int64.of_int off)
    and w = Insn.size_bytes sz in
    not
      (inside Vm.stack_base Prog.stack_size addr w
      || inside Vm.ctx_base Kflex_kernel.Hook.ctx_size addr w)
  in
  let site (pc, cost, regs) =
    match insns.(pc) with
    | Insn.Checkpoint _ -> Some (pc, cost + 1)
    | Insn.Ldx (sz, _, b, off)
    | Insn.Stx (sz, b, off, _)
    | Insn.St (sz, b, off, _)
    | Insn.Xstore (sz, b, off, _)
    | Insn.Atomic (_, sz, b, off, _) ->
        if leaves regs b off sz then Some (pc, cost + 1) else None
    | _ -> None
  in
  let sites = List.filter_map site steps in
  match outcome with
  | [ Vm.Cancelled { reason = Vm.Quantum_expired; _ } ] ->
      List.rev (List.tl (List.rev sites))
  | _ -> sites

(* The reference interpreter consults [on_site] exactly at the sites its
   trace implies, and a cancellation injected at any of them unwinds there:
   [inject k] runs the program cancelled at the k-th site and returns its
   outcome when the run kept its invariants. *)
let check_sites name kie (steps, sites, outcome) ~inject =
  if sites <> expected_sites kie steps outcome then
    Alcotest.failf "%s: on_site calls diverge from the trace" name;
  let nsites = List.length sites in
  let ks =
    if nsites <= 64 then List.init nsites Fun.id
    else List.init 64 (fun i -> i * nsites / 64)
  in
  List.iter
    (fun k ->
      let site_pc = fst (List.nth sites k) in
      match inject k with
      | Some (Vm.Cancelled c)
        when c.reason = Vm.Ext_cancelled
             && c.orig_pc = kie.Kflex_kie.Instrument.orig_of_new.(site_pc) ->
          ()
      | _ -> Alcotest.failf "%s: injection at site %d/%d" name k nsites)
    ks

let check_oracle_sites name cfg kie =
  check_sites name kie (observe cfg kie) ~inject:(fun k ->
      match Oracle.run cfg (Oracle.Inject k) [ kie ] with
      | { Oracle.outcomes = [ o ]; _ } as obs when Oracle.invariants obs = None
        ->
          Some o
      | _ -> None)

(* The corpus programs, plus a runaway loop whose watchdog fires at a
   checkpoint inside the traced prefix (that checkpoint has no site). *)
let t_sites_corpus () =
  let runaway =
    [
      call "kflex_heap_base";
      alui Insn.Add R0 64L;
      stx Insn.U64 R0 0 R0;
      label "loop";
      ldx Insn.U64 R0 R0 0;
      jmpi Insn.Ne R0 0L "loop";
      exit_;
    ]
  in
  let cfg = { Oracle.default_config with Oracle.quantum = 5_000 } in
  Option.iter (check_oracle_sites "runaway" cfg)
    (admit_for cfg (Kflex_fuzz.Gen.assemble runaway));
  Sys.readdir "corpus" |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".kfxr")
  |> List.iter (fun f ->
         match Kflex_fuzz.Corpus.read (Filename.concat "corpus" f) with
         | Error e -> Alcotest.failf "%a" Kflex_fuzz.Corpus.pp_error e
         | Ok r ->
             let cfg = r.Kflex_fuzz.Corpus.config in
             List.iter
               (fun p ->
                 Option.iter (check_oracle_sites f cfg) (admit_for cfg p))
               (r.Kflex_fuzz.Corpus.prog :: Option.to_list r.Kflex_fuzz.Corpus.prog2))

(* A small quantum makes runaway loops expire inside the traced prefix, so
   the watchdog-before-site order is exercised too. *)
let prop_sites_differential =
  QCheck.Test.make ~name:"reference sites (random programs)" ~count:40
    QCheck.(map Int64.of_int small_int)
    (fun seed ->
      let cfg = { Oracle.default_config with Oracle.quantum = 5_000 } in
      Option.iter
        (check_oracle_sites (Printf.sprintf "seed %Ld" seed) cfg)
        (admit_for cfg (generated seed));
      true)

(* A translate-on-store program over a shared heap: the oracle world's
   heaps are private, so no fuzz case or corpus file reaches an [Xstore].
   The pointer store happens under a spin lock, which an injection at
   either heap access must release. *)
let t_sites_xstore () =
  let items =
    [
      call "kflex_heap_base";
      mov R6 R0;
      mov R1 R6;
      alui Insn.Add R1 128L;
      call "kflex_spin_lock";
      mov R7 R0;
      mov R2 R6;
      alui Insn.Add R2 256L;
      stx Insn.U64 R6 64 R2;
      ldx Insn.U64 R8 R6 64;
      mov R1 R7;
      call "kflex_spin_unlock";
      mov R0 R8;
      exit_;
    ]
  in
  let options =
    { Kflex_kie.Instrument.default_options with translate_on_store = true }
  in
  (* one run in a fresh instance: its program, outcome and lock word *)
  let run ?on_insn ~on_site stats =
    let heap = Heap.create ~shared:true ~size:65536L () in
    Heap.populate heap ~off:0L ~len:4096L;
    let ext = load ~heap ~options items in
    let ctx = Bytes.make Kflex_kernel.Hook.ctx_size '\000' in
    let o = Vm.Ref_interp.exec ext ~ctx ~stats ?on_insn ~on_site () in
    (Vm.kie ext, o, Heap.read_off heap ~width:8 128L)
  in
  let stats = Vm.fresh_stats () in
  let steps = ref [] and sites = ref [] and pc_now = ref 0 in
  let kie, o, _ =
    run stats
      ~on_insn:(fun pc regs ->
        pc_now := pc;
        steps := (pc, Vm.total_cost stats, Array.copy regs) :: !steps)
      ~on_site:(fun () ->
        sites := (!pc_now, Vm.total_cost stats) :: !sites;
        false)
  in
  let insns = Prog.insns kie.Kflex_kie.Instrument.prog in
  if
    not
      (List.exists
         (fun (pc, _) ->
           match insns.(pc) with Insn.Xstore _ -> true | _ -> false)
         !sites)
  then Alcotest.fail "no Xstore site";
  check_sites "translate-on-store" kie
    (List.rev !steps, List.rev !sites, [ o ])
    ~inject:(fun k ->
      let n = ref 0 in
      let site () =
        incr n;
        !n - 1 = k
      in
      match run (Vm.fresh_stats ()) ~on_site:site with
      | _, (Vm.Cancelled { ledger_leaked = 0; _ } as o), 0L -> Some o
      | _ -> None)

(* --- net-effect regions --------------------------------------------------- *)

(* The fused form drops register writes no later instruction reads, except
   where a fault point downstream hands them to the unwinder. Here the
   acquired lock sits only in r6, which no instruction after its copy
   reads: the object tables alone keep the copy alive. It is cancelled by
   the quantum at a loop checkpoint, and separately by a contended
   [kflex_spin_lock] (a helper stall); each run must release the lock
   exactly as the reference interpreter does. *)
let lock_in_unread_register ~stall =
  [
    call "kflex_heap_base";
    mov R7 R0;
    mov R1 R7;
    alui Insn.Add R1 128L;
    call "kflex_spin_lock";
    mov R6 R0;
    movi R0 0L;
    movi R8 0L;
    label "loop";
  ]
  @ (if stall then
       [
         mov R1 R7;
         alui Insn.Add R1 128L;
         call "kflex_spin_lock";
         mov R1 R0;
         call "kflex_spin_unlock";
       ]
     else [ alui Insn.Add R8 1L ])
  @ [ ja "loop" ]

(* Outcome, stats and the lock word after one run on each executor. *)
let both_runs ?quantum items ~word =
  let go exec =
    let heap, ext = with_heap ?quantum items in
    let stats = Vm.fresh_stats () in
    let o = exec ext ~ctx:(Bytes.make 64 '\000') ~stats in
    (o, stats_tuple stats, Heap.read_off heap ~width:8 word)
  in
  (go ref_exec, go jit_exec)

let t_unwind_liveness () =
  List.iter
    (fun (stall, reason) ->
      let ((o, _, w) as r), f =
        both_runs ~quantum:5_000 (lock_in_unread_register ~stall) ~word:128L
      in
      (match o with
      | Vm.Cancelled c when c.reason = reason ->
          Alcotest.(check (list (pair string string)))
            "lock released" [ ("kflex_lock", "kflex_spin_unlock") ] c.released;
          Alcotest.(check int) "nothing leaked" 0 c.ledger_leaked
      | _ -> Alcotest.fail "reference run was not cancelled as expected");
      Alcotest.(check int64) "lock word cleared" 0L w;
      if f <> r then Alcotest.fail "fused form diverges from the reference")
    [ (false, Vm.Quantum_expired); (true, Vm.Lock_stall) ]

(* Hand-built regions through the executor oracle: the reference
   interpreter and the fused form must agree on outcome, stats, payload
   and heap. Each program starts from runtime values the analysis cannot
   fold: r6 the heap base, r7 and r9 from the PRNG. *)
let check_prog name items =
  let cfg = Oracle.default_config in
  match admit_for cfg (Kflex_fuzz.Gen.assemble items) with
  | None -> Alcotest.failf "%s: rejected by the verifier" name
  | Some kie -> (
      match Oracle.repr_equiv cfg kie with
      | None -> ()
      | Some f ->
          Alcotest.failf "%s: [%s] %s" name f.Oracle.oracle f.Oracle.detail)

let check_region name items =
  let prelude =
    [
      call "kflex_heap_base";
      mov R6 R0;
      call "bpf_get_prandom_u32";
      mov R7 R0;
      alui Insn.Lsh R7 29L;
      call "bpf_get_prandom_u32";
      alu Insn.Xor R7 R0;
      call "bpf_get_prandom_u32";
      mov R9 R0;
    ]
  in
  check_prog name (prelude @ items)

(* store r3, r4 and r5 to the heap and return their xor *)
let sink =
  [
    stx Insn.U64 R6 0 R3;
    stx Insn.U64 R6 8 R4;
    stx Insn.U64 R6 16 R5;
    mov R0 R3;
    alu Insn.Xor R0 R4;
    alu Insn.Xor R0 R5;
    exit_;
  ]

let all_alu =
  Insn.[ Add; Sub; Mul; Div; Mod; And; Or; Xor; Lsh; Rsh; Arsh ]

let all_cond = Insn.[ Eq; Ne; Lt; Le; Gt; Ge; Slt; Sle; Sgt; Sge; Set ]

(* Narrow frame stores inside forwarded 64-bit slots, an unaligned 64-bit
   store across two slots, and narrow loads of forwarded slots: a load
   after any of them must see the bytes, not the forwarded value. *)
let t_region_narrow_overlap () =
  check_region "narrow store over a slot"
    ([
       stx Insn.U64 R10 (-16) R7;
       mov R2 R9;
       stx Insn.U8 R10 (-13) R2;
       ldx Insn.U64 R3 R10 (-16);
       sti Insn.U16 R10 (-10) 0xbeefL;
       ldx Insn.U64 R4 R10 (-16);
       stx Insn.U64 R10 (-24) R9;
       stx Insn.U32 R10 (-20) R7;
       ldx Insn.U64 R5 R10 (-24);
       alu Insn.Add R3 R5;
       stx Insn.U64 R10 (-40) R9;
       stx Insn.U64 R10 (-32) R9;
       stx Insn.U64 R10 (-36) R7;
       ldx Insn.U64 R1 R10 (-40);
       ldx Insn.U64 R2 R10 (-32);
       alu Insn.Xor R4 R1;
       alu Insn.Sub R4 R2;
       stx Insn.U64 R10 (-48) R7;
       ldx Insn.U8 R1 R10 (-48);
       ldx Insn.U16 R2 R10 (-47);
       ldx Insn.U32 R8 R10 (-46);
       mov R5 R1;
       alu Insn.Add R5 R2;
       alu Insn.Add R5 R8;
       stx Insn.U16 R10 (-48) R5;
       ldx Insn.U64 R1 R10 (-48);
       alu Insn.Add R5 R1;
     ]
    @ sink)

(* [r op= r] reads the old value twice: from a reloaded slot (the slot
   read once, the register once — so the reload must survive), from a
   copy, from a constant (folded) and from the region's entry value. The
   register is first given a stale value that a dropped reload would
   expose. *)
let t_region_self_op () =
  List.iter
    (fun op ->
      check_region
        (Format.asprintf "r %a r" Insn.pp_alu_op op)
        ([
           stx Insn.U64 R10 (-8) R7;
           movi R3 77L;
           stx Insn.U64 R6 24 R3;
           ldx Insn.U64 R3 R10 (-8);
           alu op R3 R3;
           mov R4 R9;
           alu op R4 R4;
           movi R5 (-5L);
           alu op R5 R5;
           alu op R9 R9;
           alu Insn.Add R5 R9;
         ]
        @ sink))
    all_alu

(* Div/Mod by a zero register (one the analysis knows is zero, and one
   only the run knows: a fresh heap word) and by a zero immediate. *)
let t_region_div_zero () =
  check_region "division by zero"
    ([
       ldx Insn.U64 R2 R6 64;
       mov R3 R7;
       alu Insn.Div R3 R2;
       mov R4 R7;
       alu Insn.Mod R4 R2;
       alu Insn.Add R3 R4;
       movi R1 0L;
       mov R4 R9;
       alu Insn.Div R4 R1;
       mov R5 R9;
       alu Insn.Mod R5 R1;
       alu Insn.Add R4 R5;
       mov R5 R7;
       alui Insn.Div R5 0L;
       mov R8 R7;
       alui Insn.Mod R8 0L;
       alu Insn.Add R5 R8;
       movi R8 12L;
       alui Insn.Mod R8 0L;
       alu Insn.Add R5 R8;
     ]
    @ sink)

(* Shift counts of 64 and more are masked to 6 bits: as immediates, as
   registers the analysis knows, and as registers only the run knows. *)
let t_region_wide_shifts () =
  check_region "shifts of 64 and more"
    ([
       mov R3 R7;
       alui Insn.Lsh R3 64L;
       mov R1 R7;
       alui Insn.Rsh R1 65L;
       alu Insn.Add R3 R1;
       mov R1 R7;
       alui Insn.Arsh R1 127L;
       alu Insn.Add R3 R1;
       movi R2 70L;
       mov R4 R9;
       alu Insn.Lsh R4 R2;
       movi R1 (-1L);
       alu Insn.Arsh R1 R2;
       alu Insn.Xor R4 R1;
       mov R2 R9;
       alui Insn.Or R2 64L;
       mov R5 R7;
       alu Insn.Rsh R5 R2;
       mov R1 R7;
       alu Insn.Arsh R1 R2;
       alu Insn.Sub R5 R1;
     ]
    @ sink)

(* A backward jump into the middle of a region (a loop whose head follows
   pure instructions) and forward jumps that skip a region's first half,
   on both outcomes of the runtime bit that decides them. *)
let t_region_jump_into () =
  List.iter
    (fun c ->
      check_region
        (Format.asprintf "jump into a region (%a)" Insn.pp_cond c)
        ([
           movi R1 0L;
           movi R2 10L;
           stx Insn.U64 R10 (-8) R2;
           label "loop";
           ldx Insn.U64 R3 R10 (-8);
           alui Insn.Sub R3 1L;
           stx Insn.U64 R10 (-8) R3;
           alu Insn.Add R1 R3;
           jmpi Insn.Ne R3 0L "loop";
           movi R4 9L;
           stx Insn.U64 R10 (-16) R4;
           mov R2 R9;
           alui Insn.And R2 1L;
           jmpi c R2 0L "mid";
           movi R4 5L;
           stx Insn.U64 R10 (-16) R4;
           alui Insn.Add R1 100L;
           label "mid";
           ldx Insn.U64 R5 R10 (-16);
           alu Insn.Add R5 R1;
           mov R3 R1;
         ]
        @ sink))
    Insn.[ Eq; Ne ]

(* Branches whose operands the region leaves in constants (folded at
   compile time), in frame slots (read in place) or in registers, in
   every pairing and under every predicate. *)
let t_region_branches () =
  let shapes =
    [
      ("const/const", [ movi R1 3L; movi R2 5L ], `R);
      ("const/const eq", [ movi R1 (-1L); movi R2 (-1L) ], `R);
      ("slot/imm", [ ldx Insn.U64 R1 R10 (-8) ], `I 1000L);
      ("const/reg", [ movi R1 7L; mov R2 R9 ], `R);
      ("reg/slot", [ mov R1 R7; ldx Insn.U64 R2 R10 (-16) ], `R);
      ( "slot/slot",
        [ ldx Insn.U64 R1 R10 (-8); ldx Insn.U64 R2 R10 (-16) ],
        `R );
      ("slot/reg", [ ldx Insn.U64 R1 R10 (-8); mov R2 R9 ], `R);
      ("const/slot", [ movi R1 (-9L); ldx Insn.U64 R2 R10 (-16) ], `R);
      ("reg/const", [ mov R1 R9; movi R2 0x8000_0000L ], `R);
    ]
  in
  List.iter
    (fun c ->
      List.iter
        (fun (shape, setup, b) ->
          check_region
            (Format.asprintf "branch %s %a" shape Insn.pp_cond c)
            ([ stx Insn.U64 R10 (-8) R7; stx Insn.U64 R10 (-16) R9 ]
            @ setup
            @ [
                (match b with
                | `R -> jmp c R1 R2 "yes"
                | `I k -> jmpi c R1 k "yes");
                movi R0 1L;
                exit_;
                label "yes";
                movi R0 2L;
                exit_;
              ]))
        shapes)
    all_cond

(* Every operator over every operand pairing a region produces: the
   first operand reloaded from a slot, copied, constant or in place, the
   second a register, a slot, an immediate or a constant register, with
   zero, wide-shift and ordinary constants. A heap store ends the region
   that fills the slots, so a reload reads the slot in place rather than
   the value forwarded from its store. *)
let t_region_alu_shapes () =
  let firsts k =
    [
      ("slot", [ ldx Insn.U64 R3 R10 (-8) ]);
      ("copy", [ mov R3 R7 ]);
      ("const", [ movi R3 k ]);
      ("entry", [ mov R3 R7; stx Insn.U64 R6 32 R3 ]);
    ]
  in
  let seconds op k =
    [
      ("reg", [ alu op R3 R9 ]);
      ("slot", [ ldx Insn.U64 R2 R10 (-16); alu op R3 R2 ]);
      ("imm", [ alui op R3 k ]);
      ("const reg", [ movi R2 k; alu op R3 R2 ]);
    ]
  in
  List.iter
    (fun op ->
      List.iter
        (fun (k1, k2) ->
          List.iter
            (fun (f, a) ->
              List.iter
                (fun (s, b) ->
                  check_region
                    (Format.asprintf "%s %a %s (%Ld, %Ld)" f Insn.pp_alu_op op
                       s k1 k2)
                    ([
                       stx Insn.U64 R10 (-8) R7;
                       stx Insn.U64 R10 (-16) R9;
                       stx Insn.U64 R6 48 R9;
                     ]
                    @ a @ b
                    @ [ mov R4 R3; I (Insn.Neg R4); ldx Insn.U64 R5 R10 (-8) ]
                    @ sink))
                (seconds op k2))
            (firsts k1))
        [ (7L, 0L); (-3L, 65L); (0x1234L, 3L) ])
    all_alu

(* Packet builtins run as ops inside the regions around them. The first
   call's r1 is the entry context, never set by the program, and it sits
   between pure ops in one region; the later calls take their offset as a
   constant, a copy, a reloaded slot and a computed register, and their
   value as a reloaded slot and a constant, and [pkt_len] takes nothing. *)
let t_region_builtins () =
  check_prog "builtins between pure ops"
    ([
       mov R9 R1;
       movi R2 3L;
       mov R4 R2;
       alui Insn.Add R4 5L;
       stx Insn.U64 R10 (-8) R4;
       call "pkt_read_u8";
       mov R6 R0;
       alui Insn.And R6 31L;
       mov R7 R6;
       alui Insn.Mul R7 3L;
       mov R1 R9;
       mov R2 R6;
       call "pkt_read_u16";
       alu Insn.Add R7 R0;
       mov R1 R9;
       ldx Insn.U64 R2 R10 (-8);
       call "pkt_read_u32";
       alu Insn.Xor R7 R0;
       stx Insn.U64 R10 (-16) R7;
       mov R1 R9;
       mov R2 R6;
       ldx Insn.U64 R3 R10 (-16);
       call "pkt_write_u16";
       mov R1 R9;
       movi R2 40L;
       movi R3 0x1234_5678L;
       call "pkt_write_u32";
       mov R1 R9;
       call "pkt_len";
       alu Insn.Add R7 R0;
       mov R1 R9;
       mov R2 R6;
       alui Insn.Add R2 1L;
       call "pkt_read_u64";
       alu Insn.Xor R7 R0;
       mov R1 R9;
       mov R2 R6;
       alui Insn.Add R2 50L;
       call "pkt_read_u64";
       alu Insn.Add R7 R0;
       mov R0 R7;
       exit_;
     ])

(* A lock handle spilled to a frame slot that no instruction reads again:
   only the unwinder reads it, through the object table's slot entry at
   the loop's checkpoint, where the quantum cancels the run. The store
   that spills it must survive, and the lock must be released exactly as
   the reference interpreter releases it. *)
let t_unwind_spilled_lock () =
  let items =
    [
      call "kflex_heap_base";
      mov R7 R0;
      mov R1 R7;
      alui Insn.Add R1 128L;
      call "kflex_spin_lock";
      stx Insn.U64 R10 (-8) R0;
      movi R0 0L;
      movi R8 0L;
      label "loop";
      alui Insn.Add R8 1L;
      ja "loop";
    ]
  in
  let ((o, _, w) as r), f = both_runs ~quantum:5_000 items ~word:128L in
  (match o with
  | Vm.Cancelled c when c.reason = Vm.Quantum_expired ->
      Alcotest.(check (list (pair string string)))
        "lock released" [ ("kflex_lock", "kflex_spin_unlock") ] c.released;
      Alcotest.(check int) "nothing leaked" 0 c.ledger_leaked
  | _ -> Alcotest.fail "reference run was not cancelled by the quantum");
  Alcotest.(check int64) "lock word cleared" 0L w;
  if f <> r then Alcotest.fail "fused form diverges from the reference"

(* Frame stores that a helper reads through a copy of r10: the key and
   value buffers of [bpf_map_update] and [bpf_map_lookup]. The second key
   is stored in a region that nothing after it reads except the lookup;
   dropping it would look up the first key, which is present. *)
let t_region_escaped_frame () =
  check_region "frame read by a map helper"
    ([
       stx Insn.U64 R10 (-8) R7;
       stx Insn.U64 R10 (-16) R9;
       movi R1 3L;
       mov R2 R10;
       alui Insn.Add R2 (-8L);
       mov R3 R10;
       alui Insn.Add R3 (-16L);
       call "bpf_map_update";
       mov R4 R7;
       alui Insn.Add R4 1L;
       stx Insn.U64 R10 (-8) R4;
       sti Insn.U64 R10 (-16) 0L;
       movi R1 3L;
       mov R2 R10;
       alui Insn.Add R2 (-8L);
       mov R3 R10;
       alui Insn.Add R3 (-16L);
       call "bpf_map_lookup";
       mov R3 R0;
       ldx Insn.U64 R4 R10 (-16);
       movi R5 0L;
     ]
    @ sink)

(* An atomic at [r10 + off] reads the slot a region stored, and nothing
   else reads it: a fetch-and-add and a compare-and-exchange, each
   returning the old value. The verifier admits atomics on the heap only,
   so this program is instrumented by hand (no guards, no tables); the
   fuzzer's generator emits no atomics at all. *)
let t_region_frame_atomic () =
  let prog =
    Asm.assemble ~name:"frame_atomic"
      [
        call "bpf_get_prandom_u32";
        mov R7 R0;
        call "bpf_get_prandom_u32";
        mov R9 R0;
        stx Insn.U64 R10 (-8) R7;
        movi R3 5L;
        I (Insn.Atomic (Insn.Fetch_add, Insn.U64, R10, -8, R3));
        stx Insn.U32 R10 (-20) R9;
        mov R0 R9;
        alui Insn.And R0 0xffff_ffffL;
        movi R4 99L;
        I (Insn.Atomic (Insn.Cmpxchg, Insn.U32, R10, -20, R4));
        alu Insn.Xor R0 R3;
        exit_;
      ]
  in
  let base =
    match
      admit_for Oracle.default_config
        (Kflex_fuzz.Gen.assemble [ movi R0 0L; exit_ ])
    with
    | Some k -> k
    | None -> Alcotest.fail "trivial program rejected"
  in
  let n = Kflex_bpf.Prog.length prog in
  let kie =
    {
      base with
      Kflex_kie.Instrument.prog;
      pc_map = Array.init n Fun.id;
      orig_of_new = Array.init n Fun.id;
      tables = Array.make n [];
    }
  in
  match Oracle.repr_equiv Oracle.default_config kie with
  | None -> ()
  | Some f ->
      Alcotest.failf "frame atomics: [%s] %s" f.Oracle.oracle f.Oracle.detail

(* Slot-destination ops: an ALU result stored to a frame slot while its
   register is dead becomes one op writing the slot, in every operand
   shape (the first operand reloaded, copied, constant or in place, the
   second a register, a slot, an immediate, a constant register, a heap
   word only the run knows is zero, and a shift count only the run knows
   is 64 or more). A heap store ends the region that fills the slots, so
   a reload reads the slot in place. The same programs with the register
   still read after the store must keep the register write. *)
let t_region_slot_dest () =
  let firsts k =
    [
      ("slot", [ ldx Insn.U64 R3 R10 (-8) ]);
      ("copy", [ mov R3 R7 ]);
      ("const", [ movi R3 k ]);
      ("entry", [ mov R3 R7; stx Insn.U64 R6 32 R3 ]);
    ]
  in
  let seconds op k =
    [
      ("reg", [ alu op R3 R9 ]);
      ("slot", [ ldx Insn.U64 R2 R10 (-16); alu op R3 R2 ]);
      ("imm", [ alui op R3 k ]);
      ("const reg", [ movi R2 k; alu op R3 R2 ]);
      ("zero word", [ ldx Insn.U64 R2 R6 64; alu op R3 R2 ]);
      ("wide count", [ mov R2 R9; alui Insn.Or R2 64L; alu op R3 R2 ]);
    ]
  in
  List.iter
    (fun op ->
      List.iter
        (fun (k1, k2) ->
          List.iter
            (fun (f, a) ->
              List.iter
                (fun (sec, b) ->
                  List.iter
                    (fun (live, after) ->
                      check_region
                        (Format.asprintf "%s %a %s to a slot, %s (%Ld, %Ld)" f
                           Insn.pp_alu_op op sec live k1 k2)
                        ([
                           stx Insn.U64 R10 (-8) R7;
                           stx Insn.U64 R10 (-16) R9;
                           stx Insn.U64 R6 48 R9;
                         ]
                        @ a @ b
                        @ [ stx Insn.U64 R10 (-24) R3 ]
                        @ after
                        @ [
                            stx Insn.U64 R6 40 R7;
                            ldx Insn.U64 R4 R10 (-24);
                            ldx Insn.U64 R5 R10 (-8);
                          ]
                        @ sink))
                    [
                      ("register dead", [ movi R3 1L ]);
                      ("register live", []);
                    ])
                (seconds op k2))
            (firsts k1))
        [ (7L, 0L); (-3L, 65L); (0x1234L, 3L) ])
    all_alu

(* Regions of more ops than the unrolled bodies take (eight): a chain of
   dependent ALU ops on a runtime value, each op kept, then two more ops
   ([r4 := r3 + 11], [r5 := r9]), at lengths just past eight and well
   past it. *)
let t_region_long () =
  List.iter
    (fun ops ->
      check_region
        (Printf.sprintf "region of %d ops" ops)
        ([ mov R3 R7 ]
        @ List.init (ops - 2) (fun k ->
              if k land 1 = 0 then alu Insn.Xor R3 R9
              else alui Insn.Mul R3 (Int64.of_int (k + 3)))
        @ [ mov R4 R3; alui Insn.Add R4 11L; mov R5 R9 ]
        @ sink))
    [ 9; 10; 11; 12; 13; 20 ]

(* The lowest frame slot, stack bytes [0, 8), has no bit in the Jit's
   frame sets, so a store there is always kept: here an 8-byte and a
   1-byte store in a region that ends at a jump, and a load of the slot in
   the next region. *)
let t_region_lowest_slot () =
  check_prog "lowest frame slot"
    [
      movi R6 0x1122_3344_5566_7788L;
      stx Insn.U64 R10 (-512) R6;
      sti Insn.U8 R10 (-505) 0x5aL;
      ja "next";
      label "next";
      ldx Insn.U64 R0 R10 (-512);
      exit_;
    ]

(* --- representation edge cases ------------------------------------------- *)

(* An independent Stdlib.Int64 reference for one ALU step — deliberately not
   shared with any engine, so a wraparound or unsigned-division bug in the
   unboxed representation cannot cancel out. *)
let alu_ref op a b =
  match op with
  | Insn.Add -> Int64.add a b
  | Insn.Sub -> Int64.sub a b
  | Insn.Mul -> Int64.mul a b
  | Insn.Div -> if b = 0L then 0L else Int64.unsigned_div a b
  | Insn.Mod -> if b = 0L then a else Int64.unsigned_rem a b
  | Insn.And -> Int64.logand a b
  | Insn.Or -> Int64.logor a b
  | Insn.Xor -> Int64.logxor a b
  | Insn.Lsh -> Int64.shift_left a (Int64.to_int b land 63)
  | Insn.Rsh -> Int64.shift_right_logical a (Int64.to_int b land 63)
  | Insn.Arsh -> Int64.shift_right a (Int64.to_int b land 63)

(* Corner-heavy 64-bit scalars: the wraparound boundaries, the sign bit,
   bit patterns that are float NaNs/infinities when misread, plus noise. *)
let corner_i64 =
  QCheck.make ~print:(Printf.sprintf "0x%Lx")
    QCheck.Gen.(
      oneof
        [
          oneofl
            [
              0L; 1L; -1L; 2L; Int64.min_int; Int64.max_int;
              0x8000_0000L; 0xffff_ffffL; 0x1_0000_0000L;
              0x7ff0_0000_0000_0001L; 0xfff8_0000_0000_0000L;
              0x0102_0304_0506_0708L; 0x8070_6050_4030_2010L;
            ];
          map Int64.of_int int;
        ])

let both_ret items =
  let go exec =
    let _, ext = with_heap items in
    match exec ext ~ctx:(Bytes.make 64 '\000') ~stats:(Vm.fresh_stats ()) with
    | Vm.Finished v -> v
    | Vm.Cancelled _ -> QCheck.Test.fail_report "unexpected cancellation"
  in
  let r = go ref_exec and c = go jit_exec in
  if r <> c then
    QCheck.Test.fail_reportf
      "executors diverge: 0x%Lx reference vs 0x%Lx compiled" r c;
  r

let check_alu op a b =
  let expect = alu_ref op a b in
  let reg =
    both_ret [ movi R1 a; movi R2 b; alu op R1 R2; mov R0 R1; exit_ ]
  in
  if reg <> expect then
    QCheck.Test.fail_reportf "%s(reg) 0x%Lx 0x%Lx = 0x%Lx, want 0x%Lx"
      (Format.asprintf "%a" Insn.pp_alu_op op) a b reg expect;
  let imm = both_ret [ movi R1 a; alui op R1 b; mov R0 R1; exit_ ] in
  if imm <> expect then
    QCheck.Test.fail_reportf "%s(imm) 0x%Lx 0x%Lx = 0x%Lx, want 0x%Lx"
      (Format.asprintf "%a" Insn.pp_alu_op op) a b imm expect;
  true

let prop_repr_wraparound =
  QCheck.Test.make ~name:"repr: add/sub/mul wrap at 64 bits" ~count:40
    QCheck.(pair corner_i64 corner_i64)
    (fun (a, b) ->
      List.for_all (fun op -> check_alu op a b) [ Insn.Add; Insn.Sub; Insn.Mul ])

let prop_repr_divmod =
  QCheck.Test.make ~name:"repr: unsigned div/mod incl. min_int and zero"
    ~count:40
    QCheck.(pair corner_i64 corner_i64)
    (fun (a, b) ->
      List.for_all (fun op -> check_alu op a b) [ Insn.Div; Insn.Mod ])

let prop_repr_shifts =
  QCheck.Test.make ~name:"repr: lsh/rsh/arsh mask shift counts to 6 bits"
    ~count:40
    QCheck.(pair corner_i64 (int_bound 130))
    (fun (a, s) ->
      let b = Int64.of_int s in
      List.for_all
        (fun op -> check_alu op a b)
        [ Insn.Lsh; Insn.Rsh; Insn.Arsh ])

(* Sub-word stores truncate and sub-word loads zero-extend: store the value
   at a frame slot pre-filled with all-ones, reload the full word, and check
   exactly the low bytes changed (little-endian); then reload at the narrow
   width and check zero-extension. *)
let prop_repr_subword =
  let widths =
    [ (Insn.U8, 0xffL); (Insn.U16, 0xffffL); (Insn.U32, 0xffff_ffffL);
      (Insn.U64, -1L) ]
  in
  QCheck.Test.make ~name:"repr: sub-word store truncation / load extension"
    ~count:30 corner_i64
    (fun v ->
      List.for_all
        (fun (w, mask) ->
          let stored =
            both_ret
              [
                movi R1 (-1L);
                stx Insn.U64 R10 (-16) R1;
                movi R2 v;
                stx w R10 (-16) R2;
                ldx Insn.U64 R0 R10 (-16);
                exit_;
              ]
          in
          let expect_stored =
            Int64.logor (Int64.logand v mask) (Int64.logand (-1L) (Int64.lognot mask))
          in
          if stored <> expect_stored then
            QCheck.Test.fail_reportf
              "store %Ld-mask: got 0x%Lx, want 0x%Lx" mask stored expect_stored;
          let loaded =
            both_ret
              [
                movi R1 v;
                stx Insn.U64 R10 (-8) R1;
                ldx w R0 R10 (-8);
                exit_;
              ]
          in
          let expect_loaded = Int64.logand v mask in
          if loaded <> expect_loaded then
            QCheck.Test.fail_reportf "load %Ld-mask: got 0x%Lx, want 0x%Lx"
              mask loaded expect_loaded;
          true)
        widths)

(* Regression for the polymorphic-array miscompile the Bigarray register
   bank replaced: a generic [Array.unsafe_get] on a weakly-typed register
   file can be compiled through the float-dispatching accessor, which would
   launder values through a float load/store and corrupt NaN bit patterns.
   Round-trip signalling-NaN and quiet-NaN patterns through moves, frame
   spills and identity ALU ops on both executors — bits must survive
   exactly. *)
let t_nan_bit_roundtrip () =
  List.iter
    (fun v ->
      let out =
        both_ret
          [
            movi R1 v;
            mov R2 R1;
            stx Insn.U64 R10 (-8) R2;
            ldx Insn.U64 R3 R10 (-8);
            alui Insn.Xor R3 0L;
            alui Insn.Or R3 0L;
            mov R0 R3;
            exit_;
          ]
      in
      Alcotest.(check int64) "bits survive" v out)
    [
      0x7ff0_0000_0000_0001L; (* signalling NaN *)
      0x7ff8_0000_0000_0000L; (* quiet NaN *)
      0xfff0_0000_0000_0000L; (* -inf *)
      0x7ff0_0000_0000_0000L; (* +inf *)
      0x8000_0000_0000_0000L; (* -0.0 *)
    ]

(* --- allocation regression (unboxed hot path) ----------------------------- *)

(* The compiled hook-free hot path must allocate nothing per retired
   instruction: registers live in a Bigarray bank, ALU results stay in
   native registers, and stack/heap accesses go through monomorphic byte
   externals. A regression — a boxed intermediate, a run-time closure, a
   polymorphic compare — makes minor-heap words scale with iteration count.
   The differential form (words at 2N minus words at N) cancels the
   constant per-exec cost (outcome constructor, pooled-state lookup) and
   must come out exactly zero. *)
let minor_words_once iters =
  let items =
    [
      call "kflex_heap_base";
      mov R6 R0;
      movi R7 (Int64.of_int iters);
      label "loop";
      stx Insn.U64 R10 (-8) R7;
      ldx Insn.U64 R1 R10 (-8);
      alui Insn.And R1 0xffL;
      alui Insn.Mul R1 8L;
      mov R2 R6;
      alu Insn.Add R2 R1;
      stx Insn.U64 R2 64 R7;
      ldx Insn.U64 R3 R2 64;
      alu Insn.Xor R3 R7;
      alui Insn.Sub R7 1L;
      jmpi Insn.Ne R7 0L "loop";
      mov R0 R3;
      exit_;
    ]
  in
  let _, ext = with_heap ~quantum:max_int items in
  let ctx = Bytes.make 64 '\000' in
  let go () =
    match Vm.exec ext ~ctx () with
    | Vm.Finished _ -> ()
    | Vm.Cancelled _ -> Alcotest.fail "unexpected cancellation"
  in
  (* first run compiles the program and warms the pooled state *)
  go ();
  let w0 = Gc.minor_words () in
  go ();
  Gc.minor_words () -. w0

let t_hot_path_allocation_free () =
  let n = 20_000 in
  let at_n = minor_words_once n in
  let at_2n = minor_words_once (2 * n) in
  Alcotest.(check (float 0.))
    "per-iteration minor words" 0. (at_2n -. at_n)

(* Helper-bearing loops: a warmed [kflex_malloc] + [kflex_free] of a
   recycled block, and a [kflex_spin_lock] + [kflex_spin_unlock] pair on a
   heap lock word, allocate nothing per call — the ledger, the allocator's
   free lists and its live set are unboxed arrays, and helpers take their
   arguments straight from r1–r5. *)
let helper_loop_words body =
  let words iters =
    let items =
      [ call "kflex_heap_base"; mov R6 R0; movi R7 (Int64.of_int iters); label "loop" ]
      @ body
      @ [ alui Insn.Sub R7 1L; jmpi Insn.Ne R7 0L "loop"; movi R0 0L; exit_ ]
    in
    let _, ext = with_heap ~quantum:max_int items in
    let ctx = Bytes.make 64 '\000' in
    let go () =
      match Vm.exec ext ~ctx () with
      | Vm.Finished _ -> ()
      | Vm.Cancelled _ -> Alcotest.fail "unexpected cancellation"
    in
    go ();
    let w0 = Gc.minor_words () in
    go ();
    Gc.minor_words () -. w0
  in
  words 4000 -. words 2000

let t_helpers_allocation_free () =
  Alcotest.(check (float 0.))
    "kflex_malloc + kflex_free" 0.
    (helper_loop_words
       [ movi R1 40L; call "kflex_malloc"; mov R1 R0; call "kflex_free" ]);
  Alcotest.(check (float 0.))
    "kflex_spin_lock + kflex_spin_unlock" 0.
    (helper_loop_words
       [
         mov R1 R6;
         alui Insn.Add R1 128L;
         call "kflex_spin_lock";
         mov R1 R0;
         call "kflex_spin_unlock";
       ])

(* --- every width at every edge --------------------------------------------- *)

(* The Jit's access bodies, every width at every edge. For U8, U16, U32
   and U64, each shape the Jit builds: Guard+Ldx, Guard+Stx (of another
   register and of the guarded one) and Guard+St; unguarded Ldx, Stx and
   St through a heap pointer, and through a copy of r10 (the
   window-tested path: a copy is no region member); and Ldx from ctx.
   Heap accesses land at a page's start, flush with its end, straddling
   into the next page, flush with the heap's end, one byte past it (the
   guard zone), on an unpopulated page and straddling out of one; frame and
   ctx accesses at the window's start, flush with its end and one byte
   past it. The programs are instrumented by hand, so each shape is
   exactly the one named. Every pc's object table names r0–r9, and a run
   that gets past its access ends in a wild load through r0 = 0, so the
   unwinder reads every register either way. The reference interpreter
   and the Jit must agree on the outcome (its fault pc and reason too),
   the stats, those registers and the heap pages. *)
let t_jit_access_edges () =
  let page = Heap.page_size in
  let size = 4 * page in
  (* pages 0, 1 and 3 populated with distinct bytes; page 2 never *)
  let heap () =
    let h = Heap.create ~size:(Int64.of_int size) () in
    List.iter
      (fun p ->
        for i = p * page to ((p + 1) * page) - 1 do
          Heap.write_off h ~width:1 (Int64.of_int i)
            (Int64.of_int ((i * 37) lxor (i lsr 8)))
        done)
      [ 0; 1; 3 ];
    h
  in
  let kbase = Heap.kbase (Heap.create ~size:(Int64.of_int size) ()) in
  let base =
    match
      admit_for Oracle.default_config
        (Kflex_fuzz.Gen.assemble [ movi R0 0L; exit_ ])
    with
    | Some k -> k
    | None -> Alcotest.fail "trivial program rejected"
  in
  let regs =
    List.init 10 (fun r ->
        {
          Kflex_kie.Instrument.klass = Printf.sprintf "r%d" r;
          destructor = "drop";
          loc = Kflex_verifier.State.L_reg (Reg.of_int r);
        })
  in
  let kie items =
    let prog = Asm.assemble ~allow_instrumentation:true ~name:"edges" items in
    let n = Kflex_bpf.Prog.length prog in
    {
      base with
      Kflex_kie.Instrument.prog;
      pc_map = Array.init n Fun.id;
      orig_of_new = Array.init n Fun.id;
      tables = Array.make n regs;
    }
  in
  (* one run in a fresh heap: outcome, stats, the registers the unwinder
     handed "drop" (the non-zero ones), heap pages *)
  let go exec kie =
    let seen = ref [] in
    let drop c = seen := Vm.arg c 0 :: !seen in
    let h = heap () in
    let ext = Vm.create ~heap:h ~helpers:[ ("drop", drop) ] kie in
    let stats = Vm.fresh_stats () in
    let ctx = Bytes.init 64 (fun i -> Char.chr (0x40 + (3 * i))) in
    let o = exec ext ~ctx ~stats in
    (o, stats_tuple stats, List.rev !seen, Heap.snapshot h)
  in
  let show = function
    | Vm.Finished v -> Printf.sprintf "finished %Ld" v
    | Vm.Cancelled { orig_pc; reason; released; _ } ->
        Printf.sprintf "cancelled at %d (%s), %d released" orig_pc
          (match reason with
          | Vm.Page_fault -> "page fault"
          | Vm.Guard_zone -> "guard zone"
          | Vm.Wild_access -> "wild access"
          | _ -> "other")
          (List.length released)
  in
  let check name expect items =
    let items = items @ [ ldx Insn.U64 R0 R0 0; exit_ ] in
    let k = kie items in
    let probe = Kflex_bpf.Prog.length k.Kflex_kie.Instrument.prog - 2 in
    let o, s, seen, pages = go ref_exec k in
    let o', s', seen', pages' = go jit_exec k in
    Alcotest.(check string) (name ^ ": outcome") (show o) (show o');
    Alcotest.(check bool) (name ^ ": outcome, released") true (o = o');
    Alcotest.(check string) (name ^ ": expected")
      expect
      (match o with
      | Vm.Cancelled { reason = Vm.Wild_access; orig_pc; _ }
        when orig_pc = probe ->
          "ok"
      | Vm.Finished _ -> "finished"
      | Vm.Cancelled { reason = Vm.Page_fault; _ } -> "page fault"
      | Vm.Cancelled { reason = Vm.Guard_zone; _ } -> "guard zone"
      | Vm.Cancelled { reason = Vm.Wild_access; _ } -> "wild access"
      | Vm.Cancelled _ -> "other");
    Alcotest.(check bool) (name ^ ": stats") true (s = s');
    Alcotest.(check (list int64)) (name ^ ": registers") seen seen';
    Alcotest.(check bool) (name ^ ": heap pages") true (pages = pages')
  in
  let v = 0x1122_3344_5566_7788L and imm = 0x7766_5544_3322_1100L in
  (* the frame's edge slots, filled through r10 before and reloaded after *)
  let fill =
    [
      movi R9 0x0102_0304_0506_0708L;
      stx Insn.U64 R10 (-512) R9;
      stx Insn.U64 R10 (-504) R9;
      alui Insn.Mul R9 3L;
      stx Insn.U64 R10 (-16) R9;
      stx Insn.U64 R10 (-8) R9;
    ]
  in
  let reload =
    [
      ldx Insn.U64 R2 R10 (-512);
      ldx Insn.U64 R4 R10 (-504);
      ldx Insn.U64 R5 R10 (-16);
      ldx Insn.U64 R8 R10 (-8);
    ]
  in
  List.iter
    (fun (sz, w) ->
      let at shape edge = Printf.sprintf "u%d %s at %s" (8 * w) shape edge in
      List.iter
        (fun (edge, t, expect) ->
          (* the pointer is 8 below the target, so that one past the
             heap's end is reached from inside it; a guarded one carries
             high bits the guard masks off *)
          let p = Int64.add kbase (Int64.of_int (t - 8)) in
          let g = Int64.add 0x5555_0000_0000_0000L (Int64.of_int (t - 8)) in
          let guard = I (Insn.Guard (Insn.Gwrite, R6)) in
          check (at "guard+ldx" edge) expect
            [ movi R6 g; I (Insn.Guard (Insn.Gread, R6)); ldx sz R3 R6 8 ];
          check (at "guard+stx" edge) expect
            [ movi R6 g; movi R3 v; guard; stx sz R6 8 R3 ];
          check (at "guard+stx of the guarded register" edge) expect
            [ movi R6 g; guard; stx sz R6 8 R6 ];
          check (at "guard+st" edge) expect
            [ movi R6 g; guard; sti sz R6 8 imm ];
          check (at "ldx" edge) expect [ movi R6 p; ldx sz R3 R6 8 ];
          check (at "stx" edge) expect [ movi R6 p; movi R3 v; stx sz R6 8 R3 ];
          check (at "st" edge) expect [ movi R6 p; sti sz R6 8 imm ])
        [
          ("a page's start", page, "ok");
          ("a page's end", page - w, "ok");
          ("a page boundary", page - w + 1, "ok");
          ("the heap's end", size - w, "ok");
          ("the guard zone", size - w + 1, "guard zone");
          ("an unpopulated page", 2 * page, "page fault");
          ( "a boundary out of an unpopulated page",
            (3 * page) - w + 1,
            if w = 1 then "ok" else "page fault" );
        ];
      List.iter
        (fun (edge, off, expect) ->
          check (at "ldx through a copy of r10" edge) expect
            (fill @ [ mov R7 R10; ldx sz R3 R7 off ] @ reload);
          check (at "stx through a copy of r10" edge) expect
            (fill @ [ movi R3 v; mov R7 R10; stx sz R7 off R3 ] @ reload);
          check (at "st through a copy of r10" edge) expect
            (fill @ [ mov R7 R10; sti sz R7 off imm ] @ reload))
        [
          ("the frame's start", -512, "ok");
          ("the frame's end", -w, "ok");
          ("one past the frame", -w + 1, "wild access");
        ];
      List.iter
        (fun (edge, off, expect) ->
          check (at "ldx from ctx" edge) expect [ ldx sz R3 R1 off ])
        [
          ("ctx's start", 0, "ok");
          ("ctx's end", 64 - w, "ok");
          ("one past ctx", 64 - w + 1, "wild access");
        ])
    [ (Insn.U8, 1); (Insn.U16, 2); (Insn.U32, 4); (Insn.U64, 8) ]

let () =
  Alcotest.run "runtime"
    [
      ( "heap",
        [
          Alcotest.test_case "create validation" `Quick t_heap_create_validation;
          Alcotest.test_case "sanitize" `Quick t_heap_sanitize;
          Alcotest.test_case "not shared" `Quick t_heap_not_shared;
          Alcotest.test_case "demand paging" `Quick t_heap_demand_paging;
          Alcotest.test_case "guard zone" `Quick t_heap_guard_zone;
          Alcotest.test_case "wild access" `Quick t_heap_wild;
          Alcotest.test_case "straddle pages" `Quick t_heap_straddle_pages;
          QCheck_alcotest.to_alcotest prop_heap_rw_roundtrip;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "basic" `Quick t_alloc_basic;
          Alcotest.test_case "zeroed" `Quick t_alloc_zeroed;
          Alcotest.test_case "too big" `Quick t_alloc_too_big;
          Alcotest.test_case "exhaustion" `Quick t_alloc_exhaustion;
          Alcotest.test_case "per-cpu caches" `Quick t_alloc_per_cpu_cache;
          Alcotest.test_case "pages on demand" `Quick t_alloc_populates_pages;
          Alcotest.test_case "class reuse" `Quick t_alloc_class_reuse;
          QCheck_alcotest.to_alcotest prop_alloc_no_overlap;
        ] );
      ( "user",
        [
          Alcotest.test_case "ledger" `Quick t_ledger;
          Alcotest.test_case "timeslice" `Quick t_timeslice;
          Alcotest.test_case "usermap" `Quick t_usermap;
        ] );
      ( "vm",
        [
          Alcotest.test_case "alu semantics" `Quick t_alu_semantics;
          Alcotest.test_case "unsigned compare" `Quick t_unsigned_compare;
          Alcotest.test_case "ctx read" `Quick t_ctx_read;
          Alcotest.test_case "atomics" `Quick t_atomics;
          Alcotest.test_case "malloc/free" `Quick t_malloc_free_via_vm;
          Alcotest.test_case "quantum cancellation" `Quick t_quantum_cancellation;
          Alcotest.test_case "engine reaper contention" `Quick
            t_engine_reaper_contention;
          Alcotest.test_case "cross-cpu cancel" `Quick t_cancel_cross_cpu;
          Alcotest.test_case "on_cancel callback" `Quick t_on_cancel_callback;
          Alcotest.test_case "stats" `Quick t_stats_accounting;
        ] );
      ( "jit",
        [
          Alcotest.test_case "backend parity" `Quick t_jit_parity;
          Alcotest.test_case "quantum parity" `Quick t_jit_quantum_parity;
          Alcotest.test_case "fused fault parity" `Quick
            t_jit_fused_fault_parity;
          Alcotest.test_case "state reuse" `Quick t_jit_state_reuse;
          QCheck_alcotest.to_alcotest prop_jit_differential;
          Alcotest.test_case "reference sites (corpus)" `Quick t_sites_corpus;
          QCheck_alcotest.to_alcotest prop_sites_differential;
          Alcotest.test_case "unwinder liveness" `Quick t_unwind_liveness;
          Alcotest.test_case "region: narrow store over a slot" `Quick
            t_region_narrow_overlap;
          Alcotest.test_case "region: r op= r" `Quick t_region_self_op;
          Alcotest.test_case "region: division by zero" `Quick
            t_region_div_zero;
          Alcotest.test_case "region: shifts of 64 and more" `Quick
            t_region_wide_shifts;
          Alcotest.test_case "region: jump into a region" `Quick
            t_region_jump_into;
          Alcotest.test_case "region: folded and in-place branches" `Quick
            t_region_branches;
          Alcotest.test_case "region: operand shapes" `Quick
            t_region_alu_shapes;
          Alcotest.test_case "packet builtins at the payload edges" `Quick
            t_jit_packet_builtins;
          Alcotest.test_case "native builtins cannot be overridden" `Quick
            t_native_override_refused;
          Alcotest.test_case "region: builtins between pure ops" `Quick
            t_region_builtins;
          Alcotest.test_case "unwinder reads a spilled lock" `Quick
            t_unwind_spilled_lock;
          Alcotest.test_case "region: frame read by a map helper" `Quick
            t_region_escaped_frame;
          Alcotest.test_case "region: frame atomics" `Quick
            t_region_frame_atomic;
          Alcotest.test_case "region: slot-destination ops" `Quick
            t_region_slot_dest;
          Alcotest.test_case "region: longer than the unrolled bodies" `Quick
            t_region_long;
          Alcotest.test_case "region: lowest frame slot" `Quick
            t_region_lowest_slot;
          Alcotest.test_case "reference sites: translate-on-store" `Quick
            t_sites_xstore;
          Alcotest.test_case "every width at every edge" `Quick
            t_jit_access_edges;
        ] );
      ( "repr",
        [
          QCheck_alcotest.to_alcotest prop_repr_wraparound;
          QCheck_alcotest.to_alcotest prop_repr_divmod;
          QCheck_alcotest.to_alcotest prop_repr_shifts;
          QCheck_alcotest.to_alcotest prop_repr_subword;
          Alcotest.test_case "nan bit round-trip" `Quick t_nan_bit_roundtrip;
          Alcotest.test_case "hot path allocation-free" `Quick
            t_hot_path_allocation_free;
          Alcotest.test_case "helpers allocation-free" `Quick
            t_helpers_allocation_free;
        ] );
    ]
