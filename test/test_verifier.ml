(* Verifier tests: kernel-interface compliance checks, reference tracking,
   loop analysis, and the analysis facts (guard elision, object tables)
   that Kie consumes. *)
open Kflex_bpf
open Kflex_verifier

let contracts = Contract.registry Contract.kflex_base

let verify ?(mode = Verify.Kflex) ?(heap = true) items =
  let prog = Asm.assemble ~name:"t" items in
  Verify.run ~mode ~contracts ~ctx_size:64
    ?heap_size:(if heap then Some 65536L else None)
    prog

let expect_ok ?mode ?heap items =
  match verify ?mode ?heap items with
  | Ok a -> a
  | Error e -> Alcotest.failf "expected OK, got %a" Verify.pp_error e

let expect_err ?mode ?heap kind items =
  match verify ?mode ?heap items with
  | Ok _ -> Alcotest.fail "expected a verification error"
  | Error e ->
      if e.Verify.kind <> kind then
        Alcotest.failf "wrong error kind: %a" Verify.pp_error e

let ek = Verify.E_uninit
and eb = Verify.E_bounds
and et = Verify.E_type
and eh = Verify.E_helper
and el = Verify.E_leak
and eo = Verify.E_loop
and er = Verify.E_resource

open Asm
open Reg

(* --- basic register/memory discipline ------------------------------------ *)

let t_uninit_use () = expect_err ek [ mov R0 R3; exit_ ]

let t_uninit_branch () =
  expect_err ek [ jmpi Insn.Eq R5 0L "x"; label "x"; movi R0 0L; exit_ ]

let t_ctx_read_ok () = ignore (expect_ok [ ldx Insn.U32 R0 R1 8; exit_ ])

let t_ctx_oob () = expect_err eb [ ldx Insn.U64 R0 R1 60; exit_ ]

let t_ctx_neg () = expect_err eb [ ldx Insn.U8 R0 R1 (-1); exit_ ]

let t_ctx_write () = expect_err et [ sti Insn.U32 R1 0 0L; movi R0 0L; exit_ ]

let t_ctx_bounded_variable_offset () =
  (* offset refined by masking: ctx + (x & 31) is provably in bounds *)
  ignore
    (expect_ok
       [
         ldx Insn.U32 R2 R1 0;
         alui Insn.And R2 31L;
         mov R3 R1;
         alu Insn.Add R3 R2;
         ldx Insn.U8 R0 R3 0;
         exit_;
       ])

let t_stack_rw () =
  ignore (expect_ok [ sti Insn.U64 R10 (-8) 42L; ldx Insn.U64 R0 R10 (-8); exit_ ])

let t_stack_oob () =
  expect_err eb [ sti Insn.U64 R10 (-520) 0L; movi R0 0L; exit_ ]

let t_stack_above_fp () =
  expect_err eb [ sti Insn.U64 R10 8 0L; movi R0 0L; exit_ ]

let t_stack_uninit_read () = expect_err ek [ ldx Insn.U64 R0 R10 (-16); exit_ ]

let t_stack_var_offset () =
  expect_err eb
    [
      ldx Insn.U32 R2 R1 0;
      mov R3 R10;
      alu Insn.Sub R3 R2;
      ldx Insn.U64 R0 R3 0;
      exit_;
    ]

let t_exit_needs_scalar_r0 () = expect_err et [ mov R0 R1; exit_ ]

(* --- heap / SFI delegation ------------------------------------------------ *)

let t_heap_requires_kflex () =
  expect_err ~mode:Verify.Ebpf ~heap:false et
    [ movi R1 4096L; ldx Insn.U64 R0 R1 0; exit_ ]

let t_heap_scalar_deref_ok_kflex () =
  let a = expect_ok [ movi R1 4096L; ldx Insn.U64 R0 R1 0; exit_ ] in
  match a.Verify.heap_accesses with
  | [ acc ] ->
      Alcotest.(check bool) "formation" true acc.Verify.formation;
      Alcotest.(check bool) "not elidable" false acc.Verify.elidable
  | _ -> Alcotest.fail "expected one heap access"

let t_heap_base_elidable () =
  let a =
    expect_ok
      [ call "kflex_heap_base"; ldx Insn.U64 R0 R0 128; movi R0 0L; exit_ ]
  in
  match a.Verify.heap_accesses with
  | [ acc ] ->
      Alcotest.(check bool) "elidable" true acc.Verify.elidable;
      Alcotest.(check bool) "not formation" false acc.Verify.formation
  | _ -> Alcotest.fail "expected one heap access"

let t_heap_base_offset_too_far () =
  let a =
    expect_ok
      [
        call "kflex_heap_base";
        alui Insn.Add R0 65536L;
        ldx Insn.U64 R0 R0 0;
        movi R0 0L;
        exit_;
      ]
  in
  match a.Verify.heap_accesses with
  | [ acc ] -> Alcotest.(check bool) "not elidable" false acc.Verify.elidable
  | _ -> Alcotest.fail "expected one heap access"

let t_malloc_sized_elidable () =
  let a =
    expect_ok
      [
        movi R1 64L;
        call "kflex_malloc";
        jmpi Insn.Ne R0 0L "ok";
        movi R0 0L;
        exit_;
        label "ok";
        sti Insn.U64 R0 56 1L;
        movi R0 0L;
        exit_;
      ]
  in
  match a.Verify.heap_accesses with
  | [ acc ] -> Alcotest.(check bool) "elidable" true acc.Verify.elidable
  | _ -> Alcotest.fail "expected one heap access"

let t_stored_heap_ptr_flagged () =
  let a =
    expect_ok
      [
        call "kflex_heap_base";
        mov R2 R0;
        stx Insn.U64 R2 0 R0;
        movi R0 0L;
        exit_;
      ]
  in
  match a.Verify.heap_accesses with
  | [ acc ] -> Alcotest.(check bool) "stored_ptr" true acc.Verify.stored_ptr
  | _ -> Alcotest.fail "expected one heap access"

let t_kernel_ptr_leak_to_heap () =
  expect_err er
    [ call "kflex_heap_base"; stx Insn.U64 R0 0 R10; movi R0 0L; exit_ ]

let t_atomic_outside_heap () =
  expect_err et
    [
      sti Insn.U64 R10 (-8) 0L;
      mov R2 R10;
      alui Insn.Add R2 (-8L);
      movi R3 1L;
      I (Insn.Atomic (Insn.Atomic_add, Insn.U64, R2, 0, R3));
      movi R0 0L;
      exit_;
    ]

(* --- helpers and references ------------------------------------------------ *)

let sk_prologue =
  [
    mov R6 R1;
    sti Insn.U64 R10 (-16) 0L;
    sti Insn.U64 R10 (-8) 0L;
    mov R2 R10;
    alui Insn.Add R2 (-16L);
    movi R3 16L;
    movi R4 0L;
    movi R5 0L;
    mov R1 R6;
    call "bpf_sk_lookup_udp";
  ]

let t_unknown_helper () = expect_err eh [ call "frobnicate"; exit_ ]

let t_helper_bad_arg () = expect_err eh [ movi R1 0L; call "pkt_len"; exit_ ]

let t_helper_uninit_stack_buffer () =
  expect_err eh
    [
      mov R6 R1;
      mov R2 R10;
      alui Insn.Add R2 (-16L);
      movi R3 16L;
      movi R4 0L;
      movi R5 0L;
      mov R1 R6;
      call "bpf_sk_lookup_udp";
      movi R0 0L;
      exit_;
    ]

let t_acquire_release_ok () =
  ignore
    (expect_ok ~mode:Verify.Ebpf ~heap:false
       (sk_prologue
       @ [
           jmpi Insn.Eq R0 0L "out";
           mov R1 R0;
           call "bpf_sk_release";
           label "out";
           movi R0 0L;
           exit_;
         ]))

let t_leak_at_exit () =
  expect_err er
    (sk_prologue
    @ [
        jmpi Insn.Eq R0 0L "out";
        mov R7 R0;
        ja "out2";
        label "out";
        movi R0 0L;
        exit_;
        label "out2";
        movi R0 0L;
        exit_;
      ])

(* Losing an object's last copy is a leak at the instruction that loses
   it, whether that copy is a register or a stack slot and however many
   other copies were dropped first. *)
let t_leak_by_clobber () =
  List.iter
    (fun (what, items, lost_at) ->
      match verify (sk_prologue @ items) with
      | Error { Verify.kind = Verify.E_leak; pc; _ } ->
          Alcotest.(check (option int)) what (Some lost_at) pc
      | Error e -> Alcotest.failf "%s: expected leak, got %a" what Verify.pp_error e
      | Ok _ -> Alcotest.failf "%s: expected a leak" what)
    [
      ("only copy", [ movi R0 0L; exit_ ], 10);
      ("second register copy", [ mov R7 R0; movi R0 0L; movi R7 0L; exit_ ], 12);
      ( "spilled copy",
        [ stx Insn.U64 R10 (-24) R0; movi R0 0L; sti Insn.U64 R10 (-24) 0L; exit_ ],
        12 );
    ]

let t_release_without_nullcheck () =
  expect_err eh
    (sk_prologue @ [ mov R1 R0; call "bpf_sk_release"; movi R0 0L; exit_ ])

let t_double_release () =
  expect_err ek
    (sk_prologue
    @ [
        jmpi Insn.Eq R0 0L "out";
        mov R7 R0;
        mov R1 R7;
        call "bpf_sk_release";
        mov R1 R7;
        call "bpf_sk_release";
        label "out";
        movi R0 0L;
        exit_;
      ])

let t_obj_arithmetic () =
  expect_err et
    (sk_prologue
    @ [
        jmpi Insn.Eq R0 0L "out";
        alui Insn.Add R0 8L;
        label "out";
        movi R0 0L;
        exit_;
      ])

let t_obj_deref () =
  expect_err et
    (sk_prologue
    @ [
        jmpi Insn.Eq R0 0L "out";
        ldx Insn.U64 R0 R0 0;
        label "out";
        movi R0 0L;
        exit_;
      ])

let t_spill_reload_obj () =
  ignore
    (expect_ok
       (sk_prologue
       @ [
           jmpi Insn.Eq R0 0L "out";
           stx Insn.U64 R10 (-24) R0;
           movi R2 7L;
           ldx Insn.U64 R1 R10 (-24);
           call "bpf_sk_release";
           label "out";
           movi R0 0L;
           exit_;
         ]))

let t_partial_overwrite_spilled_obj () =
  expect_err er
    (sk_prologue
    @ [
        jmpi Insn.Eq R0 0L "out";
        stx Insn.U64 R10 (-24) R0;
        sti Insn.U8 R10 (-24) 0L;
        label "out";
        movi R0 0L;
        exit_;
      ])

(* --- loops ------------------------------------------------------------------ *)

let bounded_loop =
  [
    movi R1 0L;
    label "loop";
    alui Insn.Add R1 1L;
    jmpi Insn.Lt R1 100L "loop";
    movi R0 0L;
    exit_;
  ]

let unbounded_loop =
  [
    movi R1 1024L;
    label "loop";
    ldx Insn.U64 R1 R1 0;
    jmpi Insn.Ne R1 0L "loop";
    movi R0 0L;
    exit_;
  ]

let t_bounded_ebpf_ok () =
  let a = expect_ok ~mode:Verify.Ebpf ~heap:false bounded_loop in
  Alcotest.(check int) "no unbounded" 0 (List.length a.Verify.unbounded)

let t_unbounded_ebpf_rejected () =
  expect_err ~mode:Verify.Ebpf ~heap:false eo unbounded_loop

let t_unbounded_kflex_reported () =
  let a = expect_ok unbounded_loop in
  Alcotest.(check int) "one unbounded" 1 (List.length a.Verify.unbounded)

let t_loop_counter_clobbered_by_call () =
  let p =
    [
      movi R6 0L;
      movi R1 0L;
      label "loop";
      call "bpf_ktime_get_ns";
      alui Insn.Add R1 1L;
      jmpi Insn.Lt R1 100L "loop";
      movi R0 0L;
      exit_;
    ]
  in
  expect_err ~mode:Verify.Ebpf ~heap:false eo p

let t_loop_resource_convergence () =
  let p =
    [
      call "kflex_heap_base";
      mov R6 R0;
      movi R7 0L;
      label "loop";
      mov R1 R6;
      call "kflex_spin_lock";
      stx Insn.U64 R10 (-8) R0;
      alui Insn.Add R7 1L;
      jmpi Insn.Ne R7 0L "loop";
      movi R0 0L;
      exit_;
    ]
  in
  match verify p with
  | Ok _ -> Alcotest.fail "expected loop-convergence rejection"
  | Error e ->
      Alcotest.(check bool) "loop or resource error" true
        (e.Verify.kind = eo || e.Verify.kind = er)

let t_lock_balanced_in_loop () =
  ignore
    (expect_ok
       [
         call "kflex_heap_base";
         mov R6 R0;
         movi R7 0L;
         label "loop";
         mov R1 R6;
         call "kflex_spin_lock";
         mov R1 R0;
         call "kflex_spin_unlock";
         alui Insn.Add R7 1L;
         jmpi Insn.Lt R7 10L "loop";
         movi R0 0L;
         exit_;
       ])

let t_multiple_locks () =
  ignore
    (expect_ok
       [
         call "kflex_heap_base";
         mov R6 R0;
         mov R1 R6;
         call "kflex_spin_lock";
         mov R7 R0;
         mov R1 R6;
         alui Insn.Add R1 64L;
         call "kflex_spin_lock";
         mov R8 R0;
         mov R1 R8;
         call "kflex_spin_unlock";
         mov R1 R7;
         call "kflex_spin_unlock";
         movi R0 0L;
         exit_;
       ])

(* --- bpf_map_lock / bpf_map_unlock pairing ------------------------------- *)

(* Stack key at fp-8, lock fd 3: the [bpf_map_lock] calling convention. *)
let map_lock_prologue =
  [
    sti Insn.U64 R10 (-8) 1L;
    movi R1 3L;
    mov R2 R10;
    alui Insn.Add R2 (-8L);
    call "bpf_map_lock";
  ]

let t_map_lock_paired () =
  (* the happy path: null-checked handle, unlock on the held path only —
     the miss arm exits without a release and that is fine *)
  ignore
    (expect_ok ~heap:false
       (map_lock_prologue
       @ [
           jmpi Insn.Eq R0 0L "miss";
           mov R1 R0;
           call "bpf_map_unlock";
           label "miss";
           movi R0 0L;
           exit_;
         ]))

let t_map_lock_missing_unlock () =
  (* exiting while the lock is held is a resource error, not a warning *)
  expect_err ~heap:false er
    (map_lock_prologue
    @ [
        jmpi Insn.Eq R0 0L "miss";
        label "miss";
        movi R0 0L;
        exit_;
      ])

let t_map_lock_one_path_leaks () =
  (* balanced on one branch, leaked on the other: still rejected *)
  expect_err ~heap:false er
    ((ldx Insn.U32 R6 R1 0 :: map_lock_prologue)
    @ [
        jmpi Insn.Eq R0 0L "miss";
        jmpi Insn.Eq R6 7L "skip";
        mov R1 R0;
        call "bpf_map_unlock";
        label "skip";
        label "miss";
        movi R0 0L;
        exit_;
      ])

let t_map_lock_spill_reload () =
  (* the handle survives a spill, a clobbering helper, and a reload *)
  ignore
    (expect_ok ~heap:false
       (map_lock_prologue
       @ [
           jmpi Insn.Eq R0 0L "miss";
           stx Insn.U64 R10 (-16) R0;
           call "bpf_ktime_get_ns";
           ldx Insn.U64 R1 R10 (-16);
           call "bpf_map_unlock";
           label "miss";
           movi R0 0L;
           exit_;
         ]))

let t_map_unlock_scalar () =
  (* unlocking something that is not a held handle *)
  (match
     verify ~heap:false [ movi R1 42L; call "bpf_map_unlock"; movi R0 0L; exit_ ]
   with
  | Ok _ -> Alcotest.fail "expected rejection"
  | Error _ -> ());
  (* and unlocking an un-null-checked handle (may be zero) *)
  match
    verify ~heap:false
      (map_lock_prologue @ [ mov R1 R0; call "bpf_map_unlock"; movi R0 0L; exit_ ])
  with
  | Ok _ -> Alcotest.fail "expected null-able handle rejection"
  | Error _ -> ()

(* --- analysis facts ----------------------------------------------------------- *)

let t_res_at_locations () =
  let a =
    expect_ok
      (sk_prologue
      @ [
          jmpi Insn.Eq R0 0L "out";
          mov R7 R0;
          call "kflex_heap_base";
          ldx Insn.U64 R2 R0 0;
          mov R1 R7;
          call "bpf_sk_release";
          label "out";
          movi R0 0L;
          exit_;
        ])
  in
  match a.Verify.heap_accesses with
  | [ access ] -> (
      match a.Verify.res_at.(access.Verify.pc) with
      | [ { Verify.res; loc } ] -> (
          Alcotest.(check string) "klass" "sock" res.State.klass;
          match loc with
          | State.L_reg r -> Alcotest.(check int) "in r7" 7 (Reg.to_int r)
          | State.L_slot _ -> Alcotest.fail "expected register location")
      | l -> Alcotest.failf "expected 1 held resource, got %d" (List.length l))
  | l -> Alcotest.failf "expected 1 heap access, got %d" (List.length l)

let t_origin_tracking_elision () =
  let a =
    expect_ok
      [
        call "kflex_heap_base";
        mov R6 R0;
        sti Insn.U64 R10 (-8) 0L;
        label "loop";
        ldx Insn.U64 R2 R10 (-8);
        jmpi Insn.Ge R2 8L "done";
        ldx Insn.U64 R3 R10 (-8);
        alui Insn.Lsh R3 3L;
        mov R4 R6;
        alu Insn.Add R4 R3;
        ldx Insn.U64 R5 R4 0;
        ldx Insn.U64 R2 R10 (-8);
        alui Insn.Add R2 1L;
        stx Insn.U64 R10 (-8) R2;
        ja "loop";
        label "done";
        movi R0 0L;
        exit_;
      ]
  in
  match a.Verify.heap_accesses with
  | [ acc ] ->
      Alcotest.(check bool) "elidable via origin" true acc.Verify.elidable
  | l -> Alcotest.failf "expected 1 heap access, got %d" (List.length l)

let t_widening_terminates () =
  (* a loop whose counter range keeps growing must still reach a fixpoint
     quickly thanks to widening *)
  let t0 = Unix.gettimeofday () in
  ignore
    (expect_ok
       [
         movi R1 0L;
         movi R2 0L;
         label "loop";
         alui Insn.Add R1 3L;
         alui Insn.Add R2 5L;
         alu Insn.Add R1 R2;
         ldx Insn.U64 R3 R1 0;
         jmpi Insn.Ne R3 0L "loop";
         movi R0 0L;
         exit_;
       ]);
  Alcotest.(check bool) "fast fixpoint" true (Unix.gettimeofday () -. t0 < 1.0)

let t_mixed_provenance_join () =
  (* a value that is a stack pointer on one path and a scalar on the other
     is unusable after the join *)
  expect_err ek
    [
      ldx Insn.U32 R2 R1 0;
      jmpi Insn.Eq R2 0L "a";
      mov R3 R10;
      ja "m";
      label "a";
      movi R3 64L;
      label "m";
      ldx Insn.U64 R0 R3 (-8);
      exit_;
    ]

let t_heap_scalar_join_is_unknown () =
  (* heap pointer on one path, scalar on the other: usable, but guarded *)
  let a =
    expect_ok
      [
        ldx Insn.U32 R2 R1 0;
        jmpi Insn.Eq R2 0L "a";
        call "kflex_heap_base";
        mov R3 R0;
        ja "m";
        label "a";
        movi R3 4096L;
        label "m";
        ldx Insn.U64 R0 R3 0;
        exit_;
      ]
  in
  match a.Verify.heap_accesses with
  | [ acc ] -> Alcotest.(check bool) "formation guard" true acc.Verify.formation
  | _ -> Alcotest.fail "expected one heap access"

let t_sleepable_rejected_on_xdp () =
  let contracts' =
    Contract.registry
      (Contract.kflex_base
      @ [
          Contract.make ~name:"might_sleep" ~args:[] ~ret:Contract.R_scalar
            ~sleepable:true ();
        ])
  in
  let prog = Asm.assemble ~name:"sleepy" [ call "might_sleep"; exit_ ] in
  (match
     Verify.run ~mode:Verify.Kflex ~contracts:contracts' ~ctx_size:64
       ~sleepable:false prog
   with
  | Error { Verify.kind = Verify.E_helper; _ } -> ()
  | _ -> Alcotest.fail "sleepable helper must be rejected at a non-sleepable hook");
  match
    Verify.run ~mode:Verify.Kflex ~contracts:contracts' ~ctx_size:64
      ~sleepable:true prog
  with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "sleepable hook should accept: %a" Verify.pp_error e

let t_dead_branch_not_explored () =
  (* on the dead edge of [if 5 == 5] the invalid access is unreachable *)
  ignore
    (expect_ok
       [
         movi R2 5L;
         jmpi Insn.Eq R2 5L "ok";
         mov R0 R7;
         (* would be uninit, but this edge is dead *)
         exit_;
         label "ok";
         movi R0 0L;
         exit_;
       ])

let t_stack_used () =
  let a =
    expect_ok [ sti Insn.U64 R10 (-48) 1L; ldx Insn.U64 R0 R10 (-48); exit_ ]
  in
  Alcotest.(check int) "stack_used" 48 a.Verify.stack_used

(* Robustness fuzz: the verifier must accept or reject every structurally
   valid program — never raise, never hang. *)
let prop_verifier_total =
  let open QCheck in
  let insn_gen rng =
    let reg () = Reg.of_int (Gen.int_bound 9 rng) in
    let any_reg () = Reg.of_int (Gen.int_bound 10 rng) in
    let imm () = Int64.of_int (Gen.int_range (-1024) 1024 rng) in
    match Gen.int_bound 9 rng with
    | 0 -> Insn.Mov (reg (), Insn.Imm (imm ()))
    | 1 -> Insn.Mov (reg (), Insn.Reg (any_reg ()))
    | 2 ->
        Insn.Alu
          ( List.nth
              [ Insn.Add; Insn.Sub; Insn.Mul; Insn.Div; Insn.And; Insn.Or;
                Insn.Lsh; Insn.Rsh ]
              (Gen.int_bound 7 rng),
            reg (),
            Insn.Imm (imm ()) )
    | 3 -> Insn.Ldx (Insn.U64, reg (), any_reg (), Gen.int_range (-64) 64 rng)
    | 4 -> Insn.Stx (Insn.U64, any_reg (), Gen.int_range (-64) 64 rng, any_reg ())
    | 5 -> Insn.St (Insn.U32, any_reg (), Gen.int_range (-64) 64 rng, imm ())
    | 6 ->
        Insn.Call
          (List.nth
             [ "kflex_heap_base"; "kflex_malloc"; "bpf_ktime_get_ns";
               "bpf_get_prandom_u32"; "pkt_len" ]
             (Gen.int_bound 4 rng))
    | 7 -> Insn.Neg (reg ())
    | _ -> Insn.Mov (Reg.R0, Insn.Imm 0L)
  in
  let prog_gen rng =
    let n = 1 + Gen.int_bound 20 rng in
    let body = Array.init n (fun _ -> insn_gen rng) in
    (* add a few random forward/backward jumps with in-range targets *)
    let with_jumps =
      Array.mapi
        (fun i insn ->
          if Gen.int_bound 6 rng = 0 && n > 1 then begin
            let target = Gen.int_bound n rng in
            let off = target - i - 1 in
            if target <> i + 1 && target >= 0 && target <= n then
              Insn.Jcond
                ( (if Gen.bool rng then Insn.Eq else Insn.Lt),
                  Reg.of_int (Gen.int_bound 10 rng),
                  Insn.Imm 0L,
                  off )
            else insn
          end
          else insn)
        body
    in
    Array.append with_jumps [| Insn.Mov (Reg.R0, Insn.Imm 0L); Insn.Exit |]
  in
  QCheck.Test.make ~count:400 ~name:"verifier is total on valid programs"
    (QCheck.make prog_gen)
    (fun insns ->
      match Prog.create ~name:"fuzz" insns with
      | exception Prog.Malformed _ -> true (* structurally invalid: fine *)
      | prog -> (
          match
            Verify.run ~mode:Verify.Kflex ~contracts ~ctx_size:64
              ~heap_size:65536L prog
          with
          | Ok _ | Error _ -> true))

(* --- known bits (tnum) and guard elision --------------------------------- *)

(* Interval analysis is blind through xor: after [x & 0xff ^ 0x3c] the seed
   domain knows nothing, but the known-bits half still proves the value fits
   in 8 bits — so the heap access below is elidable only with tnum. *)
let xor_masked_access =
  [
    ldx Insn.U32 R6 R1 0;
    alui Insn.And R6 255L;
    alui Insn.Xor R6 60L;
    call "kflex_heap_base";
    alu Insn.Add R0 R6;
    ldx Insn.U64 R3 R0 0;
    movi R0 0L;
    exit_;
  ]

let interval_only f =
  Range.set_tnum false;
  Fun.protect ~finally:(fun () -> Range.set_tnum true) f

let t_tnum_elision_gain () =
  let elidable () =
    let a = expect_ok xor_masked_access in
    match a.Verify.heap_accesses with
    | [ acc ] ->
        Alcotest.(check bool) "not formation" false acc.Verify.formation;
        acc.Verify.elidable
    | l -> Alcotest.failf "expected 1 heap access, got %d" (List.length l)
  in
  Alcotest.(check bool) "interval+tnum elides" true (elidable ());
  Alcotest.(check bool) "interval-only cannot elide" false
    (interval_only elidable)

(* Switching the tnum domain on must never lose an elision anywhere on the
   data-structure corpus, and must gain at least one. *)
let t_corpus_elision_non_decrease () =
  let total_gain = ref 0 in
  List.iter
    (fun kind ->
      List.iter
        (fun (opname, op) ->
          let name = Kflex_apps.Datastructs.name kind ^ "_" ^ opname in
          let compiled =
            Kflex_eclang.Compile.compile_string ~name
              (Kflex_apps.Datastructs.op_source kind op)
          in
          let count () =
            match
              Verify.run ~mode:Verify.Kflex ~contracts:Kflex.contracts
                ~ctx_size:Kflex_kernel.Hook.ctx_size
                ~heap_size:(Int64.shift_left 1L 24)
                compiled.Kflex_eclang.Compile.prog
            with
            | Error e -> Alcotest.failf "%s rejected: %a" name Verify.pp_error e
            | Ok a ->
                List.length
                  (List.filter
                     (fun (x : Verify.heap_access) ->
                       x.Verify.elidable && not x.Verify.formation)
                     a.Verify.heap_accesses)
          in
          let n_int = interval_only count in
          let n_tnum = count () in
          if n_tnum < n_int then
            Alcotest.failf "%s: elision decreased %d -> %d" name n_int n_tnum;
          total_gain := !total_gain + (n_tnum - n_int))
        [ ("update", `Update); ("lookup", `Lookup); ("delete", `Delete) ])
    Kflex_apps.Datastructs.all;
  Alcotest.(check bool) "tnum gains at least one elision" true (!total_gain >= 1)

(* --- lint ----------------------------------------------------------------- *)

let lint items = Lint.run ~contracts (expect_ok items)

let kinds_of diags =
  List.sort_uniq Stdlib.compare
    (List.map (fun (d : Lint.diag) -> d.Lint.kind) diags)

let pcs_of kind diags =
  List.filter_map
    (fun (d : Lint.diag) -> if d.Lint.kind = kind then Some d.Lint.pc else None)
    diags

let t_lint_clean () =
  let diags = lint [ movi R0 0L; exit_ ] in
  Alcotest.(check int) "no findings" 0 (List.length diags);
  Alcotest.(check int) "exit 0" 0 (Lint.exit_code diags)

let t_lint_unreachable_structural () =
  let diags = lint [ movi R0 0L; exit_; movi R0 1L; exit_ ] in
  Alcotest.(check (list int)) "block at pc 2" [ 2 ]
    (pcs_of Lint.Unreachable diags);
  Alcotest.(check int) "exit 1" 1 (Lint.exit_code diags)

let t_lint_always_taken () =
  let diags =
    lint
      [
        movi R2 5L;
        jmpi Insn.Eq R2 5L "ok";
        mov R0 R7;
        exit_;
        label "ok";
        movi R0 0L;
        exit_;
      ]
  in
  Alcotest.(check (list int)) "branch at pc 1" [ 1 ]
    (pcs_of Lint.Always_taken diags);
  (* the dead fall-through block is also reported as unreachable *)
  Alcotest.(check (list int)) "dead block at pc 2" [ 2 ]
    (pcs_of Lint.Unreachable diags)

let t_lint_never_taken () =
  let diags =
    lint
      [
        movi R2 3L;
        jmpi Insn.Eq R2 5L "x";
        movi R0 0L;
        exit_;
        label "x";
        movi R0 1L;
        exit_;
      ]
  in
  Alcotest.(check (list int)) "branch at pc 1" [ 1 ]
    (pcs_of Lint.Never_taken diags);
  Alcotest.(check (list int)) "dead block at pc 4" [ 4 ]
    (pcs_of Lint.Unreachable diags)

let t_lint_dead_store_overwrite () =
  let diags =
    lint
      [
        sti Insn.U64 R10 (-8) 1L;
        sti Insn.U64 R10 (-8) 2L;
        ldx Insn.U64 R0 R10 (-8);
        exit_;
      ]
  in
  Alcotest.(check (list int)) "first store dead" [ 0 ]
    (pcs_of Lint.Dead_store diags)

let t_lint_dead_store_at_exit () =
  let diags = lint [ sti Insn.U64 R10 (-16) 7L; movi R0 0L; exit_ ] in
  Alcotest.(check (list int)) "unread store dead" [ 0 ]
    (pcs_of Lint.Dead_store diags)

let t_lint_dead_store_conservative () =
  (* a load between the stores keeps the first one live; a partial overwrite
     does not prove the first store dead either *)
  let diags =
    lint
      [
        sti Insn.U64 R10 (-8) 1L;
        ldx Insn.U64 R3 R10 (-8);
        sti Insn.U64 R10 (-8) 2L;
        sti Insn.U8 R10 (-8) 3L;
        ldx Insn.U64 R0 R10 (-8);
        exit_;
      ]
  in
  Alcotest.(check (list int)) "no dead stores" []
    (pcs_of Lint.Dead_store diags)

let t_lint_dead_store_past_call () =
  (* pkt_len's contract has no stack-pointer argument, so the call provably
     cannot read slot fp-8 — the first store is dead across it *)
  let diags =
    lint
      [
        sti Insn.U64 R10 (-8) 1L;
        call "pkt_len";
        sti Insn.U64 R10 (-8) 2L;
        ldx Insn.U64 R0 R10 (-8);
        exit_;
      ]
  in
  Alcotest.(check (list int)) "dead across the call" [ 0 ]
    (pcs_of Lint.Dead_store diags)

let t_lint_store_read_by_helper_live () =
  (* bpf_map_lookup reads its key/value buffers via A_stack_ptr args: the
     stores feeding them must stay live *)
  let diags =
    lint
      [
        sti Insn.U64 R10 (-8) 1L;
        sti Insn.U64 R10 (-16) 0L;
        movi R1 0L;
        mov R2 R10;
        alui Insn.Add R2 (-8L);
        mov R3 R10;
        alui Insn.Add R3 (-16L);
        call "bpf_map_lookup";
        movi R0 0L;
        exit_;
      ]
  in
  Alcotest.(check (list int)) "no dead stores" []
    (pcs_of Lint.Dead_store diags)

let t_lint_dead_store_cross_block () =
  (* both branch arms overwrite the slot before any read — only whole-CFG
     liveness sees this *)
  let diags =
    lint
      [
        sti Insn.U64 R10 (-8) 1L;
        ldx Insn.U32 R2 R1 0;
        jmpi Insn.Eq R2 0L "a";
        sti Insn.U64 R10 (-8) 2L;
        ja "b";
        label "a";
        sti Insn.U64 R10 (-8) 3L;
        label "b";
        ldx Insn.U64 R0 R10 (-8);
        exit_;
      ]
  in
  Alcotest.(check (list int)) "store before the branch is dead" [ 0 ]
    (pcs_of Lint.Dead_store diags)

let t_lint_ignored_result_cross_block () =
  let diags =
    lint
      [
        mov R6 R1;
        call "bpf_ktime_get_ns";
        ldx Insn.U32 R2 R6 0;
        jmpi Insn.Eq R2 0L "a";
        movi R0 0L;
        exit_;
        label "a";
        movi R0 1L;
        exit_;
      ]
  in
  Alcotest.(check (list int)) "ignored on every arm" [ 1 ]
    (pcs_of Lint.Ignored_result diags)

(* A dataflow pass that runs out of budget says so instead of reporting
   nothing: lint's dead-store and ignored-result passes and the lifecycle
   pass each give one analysis-gave-up finding at pc 0, the program no
   longer reads as clean, and the report counts them. Under the default
   budget the same program finishes. *)
let t_lint_gave_up () =
  let a =
    expect_ok
      [
        mov R6 R1;
        call "bpf_ktime_get_ns";
        ldx Insn.U32 R2 R6 0;
        jmpi Insn.Eq R2 0L "a";
        sti Insn.U64 R10 (-8) 1L;
        movi R0 0L;
        exit_;
        label "a";
        movi R0 1L;
        exit_;
      ]
  in
  let lc_gave_up fs =
    List.filter
      (fun (f : Lifecycle.finding) -> f.Lifecycle.kind = Lifecycle.Gave_up)
      fs
  in
  Alcotest.(check (list int)) "default budget: lint finishes" []
    (pcs_of Lint.Gave_up (Lint.run ~contracts a));
  Alcotest.(check int) "default budget: lifecycle finishes" 0
    (List.length (lc_gave_up (Lifecycle.run ~contracts a)));
  let diags = Dataflow.with_budget 1 (fun () -> Lint.run ~contracts a) in
  Alcotest.(check (list int)) "both lint passes gave up" [ 0; 0 ]
    (pcs_of Lint.Gave_up diags);
  Alcotest.(check int) "not clean" 1 (Lint.exit_code diags);
  let summary = Format.asprintf "%a" Kflex_kie.Report.pp_lint diags in
  let has sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length summary
      && (String.sub summary i n = sub || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) ("counted: " ^ summary) true
    (has "2 analysis-gave-up");
  match Dataflow.with_budget 1 (fun () -> Lifecycle.run ~contracts a) with
  | [ f ] when f.Lifecycle.kind = Lifecycle.Gave_up ->
      Alcotest.(check string) "lifecycle kind name" "analysis-gave-up"
        (Lifecycle.kind_name f.Lifecycle.kind)
  | fs ->
      Alcotest.failf "lifecycle: expected one gave-up finding, got %d"
        (List.length fs)

let t_lint_redundant_guard () =
  let diags =
    lint
      [
        ldx Insn.U32 R2 R1 0;
        alui Insn.And R2 255L;
        alui Insn.And R2 255L;
        movi R0 0L;
        exit_;
      ]
  in
  (* only the second mask is provably a no-op *)
  Alcotest.(check (list int)) "second mask redundant" [ 2 ]
    (pcs_of Lint.Redundant_guard diags);
  (* the compiler materialises masks into registers; those count too *)
  let diags =
    lint
      [
        ldx Insn.U32 R2 R1 0;
        alui Insn.And R2 255L;
        movi R3 255L;
        alu Insn.And R2 R3;
        movi R0 0L;
        exit_;
      ]
  in
  Alcotest.(check (list int)) "register-operand mask redundant" [ 3 ]
    (pcs_of Lint.Redundant_guard diags)

let t_lint_ignored_result () =
  let diags =
    lint [ call "bpf_ktime_get_ns"; call "bpf_ktime_get_ns"; exit_ ]
  in
  Alcotest.(check (list int)) "first call ignored" [ 0 ]
    (pcs_of Lint.Ignored_result diags)

let t_lint_result_used_not_flagged () =
  let diags =
    lint
      [
        call "bpf_ktime_get_ns";
        mov R6 R0;
        call "bpf_ktime_get_ns";
        alu Insn.Add R0 R6;
        exit_;
      ]
  in
  Alcotest.(check (list Alcotest.int)) "nothing flagged" []
    (pcs_of Lint.Ignored_result diags);
  Alcotest.(check int) "exit 0" 0 (Lint.exit_code diags)

let t_lint_kinds_cover () =
  (* one program exercising several diagnostic kinds at once; sorted by pc *)
  let diags =
    lint
      [
        sti Insn.U64 R10 (-8) 1L;
        sti Insn.U64 R10 (-8) 2L;
        movi R2 5L;
        jmpi Insn.Eq R2 5L "ok";
        mov R0 R7;
        exit_;
        label "ok";
        ldx Insn.U64 R0 R10 (-8);
        exit_;
      ]
  in
  Alcotest.(check bool) "dead store found" true
    (List.mem Lint.Dead_store (kinds_of diags));
  Alcotest.(check bool) "always-taken found" true
    (List.mem Lint.Always_taken (kinds_of diags));
  Alcotest.(check bool) "unreachable found" true
    (List.mem Lint.Unreachable (kinds_of diags));
  let pcs = List.map (fun (d : Lint.diag) -> d.Lint.pc) diags in
  Alcotest.(check (list int)) "sorted by pc" (List.sort Int.compare pcs) pcs

(* --- lifecycle analysis --------------------------------------------------- *)

let lifecycle items = Lifecycle.run ~contracts (expect_ok items)

let lc_kinds fs = List.map (fun (f : Lifecycle.finding) -> f.Lifecycle.kind) fs

let check_lc name expected fs =
  Alcotest.(check (list string))
    name
    (List.map Lifecycle.kind_name expected)
    (List.map Lifecycle.kind_name (lc_kinds fs))

let t_lc_conditional_leak () =
  let fs =
    lifecycle
      [
        mov R6 R1;
        movi R1 16L;
        call "kflex_malloc";
        jmpi Insn.Eq R0 0L "out";
        mov R7 R0;
        ldx Insn.U32 R2 R6 0;
        jmpi Insn.Eq R2 0L "skip";
        mov R1 R7;
        call "kflex_free";
        label "skip";
        label "out";
        movi R0 0L;
        exit_;
      ]
  in
  check_lc "conditional leak" [ Lifecycle.Leak ] fs;
  let f = List.hd fs in
  Alcotest.(check int) "site = malloc pc" 2 f.Lifecycle.site;
  Alcotest.(check int) "manifests at exit" 10 f.Lifecycle.pc;
  (* the witness is the branch-skipping path, in execution order *)
  Alcotest.(check (list int))
    "path witness" [ 0; 1; 2; 3; 4; 5; 6; 9; 10 ] f.Lifecycle.witness

let t_lc_leak_by_overwrite () =
  let fs =
    lifecycle
      [
        movi R1 8L;
        call "kflex_malloc";
        jmpi Insn.Eq R0 0L "out";
        movi R0 0L;
        label "out";
        movi R0 0L;
        exit_;
      ]
  in
  check_lc "overwrite leak" [ Lifecycle.Leak ] fs;
  let f = List.hd fs in
  Alcotest.(check int) "site" 1 f.Lifecycle.site;
  Alcotest.(check int) "pc = overwriting insn" 3 f.Lifecycle.pc;
  Alcotest.(check (list int)) "witness" [ 0; 1; 2; 3 ] f.Lifecycle.witness

let t_lc_double_free () =
  let fs =
    lifecycle
      [
        movi R1 16L;
        call "kflex_malloc";
        jmpi Insn.Eq R0 0L "out";
        mov R7 R0;
        mov R1 R7;
        call "kflex_free";
        mov R1 R7;
        call "kflex_free";
        label "out";
        movi R0 0L;
        exit_;
      ]
  in
  check_lc "double free" [ Lifecycle.Double_release ] fs;
  let f = List.hd fs in
  Alcotest.(check int) "site" 1 f.Lifecycle.site;
  Alcotest.(check int) "second free pc" 7 f.Lifecycle.pc

let t_lc_use_after_free () =
  let fs =
    lifecycle
      [
        movi R1 8L;
        call "kflex_malloc";
        jmpi Insn.Eq R0 0L "out";
        mov R7 R0;
        mov R1 R7;
        call "kflex_free";
        ldx Insn.U64 R3 R7 0;
        label "out";
        movi R0 0L;
        exit_;
      ]
  in
  check_lc "use after free" [ Lifecycle.Use_after_release ] fs;
  let f = List.hd fs in
  Alcotest.(check int) "site" 1 f.Lifecycle.site;
  Alcotest.(check int) "deref pc" 6 f.Lifecycle.pc

let t_lc_null_deref () =
  let fs =
    lifecycle
      [
        movi R1 8L;
        call "kflex_malloc";
        sti Insn.U32 R0 0 5L;
        mov R1 R0;
        call "kflex_free";
        movi R0 0L;
        exit_;
      ]
  in
  check_lc "null deref" [ Lifecycle.Null_deref ] fs;
  let f = List.hd fs in
  Alcotest.(check int) "site" 1 f.Lifecycle.site;
  Alcotest.(check int) "deref pc" 2 f.Lifecycle.pc;
  Alcotest.(check (list int)) "witness" [ 0; 1; 2 ] f.Lifecycle.witness

let t_lc_clean_checked () =
  check_lc "checked and freed: clean" []
    (lifecycle
       [
         movi R1 8L;
         call "kflex_malloc";
         jmpi Insn.Eq R0 0L "out";
         sti Insn.U32 R0 0 1L;
         mov R1 R0;
         call "kflex_free";
         label "out";
         movi R0 0L;
         exit_;
       ])

let t_lc_spill_reload_clean () =
  (* the binding survives a spill, a clobbering helper call the contract
     registry knows cannot free the block, and a reload *)
  check_lc "spill/reload: clean" []
    (lifecycle
       [
         movi R1 8L;
         call "kflex_malloc";
         jmpi Insn.Eq R0 0L "out";
         stx Insn.U64 R10 (-8) R0;
         call "bpf_ktime_get_ns";
         mov R6 R0;
         ldx Insn.U64 R1 R10 (-8);
         call "kflex_free";
         label "out";
         movi R0 0L;
         exit_;
       ])

let t_lc_escape_untracks () =
  (* pointer arithmetic and heap stores escape the block: never reported *)
  check_lc "escaped block: silent" []
    (lifecycle
       [
         movi R1 8L;
         call "kflex_malloc";
         jmpi Insn.Eq R0 0L "out";
         alui Insn.Add R0 4L;
         label "out";
         movi R0 0L;
         exit_;
       ])

let t_lc_lock_hazard () =
  let fs =
    lifecycle
      ([
         mov R6 R1;
         call "kflex_heap_base";
         mov R7 R0;
         mov R1 R7;
         call "kflex_spin_lock";
         mov R8 R0;
         sti Insn.U64 R10 (-16) 0L;
         sti Insn.U64 R10 (-8) 0L;
         mov R2 R10;
         alui Insn.Add R2 (-16L);
         movi R3 16L;
         movi R4 0L;
         movi R5 0L;
         mov R1 R6;
         call "bpf_sk_lookup_udp";
       ]
      @ [
          jmpi Insn.Eq R0 0L "nosock";
          mov R1 R0;
          call "bpf_sk_release";
          label "nosock";
          mov R1 R8;
          call "kflex_spin_unlock";
          movi R0 0L;
          exit_;
        ])
  in
  check_lc "acquiring helper under spin lock" [ Lifecycle.Lock_hazard ] fs;
  let f = List.hd fs in
  Alcotest.(check int) "site = lock acquisition" 4 f.Lifecycle.site;
  Alcotest.(check int) "hazard at the lookup call" 14 f.Lifecycle.pc

let t_lc_lock_order_inversion () =
  let fs =
    lifecycle
      [
        call "kflex_heap_base";
        mov R6 R0;
        mov R1 R6;
        alui Insn.Add R1 128L;
        call "kflex_spin_lock";
        mov R7 R0;
        mov R1 R6;
        alui Insn.Add R1 64L;
        call "kflex_spin_lock";
        mov R8 R0;
        mov R1 R8;
        call "kflex_spin_unlock";
        mov R1 R7;
        call "kflex_spin_unlock";
        movi R0 0L;
        exit_;
      ]
  in
  check_lc "order inversion" [ Lifecycle.Lock_order ] fs;
  let f = List.hd fs in
  Alcotest.(check int) "site = outer lock" 4 f.Lifecycle.site;
  Alcotest.(check int) "inversion at inner lock" 8 f.Lifecycle.pc

let t_lc_lock_self_deadlock () =
  let fs =
    lifecycle
      [
        call "kflex_heap_base";
        mov R6 R0;
        mov R1 R6;
        alui Insn.Add R1 64L;
        call "kflex_spin_lock";
        mov R7 R0;
        mov R1 R6;
        alui Insn.Add R1 64L;
        call "kflex_spin_lock";
        mov R8 R0;
        mov R1 R8;
        call "kflex_spin_unlock";
        mov R1 R7;
        call "kflex_spin_unlock";
        movi R0 0L;
        exit_;
      ]
  in
  check_lc "self deadlock" [ Lifecycle.Lock_order ] fs;
  Alcotest.(check int) "re-acquisition pc" 8 (List.hd fs).Lifecycle.pc

let t_lc_locks_ordered_clean () =
  check_lc "increasing order: clean" []
    (lifecycle
       [
         call "kflex_heap_base";
         mov R6 R0;
         mov R1 R6;
         call "kflex_spin_lock";
         mov R7 R0;
         mov R1 R6;
         alui Insn.Add R1 64L;
         call "kflex_spin_lock";
         mov R8 R0;
         mov R1 R8;
         call "kflex_spin_unlock";
         mov R1 R7;
         call "kflex_spin_unlock";
         movi R0 0L;
         exit_;
       ])

let t_lc_lock_in_unbounded_loop () =
  (* holding a spin lock across an unbounded-loop back edge stalls the
     cancellation point Kie will place there *)
  let fs =
    lifecycle
      [
        call "kflex_heap_base";
        mov R6 R0;
        mov R1 R6;
        call "kflex_spin_lock";
        mov R7 R0;
        ldx Insn.U64 R8 R6 8;
        label "loop";
        alui Insn.Add R8 1L;
        jmpi Insn.Ne R8 0L "loop";
        mov R1 R7;
        call "kflex_spin_unlock";
        movi R0 0L;
        exit_;
      ]
  in
  Alcotest.(check bool) "hazard reported" true
    (List.mem Lifecycle.Lock_hazard (lc_kinds fs))

let t_lc_chain_unreachable () =
  let an items =
    expect_ok items
  in
  let blocker =
    an [ movi R0 1L; exit_ ] (* always XDP_DROP; never the pass verdict *)
  in
  let downstream =
    an
      [
        movi R1 8L;
        call "kflex_malloc";
        jmpi Insn.Eq R0 0L "out";
        mov R1 R0;
        call "kflex_free";
        label "out";
        movi R0 2L;
        exit_;
      ]
  in
  let pass = Kflex_kernel.Hook.pass_verdict Kflex_kernel.Hook.Xdp in
  let cfs = Lifecycle.run_chain ~contracts ~pass_verdict:pass [ blocker; downstream ] in
  match cfs with
  | [ { Lifecycle.index = 1; finding } ] ->
      Alcotest.(check string)
        "kind" "chain-unreachable"
        (Lifecycle.kind_name finding.Lifecycle.kind);
      Alcotest.(check (list int))
        "witness = blocker exits" [ 1 ] finding.Lifecycle.witness
  | fs ->
      Alcotest.failf "expected exactly one chain finding, got %d" (List.length fs)

let t_lc_chain_reachable_clean () =
  let cond =
    expect_ok
      [
        ldx Insn.U32 R2 R1 0;
        jmpi Insn.Eq R2 0L "drop";
        movi R0 2L;
        exit_;
        label "drop";
        movi R0 1L;
        exit_;
      ]
  in
  let plain = expect_ok [ movi R0 2L; exit_ ] in
  let pass = Kflex_kernel.Hook.pass_verdict Kflex_kernel.Hook.Xdp in
  Alcotest.(check int) "no chain findings" 0
    (List.length (Lifecycle.run_chain ~contracts ~pass_verdict:pass [ cond; plain ]))

(* --- contract registry invariants ---------------------------------------- *)

let t_contract_base_well_formed () =
  Alcotest.(check (list string)) "no violations" []
    (Contract.invariant_errors contracts)

let t_contract_acquire_needs_destructor () =
  let reg =
    Contract.registry
      [
        Contract.make ~name:"acq" ~args:[] ~ret:(Contract.R_obj "x")
          ~eff:Contract.E_acquire ();
      ]
  in
  Alcotest.(check bool) "violation reported" true
    (Contract.invariant_errors reg <> [])

let t_contract_ordinal_mismatch () =
  let reg =
    Contract.registry
      [
        Contract.make ~name:"lk" ~args:[ Contract.A_heap_ptr ]
          ~ret:(Contract.R_obj "l") ~eff:Contract.E_acquire ~destructor:"ulk"
          ~lock_ordinal:0 ();
        Contract.make ~name:"ulk" ~args:[ Contract.A_obj "l" ]
          ~ret:Contract.R_unit ~eff:(Contract.E_release 0) ~lock_ordinal:1 ();
      ]
  in
  Alcotest.(check bool) "ordinal disagreement reported" true
    (List.exists
       (fun m -> String.length m > 0 && String.index_opt m ':' <> None)
       (Contract.invariant_errors reg)
    && Contract.invariant_errors reg <> [])

let t_contract_release_arg_shape () =
  let reg =
    Contract.registry
      [
        Contract.make ~name:"rel" ~args:[ Contract.A_scalar ]
          ~ret:Contract.R_unit ~eff:(Contract.E_release 0) ();
      ]
  in
  Alcotest.(check bool) "release arg must be A_obj" true
    (Contract.invariant_errors reg <> [])

(* Guard semantics: sanitisation is idempotent and lands in-heap. *)
let prop_sanitize_idempotent =
  QCheck.Test.make ~count:500 ~name:"sanitize is idempotent and in-heap"
    QCheck.(map Int64.of_int int)
    (fun addr ->
      let h = Kflex_runtime.Heap.create ~size:65536L () in
      let s1 = Kflex_runtime.Heap.sanitize h addr in
      let s2 = Kflex_runtime.Heap.sanitize h s1 in
      s1 = s2
      &&
      match Kflex_runtime.Heap.offset_of_addr h s1 with
      | Some off -> off >= 0L && off < 65536L
      | None -> false)

(* Admission's allocation, pinned: the minor words of each stage on the
   two cache programs — one [Compile.compile_string], one [Verify.run], one
   [Kflex.admit] (a compiled-program cache hit) and one cache hit through
   [Kflex.jit_cache_key] and [Kflex.compile_cached] — may exceed what they
   measured when admission came to allocate only for its output by at most
   10%. A change that lexes into a list again, emits code through a list of
   items, copies states per write, keeps the per-pc states at admission,
   boxes range words, keeps pc-keyed tables in Kie, or marshals the cache
   key fails here. *)
let t_admission_allocation () =
  let module Hook = Kflex_kernel.Hook in
  let words f =
    let w = Gc.minor_words () in
    ignore (Sys.opaque_identity (f ()));
    Gc.minor_words () -. w
  in
  List.iter
    (fun (name, hook, src, compile_words, verify_words, admit_words, hit_words) ->
      let compile () = Kflex_eclang.Compile.compile_string ~name src in
      let prog = (compile ()).Kflex_eclang.Compile.prog in
      let heap_size = Int64.shift_left 1L 24 in
      let verify () =
        Verify.run ~mode:Verify.Kflex ~contracts:Kflex.contracts
          ~ctx_size:Hook.ctx_size ~heap_size ~sleepable:(Hook.sleepable hook) prog
      in
      let admit () = Kflex.admit ~heap_size ~hook prog in
      (* the first admission compiles into the cache *)
      (match admit () with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s: %a" name Verify.pp_error e);
      let kie =
        match verify () with
        | Ok a -> Kflex_kie.Instrument.run a
        | Error e -> Alcotest.failf "%s: %a" name Verify.pp_error e
      in
      let hit () = Kflex.compile_cached ~key:(Kflex.jit_cache_key kie) kie in
      let check what measured got =
        if got > 1.1 *. measured then
          Alcotest.failf "%s: %s allocated %.0f words, over %.0f + 10%%" name
            what got measured
      in
      check "Compile.compile_string" compile_words (words compile);
      check "Verify.run" verify_words (words verify);
      check "Kflex.admit" admit_words (words admit);
      check "a Jit-cache hit" hit_words (words hit))
    [
      ("memcached", Hook.Xdp, Kflex_apps.Memcached.kflex_source,
        7_287., 16_174., 16_766., 35.);
      ("redis", Hook.Sk_skb, Kflex_apps.Redis.source,
        18_569., 84_483., 86_151., 35.);
    ]

let () =
  Alcotest.run "verifier"
    [
      ( "memory",
        [
          Alcotest.test_case "uninit use" `Quick t_uninit_use;
          Alcotest.test_case "uninit branch" `Quick t_uninit_branch;
          Alcotest.test_case "ctx read ok" `Quick t_ctx_read_ok;
          Alcotest.test_case "ctx oob" `Quick t_ctx_oob;
          Alcotest.test_case "ctx negative" `Quick t_ctx_neg;
          Alcotest.test_case "ctx write" `Quick t_ctx_write;
          Alcotest.test_case "ctx masked var offset" `Quick
            t_ctx_bounded_variable_offset;
          Alcotest.test_case "stack rw" `Quick t_stack_rw;
          Alcotest.test_case "stack oob" `Quick t_stack_oob;
          Alcotest.test_case "stack above fp" `Quick t_stack_above_fp;
          Alcotest.test_case "stack uninit read" `Quick t_stack_uninit_read;
          Alcotest.test_case "stack var offset" `Quick t_stack_var_offset;
          Alcotest.test_case "exit non-scalar" `Quick t_exit_needs_scalar_r0;
        ] );
      ( "heap",
        [
          Alcotest.test_case "heap needs kflex" `Quick t_heap_requires_kflex;
          Alcotest.test_case "scalar deref = formation" `Quick
            t_heap_scalar_deref_ok_kflex;
          Alcotest.test_case "heap_base elidable" `Quick t_heap_base_elidable;
          Alcotest.test_case "offset too far" `Quick t_heap_base_offset_too_far;
          Alcotest.test_case "malloc sized elidable" `Quick
            t_malloc_sized_elidable;
          Alcotest.test_case "stored ptr flag" `Quick t_stored_heap_ptr_flagged;
          Alcotest.test_case "kernel ptr leak" `Quick t_kernel_ptr_leak_to_heap;
          Alcotest.test_case "atomic outside heap" `Quick t_atomic_outside_heap;
        ] );
      ( "helpers",
        [
          Alcotest.test_case "unknown helper" `Quick t_unknown_helper;
          Alcotest.test_case "bad ctx arg" `Quick t_helper_bad_arg;
          Alcotest.test_case "uninit buffer" `Quick t_helper_uninit_stack_buffer;
          Alcotest.test_case "acquire/release" `Quick t_acquire_release_ok;
          Alcotest.test_case "leak at exit" `Quick t_leak_at_exit;
          Alcotest.test_case "leak by clobber" `Quick t_leak_by_clobber;
          Alcotest.test_case "release w/o null check" `Quick
            t_release_without_nullcheck;
          Alcotest.test_case "double release" `Quick t_double_release;
          Alcotest.test_case "obj arithmetic" `Quick t_obj_arithmetic;
          Alcotest.test_case "obj deref" `Quick t_obj_deref;
          Alcotest.test_case "spill/reload obj" `Quick t_spill_reload_obj;
          Alcotest.test_case "partial overwrite obj" `Quick
            t_partial_overwrite_spilled_obj;
        ] );
      ( "loops",
        [
          Alcotest.test_case "bounded ebpf ok" `Quick t_bounded_ebpf_ok;
          Alcotest.test_case "unbounded ebpf rejected" `Quick
            t_unbounded_ebpf_rejected;
          Alcotest.test_case "unbounded kflex reported" `Quick
            t_unbounded_kflex_reported;
          Alcotest.test_case "counter clobbered" `Quick
            t_loop_counter_clobbered_by_call;
          Alcotest.test_case "resource convergence" `Quick
            t_loop_resource_convergence;
          Alcotest.test_case "balanced lock in loop" `Quick
            t_lock_balanced_in_loop;
          Alcotest.test_case "multiple locks" `Quick t_multiple_locks;
          Alcotest.test_case "map lock paired" `Quick t_map_lock_paired;
          Alcotest.test_case "map lock missing unlock" `Quick
            t_map_lock_missing_unlock;
          Alcotest.test_case "map lock one path leaks" `Quick
            t_map_lock_one_path_leaks;
          Alcotest.test_case "map lock spill reload" `Quick
            t_map_lock_spill_reload;
          Alcotest.test_case "map unlock misuse" `Quick t_map_unlock_scalar;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "object table locations" `Quick t_res_at_locations;
          Alcotest.test_case "origin-tracked elision" `Quick
            t_origin_tracking_elision;
          Alcotest.test_case "stack_used" `Quick t_stack_used;
          Alcotest.test_case "widening terminates" `Quick t_widening_terminates;
          Alcotest.test_case "mixed provenance join" `Quick
            t_mixed_provenance_join;
          Alcotest.test_case "heap/scalar join" `Quick
            t_heap_scalar_join_is_unknown;
          Alcotest.test_case "sleepable hooks" `Quick t_sleepable_rejected_on_xdp;
          Alcotest.test_case "dead branch" `Quick t_dead_branch_not_explored;
          QCheck_alcotest.to_alcotest prop_verifier_total;
          QCheck_alcotest.to_alcotest prop_sanitize_idempotent;
          Alcotest.test_case "admission allocation" `Quick
            t_admission_allocation;
        ] );
      ( "tnum elision",
        [
          Alcotest.test_case "xor-masked access needs tnum" `Quick
            t_tnum_elision_gain;
          Alcotest.test_case "corpus never loses elisions" `Quick
            t_corpus_elision_non_decrease;
        ] );
      ( "lint",
        [
          Alcotest.test_case "clean program" `Quick t_lint_clean;
          Alcotest.test_case "unreachable (structural)" `Quick
            t_lint_unreachable_structural;
          Alcotest.test_case "always-taken branch" `Quick t_lint_always_taken;
          Alcotest.test_case "never-taken branch" `Quick t_lint_never_taken;
          Alcotest.test_case "dead store (overwrite)" `Quick
            t_lint_dead_store_overwrite;
          Alcotest.test_case "dead store (at exit)" `Quick
            t_lint_dead_store_at_exit;
          Alcotest.test_case "dead store conservatism" `Quick
            t_lint_dead_store_conservative;
          Alcotest.test_case "dead store past call" `Quick
            t_lint_dead_store_past_call;
          Alcotest.test_case "helper-read store live" `Quick
            t_lint_store_read_by_helper_live;
          Alcotest.test_case "dead store cross-block" `Quick
            t_lint_dead_store_cross_block;
          Alcotest.test_case "ignored result cross-block" `Quick
            t_lint_ignored_result_cross_block;
          Alcotest.test_case "redundant guard" `Quick t_lint_redundant_guard;
          Alcotest.test_case "ignored helper result" `Quick
            t_lint_ignored_result;
          Alcotest.test_case "used result not flagged" `Quick
            t_lint_result_used_not_flagged;
          Alcotest.test_case "kind coverage + ordering" `Quick
            t_lint_kinds_cover;
          Alcotest.test_case "gave up visibly" `Quick t_lint_gave_up;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "conditional leak" `Quick t_lc_conditional_leak;
          Alcotest.test_case "leak by overwrite" `Quick t_lc_leak_by_overwrite;
          Alcotest.test_case "double free" `Quick t_lc_double_free;
          Alcotest.test_case "use after free" `Quick t_lc_use_after_free;
          Alcotest.test_case "null deref" `Quick t_lc_null_deref;
          Alcotest.test_case "checked+freed clean" `Quick t_lc_clean_checked;
          Alcotest.test_case "spill/reload clean" `Quick
            t_lc_spill_reload_clean;
          Alcotest.test_case "escape untracks" `Quick t_lc_escape_untracks;
          Alcotest.test_case "lookup under lock" `Quick t_lc_lock_hazard;
          Alcotest.test_case "lock order inversion" `Quick
            t_lc_lock_order_inversion;
          Alcotest.test_case "self deadlock" `Quick t_lc_lock_self_deadlock;
          Alcotest.test_case "ordered locks clean" `Quick
            t_lc_locks_ordered_clean;
          Alcotest.test_case "lock across back edge" `Quick
            t_lc_lock_in_unbounded_loop;
          Alcotest.test_case "chain unreachable" `Quick t_lc_chain_unreachable;
          Alcotest.test_case "chain reachable clean" `Quick
            t_lc_chain_reachable_clean;
        ] );
      ( "contracts",
        [
          Alcotest.test_case "base registry well-formed" `Quick
            t_contract_base_well_formed;
          Alcotest.test_case "acquire needs destructor" `Quick
            t_contract_acquire_needs_destructor;
          Alcotest.test_case "ordinal mismatch" `Quick t_contract_ordinal_mismatch;
          Alcotest.test_case "release arg shape" `Quick
            t_contract_release_arg_shape;
        ] );
    ]
