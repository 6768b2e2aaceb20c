(* Unit tests for the bytecode substrate: registers, program validation,
   assembler, CFG/dominators/loops, and binary encoding. *)
open Kflex_bpf

let reg = Alcotest.testable Reg.pp Reg.equal
let insn = Alcotest.testable Insn.pp Insn.equal

(* --- registers ---------------------------------------------------------- *)

let test_reg_roundtrip () =
  List.iter
    (fun r -> Alcotest.check reg "roundtrip" r (Reg.of_int (Reg.to_int r)))
    Reg.all

let test_reg_of_int_invalid () =
  Alcotest.check_raises "of_int 11" (Invalid_argument "Reg.of_int: 11")
    (fun () -> ignore (Reg.of_int 11));
  Alcotest.check_raises "of_int -1" (Invalid_argument "Reg.of_int: -1")
    (fun () -> ignore (Reg.of_int (-1)))

let test_reg_classes () =
  Alcotest.(check int) "11 regs" 11 (List.length Reg.all);
  Alcotest.(check int) "6 caller-saved" 6 (List.length Reg.caller_saved);
  Alcotest.(check int) "4 callee-saved" 4 (List.length Reg.callee_saved);
  Alcotest.check reg "fp is r10" Reg.R10 Reg.fp

(* --- program validation -------------------------------------------------- *)

let expect_malformed name insns =
  match Prog.create ~name insns with
  | exception Prog.Malformed _ -> ()
  | _ -> Alcotest.failf "%s: expected Malformed" name

let test_prog_empty () = expect_malformed "empty" [||]

let test_prog_fall_off () =
  expect_malformed "fall-off" [| Insn.Mov (Reg.R0, Insn.Imm 0L) |]

let test_prog_bad_target () =
  expect_malformed "bad-target" [| Insn.Ja 5; Insn.Exit |];
  expect_malformed "neg-target" [| Insn.Ja (-2); Insn.Exit |]

let test_prog_fp_write () =
  expect_malformed "fp-write" [| Insn.Mov (Reg.R10, Insn.Imm 0L); Insn.Exit |];
  expect_malformed "fp-ldx" [| Insn.Ldx (Insn.U64, Reg.R10, Reg.R1, 0); Insn.Exit |]

let test_prog_atomic_width () =
  expect_malformed "atomic-u8"
    [| Insn.Atomic (Insn.Atomic_add, Insn.U8, Reg.R1, 0, Reg.R2); Insn.Exit |];
  expect_malformed "atomic-u16"
    [| Insn.Atomic (Insn.Xchg, Insn.U16, Reg.R1, 0, Reg.R2); Insn.Exit |]

let test_prog_offset_range () =
  expect_malformed "off-too-big"
    [| Insn.Ldx (Insn.U64, Reg.R0, Reg.R1, 40000); Insn.Exit |];
  expect_malformed "off-too-small"
    [| Insn.Stx (Insn.U64, Reg.R1, -40000, Reg.R0); Insn.Exit |]

let test_prog_instrumentation_rejected () =
  expect_malformed "guard" [| Insn.Guard (Insn.Gread, Reg.R1); Insn.Exit |];
  expect_malformed "checkpoint" [| Insn.Checkpoint 0; Insn.Exit |];
  expect_malformed "xstore"
    [| Insn.Xstore (Insn.U64, Reg.R1, 0, Reg.R2); Insn.Exit |];
  (* but accepted with the flag *)
  let p =
    Prog.create ~allow_instrumentation:true ~name:"i"
      [| Insn.Guard (Insn.Gread, Reg.R1); Insn.Exit |]
  in
  Alcotest.(check bool) "flagged" true (Prog.is_instrumented p)

let test_prog_accessors () =
  let insns = [| Insn.Mov (Reg.R0, Insn.Imm 7L); Insn.Exit |] in
  let p = Prog.create ~name:"acc" insns in
  Alcotest.(check string) "name" "acc" (Prog.name p);
  Alcotest.(check int) "length" 2 (Prog.length p);
  Alcotest.check insn "get 0" insns.(0) (Prog.get p 0);
  Alcotest.check_raises "get oob" (Invalid_argument "Prog.get: pc 2") (fun () ->
      ignore (Prog.get p 2));
  (* defensive copy: mutating the source array must not affect the program *)
  insns.(0) <- Insn.Exit;
  Alcotest.check insn "copied" (Insn.Mov (Reg.R0, Insn.Imm 7L)) (Prog.get p 0)

(* Frame slots at the edges: r10 - 512 is byte 0 of slot 0, r10 - 8 starts
   slot 63, and bytes outside the frame belong to no slot. *)
let test_prog_frame_slots () =
  let slots = Alcotest.(list int) and slot = Alcotest.(option int) in
  let check name disp width ~full ~over =
    Alcotest.check slot (name ^ ": full store") full
      (Prog.slot_of_full_store disp width);
    Alcotest.check slots (name ^ ": overlapped") over
      (Prog.overlapping_slots disp width)
  in
  check "wholly below" (-520) 8 ~full:None ~over:[];
  check "one byte below" (-513) 1 ~full:None ~over:[];
  check "straddling the bottom" (-516) 8 ~full:None ~over:[ 0 ];
  check "bottom slot" (-512) 8 ~full:(Some 0) ~over:[ 0 ];
  check "unaligned" (-508) 8 ~full:None ~over:[ 0; 1 ];
  check "narrow" (-512) 4 ~full:None ~over:[ 0 ];
  check "top slot" (-8) 8 ~full:(Some 63) ~over:[ 63 ];
  check "straddling the top" (-4) 8 ~full:None ~over:[ 63 ];
  check "wholly above" 0 8 ~full:None ~over:[]

(* --- assembler ------------------------------------------------------------ *)

let test_asm_labels () =
  let open Asm in
  let p =
    assemble ~name:"l"
      [
        movi Reg.R0 0L;
        ja "end";
        movi Reg.R0 1L;
        label "end";
        exit_;
      ]
  in
  (* the ja must skip exactly one insn *)
  Alcotest.check insn "resolved" (Insn.Ja 1) (Prog.get p 1)

let test_asm_backward_label () =
  let open Asm in
  let p =
    assemble ~name:"b"
      [
        movi Reg.R1 0L;
        label "loop";
        alui Insn.Add Reg.R1 1L;
        jmpi Insn.Lt Reg.R1 5L "loop";
        movi Reg.R0 0L;
        exit_;
      ]
  in
  Alcotest.check insn "back edge" (Insn.Jcond (Insn.Lt, Reg.R1, Insn.Imm 5L, -2))
    (Prog.get p 2)

let test_asm_duplicate_label () =
  Alcotest.check_raises "dup" (Asm.Error "duplicate label x") (fun () ->
      ignore (Asm.assemble ~name:"d" [ Asm.label "x"; Asm.label "x"; Asm.exit_ ]))

let test_asm_undefined_label () =
  Alcotest.check_raises "undef" (Asm.Error "undefined label nope") (fun () ->
      ignore (Asm.assemble ~name:"u" [ Asm.ja "nope"; Asm.exit_ ]))

(* --- CFG -------------------------------------------------------------------- *)

let diamond () =
  let open Asm in
  assemble ~name:"diamond"
    [
      jmpi Insn.Eq Reg.R1 0L "else";
      movi Reg.R0 1L;
      ja "end";
      label "else";
      movi Reg.R0 2L;
      label "end";
      exit_;
    ]

let test_cfg_blocks () =
  let g = Cfg.build (diamond ()) in
  Alcotest.(check int) "4 blocks" 4 (Array.length (Cfg.blocks g));
  let b0 = (Cfg.blocks g).(0) in
  Alcotest.(check (list int)) "entry succs" [ 1; 2 ] b0.Cfg.succs

let test_cfg_dominators () =
  let g = Cfg.build (diamond ()) in
  (* entry dominates everything; the merge block is dominated only by
     itself and the entry *)
  Alcotest.(check bool) "entry dom all" true
    (List.for_all (fun b -> Cfg.dominates g 0 b.Cfg.id) (Array.to_list (Cfg.blocks g)));
  Alcotest.(check bool) "then not dom merge" false (Cfg.dominates g 1 3);
  Alcotest.(check (list int)) "doms of merge" [ 0; 3 ] (Cfg.dominators g 3)

let test_cfg_loop () =
  let open Asm in
  let p =
    assemble ~name:"loop"
      [
        movi Reg.R1 0L;
        label "head";
        alui Insn.Add Reg.R1 1L;
        jmpi Insn.Lt Reg.R1 10L "head";
        movi Reg.R0 0L;
        exit_;
      ]
  in
  let g = Cfg.build p in
  match Cfg.loops g with
  | [ l ] ->
      Alcotest.(check int) "back edge pc" 2 l.Cfg.back_edge_pc;
      Alcotest.(check bool) "header in body" true (List.mem l.Cfg.header l.Cfg.body)
  | ls -> Alcotest.failf "expected 1 loop, got %d" (List.length ls)

let test_cfg_nested_loops () =
  let open Asm in
  let p =
    assemble ~name:"nested"
      [
        movi Reg.R1 0L;
        label "outer";
        movi Reg.R2 0L;
        label "inner";
        alui Insn.Add Reg.R2 1L;
        jmpi Insn.Lt Reg.R2 3L "inner";
        alui Insn.Add Reg.R1 1L;
        jmpi Insn.Lt Reg.R1 3L "outer";
        movi Reg.R0 0L;
        exit_;
      ]
  in
  let g = Cfg.build p in
  let loops = Cfg.loops g in
  Alcotest.(check int) "2 loops" 2 (List.length loops);
  (* innermost first *)
  match loops with
  | [ inner; outer ] ->
      Alcotest.(check bool) "inner smaller" true
        (List.length inner.Cfg.body < List.length outer.Cfg.body)
  | _ -> assert false

let test_cfg_unreachable () =
  let open Asm in
  let p =
    assemble ~name:"unreach"
      [ movi Reg.R0 0L; exit_; movi Reg.R0 1L; exit_ ]
  in
  let g = Cfg.build p in
  Alcotest.(check bool) "b0 reachable" true (Cfg.reachable g 0);
  Alcotest.(check bool) "b1 unreachable" false (Cfg.reachable g 1)

(* Random well-formed control flow: moves, jumps, conditional jumps and
   exits, jumping anywhere, ending in an exit. *)
let arb_cfg_prog =
  let open QCheck in
  let gen =
    Gen.(
      int_range 2 30 >>= fun n ->
      let insn pc =
        if pc = n - 1 then return Insn.Exit
        else
          int_range 0 3 >>= fun kind ->
          int_range 0 (n - 1) >|= fun t ->
          match kind with
          | 0 -> Insn.Mov (Reg.R0, Insn.Imm 1L)
          | 1 -> Insn.Ja (t - pc - 1)
          | 2 -> Insn.Jcond (Insn.Eq, Reg.R0, Insn.Imm 0L, t - pc - 1)
          | _ -> Insn.Exit
      in
      flatten_l (List.init n insn) >|= fun l ->
      Prog.create ~name:"cfg" (Array.of_list l))
  in
  make ~print:(fun p -> Format.asprintf "%a" Prog.pp p) gen

(* The reference: [a] dominates a reachable [b] when [a = b] or [b] cannot
   be reached from the entry once [a] is removed; natural loops follow
   their definition over lists, in [Cfg.loops]' order. *)
let prop_cfg_reference =
  QCheck.Test.make ~count:500 ~name:"dominance and loops = list reference"
    arb_cfg_prog (fun p ->
      let g = Cfg.build p in
      let blocks = Array.to_list (Cfg.blocks g) in
      let nb = List.length blocks in
      let succs b = (Cfg.blocks g).(b).Cfg.succs in
      let preds b =
        List.filter_map
          (fun (x : Cfg.block) -> if List.mem b x.Cfg.succs then Some x.Cfg.id else None)
          blocks
      in
      let rec reach seen next = function
        | [] -> seen
        | b :: rest ->
            if List.mem b seen then reach seen next rest
            else reach (b :: seen) next (next b @ rest)
      in
      let reachable = reach [] succs [ 0 ] in
      let dom a b =
        List.mem b reachable
        && (a = b
           || not (List.mem b (reach [] (fun x -> List.filter (( <> ) a) (succs x))
                                (if a = 0 then [] else [ 0 ]))))
      in
      let doms_agree =
        List.for_all
          (fun a -> List.for_all (fun b -> Cfg.dominates g a b = dom a b) (List.init nb Fun.id))
          (List.init nb Fun.id)
        && List.for_all
             (fun b ->
               Cfg.dominators g b = List.filter (fun a -> dom a b) (List.init nb Fun.id))
             (List.init nb Fun.id)
      in
      let loops =
        List.concat_map
          (fun (b : Cfg.block) ->
            if not (List.mem b.Cfg.id reachable) then []
            else
              List.filter_map
                (fun h ->
                  if not (dom h b.Cfg.id) then None
                  else
                    let inside =
                      h :: reach [] (fun x -> if x = h then [] else preds x) [ b.Cfg.id ]
                    in
                    Some
                      {
                        Cfg.header = h;
                        back_edge_src = b.Cfg.id;
                        back_edge_pc = b.Cfg.last;
                        body = List.sort_uniq compare inside;
                      })
                b.Cfg.succs)
          blocks
        |> List.rev
        |> List.stable_sort (fun x y ->
               compare (List.length x.Cfg.body) (List.length y.Cfg.body))
      in
      doms_agree && Cfg.loops g = loops)

(* --- encoding ----------------------------------------------------------------- *)

let arb_insn =
  let open QCheck in
  let reg_g = Gen.map Reg.of_int (Gen.int_range 0 10) in
  let wreg_g = Gen.map Reg.of_int (Gen.int_range 0 9) in
  let size_g = Gen.oneofl [ Insn.U8; Insn.U16; Insn.U32; Insn.U64 ] in
  let asize_g = Gen.oneofl [ Insn.U32; Insn.U64 ] in
  let off_g = Gen.int_range (-32768) 32767 in
  let imm_g = Gen.map Int64.of_int Gen.int in
  let src_g =
    Gen.oneof [ Gen.map (fun r -> Insn.Reg r) reg_g; Gen.map (fun i -> Insn.Imm i) imm_g ]
  in
  let alu_g =
    Gen.oneofl
      [ Insn.Add; Insn.Sub; Insn.Mul; Insn.Div; Insn.Mod; Insn.And; Insn.Or;
        Insn.Xor; Insn.Lsh; Insn.Rsh; Insn.Arsh ]
  in
  let cond_g =
    Gen.oneofl
      [ Insn.Eq; Insn.Ne; Insn.Lt; Insn.Le; Insn.Gt; Insn.Ge; Insn.Slt;
        Insn.Sle; Insn.Sgt; Insn.Sge; Insn.Set ]
  in
  let atomic_g =
    Gen.oneofl
      [ Insn.Atomic_add; Insn.Atomic_or; Insn.Atomic_and; Insn.Atomic_xor;
        Insn.Fetch_add; Insn.Fetch_or; Insn.Fetch_and; Insn.Fetch_xor;
        Insn.Xchg; Insn.Cmpxchg ]
  in
  let gen =
    Gen.oneof
      [
        Gen.map3 (fun op d s -> Insn.Alu (op, d, s)) alu_g wreg_g src_g;
        Gen.map (fun d -> Insn.Neg d) wreg_g;
        Gen.map2 (fun d s -> Insn.Mov (d, s)) wreg_g src_g;
        Gen.map3 (fun (sz, d) s off -> Insn.Ldx (sz, d, s, off))
          (Gen.pair size_g wreg_g) reg_g off_g;
        Gen.map3 (fun (sz, d) off s -> Insn.Stx (sz, d, off, s))
          (Gen.pair size_g reg_g) off_g reg_g;
        Gen.map3 (fun (sz, d) off imm -> Insn.St (sz, d, off, imm))
          (Gen.pair size_g reg_g) off_g imm_g;
        Gen.map3 (fun (op, sz) (d, s) off -> Insn.Atomic (op, sz, d, off, s))
          (Gen.pair atomic_g asize_g) (Gen.pair reg_g reg_g) off_g;
        Gen.map (fun off -> Insn.Ja off) Gen.small_signed_int;
        Gen.map3 (fun (c, a) s off -> Insn.Jcond (c, a, s, off))
          (Gen.pair cond_g reg_g) src_g Gen.small_signed_int;
        Gen.map (fun n -> Insn.Call ("helper_" ^ string_of_int n)) Gen.small_nat;
        Gen.return Insn.Exit;
        Gen.map (fun r -> Insn.Guard (Insn.Gread, r)) wreg_g;
        Gen.map (fun r -> Insn.Guard (Insn.Gwrite, r)) wreg_g;
        Gen.map (fun id -> Insn.Checkpoint id) Gen.small_nat;
        Gen.map3 (fun (sz, d) off s -> Insn.Xstore (sz, d, off, s))
          (Gen.pair size_g reg_g) off_g reg_g;
      ]
  in
  make ~print:(Format.asprintf "%a" Insn.pp) gen

let prop_encode_roundtrip =
  QCheck.Test.make ~count:500 ~name:"insn encode/decode roundtrip" arb_insn
    (fun i ->
      let b = Buffer.create 32 in
      Encode.encode_insn b i;
      let decoded, consumed = Encode.decoded_size (Buffer.contents b) 0 in
      Insn.equal i decoded && consumed = Buffer.length b)

let test_encode_program () =
  let p = diamond () in
  let p' = Encode.decode (Encode.encode p) in
  Alcotest.(check string) "name" (Prog.name p) (Prog.name p');
  Alcotest.(check int) "len" (Prog.length p) (Prog.length p');
  Array.iteri
    (fun i x -> Alcotest.check insn "insn" x (Prog.get p' i))
    (Prog.insns p)

let test_decode_garbage () =
  (match Encode.decode "garbage!" with
  | exception Encode.Decode_error _ -> ()
  | _ -> Alcotest.fail "expected Decode_error");
  let good = Encode.encode (diamond ()) in
  let bad = String.sub good 0 (String.length good - 3) in
  match Encode.decode bad with
  | exception Encode.Decode_error _ -> ()
  | _ -> Alcotest.fail "expected Decode_error on truncation"

let () =
  Alcotest.run "bpf"
    [
      ( "reg",
        [
          Alcotest.test_case "roundtrip" `Quick test_reg_roundtrip;
          Alcotest.test_case "of_int invalid" `Quick test_reg_of_int_invalid;
          Alcotest.test_case "classes" `Quick test_reg_classes;
        ] );
      ( "prog",
        [
          Alcotest.test_case "empty" `Quick test_prog_empty;
          Alcotest.test_case "fall-off-end" `Quick test_prog_fall_off;
          Alcotest.test_case "bad jump target" `Quick test_prog_bad_target;
          Alcotest.test_case "fp write" `Quick test_prog_fp_write;
          Alcotest.test_case "atomic width" `Quick test_prog_atomic_width;
          Alcotest.test_case "offset range" `Quick test_prog_offset_range;
          Alcotest.test_case "instrumentation" `Quick
            test_prog_instrumentation_rejected;
          Alcotest.test_case "accessors" `Quick test_prog_accessors;
          Alcotest.test_case "frame slots at the edges" `Quick
            test_prog_frame_slots;
        ] );
      ( "asm",
        [
          Alcotest.test_case "forward label" `Quick test_asm_labels;
          Alcotest.test_case "backward label" `Quick test_asm_backward_label;
          Alcotest.test_case "duplicate label" `Quick test_asm_duplicate_label;
          Alcotest.test_case "undefined label" `Quick test_asm_undefined_label;
        ] );
      ( "cfg",
        [
          Alcotest.test_case "blocks" `Quick test_cfg_blocks;
          Alcotest.test_case "dominators" `Quick test_cfg_dominators;
          Alcotest.test_case "loop" `Quick test_cfg_loop;
          Alcotest.test_case "nested loops" `Quick test_cfg_nested_loops;
          Alcotest.test_case "unreachable" `Quick test_cfg_unreachable;
          QCheck_alcotest.to_alcotest prop_cfg_reference;
        ] );
      ( "encode",
        [
          QCheck_alcotest.to_alcotest prop_encode_roundtrip;
          Alcotest.test_case "program roundtrip" `Quick test_encode_program;
          Alcotest.test_case "garbage" `Quick test_decode_garbage;
        ] );
    ]
