(* Property tests for the verifier's value-range domain: every transfer
   function must be a sound over-approximation, and branch refinement must
   keep all models of the assumed condition. *)
open Kflex_verifier

let arb_i64 =
  QCheck.(
    make
      ~print:(Printf.sprintf "%Ld")
      Gen.(
        oneof
          [
            map Int64.of_int int;
            oneofl
              [ 0L; 1L; -1L; Int64.max_int; Int64.min_int; 0xffL; 4096L;
                -4096L ];
          ]))

(* A range built from two concrete values (both of which are members). *)
let arb_range2 =
  QCheck.(
    map
      (fun (a, b) -> ((a, b), Range.join (Range.const a) (Range.const b)))
      (pair arb_i64 arb_i64))

(* Membership in the full combined domain: interval bounds AND known bits.
   Using this in every soundness property below means the tnum half of each
   transfer function is checked by the same models as the interval half. *)
let in_range v (r : Range.t) =
  Int64.unsigned_compare (Range.umin r) v <= 0
  && Int64.unsigned_compare v (Range.umax r) <= 0
  && Range.smin r <= v && v <= Range.smax r
  && Tnum.contains (Range.bits r) v

let ops : (string * (Range.t -> Range.t -> Range.t) * (int64 -> int64 -> int64)) list
    =
  [
    ("add", Range.add, Int64.add);
    ("sub", Range.sub, Int64.sub);
    ("mul", Range.mul, Int64.mul);
    ("div", Range.div, fun a b -> if b = 0L then 0L else Int64.unsigned_div a b);
    ("rem", Range.rem, fun a b -> if b = 0L then a else Int64.unsigned_rem a b);
    ("and", Range.logand, Int64.logand);
    ("or", Range.logor, Int64.logor);
    ("xor", Range.logxor, Int64.logxor);
    ("shl", Range.shl, fun a b -> Int64.shift_left a (Int64.to_int b land 63));
    ( "shr",
      Range.lshr,
      fun a b -> Int64.shift_right_logical a (Int64.to_int b land 63) );
    ("ashr", Range.ashr, fun a b -> Int64.shift_right a (Int64.to_int b land 63));
  ]

let soundness_tests =
  List.map
    (fun (name, abs, conc) ->
      QCheck.Test.make ~count:1000 ~name:("soundness " ^ name)
        QCheck.(pair arb_range2 arb_range2)
        (fun (((x1, x2), rx), ((y1, y2), ry)) ->
          let res = abs rx ry in
          List.for_all
            (fun x -> List.for_all (fun y -> in_range (conc x y) res) [ y1; y2 ])
            [ x1; x2 ]))
    ops

let conds =
  [
    (Kflex_bpf.Insn.Eq, fun a b -> Int64.equal a b);
    (Kflex_bpf.Insn.Ne, fun a b -> not (Int64.equal a b));
    (Kflex_bpf.Insn.Lt, fun a b -> Int64.unsigned_compare a b < 0);
    (Kflex_bpf.Insn.Le, fun a b -> Int64.unsigned_compare a b <= 0);
    (Kflex_bpf.Insn.Gt, fun a b -> Int64.unsigned_compare a b > 0);
    (Kflex_bpf.Insn.Ge, fun a b -> Int64.unsigned_compare a b >= 0);
    (Kflex_bpf.Insn.Slt, fun a b -> Int64.compare a b < 0);
    (Kflex_bpf.Insn.Sle, fun a b -> Int64.compare a b <= 0);
    (Kflex_bpf.Insn.Sgt, fun a b -> Int64.compare a b > 0);
    (Kflex_bpf.Insn.Sge, fun a b -> Int64.compare a b >= 0);
  ]

(* refinement soundness: models of the condition survive refinement *)
let refine_tests =
  List.map
    (fun (cond, holds) ->
      let name =
        Format.asprintf "refine %a" Kflex_bpf.Insn.pp_cond cond
      in
      QCheck.Test.make ~count:1000 ~name
        QCheck.(pair arb_range2 arb_range2)
        (fun (((x1, x2), rx), ((y1, y2), ry)) ->
          let models =
            List.concat_map
              (fun x ->
                List.filter_map
                  (fun y -> if holds x y then Some (x, y) else None)
                  [ y1; y2 ])
              [ x1; x2 ]
          in
          match Range.refine cond rx ry with
          | None -> models = [] (* dead branch must really have no models *)
          | Some (rx', ry') ->
              List.for_all
                (fun (x, y) -> in_range x rx' && in_range y ry')
                models))
    conds

(* ---- direct Tnum properties -------------------------------------------- *)

(* A tnum built from two concrete witnesses (both of which are members). *)
let arb_tnum2 =
  QCheck.(
    map
      (fun (a, b) -> ((a, b), Tnum.union (Tnum.const a) (Tnum.const b)))
      (pair arb_i64 arb_i64))

let tnum_ops : (string * (Tnum.t -> Tnum.t -> Tnum.t) * (int64 -> int64 -> int64)) list
    =
  [
    ("add", Tnum.add, Int64.add);
    ("sub", Tnum.sub, Int64.sub);
    ("mul", Tnum.mul, Int64.mul);
    ("div", Tnum.div, fun a b -> if b = 0L then 0L else Int64.unsigned_div a b);
    ("rem", Tnum.rem, fun a b -> if b = 0L then a else Int64.unsigned_rem a b);
    ("and", Tnum.logand, Int64.logand);
    ("or", Tnum.logor, Int64.logor);
    ("xor", Tnum.logxor, Int64.logxor);
    ("shl", Tnum.shl, fun a b -> Int64.shift_left a (Int64.to_int b land 63));
    ( "shr",
      Tnum.lshr,
      fun a b -> Int64.shift_right_logical a (Int64.to_int b land 63) );
    ("ashr", Tnum.ashr, fun a b -> Int64.shift_right a (Int64.to_int b land 63));
  ]

let tnum_soundness_tests =
  List.map
    (fun (name, abs, conc) ->
      QCheck.Test.make ~count:1000 ~name:("tnum soundness " ^ name)
        QCheck.(pair arb_tnum2 arb_tnum2)
        (fun (((x1, x2), tx), ((y1, y2), ty)) ->
          let res = abs tx ty in
          List.for_all
            (fun x ->
              List.for_all (fun y -> Tnum.contains res (conc x y)) [ y1; y2 ])
            [ x1; x2 ]))
    tnum_ops

let prop_tnum_neg =
  QCheck.Test.make ~count:1000 ~name:"tnum soundness neg" arb_tnum2
    (fun ((x1, x2), tx) ->
      let res = Tnum.neg tx in
      List.for_all (fun x -> Tnum.contains res (Int64.neg x)) [ x1; x2 ])

let prop_tnum_const_exact =
  QCheck.Test.make ~count:500 ~name:"tnum const ops are exact"
    QCheck.(pair arb_i64 arb_i64)
    (fun (a, b) ->
      List.for_all
        (fun (name, abs, conc) ->
          (* div/rem deliberately degrade to unknown (see tnum.mli) *)
          name = "div" || name = "rem"
          || Tnum.is_const (abs (Tnum.const a) (Tnum.const b)) = Some (conc a b))
        tnum_ops)

let prop_tnum_range =
  QCheck.Test.make ~count:1000 ~name:"tnum range contains the interval"
    QCheck.(triple arb_i64 arb_i64 arb_i64)
    (fun (a, b, c) ->
      let sorted = List.sort Int64.unsigned_compare [ a; b; c ] in
      match sorted with
      | [ lo; mid; hi ] ->
          let t = Tnum.range lo hi in
          Tnum.contains t lo && Tnum.contains t mid && Tnum.contains t hi
      | _ -> false)

let prop_tnum_lattice =
  QCheck.Test.make ~count:1000 ~name:"tnum union/intersect/subset agree"
    QCheck.(pair arb_tnum2 arb_tnum2)
    (fun (((x1, x2), tx), ((y1, y2), ty)) ->
      let u = Tnum.union tx ty in
      List.for_all (Tnum.contains u) [ x1; x2; y1; y2 ]
      && Tnum.subset tx u && Tnum.subset ty u
      &&
      match Tnum.intersect tx ty with
      | Some i ->
          List.for_all
            (fun w ->
              Tnum.contains i w = (Tnum.contains tx w && Tnum.contains ty w))
            [ x1; x2; y1; y2 ]
      | None ->
          (* empty intersection: no common member among the witnesses *)
          not (List.exists (fun w -> Tnum.contains ty w) [ x1; x2 ])
          || not (List.exists (fun w -> Tnum.contains tx w) [ y1; y2 ]))

let prop_tnum_within_mask =
  QCheck.Test.make ~count:1000 ~name:"within_mask implies land is identity"
    QCheck.(pair arb_tnum2 arb_i64)
    (fun (((x1, x2), tx), m) ->
      (not (Tnum.within_mask tx m))
      || List.for_all (fun x -> Int64.logand x m = x) [ x1; x2 ])

(* refine and negate_cond partition concrete pairs: exactly one of the two
   refinements accepts (a, b), and the accepting one admits it. *)
let prop_refine_negate_consistent =
  QCheck.Test.make ~count:1000 ~name:"refine/negate_cond partition constants"
    QCheck.(pair arb_i64 arb_i64)
    (fun (a, b) ->
      List.for_all
        (fun (c, holds) ->
          let ra = Range.const a and rb = Range.const b in
          let pos = Range.refine c ra rb in
          let neg = Range.refine (Range.negate_cond c) ra rb in
          let admits = function
            | Some (ra', rb') -> in_range a ra' && in_range b rb'
            | None -> false
          in
          if holds a b then admits pos && neg = None
          else admits neg && pos = None)
        conds)

let prop_neg_sound =
  QCheck.Test.make ~count:1000 ~name:"soundness neg" arb_range2
    (fun ((x1, x2), rx) ->
      let res = Range.neg rx in
      List.for_all (fun x -> in_range (Int64.neg x) res) [ x1; x2 ])

let prop_negate_cond =
  QCheck.Test.make ~count:500 ~name:"negate_cond is boolean negation"
    QCheck.(pair arb_i64 arb_i64)
    (fun (a, b) ->
      List.for_all
        (fun (c, holds) ->
          match c with
          | Kflex_bpf.Insn.Set -> true (* Set has no exact negation *)
          | _ ->
              let neg = Range.negate_cond c in
              let holds_neg =
                List.assoc neg conds
              in
              holds a b <> holds_neg a b)
        conds)

let prop_join_subset =
  QCheck.Test.make ~count:500 ~name:"join is an upper bound"
    QCheck.(pair arb_range2 arb_range2)
    (fun ((_, rx), (_, ry)) ->
      let j = Range.join rx ry in
      Range.subset rx j && Range.subset ry j)

let prop_const_exact =
  QCheck.Test.make ~count:500 ~name:"const ops are exact"
    QCheck.(pair arb_i64 arb_i64)
    (fun (a, b) ->
      List.for_all
        (fun (_, abs, conc) ->
          Range.is_const (abs (Range.const a) (Range.const b))
          = Some (conc a b))
        ops)

let test_fits_unsigned () =
  let r = Range.unsigned 10L 100L in
  Alcotest.(check bool) "inside" true (Range.fits_unsigned r ~lo:0L ~hi:100L);
  Alcotest.(check bool) "tight" true (Range.fits_unsigned r ~lo:10L ~hi:100L);
  Alcotest.(check bool) "above" false (Range.fits_unsigned r ~lo:0L ~hi:99L);
  Alcotest.(check bool) "below" false (Range.fits_unsigned r ~lo:11L ~hi:100L);
  Alcotest.(check bool) "top never fits" false
    (Range.fits_unsigned Range.top ~lo:0L ~hi:Int64.max_int)

let test_masking_bounds () =
  (* the guard-elision pattern: (x & 1023) * 8 + 64 is within [64, 8248] *)
  let x = Range.top in
  let masked = Range.logand x (Range.const 1023L) in
  let scaled = Range.mul masked (Range.const 8L) in
  let off = Range.add scaled (Range.const 64L) in
  Alcotest.(check bool) "fits heap" true
    (Range.fits_unsigned off ~lo:0L ~hi:16384L)

let () =
  Alcotest.run "range"
    ([
       ( "unit",
         [
           Alcotest.test_case "fits_unsigned" `Quick test_fits_unsigned;
           Alcotest.test_case "mask-scale-add bounds" `Quick test_masking_bounds;
         ] );
     ]
    @ [
        ( "props",
          List.map QCheck_alcotest.to_alcotest
            (soundness_tests @ refine_tests
            @ [
                prop_negate_cond; prop_join_subset; prop_const_exact;
                prop_neg_sound; prop_refine_negate_consistent;
              ]) );
        ( "tnum props",
          List.map QCheck_alcotest.to_alcotest
            (tnum_soundness_tests
            @ [
                prop_tnum_neg; prop_tnum_const_exact; prop_tnum_range;
                prop_tnum_lattice; prop_tnum_within_mask;
              ]) );
      ])
