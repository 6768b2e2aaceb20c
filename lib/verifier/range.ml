type t = {
  umin : int64;
  umax : int64;
  smin : int64;
  smax : int64;
  bits : Tnum.t;
}

let u64_max = -1L (* 0xffff...ff as unsigned *)
let ucmp = Int64.unsigned_compare
let umin_ a b = if ucmp a b <= 0 then a else b
let umax_ a b = if ucmp a b >= 0 then a else b
let smin_ = Int64.min
let smax_ = Int64.max

(* The known-bits half of the domain can be switched off to measure what it
   buys (the interval-only vs interval+tnum elision delta in the bench
   ablation). When disabled every value carries Tnum.unknown and the domain
   degenerates to the seed's pure interval analysis. *)
let tnum_enabled = ref true
let set_tnum enabled = tnum_enabled := enabled
let tnum_on () = !tnum_enabled

let top =
  {
    umin = 0L;
    umax = u64_max;
    smin = Int64.min_int;
    smax = Int64.max_int;
    bits = Tnum.unknown;
  }

(* [r] with new bounds; [r] itself when they are its own, so the transfer
   functions allocate only what changes. *)
let with_unsigned r umin umax =
  if Int64.equal umin r.umin && Int64.equal umax r.umax then r
  else { r with umin; umax }

let with_signed r smin smax =
  if Int64.equal smin r.smin && Int64.equal smax r.smax then r
  else { r with smin; smax }

let with_bits r bits = if Tnum.equal bits r.bits then r else { r with bits }

(* Propagate information between the signed and unsigned views, following the
   same reasoning as the eBPF verifier's __reg_deduce_bounds. *)
let deduce r =
  let r =
    (* Signed bounds with the same sign give unsigned bounds directly (both
       negative: as unsigned they keep their order). *)
    if r.smin >= 0L || r.smax < 0L then
      with_unsigned r (umax_ r.umin r.smin) (umin_ r.umax r.smax)
    else r
  in
  (* Unsigned bounds that fit in the positive signed half refine the signed
     view; likewise when both are in the negative half. *)
  if ucmp r.umax Int64.max_int <= 0 || ucmp r.umin Int64.max_int > 0 then
    with_signed r (smax_ r.smin r.umin) (smin_ r.smax r.umax)
  else r

let is_empty r = ucmp r.umin r.umax > 0 || r.smin > r.smax

(* Bidirectional bounds synchronisation (the reg_bounds_sync analogue):
   known bits narrow the unsigned interval ([umin >= value],
   [umax <= value lor mask]), then the interval pins high bits back into the
   tnum via tnum_range intersection. A known-bits contradiction is reported
   as an empty interval so callers share one emptiness test. *)
let sync r =
  let r = deduce r in
  if not !tnum_enabled then with_bits r Tnum.unknown
  else if is_empty r then r
  else
    let r =
      deduce
        (with_unsigned r
           (umax_ r.umin (Tnum.umin r.bits))
           (umin_ r.umax (Tnum.umax r.bits)))
    in
    if is_empty r then r
    else
      match Tnum.intersect r.bits (Tnum.range r.umin r.umax) with
      | Some bits -> with_bits r bits
      | None -> { r with umin = 1L; umax = 0L }

(* For transfer functions: both halves over-approximate the same concrete
   result set, so their intersection cannot be empty — but stay defensive
   and fall back to the interval half alone rather than produce nonsense. *)
let syncd r =
  let r' = sync r in
  if is_empty r' then deduce { r with bits = Tnum.unknown } else r'

let const v =
  {
    umin = v;
    umax = v;
    smin = v;
    smax = v;
    bits = (if !tnum_enabled then Tnum.const v else Tnum.unknown);
  }

let make ?(umin = 0L) ?(umax = u64_max) ?(smin = Int64.min_int)
    ?(smax = Int64.max_int) () =
  let r = sync { umin; umax; smin; smax; bits = Tnum.unknown } in
  if is_empty r then top else r

let unsigned lo hi = make ~umin:lo ~umax:hi ()

let top_with_bits bits = syncd { top with bits }

let is_const r = if r.umin = r.umax then Some r.umin else None

let bits r = r.bits

let equal a b =
  a == b
  || a.umin = b.umin && a.umax = b.umax && a.smin = b.smin && a.smax = b.smax
  && Tnum.equal a.bits b.bits

let subset a b =
  ucmp b.umin a.umin <= 0 && ucmp a.umax b.umax <= 0 && b.smin <= a.smin
  && a.smax <= b.smax
  && Tnum.subset a.bits b.bits

(* No sync on join: the componentwise bounds keep join a syntactic upper
   bound of both operands (subset a (join a b) holds field by field). When
   [a] already covers [b], every component of the join is [a]'s, and [a]
   itself is returned so that unchanged states stay shared. *)
let join a b =
  if a == b || subset b a then a
  else
    {
      umin = umin_ a.umin b.umin;
      umax = umax_ a.umax b.umax;
      smin = smin_ a.smin b.smin;
      smax = smax_ a.smax b.smax;
      bits = Tnum.union a.bits b.bits;
    }

let fits_unsigned r ~lo ~hi = ucmp lo r.umin <= 0 && ucmp r.umax hi <= 0

(* Exact evaluation when both operands are singletons. *)
let try_const2 f a b =
  if Int64.equal a.umin a.umax && Int64.equal b.umin b.umax then
    Some (const (f a.umin b.umin))
  else None

let add a b =
  match try_const2 Int64.add a b with
  | Some r -> r
  | None ->
      let uov =
        (* unsigned overflow if umax_a + umax_b wraps *)
        ucmp (Int64.add a.umax b.umax) a.umax < 0
      in
      let umin, umax =
        if uov then (0L, u64_max) else (Int64.add a.umin b.umin, Int64.add a.umax b.umax)
      in
      let sov =
        (* signed overflow detection on both endpoints *)
        let lo = Int64.add a.smin b.smin and hi = Int64.add a.smax b.smax in
        let lo_ov = a.smin < 0L && b.smin < 0L && lo >= 0L in
        let hi_ov = a.smax >= 0L && b.smax >= 0L && hi < 0L in
        lo_ov || hi_ov
      in
      let smin, smax =
        if sov then (Int64.min_int, Int64.max_int)
        else (Int64.add a.smin b.smin, Int64.add a.smax b.smax)
      in
      syncd { umin; umax; smin; smax; bits = Tnum.add a.bits b.bits }

let sub a b =
  match try_const2 Int64.sub a b with
  | Some r -> r
  | None ->
      let umin, umax =
        if ucmp a.umin b.umax >= 0 then (Int64.sub a.umin b.umax, Int64.sub a.umax b.umin)
        else (0L, u64_max)
      in
      let lo = Int64.sub a.smin b.smax and hi = Int64.sub a.smax b.smin in
      let lo_ov = a.smin < 0L && b.smax >= 0L && lo >= 0L in
      let hi_ov = a.smax >= 0L && b.smin < 0L && hi < 0L in
      let smin, smax =
        if lo_ov || hi_ov then (Int64.min_int, Int64.max_int) else (lo, hi)
      in
      syncd { umin; umax; smin; smax; bits = Tnum.sub a.bits b.bits }

let fits_u31 v = ucmp v 0x7fff_ffffL <= 0

let mul a b =
  match try_const2 Int64.mul a b with
  | Some r -> r
  | None ->
      let bits = Tnum.mul a.bits b.bits in
      if fits_u31 a.umax && fits_u31 b.umax then
        let umin = Int64.mul a.umin b.umin and umax = Int64.mul a.umax b.umax in
        syncd { umin; umax; smin = 0L; smax = umax; bits }
      else syncd { top with bits }

let udiv x y = if y = 0L then 0L else Int64.unsigned_div x y
let urem x y = if y = 0L then x else Int64.unsigned_rem x y

let div a b =
  match try_const2 udiv a b with
  | Some r -> r
  | None -> (
      match is_const b with
      | Some c when c <> 0L ->
          syncd { top with umin = udiv a.umin c; umax = udiv a.umax c }
      | _ -> top)

let rem a b =
  match try_const2 urem a b with
  | Some r -> r
  | None -> (
      match is_const b with
      | Some c when c <> 0L ->
          (* result in [0, c-1], and never exceeds the dividend *)
          syncd { top with umin = 0L; umax = umin_ (Int64.sub c 1L) a.umax }
      | _ -> top)

let logand a b =
  match try_const2 Int64.logand a b with
  | Some r -> r
  | None ->
      (* x land y <=u min(x, y) for any operands *)
      syncd
        { top with umin = 0L; umax = umin_ a.umax b.umax;
          bits = Tnum.logand a.bits b.bits }

let logor a b =
  match try_const2 Int64.logor a b with
  | Some r -> r
  | None ->
      (* x lor y >=u max(x, y); upper bound: next power-of-two envelope *)
      let rec pow2_envelope v p =
        if ucmp v p <= 0 || p = u64_max then p
        else pow2_envelope v (Int64.logor (Int64.shift_left p 1) 1L)
      in
      let env = pow2_envelope (umax_ a.umax b.umax) 1L in
      syncd
        { top with umin = umax_ a.umin b.umin; umax = env;
          bits = Tnum.logor a.bits b.bits }

let logxor a b =
  match try_const2 Int64.logxor a b with
  | Some r -> r
  | None ->
      (* intervals say nothing about xor; the known bits often do — this is
         the textbook case where the tnum half carries the analysis *)
      syncd { top with bits = Tnum.logxor a.bits b.bits }

let shl a b =
  match try_const2 (fun x y -> Int64.shift_left x (Int64.to_int y land 63)) a b with
  | Some r -> r
  | None -> (
      let bits = Tnum.shl a.bits b.bits in
      match is_const b with
      | Some k when ucmp k 63L <= 0 ->
          let k = Int64.to_int k in
          if k = 0 then a
          else if ucmp a.umax (Int64.shift_right_logical u64_max k) <= 0 then
            syncd
              { top with umin = Int64.shift_left a.umin k;
                umax = Int64.shift_left a.umax k; bits }
          else syncd { top with bits }
      | _ -> syncd { top with bits })

let lshr a b =
  match
    try_const2 (fun x y -> Int64.shift_right_logical x (Int64.to_int y land 63)) a b
  with
  | Some r -> r
  | None -> (
      let bits = Tnum.lshr a.bits b.bits in
      match is_const b with
      | Some k when ucmp k 63L <= 0 ->
          let k = Int64.to_int k in
          syncd
            { top with umin = Int64.shift_right_logical a.umin k;
              umax = Int64.shift_right_logical a.umax k; bits }
      | _ -> syncd { top with bits })

let ashr a b =
  match
    try_const2 (fun x y -> Int64.shift_right x (Int64.to_int y land 63)) a b
  with
  | Some r -> r
  | None -> (
      let bits = Tnum.ashr a.bits b.bits in
      match is_const b with
      | Some k when ucmp k 63L <= 0 ->
          let k = Int64.to_int k in
          syncd
            { top with smin = Int64.shift_right a.smin k;
              smax = Int64.shift_right a.smax k; bits }
      | _ -> syncd { top with bits })

let neg a =
  match is_const a with
  | Some v -> const (Int64.neg v)
  | None -> syncd { top with bits = Tnum.neg a.bits }

let intersect a b =
  match Tnum.intersect a.bits b.bits with
  | None -> None
  | Some bits ->
      let r =
        {
          umin = umax_ a.umin b.umin;
          umax = umin_ a.umax b.umax;
          smin = smax_ a.smin b.smin;
          smax = smin_ a.smax b.smax;
          bits;
        }
      in
      let r = sync r in
      if is_empty r then None else Some r

let u_pred v = Int64.sub v 1L
let u_succ v = Int64.add v 1L

let check r = let r = sync r in if is_empty r then None else Some r

open Kflex_bpf

let negate_cond : Insn.cond -> Insn.cond = function
  | Insn.Eq -> Insn.Ne
  | Insn.Ne -> Insn.Eq
  | Insn.Lt -> Insn.Ge
  | Insn.Le -> Insn.Gt
  | Insn.Gt -> Insn.Le
  | Insn.Ge -> Insn.Lt
  | Insn.Slt -> Insn.Sge
  | Insn.Sle -> Insn.Sgt
  | Insn.Sgt -> Insn.Sle
  | Insn.Sge -> Insn.Slt
  | Insn.Set -> Insn.Set (* no refinement either way *)

let refine (c : Insn.cond) x y =
  let pair a b =
    match (a, b) with Some a, Some b -> Some (a, b) | _ -> None
  in
  match c with
  | Insn.Eq -> (
      match intersect x y with Some m -> Some (m, m) | None -> None)
  | Insn.Ne -> (
      match (is_const x, is_const y) with
      | Some a, Some b when a = b -> None
      | _, Some b ->
          (* shave singleton endpoints *)
          let x' =
            if x.umin = b && x.umax <> b then { x with umin = u_succ x.umin }
            else if x.umax = b && x.umin <> b then { x with umax = u_pred x.umax }
            else x
          in
          pair (check x') (Some y)
      | _ -> Some (x, y))
  | Insn.Lt ->
      if y.umax = 0L then None
      else
        pair
          (check { x with umax = umin_ x.umax (u_pred y.umax) })
          (check { y with umin = umax_ y.umin (u_succ x.umin) })
  | Insn.Le ->
      pair
        (check { x with umax = umin_ x.umax y.umax })
        (check { y with umin = umax_ y.umin x.umin })
  | Insn.Gt ->
      if x.umax = 0L then None
      else
        pair
          (check { x with umin = umax_ x.umin (u_succ y.umin) })
          (check { y with umax = umin_ y.umax (u_pred x.umax) })
  | Insn.Ge ->
      pair
        (check { x with umin = umax_ x.umin y.umin })
        (check { y with umax = umin_ y.umax x.umax })
  | Insn.Slt ->
      if y.smax = Int64.min_int then None
      else
        pair
          (check { x with smax = smin_ x.smax (Int64.sub y.smax 1L) })
          (check { y with smin = smax_ y.smin (Int64.add x.smin 1L) })
  | Insn.Sle ->
      pair
        (check { x with smax = smin_ x.smax y.smax })
        (check { y with smin = smax_ y.smin x.smin })
  | Insn.Sgt ->
      if x.smax = Int64.min_int then None
      else
        pair
          (check { x with smin = smax_ x.smin (Int64.add y.smin 1L) })
          (check { y with smax = smin_ y.smax (Int64.sub x.smax 1L) })
  | Insn.Sge ->
      pair
        (check { x with smin = smax_ x.smin y.smin })
        (check { y with smax = smin_ y.smax x.smax })
  | Insn.Set -> Some (x, y)

let pp ppf r =
  match is_const r with
  | Some v -> Format.fprintf ppf "{%Ld}" v
  | None ->
      Format.fprintf ppf "{u:[%Lu,%Lu] s:[%Ld,%Ld]" r.umin r.umax r.smin
        r.smax;
      (* print the known bits only when they say more than the interval *)
      if
        (not (Tnum.is_unknown r.bits))
        && not (Tnum.equal r.bits (Tnum.range r.umin r.umax))
      then Format.fprintf ppf " t:%a" Tnum.pp r.bits;
      Format.fprintf ppf "}"
