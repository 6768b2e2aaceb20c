(* A range is one 48-byte block: umin, umax, smin and smax at bytes 0, 8,
   16 and 24, then its tnum's value and mask at 32 and 40. Without flambda
   a 64-bit word crossing a function boundary or stored in a record field
   is boxed, so each word is read and written through the unboxed
   primitives, every word-valued helper is inlined, and an operation
   allocates one block: its result, built in place. A block is written
   only between its [Bytes.create] and its return, so ranges are immutable
   once seen. *)

type t = Bytes.t

external get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let bits_at = 32 (* byte offset of the tnum *)
let u64_max = -1L (* 0xffff...ff as unsigned *)

let[@inline] umin r = get r 0
let[@inline] umax r = get r 8
let[@inline] smin r = get r 16
let[@inline] smax r = get r 24
let[@inline] tv r = get r 32
let[@inline] tm r = get r 40

(* unsigned comparisons through the sign-bit flip, and min/max, on words
   the compiler keeps unboxed *)
let[@inline] ult (a : int64) (b : int64) =
  (Int64.logxor a Int64.min_int : int64) < Int64.logxor b Int64.min_int

let[@inline] ule (a : int64) (b : int64) =
  (Int64.logxor a Int64.min_int : int64) <= Int64.logxor b Int64.min_int

let[@inline] umin_ a b = if ule a b then a else b
let[@inline] umax_ a b = if ule b a then a else b
let[@inline] smin_ (a : int64) b = if a <= b then a else b
let[@inline] smax_ (a : int64) b = if a >= b then a else b

let[@inline] set_bounds r umin umax smin smax =
  set r 0 umin;
  set r 8 umax;
  set r 16 smin;
  set r 24 smax

let[@inline] set_bits r v m =
  set r 32 v;
  set r 40 m

let[@inline] fresh umin umax smin smax v m =
  let r = Bytes.create 48 in
  set_bounds r umin umax smin smax;
  set_bits r v m;
  r

let[@inline] copy r = fresh (umin r) (umax r) (smin r) (smax r) (tv r) (tm r)

(* The known-bits half of the domain can be switched off to measure what it
   buys (the interval-only vs interval+tnum elision delta in the bench
   ablation). When disabled every value carries an unknown tnum and the
   domain degenerates to the seed's pure interval analysis. *)
let tnum_enabled = ref true
let set_tnum enabled = tnum_enabled := enabled

let[@inline] fresh_top () = fresh 0L u64_max Int64.min_int Int64.max_int 0L (-1L)
let top = fresh_top ()

(* Propagate information between the signed and unsigned views, following the
   same reasoning as the eBPF verifier's __reg_deduce_bounds, in place. *)
let deduce r =
  let smin = get r 16 and smax = get r 24 in
  (* Signed bounds with the same sign give unsigned bounds directly (both
     negative: as unsigned they keep their order). *)
  if smin >= 0L || smax < 0L then begin
    set r 0 (umax_ (get r 0) smin);
    set r 8 (umin_ (get r 8) smax)
  end;
  (* Unsigned bounds that fit in the positive signed half refine the signed
     view; likewise when both are in the negative half. *)
  let umin = get r 0 and umax = get r 8 in
  if ule umax Int64.max_int || ult Int64.max_int umin then begin
    set r 16 (smax_ smin umin);
    set r 24 (smin_ smax umax)
  end

let[@inline] is_empty r = ult (umax r) (umin r) || smin r > smax r

(* Bidirectional bounds synchronisation (the reg_bounds_sync analogue), in
   place: known bits narrow the unsigned interval ([umin >= value],
   [umax <= value lor mask]), then the interval pins high bits back into the
   tnum via tnum_range intersection. A known-bits contradiction is reported
   as an empty interval so callers share one emptiness test. *)
let sync r =
  deduce r;
  if not !tnum_enabled then set_bits r 0L (-1L)
  else if not (is_empty r) then begin
    let v = tv r and m = tm r in
    set r 0 (umax_ (umin r) v);
    set r 8 (umin_ (umax r) (Int64.logor v m));
    deduce r;
    if not (is_empty r) then begin
      let lo = umin r and hi = umax r in
      let rm = Tnum.range_mask lo hi in
      let rv = Int64.logand lo (Int64.lognot rm) in
      if Int64.logand (Int64.logand (Int64.logxor v rv) (Int64.lognot m))
           (Int64.lognot rm)
         <> 0L
      then begin
        set r 0 1L;
        set r 8 0L
      end
      else
        let mu = Int64.logand m rm in
        set_bits r (Int64.logand (Int64.logor v rv) (Int64.lognot mu)) mu
    end
  end

(* For transfer functions: both halves over-approximate the same concrete
   result set, so their intersection cannot be empty — but stay defensive
   and fall back to the interval half alone rather than produce nonsense. *)
let syncd r =
  let u0 = umin r and u1 = umax r and s0 = smin r and s1 = smax r in
  sync r;
  if is_empty r then begin
    set_bounds r u0 u1 s0 s1;
    set_bits r 0L (-1L);
    deduce r
  end;
  r

let[@inline] const v =
  if !tnum_enabled then fresh v v v v v 0L else fresh v v v v 0L (-1L)

let unsigned_ r =
  sync r;
  if is_empty r then top else r

let[@inline] unsigned lo hi =
  unsigned_ (fresh lo hi Int64.min_int Int64.max_int 0L (-1L))

let widen r = syncd (fresh 0L u64_max Int64.min_int Int64.max_int (tv r) (tm r))

let[@inline] is_single r = umin r = umax r
let is_const r = if is_single r then Some (umin r) else None

let bits r = Tnum.make ~value:(tv r) ~mask:(tm r)

let equal a b =
  a == b
  || umin a = umin b && umax a = umax b && smin a = smin b && smax a = smax b
     && Tnum.At.equal bits_at a b

let subset a b =
  ule (umin b) (umin a) && ule (umax a) (umax b) && smin b <= smin a
  && smax a <= smax b
  && Tnum.At.subset bits_at a b

(* No sync on join: the componentwise bounds keep join a syntactic upper
   bound of both operands (subset a (join a b) holds field by field). When
   [a] already covers [b], every component of the join is [a]'s, and [a]
   itself is returned so that unchanged states stay shared. *)
let join a b =
  if a == b || subset b a then a
  else begin
    let r =
      fresh
        (umin_ (umin a) (umin b))
        (umax_ (umax a) (umax b))
        (smin_ (smin a) (smin b))
        (smax_ (smax a) (smax b))
        0L 0L
    in
    Tnum.At.union bits_at r a b;
    r
  end

let[@inline] fits_unsigned r ~lo ~hi = ule lo (umin r) && ule (umax r) hi

let contains r v =
  ule (umin r) v && ule v (umax r) && smin r <= v && v <= smax r
  && Int64.logand (Int64.logxor v (tv r)) (Int64.lognot (tm r)) = 0L

let within_mask r m =
  Int64.logand (Int64.logor (tv r) (tm r)) (Int64.lognot m) = 0L

(* A fresh [top] whose tnum is [kernel]'s result on the operands, for
   bounds to be written over before [syncd]. *)
let[@inline] top_bits kernel a b =
  let r = fresh_top () in
  kernel bits_at r a b;
  r

let add a b =
  if is_single a && is_single b then const (Int64.add (umin a) (umin b))
  else begin
    let r = top_bits Tnum.At.add a b in
    (* unsigned overflow if umax_a + umax_b wraps *)
    let hi = Int64.add (umax a) (umax b) in
    if not (ult hi (umax a)) then begin
      set r 0 (Int64.add (umin a) (umin b));
      set r 8 hi
    end;
    (* signed overflow detection on both endpoints *)
    let lo = Int64.add (smin a) (smin b) and hi = Int64.add (smax a) (smax b) in
    let lo_ov = smin a < 0L && smin b < 0L && lo >= 0L in
    let hi_ov = smax a >= 0L && smax b >= 0L && hi < 0L in
    if not (lo_ov || hi_ov) then begin
      set r 16 lo;
      set r 24 hi
    end;
    syncd r
  end

let sub a b =
  if is_single a && is_single b then const (Int64.sub (umin a) (umin b))
  else begin
    let r = top_bits Tnum.At.sub a b in
    if ule (umax b) (umin a) then begin
      set r 0 (Int64.sub (umin a) (umax b));
      set r 8 (Int64.sub (umax a) (umin b))
    end;
    let lo = Int64.sub (smin a) (smax b) and hi = Int64.sub (smax a) (smin b) in
    let lo_ov = smin a < 0L && smax b >= 0L && lo >= 0L in
    let hi_ov = smax a >= 0L && smin b < 0L && hi < 0L in
    if not (lo_ov || hi_ov) then begin
      set r 16 lo;
      set r 24 hi
    end;
    syncd r
  end

let[@inline] fits_u31 v = ule v 0x7fff_ffffL

let mul a b =
  if is_single a && is_single b then const (Int64.mul (umin a) (umin b))
  else begin
    let r = top_bits Tnum.At.mul a b in
    if fits_u31 (umax a) && fits_u31 (umax b) then begin
      let hi = Int64.mul (umax a) (umax b) in
      set_bounds r (Int64.mul (umin a) (umin b)) hi 0L hi
    end;
    syncd r
  end

(* Unsigned division of [n] by a non-zero [d] from signed primitives
   (Hacker's Delight §9.3): halve the dividend to clear its sign bit,
   divide signed, double the quotient and correct it by at most one. *)
let[@inline] udiv_nz n d =
  if d < 0L then if ult n d then 0L else 1L
  else
    let q = Int64.shift_left (Int64.div (Int64.shift_right_logical n 1) d) 1 in
    if ult (Int64.sub n (Int64.mul q d)) d then q else Int64.add q 1L

let[@inline] udiv x y = if y = 0L then 0L else udiv_nz x y
let[@inline] urem x y = if y = 0L then x else Int64.sub x (Int64.mul (udiv_nz x y) y)

let div a b =
  if is_single a && is_single b then const (udiv (umin a) (umin b))
  else if is_single b && umin b <> 0L then begin
    let c = umin b in
    let r = fresh_top () in
    set r 0 (udiv_nz (umin a) c);
    set r 8 (udiv_nz (umax a) c);
    syncd r
  end
  else top

let rem a b =
  if is_single a && is_single b then const (urem (umin a) (umin b))
  else if is_single b && umin b <> 0L then begin
    (* result in [0, c-1], and never exceeds the dividend *)
    let r = fresh_top () in
    set r 8 (umin_ (Int64.sub (umin b) 1L) (umax a));
    syncd r
  end
  else top

let logand a b =
  if is_single a && is_single b then const (Int64.logand (umin a) (umin b))
  else begin
    (* x land y <=u min(x, y) for any operands *)
    let r = top_bits Tnum.At.logand a b in
    set r 8 (umin_ (umax a) (umax b));
    syncd r
  end

let logor a b =
  if is_single a && is_single b then const (Int64.logor (umin a) (umin b))
  else begin
    (* x lor y >=u max(x, y); upper bound: next power-of-two envelope *)
    let r = top_bits Tnum.At.logor a b in
    set r 0 (umax_ (umin a) (umin b));
    set r 8 (Int64.logor (Tnum.smear (umax_ (umax a) (umax b))) 1L);
    syncd r
  end

let logxor a b =
  if is_single a && is_single b then const (Int64.logxor (umin a) (umin b))
  else
    (* intervals say nothing about xor; the known bits often do — this is
       the textbook case where the tnum half carries the analysis *)
    syncd (top_bits Tnum.At.logxor a b)

let[@inline] shift_amount b = Int64.to_int (umin b) land 63

let shl a b =
  if is_single a && is_single b then
    const (Int64.shift_left (umin a) (shift_amount b))
  else if is_single b && ule (umin b) 63L && umin b = 0L then a
  else begin
    let r = top_bits Tnum.At.shl a b in
    (if is_single b && ule (umin b) 63L then
       let k = Int64.to_int (umin b) in
       if ule (umax a) (Int64.shift_right_logical u64_max k) then begin
         set r 0 (Int64.shift_left (umin a) k);
         set r 8 (Int64.shift_left (umax a) k)
       end);
    syncd r
  end

let lshr a b =
  if is_single a && is_single b then
    const (Int64.shift_right_logical (umin a) (shift_amount b))
  else begin
    let r = top_bits Tnum.At.lshr a b in
    if is_single b && ule (umin b) 63L then begin
      let k = Int64.to_int (umin b) in
      set r 0 (Int64.shift_right_logical (umin a) k);
      set r 8 (Int64.shift_right_logical (umax a) k)
    end;
    syncd r
  end

let ashr a b =
  if is_single a && is_single b then
    const (Int64.shift_right (umin a) (shift_amount b))
  else begin
    let r = top_bits Tnum.At.ashr a b in
    if is_single b && ule (umin b) 63L then begin
      let k = Int64.to_int (umin b) in
      set r 16 (Int64.shift_right (smin a) k);
      set r 24 (Int64.shift_right (smax a) k)
    end;
    syncd r
  end

let neg a =
  if is_single a then const (Int64.neg (umin a))
  else begin
    let r = fresh_top () in
    Tnum.At.neg bits_at r a;
    syncd r
  end

(* [r] synchronised, or [None] when that finds it empty; [r] is fresh *)
let check r =
  sync r;
  if is_empty r then None else Some r

let intersect a b =
  let r =
    fresh
      (umax_ (umin a) (umin b))
      (umin_ (umax a) (umax b))
      (smax_ (smin a) (smin b))
      (smin_ (smax a) (smax b))
      0L 0L
  in
  if Tnum.At.intersect bits_at r a b then check r else None

(* [x] with one bound replaced, synchronised *)
let[@inline] with_bound x off v =
  let r = copy x in
  set r off v;
  check r

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
  | Insn.Ne ->
      if is_single y then
        let b = umin y in
        if is_single x && umin x = b then None
        else
          (* shave singleton endpoints *)
          let x' =
            if umin x = b && umax x <> b then with_bound x 0 (Int64.add (umin x) 1L)
            else if umax x = b && umin x <> b then
              with_bound x 8 (Int64.sub (umax x) 1L)
            else check (copy x)
          in
          pair x' (Some y)
      else Some (x, y)
  | Insn.Lt ->
      if umax y = 0L then None
      else
        pair
          (with_bound x 8 (umin_ (umax x) (Int64.sub (umax y) 1L)))
          (with_bound y 0 (umax_ (umin y) (Int64.add (umin x) 1L)))
  | Insn.Le ->
      pair
        (with_bound x 8 (umin_ (umax x) (umax y)))
        (with_bound y 0 (umax_ (umin y) (umin x)))
  | Insn.Gt ->
      if umax x = 0L then None
      else
        pair
          (with_bound x 0 (umax_ (umin x) (Int64.add (umin y) 1L)))
          (with_bound y 8 (umin_ (umax y) (Int64.sub (umax x) 1L)))
  | Insn.Ge ->
      pair
        (with_bound x 0 (umax_ (umin x) (umin y)))
        (with_bound y 8 (umin_ (umax y) (umax x)))
  | Insn.Slt ->
      if smax y = Int64.min_int then None
      else
        pair
          (with_bound x 24 (smin_ (smax x) (Int64.sub (smax y) 1L)))
          (with_bound y 16 (smax_ (smin y) (Int64.add (smin x) 1L)))
  | Insn.Sle ->
      pair
        (with_bound x 24 (smin_ (smax x) (smax y)))
        (with_bound y 16 (smax_ (smin y) (smin x)))
  | Insn.Sgt ->
      if smax x = Int64.min_int then None
      else
        pair
          (with_bound x 16 (smax_ (smin x) (Int64.add (smin y) 1L)))
          (with_bound y 24 (smin_ (smax y) (Int64.sub (smax x) 1L)))
  | Insn.Sge ->
      pair
        (with_bound x 16 (smax_ (smin x) (smin y)))
        (with_bound y 24 (smin_ (smax y) (smax x)))
  | Insn.Set -> Some (x, y)

let pp ppf r =
  match is_const r with
  | Some v -> Format.fprintf ppf "{%Ld}" v
  | None ->
      Format.fprintf ppf "{u:[%Lu,%Lu] s:[%Ld,%Ld]" (umin r) (umax r) (smin r)
        (smax r);
      (* print the known bits only when they say more than the interval *)
      let rm = Tnum.range_mask (umin r) (umax r) in
      let unknown = tm r = -1L && tv r = 0L in
      let as_range =
        tm r = rm && tv r = Int64.logand (umin r) (Int64.lognot rm)
      in
      if not (unknown || as_range) then
        Format.fprintf ppf " t:%a" Tnum.pp (bits r);
      Format.fprintf ppf "}"
