type t = { value : int64; mask : int64 }

let ( &: ) = Int64.logand
let ( |: ) = Int64.logor
let ( ^: ) = Int64.logxor
let ( +: ) = Int64.add
let ( -: ) = Int64.sub
let lnot64 = Int64.lognot

let unknown = { value = 0L; mask = -1L }
let const v = { value = v; mask = 0L }
let make ~value ~mask = { value = value &: lnot64 mask; mask }
let is_unknown t = t.mask = -1L && t.value = 0L
let is_const t = if t.mask = 0L then Some t.value else None
let equal a b = a.value = b.value && a.mask = b.mask
let contains t w = (w ^: t.value) &: lnot64 t.mask = 0L
let umin t = t.value
let umax t = t.value |: t.mask
let within_mask t m = (t.value |: t.mask) &: lnot64 m = 0L

(* position of the highest set bit, 1-based; 0 for zero: a binary search
   over the word's halves *)
let fls64 x =
  let x = ref x and n = ref 0 and k = ref 32 in
  while !k > 0 do
    let hi = Int64.shift_right_logical !x !k in
    if hi <> 0L then begin
      x := hi;
      n := !n + !k
    end;
    k := !k / 2
  done;
  if !x <> 0L then !n + 1 else !n

let range lo hi =
  let chi = lo ^: hi in
  let bits = fls64 chi in
  if bits > 63 then unknown
  else
    let delta = Int64.shift_left 1L bits -: 1L in
    { value = lo &: lnot64 delta; mask = delta }

let intersect a b =
  if (a.value ^: b.value) &: lnot64 a.mask &: lnot64 b.mask <> 0L then None
  else
    let mu = a.mask &: b.mask in
    Some { value = (a.value |: b.value) &: lnot64 mu; mask = mu }

let union a b =
  let mu = a.mask |: b.mask |: (a.value ^: b.value) in
  { value = a.value &: lnot64 mu; mask = mu }

let subset a b =
  (* b's known bits must be known in a and agree *)
  a.mask &: lnot64 b.mask = 0L && (a.value ^: b.value) &: lnot64 b.mask = 0L

let add a b =
  let sm = a.mask +: b.mask in
  let sv = a.value +: b.value in
  let sigma = sm +: sv in
  let chi = sigma ^: sv in
  let mu = chi |: a.mask |: b.mask in
  { value = sv &: lnot64 mu; mask = mu }

let sub a b =
  let dv = a.value -: b.value in
  let alpha = dv +: a.mask in
  let beta = dv -: b.mask in
  let chi = alpha ^: beta in
  let mu = chi |: a.mask |: b.mask in
  { value = dv &: lnot64 mu; mask = mu }

let neg a = sub (const 0L) a

let logand a b =
  let alpha = a.value |: a.mask in
  let beta = b.value |: b.mask in
  let v = a.value &: b.value in
  { value = v; mask = alpha &: beta &: lnot64 v }

let logor a b =
  let v = a.value |: b.value in
  let mu = a.mask |: b.mask in
  { value = v; mask = mu &: lnot64 v }

let logxor a b =
  let v = a.value ^: b.value in
  let mu = a.mask |: b.mask in
  { value = v &: lnot64 mu; mask = mu }

let lshift a k =
  { value = Int64.shift_left a.value k; mask = Int64.shift_left a.mask k }

let rshift a k =
  {
    value = Int64.shift_right_logical a.value k;
    mask = Int64.shift_right_logical a.mask k;
  }

let arshift a k =
  (* an unknown sign bit replicates as unknown; the value's copy of that
     bit is 0 by invariant, so the result respects the invariant too *)
  make ~value:(Int64.shift_right a.value k) ~mask:(Int64.shift_right a.mask k)

(* tnum_mul (kernel): decompose a bit by bit; a certain 1 in [a]
   contributes a shifted copy of [b]'s uncertainty, an uncertain bit
   contributes full uncertainty over [b]'s possible bits. *)
let mul a b =
  let acc_v = Int64.mul a.value b.value in
  (* the loop runs on local words, which the compiler keeps unboxed *)
  let av = ref a.value and am = ref a.mask in
  let bv = ref b.value and bm = ref b.mask in
  let mv = ref 0L and mm = ref 0L in
  while !av <> 0L || !am <> 0L do
    let m =
      if !av &: 1L <> 0L then !bm
      else if !am &: 1L <> 0L then !bv |: !bm
      else 0L
    in
    (* acc_m := add acc_m {value = 0; mask = m}, inlined; m = 0 (a certain 0
       bit) leaves acc_m unchanged *)
    let sv = !mv in
    let sigma = !mm +: m +: sv in
    let mu = (sigma ^: sv) |: !mm |: m in
    mv := sv &: lnot64 mu;
    mm := mu;
    av := Int64.shift_right_logical !av 1;
    am := Int64.shift_right_logical !am 1;
    bv := Int64.shift_left !bv 1;
    bm := Int64.shift_left !bm 1
  done;
  add (const acc_v) { value = !mv; mask = !mm }

let div _ _ = unknown
let rem _ _ = unknown

let shift_by f a b =
  match is_const b with
  | Some k -> f a (Int64.to_int k land 63)
  | None -> unknown

let shl a b = shift_by lshift a b
let lshr a b = shift_by rshift a b
let ashr a b = shift_by arshift a b

let pp ppf t =
  match is_const t with
  | Some v -> Format.fprintf ppf "%Ld" v
  | None -> Format.fprintf ppf "0x%Lx/0x%Lx" t.value t.mask
