(* A tnum is 16 bytes: its value word at byte 0, its mask word at byte 8.
   The kernels in [At] compute on the two words of each operand at one byte
   offset, so {!Range} runs them on the tnum it stores at offset 32 of its
   own block. Every word stays in a machine register: the kernels read
   through the unboxed primitives below, take no [int64] argument and
   return none, so without flambda they allocate nothing. *)

type t = Bytes.t

external get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let ( &: ) = Int64.logand
let ( |: ) = Int64.logor
let ( ^: ) = Int64.logxor
let ( +: ) = Int64.add
let ( -: ) = Int64.sub
let lnot64 = Int64.lognot

let[@inline] value t = get t 0
let[@inline] mask t = get t 8

let[@inline] store d o v m =
  set d o v;
  set d (o + 8) m

(* every bit at or below the highest set bit of [x] *)
let[@inline] smear x =
  let x = x |: Int64.shift_right_logical x 1 in
  let x = x |: Int64.shift_right_logical x 2 in
  let x = x |: Int64.shift_right_logical x 4 in
  let x = x |: Int64.shift_right_logical x 8 in
  let x = x |: Int64.shift_right_logical x 16 in
  x |: Int64.shift_right_logical x 32

(* kernel tnum_range: the common high-bit prefix of [lo] and [hi] is known,
   every bit from their highest differing bit down is unknown *)
let[@inline] range_mask lo hi = smear (lo ^: hi)

module At = struct
  let add o d a b =
    let av = get a o and am = get a (o + 8) in
    let bv = get b o and bm = get b (o + 8) in
    let sv = av +: bv in
    let sigma = am +: bm +: sv in
    let mu = (sigma ^: sv) |: am |: bm in
    store d o (sv &: lnot64 mu) mu

  let sub o d a b =
    let av = get a o and am = get a (o + 8) in
    let bv = get b o and bm = get b (o + 8) in
    let dv = av -: bv in
    let mu = (dv +: am ^: (dv -: bm)) |: am |: bm in
    store d o (dv &: lnot64 mu) mu

  let neg o d a =
    let av = get a o and am = get a (o + 8) in
    let dv = Int64.neg av in
    let mu = (dv ^: (dv -: am)) |: am in
    store d o (dv &: lnot64 mu) mu

  (* tnum_mul (kernel): decompose a bit by bit; a certain 1 in [a]
     contributes a shifted copy of [b]'s uncertainty, an uncertain bit
     contributes full uncertainty over [b]'s possible bits. The partial
     products' uncertainty accumulates in [mv]/[mm] (an add of
     [{value = 0; mask = m}] each step; [m = 0], a certain 0 bit, leaves it
     unchanged), and the certain product is added last. *)
  let mul o d a b =
    let acc_v = Int64.mul (get a o) (get b o) in
    let av = ref (get a o) and am = ref (get a (o + 8)) in
    let bv = ref (get b o) and bm = ref (get b (o + 8)) in
    let mv = ref 0L and mm = ref 0L in
    while !av <> 0L || !am <> 0L do
      let m =
        if !av &: 1L <> 0L then !bm
        else if !am &: 1L <> 0L then !bv |: !bm
        else 0L
      in
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
    let sv = acc_v +: !mv in
    let mu = (!mm +: sv ^: sv) |: !mm in
    store d o (sv &: lnot64 mu) mu

  let logand o d a b =
    let av = get a o and am = get a (o + 8) in
    let bv = get b o and bm = get b (o + 8) in
    let v = av &: bv in
    store d o v ((av |: am) &: (bv |: bm) &: lnot64 v)

  let logor o d a b =
    let av = get a o and am = get a (o + 8) in
    let bv = get b o and bm = get b (o + 8) in
    let v = av |: bv in
    store d o v ((am |: bm) &: lnot64 v)

  let logxor o d a b =
    let mu = get a (o + 8) |: get b (o + 8) in
    store d o ((get a o ^: get b o) &: lnot64 mu) mu

  (* shifts by a tnum amount: exact when the amount is constant (taken
     modulo 64, as the ISA does), otherwise unknown *)
  let shl o d a b =
    if get b (o + 8) <> 0L then store d o 0L (-1L)
    else
      let k = Int64.to_int (get b o) land 63 in
      store d o
        (Int64.shift_left (get a o) k)
        (Int64.shift_left (get a (o + 8)) k)

  let lshr o d a b =
    if get b (o + 8) <> 0L then store d o 0L (-1L)
    else
      let k = Int64.to_int (get b o) land 63 in
      store d o
        (Int64.shift_right_logical (get a o) k)
        (Int64.shift_right_logical (get a (o + 8)) k)

  (* an unknown sign bit replicates as unknown; the value's copies of it
     are cleared under the mask *)
  let ashr o d a b =
    if get b (o + 8) <> 0L then store d o 0L (-1L)
    else
      let k = Int64.to_int (get b o) land 63 in
      let m = Int64.shift_right (get a (o + 8)) k in
      store d o (Int64.shift_right (get a o) k &: lnot64 m) m

  let union o d a b =
    let av = get a o and bv = get b o in
    let mu = get a (o + 8) |: get b (o + 8) |: (av ^: bv) in
    store d o (av &: lnot64 mu) mu

  let intersect o d a b =
    let av = get a o and am = get a (o + 8) in
    let bv = get b o and bm = get b (o + 8) in
    if (av ^: bv) &: lnot64 am &: lnot64 bm <> 0L then false
    else begin
      let mu = am &: bm in
      store d o ((av |: bv) &: lnot64 mu) mu;
      true
    end

  let subset o a b =
    let bm = get b (o + 8) in
    get a (o + 8) &: lnot64 bm = 0L && (get a o ^: get b o) &: lnot64 bm = 0L

  let equal o a b = get a o = get b o && get a (o + 8) = get b (o + 8)
end

let make ~value ~mask =
  let t = Bytes.create 16 in
  store t 0 (value &: lnot64 mask) mask;
  t

let unknown = make ~value:0L ~mask:(-1L)
let const v = make ~value:v ~mask:0L
let is_const t = if mask t = 0L then Some (value t) else None
let contains t w = (w ^: value t) &: lnot64 (mask t) = 0L
let within_mask t m = (value t |: mask t) &: lnot64 m = 0L

let range lo hi =
  let mu = range_mask lo hi in
  make ~value:lo ~mask:mu

let op2 k a b =
  let d = Bytes.create 16 in
  k 0 d a b;
  d

let intersect a b =
  let d = Bytes.create 16 in
  if At.intersect 0 d a b then Some d else None

let union = op2 At.union
let subset a b = At.subset 0 a b
let add = op2 At.add
let sub = op2 At.sub

let neg a =
  let d = Bytes.create 16 in
  At.neg 0 d a;
  d

let mul = op2 At.mul
let div _ _ = unknown
let rem _ _ = unknown
let logand = op2 At.logand
let logor = op2 At.logor
let logxor = op2 At.logxor
let shl = op2 At.shl
let lshr = op2 At.lshr
let ashr = op2 At.ashr

let pp ppf t =
  match is_const t with
  | Some v -> Format.fprintf ppf "%Ld" v
  | None -> Format.fprintf ppf "0x%Lx/0x%Lx" (value t) (mask t)
