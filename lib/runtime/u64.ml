(* Unboxed 64-bit machine words.

   Without flambda, every 64-bit value that crosses a non-inlined function
   boundary or is stored in an [int64 array] materialises a 3-word heap box,
   so a boxed register file allocates on every ALU op and load. This module
   is the entire escape hatch: a flat [Bigarray] bank accessed through
   monomorphic [external] primitives (which the middle end inlines at every
   use site, letting cmmgen keep the values in machine registers), raw
   little-endian byte accessors over [Bytes.t], and primitive-only unsigned
   division. Everything here compiles to straight-line code with zero
   allocation; the allocation-regression tests in [test_runtime] pin that
   property down.

   The raw byte accessors are the native-endian [%caml_bytes_*u] primitives
   with no bounds check: callers must discharge both obligations. The VM
   uses them only where a guard has already run — window tests on the
   width-specialized access paths, verifier-proved constant frame offsets
   in the Jit — and the startup check below refuses big-endian hosts
   (the VM's memory image is little-endian everywhere). *)

type bank = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

external get : bank -> int -> int64 = "%caml_ba_unsafe_ref_1"
external set : bank -> int -> int64 -> unit = "%caml_ba_unsafe_set_1"

let create n : bank =
  let b = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout n in
  Bigarray.Array1.fill b 0L;
  b

let dim (b : bank) = Bigarray.Array1.dim b

(* A single mutable unboxed word — the no-allocation replacement for
   [int64 ref] helper state ([x := v] on a ref boxes [v] every time). *)
type cell = bank

let cell v : cell =
  let c = create 1 in
  set c 0 v;
  c

external get_cell : cell -> int -> int64 = "%caml_ba_unsafe_ref_1"
external set_cell_ : cell -> int -> int64 -> unit = "%caml_ba_unsafe_set_1"

let[@inline always] cell_get (c : cell) = get_cell c 0
let[@inline always] cell_set (c : cell) v = set_cell_ c 0 v

(* Unchecked, unaligned byte accessors (native endianness — little-endian
   by the startup check below). The [16u/32u/64u] primitives perform no
   bounds check; the 8-bit pair is the plain unsafe bytes access. *)
external get8 : Bytes.t -> int -> char = "%bytes_unsafe_get"
external set8 : Bytes.t -> int -> char -> unit = "%bytes_unsafe_set"
external get16 : Bytes.t -> int -> int = "%caml_bytes_get16u"
external set16 : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"
external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let () =
  if Sys.big_endian then
    failwith "U64: the unboxed VM hot path assumes a little-endian host"

(* Unsigned comparison via sign-bit flip: comparisons on values typed
   [int64] compile to unboxed compare instructions. *)
let[@inline always] ult (a : int64) (b : int64) =
  (Int64.logxor a Int64.min_int : int64) < Int64.logxor b Int64.min_int

let[@inline always] ule (a : int64) (b : int64) =
  (Int64.logxor a Int64.min_int : int64) <= Int64.logxor b Int64.min_int

(* Unsigned division from signed primitives (Hacker's Delight §9.3):
   [Stdlib.Int64.unsigned_div] is an ordinary function whose call boxes the
   result. The divisor must be non-zero (the VM's ALU checks first).

   - [d < 0] signed means d has the top bit set, so the unsigned quotient
     is 0 or 1, decided by an unsigned compare;
   - otherwise halve the dividend to clear its sign bit, divide signed,
     double the quotient, and correct the at-most-one-off remainder. *)
let[@inline always] udiv (n : int64) (d : int64) =
  if (d : int64) < 0L then if ult n d then 0L else 1L
  else begin
    let q = Int64.shift_left (Int64.div (Int64.shift_right_logical n 1) d) 1 in
    let r = Int64.sub n (Int64.mul q d) in
    if ule d r then Int64.add q 1L else q
  end

let[@inline always] urem (n : int64) (d : int64) =
  Int64.sub n (Int64.mul (udiv n d) d)
