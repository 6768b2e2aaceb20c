(* An [int64 -> int64] hash table with no allocation on lookup, update,
   insertion into spare capacity, or removal.

   Keys and values live in unboxed banks ({!U64}), probed linearly from a
   multiplicative hash; removal shifts the probe run back instead of
   leaving tombstones, so a table that churns never degrades. The hot
   entry points are forced inline, so keys and values stay in machine
   registers end to end — a generic [Hashtbl] boxes the key to hash it and
   allocates a bucket per insertion. The table grows (allocating) when
   more than half full; callers that know their bound size it up front and
   never grow. *)

type t = {
  mutable keys : U64.bank;
  mutable vals : U64.bank;
  mutable used : Bytes.t;  (* '\001' where a slot holds an entry *)
  mutable mask : int;
  mutable size : int;
}

let slots_for n =
  let c = ref 8 in
  while !c < 2 * n do
    c := 2 * !c
  done;
  !c

let create n =
  let c = slots_for n in
  {
    keys = U64.create c;
    vals = U64.create c;
    used = Bytes.make c '\000';
    mask = c - 1;
    size = 0;
  }

let length t = t.size

let[@inline always] hash (k : int64) =
  Int64.to_int
    (Int64.shift_right_logical (Int64.mul k 0x9E3779B97F4A7C15L) 32)

let[@inline always] occupied t i = Bytes.unsafe_get t.used i <> '\000'

(* The slot holding [k], or -1. *)
let[@inline always] find t (k : int64) =
  let mask = t.mask in
  let i = ref (hash k land mask) in
  let res = ref (-2) in
  while !res = -2 do
    if not (occupied t !i) then res := -1
    else if U64.get t.keys !i = k then res := !i
    else i := (!i + 1) land mask
  done;
  !res

let[@inline always] value t i = U64.get t.vals i
let[@inline always] set_value t i v = U64.set t.vals i v

let[@inline always] place t (k : int64) (v : int64) =
  let mask = t.mask in
  let i = ref (hash k land mask) in
  while occupied t !i do
    i := (!i + 1) land mask
  done;
  Bytes.unsafe_set t.used !i '\001';
  U64.set t.keys !i k;
  U64.set t.vals !i v;
  t.size <- t.size + 1

let grow t =
  let old_keys = t.keys and old_vals = t.vals and old_used = t.used in
  let c = 2 * (t.mask + 1) in
  t.keys <- U64.create c;
  t.vals <- U64.create c;
  t.used <- Bytes.make c '\000';
  t.mask <- c - 1;
  t.size <- 0;
  for i = 0 to Bytes.length old_used - 1 do
    if Bytes.get old_used i <> '\000' then
      place t (U64.get old_keys i) (U64.get old_vals i)
  done

(* Insert a key known to be absent. *)
let[@inline always] add t (k : int64) (v : int64) =
  if 2 * (t.size + 1) > t.mask + 1 then grow t;
  place t k v

(* Empty slot [i], then walk the rest of its probe run moving back every
   entry whose home slot no longer reaches it across the hole. *)
let remove_slot t i =
  let mask = t.mask in
  let hole = ref i in
  let j = ref ((i + 1) land mask) in
  while occupied t !j do
    let home = hash (U64.get t.keys !j) land mask in
    let stays =
      if !hole <= !j then !hole < home && home <= !j
      else !hole < home || home <= !j
    in
    if not stays then begin
      U64.set t.keys !hole (U64.get t.keys !j);
      U64.set t.vals !hole (U64.get t.vals !j);
      hole := !j
    end;
    j := (!j + 1) land mask
  done;
  Bytes.unsafe_set t.used !hole '\000';
  t.size <- t.size - 1

let fold f t acc =
  let acc = ref acc in
  for i = 0 to t.mask do
    if occupied t i then acc := f (U64.get t.keys i) (U64.get t.vals i) !acc
  done;
  !acc
