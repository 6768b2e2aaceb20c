(* Held objects as two parallel arrays — handles in an unboxed bank,
   destructor names beside them — scanned linearly: an invocation holds a
   handful of objects at most, and an [int64]-keyed [Hashtbl] would box the
   handle and allocate a bucket on every acquire. [acquire] and [release]
   inline into the helpers, so the handle never leaves a machine register. *)
type t = {
  mutable handles : U64.bank;
  mutable destructors : string array;
  mutable n : int;
}

let create () = { handles = U64.create 8; destructors = Array.make 8 ""; n = 0 }

let grow t =
  let cap = 2 * U64.dim t.handles in
  let handles = U64.create cap in
  for i = 0 to t.n - 1 do
    U64.set handles i (U64.get t.handles i)
  done;
  t.handles <- handles;
  t.destructors <- Array.append t.destructors (Array.make (cap - t.n) "")

let[@inline always] index t handle =
  let i = ref 0 in
  while !i < t.n && U64.get t.handles !i <> handle do
    incr i
  done;
  if !i < t.n then !i else -1

let[@inline always] acquire t ~handle ~destructor =
  let i = index t handle in
  if i >= 0 then t.destructors.(i) <- destructor
  else begin
    if t.n = U64.dim t.handles then grow t;
    U64.set t.handles t.n handle;
    t.destructors.(t.n) <- destructor;
    t.n <- t.n + 1
  end

let[@inline always] release t ~handle =
  let i = index t handle in
  if i < 0 then false
  else begin
    let last = t.n - 1 in
    U64.set t.handles i (U64.get t.handles last);
    t.destructors.(i) <- t.destructors.(last);
    t.n <- last;
    true
  end

let count t = t.n
let clear t = t.n <- 0
