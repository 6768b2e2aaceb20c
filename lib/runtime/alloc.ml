(* Free lists are int stacks (top = the next block handed out) and the
   live set is an unboxed {!U64tbl} from payload offset to class, so a
   malloc/free of a recycled block allocates nothing. Block order is the
   list version's exactly: [grow] pushes a fresh batch lowest offset first
   (the highest ends on top), and [refill] moves blocks one by one from the
   global top onto the cpu cache. *)
type stack = { mutable a : int array; mutable n : int }

type t = {
  heap : Heap.t;
  ncpu : int;
  caches : stack array array;  (* per-CPU, per-class free block offsets *)
  global : stack array;  (* per-class global pool *)
  mutable bump : int;  (* next never-allocated offset *)
  live : U64tbl.t;  (* payload offset -> class index *)
}

let size_classes =
  [| 16; 32; 48; 64; 96; 128; 192; 256; 384; 512; 768; 1024; 2048; 4096 |]

let nclasses = Array.length size_classes
let header = 8
let cache_refill = 16
let stack () = { a = [||]; n = 0 }

(* grows on first use: most (cpu, class) pairs never see a block *)
let push s v =
  if s.n = Array.length s.a then
    s.a <- Array.append s.a (Array.make (max cache_refill s.n) 0);
  Array.unsafe_set s.a s.n v;
  s.n <- s.n + 1

let[@inline always] pop s =
  s.n <- s.n - 1;
  Array.unsafe_get s.a s.n

let create ?(ncpu = 8) ?(data_start = 64L) heap =
  if ncpu <= 0 then invalid_arg "Alloc.create: ncpu";
  {
    heap;
    ncpu;
    caches = Array.init ncpu (fun _ -> Array.init nclasses (fun _ -> stack ()));
    global = Array.init nclasses (fun _ -> stack ());
    bump = Int64.to_int data_start;
    live = U64tbl.create 16;
  }

let heap t = t.heap

let rec class_from i sz =
  if i >= nclasses then -1
  else if size_classes.(i) >= sz then i
  else class_from (i + 1) sz

let class_of_size sz = if sz < 0 then -1 else class_from 0 sz

(* Carve fresh blocks from the bump region into the global pool. *)
let grow t cls =
  let bytes = header + size_classes.(cls) in
  let avail = Int64.to_int (Heap.size t.heap) - t.bump in
  let take = if avail < bytes * cache_refill then avail / bytes else cache_refill in
  if take <= 0 then false
  else begin
    for i = 0 to take - 1 do
      push t.global.(cls) (t.bump + (bytes * i))
    done;
    let len = bytes * take in
    Heap.populate t.heap ~off:(Int64.of_int t.bump) ~len:(Int64.of_int len);
    t.bump <- t.bump + len;
    true
  end

let refill t ~cpu cls =
  let g = t.global.(cls) and c = t.caches.(cpu).(cls) in
  let k = ref 0 in
  while !k < cache_refill && (g.n > 0 || grow t cls) do
    push c (pop g);
    incr k
  done

let alloc_off t ~cpu size =
  let cpu = cpu mod t.ncpu in
  let cls = class_of_size size in
  if cls < 0 then -1
  else begin
    let c = t.caches.(cpu).(cls) in
    if c.n = 0 then refill t ~cpu cls;
    if c.n = 0 then -1
    else begin
      let block = pop c in
      Heap.set64_off t.heap block (Int64.of_int cls);
      let payload = block + header in
      Heap.zero_off t.heap ~off:payload ~len:size_classes.(cls);
      U64tbl.add t.live (Int64.of_int payload) (Int64.of_int cls);
      payload
    end
  end

let free_off t ~cpu payload =
  let cpu = cpu mod t.ncpu in
  let slot = U64tbl.find t.live (Int64.of_int payload) in
  if slot < 0 then false
  else begin
    let cls = Int64.to_int (U64tbl.value t.live slot) in
    U64tbl.remove_slot t.live slot;
    push t.caches.(cpu).(cls) (payload - header);
    true
  end

let alloc t ~cpu size =
  let off = alloc_off t ~cpu (Int64.to_int size) in
  if off < 0 then None else Some (Int64.of_int off)

let free t ~cpu off =
  off >= 0L && off <= Int64.of_int max_int && free_off t ~cpu (Int64.to_int off)

let live_blocks t = U64tbl.length t.live

let cache_occupancy t ~cpu =
  Array.fold_left (fun acc s -> acc + s.n) 0 t.caches.(cpu mod t.ncpu)
