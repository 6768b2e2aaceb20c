(* A multi-producer single-consumer byte ring — the in-process stand-in
   for a connection's socket buffer.

   Positions are monotonically increasing ints (head = consumer, tail =
   producer); the physical index is [pos land mask], so fullness is just
   [tail - head] and the empty/full ambiguity of wrapped indices never
   arises. Producers serialize on a mutex (the generator's connection
   multiplexer may write from several domains); the single consumer reads
   lock-free against the atomically published tail. *)

type t = {
  buf : Bytes.t;
  mask : int;
  head : int Atomic.t; (* consumer position, monotonic *)
  tail : int Atomic.t; (* producer position, monotonic *)
  m : Mutex.t; (* serializes producers *)
}

let create capacity =
  if capacity <= 0 then invalid_arg "Ring.create";
  let cap = ref 1 in
  while !cap < capacity do
    cap := !cap lsl 1
  done;
  {
    buf = Bytes.create !cap;
    mask = !cap - 1;
    head = Atomic.make 0;
    tail = Atomic.make 0;
    m = Mutex.create ();
  }

let capacity t = Bytes.length t.buf
let length t = Atomic.get t.tail - Atomic.get t.head

(* Each run is copied with at most two blits: up to the end of [buf], then
   from its start. Nothing can raise once the arguments are checked, so
   the producer mutex is taken and released directly. *)
let write t src pos len =
  if pos < 0 || len < 0 || pos + len > Bytes.length src then
    invalid_arg "Ring.write";
  Mutex.lock t.m;
  let tail = Atomic.get t.tail in
  let fits = capacity t - (tail - Atomic.get t.head) >= len in
  if fits then begin
    let i = tail land t.mask in
    let first = Stdlib.min len (capacity t - i) in
    Bytes.blit src pos t.buf i first;
    Bytes.blit src (pos + first) t.buf 0 (len - first);
    Atomic.set t.tail (tail + len)
  end;
  Mutex.unlock t.m;
  fits

let read t dst pos len =
  if pos < 0 || len < 0 || pos + len > Bytes.length dst then
    invalid_arg "Ring.read";
  let head = Atomic.get t.head in
  let n = Stdlib.min len (Atomic.get t.tail - head) in
  let i = head land t.mask in
  let first = Stdlib.min n (capacity t - i) in
  Bytes.blit t.buf i dst pos first;
  Bytes.blit t.buf 0 dst (pos + first) (n - first);
  Atomic.set t.head (head + n);
  n
