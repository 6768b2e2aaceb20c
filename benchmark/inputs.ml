(* The benchmark's own input generator.

   Everything that decides what the system is asked to do lives here, so
   no change to the library's workload modules can change the inputs: a
   splitmix64 stream, exponential (Poisson-process) gaps and a Zipf
   inverse-CDF table. The library is used only to turn an operation into
   protocol bytes ([Wire.op_of_rank], [Wire.encode]). *)

module Wire = Kflex_serve.Wire

(* --- splitmix64 ----------------------------------------------------------- *)

type rng = { mutable s : int64 }

let rng seed = { s = seed }

let next r =
  r.s <- Int64.add r.s 0x9e3779b97f4a7c15L;
  let z = r.s in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* uniform in [0, 1) from the top 53 bits *)
let float r = Int64.to_float (Int64.shift_right_logical (next r) 11) *. 0x1p-53
let int r n = Int64.to_int (Int64.unsigned_rem (next r) (Int64.of_int n))

(* --- Zipf(s) over [0, n) by inverse CDF ---------------------------------- *)

let zipf_cdf ~s n =
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for k = 0 to n - 1 do
    acc := !acc +. (1.0 /. Float.pow (float_of_int (k + 1)) s);
    cdf.(k) <- !acc
  done;
  Array.map (fun c -> c /. !acc) cdf

(* smallest rank whose cumulative weight reaches u *)
let zipf_rank cdf u =
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) >= u then hi := mid else lo := mid + 1
  done;
  !lo

(* --- workloads ------------------------------------------------------------ *)

type workload = {
  name : string;
  proto : Wire.proto;
  set_frac : float;  (* write share; Redis writes split evenly SET/ZADD *)
  rate : float;  (* offered requests per second (Poisson) *)
  per_second : int;  (* requests generated per measured second *)
  burn : bool;  (* attach the over-deadline burner tenant *)
  guard : bool;  (* attach the shared-map guard tenants *)
  deadline_us : float;  (* the reaper's deadline *)
}

(* Light workloads offer [per_second] = [rate], so the schedule lasts the
   measured time. Overloads offer 400k req/s, about 3.5x what one shard
   serves, and generate roughly one second of service per measured
   second, so the drain lasts about the measured time.

   The light workloads give the reaper a 200 us deadline. The overloads
   run no burner, and their one-second deadline keeps the reaper scanning
   but never firing. At 200 us a host stall gets a cache write cancelled
   now and then, and the output check can then no longer compare replies
   on that key: on a 60 s redis_overload run, 817 cancellations left 38 %
   of the replies unchecked. *)
let workloads =
  [
    { name = "mc_light"; proto = Wire.Memcached; set_frac = 0.1; rate = 5_000.0;
      per_second = 5_000; burn = false; guard = false; deadline_us = 200.0 };
    { name = "mc_runaway"; proto = Wire.Memcached; set_frac = 0.1; rate = 5_000.0;
      per_second = 5_000; burn = true; guard = false; deadline_us = 200.0 };
    { name = "mc_overload"; proto = Wire.Memcached; set_frac = 0.1;
      rate = 400_000.0; per_second = 100_000; burn = false; guard = true; deadline_us = 1e6 };
    { name = "redis_overload"; proto = Wire.Redis; set_frac = 0.5;
      rate = 400_000.0; per_second = 90_000; burn = false; guard = true; deadline_us = 1e6 };
  ]

let keyspace = 65_536
let zipf_s = 0.99
let conns = 2

(* ZADD names one of the [zsets] hottest keys (Zipf again) and adds one of
   [zscores] x [zmembers] (score, member) pairs; a pair already in the set
   is found and not added again. The program never deletes, so an
   unbounded population would fill its 16 MB heap: with random members it
   did so a third of the way into a 10 s run, and from then on every ZADD
   failed to allocate. Bounded, the heap holds at most 65,536 entries
   (6.8 MB) plus 1,024 sets of 33 skiplist nodes (4.6 MB). *)
let zsets = 1_024
let zscores = 8
let zmembers = 4

(* --- wire frames ----------------------------------------------------------- *)

type frames = {
  n : int;
  due_ns : int array;  (* schedule offset of request i, non-decreasing *)
  conn : Bytes.t;  (* connection of request i *)
  buf : Bytes.t;  (* every frame, back to back; may run past the last *)
  off : int array;  (* frame i is buf[off.(i), off.(i+1)) *)
}

let frame_len f i = f.off.(i + 1) - f.off.(i)

let build w ~seed ~requests =
  if requests < 1 then invalid_arg "Inputs.build: requests < 1";
  let r = rng seed in
  let cdf = zipf_cdf ~s:zipf_s keyspace in
  let zcdf = zipf_cdf ~s:zipf_s zsets in
  let due_ns = Array.make requests 0 in
  let conn = Bytes.make requests '\000' in
  let off = Array.make (requests + 1) 0 in
  let buf = ref (Bytes.create (requests * 64)) in
  let t = ref 0.0 in
  for i = 0 to requests - 1 do
    t := !t -. (Float.log (1.0 -. float r) /. w.rate *. 1e9);
    due_ns.(i) <- int_of_float !t;
    Bytes.set_uint8 conn i (int r conns);
    let rank = zipf_rank cdf (float r) in
    let rank, cmd =
      if float r >= w.set_frac then (rank, Wire.Get)
      else
        match w.proto with
        | Wire.Memcached -> (rank, Wire.Set)
        | Wire.Redis ->
            if int r 2 = 0 then (rank, Wire.Set)
            else
              let zrank = zipf_rank zcdf (float r) in
              (zrank, Wire.Zadd (Int64.of_int (int r zscores), Int64.of_int (int r zmembers)))
    in
    let op = Wire.op_of_rank ~cmd ~rank ~opaque:(Int32.of_int (i land 0x3fff_ffff)) in
    let frame = Wire.encode w.proto op in
    let at = off.(i) and len = Bytes.length frame in
    if at + len > Bytes.length !buf then begin
      let grown = Bytes.create (2 * (at + len)) in
      Bytes.blit !buf 0 grown 0 at;
      buf := grown
    end;
    Bytes.blit frame 0 !buf at len;
    off.(i + 1) <- at + len
  done;
  { n = requests; due_ns; conn; buf = !buf; off }
