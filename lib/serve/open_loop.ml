(* The open-loop serving front end.

   Ties the pieces into the §5 serving shape: an open-loop generator
   draws request times from {!Kflex_workload.Arrivals} (offered load is a
   free parameter — overload is reachable) and Zipfian keys from
   {!Kflex_workload.Zipf}; each request is {e encoded to real protocol
   bytes} ({!Wire}), torn into arbitrary fragments, pushed through the
   per-connection byte ring ({!Ring}) and parsed back incrementally —
   the engine only ever sees operations that survived wire framing.
   Parsed operations become app-model packets multiplexed onto the
   engine's shards by its flow hash (the connection id rides in the
   source port).

   Latency accounting avoids coordinated omission: every request is
   stamped with its {e scheduled generation time}, and latency runs from
   that stamp to the verdict — queueing delay during overload counts, it
   is the phenomenon under measurement. Measuring from dequeue would
   flatten the overload curve into a lie.

   Two drive modes share one generated schedule:
   - deterministic/virtual time ({!run_deterministic}): shards as FIFO
     lanes, service = the chain's real executed cost × {!Cost.insn_ns};
     bit-identical across runs — the verdict-stream digest is the repo's
     ninth determinism check.
   - threaded/wall clock ({!run_threaded}): requests submitted to the
     engine's shard domains when the wall clock reaches their scheduled
     time, completion stamped in the shard's [on_done] callback.

   A "burner" tenant rides ahead of the cache extension on ~1/256 of
   keys ((k0 & 255) == 7) and loops far past the engine's reaper
   deadline, so cancellation latency is visible in the measured tail —
   the §4.3 story under load, not in a microbenchmark. *)

open Kflex_kernel
module Engine = Kflex_engine.Engine
module Stats = Kflex_workload.Stats
module Rng = Kflex_workload.Rng

type request = { gen_ns : float; hook : Hook.kind; pkt : Packet.t }

type config = {
  proto : Wire.proto;
  rate : float;  (* offered load, requests/second *)
  conns : int;  (* simulated connections *)
  requests : int;
  keyspace : int;
  zipf_s : float;
  set_frac : float;  (* fraction of writes (SET, and ZADD on Redis) *)
  arrival : Kflex_workload.Arrivals.kind;
  seed : int64;
  max_frag : int;  (* largest wire fragment pushed at once *)
  ring_bytes : int;  (* per-connection ring capacity *)
  burn : bool;  (* attach the over-deadline burner tenant *)
  burn_iters : int;
  deadline_us : float;  (* engine reaper deadline *)
  guard : bool;  (* attach the shared-map guard tenants ahead of the cache *)
  guard_capacity : int;  (* bucket tokens per key class per window *)
  guard_window_us : float;  (* bucket refill window *)
}

let default =
  {
    proto = Wire.Memcached;
    rate = 150_000.0;
    conns = 512;
    requests = 50_000;
    keyspace = 65_536;
    zipf_s = 0.99;
    set_frac = 0.1;
    arrival = Kflex_workload.Arrivals.Poisson;
    seed = 42L;
    max_frag = 17;
    ring_bytes = 1024;
    burn = true;
    burn_iters = 120_000;
    deadline_us = 200.0;
    guard = false;
    guard_capacity = 4096;
    guard_window_us = 1_000.0;
  }

(* --- the generator: arrivals -> wire bytes -> ring -> parser -> packets -- *)

let generate cfg =
  if cfg.requests <= 0 || cfg.conns <= 0 then invalid_arg "Open_loop.generate";
  let rng = Rng.create ~seed:cfg.seed in
  let arr = Kflex_workload.Arrivals.create ~kind:cfg.arrival ~rate:cfg.rate (Rng.split rng) in
  let zipf = Kflex_workload.Zipf.create ~s:cfg.zipf_s ~n:cfg.keyspace () in
  let hook = Wire.hook_of cfg.proto in
  let rings = Array.init cfg.conns (fun _ -> Ring.create cfg.ring_bytes) in
  let decs = Array.init cfg.conns (fun _ -> Wire.decoder cfg.proto) in
  (* generation stamps of frames written to conn c but not yet parsed;
     ring order = parse order, so FIFO pairing is exact *)
  let times = Array.init cfg.conns (fun _ -> Queue.create ()) in
  let src_port c = 1024 + (c mod 64000) in
  let dummy =
    Packet.make ~proto:Packet.Udp ~src_port:0 ~dst_port:0 Bytes.empty
  in
  let out = Array.make cfg.requests { gen_ns = 0.0; hook; pkt = dummy } in
  let emitted = ref 0 in
  let tmp = Bytes.create 512 in
  let drain c =
    let rec pull () =
      let n = Ring.read rings.(c) tmp 0 (Bytes.length tmp) in
      if n > 0 then begin
        Wire.feed decs.(c) tmp 0 n;
        pull ()
      end
    in
    pull ();
    let rec parse () =
      match Wire.next decs.(c) with
      | Some op ->
          let t = Queue.pop times.(c) in
          out.(!emitted) <-
            {
              gen_ns = t;
              hook;
              pkt = Wire.packet_of_op ~src_port:(src_port c) cfg.proto op;
            };
          incr emitted;
          parse ()
      | None -> ()
    in
    parse ()
  in
  (* Write one frame in random-sized fragments; the ring drains on
     pressure and, sometimes, mid-frame — the parser sees torn streams
     on every run, not just in the framing tests. *)
  let push c frame t =
    Queue.push t times.(c);
    let len = Bytes.length frame in
    let pos = ref 0 in
    while !pos < len do
      let fl = Stdlib.min (len - !pos) (1 + Rng.int rng cfg.max_frag) in
      while not (Ring.write rings.(c) frame !pos fl) do
        drain c
      done;
      pos := !pos + fl;
      if Rng.float rng < 0.15 then drain c
    done
  in
  for i = 0 to cfg.requests - 1 do
    let t = Kflex_workload.Arrivals.next arr in
    let c = Rng.int rng cfg.conns in
    let rank = Kflex_workload.Zipf.sample zipf rng in
    let cmd =
      if Rng.float rng < cfg.set_frac then
        match cfg.proto with
        | Wire.Memcached -> Wire.Set
        | Wire.Redis ->
            if Rng.bool rng then Wire.Set
            else
              Wire.Zadd
                ( Int64.of_int (Rng.int rng 1_000_000),
                  Int64.logand (Rng.next rng) 0xffff_ffffL )
      else Wire.Get
    in
    let op = Wire.op_of_rank ~cmd ~rank ~opaque:(Int32.of_int (i land 0x3fff_ffff)) in
    push c (Wire.encode cfg.proto op) t;
    (* pipelining: often several frames sit in a ring before a drain *)
    if Queue.length times.(c) >= 6 || Rng.float rng < 0.7 then drain c
  done;
  for c = 0 to cfg.conns - 1 do
    drain c
  done;
  if !emitted <> cfg.requests then
    Format.kasprintf failwith "Open_loop.generate: emitted %d of %d requests"
      !emitted cfg.requests;
  (* drains interleave across connections, so emission order is not
     arrival order — restore the schedule (stamps are strictly
     increasing, so the order is total) *)
  Array.sort (fun a b -> Float.compare a.gen_ns b.gen_ns) out;
  out

(* --- tenants ------------------------------------------------------------- *)

(* Runs ahead of the cache on ~1/256 of keys and loops far past the
   reaper deadline; its cancellation (default_ret = the hook's pass
   verdict) lets the chain continue, so the cache still answers — the
   request is late, not lost. *)
let burner_source ~pass ~iters =
  Printf.sprintf
    {|
fn prog(c: ctx) -> u64 {
  var k0: u64 = pkt_read_u64(c, 1);
  if ((k0 & 255) == 7) {
    var acc: u64 = k0;
    var i: u64 = 0;
    while (i < %d) {
      acc = (acc * 1099511628211) ^ (acc >> 29);
      i = i + 1;
    }
    if (acc == 0) { pkt_write_u8(c, 64, 1); }
  }
  return %Ld;
}
|}
    iters pass

let attach_src eng ~name ~hook ?heap_bits src =
  let c = Kflex_eclang.Compile.compile_string ~name src in
  let heap_size = Option.map (fun b -> Int64.shift_left 1L b) heap_bits in
  match
    Engine.attach eng ~name
      ~globals_size:c.Kflex_eclang.Compile.layout.Kflex_eclang.Compile.globals_size
      ~quantum:1_000_000_000 ?heap_size ~hook
      c.Kflex_eclang.Compile.prog
  with
  | Ok h -> h
  | Error e ->
      Format.kasprintf failwith "serve: tenant %s rejected: %a" name
        Kflex_verifier.Verify.pp_error e

let attach_tenants cfg eng =
  let hook = Wire.hook_of cfg.proto in
  if cfg.guard then begin
    (* engine-shared maps first, so fds 3/4 are valid for every tenant;
       drop = any non-pass verdict (terminal for the chain) *)
    let spin, rcu = Kflex_apps.Ratelimit.make_maps ~shards:(Engine.shards eng) in
    ignore (Engine.share_map eng spin);
    ignore (Engine.share_map eng rcu);
    let pass = Hook.pass_verdict hook in
    let drop = if Int64.equal pass 1L then 0L else 1L in
    ignore
      (attach_src eng ~name:"ratelimit" ~hook ~heap_bits:12
         (Kflex_apps.Ratelimit.bucket_source ~pass ~drop
            ~capacity:cfg.guard_capacity
            ~window_ns:(Int64.of_float (cfg.guard_window_us *. 1e3))));
    ignore
      (attach_src eng ~name:"conntrack" ~hook ~heap_bits:12
         (Kflex_apps.Ratelimit.conntrack_source ~pass ~drop))
  end;
  if cfg.burn then
    (* heap_bits 12: even a loop-only program needs a page for the
       instrumentation's terminate word *)
    ignore
      (attach_src eng ~name:"burner" ~hook ~heap_bits:12
         (burner_source ~pass:(Hook.pass_verdict hook) ~iters:cfg.burn_iters));
  match cfg.proto with
  | Wire.Memcached ->
      ignore
        (attach_src eng ~name:"kflex-memcached" ~hook ~heap_bits:24
           Kflex_apps.Memcached.kflex_source)
  | Wire.Redis ->
      ignore
        (attach_src eng ~name:"kflex-redis" ~hook ~heap_bits:24
           Kflex_apps.Redis.source)

let make_engine cfg ~mode ~shards =
  let eng =
    Engine.create ~shards ~mode
      ~deadline_ns:(cfg.deadline_us *. 1e3)
      ~seed:cfg.seed ()
  in
  attach_tenants cfg eng;
  eng

(* --- results ------------------------------------------------------------- *)

type outcome = {
  offered_rps : float;
  achieved_rps : float;
  mean_us : float;
  p50_us : float;
  p99_us : float;
  p999_us : float;
  completed : int;
  cancelled : int;  (* chain entries reaped past the deadline *)
  leaked : int;
  digest : int64;  (* 0 for wall-clock runs *)
  span_s : float;
}

let ns_of_cost c = float_of_int c *. Cost.insn_ns

let run_deterministic ?(shards = 1) cfg =
  let reqs = generate cfg in
  let events =
    Array.map
      (fun r ->
        { Kflex_sim.Open_loop.at_ns = r.gen_ns; hook = r.hook; pkt = r.pkt })
      reqs
  in
  let eng = make_engine cfg ~mode:`Deterministic ~shards in
  let r = Kflex_sim.Open_loop.run_engine ~ns_of_cost eng events in
  let t = Engine.totals eng in
  Engine.shutdown eng;
  {
    offered_rps = cfg.rate;
    achieved_rps = r.Kflex_sim.Open_loop.throughput_mops *. 1e6;
    mean_us = r.Kflex_sim.Open_loop.mean_us;
    p50_us = r.Kflex_sim.Open_loop.p50_us;
    p99_us = r.Kflex_sim.Open_loop.p99_us;
    p999_us = r.Kflex_sim.Open_loop.p999_us;
    completed = r.Kflex_sim.Open_loop.completed;
    cancelled = t.Engine.cancelled;
    leaked = t.Engine.leaked;
    digest = r.Kflex_sim.Open_loop.digest;
    span_s = r.Kflex_sim.Open_loop.span_ns /. 1e9;
  }

let run_threaded ?(shards = 1) cfg =
  let reqs = generate cfg in
  let eng = make_engine cfg ~mode:`Threaded ~shards in
  let n = Engine.shards eng in
  (* per-shard recorders: each is touched only by its shard's domain
     (completion callbacks for one shard never run concurrently) *)
  let lat = Array.init n (fun _ -> Stats.create ()) in
  let t0 = Unix.gettimeofday () *. 1e9 in
  Array.iter
    (fun r ->
      let target = t0 +. r.gen_ns in
      let rec wait () =
        let now = Unix.gettimeofday () *. 1e9 in
        if now < target then begin
          let gap_s = (target -. now) /. 1e9 in
          if gap_s > 5e-5 then Unix.sleepf (Float.min gap_s 0.001);
          wait ()
        end
      in
      wait ();
      let sh = Engine.shard_of eng r.pkt in
      Engine.submit eng ~hook:r.hook
        ~on_done:(fun _ ->
          let now = Unix.gettimeofday () *. 1e9 in
          Stats.add lat.(sh) ((now -. target) /. 1000.0))
        r.pkt)
    reqs;
  Engine.drain eng;
  let t_end = Unix.gettimeofday () *. 1e9 in
  let t = Engine.totals eng in
  Engine.shutdown eng;
  let merged = Array.fold_left Stats.merge (Stats.create ()) lat in
  let span_s = (t_end -. t0) /. 1e9 in
  {
    offered_rps = cfg.rate;
    achieved_rps =
      (if span_s > 0.0 then float_of_int (Stats.count merged) /. span_s
       else 0.0);
    mean_us = Stats.mean merged;
    p50_us = Stats.percentile merged 0.50;
    p99_us = Stats.percentile merged 0.99;
    p999_us = Stats.percentile merged 0.999;
    completed = Stats.count merged;
    cancelled = t.Engine.cancelled;
    leaked = t.Engine.leaked;
    digest = 0L;
    span_s;
  }

let determinism_check ?(shards = 2) cfg =
  let a = run_deterministic ~shards cfg in
  let b = run_deterministic ~shards cfg in
  ( Int64.equal a.digest b.digest && a.leaked = 0 && b.leaked = 0
    && a.completed = b.completed,
    a.digest,
    b.digest )
