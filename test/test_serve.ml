(* The serving front end: MPSC byte ring, incremental wire-protocol
   framing (fragmented / pipelined / torn streams), the generator's
   encode→ring→parse pipeline, the virtual-time open loop (determinism
   digest, overload, guard tenants) and the generated schedule on a
   threaded engine. *)

open Kflex_serve
module Engine = Kflex_engine.Engine
module Packet = Kflex_kernel.Packet

(* --- ring ---------------------------------------------------------------- *)

let t_ring_basic () =
  let r = Ring.create 64 in
  Alcotest.(check int) "pow2 capacity" 64 (Ring.capacity r);
  let src = Bytes.of_string "hello, ring" in
  Alcotest.(check bool) "write" true (Ring.write r src 0 (Bytes.length src));
  Alcotest.(check int) "length" (Bytes.length src) (Ring.length r);
  let dst = Bytes.create 64 in
  let n = Ring.read r dst 0 64 in
  Alcotest.(check int) "read all" (Bytes.length src) n;
  Alcotest.(check string) "content" "hello, ring" (Bytes.sub_string dst 0 n);
  Alcotest.(check int) "empty" 0 (Ring.read r dst 0 64)

let t_ring_wrap () =
  let r = Ring.create 16 in
  let src = Bytes.of_string "0123456789ab" in
  let dst = Bytes.create 16 in
  (* drive the positions far past the physical size to cross the wrap
     point many times *)
  for round = 0 to 99 do
    Alcotest.(check bool)
      (Printf.sprintf "write %d" round)
      true
      (Ring.write r src 0 12);
    (* a full ring rejects the next frame whole — never half-commits *)
    Alcotest.(check bool) "reject full" false (Ring.write r src 0 12);
    let n = Ring.read r dst 0 16 in
    Alcotest.(check int) "drain" 12 n;
    Alcotest.(check string) "round-trips" "0123456789ab"
      (Bytes.sub_string dst 0 12)
  done

let t_ring_cross_domain () =
  let r = Ring.create 256 in
  let total = 20_000 in
  let producer =
    Domain.spawn (fun () ->
        let b = Bytes.create 1 in
        for i = 0 to total - 1 do
          Bytes.set_uint8 b 0 (i land 0xff);
          while not (Ring.write r b 0 1) do
            Domain.cpu_relax ()
          done
        done)
  in
  let dst = Bytes.create 64 in
  let seen = ref 0 in
  let ok = ref true in
  while !seen < total do
    let n = Ring.read r dst 0 64 in
    for i = 0 to n - 1 do
      if Bytes.get_uint8 dst i <> (!seen + i) land 0xff then ok := false
    done;
    seen := !seen + n
  done;
  Domain.join producer;
  Alcotest.(check bool) "bytes in order across domains" true !ok

(* Against a byte-queue model: from every wrap offset of a 16-byte ring,
   random writes of 0 to 16 bytes and reads into buffers shorter and
   longer than what is buffered. A write that does not fit must change
   nothing, and a read returns the model's next bytes in order. *)
let t_ring_model () =
  let cap = 16 in
  let rng = Random.State.make [| 19 |] in
  let src = Bytes.init cap (fun i -> Char.chr (0x41 + i)) in
  for start = 0 to cap - 1 do
    let r = Ring.create cap in
    let q = Queue.create () in
    let dst = Bytes.create (2 * cap) in
    (* move the positions to [start] through an empty ring *)
    assert (Ring.write r src 0 start);
    assert (Ring.read r dst 0 cap = start);
    for step = 0 to 399 do
      let name what = Printf.sprintf "offset %d step %d: %s" start step what in
      if Random.State.bool rng then begin
        let len = Random.State.int rng (cap + 1) in
        let pos = Random.State.int rng (cap - len + 1) in
        Bytes.iteri
          (fun i _ -> Bytes.set src i (Char.chr (Random.State.int rng 256)))
          src;
        let fits = cap - Queue.length q >= len in
        Alcotest.(check bool) (name "write fits") fits (Ring.write r src pos len);
        if fits then
          Bytes.iter (fun c -> Queue.push c q) (Bytes.sub src pos len)
      end
      else begin
        let len = Random.State.int rng (2 * cap) in
        let pos = Random.State.int rng (2 * cap - len + 1) in
        let n = Ring.read r dst pos len in
        Alcotest.(check int) (name "read count") (min len (Queue.length q)) n;
        let want = String.init n (fun _ -> Queue.pop q) in
        Alcotest.(check string) (name "read bytes") want
          (Bytes.sub_string dst pos n)
      end;
      Alcotest.(check int) (name "length") (Queue.length q) (Ring.length r)
    done;
    (* filled, the ring rejects even a one-byte frame *)
    let free = cap - Queue.length q in
    Alcotest.(check bool) "fill" true (Ring.write r src 0 free);
    Alcotest.(check bool) "reject whole" false (Ring.write r src 0 1);
    Alcotest.(check int) "full" cap (Ring.length r)
  done

(* --- wire framing -------------------------------------------------------- *)

let ops_equal a b =
  a.Wire.cmd = b.Wire.cmd && String.equal a.Wire.key b.Wire.key
  && String.equal a.Wire.value b.Wire.value

let sample_ops proto =
  let zadd = Wire.Zadd (123456L, -42L) in
  let cmds =
    match proto with
    | Wire.Memcached -> [ Wire.Get; Wire.Set ]
    | Wire.Redis -> [ Wire.Get; Wire.Set; zadd ]
  in
  List.concat_map
    (fun cmd ->
      List.map
        (fun rank -> Wire.op_of_rank ~cmd ~rank ~opaque:(Int32.of_int rank))
        [ 0; 1; 7; 4095 ])
    cmds

let t_wire_roundtrip () =
  List.iter
    (fun proto ->
      List.iter
        (fun op ->
          let frame = Wire.encode proto op in
          let d = Wire.decoder proto in
          Wire.feed d frame 0 (Bytes.length frame);
          match Wire.next d with
          | Some op' ->
              Alcotest.(check bool) "op round-trips" true (ops_equal op op');
              Alcotest.(check int) "no residue" 0 (Wire.pending d);
              Alcotest.(check (option reject)) "no phantom frame" None
                (Wire.next d)
          | None -> Alcotest.fail "complete frame did not parse")
        (sample_ops proto))
    [ Wire.Memcached; Wire.Redis ]

(* a parsed op must produce the exact payload bytes the app models emit *)
let t_wire_matches_app_models () =
  List.iter
    (fun rank ->
      List.iter
        (fun (cmd, app_op) ->
          let op = Wire.op_of_rank ~cmd ~rank ~opaque:0l in
          let pkt = Wire.packet_of_op Wire.Memcached op in
          let ref_pkt = Kflex_apps.Memcached.op_packet ~op:app_op ~rank in
          Alcotest.(check bytes) "memcached payload" ref_pkt.Packet.payload
            pkt.Packet.payload;
          Alcotest.(check bool) "transport" true
            (pkt.Packet.proto = ref_pkt.Packet.proto
            && pkt.Packet.dst_port = ref_pkt.Packet.dst_port))
        [ (Wire.Get, Kflex_apps.Memcached.Get);
          (Wire.Set, Kflex_apps.Memcached.Set) ];
      List.iter
        (fun (cmd, app_op) ->
          let op = Wire.op_of_rank ~cmd ~rank ~opaque:0l in
          let pkt = Wire.packet_of_op Wire.Redis op in
          let ref_pkt = Kflex_apps.Redis.op_packet ~op:app_op ~rank in
          Alcotest.(check bytes) "redis payload" ref_pkt.Packet.payload
            pkt.Packet.payload)
        [ (Wire.Get, Kflex_apps.Redis.Get);
          (Wire.Set, Kflex_apps.Redis.Set);
          (Wire.Zadd (7L, 9L), Kflex_apps.Redis.Zadd (7L, 9L)) ])
    [ 0; 3; 511 ]

let t_wire_byte_by_byte () =
  List.iter
    (fun proto ->
      let ops = sample_ops proto in
      let d = Wire.decoder proto in
      let parsed = ref [] in
      List.iter
        (fun op ->
          let frame = Wire.encode proto op in
          for i = 0 to Bytes.length frame - 1 do
            Wire.feed d frame i 1;
            match Wire.next d with
            | Some op' -> parsed := op' :: !parsed
            | None -> ()
          done)
        ops;
      let parsed = List.rev !parsed in
      Alcotest.(check int) "all frames parsed" (List.length ops)
        (List.length parsed);
      List.iter2
        (fun a b -> Alcotest.(check bool) "torn op equal" true (ops_equal a b))
        ops parsed)
    [ Wire.Memcached; Wire.Redis ]

(* every split point of every frame: prefix alone is incomplete (never an
   error), prefix + rest parses to the original op. The interesting
   offsets — mid-header, mid-length-field, between \r and \n, one byte
   short of the end — are all visited because we sweep them all. *)
let t_wire_adversarial_splits () =
  List.iter
    (fun proto ->
      List.iter
        (fun op ->
          let frame = Wire.encode proto op in
          let len = Bytes.length frame in
          for s = 0 to len - 1 do
            let d = Wire.decoder proto in
            Wire.feed d frame 0 s;
            (match Wire.next d with
            | None -> ()
            | Some _ -> Alcotest.failf "phantom frame at split %d/%d" s len);
            Wire.feed d frame s (len - s);
            match Wire.next d with
            | Some op' ->
                Alcotest.(check bool)
                  (Printf.sprintf "split %d/%d" s len)
                  true (ops_equal op op')
            | None -> Alcotest.failf "lost frame at split %d/%d" s len
          done)
        (sample_ops proto))
    [ Wire.Memcached; Wire.Redis ]

let t_wire_malformed () =
  let expect_error name proto bytes =
    let d = Wire.decoder proto in
    Wire.feed d bytes 0 (Bytes.length bytes);
    match Wire.next d with
    | exception Wire.Protocol_error _ -> ()
    | _ -> Alcotest.failf "%s: malformed bytes accepted" name
  in
  (* bad magic *)
  let f = Wire.encode Wire.Memcached (Wire.op_of_rank ~cmd:Wire.Get ~rank:0 ~opaque:0l) in
  let bad = Bytes.copy f in
  Bytes.set_uint8 bad 0 0x81;
  expect_error "magic" Wire.Memcached bad;
  (* unknown opcode *)
  let bad = Bytes.copy f in
  Bytes.set_uint8 bad 1 0x0a;
  expect_error "opcode" Wire.Memcached bad;
  (* key-length lie *)
  let bad = Bytes.copy f in
  Bytes.set_uint16_be bad 2 16;
  expect_error "keylen" Wire.Memcached bad;
  (* RESP: unknown command, bare CR, bad bulk terminator *)
  expect_error "resp cmd" Wire.Redis (Bytes.of_string "*1\r\n$4\r\nPING\r\n");
  expect_error "resp int" Wire.Redis (Bytes.of_string "*x\r\n");
  let g = Wire.encode Wire.Redis (Wire.op_of_rank ~cmd:Wire.Get ~rank:0 ~opaque:0l) in
  let bad = Bytes.copy g in
  Bytes.set bad (Bytes.length bad - 1) 'X';
  expect_error "bulk term" Wire.Redis bad

let prop_random_fragmentation =
  QCheck.Test.make ~count:200 ~name:"random fragmentation round-trips"
    QCheck.(
      pair (pair bool (int_bound 9999)) (list_of_size Gen.(1 -- 12) (int_bound 4095)))
    (fun ((redis, fragseed), ranks) ->
      let proto = if redis then Wire.Redis else Wire.Memcached in
      let rng = Kflex_workload.Rng.create ~seed:(Int64.of_int (fragseed + 1)) in
      let ops =
        List.mapi
          (fun i rank ->
            let cmd =
              match (proto, i mod 3) with
              | _, 0 -> Wire.Get
              | _, 1 -> Wire.Set
              | Wire.Redis, _ -> Wire.Zadd (Int64.of_int rank, Int64.of_int i)
              | Wire.Memcached, _ -> Wire.Get
            in
            Wire.op_of_rank ~cmd ~rank ~opaque:(Int32.of_int i))
          ranks
      in
      (* pipeline all frames into one stream, then tear it randomly *)
      let stream = Buffer.create 1024 in
      List.iter (fun op -> Buffer.add_bytes stream (Wire.encode proto op)) ops;
      let bytes = Buffer.to_bytes stream in
      let d = Wire.decoder proto in
      let parsed = ref [] in
      let pos = ref 0 in
      let len = Bytes.length bytes in
      while !pos < len do
        let fl = Stdlib.min (len - !pos) (1 + Kflex_workload.Rng.int rng 23) in
        Wire.feed d bytes !pos fl;
        pos := !pos + fl;
        let rec pull () =
          match Wire.next d with
          | Some op ->
              parsed := op :: !parsed;
              pull ()
          | None -> ()
        in
        pull ()
      done;
      let parsed = List.rev !parsed in
      List.length parsed = List.length ops
      && List.for_all2 ops_equal ops parsed
      && Wire.pending d = 0)

(* --- the generator ------------------------------------------------------- *)

let small_cfg =
  {
    Open_loop.default with
    Open_loop.requests = 4000;
    conns = 64;
    rate = 400_000.0;
    keyspace = 4096;
  }

let t_generate () =
  let reqs = Open_loop.generate small_cfg in
  Alcotest.(check int) "exact count" small_cfg.Open_loop.requests
    (Array.length reqs);
  let sorted = ref true and prev = ref neg_infinity in
  Array.iter
    (fun r ->
      if r.Open_loop.gen_ns < !prev then sorted := false;
      prev := r.Open_loop.gen_ns)
    reqs;
  Alcotest.(check bool) "sorted by schedule" true !sorted;
  Array.iter
    (fun r ->
      Alcotest.(check int) "app payload size" 66
        (Bytes.length r.Open_loop.pkt.Packet.payload))
    reqs;
  (* deterministic in the seed *)
  let reqs' = Open_loop.generate small_cfg in
  Alcotest.(check bool) "same schedule" true
    (Array.for_all2
       (fun a b ->
         a.Open_loop.gen_ns = b.Open_loop.gen_ns
         && Bytes.equal a.Open_loop.pkt.Packet.payload
              b.Open_loop.pkt.Packet.payload)
       reqs reqs')

(* --- burner + reaper ----------------------------------------------------- *)

(* a rank whose first key word has (k0 & 255) = 7 triggers the burner *)
let burner_rank () =
  let rec find r =
    if r > 100_000 then Alcotest.fail "no burner rank found"
    else if
      Int64.logand (Kflex_apps.Memcached.key_words r).(0) 255L = 7L
    then r
    else find (r + 1)
  in
  find 0

let t_burner_reaped () =
  let cfg = { small_cfg with Open_loop.deadline_us = 100.0 } in
  let eng = Open_loop.make_engine cfg ~mode:`Deterministic ~shards:1 in
  let rank = burner_rank () in
  let op = Wire.op_of_rank ~cmd:Wire.Get ~rank ~opaque:0l in
  let pkt = Wire.packet_of_op Wire.Memcached op in
  let r = Engine.run_packet eng ~hook:(Wire.hook_of Wire.Memcached) pkt in
  Alcotest.(check int) "burner reaped" 1 r.Engine.cancelled;
  Alcotest.(check int) "chain continued to the cache" 2 r.Engine.executed;
  (* the cache still answered: a GET miss replies XDP_TX with hit=0 *)
  Alcotest.(check int64) "verdict from the cache" Kflex_kernel.Hook.xdp_tx
    r.Engine.verdict;
  let t = Engine.totals eng in
  Alcotest.(check int) "no leaks across cancellation" 0 t.Engine.leaked;
  Engine.shutdown eng

(* --- determinism (the ninth check) --------------------------------------- *)

let t_deterministic_digest () =
  let cfg = { small_cfg with Open_loop.requests = 3000 } in
  let ok, d1, d2 = Open_loop.determinism_check ~shards:2 cfg in
  Alcotest.(check bool)
    (Printf.sprintf "digests %Lx vs %Lx" d1 d2)
    true ok;
  (* the digest is sensitive to the schedule: a different seed diverges *)
  let cfg' = { cfg with Open_loop.seed = 43L } in
  let o = Open_loop.run_deterministic ~shards:2 cfg' in
  Alcotest.(check bool) "different seed, different stream" true
    (not (Int64.equal o.Open_loop.digest d1))

let t_open_loop_overload () =
  (* far above virtual capacity: the open loop must show queueing —
     p99 latency well above service time — and still complete everything *)
  let cfg =
    { small_cfg with Open_loop.rate = 10_000_000.0; requests = 3000 }
  in
  let o = Open_loop.run_deterministic ~shards:1 cfg in
  Alcotest.(check int) "all requests measured" 3000 o.Open_loop.completed;
  Alcotest.(check int) "no leaks" 0 o.Open_loop.leaked;
  (* in overload the backlog grows without bound, so even the median sits
     far above any service time *)
  Alcotest.(check bool) "queueing dominates" true (o.Open_loop.p50_us > 100.0);
  let light =
    Open_loop.run_deterministic ~shards:1
      { cfg with Open_loop.rate = 1000.0 }
  in
  Alcotest.(check bool) "light load is far below the overload median" true
    (light.Open_loop.p99_us < o.Open_loop.p50_us)

(* --- shared-map guard tenants -------------------------------------------- *)

let t_guard_tenants () =
  (* guard chain ahead of the cache: ratelimit (shared Spinlock buckets) →
     conntrack (shared RCU flow table) → kflex-memcached. A tiny bucket
     capacity under a Zipfian stream must shed the hot classes. *)
  let cfg =
    {
      small_cfg with
      Open_loop.requests = 2500;
      burn = false;
      guard = true;
      guard_capacity = 4;
      guard_window_us = 50.0;
    }
  in
  let eng = Open_loop.make_engine cfg ~mode:`Deterministic ~shards:2 in
  Alcotest.(check int) "guards + cache attached" 3
    (Engine.chain_length eng (Wire.hook_of cfg.Open_loop.proto));
  let spin, rcu =
    match Engine.shared_maps eng with
    | [ s; r ] -> (s, r)
    | l -> Alcotest.failf "expected 2 shared maps, got %d" (List.length l)
  in
  let reqs = Open_loop.generate cfg in
  let dropped = ref 0 and served = ref 0 in
  Array.iter
    (fun r ->
      let res = Engine.run_packet eng ~hook:r.Open_loop.hook r.Open_loop.pkt in
      if res.Engine.executed = 1 then incr dropped
      else if Int64.equal res.Engine.verdict Kflex_kernel.Hook.xdp_tx then
        incr served)
    reqs;
  let t = Engine.totals eng in
  Engine.shutdown eng;
  Alcotest.(check int) "all events ran" cfg.Open_loop.requests t.Engine.events;
  Alcotest.(check int) "no leaks" 0 t.Engine.leaked;
  Alcotest.(check bool) "hot classes shed" true (!dropped > 0);
  Alcotest.(check bool) "cold traffic still served" true (!served > 0);
  Alcotest.(check bool) "flows tracked in the shared RCU map" true
    (Kflex_kernel.Map.entries rcu > 0);
  Alcotest.(check bool) "no bucket lock left held" true
    (List.for_all
       (fun (k, _) -> not (Kflex_kernel.Map.lock_held spin k))
       (Kflex_kernel.Map.to_list spin))

let t_guard_determinism () =
  (* the ninth check still holds with the guard chain in front *)
  let cfg =
    {
      small_cfg with
      Open_loop.requests = 2000;
      guard = true;
      guard_capacity = 8;
      guard_window_us = 100.0;
    }
  in
  let ok, d1, d2 = Open_loop.determinism_check ~shards:2 cfg in
  Alcotest.(check bool)
    (Printf.sprintf "digests %Lx vs %Lx" d1 d2)
    true ok

(* --- the schedule on a threaded engine ------------------------------------ *)

(* The generated schedule submitted straight to a 2-shard threaded engine,
   unpaced; latency runs from submission to [on_done]. *)
let t_threaded_smoke () =
  let cfg =
    {
      small_cfg with
      Open_loop.requests = 2000;
      rate = 200_000.0;
      burn_iters = 400_000;
    }
  in
  let reqs = Open_loop.generate cfg in
  let eng = Open_loop.make_engine cfg ~mode:`Threaded ~shards:2 in
  (* per-shard recorders: each is touched only by its shard's domain *)
  let lat = Array.init 2 (fun _ -> Kflex_workload.Stats.create ()) in
  let t0 = Unix.gettimeofday () in
  Array.iter
    (fun r ->
      let sh = Engine.shard_of eng r.Open_loop.pkt in
      let submitted = Unix.gettimeofday () in
      Engine.submit eng ~hook:r.Open_loop.hook
        ~on_done:(fun _ ->
          Kflex_workload.Stats.add lat.(sh)
            ((Unix.gettimeofday () -. submitted) *. 1e6))
        r.Open_loop.pkt)
    reqs;
  Engine.drain eng;
  let span_s = Unix.gettimeofday () -. t0 in
  let t = Engine.totals eng in
  Engine.shutdown eng;
  let merged =
    Array.fold_left Kflex_workload.Stats.merge (Kflex_workload.Stats.create ()) lat
  in
  let completed = Kflex_workload.Stats.count merged in
  let p999 = Kflex_workload.Stats.percentile merged 0.999 in
  Alcotest.(check int) "all completions observed" 2000 completed;
  Alcotest.(check int) "no leaks" 0 t.Engine.leaked;
  Alcotest.(check bool) "nonzero throughput" true
    (float_of_int completed /. span_s > 0.0);
  Alcotest.(check bool) "finite tail" true (Float.is_finite p999 && p999 > 0.0)

let () =
  Alcotest.run "serve"
    [
      ( "ring",
        [
          Alcotest.test_case "basic" `Quick t_ring_basic;
          Alcotest.test_case "wrap" `Quick t_ring_wrap;
          Alcotest.test_case "cross-domain" `Quick t_ring_cross_domain;
          Alcotest.test_case "model" `Quick t_ring_model;
        ] );
      ( "wire",
        [
          Alcotest.test_case "round-trip" `Quick t_wire_roundtrip;
          Alcotest.test_case "matches app models" `Quick
            t_wire_matches_app_models;
          Alcotest.test_case "byte-by-byte" `Quick t_wire_byte_by_byte;
          Alcotest.test_case "adversarial splits" `Quick
            t_wire_adversarial_splits;
          Alcotest.test_case "malformed" `Quick t_wire_malformed;
          QCheck_alcotest.to_alcotest prop_random_fragmentation;
        ] );
      ( "open-loop",
        [
          Alcotest.test_case "generate" `Quick t_generate;
          Alcotest.test_case "burner reaped" `Quick t_burner_reaped;
          Alcotest.test_case "deterministic digest" `Quick
            t_deterministic_digest;
          Alcotest.test_case "overload" `Quick t_open_loop_overload;
          Alcotest.test_case "guard tenants" `Quick t_guard_tenants;
          Alcotest.test_case "guard determinism" `Quick t_guard_determinism;
          Alcotest.test_case "threaded smoke" `Quick t_threaded_smoke;
        ] );
    ]
