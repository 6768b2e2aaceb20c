(* Pins every virtual-time load driver: one line per run, every result
   field printed in %h, so a change to queueing, placement, service order
   or the latency fold shows as a diff naming the run. The output is
   diffed against driver_golden.txt in [dune runtest]; after a deliberate
   change, review the diff and refresh with [dune promote].

   Runs: the anonymous worker pool (constant, random and GC service), the
   §5 end-to-end cells at small request counts, the engine closed loop at
   1/2/4 shards (private structures and a write-heavy shared RCU map),
   and the deterministic open-loop server (Memcached, overload, Redis and
   the shared-map guard tenants). *)

module Lanes = Kflex_sim.Lanes
module Engine = Kflex_engine.Engine
module OL = Kflex_serve.Open_loop

let closed name (r : Lanes.result) =
  Printf.printf "%s: tput %h mean %h p50 %h p99 %h completed %d\n" name
    r.Lanes.throughput_mops r.Lanes.mean_us r.Lanes.p50_us r.Lanes.p99_us
    r.Lanes.completed

(* --- the worker pool --------------------------------------------------- *)

let pool ?gc ~workers ~service requests =
  Lanes.run ~servers:workers ?gc ~lanes:1
    ~place:(fun _ -> 0)
    ~service:(fun ~lane:_ _ req -> service req)
    ~requests ~gen:Fun.id
    (Lanes.Closed { clients = 64; rtt_ns = 1000.0; warmup_frac = 0.1 })

let pools () =
  closed "pool constant" (pool ~workers:4 ~service:(fun _ -> 1000.0) 5_000);
  let rng = Kflex_workload.Rng.create ~seed:3L in
  closed "pool random"
    (pool ~workers:4
       ~service:(fun i ->
         float_of_int (i land 7) +. 500.0
         +. (Kflex_workload.Rng.float rng *. 1500.0))
       5_000);
  closed "pool gc"
    (pool ~workers:2
       ~gc:(1_000_000.0, 100_000.0)
       ~service:(fun _ -> 1000.0)
       20_000)

(* --- the §5 end-to-end cells ------------------------------------------- *)

let e2e name cells =
  List.iter
    (fun (label, rows) ->
      List.iter
        (fun (r : Kflex_apps.E2e.row) ->
          Printf.printf "%s %s %s: tput %h mean %h p99 %h\n" name label
            r.Kflex_apps.E2e.system r.Kflex_apps.E2e.throughput_mops
            r.Kflex_apps.E2e.mean_us r.Kflex_apps.E2e.p99_us)
        rows)
    cells

let e2es () =
  e2e "memcached" (Kflex_apps.E2e.fig_memcached ~workers:8 ~requests:1_500 ());
  e2e "zadd" [ ("zadd", Kflex_apps.E2e.fig_zadd ~requests:1_500 ()) ];
  e2e "codesign" (Kflex_apps.E2e.fig_codesign ~workers:8 ~requests:1_500 ())

(* --- the engine closed loop -------------------------------------------- *)

let packets ~seed ~events ~write_every =
  let rng = Kflex_workload.Rng.create ~seed in
  Array.init events (fun i ->
      let b = Bytes.make 17 '\000' in
      if i mod write_every = 0 then Bytes.set b 0 '\001';
      Bytes.set_int64_le b 1 (Int64.of_int (Kflex_workload.Rng.int rng 4096));
      Bytes.set_int64_le b 9 1L;
      Kflex_kernel.Packet.make ~proto:Kflex_kernel.Packet.Udp
        ~src_port:(1024 + Kflex_workload.Rng.int rng 60000)
        ~dst_port:9 b)

let attach eng ?heap_size ?(use_heap = true) ~name src =
  let c = Kflex_eclang.Compile.compile_string ~name ~use_heap src in
  match
    Engine.attach eng ~name
      ~globals_size:
        c.Kflex_eclang.Compile.layout.Kflex_eclang.Compile.globals_size
      ?heap_size ~hook:Kflex_kernel.Hook.Xdp c.Kflex_eclang.Compile.prog
  with
  | Ok _ -> ()
  | Error e ->
      Format.kasprintf failwith "%s rejected: %a" name
        Kflex_verifier.Verify.pp_error e

let closed_engine eng pkts =
  Lanes.run ~lanes:(Engine.shards eng) ~place:(Engine.shard_of eng)
    ~service:(fun ~lane _ pkt ->
      let r = Engine.run_on eng ~shard:lane pkt in
      Kflex_kernel.Cost.xdp_service_ns
        ~compute_ns:(float_of_int r.Engine.cost *. Kflex_kernel.Cost.insn_ns)
        ~reply:false)
    ~requests:(Array.length pkts) ~gen:(Array.get pkts)
    (Lanes.Closed { clients = 32; rtt_ns = 2_000.; warmup_frac = 0.1 })

(* Every packet with op 1 writes the engine-shared RCU map, so each
   shard's reads see the other shards' updates in service order. *)
let rcu_src = {|
fn prog(c: ctx) -> u64 {
  var kbuf: bytes[8];
  var vbuf: bytes[8];
  st64(&kbuf, 0, pkt_read_u64(c, 1) & 63);
  var n: u64 = 0;
  if (bpf_map_lookup(3, &kbuf, &vbuf) == 1) { n = ld64(&vbuf, 0); }
  if (pkt_read_u8(c, 0) == 1) {
    st64(&vbuf, 0, n + 1);
    bpf_map_update(3, &kbuf, &vbuf);
    return 2;
  }
  return 1 + (n & 1);
}
|}

let engines () =
  let pkts = packets ~seed:11L ~events:1_200 ~write_every:4 in
  List.iter
    (fun shards ->
      let eng = Engine.create ~shards () in
      List.iter
        (fun kind ->
          attach eng ~heap_size:(Int64.shift_left 1L 22)
            ~name:(Kflex_apps.Datastructs.name kind)
            (Kflex_apps.Datastructs.chain_source kind))
        [ Kflex_apps.Datastructs.Hashmap; Kflex_apps.Datastructs.Rbtree ];
      closed (Printf.sprintf "engine chain %d shards" shards)
        (closed_engine eng pkts);
      Engine.shutdown eng)
    [ 1; 2; 4 ];
  let pkts = packets ~seed:13L ~events:1_200 ~write_every:2 in
  List.iter
    (fun shards ->
      let eng = Engine.create ~shards () in
      ignore
        (Engine.share_map eng
           (Kflex_kernel.Map.create ~kind:Kflex_kernel.Map.Rcu_shared
              ~cpus:shards ~max_entries:64 ()));
      attach eng ~use_heap:false ~name:"rcu_writes" rcu_src;
      let r = closed_engine eng pkts in
      let t = Engine.totals eng in
      closed
        (Printf.sprintf "engine rcu %d shards verdicts [%s]" shards
           (String.concat "; "
              (List.map
                 (fun (v, n) -> Printf.sprintf "%Ld:%d" v n)
                 t.Engine.verdicts)))
        r;
      Engine.shutdown eng)
    [ 1; 2; 4 ]

(* --- the deterministic open loop --------------------------------------- *)

let serve name ~shards cfg =
  let o = OL.run_deterministic ~shards cfg in
  Printf.printf
    "%s %d shards: offered %h achieved %h mean %h p50 %h p99 %h p999 %h \
     completed %d cancelled %d leaked %d digest %Lx span %h\n"
    name shards o.OL.offered_rps o.OL.achieved_rps o.OL.mean_us o.OL.p50_us
    o.OL.p99_us o.OL.p999_us o.OL.completed o.OL.cancelled o.OL.leaked
    o.OL.digest o.OL.span_s

let serves () =
  let base =
    { OL.default with OL.requests = 1_500; conns = 32; burn_iters = 20_000 }
  in
  List.iter (fun shards -> serve "memcached" ~shards base) [ 1; 2; 4 ];
  serve "overload" ~shards:2 { base with OL.rate = 10_000_000.0 };
  serve "redis" ~shards:2 { base with OL.proto = Kflex_serve.Wire.Redis };
  (* in overload, so the shards' queues hold work that the shared maps
     see in service order *)
  let guard =
    {
      base with
      OL.rate = 1_500_000.0;
      burn = false;
      guard = true;
      guard_capacity = 4;
      guard_window_us = 50.0;
    }
  in
  List.iter (fun shards -> serve "guard" ~shards guard) [ 1; 2; 4 ]

let () =
  pools ();
  e2es ();
  engines ();
  serves ()
