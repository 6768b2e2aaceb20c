(* End-to-end experiment cells (§5.1, §5.2, §5.3).

   Each cell drives the RFC 2544-style closed loop of {!Kflex_sim.Lanes}
   (one lane, [workers] servers) with per-request service times obtained by
   {e actually executing} the system under test: KFlex/BMC requests run the
   real instrumented bytecode in the VM (cost units -> ns via the cost
   model); user-space baselines charge the same application logic at native
   speed plus the transport-stack/syscall/context-switch path the kernel
   offload avoids. *)

open Kflex_kernel

type row = {
  system : string;
  throughput_mops : float;
  mean_us : float;
  p99_us : float;
}

type mc_req = { op : Memcached.op; rank : int }

let default_clients = 1024 (* 64 threads x 16 clients, §5 Testbed *)

let keyspace = 16384

let gen_mc ~seed ~get_frac ~n =
  let rng = Kflex_workload.Rng.create ~seed in
  let zipf = Kflex_workload.Zipf.create ~n:keyspace () in
  Array.init n (fun _ ->
      let op =
        if Kflex_workload.Rng.float rng < get_frac then Memcached.Get
        else Memcached.Set
      in
      { op; rank = Kflex_workload.Zipf.sample zipf rng })

let run_cell ?(clients = default_clients) ?gc ~workers ~requests ~service
    gen_arr =
  Kflex_sim.Lanes.run ~servers:workers ?gc ~lanes:1
    ~place:(fun _ -> 0)
    ~service:(fun ~lane:_ _ req -> service req)
    ~requests ~gen:(Array.get gen_arr)
    (Kflex_sim.Lanes.Closed { clients; rtt_ns = 4000.0; warmup_frac = 0.1 })

let row_of ~system (r : Kflex_sim.Lanes.result) =
  {
    system;
    throughput_mops = r.Kflex_sim.Lanes.throughput_mops;
    mean_us = r.Kflex_sim.Lanes.mean_us;
    p99_us = r.Kflex_sim.Lanes.p99_us;
  }

(* ---- Memcached (Figures 2, 3, 7) ---------------------------------------- *)

let preload_kflex_mc t =
  for rank = 0 to keyspace - 1 do
    ignore (Memcached.exec_kflex t (Memcached.op_packet ~op:Memcached.Set ~rank))
  done

let mc_kflex_cell ?gc ~workers ~requests ~get_frac () =
  let t = Memcached.create_kflex () in
  preload_kflex_mc t;
  let reqs = gen_mc ~seed:7L ~get_frac ~n:requests in
  let service (r : mc_req) =
    let pkt = Memcached.op_packet ~op:r.op ~rank:r.rank in
    let _, cost = Memcached.exec_kflex t pkt in
    Cost.xdp_service_ns ~compute_ns:(float_of_int cost *. Cost.insn_ns) ~reply:true
  in
  run_cell ?gc ~workers ~requests ~service reqs

let mc_user_cell ?gc ~workers ~requests ~get_frac () =
  (* the same logic at native speed, paying the full kernel path: measure
     the application compute on the uninstrumented (kernel-module-grade)
     twin and scale by the native advantage *)
  let t =
    Memcached.create_kflex
      ~mode:{ Kflex_kie.Instrument.default_options with
              Kflex_kie.Instrument.kmod_baseline = true }
      ()
  in
  preload_kflex_mc t;
  let reqs = gen_mc ~seed:7L ~get_frac ~n:requests in
  let service (r : mc_req) =
    let pkt = Memcached.op_packet ~op:r.op ~rank:r.rank in
    let _, cost = Memcached.exec_kflex t pkt in
    let compute_ns = float_of_int cost *. Cost.insn_ns /. Cost.native_speedup in
    let proto_tcp = r.op = Memcached.Set in
    Cost.user_service_ns ~proto_tcp ~compute_ns
  in
  run_cell ?gc ~workers ~requests ~service reqs

let mc_bmc_cell ~workers ~requests ~get_frac () =
  let t = Memcached.create_bmc ~cache_entries:keyspace () in
  for rank = 0 to keyspace - 1 do
    ignore (Memcached.exec_bmc t ~op:Memcached.Set ~rank)
  done;
  (* user-space compute baseline for the PASS path *)
  let tw =
    Memcached.create_kflex
      ~mode:{ Kflex_kie.Instrument.default_options with
              Kflex_kie.Instrument.kmod_baseline = true }
      ()
  in
  preload_kflex_mc tw;
  let reqs = gen_mc ~seed:7L ~get_frac ~n:requests in
  let service (r : mc_req) =
    match Memcached.exec_bmc t ~op:r.op ~rank:r.rank with
    | `Hit cost ->
        Cost.xdp_service_ns ~compute_ns:(float_of_int cost *. Cost.insn_ns)
          ~reply:true
    | `Pass cost ->
        (* XDP work, then the full user-space path for the same request *)
        let pkt = Memcached.op_packet ~op:r.op ~rank:r.rank in
        let _, app_cost = Memcached.exec_kflex tw pkt in
        let compute_ns =
          float_of_int app_cost *. Cost.insn_ns /. Cost.native_speedup
        in
        let proto_tcp = r.op = Memcached.Set in
        (float_of_int cost *. Cost.insn_ns)
        +. Cost.user_service_ns ~proto_tcp ~compute_ns
  in
  run_cell ~workers ~requests ~service reqs

let fig_memcached ~workers ~requests () =
  List.map
    (fun (label, get_frac) ->
      ( label,
        [
          row_of ~system:"User space" (mc_user_cell ~workers ~requests ~get_frac ());
          row_of ~system:"BMC" (mc_bmc_cell ~workers ~requests ~get_frac ());
          row_of ~system:"KFlex" (mc_kflex_cell ~workers ~requests ~get_frac ());
        ] ))
    [ ("90:10", 0.9); ("50:50", 0.5); ("10:90", 0.1) ]

(* Figure 7: co-designed Memcached with a user-space GC thread waking
   periodically and contending on the shared hash table (§5.3). The paper's
   GC runs every 1 s of a 30 s run; our simulated runs cover tens of
   milliseconds, so the period is scaled to keep the same duty cycle. *)
let fig_codesign ~workers ~requests () =
  let gc = (2_000_000.0, 150_000.0) in
  List.map
    (fun (label, get_frac) ->
      ( label,
        [
          row_of ~system:"User space"
            (mc_user_cell ~gc ~workers ~requests ~get_frac ());
          row_of ~system:"KFlex" (mc_kflex_cell ~gc ~workers ~requests ~get_frac ());
        ] ))
    [ ("90:10", 0.9); ("50:50", 0.5); ("10:90", 0.1) ]

(* ---- Redis (Figures 4 and 6) -------------------------------------------- *)

type redis_req = { rop : Redis.op; rrank : int }

let gen_redis ~seed ~get_frac ~n =
  let rng = Kflex_workload.Rng.create ~seed in
  let zipf = Kflex_workload.Zipf.create ~n:keyspace () in
  Array.init n (fun _ ->
      let rop =
        if Kflex_workload.Rng.float rng < get_frac then Redis.Get else Redis.Set
      in
      { rop; rrank = Kflex_workload.Zipf.sample zipf rng })

let preload_redis t =
  for rank = 0 to keyspace - 1 do
    ignore (Redis.exec t (Redis.op_packet ~op:Redis.Set ~rank))
  done

let redis_kflex_cell ?(mode = Kflex_kie.Instrument.default_options) ~workers
    ~requests ~get_frac () =
  let t = Redis.create ~mode () in
  preload_redis t;
  let reqs = gen_redis ~seed:11L ~get_frac ~n:requests in
  let service (r : redis_req) =
    let pkt = Redis.op_packet ~op:r.rop ~rank:r.rrank in
    let _, cost = Redis.exec t pkt in
    Cost.skb_service_ns ~proto_tcp:true
      ~compute_ns:(float_of_int cost *. Cost.insn_ns)
  in
  run_cell ~workers ~requests ~service reqs

let redis_user_cell ~workers ~requests ~get_frac () =
  let t =
    Redis.create
      ~mode:{ Kflex_kie.Instrument.default_options with
              Kflex_kie.Instrument.kmod_baseline = true }
      ()
  in
  preload_redis t;
  let reqs = gen_redis ~seed:11L ~get_frac ~n:requests in
  let service (r : redis_req) =
    let pkt = Redis.op_packet ~op:r.rop ~rank:r.rrank in
    let _, cost = Redis.exec t pkt in
    Cost.user_service_ns ~proto_tcp:true
      ~compute_ns:(float_of_int cost *. Cost.insn_ns /. Cost.native_speedup)
  in
  run_cell ~workers ~requests ~service reqs

let fig_redis ~workers ~requests () =
  List.map
    (fun (label, get_frac) ->
      ( label,
        [
          row_of ~system:"User space"
            (redis_user_cell ~workers ~requests ~get_frac ());
          row_of ~system:"KFlex" (redis_kflex_cell ~workers ~requests ~get_frac ());
        ] ))
    [ ("90:10", 0.9); ("50:50", 0.5); ("10:90", 0.1) ]

(* Figure 6: ZADD only, single server thread (Redis' global-lock design). *)
let fig_zadd ~requests () =
  let zsets = 64 in
  let gen_zadd ~seed ~n =
    let rng = Kflex_workload.Rng.create ~seed in
    let zipf = Kflex_workload.Zipf.create ~n:zsets () in
    Array.init n (fun _ ->
        let rank = Kflex_workload.Zipf.sample zipf rng in
        let score = Int64.of_int (Kflex_workload.Rng.int rng 100000) in
        let member = Kflex_workload.Rng.next rng in
        { rop = Redis.Zadd (score, member); rrank = rank })
  in
  let kflex =
    let t = Redis.create () in
    let reqs = gen_zadd ~seed:13L ~n:requests in
    let service (r : redis_req) =
      let pkt = Redis.op_packet ~op:r.rop ~rank:r.rrank in
      let _, cost = Redis.exec t pkt in
      Cost.skb_service_ns ~proto_tcp:true
        ~compute_ns:(float_of_int cost *. Cost.insn_ns)
    in
    run_cell ~clients:64 ~workers:1 ~requests ~service reqs
  in
  let user =
    let t =
      Redis.create
        ~mode:{ Kflex_kie.Instrument.default_options with
                Kflex_kie.Instrument.kmod_baseline = true }
        ()
    in
    let reqs = gen_zadd ~seed:13L ~n:requests in
    let service (r : redis_req) =
      let pkt = Redis.op_packet ~op:r.rop ~rank:r.rrank in
      let _, cost = Redis.exec t pkt in
      Cost.user_service_ns ~proto_tcp:true
        ~compute_ns:(float_of_int cost *. Cost.insn_ns /. Cost.native_speedup)
    in
    run_cell ~clients:64 ~workers:1 ~requests ~service reqs
  in
  [ row_of ~system:"Redis (user space)" user; row_of ~system:"KFlex" kflex ]

let pp_rows ppf (label, rows) =
  Format.fprintf ppf "@[<v>  %s:@," label;
  List.iter
    (fun r ->
      Format.fprintf ppf "    %-22s %6.3f MOps/s   p99 %8.1f us@," r.system
        r.throughput_mops r.p99_us)
    rows;
  Format.fprintf ppf "@]"
