(* Discrete-event simulator tests: priority queue, event ordering, and the
   lane core's queueing behaviour under closed and open sources. *)
open Kflex_sim

let prop_heapq_sorted =
  QCheck.Test.make ~count:200 ~name:"heapq pops in key order"
    QCheck.(list (pair (float_bound_inclusive 1000.0) small_nat))
    (fun items ->
      let h = Heapq.create () in
      List.iter (fun (k, v) -> Heapq.push h k v) items;
      let rec drain last acc =
        match Heapq.pop h with
        | None -> List.rev acc
        | Some (k, _) ->
            if k < last then raise Exit;
            drain k (k :: acc)
      in
      match drain neg_infinity [] with
      | popped -> List.length popped = List.length items
      | exception Exit -> false)

let t_heapq_fifo_ties () =
  let h = Heapq.create () in
  List.iter (fun v -> Heapq.push h 1.0 v) [ 1; 2; 3 ];
  let order = List.init 3 (fun _ -> snd (Option.get (Heapq.pop h))) in
  Alcotest.(check (list int)) "fifo among equal keys" [ 1; 2; 3 ] order

let t_des_ordering () =
  let des = Des.create () in
  let log = ref [] in
  Des.schedule des ~delay:5.0 (fun () -> log := 5 :: !log);
  Des.schedule des ~delay:1.0 (fun () ->
      log := 1 :: !log;
      (* events scheduled during the run still execute in time order *)
      Des.schedule des ~delay:2.0 (fun () -> log := 3 :: !log));
  Des.run des;
  Alcotest.(check (list int)) "order" [ 1; 3; 5 ] (List.rev !log);
  Alcotest.(check (float 1e-9)) "clock" 5.0 (Des.now des)

let t_des_until () =
  let des = Des.create () in
  let fired = ref 0 in
  Des.schedule des ~delay:1.0 (fun () -> incr fired);
  Des.schedule des ~delay:10.0 (fun () -> incr fired);
  Des.run ~until:5.0 des;
  Alcotest.(check int) "only the early event" 1 !fired

(* the anonymous worker pool: one lane with [workers] servers *)
let pool ?(clients = 64) ?(workers = 4) ?gc ~service requests =
  Lanes.run ~servers:workers ?gc ~lanes:1
    ~place:(fun _ -> 0)
    ~service:(fun ~lane:_ _ req -> service req)
    ~requests ~gen:Fun.id
    (Lanes.Closed { clients; rtt_ns = 1000.0; warmup_frac = 0.1 })

let run_cl ?clients ?workers ?gc ~service requests =
  pool ?clients ?workers ?gc ~service:(fun _ -> service) requests

let t_closed_loop_throughput () =
  (* saturated: throughput ~ workers / service *)
  let r = run_cl ~workers:4 ~service:1000.0 20_000 in
  let expect = 4.0 /. 1000.0 *. 1000.0 (* MOps *) in
  Alcotest.(check bool) "within 10%" true
    (abs_float (r.Lanes.throughput_mops -. expect) /. expect < 0.1);
  Alcotest.(check int) "all completed" 20_000 r.Lanes.completed

let t_closed_loop_latency_queueing () =
  (* more clients than capacity: p99 reflects queueing, not service *)
  let light = run_cl ~clients:2 ~workers:4 ~service:1000.0 5_000 in
  let heavy = run_cl ~clients:256 ~workers:4 ~service:1000.0 5_000 in
  Alcotest.(check bool) "light is fast" true (light.Lanes.p99_us < 3.0);
  Alcotest.(check bool) "heavy queues" true
    (heavy.Lanes.p99_us > 10.0 *. light.Lanes.p99_us)

let t_closed_loop_gc_pauses () =
  let without = run_cl ~workers:2 ~service:1000.0 30_000 in
  let with_gc =
    run_cl ~workers:2 ~gc:(1_000_000.0, 100_000.0) ~service:1000.0 30_000
  in
  Alcotest.(check bool) "gc hurts p99" true
    (with_gc.Lanes.p99_us > without.Lanes.p99_us);
  Alcotest.(check bool) "gc hurts throughput" true
    (with_gc.Lanes.throughput_mops < without.Lanes.throughput_mops)

(* --- determinism ------------------------------------------------------- *)

(* The DES must replay identically: same schedule of events (including ones
   whose delays come from a seeded RNG) ⇒ identical event trace and clock. *)
let t_des_deterministic_trace () =
  let trace seed =
    let rng = Kflex_workload.Rng.create ~seed in
    let des = Des.create () in
    let log = ref [] in
    let rec arrival i =
      if i < 200 then
        Des.schedule des
          ~delay:(Kflex_workload.Rng.float rng *. 10.0)
          (fun () ->
            log := (i, Des.now des) :: !log;
            arrival (i + 1))
    in
    arrival 0;
    Des.run des;
    (List.rev !log, Des.now des)
  in
  let a = trace 11L and b = trace 11L in
  Alcotest.(check bool) "identical trace" true (a = b);
  let c = trace 12L in
  Alcotest.(check bool) "seed matters" true (a <> c)

(* The closed-loop model on top: same config twice ⇒ bit-identical result
   record, including when per-request service times are RNG-driven. *)
let t_closed_loop_deterministic () =
  let result seed =
    let rng = Kflex_workload.Rng.create ~seed in
    pool ~clients:32 ~workers:4
      ~service:(fun _ -> 500.0 +. (Kflex_workload.Rng.float rng *. 1500.0))
      5_000
  in
  Alcotest.(check bool) "identical results" true (result 3L = result 3L);
  Alcotest.(check bool) "seed matters" true (result 3L <> result 4L)

(* Split streams: giving the service-time and generation processes their own
   Rng.split children must not entangle them — replacing one stream's
   consumer leaves the other stream's draws unchanged. *)
let t_closed_loop_split_streams () =
  let streams seed ~drain =
    let parent = Kflex_workload.Rng.create ~seed in
    let svc = Kflex_workload.Rng.split parent in
    let gen = Kflex_workload.Rng.split parent in
    for _ = 1 to drain do
      ignore (Kflex_workload.Rng.next svc)
    done;
    ( List.init 50 (fun _ -> Kflex_workload.Rng.next svc),
      List.init 50 (fun _ -> Kflex_workload.Rng.next gen) )
  in
  let _, gen_a = streams 21L ~drain:0 in
  let _, gen_b = streams 21L ~drain:500 in
  (* the generation stream is untouched by how much the service stream
     consumed — the property that lets sim workloads, fuzz generation and
     layout randomisation coexist on one master seed *)
  Alcotest.(check bool) "gen stream independent of svc usage" true
    (gen_a = gen_b);
  let svc_a, gen_a = streams 21L ~drain:0 in
  Alcotest.(check bool) "streams differ" true (svc_a <> gen_a)

let t_closed_loop_faster_service_wins () =
  let slow = run_cl ~service:5000.0 10_000 in
  let fast = run_cl ~service:1000.0 10_000 in
  Alcotest.(check bool) "throughput" true
    (fast.Lanes.throughput_mops > 3.0 *. slow.Lanes.throughput_mops);
  Alcotest.(check bool) "latency" true
    (fast.Lanes.p99_us < slow.Lanes.p99_us)

(* An open source's arrivals are a schedule: one that goes backwards is a
   caller bug, refused before any request is served. *)
let t_open_backwards () =
  let served = ref 0 in
  let arrivals = [| 0.0; 10.0; 5.0 |] in
  Alcotest.check_raises "backwards arrivals"
    (Invalid_argument "Lanes.run: arrival times go backwards") (fun () ->
      ignore
        (Lanes.run ~lanes:1
           ~place:(fun _ -> 0)
           ~service:(fun ~lane:_ _ _ ->
             incr served;
             100.0)
           ~requests:3 ~gen:Fun.id
           (Lanes.Open (Array.get arrivals))));
  Alcotest.(check int) "nothing served" 0 !served

let () =
  Alcotest.run "sim"
    [
      ( "heapq",
        [
          QCheck_alcotest.to_alcotest prop_heapq_sorted;
          Alcotest.test_case "fifo ties" `Quick t_heapq_fifo_ties;
        ] );
      ( "des",
        [
          Alcotest.test_case "ordering" `Quick t_des_ordering;
          Alcotest.test_case "until" `Quick t_des_until;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "des trace" `Quick t_des_deterministic_trace;
          Alcotest.test_case "closed-loop replay" `Quick
            t_closed_loop_deterministic;
          Alcotest.test_case "split streams" `Quick
            t_closed_loop_split_streams;
        ] );
      ( "closed-loop",
        [
          Alcotest.test_case "saturation throughput" `Quick
            t_closed_loop_throughput;
          Alcotest.test_case "queueing latency" `Quick
            t_closed_loop_latency_queueing;
          Alcotest.test_case "gc pauses" `Quick t_closed_loop_gc_pauses;
          Alcotest.test_case "service ordering" `Quick
            t_closed_loop_faster_service_wins;
        ] );
      ( "open-loop",
        [ Alcotest.test_case "backwards arrivals" `Quick t_open_backwards ] );
    ]
