(* One virtual-time driver for both load shapes.

   The closed loop regulates itself: a client issues its next request only
   after the previous reply lands, so offered load never exceeds capacity.
   The open loop severs that feedback: request [idx] arrives at a
   pre-drawn time whatever has completed, so overload is reachable and
   queues grow without bound. Both feed the same server side: lanes, each
   a FIFO queue in front of [servers] servers.

   A request executes when a server takes it — [service] runs at service
   start, as on a real server and the threaded engine. Within a lane that
   is arrival order; across lanes it is service-start order, the order in
   which state shared between lanes is touched.

   Latency is recorded per lane and folded with [Stats.merge] at the end,
   as the engine keeps its hot-path statistics shard-local. *)

module Stats = Kflex_workload.Stats

type source =
  | Closed of { clients : int; rtt_ns : float; warmup_frac : float }
  | Open of (int -> float)

type result = {
  throughput_mops : float;
  mean_us : float;
  p50_us : float;
  p99_us : float;
  p999_us : float;
  completed : int;
  span_ns : float;
}

type 'req job = { req : 'req; issue : float; idx : int }

let run ?(servers = 1) ?gc ~lanes ~place ~service ~requests ~gen source =
  let clients, warmup, half_rtt =
    match source with
    | Closed c ->
        ( c.clients,
          int_of_float (c.warmup_frac *. float_of_int requests),
          c.rtt_ns /. 2.0 )
    | Open _ -> (1, 0, 0.0)
  in
  if clients <= 0 || lanes <= 0 || servers <= 0 || requests <= 0 then
    invalid_arg "Lanes.run";
  let des = Des.create () in
  let lat = Array.init lanes (fun _ -> Stats.create ()) in
  let queues = Array.init lanes (fun _ -> Queue.create ()) in
  let free = Array.make lanes servers in
  (* per-server GC deadlines (none fall due without [gc]); servers are
     anonymous, so a lane's pauses act as a token bucket: one pause per
     server per period, paid by whichever request starts first once one
     is owed *)
  let period, pause = Option.value gc ~default:(infinity, 0.0) in
  let next_gc =
    Array.init lanes (fun _ ->
        Array.init servers (fun i ->
            period *. (1.0 +. (float_of_int i /. float_of_int servers))))
  in
  let issued = ref 0 in
  let completed = ref 0 in
  let t_first = ref nan and t_last = ref 0.0 in
  let record lane job =
    let now = Des.now des in
    incr completed;
    if job.idx >= warmup then begin
      if Float.is_nan !t_first then t_first := now;
      t_last := now;
      Stats.add lat.(lane) ((now -. job.issue) /. 1000.0)
    end
  in
  let rec issue () =
    if !issued < requests then begin
      let idx = !issued in
      incr issued;
      let req = gen idx in
      let issue = Des.now des in
      Des.schedule des ~delay:half_rtt (fun () -> arrive { req; issue; idx })
    end
  and arrive job =
    let lane = place job.req in
    if free.(lane) > 0 then begin
      free.(lane) <- free.(lane) - 1;
      start lane job
    end
    else Queue.push job queues.(lane)
  and start lane job =
    let now = Des.now des and owed = next_gc.(lane) in
    let stall =
      match Array.find_index (fun t -> t <= now) owed with
      | Some i ->
          owed.(i) <- now +. period;
          pause
      | None -> 0.0
    in
    let s = service ~lane job.idx job.req in
    Des.schedule des ~delay:(stall +. s) (fun () -> finish lane job)
  and finish lane job =
    (* the server picks up queued work immediately *)
    (match Queue.take_opt queues.(lane) with
    | Some next -> start lane next
    | None -> free.(lane) <- free.(lane) + 1);
    match source with
    | Open _ -> record lane job
    | Closed _ ->
        (* the reply travels back; its client then issues again *)
        Des.schedule des ~delay:half_rtt (fun () ->
            record lane job;
            issue ())
  in
  (match source with
  | Closed _ ->
      for _ = 1 to clients do
        Des.schedule des ~delay:0.0 issue
      done
  | Open arrival ->
      (* every arrival is scheduled from time 0, so each fires at exactly
         its own time; the window opens on the first one *)
      let prev = ref 0.0 in
      for idx = 0 to requests - 1 do
        let at = arrival idx in
        if not (at >= !prev) then
          invalid_arg "Lanes.run: arrival times go backwards";
        prev := at;
        if idx = 0 then t_first := at;
        Des.schedule des ~delay:at (fun () ->
            arrive { req = gen idx; issue = at; idx })
      done);
  Des.run des;
  let merged = Array.fold_left Stats.merge (Stats.create ()) lat in
  let counted = Stats.count merged in
  let span_ns = if counted > 0 then !t_last -. !t_first else 0.0 in
  (* a closed window opens on its first measured reply, so it spans one
     interval fewer than it has replies *)
  let intervals = match source with Closed _ -> counted - 1 | Open _ -> counted in
  {
    throughput_mops =
      (if span_ns > 0.0 then float_of_int intervals /. span_ns *. 1000.0
       else 0.0);
    mean_us = Stats.mean merged;
    p50_us = Stats.percentile merged 0.50;
    p99_us = Stats.percentile merged 0.99;
    p999_us = Stats.percentile merged 0.999;
    completed = !completed;
    span_ns;
  }
