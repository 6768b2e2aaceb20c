(* kbench: the wire-to-verdict benchmark.

     kbench.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
     kbench.exe all [--seed N] [--seconds S] [--trace 0|1]
     kbench.exe calibrate [--runs N] [--seed N] [--seconds S]
     kbench.exe smoke
     kbench.exe probe

   A single run prints a detail JSON line (validity, diagnostics, every
   metric computed) and, as its last line, the summary
   {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
   untraced, the per-layer metrics traced. [all] and [calibrate] run each
   workload in fresh processes; [smoke] checks validity at 2,000 requests;
   [probe] prints the time of the host-speed probe, which a run starts as
   a child process. *)

module Engine = Kflex_engine.Engine
module Open_loop = Kflex_serve.Open_loop
module Vm = Kflex_runtime.Vm

let end_to_end = [ "p50_us"; "goodput_rps"; "setup_s" ]

type result = {
  workload : string;
  seed : int;
  traced : bool;
  valid : bool;
  attempted : int;
  lost : int;
  leaked : int;
  socket_refs : int;
  failed : int;
  diag : (string * float) list;
  e2e : (string * float * string) list;
  layer : (string * float * string) list;
}

let us ns = float_of_int ns /. 1e3
let per n x = float_of_int x /. float_of_int n

(* --- traced run: span tree and per-layer summary -------------------------- *)

type spans = {
  lag : int array;  (* gen.lag: due -> ready *)
  ring : int array;  (* serve.ring: ready -> ring_end *)
  dec : int array;  (* serve.decode: ring_end -> decoded *)
  submit : int array;  (* engine.submit: decoded -> submit returned *)
  queue : int array;  (* engine.queue: decoded -> service start *)
  service : int array;  (* engine.service: service start -> on_done *)
  start : int array;  (* service start, absolute *)
}

(* A shard is FIFO, so service starts when the packet is decoded or when
   the shard's previous request completed, whichever is later. The return
   of [submit] is no boundary: [on_done] can fire before it. The four
   top-level spans are differences of consecutive stamps, so they tile
   due -> on_done exactly and none is negative. *)
let spans (f : Inputs.frames) (st : Run.stamps) =
  let n = f.n in
  let start = Array.make n 0 in
  Array.iteri
    (fun k i ->
      let prev = if k = 0 then 0 else st.done_ns.(st.order.(k - 1)) in
      start.(i) <- Stdlib.max st.decoded.(i) prev)
    st.order;
  {
    lag = Array.init n (fun i -> st.ready.(i) - st.due_at.(i));
    ring = Array.init n (fun i -> st.ring_end.(i) - st.ready.(i));
    dec = Array.init n (fun i -> st.decoded.(i) - st.ring_end.(i));
    submit = Array.init n (fun i -> st.submit_end.(i) - st.decoded.(i));
    queue = Array.init n (fun i -> start.(i) - st.decoded.(i));
    service = Array.init n (fun i -> st.done_ns.(i) - start.(i));
    start;
  }

(* Raw spans, 1-in-k requests so the file holds at most 100k spans; times
   count from the first request's due time. *)
let write_trace path (f : Inputs.frames) (st : Run.stamps) sp =
  let per_req = 8 in
  let k = Stdlib.max 1 ((f.n * per_req + 99_999) / 100_000) in
  let origin = st.due_at.(0) in
  let oc = open_out path in
  let span i name parent a b =
    Printf.fprintf oc
      "{\"req\": %d, \"span\": %S, \"parent\": %s, \"start_ns\": %d, \"end_ns\": %d}\n" i name
      (match parent with Some p -> Printf.sprintf "%S" p | None -> "null")
      (a - origin) (b - origin)
  in
  let i = ref 0 in
  while !i < f.n do
    let j = !i in
    let due = st.due_at.(j) and ready = st.ready.(j) and dec = st.decoded.(j) in
    span j "request" None due st.done_ns.(j);
    span j "gen.lag" (Some "request") due ready;
    span j "serve.ingest" (Some "request") ready dec;
    span j "serve.ring" (Some "serve.ingest") ready st.ring_end.(j);
    span j "serve.decode" (Some "serve.ingest") st.ring_end.(j) dec;
    span j "engine.queue" (Some "request") dec sp.start.(j);
    span j "engine.submit" (Some "engine.queue") dec st.submit_end.(j);
    span j "engine.service" (Some "request") sp.start.(j) st.done_ns.(j);
    i := !i + k
  done;
  close_out oc

(* Highest number of requests submitted but not yet completed. *)
let backlog_max (st : Run.stamps) =
  let dones = Pct.sorted_copy st.done_ns in
  let j = ref 0 and best = ref 0 in
  Array.iteri
    (fun i d ->
      while !j < Array.length dones && dones.(!j) <= d do incr j done;
      best := Stdlib.max !best (i + 1 - !j))
    st.decoded;
  !best

let layer_metrics (f : Inputs.frames) (st : Run.stamps) sp ~cancelled ~exec_ns
    ~(ref_stats : Vm.stats) =
  let n = f.n in
  let s = Pct.sorted_copy in
  let lag = s sp.lag and queue = s sp.queue and service = s sp.service in
  let submit = s sp.submit and exec = s exec_ns in
  let cancel_service =
    let l = ref [] in
    Array.iteri (fun i c -> if Bytes.get_uint8 st.cancels i > 0 then l := c :: !l) sp.service;
    Pct.sorted_copy (Array.of_list !l)
  in
  let cs q = if Array.length cancel_service = 0 then 0.0 else us (Pct.at cancel_service q) in
  let busy = Array.fold_left ( + ) 0 sp.service in
  let window =
    Array.fold_left
      (fun acc (lo, hi) ->
        let first = ref max_int and last = ref 0 in
        for i = lo to hi - 1 do
          first := Stdlib.min !first sp.start.(i);
          last := Stdlib.max !last st.done_ns.(i)
        done;
        acc + (!last - !first))
      0 (Run.round_bounds n)
  in
  let cost = Vm.total_cost ref_stats in
  [
    ("gen.lag_p50_us", us (Pct.at lag 0.5), "us");
    ("gen.lag_p99_us", us (Pct.at lag 0.99), "us");
    ("serve.ring_ns", Pct.mean sp.ring, "ns");
    ("serve.decode_ns", Pct.mean sp.dec, "ns");
    ("engine.submit_ns", Pct.mean sp.submit, "ns");
    ("engine.submit_p99_ns", float_of_int (Pct.at submit 0.99), "ns");
    ("engine.queue_p50_us", us (Pct.at queue 0.5), "us");
    ("engine.queue_p99_us", us (Pct.at queue 0.99), "us");
    ("engine.service_p50_us", us (Pct.at service 0.5), "us");
    ("engine.service_p99_us", us (Pct.at service 0.99), "us");
    ("engine.busy_frac", float_of_int busy /. float_of_int (Stdlib.max 1 window), "fraction");
    ("engine.backlog_max", float_of_int (backlog_max st), "count");
    ("reaper.cancelled_per_kreq", 1000.0 *. per n cancelled, "1/kreq");
    ("reaper.cancel_service_p50_us", cs 0.5, "us");
    ("reaper.cancel_service_p99_us", cs 0.99, "us");
    ("reaper.cache_cancelled", float_of_int (Run.cache_cancelled st), "count");
    ("vm.exec_ns", Pct.mean exec_ns, "ns");
    ("vm.exec_p99_ns", float_of_int (Pct.at exec 0.99), "ns");
    ("vm.insns_per_req", per n ref_stats.Vm.insns, "insn");
    ("vm.guards_per_req", per n ref_stats.Vm.guards, "count");
    ("vm.checkpoints_per_req", per n ref_stats.Vm.checkpoints, "count");
    ("vm.cost_per_req", per n cost, "cost");
    ("vm.ns_per_cost", float_of_int (Array.fold_left ( + ) 0 exec_ns) /. float_of_int (Stdlib.max 1 cost), "ns");
    ("kernel.helper_calls_per_req", per n ref_stats.Vm.helper_calls, "count");
    ("kernel.helper_cost_per_req", per n ref_stats.Vm.helper_cost, "cost");
    ("gc.minor_words_per_req", st.minor_words /. float_of_int n, "words");
    ("gc.minor_collections", float_of_int st.minor_gcs, "count");
    ("gc.major_collections", float_of_int st.major_gcs, "count");
  ]

(* --- one run --------------------------------------------------------------- *)

(* Set-up is timed in [Run.rounds] blocks of [setup_per_round] cycles: one
   before the timed engine exists, so its first cycle meets a cold
   compiled-program cache, and one after each round but the last. Spread
   over the run, a few seconds of host stall move a few blocks, not the
   median. [~smoke:true] checks validity only: one set-up cycle, no
   host-speed probe, so nothing is scaled. *)
let measure ?out_dir ?(smoke = false) (w : Inputs.workload) ~seed ~requests ~traced =
  let cfg = Run.engine_config w ~seed in
  let setup_per_round = if smoke then 1 else 7 in
  let setup_ns = ref (Run.setup_cycles ~n:setup_per_round cfg) in
  let between () =
    if not smoke then setup_ns := Run.setup_cycles ~n:setup_per_round cfg @ !setup_ns
  in
  let probe () = if smoke then Run.nominal_probe_ns else Run.probe () in
  let admit = if traced then Run.admission cfg else [] in
  let f = Inputs.build w ~seed:(Int64.of_int seed) ~requests in
  let eng, pinned, sliced = Run.make_engine cfg in
  let st = Run.timed ~traced ~probe ~between w eng f in
  let totals = Engine.totals eng and socket_refs = Engine.socket_refs eng in
  Engine.shutdown eng;
  let chk = Run.check cfg w f st in
  let failed = chk.failed in
  let n = f.n in
  let count p a = Array.fold_left (fun k x -> if p x then k + 1 else k) 0 a in
  let lost = count (fun d -> d = 0) st.done_ns in
  let n_failed = count Fun.id failed in
  let latencies lo hi =
    let l =
      Array.of_seq
        (Seq.filter_map
           (fun i -> if st.done_ns.(i) = 0 then None else Some (st.done_ns.(i) - st.due_at.(i)))
           (Seq.init (hi - lo) (fun k -> lo + k)))
    in
    Array.sort compare l;
    l
  in
  let pct lat p = if Array.length lat = 0 then 0.0 else us (Pct.at lat p) in
  (* p50 and goodput of one round, raw and scaled to the nominal host by
     the mean of the probes around the round. Every part of a request's
     latency is host work (the generator, wake-ups, the chain), so p50 is
     scaled whole. Goodput counts correct answers over the round's span,
     from its first due time to its last on_done. The span lasts as long
     as the schedule or as long as the shard's work, whichever is longer,
     and only the work scales with the host: scaled, goodput is the
     offered rate on the light workloads and the shard's capacity on the
     overloads. The work is the sum of service times, each from the due
     time or the previous completion, whichever is later (FIFO). *)
  let round r (lo, hi) =
    let lat = latencies lo hi in
    let correct = ref 0 and last = ref 0 and busy = ref 0 and prev = ref 0 in
    for i = lo to hi - 1 do
      if not failed.(i) then incr correct;
      let d = st.done_ns.(i) in
      if d > 0 then begin
        busy := !busy + Stdlib.max 0 (d - Stdlib.max st.due_at.(i) !prev);
        prev := d
      end;
      last := Stdlib.max !last d
    done;
    let probe = float_of_int (st.probe_ns.(r) + st.probe_ns.(r + 1)) /. 2.0 in
    let host = float_of_int Run.nominal_probe_ns /. probe in
    let span = float_of_int (Stdlib.max 1 (!last - st.due_at.(lo))) in
    let schedule = float_of_int (st.due_at.(hi - 1) - st.due_at.(lo)) in
    let work = float_of_int !busy in
    let p50 = pct lat 0.5 and answers = float_of_int !correct *. 1e9 in
    [| p50 *. host; answers /. Float.max schedule (work *. host); p50; answers /. span;
       Float.min 1.0 (work /. span) |]
  in
  let rounds = Array.mapi round (Run.round_bounds n) in
  let median k = Pct.at (Pct.sorted_copy (Array.map (fun r -> r.(k)) rounds)) 0.5 in
  let probe = Pct.at (Pct.sorted_copy st.probe_ns) 0.5 in
  let e2e =
    [
      ("p50_us", median 0, "us");
      ("goodput_rps", median 1, "1/s");
      ("setup_s", float_of_int (Pct.at (Pct.sorted_copy (Array.of_list !setup_ns)) 0.5) /. 1e9, "s");
    ]
  in
  let lat = latencies 0 n in
  let beyond p = if Array.length lat = 0 then 0 else Pct.beyond lat p in
  let diag =
    [
      ("rounds", float_of_int Run.rounds);
      ("probe_ms", float_of_int probe /. 1e6);
      ("raw_p50_us", median 2);
      ("raw_goodput_rps", median 3);
      ("shard_busy", median 4);
      ("samples", float_of_int (Array.length lat));
      ("all_p50_us", pct lat 0.5);
      ("all_p95_us", pct lat 0.95);
      ("all_beyond_p95", float_of_int (beyond 0.95));
      ("all_p99_us", pct lat 0.99);
      ("all_beyond_p99", float_of_int (beyond 0.99));
      ("all_p999_us", pct lat 0.999);
      ("all_beyond_p999", float_of_int (beyond 0.999));
      ("all_max_us", pct lat 1.0);
      ("cancelled", float_of_int totals.Engine.cancelled);
      ("cache_cancelled", float_of_int (Run.cache_cancelled st));
      ("unchecked", float_of_int chk.unchecked);
      ("pinned", if pinned then 1.0 else 0.0);
      ("sliced", if sliced then 1.0 else 0.0);
      ("polled", if st.polled then 1.0 else 0.0);
    ]
  in
  let layer =
    if not (traced && lost = 0) then []
    else begin
      let sp = spans f st in
      let rec mkdir_p d =
        if not (Sys.file_exists d) then begin
          mkdir_p (Filename.dirname d);
          Sys.mkdir d 0o755
        end
      in
      Option.iter
        (fun dir ->
          mkdir_p dir;
          write_trace (Filename.concat dir (w.name ^ ".trace.jsonl")) f st sp)
        out_dir;
      layer_metrics f st sp ~cancelled:totals.Engine.cancelled ~exec_ns:chk.exec_ns
        ~ref_stats:chk.totals.Engine.stats
      @ admit
    end
  in
  {
    workload = w.name;
    seed;
    traced;
    valid = n_failed = 0 && totals.Engine.leaked = 0 && socket_refs = 0;
    attempted = n;
    lost;
    leaked = totals.Engine.leaked;
    socket_refs;
    failed = n_failed;
    diag;
    e2e;
    layer;
  }

(* --- output ---------------------------------------------------------------- *)

let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let json_metrics l =
  "{"
  ^ String.concat ", "
      (List.map (fun (k, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" k (num v) u) l)
  ^ "}"

let print_result r =
  List.iter (fun (k, v, u) -> Printf.printf "  %-30s %14.4f %s\n" k v u) (r.e2e @ r.layer);
  Printf.printf
    "{\"workload\": %S, \"seed\": %d, \"trace\": %d, \"valid\": %b, \"attempted\": %d, \"lost\": %d, \
     \"leaked\": %d, \"socket_refs\": %d, \"failed\": %d, \"diagnostics\": {%s}, \"metrics\": %s}\n"
    r.workload r.seed (Bool.to_int r.traced) r.valid r.attempted r.lost r.leaked r.socket_refs r.failed
    (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (num v)) r.diag))
    (json_metrics (r.e2e @ r.layer));
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n%!" r.valid
    r.attempted r.failed
    (json_metrics (if r.traced then r.layer else r.e2e))

(* --- fresh-process runs ---------------------------------------------------- *)

(* Run this executable on one workload, echo its output, and return the
   metric values from its detail line ([] if it failed). *)
let child ~workload ~seed ~seconds ~traced =
  let exe = Sys.executable_name in
  let args =
    [| exe; "--workload"; workload; "--seed"; string_of_int seed; "--seconds";
       string_of_int seconds; "--trace"; (if traced then "1" else "0") |]
  in
  let ic = Unix.open_process_args_in exe args in
  let detail = ref "" in
  (try
     while true do
       let l = input_line ic in
       print_endline l;
       if String.starts_with ~prefix:"{\"workload\"" l then detail := l
     done
   with End_of_file -> ());
  let ok = Unix.close_process_in ic = Unix.WEXITED 0 in
  let value name =
    let key = Printf.sprintf "%S: {\"value\": " name in
    let d = !detail in
    let rec find i =
      if i + String.length key > String.length d then None
      else if String.sub d i (String.length key) = key then Some (i + String.length key)
      else find (i + 1)
    in
    Option.bind (find 0) (fun s ->
        let e = ref s in
        while !e < String.length d && d.[!e] <> ',' && d.[!e] <> '}' do incr e done;
        float_of_string_opt (String.sub d s (!e - s)))
  in
  if ok then List.filter_map (fun k -> Option.map (fun v -> (k, v)) (value k)) end_to_end else []

let all ~seed ~seconds ~traced =
  let ok = ref true in
  List.iter
    (fun (w : Inputs.workload) ->
      let plain = child ~workload:w.name ~seed ~seconds ~traced:false in
      if plain = [] then ok := false;
      if traced then begin
        let tr = child ~workload:w.name ~seed ~seconds ~traced:true in
        if tr = [] then ok := false
        else
          List.iter
            (fun k ->
              match (List.assoc_opt k plain, List.assoc_opt k tr) with
              | Some a, Some b ->
                  Printf.printf "overhead %s %s: untraced %.4f traced %.4f (%+.2f%%)\n" w.name k a b
                    (100.0 *. ((b /. a) -. 1.0))
              | _ -> ())
            [ "p50_us"; "goodput_rps" ]
      end)
    Inputs.workloads;
  !ok

let calibrate ~runs ~seed ~seconds =
  let table =
    List.map
      (fun (w : Inputs.workload) ->
        let results = List.init runs (fun r -> child ~workload:w.name ~seed:(seed + r) ~seconds ~traced:false) in
        (w.name, results))
      Inputs.workloads
  in
  Printf.printf "%-15s %-12s %14s %14s %14s %14s %9s\n" "workload" "metric" "median" "q1" "q3" "max-min"
    "iqr/med";
  let ok = ref true in
  List.iter
    (fun (name, results) ->
      if List.mem [] results then ok := false
      else
        List.iter
          (fun k ->
            let v = Array.of_list (List.map (List.assoc k) results) in
            let qs = Pct.quartiles v in
            let lo = Array.fold_left Float.min v.(0) v and hi = Array.fold_left Float.max v.(0) v in
            Printf.printf "%-15s %-12s %14.6g %14.6g %14.6g %14.6g %8.2f%%\n" name k qs.(1) qs.(0) qs.(2)
              (hi -. lo) (100.0 *. (qs.(2) -. qs.(0)) /. qs.(1)))
          end_to_end)
    table;
  !ok

let smoke () =
  List.for_all
    (fun traced ->
      List.for_all
        (fun (w : Inputs.workload) ->
          let r = measure w ~smoke:true ~seed:42 ~requests:2_000 ~traced in
          Printf.printf "smoke %-15s trace=%d valid=%b attempted=%d lost=%d leaked=%d failed=%d\n%!"
            r.workload (Bool.to_int traced) r.valid r.attempted r.lost r.leaked r.failed;
          r.valid)
        Inputs.workloads)
    [ false; true ]

(* --- command line ---------------------------------------------------------- *)

let usage () =
  prerr_string
    "usage: kbench.exe --workload NAME [--seed N] [--seconds 1-60] [--trace 0|1]\n\
    \       kbench.exe all [--seed N] [--seconds S] [--trace 0|1]\n\
    \       kbench.exe calibrate [--runs N] [--seed N] [--seconds S]\n\
    \       kbench.exe smoke\n\
    \       kbench.exe probe\n\
     workloads: ";
  prerr_endline (String.concat ", " (List.map (fun (w : Inputs.workload) -> w.name) Inputs.workloads));
  exit 2

let () =
  let cmd, rest =
    match List.tl (Array.to_list Sys.argv) with
    | c :: rest when not (String.starts_with ~prefix:"-" c) -> (c, rest)
    | rest -> ("run", rest)
  in
  let rec pairs = function
    | [] -> []
    | k :: v :: rest when String.starts_with ~prefix:"--" k -> (k, v) :: pairs rest
    | _ -> usage ()
  in
  let opts = pairs rest in
  let allowed =
    match cmd with
    | "run" -> [ "--workload"; "--seed"; "--seconds"; "--trace" ]
    | "all" -> [ "--seed"; "--seconds"; "--trace" ]
    | "calibrate" -> [ "--runs"; "--seed"; "--seconds" ]
    | "smoke" | "probe" -> []
    | _ -> usage ()
  in
  if List.exists (fun (k, _) -> not (List.mem k allowed)) opts then usage ();
  let int_opt k default ~min ~max =
    match List.assoc_opt k opts with
    | None -> default
    | Some v -> ( match int_of_string_opt v with Some x when x >= min && x <= max -> x | _ -> usage ())
  in
  let seed = int_opt "--seed" 42 ~min:0 ~max:max_int in
  let seconds = int_opt "--seconds" 10 ~min:1 ~max:60 in
  let traced =
    match List.assoc_opt "--trace" opts with
    | None | Some "0" -> false
    | Some "1" -> true
    | Some _ -> usage ()
  in
  let ok =
    match cmd with
    | "all" -> all ~seed ~seconds ~traced
    | "calibrate" -> calibrate ~runs:(int_opt "--runs" 5 ~min:2 ~max:100) ~seed ~seconds
    | "smoke" -> smoke ()
    | "probe" ->
        print_endline (string_of_int (Run.probe_work ()));
        true
    | _ ->
        let w =
          match List.assoc_opt "--workload" opts with
          | None -> usage ()
          | Some name -> (
              match List.find_opt (fun (w : Inputs.workload) -> w.name = name) Inputs.workloads with
              | Some w -> w
              | None -> usage ())
        in
        let r =
          measure ~out_dir:"benchmark/out" w ~seed ~requests:(w.per_second * seconds) ~traced
        in
        print_result r;
        r.valid
  in
  exit (if ok then 0 else 1)
