(* One measured run of one workload.

   The benchmark owns the clients and the clock. Set-up builds every wire
   frame from the seed; the generator thread then, at each due time,
   writes the frame into its connection's ring, reads it back, decodes it
   and submits the packet to a one-shard threaded engine. The verdict and
   the reply are stamped in [on_done]. Latency runs from the due time, so
   a stalled generator charges its lateness to the requests it delays.
   After the window every packet is replayed in order through a
   deterministic reference engine and each answer is checked against
   it. *)

module Engine = Kflex_engine.Engine
module Open_loop = Kflex_serve.Open_loop
module Ring = Kflex_serve.Ring
module Wire = Kflex_serve.Wire
module Vm = Kflex_runtime.Vm
module Hook = Kflex_kernel.Hook
module Packet = Kflex_kernel.Packet

let now () = Int64.to_int (Monotonic_clock.now ())

let spin_ns = 100_000 (* the generator spins for the last 100 us *)

external pin_cpu : int -> bool = "kbench_pin_cpu"
external set_slice : int -> bool = "kbench_set_slice"
external poll_start : int -> bool = "kbench_poll_start"
external poll_stop : unit -> unit = "kbench_poll_stop"

(* The load shape on two cores: the generator owns CPU 0; the shard and
   the reaper are spawned while the calling thread sits on CPU 1, so they
   inherit CPU 1. Left to the scheduler, the three threads trade places
   and the latencies of one run split into modes.

   On CPU 1 the reaper must preempt the shard to cancel a runaway. EEVDF
   lets the running thread finish its slice (a few ms by default) first,
   so a runaway lasts a scheduler slice, not the reaper's deadline plus
   its scan: with the default slice mc_runaway's p95 read 2.5 ms (median
   of eight seeds). The threads on CPU 1 therefore get a 100 us slice, as
   if the reaper had a CPU of its own; in the same hour p95 read 0.29 ms.

   [f] runs on CPU 1 with that slice, and what it spawns inherits both;
   the caller is back on CPU 0 with the default slice after. Also
   returns whether pinning and the slice call took: a host that cannot
   (not Linux, one CPU) runs unplaced, and a kernel before 6.12 accepts
   the slice but ignores it. *)
let slice_ns = 100_000

let on_cpu1 f =
  let pinned = pin_cpu 1 in
  let sliced = set_slice slice_ns in
  let x = f () in
  if sliced then ignore (set_slice 0 : bool);
  (x, pinned && pin_cpu 0, sliced)

let make_engine cfg = on_cpu1 (fun () -> Open_loop.make_engine cfg ~mode:`Threaded ~shards:1)

(* The burner's loop, 40,000 iterations, runs about 2.3 ms uncancelled on
   the calibration host ([kflexc run], compiled backend), ten times the
   deadline, so the reaper still cancels nearly every runaway. The
   library's default of 120,000 runs about 6 ms. When the host deschedules
   CPU 1, the reaper gets in late and a runaway holds the shard until it
   does or the loop ends: at 120,000 iterations, in a busy stretch,
   mc_runaway's shard was busy half the time against 15 % when calm, and
   the median request queued behind a runaway. *)
let engine_config (w : Inputs.workload) ~seed =
  {
    Open_loop.default with
    proto = w.proto;
    conns = Inputs.conns;
    seed = Int64.of_int seed;
    burn = w.burn;
    guard = w.guard;
    guard_capacity = 1_000_000 (* never drops, so no verdict depends on it *);
    deadline_us = w.deadline_us;
    burn_iters = 40_000;
  }

(* --- set-up --------------------------------------------------------------- *)

(* Wall times of [n] engine creations and shutdowns: domain start-up and
   every tenant's parse, verify and Kie steps. The JIT step compiles only
   on the process's first cycle; later cycles hit the library's
   compiled-program cache. Every thread stays on CPU 1, as the timed
   engine's do: across two CPUs, start-up and shutdown wait on an idle
   CPU waking, and the median flipped between about 2 and 4 ms from one
   minute to the next. *)
let setup_cycles ~n cfg =
  let t, _, _ =
    on_cpu1 (fun () ->
        List.init n (fun _ ->
            let t0 = now () in
            Engine.shutdown (Open_loop.make_engine cfg ~mode:`Threaded ~shards:1);
            now () - t0))
  in
  t

(* The public tenant sources a workload attaches, with their heap sizes,
   exactly as [Open_loop.attach_tenants] builds them. The burner's source
   is private to the library and is timed only inside the set-up cycles. *)
let public_tenants (cfg : Open_loop.config) =
  let hook = Wire.hook_of cfg.proto in
  let pass = Hook.pass_verdict hook in
  let drop = if Int64.equal pass 1L then 0L else 1L in
  let guards =
    if not cfg.guard then []
    else
      [
        ( "ratelimit", 12,
          Kflex_apps.Ratelimit.bucket_source ~pass ~drop ~capacity:cfg.guard_capacity
            ~window_ns:(Int64.of_float (cfg.guard_window_us *. 1e3)) );
        ("conntrack", 12, Kflex_apps.Ratelimit.conntrack_source ~pass ~drop);
      ]
  in
  let cache =
    match cfg.proto with
    | Wire.Memcached -> ("kflex-memcached", 24, Kflex_apps.Memcached.kflex_source)
    | Wire.Redis -> ("kflex-redis", 24, Kflex_apps.Redis.source)
  in
  (hook, guards @ [ cache ])

type admit = { compile_ns : int; verify_ns : int; kie_ns : int; jit_ns : int; insns : int }

(* Each admission stage of one source, timed separately. *)
let admit_once ~hook (name, heap_bits, src) =
  let t0 = now () in
  let c = Kflex_eclang.Compile.compile_string ~name src in
  let t1 = now () in
  let prog = c.Kflex_eclang.Compile.prog in
  let analysis =
    match
      Kflex_verifier.Verify.run ~mode:Kflex_verifier.Verify.Kflex ~contracts:Kflex.contracts
        ~ctx_size:Hook.ctx_size ~heap_size:(Int64.shift_left 1L heap_bits)
        ~sleepable:(Hook.sleepable hook) prog
    with
    | Ok a -> a
    | Error e ->
        Format.kasprintf failwith "%s rejected: %a" name Kflex_verifier.Verify.pp_error e
  in
  let t2 = now () in
  let kie =
    Kflex_kie.Instrument.run
      ~options:
        { Kflex_kie.Instrument.performance_mode = false; translate_on_store = false;
          kmod_baseline = false; no_elision = false }
      analysis
  in
  let t3 = now () in
  let ext =
    Vm.create ~helpers:(Kflex_kernel.Helpers.implementations (Kflex_kernel.Helpers.create ())) kie
  in
  let t4 = now () in
  ignore (Vm.precompile ext : Kflex_runtime.Jit.t);
  let t5 = now () in
  { compile_ns = t1 - t0; verify_ns = t2 - t1; kie_ns = t3 - t2; jit_ns = t5 - t4;
    insns = Kflex_bpf.Prog.length prog }

(* Per stage, the median over [reps] repetitions of the sum across tenants. *)
let admission cfg =
  let hook, tenants = public_tenants cfg in
  let reps = 5 in
  let sums =
    Array.init reps (fun _ ->
        List.fold_left
          (fun a t ->
            let b = admit_once ~hook t in
            { compile_ns = a.compile_ns + b.compile_ns; verify_ns = a.verify_ns + b.verify_ns;
              kie_ns = a.kie_ns + b.kie_ns; jit_ns = a.jit_ns + b.jit_ns;
              insns = a.insns + b.insns })
          { compile_ns = 0; verify_ns = 0; kie_ns = 0; jit_ns = 0; insns = 0 }
          tenants)
  in
  let med f = float_of_int (Pct.at (Pct.sorted_copy (Array.map f sums)) 0.5) /. 1e6 in
  [
    ("admit.compile_ms", med (fun r -> r.compile_ns), "ms");
    ("admit.verify_ms", med (fun r -> r.verify_ns), "ms");
    ("admit.kie_ms", med (fun r -> r.kie_ns), "ms");
    ("admit.jit_ms", med (fun r -> r.jit_ns), "ms");
    ("admit.insns", float_of_int sums.(0).insns, "count");
  ]

(* --- the timed window ----------------------------------------------------- *)

(* A run is [rounds] back-to-back windows over consecutive slices of the
   schedule; each round starts from an idle engine and the run reports
   the median round. One stall on a shared host then moves one round, not
   the result. *)
let rounds = 15

let round_bounds n = Array.init rounds (fun r -> (r * n / rounds, (r + 1) * n / rounds))

(* Host speed. A shared host changes speed by tens of percent from one
   minute to the next, longer than any run. So before the first round
   and after every round, a fixed piece of benchmark-owned work is timed,
   and its time lets the time metrics be scaled to a host whose probe
   takes [nominal_probe_ns] (the median on the two-core host the bounds
   were calibrated on). The work is hash-table churn over a million-key
   space, so like the engine it allocates and misses the caches.

   The probe must not see the system: a system change that costs CPU
   would slow the probe as much as the shard, and the scaling would
   cancel it. So it runs in a child process (no shared heap, no
   stop-the-world collections with the engine's domains) on CPU 0, the
   generator's CPU, which is idle between rounds; the engine's domains
   stay on CPU 1. *)
let nominal_probe_ns = 95_000_000

let probe_work () =
  ignore (pin_cpu 0 : bool);
  let tbl = Hashtbl.create 4096 in
  let r = Inputs.rng 7L in
  let t0 = now () in
  for i = 0 to 300_000 do
    let k = Inputs.int r (1 lsl 20) in
    match Hashtbl.find_opt tbl k with
    | Some v -> Hashtbl.replace tbl k (v + i)
    | None -> Hashtbl.add tbl k i
  done;
  now () - t0

(* [probe_work] in a fresh process: this executable's [probe] command. *)
let probe () =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe [| exe; "probe" |] in
  let t = In_channel.input_line ic in
  match (Unix.close_process_in ic, Option.bind t int_of_string_opt) with
  | Unix.WEXITED 0, Some ns -> ns
  | _ -> failwith "kbench: host-speed probe failed"

type stamps = {
  probe_ns : int array;  (* before round 0, then after each round *)
  due_at : int array;  (* absolute due time *)
  done_ns : int array;  (* on_done, absolute; 0 = never completed *)
  verdict : int array;
  reply : int array;  (* [reply] of the answered packet *)
  cancels : Bytes.t;  (* chain entries cancelled, saturating at 255 *)
  cache_cancelled : Bytes.t;  (* 1 when the last entry (the cache) was cancelled *)
  (* traced runs only; empty otherwise *)
  ready : int array;  (* generator done waiting *)
  ring_end : int array;  (* frame written to and read back from the ring *)
  decoded : int array;  (* packet decoded, about to submit *)
  submit_end : int array;  (* Engine.submit returned *)
  order : int array;  (* request indices in completion order *)
  (* Gc.quick_stat deltas summed over the rounds alone *)
  mutable minor_words : float;
  mutable minor_gcs : int;
  mutable major_gcs : int;
  mutable polled : bool;  (* the CPU 1 poller ran in every round *)
}

let cache_cancelled st =
  Bytes.fold_left (fun k c -> if c = '\000' then k else k + 1) 0 st.cache_cancelled

let rec last_cancelled = function
  | [] -> false
  | [ Vm.Cancelled _ ] -> true
  | _ :: rest -> last_cancelled rest

(* Sleep until [spin_ns] before [due], then spin; returns the time the
   generator was ready. *)
let wait_until due =
  let gap = due - now () in
  if gap > spin_ns then Unix.sleepf (float_of_int (gap - spin_ns) /. 1e9);
  let rec spin () =
    let t = now () in
    if t < due then spin () else t
  in
  spin ()

let next_op dec = try Wire.next dec with Wire.Protocol_error _ -> None
let packet proto c op = Wire.packet_of_op ~src_port:(1024 + c) proto op

(* What the extensions wrote into the packet, folded into one int: the
   hit flag at byte 65 and the value words at 33..64. The verdict alone
   says little: both cache programs answer every request they finish
   with the same verdict. *)
let reply (pkt : Packet.t) =
  let b = pkt.payload in
  let h = ref (Bytes.get_uint8 b 65) in
  for k = 0 to 3 do
    h := (!h * 0x100000001b3) lxor Int64.to_int (Bytes.get_int64_le b (33 + (8 * k)))
  done;
  !h

(* [probe] runs before the first round and after every round, [between]
   after every round but the last, both while the engine is idle. A full
   major collection before each round clears what [between] left
   behind. *)
let timed ~traced ~probe ~between (w : Inputs.workload) eng (f : Inputs.frames) =
  let n = f.Inputs.n in
  let tr k = if traced then Array.make k 0 else [||] in
  let st =
    {
      probe_ns = Array.make (rounds + 1) 0;
      due_at = Array.make n 0;
      done_ns = Array.make n 0;
      verdict = Array.make n 0;
      reply = Array.make n 0;
      cancels = Bytes.make n '\000';
      cache_cancelled = Bytes.make n '\000';
      ready = tr n;
      ring_end = tr n;
      decoded = tr n;
      submit_end = tr n;
      order = tr n;
      minor_words = 0.0;
      minor_gcs = 0;
      major_gcs = 0;
      polled = true;
    }
  in
  let completed = ref 0 in
  (* runs on the shard's domain; callbacks of one shard never overlap *)
  let complete i pkt (r : Engine.run_result) =
    st.done_ns.(i) <- now ();
    st.verdict.(i) <- Int64.to_int r.Engine.verdict;
    st.reply.(i) <- reply pkt;
    Bytes.set_uint8 st.cancels i (Stdlib.min 255 r.Engine.cancelled);
    if last_cancelled r.Engine.outcomes then Bytes.set_uint8 st.cache_cancelled i 1;
    if traced then st.order.(!completed) <- i;
    incr completed
  in
  let hook = Wire.hook_of w.proto in
  let rings = Array.init Inputs.conns (fun _ -> Ring.create 1024) in
  let decs = Array.init Inputs.conns (fun _ -> Wire.decoder w.proto) in
  let tmp = Bytes.create (Ring.capacity rings.(0)) in
  let submit i =
    let ready = wait_until st.due_at.(i) in
    let c = Bytes.get_uint8 f.conn i in
    let len = Inputs.frame_len f i in
    let got =
      if Ring.write rings.(c) f.buf f.off.(i) len then Ring.read rings.(c) tmp 0 len else 0
    in
    if traced then begin
      st.ready.(i) <- ready;
      st.ring_end.(i) <- now ()
    end;
    Wire.feed decs.(c) tmp 0 got;
    match next_op decs.(c) with
    | None -> () (* never submitted: counted as lost *)
    | Some op ->
        let pkt = packet w.proto c op in
        if traced then st.decoded.(i) <- now ();
        Engine.submit eng ~hook ~on_done:(fun r -> complete i pkt r) pkt;
        if traced then st.submit_end.(i) <- now ()
  in
  st.probe_ns.(0) <- probe ();
  Gc.full_major ();
  Array.iteri
    (fun r (lo, hi) ->
      let t0 = now () + 2_000_000 - f.due_ns.(lo) in
      for i = lo to hi - 1 do
        st.due_at.(i) <- t0 + f.due_ns.(i)
      done;
      let g0 = Gc.quick_stat () in
      (* While a round runs, an idle-priority thread polls CPU 1, as
         idle=poll would, so the CPU never halts between requests. A
         halted vCPU wakes only when the hypervisor runs it again, and that
         wait follows the other tenants of the host: in ten runs
         alternating with and without the poller, mc_light's p50 read
         11.5-12.2 us with it and 16.6-19.6 us without while the host
         stayed calm, and drifted further without it as the host got
         busier. The shard and the reaper preempt the poller at once. *)
      let polling = poll_start 1 in
      for i = lo to hi - 1 do
        submit i
      done;
      Engine.drain eng;
      if polling then poll_stop () else st.polled <- false;
      let g1 = Gc.quick_stat () in
      st.minor_words <- st.minor_words +. g1.minor_words -. g0.minor_words;
      st.minor_gcs <- st.minor_gcs + g1.minor_collections - g0.minor_collections;
      st.major_gcs <- st.major_gcs + g1.major_collections - g0.major_collections;
      st.probe_ns.(r + 1) <- probe ();
      if r < rounds - 1 then begin
        between ();
        Gc.full_major ()
      end)
    (round_bounds n);
  st

(* --- the output check -------------------------------------------------- *)

type check = {
  failed : bool array;
  unchecked : int;  (* requests whose reply was not compared *)
  exec_ns : int array;  (* wall time of each reference [Engine.run_packet] *)
  totals : Engine.totals;  (* the reference engine's *)
}

(* Every packet again, in order, on a deterministic engine with no
   deadline and no burner: the verdict and reply every request should
   have got. A request fails when it was never answered or when its
   answer differs.

   A cancelled extension is the system working as designed: the chain
   goes on with the extension's default, the hook's pass verdict, which
   hands the request to the server behind the cache. So a request whose
   cache entry the reaper cancelled must carry the pass verdict, and its
   reply is not compared. A cancelled write may have been applied in
   part, so later requests on its key are checked on the verdict alone.
   Which requests the reaper cancels depends on the host; whether a
   request fails does not. *)
let check cfg (w : Inputs.workload) (f : Inputs.frames) (st : stamps) =
  let eng = Engine.create ~shards:1 ~seed:cfg.Open_loop.seed () in
  Open_loop.attach_tenants { cfg with burn = false } eng;
  let hook = Wire.hook_of w.proto in
  let pass = Int64.to_int (Hook.pass_verdict hook) in
  let decs = Array.init Inputs.conns (fun _ -> Wire.decoder w.proto) in
  let tainted = Hashtbl.create 16 and unchecked = ref 0 in
  let exec_ns = Array.make f.n 0 in
  let failed =
    Array.init f.n (fun i ->
        let c = Bytes.get_uint8 f.conn i in
        Wire.feed decs.(c) f.buf f.off.(i) (Inputs.frame_len f i);
        match next_op decs.(c) with
        | None -> failwith "check: undecodable frame"
        | Some op ->
            let pkt = packet w.proto c op in
            let t = now () in
            let r = Engine.run_packet eng ~hook pkt in
            exec_ns.(i) <- now () - t;
            let verdict = Int64.to_int r.Engine.verdict in
            if st.done_ns.(i) = 0 then true
            else if Bytes.get_uint8 st.cache_cancelled i = 1 then begin
              if op.cmd <> Wire.Get then Hashtbl.replace tainted op.key ();
              incr unchecked;
              st.verdict.(i) <> pass
            end
            else if Hashtbl.mem tainted op.key then begin
              incr unchecked;
              st.verdict.(i) <> verdict
            end
            else st.verdict.(i) <> verdict || st.reply.(i) <> reply pkt)
  in
  { failed; unchecked = !unchecked; exec_ns; totals = Engine.totals eng }
