module Vm = Kflex_runtime.Vm
module Heap = Kflex_runtime.Heap
module Hook = Kflex_kernel.Hook
module Packet = Kflex_kernel.Packet
module Helpers = Kflex_kernel.Helpers
module Socket = Kflex_kernel.Socket
module Cost = Kflex_kernel.Cost
module Map_ = Kflex_kernel.Map

type mode = [ `Deterministic | `Threaded ]

type handle = {
  aid : int;
  aname : string;
  ahook : Hook.kind;
  instances : Kflex.loaded array; (* one per shard *)
  lowered : bool; (* the instances' quantum is the engine's [budget] *)
}

type run_result = {
  verdict : int64;
  executed : int;
  cancelled : int;
  cost : int;
  outcomes : Vm.outcome list;
}

type job = Hook.kind * Packet.t * (run_result -> unit) option

type shard = {
  sid : int;
  prandom : Kflex_runtime.U64.cell; (* per-shard bpf_get_prandom_u32 stream *)
  clock : Kflex_runtime.U64.cell; (* per-shard bpf_ktime_get_ns virtual clock *)
  stats : Vm.stats; (* per-shard; only this shard writes it *)
  ctx : Bytes.t; (* the hook context block, refilled per event *)
  mutable events : int;
  mutable cancelled : int;
  mutable leaked : int;
  small_verdicts : int array; (* counts of verdicts 0–255 *)
  verdicts : (int64, int) Hashtbl.t; (* counts of every other verdict *)
  seen_gen : int Atomic.t; (* last registry generation this shard observed *)
  (* threaded mode; every mutable field below is guarded by [m] *)
  queue : job Queue.t;
  pushes : int Atomic.t; (* bumped under [m] on every push; the poller reads it *)
  m : Mutex.t;
  cv : Condition.t; (* the worker sleeps here when [asleep] *)
  idle_cv : Condition.t; (* drain/quiesce wait here; counted in [waiters] *)
  mutable asleep : bool;
  mutable wakeups : int; (* submits that found the worker asleep *)
  mutable waiters : int;
  mutable busy : bool;
  mutable domain : unit Domain.t option;
}

type t = {
  nshards : int;
  mode : mode;
  quantum : int; (* default per-invocation cost quantum *)
  deadline_ns : float option; (* deadline per invocation *)
  budget : int; (* a deterministic deadline's cost budget, else max_int *)
  shards : shard array;
  reaper : Reaper.t;
  reg_m : Mutex.t; (* serialises attach/detach/replace *)
  snapshot : handle Chain.t Atomic.t; (* what shards execute *)
  mutable next_aid : int;
  running : bool Atomic.t;
  mutable shared : Map_.t list;
      (* engine-owned cross-shard maps, in share order; every subsequent
         attach registers them (fds 3, 4, …) before the tenant's own
         [configure] runs. Appended under [reg_m]. *)
}

(* splitmix64 finaliser: decorrelate per-shard streams drawn from one seed *)
let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let make_shard ~seed sid =
  {
    sid;
    prandom =
      Kflex_runtime.U64.cell
        (Int64.logor (mix64 (Int64.add seed (Int64.of_int (sid + 1)))) 1L);
    clock = Kflex_runtime.U64.cell 0L;
    stats = Vm.fresh_stats ();
    ctx = Bytes.make Hook.ctx_size '\000';
    events = 0;
    cancelled = 0;
    leaked = 0;
    small_verdicts = Array.make 256 0;
    verdicts = Hashtbl.create 8;
    seen_gen = Atomic.make 0;
    queue = Queue.create ();
    pushes = Atomic.make 0;
    m = Mutex.create ();
    cv = Condition.create ();
    idle_cv = Condition.create ();
    asleep = false;
    wakeups = 0;
    waiters = 0;
    busy = false;
    domain = None;
  }

(* --- event execution --------------------------------------------------- *)

(* Hook verdicts are small codes: counting them in an array keeps the
   per-event tally off [caml_hash]. *)
let record_verdict shard v =
  if v >= 0L && v < 256L then begin
    let i = Int64.to_int v in
    shard.small_verdicts.(i) <- shard.small_verdicts.(i) + 1
  end
  else
    let n = try Hashtbl.find shard.verdicts v with Not_found -> 0 in
    Hashtbl.replace shard.verdicts v (n + 1)

let finished = function Vm.Finished _ -> true | Vm.Cancelled _ -> false

let run_plain shard (inst : Kflex.loaded) pkt =
  Kflex.run_packet_into inst ~ctx:shard.ctx ~cpu:shard.sid ~stats:shard.stats
    pkt

(* Run one chain entry on a shard against its context block (filled once
   per event). A threaded engine with a deadline runs the entry in the
   shard's reaper slot, on the wall clock: the watchdog domain flips the
   extension's cancel flag asynchronously, like a sibling CPU would. A
   deterministic engine's deadline is the instances' quantum, so its
   entries run unwatched. The entry allocates nothing unless it is
   cancelled. *)
let exec_entry t shard h pkt =
  let inst = h.instances.(shard.sid) in
  let outcome =
    match t.deadline_ns with
    | Some dl when t.mode = `Threaded -> (
        let slot = Reaper.slot t.reaper shard.sid in
        Reaper.arm slot inst.Kflex.ext
          ~deadline:((Unix.gettimeofday () *. 1e9) +. dl);
        match run_plain shard inst pkt with
        | o ->
            Reaper.disarm t.reaper slot ~finished:(finished o);
            o
        | exception e ->
            Reaper.disarm t.reaper slot ~finished:true;
            raise e)
    | _ -> run_plain shard inst pkt
  in
  (* Re-arm after a cancellation the VM raised itself (quantum, stall; the
     reaper's own flag is cleared at disarm). The facade leaves the flag
     set and the paper's runtime unloads the extension; a multi-tenant
     engine instead treats cancellation as per-invocation. *)
  if Vm.cancelled inst.Kflex.ext then Vm.reset_cancel inst.Kflex.ext;
  match outcome with
  | Vm.Cancelled ({ reason = Vm.Quantum_expired; _ } as c) when h.lowered ->
      Vm.Cancelled { c with reason = Vm.Ext_cancelled }
  | o -> o

(* Event boundary = quiescent state: this shard holds no reference into
   any shared RCU snapshot between events, so announce the epoch and let
   the map reclaim retired versions every CPU has moved past. *)
let rec quiesce_rcu sid = function
  | [] -> ()
  | m :: rest ->
      if Map_.kind m = Map_.Rcu_shared then Map_.rcu_quiesce m ~cpu:sid;
      quiesce_rcu sid rest

let verdict_of = function
  | Vm.Finished v -> v
  | Vm.Cancelled { ret; _ } -> ret

(* Entries from [i] on while the verdict says continue: their outcomes in
   chain order, built front to back (no reversal). *)
let rec run_chain t shard chain ~hook pkt i =
  if i >= Array.length chain then []
  else begin
    let o = exec_entry t shard chain.(i) pkt in
    (match o with
    | Vm.Cancelled { ledger_leaked; _ } ->
        shard.cancelled <- shard.cancelled + 1;
        shard.leaked <- shard.leaked + ledger_leaked
    | Vm.Finished _ -> ());
    o
    ::
    (if Chain.continue_on hook (verdict_of o) then
       run_chain t shard chain ~hook pkt (i + 1)
     else [])
  end

let rec last_verdict v = function
  | [] -> v
  | o :: rest -> last_verdict (verdict_of o) rest

let rec count_cancelled n = function
  | [] -> n
  | Vm.Cancelled _ :: rest -> count_cancelled (n + 1) rest
  | Vm.Finished _ :: rest -> count_cancelled n rest

(* One event: the shard's context block is filled once and every entry
   reads it. Per event this allocates the result record and its outcome
   list, nothing else. *)
let exec_event t shard snap ~hook pkt =
  let start_cost = Vm.total_cost shard.stats in
  Hook.fill_ctx shard.ctx pkt;
  let outcomes = run_chain t shard (Chain.get snap hook) ~hook pkt 0 in
  shard.events <- shard.events + 1;
  quiesce_rcu shard.sid t.shared;
  let verdict = last_verdict (Hook.pass_verdict hook) outcomes in
  record_verdict shard verdict;
  {
    verdict;
    executed = List.length outcomes;
    cancelled = count_cancelled 0 outcomes;
    cost = Vm.total_cost shard.stats - start_cost;
    outcomes;
  }

(* --- threaded workers --------------------------------------------------- *)

(* How long a worker that has just emptied its queue polls for more work
   before it parks on [cv]. Parking costs the next request a futex wake-up
   and a context switch on the worker's CPU. At 5k req/s Poisson the gaps
   average 200 us, and 1 ms covers 99.3 % of them; 200 us would cover
   63 %. A shard spends at most one window of CPU per batch. *)
let poll_window_s = 0.001

(* Spin until a submit moves [pushes] off [seen], the engine stops, or the
   window ends. Nothing is taken here: the caller re-checks the queue
   under [m] either way, so the poll only decides how soon it looks. The
   clock is read once every 32 relaxes; a wall clock stepped back ends
   the window. *)
let poll t shard seen =
  let start = Unix.gettimeofday () in
  let rec spin k =
    if Atomic.get shard.pushes = seen && Atomic.get t.running then begin
      Domain.cpu_relax ();
      if k land 31 <> 0 then spin (k + 1)
      else
        let elapsed = Unix.gettimeofday () -. start in
        if elapsed >= 0.0 && elapsed < poll_window_s then spin (k + 1)
    end
  in
  spin 1

(* A quiesce waits for this shard to observe its generation: tell it at
   the first event that does, not at the end of the batch. *)
let observe_generation shard snap =
  let g = Chain.generation snap in
  if g > Atomic.get shard.seen_gen then begin
    Atomic.set shard.seen_gen g;
    Mutex.lock shard.m;
    if shard.waiters > 0 then Condition.broadcast shard.idle_cv;
    Mutex.unlock shard.m
  end

(* One lock round trip per batch: the worker takes everything queued at
   once ([Queue.transfer], O(1)) and runs it unlocked. At the batch
   boundary it signals [idle_cv] if a drain or quiesce is waiting, and if
   the queue is empty it polls for one window before it parks. A worker
   that has never run a batch parks at once. Submitters signal [cv] only
   while the worker sleeps on it. Enters and leaves [loop] holding [m]. *)
let worker t shard =
  let batch = Queue.create () in
  let rec loop () =
    while Queue.is_empty shard.queue && Atomic.get t.running do
      shard.asleep <- true;
      Condition.wait shard.cv shard.m;
      shard.asleep <- false
    done;
    if not (Queue.is_empty shard.queue) then begin
      Queue.transfer shard.queue batch;
      shard.busy <- true;
      Mutex.unlock shard.m;
      while not (Queue.is_empty batch) do
        let hook, pkt, on_done = Queue.take batch in
        let snap = Atomic.get t.snapshot in
        observe_generation shard snap;
        let r = exec_event t shard snap ~hook pkt in
        match on_done with Some f -> f r | None -> ()
      done;
      Mutex.lock shard.m;
      shard.busy <- false;
      if shard.waiters > 0 then Condition.broadcast shard.idle_cv;
      if Queue.is_empty shard.queue && Atomic.get t.running then begin
        let seen = Atomic.get shard.pushes in
        Mutex.unlock shard.m;
        poll t shard seen;
        Mutex.lock shard.m
      end;
      loop ()
    end
  in
  Mutex.lock shard.m;
  loop ();
  Mutex.unlock shard.m (* shut down *)

(* --- the watchdog -------------------------------------------------------- *)

let scan_period_s = 0.0005

(* One watchdog domain per process scans the reaper of every threaded
   engine with a deadline, as a kernel runs one watchdog for all of its
   programs. The first such engine spawns it and nothing joins it: a
   reaper domain per engine cost a spawn and a join on every set-up, and
   an idle watchdog only blocks on [nonempty]. While any reaper is
   registered it scans them all every [scan_period_s], holding [lock],
   so once [unwatch] returns no scan touches that reaper again. *)
type watchdog = {
  lock : Mutex.t;
  nonempty : Condition.t; (* signalled when an engine registers *)
  mutable reapers : Reaper.t list;
  mutable spawned : bool;
}

let watchdog =
  {
    lock = Mutex.create ();
    nonempty = Condition.create ();
    reapers = [];
    spawned = false;
  }

let watchdog_loop () =
  Mutex.lock watchdog.lock;
  while true do
    match watchdog.reapers with
    | [] -> Condition.wait watchdog.nonempty watchdog.lock
    | _ :: _ ->
        Mutex.unlock watchdog.lock;
        Unix.sleepf scan_period_s;
        Mutex.lock watchdog.lock;
        let now = Unix.gettimeofday () *. 1e9 in
        List.iter (fun r -> Reaper.scan r ~now) watchdog.reapers
  done

let watch r =
  Mutex.protect watchdog.lock (fun () ->
      if not watchdog.spawned then begin
        ignore (Domain.spawn watchdog_loop : unit Domain.t);
        watchdog.spawned <- true
      end;
      watchdog.reapers <- r :: watchdog.reapers;
      Condition.signal watchdog.nonempty)

let unwatch r =
  Mutex.protect watchdog.lock (fun () ->
      watchdog.reapers <- List.filter (fun r' -> r' != r) watchdog.reapers)

let watched t = t.mode = `Threaded && t.deadline_ns <> None

(* --- lifecycle ---------------------------------------------------------- *)

let create ?(shards = 1) ?(mode = `Deterministic)
    ?(quantum = Vm.default_quantum) ?deadline_ns ?(seed = 0x6b666c6578L) () =
  if shards < 1 then invalid_arg "Engine.create: shards < 1";
  let budget =
    match deadline_ns with
    | Some dl when not (Float.is_finite dl && dl > 0.0) ->
        invalid_arg "Engine.create: deadline_ns not finite and positive"
    | Some dl when mode = `Deterministic ->
        (* one invocation per shard at a time: "cost-derived now past the
           deadline" is "cost spent > ⌊dl / insn_ns⌋", which the Jit checks
           at every checkpoint as the quantum *)
        let b = dl /. Cost.insn_ns in
        if b >= 0x1p62 then max_int else int_of_float b
    | _ -> max_int
  in
  let t =
    {
      nshards = shards;
      mode;
      quantum;
      deadline_ns;
      budget;
      shards = Array.init shards (make_shard ~seed);
      reaper = Reaper.create ~slots:shards ();
      reg_m = Mutex.create ();
      snapshot = Atomic.make Chain.empty;
      next_aid = 0;
      running = Atomic.make true;
      shared = [];
    }
  in
  (match mode with
  | `Deterministic -> ()
  | `Threaded ->
      Array.iter
        (fun s -> s.domain <- Some (Domain.spawn (fun () -> worker t s)))
        t.shards;
      if watched t then watch t.reaper);
  t

let shards t = t.nshards
let mode t = t.mode
let reaper t = t.reaper
let epoch t = Chain.generation (Atomic.get t.snapshot)
let chain_length t hook = Chain.length (Atomic.get t.snapshot) hook

let shard_helpers shard =
  [
    ("bpf_get_prandom_u32", Vm.prandom_helper shard.prandom);
    ("bpf_ktime_get_ns", Vm.ktime_helper shard.clock);
  ]

let seed_shard t ~shard ?(vtime = 0L) prandom =
  let s = t.shards.(shard) in
  Kflex_runtime.U64.cell_set s.prandom (Int64.logor prandom 1L);
  Kflex_runtime.U64.cell_set s.clock vtime

(* Block on the shard's idle condition until [ready] holds. While
   [waiters] is non-zero the worker broadcasts it at every batch boundary
   and at the first event of each newer generation. *)
let wait_shard s ready =
  Mutex.lock s.m;
  while not (ready s) do
    s.waiters <- s.waiters + 1;
    Condition.wait s.idle_cv s.m;
    s.waiters <- s.waiters - 1
  done;
  Mutex.unlock s.m

let idle s = Queue.is_empty s.queue && not s.busy

(* Quiescence: an attach/detach/replace publishes generation [g]; an old
   snapshot can only be in use by a shard mid-event. Deterministic mode runs
   events synchronously inside run_packet/run_on, so publication alone is
   quiescence. Threaded mode waits until every shard has either observed
   [g] or is provably idle (empty queue, not executing, possibly polling)
   — it will read the new snapshot before its next event. A busy shard
   reports [g] as it starts the first event under it, so the wait is one
   event, not the rest of a queued batch. *)
let quiesce t g =
  (match t.mode with
  | `Deterministic ->
      Array.iter (fun s -> Atomic.set s.seen_gen g) t.shards
  | `Threaded ->
      Array.iter
        (fun s -> wait_shard s (fun s -> Atomic.get s.seen_gen >= g || idle s))
        t.shards);
  (* Registry quiescence doubles as an RCU grace period: once every shard
     has observed generation [g] (or is idle), no reader still holds a
     snapshot retired before the publication — reclaim them all. *)
  List.iter Map_.rcu_synchronize t.shared

(* Engine-owned shared maps.  Sharing must precede the attaches that use
   the map: every later attach registers the shared maps — in share order,
   so they get the same fds (3, 4, …) on every shard — into the instance's
   per-shard registry before the tenant's own [configure] runs.  The
   returned fd is what programs pass to the map helpers. *)
let share_map t m =
  Mutex.protect t.reg_m (fun () ->
      let fd = Int64.of_int (3 + List.length t.shared) in
      t.shared <- t.shared @ [ m ];
      fd)

let shared_maps t = t.shared

let build_handle t ?name ?mode ?options ?globals_size ?quantum ?heap_size
    ?kbase ?configure ~hook prog =
  match Kflex.admit ?mode ?options ?heap_size ~hook prog with
  | Error e -> Error e
  | Ok admitted ->
      let aid = t.next_aid in
      t.next_aid <- t.next_aid + 1;
      let aname =
        match name with Some n -> n | None -> Printf.sprintf "ext%d" aid
      in
      let q = Option.value quantum ~default:t.quantum in
      let instances =
        Array.map
          (fun shard ->
            let heap =
              Option.map (fun size -> Heap.create ?kbase ~size ()) heap_size
            in
            let kernel = Helpers.create () in
            List.iter
              (fun m ->
                ignore (Map_.register (Helpers.maps kernel) m : int64))
              t.shared;
            let inst =
              Kflex.instantiate ?heap ?globals_size ~quantum:(min q t.budget)
                ~extra_helpers:(shard_helpers shard) ~kernel admitted
            in
            (match configure with
            | Some f -> f ~shard:shard.sid kernel heap
            | None -> ());
            inst)
          t.shards
      in
      Ok { aid; aname; ahook = hook; instances; lowered = t.budget < q }

let attach t ?name ?mode ?options ?globals_size ?quantum ?heap_size ?kbase
    ?configure ~hook prog =
  Mutex.protect t.reg_m (fun () ->
      match
        build_handle t ?name ?mode ?options ?globals_size ?quantum ?heap_size
          ?kbase ?configure ~hook prog
      with
      | Error e -> Error e
      | Ok h ->
          let snap = Chain.attach (Atomic.get t.snapshot) hook h in
          Atomic.set t.snapshot snap;
          quiesce t (Chain.generation snap);
          Ok h)

let detach t h =
  Mutex.protect t.reg_m (fun () ->
      let snap, removed =
        Chain.detach (Atomic.get t.snapshot) h.ahook (fun a -> a.aid = h.aid)
      in
      if removed <> [] then begin
        Atomic.set t.snapshot snap;
        (* the epoch wait: no shard still executes against the departed
           heap once every shard passed the new generation *)
        quiesce t (Chain.generation snap)
      end)

let replace t h ?name ?mode ?options ?globals_size ?quantum ?heap_size ?kbase
    ?configure prog =
  Mutex.protect t.reg_m (fun () ->
      match
        build_handle t ?name ?mode ?options ?globals_size ?quantum ?heap_size
          ?kbase ?configure ~hook:h.ahook prog
      with
      | Error e -> Error e
      | Ok h' -> (
          let snap, old =
            Chain.replace (Atomic.get t.snapshot) h.ahook
              (fun a -> a.aid = h.aid)
              h'
          in
          match old with
          | None -> invalid_arg "Engine.replace: handle not attached"
          | Some _ ->
              Atomic.set t.snapshot snap;
              quiesce t (Chain.generation snap);
              Ok h'))

let handle_name h = h.aname
let instance h ~shard = h.instances.(shard)

(* --- event delivery ----------------------------------------------------- *)

(* Flow hash: same 5-tuple-ish mix every run, so a flow's events always land
   on the same shard (per-flow state lives in that shard's heaps) and shard
   placement is reproducible. *)
let shard_of t (pkt : Packet.t) =
  let h =
    (pkt.Packet.src_port * 0x9e3779b1)
    lxor (pkt.Packet.dst_port * 0x85ebca77)
    lxor (Int64.to_int (Packet.proto_code pkt.Packet.proto) * 0xc2b2ae35)
  in
  (h land max_int) mod t.nshards

let run_on t ~shard ?(hook = Hook.Xdp) pkt =
  if t.mode <> `Deterministic then
    invalid_arg "Engine.run_on: deterministic mode only (use submit)";
  let snap = Atomic.get t.snapshot in
  let s = t.shards.(shard) in
  Atomic.set s.seen_gen (Chain.generation snap);
  exec_event t s snap ~hook pkt

let run_packet t ?hook pkt = run_on t ~shard:(shard_of t pkt) ?hook pkt

let submit t ?(hook = Hook.Xdp) ?on_done pkt =
  if t.mode <> `Threaded then
    invalid_arg "Engine.submit: threaded mode only (use run_packet)";
  let s = t.shards.(shard_of t pkt) in
  Mutex.lock s.m;
  (* checked under the shard lock: [shutdown] flips [running] before it
     wakes the workers under the same lock, so an accepted job is always
     seen by a worker that has not exited *)
  if not (Atomic.get t.running) then begin
    Mutex.unlock s.m;
    invalid_arg "Engine.submit: engine is shut down"
  end;
  Queue.push (hook, pkt, on_done) s.queue;
  Atomic.incr s.pushes;
  if s.asleep then begin
    s.wakeups <- s.wakeups + 1;
    Condition.signal s.cv
  end;
  Mutex.unlock s.m

let drain t =
  match t.mode with
  | `Deterministic -> ()
  | `Threaded -> Array.iter (fun s -> wait_shard s idle) t.shards

let shutdown t =
  if Atomic.get t.running then begin
    drain t;
    Atomic.set t.running false;
    Array.iter
      (fun s ->
        Mutex.protect s.m (fun () -> Condition.broadcast s.cv);
        match s.domain with
        | Some d ->
            Domain.join d;
            s.domain <- None
        | None -> ())
      t.shards;
    if watched t then unwatch t.reaper
  end

(* --- observation -------------------------------------------------------- *)

type totals = {
  events : int;
  cancelled : int;
  leaked : int;
  verdicts : (int64 * int) list; (* sorted by verdict *)
  stats : Vm.stats; (* merged across shards *)
}

let shard_stats t shard = t.shards.(shard).stats
let shard_events t shard = t.shards.(shard).events

let shard_wakeups t shard =
  let s = t.shards.(shard) in
  Mutex.protect s.m (fun () -> s.wakeups)

(* A shard's verdict counts, unsorted. *)
let verdict_counts (s : shard) =
  let acc = ref (Hashtbl.fold (fun v n acc -> (v, n) :: acc) s.verdicts []) in
  Array.iteri
    (fun i n -> if n > 0 then acc := (Int64.of_int i, n) :: !acc)
    s.small_verdicts;
  !acc

let shard_verdicts t shard = List.sort compare (verdict_counts t.shards.(shard))

(* Aggregation is read-side only: shards mutate nothing but their own
   records on the hot path; totals fold copies after a drain. *)
let totals t =
  let stats = Vm.fresh_stats () in
  let verdicts = Hashtbl.create 8 in
  let events = ref 0 and cancelled = ref 0 and leaked = ref 0 in
  Array.iter
    (fun (s : shard) ->
      events := !events + s.events;
      cancelled := !cancelled + s.cancelled;
      leaked := !leaked + s.leaked;
      stats.Vm.insns <- stats.Vm.insns + s.stats.Vm.insns;
      stats.Vm.guards <- stats.Vm.guards + s.stats.Vm.guards;
      stats.Vm.checkpoints <- stats.Vm.checkpoints + s.stats.Vm.checkpoints;
      stats.Vm.helper_calls <- stats.Vm.helper_calls + s.stats.Vm.helper_calls;
      stats.Vm.helper_cost <- stats.Vm.helper_cost + s.stats.Vm.helper_cost;
      List.iter
        (fun (v, n) ->
          let c = try Hashtbl.find verdicts v with Not_found -> 0 in
          Hashtbl.replace verdicts v (c + n))
        (verdict_counts s))
    t.shards;
  {
    events = !events;
    cancelled = !cancelled;
    leaked = !leaked;
    verdicts =
      Hashtbl.fold (fun v n acc -> (v, n) :: acc) verdicts []
      |> List.sort compare;
    stats;
  }

let socket_refs t =
  let snap = Atomic.get t.snapshot in
  let sum = ref 0 in
  List.iter
    (fun hook ->
      Array.iter
        (fun h ->
          Array.iter
            (fun (inst : Kflex.loaded) ->
              sum :=
                !sum + Socket.total_refs (Helpers.sockets inst.Kflex.kernel))
            h.instances)
        (Chain.get snap hook))
    [ Hook.Xdp; Hook.Sk_skb; Hook.Lsm ];
  !sum
