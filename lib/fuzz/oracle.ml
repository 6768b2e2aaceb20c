open Kflex_bpf
module Verify = Kflex_verifier.Verify
module State = Kflex_verifier.State
module Value = Kflex_verifier.Value
module Range = Kflex_verifier.Range
module Contract = Kflex_verifier.Contract
module Lifecycle = Kflex_verifier.Lifecycle
module Instrument = Kflex_kie.Instrument
module Vm = Kflex_runtime.Vm
module Heap = Kflex_runtime.Heap
module Alloc = Kflex_runtime.Alloc
module Helpers = Kflex_kernel.Helpers
module Hook = Kflex_kernel.Hook
module Packet = Kflex_kernel.Packet
module Socket = Kflex_kernel.Socket
module Map_ = Kflex_kernel.Map
module Engine = Kflex_engine.Engine

type config = {
  heap_size : int64;
  kbase : int64;
  pages : int list;
  port : int;
  prandom : int64;
  payload : string;
  src_port : int;
  dst_port : int;
  quantum : int;
  insn_budget : int;
  inject_cap : int;
}

let default_config =
  {
    heap_size = 65536L;
    kbase = 0x4000_0000_0000L;
    pages = List.init 16 Fun.id;
    port = 53;
    prandom = 0x1234_5678L;
    payload = String.init 64 (fun i -> Char.chr (i * 7 land 0xff));
    src_port = 40000;
    dst_port = 53;
    quantum = 300_000;
    insn_budget = 150_000;
    inject_cap = 24;
  }

type failure = { oracle : string; detail : string }
type verdict = Pass | Rejected of string | Fail of failure

let pp_verdict ppf = function
  | Pass -> Format.fprintf ppf "pass"
  | Rejected m -> Format.fprintf ppf "rejected (%s)" m
  | Fail f -> Format.fprintf ppf "FAIL [%s] %s" f.oracle f.detail

let fail oracle fmt = Format.kasprintf (fun detail -> { oracle; detail }) fmt
let to_verdict = function Some f -> Fail f | None -> Pass
let contracts = Contract.registry Contract.kflex_base

let verify cfg prog =
  Verify.run ~mode:Verify.Kflex ~contracts ~ctx_size:Hook.ctx_size
    ~heap_size:cfg.heap_size ~sleepable:false prog

let instrument options analysis = Instrument.run ~options analysis

(* no instrumentation: pcs coincide with the verifier's *)
let kmod = instrument { Instrument.default_options with kmod_baseline = true }

(* --- oracle 4: encode/decode/disasm round-trip ------------------------- *)

let roundtrip prog =
  match Encode.decode (Encode.encode prog) with
  | exception e ->
      Some (fail "roundtrip" "decode raised %s" (Printexc.to_string e))
  | dec -> (
      let a = Prog.insns prog and b = Prog.insns dec in
      if Array.length a <> Array.length b then
        Some
          (fail "roundtrip" "length %d re-decoded as %d" (Array.length a)
             (Array.length b))
      else
        match Array.find_index not (Array.map2 Insn.equal a b) with
        | Some i ->
            Some
              (fail "roundtrip" "insn %d: %a re-decoded as %a" i Insn.pp a.(i)
                 Insn.pp b.(i))
        | None -> (
            match Format.asprintf "%a" Prog.pp prog with
            | (_ : string) -> None
            | exception e ->
                Some
                  (fail "roundtrip" "disassembler raised %s"
                     (Printexc.to_string e))))

(* --- the world of one run ----------------------------------------------- *)

(* One map of every shared-capable kind, at deterministic fds the generator
   knows: 3 = hash (the seed corpus's map), 4 = spinlock, 5 = percpu,
   6 = rcu_shared. Every run an oracle compares must register the same
   spread — a kind mismatch at an fd skews both behaviour and the per-kind
   helper charges. *)
let register_oracle_maps reg =
  List.iter
    (fun m -> ignore (Map_.register reg m : int64))
    [
      Map_.create ~max_entries:64 ();
      Map_.create ~kind:Map_.Spinlock ~max_entries:64 ();
      Map_.create ~kind:Map_.Percpu ~cpus:4 ~max_entries:64 ();
      Map_.create ~kind:Map_.Rcu_shared ~cpus:4 ~max_entries:64 ();
    ]

(* The kernel side of every oracle run, direct or under the engine (where it
   is the tenant's [configure]): UDP and TCP listeners on the config's port,
   the oracle maps, and the config's heap pages populated. *)
let world cfg kernel heap =
  Socket.listen (Helpers.sockets kernel) ~proto:Packet.Udp ~port:cfg.port;
  Socket.listen (Helpers.sockets kernel) ~proto:Packet.Tcp ~port:cfg.port;
  register_oracle_maps (Helpers.maps kernel);
  Option.iter
    (fun h ->
      List.iter
        (fun p ->
          let off = Int64.mul (Int64.of_int p) 4096L in
          if off >= 0L && off < cfg.heap_size then
            Heap.populate h ~off ~len:4096L)
        cfg.pages)
    heap

let packet cfg ~src_port =
  Packet.make ~proto:Packet.Udp ~src_port ~dst_port:cfg.dst_port
    (Bytes.of_string cfg.payload)

let default_ret = Hook.default_ret Hook.Xdp
let pass_verdict = Hook.pass_verdict Hook.Xdp

(* A fresh, fully deterministic instance for a direct run: zeroed heap with
   the config's geometry, fresh allocator, the world. [helpers_shim] lets an
   oracle shadow helper implementations (the lifecycle oracle's
   allocation-failure run). *)
let build_env ?(helpers_shim = Fun.id) cfg kie =
  let heap = Heap.create ~kbase:cfg.kbase ~size:cfg.heap_size () in
  let kernel = Helpers.create () in
  (* the reserved words and globals (offsets < 64) are always backed *)
  Heap.populate heap ~off:0L ~len:64L;
  let alloc = Alloc.create ~data_start:64L heap in
  world cfg kernel (Some heap);
  let ext =
    Vm.create ~heap ~alloc ~quantum:cfg.quantum ~default_ret
      ~helpers:(helpers_shim (Helpers.implementations kernel))
      kie
  in
  (ext, kernel, heap)

(* --- observations ------------------------------------------------------- *)

type obs = {
  outcomes : Vm.outcome list;
  events : (int64 * int) list;
  stats : Vm.stats;
  payloads : string list;
  heaps : (int64 * string) list list;
  maps : (int64 * int64) list list;
  rcu_version : int;
  sites : int;
  leaked : int;
  sock_refs : int;
  locks : int;
}

type probe = {
  budget : int;
  on_insn : int -> int -> int64 array -> unit;
  on_site : int -> unit;
}

type executor = Reference of probe | Inject of int | Fused

exception Trace_stop

let verdict_of = function Vm.Finished v -> v | Vm.Cancelled c -> c.ret

let quiet budget = { budget; on_insn = (fun _ _ _ -> ()); on_site = ignore }

(* Runs that must end on their own are bounded generously: instrumentation
   puts a Checkpoint on the back edge of every loop Loopcheck calls
   unbounded, so the quantum ends such a loop long before this. A loop it
   calls bounded gets no checkpoint, and its trip count has no limit, so
   only this budget ends it. *)
let safety_budget cfg = (4 * cfg.quantum) + 1_000_000
let safe cfg = quiet (safety_budget cfg)

(* What a run leaves behind, observed the same way by both runners: the
   outcomes, and the instances the programs ran in ([kernels], [heaps]).
   Every map the programs reach — fds 3 on of each instance's registry —
   counts once: engine-shared maps sit in every shard's registry. *)
let observe ~outcomes ~events ~stats ~payloads ~sites kernels heaps =
  let rec reach reg fd =
    match Map_.find reg fd with
    | Some m -> m :: reach reg (Int64.succ fd)
    | None -> []
  in
  let maps =
    List.fold_left
      (fun seen k ->
        seen
        @ List.filter
            (fun m -> not (List.memq m seen))
            (reach (Helpers.maps k) 3L))
      [] kernels
  in
  let sum f l = List.fold_left (fun n x -> n + f x) 0 l in
  (* keys 0-7 cover every key the generator locks *)
  let held m =
    sum
      (fun k -> Bool.to_int (Map_.lock_held m (Int64.of_int k)))
      (List.init 8 Fun.id)
  in
  {
    outcomes;
    events;
    stats;
    payloads;
    heaps = List.map Heap.snapshot heaps;
    maps = List.map Map_.to_list maps;
    rcu_version =
      sum
        (fun m ->
          match Map_.rcu_stats m with Some r -> r.Map_.version | None -> 0)
        maps;
    sites;
    leaked =
      sum
        (function Vm.Cancelled c -> c.ledger_leaked | Vm.Finished _ -> 0)
        outcomes;
    sock_refs = sum (fun k -> Socket.total_refs (Helpers.sockets k)) kernels;
    locks = sum held maps;
  }

(* The direct runner: [kies] as one chain on one packet (tail-call verdict
   composition, shared stats, each program in its own instance), on the
   executor, with the global PRNG and virtual clock reset as the engine
   resets a shard's. A probe's run stops, with no outcome,
   once [budget] instructions have been observed; [Trace_stop] from its
   [on_insn] stops it the same way. *)
let run_direct ?helpers_shim cfg exec kies =
  let envs = List.map (build_env ?helpers_shim cfg) kies in
  let pkt = packet cfg ~src_port:cfg.src_port in
  let stats = Vm.fresh_stats () in
  let sites = ref 0 in
  let budget = ref (match exec with Reference p -> p.budget | _ -> 0) in
  let on_insn p pc regs =
    decr budget;
    if !budget <= 0 then raise Trace_stop;
    p.on_insn pc (Vm.total_cost stats) regs
  in
  let on_site p () =
    incr sites;
    p.on_site (Vm.total_cost stats);
    false
  in
  let inject k () =
    incr sites;
    !sites - 1 = k
  in
  let exec_one (ext, _, _) =
    let ctx = Hook.build_ctx pkt in
    let pkt = pkt.Packet.payload in
    let o =
      match exec with
      | Reference p ->
          Vm.Ref_interp.exec ext ~ctx ~pkt ~stats ~on_insn:(on_insn p)
            ~on_site:(on_site p) ()
      | Inject k ->
          Vm.Ref_interp.exec ext ~ctx ~pkt ~stats ~on_site:(inject k) ()
      | Fused -> Vm.exec ext ~ctx ~pkt ~stats ()
    in
    (* the engine re-arms a cancelled entry per invocation too *)
    if Vm.cancelled ext then Vm.reset_cancel ext;
    o
  in
  let rec chain = function
    | [] -> []
    | env :: rest ->
        let o = exec_one env in
        o :: (if verdict_of o = pass_verdict then chain rest else [])
  in
  Vm.seed_prandom cfg.prandom;
  Vm.set_vtime 0L;
  let outcomes = try chain envs with Trace_stop -> [] in
  let last = List.fold_left (fun _ o -> verdict_of o) pass_verdict outcomes in
  observe ~outcomes
    ~events:(if outcomes = [] then [] else [ (last, Vm.total_cost stats) ])
    ~stats ~payloads:[ Bytes.to_string pkt.Packet.payload ] ~sites:!sites
    (List.map (fun (_, k, _) -> k) envs)
    (List.map (fun (_, _, h) -> h) envs)

let run cfg exec kies = run_direct cfg exec kies

type layout = Private | Shared

(* The engine runner: [progs] attached as one chain, [events] (packet,
   PRNG seed) delivered in order. Deterministic engines reseed the event's
   shard first and run it synchronously; threaded ones ignore the seeds,
   submit everything and drain. *)
let run_engine cfg ~shards ~mode ~layout progs events =
  let eng = Engine.create ~shards ~mode ~quantum:cfg.quantum () in
  if layout = Shared then
    List.iter
      (fun m -> ignore (Engine.share_map eng m : int64))
      [
        Map_.create ~kind:Map_.Spinlock ~max_entries:64 ();
        Map_.create ~kind:Map_.Rcu_shared ~cpus:shards ~max_entries:64 ();
      ];
  let attach prog =
    let options = Instrument.default_options and quantum = cfg.quantum in
    match layout with
    | Private ->
        Engine.attach eng ~options ~heap_size:cfg.heap_size ~kbase:cfg.kbase
          ~quantum ~configure:(fun ~shard:_ -> world cfg) ~hook:Hook.Xdp prog
    | Shared -> Engine.attach eng ~options ~quantum ~hook:Hook.Xdp prog
  in
  let rec attach_all = function
    | [] -> Ok []
    | p :: rest ->
        Result.bind (attach p) (fun h ->
            Result.map (List.cons h) (attach_all rest))
  in
  match attach_all progs with
  | Error e ->
      Engine.shutdown eng;
      Error e
  | Ok handles ->
      let results =
        match mode with
        | `Deterministic ->
            List.map
              (fun (pkt, seed) ->
                Engine.seed_shard eng ~shard:(Engine.shard_of eng pkt)
                  ~vtime:0L seed;
                Engine.run_packet eng pkt)
              events
        | `Threaded ->
            let done_ = Array.make (List.length events) None in
            List.iteri
              (fun i (pkt, _) ->
                Engine.submit eng ~on_done:(fun r -> done_.(i) <- Some r) pkt)
              events;
            Engine.drain eng;
            List.filter_map Fun.id (Array.to_list done_)
      in
      let instances =
        List.concat_map
          (fun h -> List.init shards (fun shard -> Engine.instance h ~shard))
          handles
      in
      let o =
        observe
          ~outcomes:(List.concat_map (fun r -> r.Engine.outcomes) results)
          ~events:
            (List.map (fun r -> (r.Engine.verdict, r.Engine.cost)) results)
          ~stats:(Engine.totals eng).Engine.stats
          ~payloads:
            (List.map
               (fun (pkt, _) -> Bytes.to_string pkt.Packet.payload)
               events)
          ~sites:0
          (List.map (fun i -> i.Kflex.kernel) instances)
          (List.filter_map (fun i -> i.Kflex.heap) instances)
      in
      Engine.shutdown eng;
      Ok o

(* --- the comparator ------------------------------------------------------ *)

let reason_str = function
  | Vm.Page_fault -> "page_fault"
  | Vm.Guard_zone -> "guard_zone"
  | Vm.Wild_access -> "wild_access"
  | Vm.Quantum_expired -> "quantum_expired"
  | Vm.Lock_stall -> "lock_stall"
  | Vm.Ext_cancelled -> "ext_cancelled"

let pp_outcome ppf = function
  | Vm.Finished v -> Format.fprintf ppf "finished(0x%Lx)" v
  | Vm.Cancelled c ->
      Format.fprintf ppf "cancelled(pc=%d,%s,ret=%Ld,released=%d,leaked=%d)"
        c.orig_pc (reason_str c.reason) c.ret (List.length c.released)
        c.ledger_leaked

let pp_list pp =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
    pp

let pp_stats ppf (s : Vm.stats) =
  Format.fprintf ppf "(i=%d g=%d c=%d hc=%d cost=%d)" s.Vm.insns s.Vm.guards
    s.Vm.checkpoints s.Vm.helper_calls s.Vm.helper_cost

(* The first heap (program, then shard) and page on which two lists of
   snapshots differ. *)
let heap_diff x y =
  let pages hs =
    List.concat (List.mapi (fun i -> List.map (fun (p, b) -> (i, p, b))) hs)
  in
  let rec go = function
    | a :: x, b :: y when a = b -> go (x, y)
    | (i, p, _) :: _, _ | [], (i, p, _) :: _ ->
        Printf.sprintf "heap %d differs at page %Ld" i p
    | [], [] -> Printf.sprintf "%d vs %d heaps" (List.length x) (List.length y)
  in
  go (pages x, pages y)

let diff a b =
  let field name show x y =
    if x = y then None else Some (name ^ ": " ^ show x y)
  in
  let vs pp x y = Format.asprintf "%a vs %a" pp x pp y in
  List.find_map Fun.id
    [
      field "outcomes" (vs (pp_list pp_outcome)) a.outcomes b.outcomes;
      field "events"
        (vs (pp_list (fun ppf (v, c) -> Format.fprintf ppf "%Ld/%d" v c)))
        a.events b.events;
      field "stats" (vs pp_stats) a.stats b.stats;
      field "payloads" (fun _ _ -> "packet bytes differ") a.payloads
        b.payloads;
      field "heaps" heap_diff a.heaps b.heaps;
      field "maps" (fun _ _ -> "map contents differ") a.maps b.maps;
      field "rcu_version" (vs Format.pp_print_int) a.rcu_version
        b.rcu_version;
      field "sites" (vs Format.pp_print_int) a.sites b.sites;
    ]

let invariants o =
  let none name n what =
    if n = 0 then None else Some (Printf.sprintf "%s: %d %s" name n what)
  in
  List.find_map Fun.id
    [
      none "leaked" o.leaked "ledger entries";
      List.find_map
        (function
          | Vm.Cancelled c as out when c.ret <> default_ret ->
              Some
                (Format.asprintf "outcomes: %a, not the default return %Ld"
                   pp_outcome out default_ret)
          | _ -> None)
        o.outcomes;
      none "sock_refs" o.sock_refs "outstanding";
      none "locks" o.locks "spin locks left held";
    ]

(* Every differential oracle: [a] and [b] observe one input under two
   configurations. Both must end inside their budget and keep the
   invariants (a violation is [inv]'s, by default [oracle]'s); then, with
   [blank] clearing what the two configurations may legitimately disagree
   on, [diff] must find nothing. *)
let pair cfg ~oracle ?(inv = oracle) ?(blank = Fun.id) a b =
  if a.outcomes = [] || b.outcomes = [] then
    Some
      (fail "harness" "execution exceeded the %d-insn safety budget"
         (safety_budget cfg))
  else
    match List.find_map invariants [ a; b ] with
    | Some d -> Some (fail inv "%s" d)
    | None -> Option.map (fail oracle "%s") (diff (blank a) (blank b))

let tagged what =
  Option.map (fun f -> { f with detail = what ^ ": " ^ f.detail })

(* --- oracle 1: abstract containment ------------------------------------ *)

(* The first live register whose concrete value the verifier's pre-state
   at [pc] does not contain. *)
let check_regs cfg st regs pc =
  let base = function
    | Value.Ctx -> Vm.ctx_base
    | Value.Stack -> Int64.add Vm.stack_base (Int64.of_int Prog.stack_size)
    | Value.Heap -> cfg.kbase
  in
  let rec from i =
    if i > 10 then None
    else
      let v = regs.(i) in
      let outside what =
        Some
          (Format.asprintf "pc %d: r%d = 0x%Lx outside abstract %s" pc i v what)
      in
      match State.get st (Reg.of_int i) with
      | Value.Scalar r when not (Range.contains r v) ->
          outside (Format.asprintf "scalar %a" Value.pp (Value.Scalar r))
      | Value.Ptr { kind; nullable = false; _ } when v = 0L ->
          outside
            (Format.asprintf "%a (non-nullable, concrete null)"
               Value.pp_ptr_kind kind)
      | Value.Ptr { kind; off; _ }
        when v <> 0L && not (Range.contains off (Int64.sub v (base kind))) ->
          outside
            (Format.asprintf "%a ptr (concrete offset 0x%Lx)" Value.pp_ptr_kind
               kind (Int64.sub v (base kind)))
      | Value.Obj { nullable = false; klass; _ } when v = 0L ->
          outside (Printf.sprintf "non-null obj %s (concrete null)" klass)
      | _ -> from (i + 1)
  in
  from 0

(* Run the kmod baseline — no instrumentation, so instrumented pcs coincide
   with the verifier's — checking every live register against the fixpoint
   pre-state before each instruction. Wild faults end the run safely through
   the normal cancellation machinery; the trace prefix still counts. *)
let containment cfg analysis kie_k =
  let states = Verify.states_at analysis in
  let viol = ref None in
  let on_insn pc _ regs =
    (match if pc < Array.length states then states.(pc) else None with
    | None ->
        viol :=
          Some
            (Printf.sprintf "pc %d executed but abstractly unreachable" pc)
    | Some st -> viol := check_regs cfg st regs pc);
    if !viol <> None then raise Trace_stop
  in
  ignore
    (run cfg (Reference { (quiet cfg.insn_budget) with on_insn }) [ kie_k ]
      : obs);
  Option.map (fun d -> { oracle = "containment"; detail = d }) !viol

(* --- oracle 2: guard-elision equivalence ------------------------------- *)

(* The elided (default) and forced-guard runs must agree, except that every
   forced guard is charged: their stats and costs are blanked. When both
   runs hit the watchdog, the guards' cost made it fire after different
   amounts of loop progress, so only the invariants are comparable. An
   access the verifier marked elidable must never fault outside the heap
   proper. Invariant violations are the cancellation oracle's. *)
let elision cfg analysis elided kie_b =
  match elided.outcomes with
  | [
      (Vm.Cancelled { orig_pc; reason = Vm.Guard_zone | Vm.Wild_access; _ }
       as o);
    ]
    when List.exists
           (fun (acc : Verify.heap_access) ->
             acc.Verify.pc = orig_pc && acc.Verify.elidable)
           analysis.Verify.heap_accesses ->
      Some
        (fail "elision" "elidable access faulted outside the heap: %a"
           pp_outcome o)
  | _ ->
      let forced = run cfg (Reference (safe cfg)) [ kie_b ] in
      let quantum o =
        match o.outcomes with
        | [ Vm.Cancelled { reason = Vm.Quantum_expired; _ } ] -> true
        | _ -> false
      in
      let uncharged o =
        {
          o with
          stats = Vm.fresh_stats ();
          events = List.map (fun (v, _) -> (v, 0)) o.events;
        }
      in
      (* blanking both runs to one value leaves [diff] nothing to find *)
      pair cfg ~oracle:"elision" ~inv:"cancellation"
        ~blank:
          (if quantum elided && quantum forced then Fun.const elided
           else uncharged)
        elided forced

(* --- oracle 3: cancellation soundness ---------------------------------- *)

(* Inject a cancellation at each of the elided run's [sites] (an even spread
   of [inject_cap] of them when there are more): each must unwind as
   [Ext_cancelled] and keep the invariants. *)
let cancellation cfg kie sites =
  let ks =
    if sites <= cfg.inject_cap then List.init sites Fun.id
    else List.init cfg.inject_cap (fun i -> i * sites / cfg.inject_cap)
  in
  List.find_map
    (fun k ->
      let o = run cfg (Inject k) [ kie ] in
      tagged
        (Printf.sprintf "injection at site %d/%d" k sites)
        (match o.outcomes with
        | [ Vm.Cancelled { reason = Vm.Ext_cancelled; _ } ] ->
            Option.map (fail "cancellation" "%s") (invariants o)
        | outs ->
            Some
              (fail "cancellation" "did not unwind: %a" (pp_list pp_outcome)
                 outs)))
    ks

(* --- oracle 8: executor equivalence -------------------------------------- *)

(* The single executor oracle: the [reference] observation
   ({!Vm.Ref_interp} — [Stdlib.Int64] arithmetic over a boxed [int64 array]
   register file and the generic width-dispatched memory path, sharing no
   ALU/comparison/accessor code with {!Kflex_runtime.Jit}) against a run of
   the compiled form. Only the reference has a site hook, so the site
   count is blanked. *)
let repr cfg kie reference =
  pair cfg ~oracle:"repr"
    ~blank:(fun o -> { o with sites = 0 })
    reference (run cfg Fused [ kie ])

let repr_equiv cfg kie = repr cfg kie (run cfg (Reference (safe cfg)) [ kie ])

(* --- oracle 7: lifecycle no-false-positive ------------------------------ *)

type lifecycle_status = Confirmed | Unexercised | Refuted

let lifecycle_status_name = function
  | Confirmed -> "confirmed"
  | Unexercised -> "unexercised"
  | Refuted -> "REFUTED"

(* The lifecycle pass claims a finding holds along a specific path — the pc
   witness. Concrete execution follows exactly one path, so whenever the
   kmod-baseline run (pcs coincide with the verifier's) happens to take the
   witnessed path, the claimed event is checkable against ground truth: the
   allocator's live set, the lock depth, the register file at the deref. A
   finding is [Refuted] — an oracle failure — only under a full witness
   prefix match whose concrete evidence contradicts the claim; anything the
   run does not exercise stays [Unexercised]. *)

module Iset = Set.Make (Int)

type lc_obs = {
  trace : int array;  (* first [cap] executed pcs *)
  tlen : int;  (* number of pcs recorded (min of steps and cap) *)
  finished : bool;
  allocs : (int, int64 list) Hashtbl.t;  (* site pc -> non-null results *)
  frees : (int * int, int64 * bool) Hashtbl.t;
      (* (release pc, step) -> (argument address, was a live block) *)
  derefs : (int * int, int64 * bool) Hashtbl.t;
      (* (deref pc, step) -> (base register value, inside a live block) *)
  locks : (int * int, bool) Hashtbl.t;  (* (pc, step) -> depth > 0 *)
  live_at_end : (int64, int) Hashtbl.t;  (* address -> alloc-site pc *)
}

let base_reg_of = function
  | Insn.Ldx (_, _, src, _) -> Some src
  | Insn.Stx (_, dst, _, _) | Insn.St (_, dst, _, _)
  | Insn.Atomic (_, _, dst, _, _) ->
      Some dst
  | _ -> None

let is_allocator name =
  match Contract.find contracts name with
  | Some c -> c.Contract.ret = Contract.R_heap_ptr_or_null && c.Contract.destructor <> None
  | None -> false

let destructor_of name =
  match Contract.find contracts name with
  | Some { Contract.destructor = Some d; _ } -> d
  | _ -> ""

let release_index name =
  match Contract.find contracts name with
  | Some { Contract.eff = Contract.E_release i; _ } -> Some i
  | _ -> None

let is_lock_edge name =
  match Contract.find contracts name with
  | Some c when c.Contract.lock_ordinal <> None -> (
      match c.Contract.eff with
      | Contract.E_acquire -> Some `Acquire
      | Contract.E_release _ -> Some `Release
      | Contract.E_pure -> None)
  | _ -> None

(* Shadow every allocator so it reports exhaustion: the run that exercises
   the paths the verifier only reaches through [R_heap_ptr_or_null]'s null
   arm. Overrides are appended (not mapped) because the allocators are Vm
   builtins, absent from the kernel-helper list. *)
let alloc_fail_shim impls =
  let allocators =
    List.filter_map
      (fun (c : Contract.t) ->
        if is_allocator c.Contract.name then Some c.Contract.name else None)
      Contract.kflex_base
  in
  List.filter (fun (n, _) -> not (List.mem n allocators)) impls
  @ List.map
      (fun n -> (n, fun (_ : Vm.call_ctx) -> ()))
      allocators

let lc_run ?helpers_shim cfg prog (findings : Lifecycle.finding list) kie_k =
  let cap =
    List.fold_left
      (fun m (f : Lifecycle.finding) -> max m (List.length f.Lifecycle.witness))
      1 findings
  in
  let pcs_of k =
    List.fold_left
      (fun s (f : Lifecycle.finding) ->
        if List.mem f.Lifecycle.kind k then Iset.add f.Lifecycle.pc s else s)
      Iset.empty findings
  in
  let deref_pcs = pcs_of [ Lifecycle.Use_after_release; Lifecycle.Null_deref ] in
  let free_pcs = pcs_of [ Lifecycle.Double_release ] in
  let lock_pcs = pcs_of [ Lifecycle.Lock_hazard; Lifecycle.Lock_order ] in
  let trace = Array.make cap (-1) in
  let allocs = Hashtbl.create 8 in
  let frees = Hashtbl.create 8 in
  let derefs = Hashtbl.create 8 in
  let locks = Hashtbl.create 8 in
  (* our own mirror of the allocator's live set: address -> (site, size,
     declared destructor). A release call only evicts blocks whose declared
     destructor is the helper being called — the generator can place a spin
     lock word at an address the allocator also hands out, and unlocking it
     must not count as freeing the colliding heap block. *)
  let live = Hashtbl.create 8 in
  let in_live b =
    Hashtbl.fold
      (fun a (_, sz, _) acc ->
        acc
        || Int64.unsigned_compare a b <= 0
           && Int64.unsigned_compare b (Int64.add a (max 1L sz)) < 0)
      live false
  in
  let step = ref 0 in
  let pending = ref None in
  let depth = ref 0 in
  let on_insn pc _ regs =
    (match !pending with
    | Some (site, size, dtor) ->
        pending := None;
        let r0 = regs.(0) in
        if r0 <> 0L then begin
          Hashtbl.replace live r0 (site, size, dtor);
          Hashtbl.replace allocs site
            (r0 :: Option.value ~default:[] (Hashtbl.find_opt allocs site))
        end
    | None -> ());
    let s = !step in
    incr step;
    if s < cap then begin
      trace.(s) <- pc;
      if Iset.mem pc lock_pcs then Hashtbl.replace locks (pc, s) (!depth > 0);
      if Iset.mem pc deref_pcs then begin
        match
          if pc < Prog.length prog then base_reg_of (Prog.get prog pc)
          else None
        with
        | Some r ->
            let b = regs.(Reg.to_int r) in
            Hashtbl.replace derefs (pc, s) (b, in_live b)
        | None -> ()
      end
    end;
    (* the insn's own effect on the tracker (helper calls) *)
    match if pc < Prog.length prog then Prog.get prog pc else Insn.Exit with
    | Insn.Call name -> (
        if is_allocator name then
          pending := Some (pc, regs.(1), destructor_of name);
        (match release_index name with
        | Some i ->
            let addr = regs.(i + 1) in
            let releases =
              match Hashtbl.find_opt live addr with
              | Some (_, _, dtor) -> dtor = name
              | None -> false
            in
            if s < cap && Iset.mem pc free_pcs then
              Hashtbl.replace frees (pc, s) (addr, releases);
            if releases then Hashtbl.remove live addr
        | None -> ());
        match is_lock_edge name with
        | Some `Acquire -> incr depth
        | Some `Release -> decr depth
        | None -> ())
    | _ -> ()
  in
  let o =
    run_direct ?helpers_shim cfg
      (Reference { (quiet cfg.insn_budget) with on_insn })
      [ kie_k ]
  in
  {
    trace;
    tlen = min !step cap;
    finished = (match o.outcomes with [ Vm.Finished _ ] -> true | _ -> false);
    allocs;
    frees;
    derefs;
    locks;
    live_at_end =
      (let t = Hashtbl.create 8 in
       Hashtbl.iter (fun a (site, _, _) -> Hashtbl.replace t a site) live;
       t);
  }

let lc_prefix_matches o witness =
  let n = List.length witness in
  n > 0 && n <= o.tlen
  && List.for_all2 Int.equal witness
       (Array.to_list (Array.sub o.trace 0 n))

let lc_classify run1 run2 (f : Lifecycle.finding) =
  let w = f.Lifecycle.witness in
  let last = List.length w - 1 in
  match f.Lifecycle.kind with
  | Lifecycle.Leak ->
      if lc_prefix_matches run1 w && run1.finished then
        match Hashtbl.find_opt run1.allocs f.Lifecycle.site with
        | None | Some [] -> Unexercised  (* the acquisition concretely failed *)
        | Some addrs ->
            if List.exists (Hashtbl.mem run1.live_at_end) addrs then Confirmed
            else Refuted
      else Unexercised
  | Lifecycle.Double_release -> (
      match
        (lc_prefix_matches run1 w,
         Hashtbl.find_opt run1.frees (f.Lifecycle.pc, last))
      with
      | true, Some (addr, was_live) ->
          if addr = 0L then Unexercised
          else if was_live then Refuted
          else Confirmed
      | _ -> Unexercised)
  | Lifecycle.Use_after_release -> (
      match
        (lc_prefix_matches run1 w,
         Hashtbl.find_opt run1.derefs (f.Lifecycle.pc, last))
      with
      | true, Some (base, in_live) ->
          if in_live then Refuted
          else if base <> 0L then Confirmed
          else Unexercised
      | _ -> Unexercised)
  | Lifecycle.Null_deref -> (
      (* only the allocation-failure run can take the null arm *)
      match run2 with
      | None -> Unexercised
      | Some r2 -> (
          match
            (lc_prefix_matches r2 w,
             Hashtbl.find_opt r2.derefs (f.Lifecycle.pc, last))
          with
          | true, Some (base, _) -> if base = 0L then Confirmed else Refuted
          | _ -> Unexercised))
  | Lifecycle.Lock_hazard | Lifecycle.Lock_order -> (
      match
        (lc_prefix_matches run1 w,
         Hashtbl.find_opt run1.locks (f.Lifecycle.pc, last))
      with
      | true, Some held -> if held then Confirmed else Refuted
      | _ -> Unexercised)
  | Lifecycle.Chain_unreachable -> Unexercised  (* checked in chain_equiv *)
  | Lifecycle.Gave_up -> Unexercised  (* claims nothing about a run *)

let lc_statuses cfg prog (findings : Lifecycle.finding list) kie_k =
  let run1 = lc_run cfg prog findings kie_k in
  let run2 =
    if
      List.exists
        (fun (f : Lifecycle.finding) -> f.Lifecycle.kind = Lifecycle.Null_deref)
        findings
    then Some (lc_run ~helpers_shim:alloc_fail_shim cfg prog findings kie_k)
    else None
  in
  List.map (fun f -> (f, lc_classify run1 run2 f)) findings

let lifecycle_report cfg prog =
  match verify cfg prog with
  | Error e -> Error (Format.asprintf "%a" Verify.pp_error e)
  | Ok analysis ->
      let findings = Lifecycle.run ~contracts analysis in
      if findings = [] then Ok []
      else
        Ok (lc_statuses cfg prog findings (kmod analysis))

let lifecycle_failure cfg prog findings kie_k =
  if findings = [] then None
  else
    List.find_map
      (fun ((f : Lifecycle.finding), st) ->
        if st = Refuted then
          Some
            (fail "lifecycle"
               "refuted %s at pc %d (site %d): concrete execution followed \
                the witness path but contradicts the claim: %s"
               (Lifecycle.kind_name f.Lifecycle.kind)
               f.Lifecycle.pc f.Lifecycle.site f.Lifecycle.msg)
        else None)
      (lc_statuses cfg prog findings kie_k)

(* --- oracle 6: chain equivalence ---------------------------------------- *)

(* A 2-program chain under a one-shard engine must be observationally
   equivalent to the same chain run directly: composed verdict, per-program
   outcomes and heaps, packet bytes, shared stats — and both sides keep the
   invariants. The direct side uses the global PRNG/clock (reseeded), the
   engine side its shard-0 streams (reseeded identically); both consume one
   combined stream, the way two programs on one CPU would. *)
let chain_equiv cfg prog1 prog2 =
  match (verify cfg prog1, verify cfg prog2) with
  | Error e, _ -> Rejected (Format.asprintf "prog1: %a" Verify.pp_error e)
  | _, Error e -> Rejected (Format.asprintf "prog2: %a" Verify.pp_error e)
  | Ok an1, Ok an2 -> (
      let kie = instrument Instrument.default_options in
      let direct = run cfg Fused [ kie an1; kie an2 ] in
      (* chain-level lifecycle claims are checkable right here: a
         [Chain_unreachable] for prog2 asserts prog1 can never return the
         pass verdict, so a concrete chain continuation refutes it *)
      let refuted () =
        List.exists
          (fun (cf : Lifecycle.chain_finding) ->
            cf.Lifecycle.index = 1
            && cf.Lifecycle.finding.Lifecycle.kind = Lifecycle.Chain_unreachable)
          (Lifecycle.run_chain ~contracts ~pass_verdict ~default_ret
             [ an1; an2 ])
      in
      if List.length direct.outcomes > 1 && refuted () then
        Fail
          (fail "lifecycle"
             "chain analysis claims prog2 is unreachable, but the concrete \
              chain continued past prog1 (verdict %Ld)" pass_verdict)
      else
        match
          run_engine cfg ~shards:1 ~mode:`Deterministic ~layout:Private
            [ prog1; prog2 ]
            [ (packet cfg ~src_port:cfg.src_port, cfg.prandom) ]
        with
        | Error e ->
            Fail
              (fail "chain" "engine rejected a directly accepted program: %a"
                 Verify.pp_error e)
        | Ok engine -> to_verdict (pair cfg ~oracle:"chain" direct engine))

(* --- oracle 10: shared-map linearizability ------------------------------ *)

(* Sharded execution of shared-map programs must {e linearize}: because the
   deterministic engine applies events synchronously in submission order, a
   4-shard engine and a 1-shard reference see the same global sequence of
   critical sections, so every observable — per-event verdicts, outcomes,
   costs, packet bytes, and the final contents of both shared maps — must
   agree event for event. The comparison is only sound for programs whose
   behaviour depends on nothing shard-local: no heap, no sockets, no
   processor id, no per-CPU maps ({!Gen.generate} [~shared:true] emits
   exactly this dialect). Each event reseeds the executing shard's PRNG
   from an event-indexed seed so both placements consume identical
   streams; src_port varies per event so flow placement exercises every
   shard. *)
let shared_events cfg n =
  List.init n (fun i ->
      ( packet cfg ~src_port:(1 + ((cfg.src_port + (257 * i)) land 0xFFFE)),
        Int64.logxor cfg.prandom
          (Int64.mul (Int64.of_int (i + 1)) 0x9E3779B97F4A7C15L) ))

let shared_equiv cfg prog =
  let sharded shards =
    run_engine cfg ~shards ~mode:`Deterministic ~layout:Shared [ prog ]
      (shared_events cfg 16)
  in
  match sharded 4 with
  | Error e ->
      (* heap-less admission is stricter than a heaped one (no heap base to
         verify against), so refusal here is policy, not a bug *)
      Rejected (Format.asprintf "%a" Verify.pp_error e)
  | Ok a -> (
      match sharded 1 with
      | Error e ->
          Fail
            (fail "shared"
               "1-shard engine rejected a program the 4-shard engine \
                admitted: %a"
               Verify.pp_error e)
      | Ok b -> to_verdict (pair cfg ~oracle:"shared" a b))

(* The threaded variant can't compare against a reference (event
   interleaving is scheduler-chosen), so it checks the safety half of the
   contract: every event executes and the invariants hold — under real
   cross-domain contention, including cancellations landing inside
   critical sections. *)
let shared_safety cfg prog =
  let events = 64 in
  match
    run_engine cfg ~shards:4 ~mode:`Threaded ~layout:Shared [ prog ]
      (shared_events cfg events)
  with
  | Error e -> Rejected (Format.asprintf "%a" Verify.pp_error e)
  | Ok o ->
      to_verdict
        (tagged "threaded"
           (if List.length o.events <> events then
              Some
                (fail "shared" "%d of %d events executed" (List.length o.events)
                   events)
            else Option.map (fail "shared" "%s") (invariants o)))

(* --- the full case ------------------------------------------------------ *)

let run_case_stats_exn cfg prog =
  match roundtrip prog with
  | Some f -> (Fail f, 0)
  | None -> (
      match verify cfg prog with
      | Error e -> (Rejected (Format.asprintf "%a" Verify.pp_error e), 0)
      | Ok analysis ->
          let kie_a = instrument Instrument.default_options analysis in
          let kie_k = kmod analysis in
          let findings = Lifecycle.run ~contracts analysis in
          let elided = lazy (run cfg (Reference (safe cfg)) [ kie_a ]) in
          let checks =
            [
              (fun () -> containment cfg analysis kie_k);
              (fun () ->
                elision cfg analysis (Lazy.force elided)
                  (instrument Instrument.forced_guards analysis));
              (fun () -> cancellation cfg kie_a (Lazy.force elided).sites);
              (fun () -> repr cfg kie_a (Lazy.force elided));
              (fun () -> lifecycle_failure cfg prog findings kie_k);
            ]
          in
          ( to_verdict (List.find_map (fun c -> c ()) checks),
            List.length findings ))

let run_case_stats cfg prog =
  try run_case_stats_exn cfg prog
  with e ->
    ( Fail (fail "harness" "unexpected exception: %s" (Printexc.to_string e)),
      0 )

let run_case cfg prog = fst (run_case_stats cfg prog)
