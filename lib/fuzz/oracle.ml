open Kflex_bpf
module Verify = Kflex_verifier.Verify
module State = Kflex_verifier.State
module Value = Kflex_verifier.Value
module Range = Kflex_verifier.Range
module Tnum = Kflex_verifier.Tnum
module Contract = Kflex_verifier.Contract
module Instrument = Kflex_kie.Instrument
module Vm = Kflex_runtime.Vm
module Heap = Kflex_runtime.Heap
module Alloc = Kflex_runtime.Alloc
module Helpers = Kflex_kernel.Helpers
module Hook = Kflex_kernel.Hook
module Packet = Kflex_kernel.Packet
module Socket = Kflex_kernel.Socket
module Map_ = Kflex_kernel.Map

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

let contracts = Contract.registry Contract.kflex_base

let verify cfg prog =
  Verify.run ~mode:Verify.Kflex ~contracts ~ctx_size:Hook.ctx_size
    ~heap_size:cfg.heap_size ~sleepable:false prog

(* --- oracle 4: encode/decode/disasm round-trip ------------------------- *)

let roundtrip prog =
  let enc = Encode.encode prog in
  match Encode.decode enc with
  | exception e ->
      Some (fail "roundtrip" "decode raised %s" (Printexc.to_string e))
  | dec -> (
      let a = Prog.insns prog and b = Prog.insns dec in
      if Array.length a <> Array.length b then
        Some
          (fail "roundtrip" "length %d re-decoded as %d" (Array.length a)
             (Array.length b))
      else begin
        let bad = ref None in
        Array.iteri
          (fun i ia ->
            if !bad = None && not (Insn.equal ia b.(i)) then bad := Some i)
          a;
        match !bad with
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
                     (Printexc.to_string e)))
      end)

(* --- execution environments -------------------------------------------- *)

type env = {
  ext : Vm.ext;
  kernel : Helpers.t;
  heap : Heap.t;
  pkt : Packet.t;
  ctx : Bytes.t;
}

(* One map of every shared-capable kind, at deterministic fds the generator
   knows: 3 = hash (the seed corpus's map), 4 = spinlock, 5 = percpu,
   6 = rcu_shared. Every environment an oracle compares must register the
   same spread — a kind mismatch at an fd skews both behaviour and the
   per-kind helper charges. *)
let register_oracle_maps reg =
  ignore (Map_.register reg (Map_.create ~max_entries:64 ()) : int64);
  ignore
    (Map_.register reg (Map_.create ~kind:Map_.Spinlock ~max_entries:64 ())
      : int64);
  ignore
    (Map_.register reg
       (Map_.create ~kind:Map_.Percpu ~cpus:4 ~max_entries:64 ())
      : int64);
  ignore
    (Map_.register reg
       (Map_.create ~kind:Map_.Rcu_shared ~cpus:4 ~max_entries:64 ())
      : int64)

(* Fresh, fully deterministic world per run: zeroed heap with the config's
   base and page layout, fresh socket table / maps / allocator, fresh packet
   bytes (extensions mutate the payload in place). [helpers_shim] lets an
   oracle shadow individual helper implementations (the lifecycle oracle's
   allocation-failure run). *)
let build_env ?(helpers_shim = fun h -> h) cfg kie =
  let heap = Heap.create ~kbase:cfg.kbase ~size:cfg.heap_size () in
  let kernel = Helpers.create () in
  Socket.listen (Helpers.sockets kernel) ~proto:Packet.Udp ~port:cfg.port;
  Socket.listen (Helpers.sockets kernel) ~proto:Packet.Tcp ~port:cfg.port;
  register_oracle_maps (Helpers.maps kernel);
  (* the reserved words and globals (offsets < 64) are always backed *)
  Heap.populate heap ~off:0L ~len:64L;
  let alloc = Alloc.create ~data_start:64L heap in
  List.iter
    (fun p ->
      let off = Int64.mul (Int64.of_int p) 4096L in
      if off >= 0L && off < cfg.heap_size then Heap.populate heap ~off ~len:4096L)
    cfg.pages;
  let pkt =
    Packet.make ~proto:Packet.Udp ~src_port:cfg.src_port ~dst_port:cfg.dst_port
      (Bytes.of_string cfg.payload)
  in
  Helpers.set_packet kernel pkt;
  let ext =
    Vm.create ~heap ~alloc ~quantum:cfg.quantum
      ~default_ret:(Hook.default_ret Hook.Xdp)
      ~helpers:(helpers_shim (Helpers.implementations kernel))
      kie
  in
  { ext; kernel; heap; pkt; ctx = Hook.build_ctx pkt }

exception Trace_stop

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

(* --- oracle 1: abstract containment ------------------------------------ *)

let contained (r : Range.t) v =
  Int64.unsigned_compare r.Range.umin v <= 0
  && Int64.unsigned_compare v r.Range.umax <= 0
  && Int64.compare r.Range.smin v <= 0
  && Int64.compare v r.Range.smax <= 0
  && Tnum.contains r.Range.bits v

let check_regs cfg st regs pc =
  let bad = ref None in
  for i = 0 to 10 do
    if !bad = None then begin
      let v = regs.(i) in
      let mismatch what =
        bad :=
          Some
            (Format.asprintf "pc %d: r%d = 0x%Lx outside abstract %s" pc i v
               what)
      in
      match State.get st (Reg.of_int i) with
      | Value.Uninit | Value.Unknown -> ()
      | Value.Scalar r ->
          if not (contained r v) then
            mismatch (Format.asprintf "scalar %a" Value.pp (Value.Scalar r))
      | Value.Ptr { kind; off; nullable } ->
          if v = 0L then begin
            if not nullable then
              mismatch
                (Format.asprintf "%a (non-nullable, concrete null)"
                   Value.pp_ptr_kind kind)
          end
          else begin
            let base =
              match kind with
              | Value.Ctx -> Vm.ctx_base
              | Value.Stack ->
                  Int64.add Vm.stack_base (Int64.of_int Prog.stack_size)
              | Value.Heap -> cfg.kbase
            in
            if not (contained off (Int64.sub v base)) then
              mismatch
                (Format.asprintf "%a ptr (concrete offset 0x%Lx)"
                   Value.pp_ptr_kind kind (Int64.sub v base))
          end
      | Value.Obj { nullable; klass; _ } ->
          if (not nullable) && v = 0L then
            mismatch (Printf.sprintf "non-null obj %s (concrete null)" klass)
    end
  done;
  !bad

(* Run the kmod baseline — no instrumentation, so instrumented pcs coincide
   with the verifier's — checking every live register against the fixpoint
   pre-state before each instruction. Wild faults end the run safely through
   the normal cancellation machinery; the trace prefix still counts. *)
let containment cfg analysis kie_k =
  let env = build_env cfg kie_k in
  let states = analysis.Verify.states_at in
  let budget = ref cfg.insn_budget in
  let viol = ref None in
  let on_insn pc regs =
    decr budget;
    if !budget <= 0 then raise Trace_stop;
    (match if pc < Array.length states then states.(pc) else None with
    | None ->
        viol :=
          Some
            (Printf.sprintf "pc %d executed but abstractly unreachable" pc)
    | Some st -> viol := check_regs cfg st regs pc);
    if !viol <> None then raise Trace_stop
  in
  Vm.seed_prandom cfg.prandom;
  (try ignore (Vm.exec env.ext ~ctx:env.ctx ~on_insn () : Vm.outcome)
   with Trace_stop -> ());
  Option.map (fun d -> { oracle = "containment"; detail = d }) !viol

(* --- oracle 2: guard-elision equivalence ------------------------------- *)

type obs = {
  outcome : Vm.outcome;
  heap_pages : (int64 * string) list;
  payload_after : string;
  sites : int;
  sock_refs : int;
}

let observe cfg kie =
  let env = build_env cfg kie in
  let sites = ref 0 in
  let budget = ref ((4 * cfg.quantum) + 1_000_000) in
  let on_insn _ _ =
    decr budget;
    if !budget <= 0 then raise Trace_stop
  in
  Vm.seed_prandom cfg.prandom;
  match
    Vm.exec env.ext ~ctx:env.ctx ~on_insn
      ~on_site:(fun () ->
        incr sites;
        false)
      ()
  with
  | exception Trace_stop ->
      Error
        (fail "harness" "execution exceeded the %d-insn safety budget"
           ((4 * cfg.quantum) + 1_000_000))
  | outcome ->
      Ok
        {
          outcome;
          heap_pages = Heap.snapshot env.heap;
          payload_after = Bytes.to_string env.pkt.Packet.payload;
          sites = !sites;
          sock_refs = Socket.total_refs (Helpers.sockets env.kernel);
        }

let default_ret = Hook.default_ret Hook.Xdp

(* Invariants every single run must satisfy, elided or not. *)
let run_invariants mode o =
  match o.outcome with
  | Vm.Finished _ ->
      if o.sock_refs <> 0 then
        Some
          (fail "cancellation" "%s: finished with %d socket refs outstanding"
             mode o.sock_refs)
      else None
  | Vm.Cancelled c ->
      if c.ledger_leaked <> 0 then
        Some
          (fail "cancellation" "%s: %a leaked %d ledger entries" mode
             pp_outcome o.outcome c.ledger_leaked)
      else if c.ret <> default_ret then
        Some
          (fail "cancellation" "%s: cancelled with ret %Ld (default %Ld)" mode
             c.ret default_ret)
      else if o.sock_refs <> 0 then
        Some
          (fail "cancellation" "%s: cancelled with %d socket refs outstanding"
             mode o.sock_refs)
      else None

let first_diff_page a b =
  let rec go = function
    | (ia, pa) :: ra, (ib, pb) :: rb ->
        if ia <> ib then Some (min ia ib)
        else if pa <> pb then Some ia
        else go (ra, rb)
    | (ia, _) :: _, [] | [], (ia, _) :: _ -> Some ia
    | [], [] -> None
  in
  go (a, b)

let elision cfg analysis kie_a kie_b =
  match observe cfg kie_a with
  | Error f -> Error f
  | Ok a -> (
      (* an access the verifier marked elidable must never fault outside
         the heap proper *)
      let elided_fault =
        match a.outcome with
        | Vm.Cancelled { orig_pc; reason = Vm.Guard_zone | Vm.Wild_access; _ }
          ->
            List.exists
              (fun (acc : Verify.heap_access) ->
                acc.Verify.pc = orig_pc && acc.Verify.elidable)
              analysis.Verify.heap_accesses
        | _ -> false
      in
      if elided_fault then
        Error
          (fail "elision" "elidable access faulted outside the heap: %a"
             pp_outcome a.outcome)
      else
        match run_invariants "elided" a with
        | Some f -> Error f
        | None -> (
            match observe cfg kie_b with
            | Error f -> Error f
            | Ok b -> (
                match run_invariants "forced" b with
                | Some f -> Error f
                | None ->
                    let both_quantum =
                      match (a.outcome, b.outcome) with
                      | ( Vm.Cancelled { reason = Vm.Quantum_expired; _ },
                          Vm.Cancelled { reason = Vm.Quantum_expired; _ } ) ->
                          true
                      | _ -> false
                    in
                    if a.sites <> b.sites && not both_quantum then
                      Error
                        (fail "elision"
                           "cancellation sites diverge: %d elided vs %d forced"
                           a.sites b.sites)
                    else if both_quantum then
                      (* guards cost a unit each, so the watchdog fires after
                         different amounts of loop progress; only the
                         unwinding invariants are comparable *)
                      Ok a.sites
                    else if a.outcome <> b.outcome then
                      Error
                        (fail "elision" "outcomes diverge: %a elided vs %a forced"
                           pp_outcome a.outcome pp_outcome b.outcome)
                    else if a.payload_after <> b.payload_after then
                      Error (fail "elision" "packet payloads diverge")
                    else
                      match first_diff_page a.heap_pages b.heap_pages with
                      | Some p ->
                          Error
                            (fail "elision"
                               "heap contents diverge at page %Ld" p)
                      | None -> Ok a.sites)))

(* --- oracle 3: cancellation soundness ---------------------------------- *)

let cancellation cfg kie_a sites =
  if sites = 0 then None
  else begin
    let ks =
      if sites <= cfg.inject_cap then List.init sites Fun.id
      else List.init cfg.inject_cap (fun i -> i * sites / cfg.inject_cap)
    in
    let rec go = function
      | [] -> None
      | k :: rest -> (
          let env = build_env cfg kie_a in
          let n = ref (-1) in
          Vm.seed_prandom cfg.prandom;
          match
            Vm.exec env.ext ~ctx:env.ctx
              ~on_site:(fun () ->
                incr n;
                !n = k)
              ()
          with
          | Vm.Finished v ->
              Some
                (fail "cancellation"
                   "injection at site %d/%d did not cancel (finished 0x%Lx)" k
                   sites v)
          | Vm.Cancelled c ->
              let refs = Socket.total_refs (Helpers.sockets env.kernel) in
              if c.reason <> Vm.Ext_cancelled then
                Some
                  (fail "cancellation"
                   "injection at site %d/%d preempted: %a" k sites pp_outcome
                   (Vm.Cancelled c))
              else if c.ledger_leaked <> 0 then
                Some
                  (fail "cancellation"
                     "injection at site %d/%d leaked %d objects (%a)" k sites
                     c.ledger_leaked pp_outcome (Vm.Cancelled c))
              else if c.ret <> default_ret then
                Some
                  (fail "cancellation"
                     "injection at site %d/%d returned %Ld (default %Ld)" k
                     sites c.ret default_ret)
              else if refs <> 0 then
                Some
                  (fail "cancellation"
                     "injection at site %d/%d left %d socket refs" k sites refs)
              else go rest)
    in
    go ks
  end

(* --- oracle 8: executor equivalence -------------------------------------- *)

(* The single executor oracle: the kept-boxed reference interpreter
   ({!Vm.Ref_interp} — [Stdlib.Int64] arithmetic over a boxed [int64 array]
   register file and the generic width-dispatched memory path, sharing no
   ALU/comparison/accessor code with {!Kflex_runtime.Jit}) against both
   compiled forms: the hooked one (an [on_insn] observer selects it) and
   the fused hook-free one. Outcome, stats counters, packet payload and
   heap pages must be bit-identical across all three. The reference and
   hooked runs are budget-bounded through [on_insn]; the fused run is
   bounded by the quantum (instrumentation puts a Checkpoint on every loop
   back edge). *)
let repr_equiv cfg kie =
  let budget0 = (4 * cfg.quantum) + 1_000_000 in
  let run exec =
    let env = build_env cfg kie in
    let stats = Vm.fresh_stats () in
    let budget = ref budget0 in
    let on_insn _ _ =
      decr budget;
      if !budget <= 0 then raise Trace_stop
    in
    Vm.seed_prandom cfg.prandom;
    match exec env ~stats ~on_insn with
    | out -> Ok (env, stats, out)
    | exception Trace_stop ->
        Error
          (fail "harness" "execution exceeded the %d-insn safety budget" budget0)
  in
  match
    run (fun env ~stats ~on_insn ->
        Vm.Ref_interp.exec env.ext ~ctx:env.ctx ~stats ~on_insn ())
  with
  | Error f -> Some f
  | Ok (env_r, stats_r, out_r) -> (
      let check tag exec =
        match run exec with
        | Error f -> Some f
        | Ok (env, stats, out) -> (
            if out <> out_r then
              Some
                (fail "repr" "%s diverges from boxed reference: %a vs %a" tag
                   pp_outcome out pp_outcome out_r)
            else if stats <> stats_r then
              Some
                (fail "repr"
                   "%s stats diverge from boxed reference: (i=%d g=%d c=%d \
                    hc=%d cost=%d) vs (i=%d g=%d c=%d hc=%d cost=%d)"
                   tag stats.Vm.insns stats.Vm.guards stats.Vm.checkpoints
                   stats.Vm.helper_calls stats.Vm.helper_cost stats_r.Vm.insns
                   stats_r.Vm.guards stats_r.Vm.checkpoints
                   stats_r.Vm.helper_calls stats_r.Vm.helper_cost)
            else if
              Bytes.to_string env.pkt.Packet.payload
              <> Bytes.to_string env_r.pkt.Packet.payload
            then
              Some
                (fail "repr" "%s packet payload diverges from boxed reference"
                   tag)
            else
              match
                first_diff_page (Heap.snapshot env_r.heap)
                  (Heap.snapshot env.heap)
              with
              | Some p ->
                  Some
                    (fail "repr"
                       "%s heap diverges from boxed reference at page %Ld" tag p)
              | None -> None)
      in
      match
        check "hooked" (fun env ~stats ~on_insn ->
            Vm.exec env.ext ~ctx:env.ctx ~stats ~on_insn ())
      with
      | Some f -> Some f
      | None ->
          check "fused" (fun env ~stats ~on_insn:_ ->
              Vm.exec env.ext ~ctx:env.ctx ~stats ()))

(* --- oracle 7: lifecycle no-false-positive ------------------------------ *)

module Lifecycle = Kflex_verifier.Lifecycle

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
  let budget = ref cfg.insn_budget in
  let pending = ref None in
  let depth = ref 0 in
  let on_insn pc regs =
    decr budget;
    if !budget <= 0 then raise Trace_stop;
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
  let env = build_env ?helpers_shim cfg kie_k in
  Vm.seed_prandom cfg.prandom;
  let finished =
    match Vm.exec env.ext ~ctx:env.ctx ~on_insn () with
    | Vm.Finished _ -> true
    | Vm.Cancelled _ -> false
    | exception Trace_stop -> false
  in
  {
    trace;
    tlen = min !step cap;
    finished;
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
        let kie_k =
          Instrument.run
            ~options:{ Instrument.default_options with kmod_baseline = true }
            analysis
        in
        Ok (lc_statuses cfg prog findings kie_k)

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

module Engine = Kflex_engine.Engine

(* A 2-program chain under a one-shard engine must be observationally
   equivalent to running the programs sequentially through the facade with
   hand-rolled verdict composition: same composed verdict, same per-program
   outcomes and heap snapshots, same packet bytes, same (shared) stats —
   and zero leaked resources on both sides. The facade side uses the global
   PRNG/clock (reseeded), the engine side its shard-0 streams (reseeded
   identically); both consume one combined stream, the way two programs on
   one CPU would. *)
let chain_equiv cfg prog1 prog2 =
  match (verify cfg prog1, verify cfg prog2) with
  | Error e, _ -> Rejected (Format.asprintf "prog1: %a" Verify.pp_error e)
  | _, Error e -> Rejected (Format.asprintf "prog2: %a" Verify.pp_error e)
  | Ok an1, Ok an2 -> (
      let kie1 = Instrument.run ~options:Instrument.default_options an1 in
      let kie2 = Instrument.run ~options:Instrument.default_options an2 in
      (* facade reference: sequential runs, shared packet and stats *)
      let env1 = build_env cfg kie1 in
      let env2 = build_env cfg kie2 in
      let pkt_f =
        Packet.make ~proto:Packet.Udp ~src_port:cfg.src_port
          ~dst_port:cfg.dst_port
          (Bytes.of_string cfg.payload)
      in
      let stats_f = Vm.fresh_stats () in
      Vm.seed_prandom cfg.prandom;
      Vm.set_vtime 0L;
      let run_one env =
        Helpers.set_packet env.kernel pkt_f;
        let o = Vm.exec env.ext ~ctx:(Hook.build_ctx pkt_f) ~stats:stats_f () in
        Helpers.clear_packet env.kernel;
        (* mirror the engine's per-invocation cancel re-arm *)
        if Vm.cancelled env.ext then Vm.reset_cancel env.ext;
        o
      in
      let o1 = run_one env1 in
      let v1 =
        match o1 with Vm.Finished v -> v | Vm.Cancelled { ret; _ } -> ret
      in
      let cont = v1 = Hook.pass_verdict Hook.Xdp in
      (* chain-level lifecycle claims are checkable right here: a
         [Chain_unreachable] for prog2 asserts prog1 can never return the
         pass verdict, so a concrete chain continuation refutes it *)
      let chain_claims_unreachable =
        List.exists
          (fun (cf : Lifecycle.chain_finding) ->
            cf.Lifecycle.index = 1
            && cf.Lifecycle.finding.Lifecycle.kind = Lifecycle.Chain_unreachable)
          (Lifecycle.run_chain ~contracts
             ~pass_verdict:(Hook.pass_verdict Hook.Xdp)
             ~default_ret:(Hook.default_ret Hook.Xdp)
             [ an1; an2 ])
      in
      if chain_claims_unreachable && cont then
        Fail
          (fail "lifecycle"
             "chain analysis claims prog2 is unreachable, but the concrete \
              chain continued past prog1 (verdict %Ld)" v1)
      else
      let o2 = if cont then Some (run_one env2) else None in
      let verdict_f =
        match o2 with
        | None -> v1
        | Some (Vm.Finished v) -> v
        | Some (Vm.Cancelled { ret; _ }) -> ret
      in
      let outcomes_f = o1 :: Option.to_list o2 in
      (* engine: same layout per shard instance, one shard, chained *)
      let eng = Engine.create ~shards:1 ~quantum:cfg.quantum () in
      let configure ~shard:_ kernel heap =
        Socket.listen (Helpers.sockets kernel) ~proto:Packet.Udp ~port:cfg.port;
        Socket.listen (Helpers.sockets kernel) ~proto:Packet.Tcp ~port:cfg.port;
        register_oracle_maps (Helpers.maps kernel);
        match heap with
        | None -> ()
        | Some h ->
            List.iter
              (fun p ->
                let off = Int64.mul (Int64.of_int p) 4096L in
                if off >= 0L && off < cfg.heap_size then
                  Heap.populate h ~off ~len:4096L)
              cfg.pages
      in
      let att prog =
        Engine.attach eng ~options:Instrument.default_options
          ~heap_size:cfg.heap_size ~kbase:cfg.kbase ~quantum:cfg.quantum
          ~configure ~hook:Hook.Xdp prog
      in
      match (att prog1, att prog2) with
      | Error e, _ | _, Error e ->
          Fail
            (fail "chain"
               "engine rejected a facade-accepted program: %a" Verify.pp_error
               e)
      | Ok h1, Ok h2 -> (
          Engine.seed_shard eng ~shard:0 ~vtime:0L cfg.prandom;
          let pkt_e =
            Packet.make ~proto:Packet.Udp ~src_port:cfg.src_port
              ~dst_port:cfg.dst_port
              (Bytes.of_string cfg.payload)
          in
          let r = Engine.run_packet eng pkt_e in
          let heap_of h =
            match (Engine.instance h ~shard:0).Kflex.heap with
            | Some hp -> Heap.snapshot hp
            | None -> []
          in
          let totals = Engine.totals eng in
          if r.Engine.verdict <> verdict_f then
            Fail
              (fail "chain" "verdicts diverge: %Ld facade vs %Ld engine"
                 verdict_f r.Engine.verdict)
          else if r.Engine.outcomes <> outcomes_f then
            Fail
              (fail "chain" "outcomes diverge (%d facade vs %d engine entries)"
                 (List.length outcomes_f)
                 (List.length r.Engine.outcomes))
          else if Engine.shard_stats eng 0 <> stats_f then
            Fail (fail "chain" "stats diverge")
          else if
            Bytes.to_string pkt_e.Packet.payload
            <> Bytes.to_string pkt_f.Packet.payload
          then Fail (fail "chain" "packet payloads diverge")
          else if totals.Engine.leaked <> 0 then
            Fail (fail "chain" "engine leaked %d ledger entries" totals.Engine.leaked)
          else if Engine.socket_refs eng <> 0 then
            Fail
              (fail "chain" "engine left %d socket refs" (Engine.socket_refs eng))
          else
            match
              ( first_diff_page (Heap.snapshot env1.heap) (heap_of h1),
                first_diff_page (Heap.snapshot env2.heap) (heap_of h2) )
            with
            | Some p, _ ->
                Fail (fail "chain" "prog1 heaps diverge at page %Ld" p)
            | _, Some p ->
                Fail (fail "chain" "prog2 heaps diverge at page %Ld" p)
            | None, None -> Pass))

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
   streams. *)

let shared_nevents = 16

let shared_event_seed cfg i =
  Int64.logxor cfg.prandom
    (Int64.mul (Int64.of_int (i + 1)) 0x9E3779B97F4A7C15L)

(* src_port varies per event so flow placement exercises every shard. *)
let shared_event_packet cfg i =
  Packet.make ~proto:Packet.Udp
    ~src_port:(1 + ((cfg.src_port + (257 * i)) land 0xFFFE))
    ~dst_port:cfg.dst_port
    (Bytes.of_string cfg.payload)

(* One engine with the oracle's two cross-shard maps — fd 3 = spinlock,
   fd 4 = rcu_shared, the layout [Gen] targets in shared mode — and the
   program attached heap-less (shared-mode programs never fetch the heap
   base, and a heap would be per-shard state anyway). *)
let shared_engine cfg ~shards ~mode prog =
  let eng = Engine.create ~shards ~mode ~quantum:cfg.quantum () in
  let spin = Map_.create ~kind:Map_.Spinlock ~max_entries:64 () in
  let rcu =
    Map_.create ~kind:Map_.Rcu_shared ~cpus:shards ~max_entries:64 ()
  in
  ignore (Engine.share_map eng spin : int64);
  ignore (Engine.share_map eng rcu : int64);
  match
    Engine.attach eng ~options:Instrument.default_options ~quantum:cfg.quantum
      ~hook:Hook.Xdp prog
  with
  | Error e ->
      Engine.shutdown eng;
      Error e
  | Ok _ -> Ok (eng, spin, rcu)

let shared_locks_held spin =
  List.filter
    (fun k -> Map_.lock_held spin (Int64.of_int k))
    [ 0; 1; 2; 3; 4; 5; 6; 7 ]

let shared_equiv cfg prog =
  match
    ( shared_engine cfg ~shards:4 ~mode:`Deterministic prog,
      shared_engine cfg ~shards:1 ~mode:`Deterministic prog )
  with
  | Error e, _ ->
      (* heap-less admission is stricter than the facade's (no heap base to
         verify against), so refusal here is policy, not a bug *)
      Rejected (Format.asprintf "%a" Verify.pp_error e)
  | Ok _, Error e ->
      Fail
        (fail "shared"
           "1-shard engine rejected a program the 4-shard engine admitted: %a"
           Verify.pp_error e)
  | Ok (a, spin_a, rcu_a), Ok (b, spin_b, rcu_b) -> (
      let failure = ref None in
      let evfail i fmt =
        Format.kasprintf
          (fun d ->
            if !failure = None then
              failure := Some (fail "shared" "event %d: %s" i d))
          fmt
      in
      for i = 0 to shared_nevents - 1 do
        if !failure = None then begin
          let pa = shared_event_packet cfg i in
          let pb = shared_event_packet cfg i in
          let seed = shared_event_seed cfg i in
          Engine.seed_shard a ~shard:(Engine.shard_of a pa) ~vtime:0L seed;
          Engine.seed_shard b ~shard:0 ~vtime:0L seed;
          let ra = Engine.run_packet a pa in
          let rb = Engine.run_packet b pb in
          if ra.Engine.verdict <> rb.Engine.verdict then
            evfail i "verdicts diverge: %Ld sharded vs %Ld reference"
              ra.Engine.verdict rb.Engine.verdict
          else if ra.Engine.outcomes <> rb.Engine.outcomes then
            evfail i "outcomes diverge"
          else if ra.Engine.cost <> rb.Engine.cost then
            evfail i "costs diverge: %d sharded vs %d reference" ra.Engine.cost
              rb.Engine.cost
          else if
            Bytes.to_string pa.Packet.payload
            <> Bytes.to_string pb.Packet.payload
          then evfail i "packet payloads diverge"
        end
      done;
      match !failure with
      | Some f -> Fail f
      | None -> (
          let ta = Engine.totals a and tb = Engine.totals b in
          let vstats a =
            match Map_.rcu_stats a with Some s -> s.Map_.version | None -> -1
          in
          if Map_.to_list spin_a <> Map_.to_list spin_b then
            Fail (fail "shared" "final spin-locked map contents diverge")
          else if Map_.to_list rcu_a <> Map_.to_list rcu_b then
            Fail (fail "shared" "final rcu map contents diverge")
          else if vstats rcu_a <> vstats rcu_b then
            Fail
              (fail "shared" "rcu versions diverge: %d sharded vs %d reference"
                 (vstats rcu_a) (vstats rcu_b))
          else if ta.Engine.leaked <> 0 || tb.Engine.leaked <> 0 then
            Fail
              (fail "shared" "leaked ledger entries: %d sharded, %d reference"
                 ta.Engine.leaked tb.Engine.leaked)
          else if ta.Engine.stats <> tb.Engine.stats then
            Fail (fail "shared" "merged stats diverge")
          else
            match (shared_locks_held spin_a, shared_locks_held spin_b) with
            | [], [] -> Pass
            | ka, kb ->
                Fail
                  (fail "shared"
                     "locks left held after the run (%d sharded, %d reference)"
                     (List.length ka) (List.length kb))))

(* The threaded variant can't compare against a reference (event
   interleaving is scheduler-chosen), so it checks the safety half of the
   contract: every event executes, nothing leaks, and no spin lock survives
   its critical section — under real cross-domain contention, including
   cancellations landing inside critical sections. *)
let shared_safety ?(shards = 4) ?(events = 64) cfg prog =
  match shared_engine cfg ~shards ~mode:`Threaded prog with
  | Error e -> Rejected (Format.asprintf "%a" Verify.pp_error e)
  | Ok (eng, spin, _rcu) ->
      for i = 0 to events - 1 do
        Engine.submit eng (shared_event_packet cfg i)
      done;
      Engine.drain eng;
      let totals = Engine.totals eng in
      let held = shared_locks_held spin in
      let socket_refs = Engine.socket_refs eng in
      Engine.shutdown eng;
      if totals.Engine.events <> events then
        Fail
          (fail "shared" "threaded: %d of %d events executed"
             totals.Engine.events events)
      else if totals.Engine.leaked <> 0 then
        Fail
          (fail "shared" "threaded: %d leaked ledger entries"
             totals.Engine.leaked)
      else if socket_refs <> 0 then
        Fail (fail "shared" "threaded: %d socket refs outstanding" socket_refs)
      else if held <> [] then
        Fail
          (fail "shared" "threaded: %d spin locks left held"
             (List.length held))
      else Pass

(* --- the full case ------------------------------------------------------ *)

let run_case_stats_exn cfg prog =
  match roundtrip prog with
    | Some f -> (Fail f, 0)
    | None -> (
        match verify cfg prog with
        | Error e -> (Rejected (Format.asprintf "%a" Verify.pp_error e), 0)
        | Ok analysis -> (
            let kie_a =
              Instrument.run ~options:Instrument.default_options analysis
            in
            let kie_b =
              Instrument.run ~options:Instrument.forced_guards analysis
            in
            let kie_k =
              Instrument.run
                ~options:
                  { Instrument.default_options with kmod_baseline = true }
                analysis
            in
            let findings = Lifecycle.run ~contracts analysis in
            let flagged = List.length findings in
            match containment cfg analysis kie_k with
            | Some f -> (Fail f, flagged)
            | None -> (
                match elision cfg analysis kie_a kie_b with
                | Error f -> (Fail f, flagged)
                | Ok sites -> (
                    match cancellation cfg kie_a sites with
                    | Some f -> (Fail f, flagged)
                    | None -> (
                        match repr_equiv cfg kie_a with
                        | Some f -> (Fail f, flagged)
                        | None -> (
                            match lifecycle_failure cfg prog findings kie_k with
                            | Some f -> (Fail f, flagged)
                            | None -> (Pass, flagged)))))))

let run_case_exn cfg prog = fst (run_case_stats_exn cfg prog)

let run_case_stats cfg prog =
  try run_case_stats_exn cfg prog
  with e ->
    ( Fail (fail "harness" "unexpected exception: %s" (Printexc.to_string e)),
      0 )

let run_case cfg prog = fst (run_case_stats cfg prog)
