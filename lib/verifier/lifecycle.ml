module Insn = Kflex_bpf.Insn
module Reg = Kflex_bpf.Reg
module Prog = Kflex_bpf.Prog
module Cfg = Kflex_bpf.Cfg

type kind =
  | Leak
  | Double_release
  | Use_after_release
  | Null_deref
  | Lock_hazard
  | Lock_order
  | Chain_unreachable
  | Gave_up

type finding = {
  kind : kind;
  site : int;
  pc : int;
  witness : int list;
  msg : string;
}

type chain_finding = { index : int; finding : finding }

let kind_name = function
  | Leak -> "leak"
  | Double_release -> "double-release"
  | Use_after_release -> "use-after-release"
  | Null_deref -> "null-deref"
  | Lock_hazard -> "lock-hazard"
  | Lock_order -> "lock-order"
  | Chain_unreachable -> "chain-unreachable"
  | Gave_up -> "analysis-gave-up"

let pp_finding fmt f =
  Format.fprintf fmt "pc %d: %s: %s (site pc %d; witness %a)" f.pc
    (kind_name f.kind) f.msg f.site
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ",")
       Format.pp_print_int)
    f.witness

(* ------------------------------------------------------------------ *)
(* The path domain.

   A fact is a bounded set of abstract paths. Each path tracks, for every
   allocation site it has executed, the lifecycle status of the block, plus
   which cells (registers / aligned stack slots) still hold a pointer to
   it, the spin locks currently held, and the pc trace realising the path
   (findings quote it as their witness). Paths are compared and joined
   ignoring the trace — two paths that agree on all lifecycle state are the
   same abstract path, and the first-seen (shortest) witness is kept, which
   also makes loop bodies converge instead of unrolling. *)

type status = Unchecked | Held | Released

type cell = C_reg of int | C_slot of int

type lock = {
  acq : int;  (** acquisition pc — matches the verifier's object id *)
  ordinal : int;
  addr : int64;  (** constant heap offset of the lock word, or [unknown_addr] *)
}

let unknown_addr = -1L

type path = {
  sites : (int * status) list;  (** sorted by site pc *)
  binds : (cell * int) list;  (** cell -> site pc, sorted *)
  locks : lock list;  (** innermost (most recent) first *)
  tlen : int;
  trace : int list;  (** reversed: most recent pc first *)
}

let max_paths = 64

let max_trace = 4096

let entry_path =
  { sites = []; binds = []; locks = []; tlen = 0; trace = [] }

let key p = (p.sites, p.binds, p.locks)

(* Canonical order: by lifecycle key, ties broken toward the shorter
   witness, which [dedup] then keeps. *)
let compare_path a b =
  match compare (key a) (key b) with
  | 0 -> compare (a.tlen, a.trace) (b.tlen, b.trace)
  | c -> c

let canon paths =
  let sorted = List.sort compare_path paths in
  let rec dedup = function
    | a :: b :: tl when key a = key b -> dedup (a :: tl)
    | a :: tl -> a :: dedup tl
    | [] -> []
  in
  let d = List.sort compare_path (dedup sorted) in
  if List.length d <= max_paths then d else List.filteri (fun i _ -> i < max_paths) d

let join a b = canon (a @ b)

let equal a b =
  List.length a = List.length b && List.for_all2 (fun x y -> key x = key y) a b

(* path helpers *)

let status_of p site = List.assoc_opt site p.sites

let set_status p site st =
  {
    p with
    sites = List.map (fun (s, old) -> if s = site then (s, st) else (s, old)) p.sites;
  }

let drop_site p site =
  {
    p with
    sites = List.remove_assoc site p.sites;
    binds = List.filter (fun (_, s) -> s <> site) p.binds;
  }

let bound p cell = List.assoc_opt cell p.binds

let add_bind p cell site =
  { p with binds = List.sort compare ((cell, site) :: List.remove_assoc cell p.binds) }

let add_site p site =
  let p = drop_site p site (* re-allocation at the same site: fresh block *) in
  { p with sites = List.sort compare ((site, Unchecked) :: p.sites) }

(* ------------------------------------------------------------------ *)
(* Table-driven rules, derived from the contract registry. *)

type rules = {
  contracts : Contract.registry;
  release_arg : (string, int) Hashtbl.t;
      (** destructors of tracked allocators -> index of the released arg *)
}

let build_rules contracts =
  let release_arg = Hashtbl.create 4 in
  List.iter
    (fun name ->
      match Contract.find contracts name with
      | Some c when c.Contract.ret = Contract.R_heap_ptr_or_null -> (
          match c.Contract.destructor with
          | Some d -> (
              match Contract.find contracts d with
              | Some dc ->
                  let idx =
                    let rec go i = function
                      | Contract.A_heap_or_null :: _ | Contract.A_heap_ptr :: _
                        ->
                          i
                      | _ :: tl -> go (i + 1) tl
                      | [] -> 0
                    in
                    go 0 dc.Contract.args
                  in
                  Hashtbl.replace release_arg d idx
              | None -> ())
          | None -> ())
      | _ -> ())
    (Contract.names contracts);
  { contracts; release_arg }

let is_alloc c =
  c.Contract.ret = Contract.R_heap_ptr_or_null && c.Contract.destructor <> None

let is_lock_acquire c =
  c.Contract.eff = Contract.E_acquire && c.Contract.lock_ordinal <> None

(* A lock acquire that can fail ([bpf_map_lock] on a full table): the lock
   is only held on the non-null arm, so the handle in r0 gets a checkable
   site and the null refinement pops the speculative lock again. *)
let is_nullable_lock c =
  is_lock_acquire c
  && match c.Contract.ret with Contract.R_obj_or_null _ -> true | _ -> false

let is_lock_release c =
  match c.Contract.eff with
  | Contract.E_release _ -> c.Contract.lock_ordinal <> None
  | _ -> false

(* A call that can block or park the extension while it runs: sleepable
   helpers, and resource acquisitions that go to the kernel (a lock-ordinal
   acquire is the spin lock itself, which is fine to nest carefully). *)
let is_hazard c =
  c.Contract.sleepable
  || (c.Contract.eff = Contract.E_acquire && c.Contract.lock_ordinal = None)

(* ------------------------------------------------------------------ *)
(* Transfer function.  [step] is used both by the fixpoint (emit = noop)
   and by the deterministic reporting replay over the solved pre-facts. *)

type emitter = kind -> site:int -> pc:int -> path -> string -> unit

let no_emit : emitter = fun _ ~site:_ ~pc:_ _ _ -> ()

let append_trace pc p =
  if p.tlen >= max_trace then p
  else { p with trace = pc :: p.trace; tlen = p.tlen + 1 }

(* Destroy the binding held by [cell]. Losing the last reference to a live
   block is the moment a leak becomes definite on this path. *)
let kill_cell (emit : emitter) ~pc p cell =
  match bound p cell with
  | None -> p
  | Some site ->
      let p' = { p with binds = List.remove_assoc cell p.binds } in
      if List.exists (fun (_, s) -> s = site) p'.binds then p'
      else (
        (match status_of p site with
        | Some (Unchecked | Held) ->
            emit Leak ~site ~pc p
              (Printf.sprintf
                 "last reference to heap block allocated at pc %d is \
                  overwritten without a release"
                 site)
        | _ -> ());
        drop_site p' site)

(* The block escapes the tracked cells (pointer arithmetic, stored to
   non-stack memory, passed to an unrelated helper): stop tracking the
   whole site, silently — it may well be released through the escaped
   copy, and this pass never reports what it cannot witness. *)
let escape p cell =
  match bound p cell with None -> p | Some site -> drop_site p site

let deref (emit : emitter) ~pc p base =
  match bound p (C_reg base) with
  | None -> p
  | Some site -> (
      match status_of p site with
      | Some Unchecked ->
          emit Null_deref ~site ~pc p
            (Printf.sprintf
               "possibly-NULL result of allocation at pc %d dereferenced \
                without a null check"
               site);
          set_status p site Held
      | Some Released ->
          emit Use_after_release ~site ~pc p
            (Printf.sprintf "heap block released after allocation at pc %d is \
                             dereferenced again" site);
          drop_site p site
      | _ -> p)

let rnum = Reg.to_int

let is_fp r = Reg.equal r Reg.fp

(* Constant heap offset of the lock word passed in r1, from the verifier's
   abstract pre-state at the call. *)
let lock_addr (a : Verify.analysis) pc =
  match (Verify.states_at a).(pc) with
  | None -> unknown_addr
  | Some st -> (
      match State.get st Reg.R1 with
      | Value.Ptr { kind = Value.Heap; off; _ } -> (
          match Range.is_const off with Some v -> v | None -> unknown_addr)
      | _ -> unknown_addr)

(* Which lock a release call releases: the verifier gives the object id of
   the released handle, which is its acquisition pc. *)
let released_lock_id (a : Verify.analysis) pc argi =
  match (Verify.states_at a).(pc) with
  | None -> None
  | Some st -> Value.obj_id (State.get st (Reg.of_int (1 + argi)))

let lock_lt (o1, (a1 : int64)) (o2, a2) =
  o1 < o2 || (o1 = o2 && Int64.unsigned_compare a1 a2 < 0)

let call_step rules (a : Verify.analysis) (emit : emitter) pc name p =
  match Contract.find rules.contracts name with
  | None ->
      (* unknown helper: only the clobbers are certain *)
      List.fold_left (fun p i -> kill_cell emit ~pc p (C_reg i)) p
        [ 0; 1; 2; 3; 4; 5 ]
  | Some c ->
      let arity = List.length c.Contract.args in
      (* blocking call while a spin lock is held *)
      (match (p.locks, is_hazard c) with
      | l :: _, true ->
          emit Lock_hazard ~site:l.acq ~pc p
            (Printf.sprintf
               "%s may block or acquire kernel resources while the spin lock \
                taken at pc %d is held"
               name l.acq)
      | _ -> ());
      (* argument effects on tracked blocks, on the pre-call bindings *)
      let release_idx = Hashtbl.find_opt rules.release_arg name in
      let p =
        List.fold_left
          (fun p i ->
            match bound p (C_reg (1 + i)) with
            | None -> p
            | Some site -> (
                match release_idx with
                | Some idx when idx = i -> (
                    match status_of p site with
                    | Some Released ->
                        emit Double_release ~site ~pc p
                          (Printf.sprintf
                             "heap block allocated at pc %d is released a \
                              second time"
                             site);
                        p
                    | _ -> set_status p site Released)
                | _ -> escape p (C_reg (1 + i))))
          p
          (List.init arity (fun i -> i))
      in
      (* lock stack *)
      let p =
        if is_lock_acquire c then (
          let ord = Option.get c.Contract.lock_ordinal in
          let addr = lock_addr a pc in
          if addr <> unknown_addr then (
            (match
               List.find_opt
                 (fun l -> l.ordinal = ord && l.addr = addr)
                 p.locks
             with
            | Some l ->
                emit Lock_order ~site:l.acq ~pc p
                  (Printf.sprintf
                     "spin lock at heap offset %Ld taken at pc %d is taken \
                      again — self-deadlock"
                     addr l.acq)
            | None -> ());
            match
              List.find_opt
                (fun l ->
                  l.addr <> unknown_addr
                  && lock_lt (ord, addr) (l.ordinal, l.addr))
                p.locks
            with
            | Some l ->
                emit Lock_order ~site:l.acq ~pc p
                  (Printf.sprintf
                     "lock order inversion: lock at heap offset %Ld acquired \
                      while holding the higher-ranked lock taken at pc %d"
                     addr l.acq)
            | None -> ());
          { p with locks = { acq = pc; ordinal = ord; addr } :: p.locks })
        else p
      in
      let p =
        match c.Contract.eff with
        | Contract.E_release i when is_lock_release c -> (
            match released_lock_id a pc i with
            | Some id -> { p with locks = List.filter (fun l -> l.acq <> id) p.locks }
            | None -> (
                (* no abstract id: drop the innermost lock *)
                match p.locks with
                | _ :: tl -> { p with locks = tl }
                | [] -> p))
        | _ -> p
      in
      (* r0–r5 clobbered; then the allocator binds its fresh block to r0 *)
      let p =
        List.fold_left (fun p i -> kill_cell emit ~pc p (C_reg i)) p
          [ 0; 1; 2; 3; 4; 5 ]
      in
      if is_alloc c || is_nullable_lock c then
        add_bind (add_site p pc) (C_reg 0) pc
      else p

let stack_store (emit : emitter) ~pc p disp width (src : Reg.t option) =
  match (src, Prog.slot_of_full_store disp width) with
  | Some s, Some slot when bound p (C_reg (rnum s)) <> None ->
      let site = Option.get (bound p (C_reg (rnum s))) in
      add_bind (kill_cell emit ~pc p (C_slot slot)) (C_slot slot) site
  | _, Some slot -> kill_cell emit ~pc p (C_slot slot)
  | _, None ->
      List.fold_left
        (fun p s -> kill_cell emit ~pc p (C_slot s))
        p
        (Prog.overlapping_slots disp width)

let step rules (a : Verify.analysis) (emit : emitter) pc insn p =
  let p =
    match insn with
    | Insn.Mov (dst, src) ->
        let src_site =
          match src with
          | Insn.Reg s -> bound p (C_reg (rnum s))
          | Insn.Imm _ -> None
        in
        let p = kill_cell emit ~pc p (C_reg (rnum dst)) in
        (match src_site with
        | Some site -> add_bind p (C_reg (rnum dst)) site
        | None -> p)
    | Insn.Alu (_, dst, _) | Insn.Neg dst | Insn.Guard (_, dst) ->
        (* pointer arithmetic: the derived value may still reach a release,
           so the site escapes rather than leaks *)
        escape p (C_reg (rnum dst))
    | Insn.Ldx (sz, dst, src, off) ->
        if is_fp src then (
          let reload =
            match Prog.slot_of_full_store off (Insn.size_bytes sz) with
            | Some slot -> bound p (C_slot slot)
            | None -> None
          in
          let p = kill_cell emit ~pc p (C_reg (rnum dst)) in
          match reload with
          | Some site -> add_bind p (C_reg (rnum dst)) site
          | None -> p)
        else
          let p = deref emit ~pc p (rnum src) in
          kill_cell emit ~pc p (C_reg (rnum dst))
    | Insn.Stx (sz, dst, off, src) | Insn.Xstore (sz, dst, off, src) ->
        if is_fp dst then
          stack_store emit ~pc p off (Insn.size_bytes sz) (Some src)
        else
          let p = deref emit ~pc p (rnum dst) in
          escape p (C_reg (rnum src))
    | Insn.St (sz, dst, off, _) ->
        if is_fp dst then stack_store emit ~pc p off (Insn.size_bytes sz) None
        else deref emit ~pc p (rnum dst)
    | Insn.Atomic (op, sz, dst, off, src) ->
        let p =
          if is_fp dst then
            stack_store emit ~pc p off (Insn.size_bytes sz) None
          else deref emit ~pc p (rnum dst)
        in
        let p = escape p (C_reg (rnum src)) in
        let p =
          match op with
          | Insn.Fetch_add | Insn.Fetch_or | Insn.Fetch_and | Insn.Fetch_xor
          | Insn.Xchg ->
              kill_cell emit ~pc p (C_reg (rnum src))
          | Insn.Cmpxchg -> kill_cell emit ~pc p (C_reg 0)
          | _ -> p
        in
        p
    | Insn.Call name -> call_step rules a emit pc name p
    | Insn.Exit ->
        List.iter
          (fun (site, st) ->
            match st with
            | Unchecked | Held ->
                (* a still-held lock's site is reported by the dedicated
                   lock check below, not as a heap leak *)
                if not (List.exists (fun l -> l.acq = site) p.locks) then
                  emit Leak ~site ~pc p
                    (Printf.sprintf
                       "heap block allocated at pc %d is still live at exit \
                        on this path"
                       site)
            | Released -> ())
          p.sites;
        (match p.locks with
        | l :: _ ->
            emit Lock_hazard ~site:l.acq ~pc p
              (Printf.sprintf "spin lock taken at pc %d still held at exit"
                 l.acq)
        | [] -> ());
        p
    | Insn.Checkpoint _ ->
        (match p.locks with
        | l :: _ ->
            emit Lock_hazard ~site:l.acq ~pc p
              (Printf.sprintf
                 "cancellation point reached while the spin lock taken at pc \
                  %d is held"
                 l.acq)
        | [] -> ());
        p
    | Insn.Ja _ | Insn.Jcond _ -> p
  in
  append_trace pc p

(* Branch refinement: a conditional on a register bound to an [Unchecked]
   site splits the possibly-NULL disjunction — the null outcome drops the
   site (there is no block), the non-null outcome promotes it to [Held]. *)
let refine_path cond (imm : int64) ~taken p site =
  let verdict =
    match (cond, taken) with
    | Insn.Eq, true -> if imm = 0L then `Null else `Nonnull
    | Insn.Eq, false -> if imm = 0L then `Nonnull else `Unknown
    | Insn.Ne, true -> if imm = 0L then `Nonnull else `Unknown
    | Insn.Ne, false -> if imm = 0L then `Null else `Nonnull
    | Insn.Gt, true -> `Nonnull
    | Insn.Le, false -> `Nonnull
    | Insn.Ge, true when Int64.unsigned_compare imm 0L > 0 -> `Nonnull
    | Insn.Lt, false when Int64.unsigned_compare imm 0L > 0 -> `Nonnull
    | _ -> `Unknown
  in
  match verdict with
  | `Null ->
      (* a nullable lock acquire was pushed speculatively — the null arm
         means the lock was never taken *)
      let p = drop_site p site in
      { p with locks = List.filter (fun l -> l.acq <> site) p.locks }
  | `Nonnull -> set_status p site Held
  | `Unknown -> p

let edge (a : Verify.analysis) pc insn ~taken fact =
  (* a register operand whose abstract value is a known constant refines
     exactly like an immediate (compilers love [r2 = 0; if r1 != r2]) *)
  let const_operand = function
    | Insn.Imm imm -> Some imm
    | Insn.Reg r -> (
        match (Verify.states_at a).(pc) with
        | None -> None
        | Some st -> (
            match State.get st r with
            | Value.Scalar rg -> Range.is_const rg
            | _ -> None))
  in
  match insn with
  | Insn.Jcond (cond, r, operand, _) -> (
      match const_operand operand with
      | None -> fact
      | Some imm ->
          canon
            (List.map
               (fun p ->
                 match bound p (C_reg (rnum r)) with
                 | Some site when status_of p site = Some Unchecked ->
                     refine_path cond imm ~taken p site
                 | _ -> p)
               fact))
  | _ -> fact

(* ------------------------------------------------------------------ *)

let kind_rank = function
  | Leak -> 0
  | Double_release -> 1
  | Use_after_release -> 2
  | Null_deref -> 3
  | Lock_hazard -> 4
  | Lock_order -> 5
  | Chain_unreachable -> 6
  | Gave_up -> 7

let dedup_findings fs =
  let cmp a b =
    match compare (a.pc, kind_rank a.kind, a.site) (b.pc, kind_rank b.kind, b.site) with
    | 0 -> compare (List.length a.witness, a.witness) (List.length b.witness, b.witness)
    | c -> c
  in
  let sorted = List.sort cmp fs in
  let rec dedup = function
    | a :: b :: tl when a.kind = b.kind && a.site = b.site && a.pc = b.pc ->
        dedup (a :: tl)
    | a :: tl -> a :: dedup tl
    | [] -> []
  in
  dedup sorted

let run ~contracts (a : Verify.analysis) =
  let rules = build_rules contracts in
  let spec =
    {
      Dataflow.join;
      equal;
      transfer = (fun pc insn f -> canon (List.map (step rules a no_emit pc insn) f));
      edge = Some (edge a);
    }
  in
  match Dataflow.forward a ~init:[ entry_path ] spec with
  | exception Dataflow.Diverged ->
      [
        {
          kind = Gave_up;
          site = 0;
          pc = 0;
          witness = [];
          msg =
            "lifecycle analysis gave up: its fixpoint did not converge \
             within the budget, so this program is unchecked for leaks, \
             double releases, use after release, null dereferences and lock \
             hazards";
        };
      ]
  | pre ->
      let findings = ref [] in
      let emit kind ~site ~pc p msg =
        findings :=
          { kind; site; pc; witness = List.rev (pc :: p.trace); msg }
          :: !findings
      in
      Array.iteri
        (fun pc fact ->
          match fact with
          | None -> ()
          | Some paths ->
              let insn = Prog.get a.Verify.prog pc in
              List.iter (fun p -> ignore (step rules a emit pc insn p)) paths)
        pre;
      (* cancellation points live on unbounded-loop back edges (§3.3):
         holding a spin lock across one stalls cancellation *)
      List.iter
        (fun (l : Cfg.loop) ->
          let pc = l.Cfg.back_edge_pc in
          if pc >= 0 && pc < Array.length pre then
            match pre.(pc) with
            | Some paths ->
                List.iter
                  (fun p ->
                    match p.locks with
                    | lk :: _ ->
                        emit Lock_hazard ~site:lk.acq ~pc p
                          (Printf.sprintf
                             "unbounded loop back edge (a cancellation point \
                              after instrumentation) crossed while the spin \
                              lock taken at pc %d is held"
                             lk.acq)
                    | [] -> ())
                  paths
            | None -> ())
        a.Verify.unbounded;
      dedup_findings !findings

(* ------------------------------------------------------------------ *)
(* Chain-level composition. *)

let reachable_exits (a : Verify.analysis) =
  let prog = a.Verify.prog in
  let acc = ref [] in
  for pc = Prog.length prog - 1 downto 0 do
    match Prog.get prog pc with
    | Insn.Exit when (Verify.states_at a).(pc) <> None -> acc := pc :: !acc
    | _ -> ()
  done;
  !acc

(* The abstract r0 at every reachable exit excludes [v]: the program can
   never produce that verdict. *)
let excludes_verdict (a : Verify.analysis) v =
  let exits = reachable_exits a in
  exits <> []
  && List.for_all
       (fun pc ->
         match (Verify.states_at a).(pc) with
         | Some st -> (
             match State.get st Reg.R0 with
             | Value.Scalar r ->
                 Int64.unsigned_compare (Range.umin r) v > 0
                 || Int64.unsigned_compare (Range.umax r) v < 0
                 || not (Tnum.contains (Range.bits r) v)
             | _ -> false)
         | None -> false)
       exits

(* Cancellation returns the hook default, not r0 — so a program whose exits
   all exclude the pass verdict can still pass the chain on by cancelling,
   unless it has no cancellation sites at all: no heap accesses, no loops
   (no checkpoints for the watchdog or injection to land on), and no
   spin-lock acquisitions (no stall sites). *)
let cannot_cancel ~contracts (a : Verify.analysis) =
  a.Verify.heap_accesses = []
  && Cfg.loops a.Verify.cfg = []
  &&
  let prog = a.Verify.prog in
  let ok = ref true in
  for pc = 0 to Prog.length prog - 1 do
    match Prog.get prog pc with
    | Insn.Call name -> (
        match Contract.find contracts name with
        | Some c
          when c.Contract.lock_ordinal <> None
               && c.Contract.eff = Contract.E_acquire ->
            ok := false
        | _ -> ())
    | _ -> ()
  done;
  !ok

let run_chain ~contracts ~pass_verdict ?default_ret analyses =
  let default_ret = Option.value ~default:pass_verdict default_ret in
  let per =
    List.concat
      (List.mapi
         (fun index a ->
           List.map (fun finding -> { index; finding }) (run ~contracts a))
         analyses)
  in
  let n = List.length analyses in
  let blocks a =
    excludes_verdict a pass_verdict
    && (default_ret <> pass_verdict || cannot_cancel ~contracts a)
  in
  let blocker =
    let rec go i = function
      | [] -> None
      | a :: tl ->
          if i < n - 1 && blocks a then Some (i, a) else go (i + 1) tl
    in
    go 0 analyses
  in
  let chained =
    match blocker with
    | None -> []
    | Some (i, a) ->
        let exits = reachable_exits a in
        let site = match exits with pc :: _ -> pc | [] -> 0 in
        List.filteri (fun j _ -> j > i) analyses
        |> List.mapi (fun k _ ->
               {
                 index = i + 1 + k;
                 finding =
                   {
                     kind = Chain_unreachable;
                     site;
                     pc = 0;
                     witness = exits;
                     msg =
                       Printf.sprintf
                         "unreachable in the chain: program %d can never \
                          return the pass verdict %Ld, so this program's \
                          effects (including releases) never run"
                         i pass_verdict;
                   };
               })
  in
  List.sort
    (fun a b ->
      compare
        (a.index, a.finding.pc, kind_rank a.finding.kind, a.finding.site)
        (b.index, b.finding.pc, kind_rank b.finding.kind, b.finding.site))
    (per @ chained)
