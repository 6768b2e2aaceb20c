open Kflex_bpf

type kind =
  | Unreachable
  | Dead_store
  | Always_taken
  | Never_taken
  | Redundant_guard
  | Ignored_result
  | Gave_up

type diag = { pc : int; kind : kind; msg : string }

let kind_name = function
  | Unreachable -> "unreachable"
  | Dead_store -> "dead-store"
  | Always_taken -> "always-taken"
  | Never_taken -> "never-taken"
  | Redundant_guard -> "redundant-guard"
  | Ignored_result -> "ignored-result"
  | Gave_up -> "analysis-gave-up"

let exit_code = function [] -> 0 | _ :: _ -> 1

let pp_diag ppf d =
  Format.fprintf ppf "insn %d: [%s] %s" d.pc (kind_name d.kind) d.msg

(* --- register read/write sets (conservative) ---------------------------- *)

let src_reads = function Insn.Reg r -> [ r ] | Insn.Imm _ -> []

let call_arity contracts name =
  match Contract.find contracts name with
  | Some c -> List.length c.Contract.args
  | None -> 5

let reads contracts (insn : Insn.t) =
  match insn with
  | Insn.Mov (_, s) -> src_reads s
  | Insn.Alu (_, d, s) -> d :: src_reads s
  | Insn.Neg d -> [ d ]
  | Insn.Ldx (_, _, s, _) -> [ s ]
  | Insn.Stx (_, d, _, s) | Insn.Xstore (_, d, _, s) -> [ d; s ]
  | Insn.St (_, d, _, _) -> [ d ]
  | Insn.Atomic (op, _, d, _, s) ->
      if op = Insn.Cmpxchg then [ d; s; Reg.R0 ] else [ d; s ]
  | Insn.Ja _ | Insn.Checkpoint _ -> []
  | Insn.Jcond (_, a, s, _) -> a :: src_reads s
  | Insn.Call name ->
      List.filteri (fun i _ -> i < call_arity contracts name)
        [ Reg.R1; Reg.R2; Reg.R3; Reg.R4; Reg.R5 ]
  | Insn.Exit -> [ Reg.R0 ]
  | Insn.Guard (_, r) -> [ r ]

let writes_r0 (insn : Insn.t) =
  match insn with
  | Insn.Mov (d, _) | Insn.Alu (_, d, _) | Insn.Neg d | Insn.Ldx (_, d, _, _) ->
      Reg.equal d Reg.R0
  | Insn.Atomic (op, _, _, _, s) -> (
      match op with
      | Insn.Cmpxchg -> true
      | Insn.Fetch_add | Insn.Fetch_or | Insn.Fetch_and | Insn.Fetch_xor
      | Insn.Xchg ->
          Reg.equal s Reg.R0
      | _ -> false)
  | Insn.Call _ -> true
  | _ -> false

(* Whether the frame pointer's value escapes into data flow — a copied
   stack address can alias any slot from any register, so dead-store
   tracking must stand down for the whole program. Using fp as a load/store
   base is not an escape; everything else that reads it is. *)
let src_is_fp = function Insn.Reg r -> Reg.equal r Reg.fp | Insn.Imm _ -> false

let fp_escapes (insn : Insn.t) =
  let fp = Reg.fp in
  match insn with
  | Insn.Ldx _ -> false
  | Insn.Stx (_, _, _, s) | Insn.Xstore (_, _, _, s) -> Reg.equal s fp
  | Insn.St _ -> false
  | Insn.Mov (_, Insn.Reg s) -> Reg.equal s fp
  | Insn.Alu (_, d, s) -> Reg.equal d fp || src_is_fp s
  | Insn.Neg d -> Reg.equal d fp
  | Insn.Atomic (_, _, d, _, s) -> Reg.equal d fp || Reg.equal s fp
  | Insn.Jcond (_, a, s, _) -> Reg.equal a fp || src_is_fp s
  | _ -> false

(* --- per-analysis passes ------------------------------------------------- *)

let unreachable_diags (a : Verify.analysis) =
  let blocks = Cfg.blocks a.Verify.cfg in
  Array.to_list blocks
  |> List.filter_map (fun (b : Cfg.block) ->
         if a.Verify.reached.(b.Cfg.id) then None
         else
           let why =
             if Cfg.reachable a.Verify.cfg b.Cfg.id then
               "every path to it dies on a contradictory branch"
             else "no path from the entry leads here"
           in
           Some
             {
               pc = b.Cfg.first;
               kind = Unreachable;
               msg =
                 Format.sprintf "insns %d..%d are unreachable: %s" b.Cfg.first
                   b.Cfg.last why;
             })

let verdict_diags (a : Verify.analysis) =
  List.map
    (fun (pc, v) ->
      let insn = Prog.get a.Verify.prog pc in
      match v with
      | Verify.Always_taken ->
          {
            pc;
            kind = Always_taken;
            msg =
              Format.asprintf
                "branch `%a` is always taken (fall-through edge is dead)"
                Insn.pp insn;
          }
      | Verify.Never_taken ->
          {
            pc;
            kind = Never_taken;
            msg =
              Format.asprintf "branch `%a` is never taken (taken edge is dead)"
                Insn.pp insn;
          })
    a.Verify.verdicts

let redundant_mask_diags (a : Verify.analysis) =
  List.map
    (fun (pc, m) ->
      {
        pc;
        kind = Redundant_guard;
        msg =
          Format.sprintf
            "mask `and 0x%Lx` is a no-op: all possibly-set bits already lie \
             inside the mask (the sanitisation it performs is proven \
             redundant)"
            m;
      })
    a.Verify.redundant_masks

(* --- slot liveness on the fixpoint engine --------------------------------

   Dead-store detection is backward liveness over the 64 stack slots: a
   full-slot store whose slot is dead in the post-fact is never read on any
   path. The old block-local pass gave up at every helper call; here the
   contract registry proves most calls cannot read a given slot — only the
   slots covered by an [A_stack_ptr n] argument (at its abstract constant
   offset) are made live, and only a helper whose arguments could carry an
   unannotated stack pointer degrades the fact to "all live". *)

type slot_live = { top : bool; mask : int64 }

let sl_join x y = { top = x.top || y.top; mask = Int64.logor x.mask y.mask }

let sl_equal x y = x.top = y.top && Int64.equal x.mask y.mask

let sl_all = { top = true; mask = -1L }

let sl_none = { top = false; mask = 0L }

let sl_gen f slots =
  if f.top then f
  else
    {
      f with
      mask =
        List.fold_left
          (fun m s -> Int64.logor m (Int64.shift_left 1L s))
          f.mask slots;
    }

let sl_kill f slot =
  if f.top then f
  else { f with mask = Int64.logand f.mask (Int64.lognot (Int64.shift_left 1L slot)) }

let sl_mem f slot =
  f.top || Int64.logand f.mask (Int64.shift_left 1L slot) <> 0L

(* Slots a helper call may read, from its contract and the verifier's
   abstract pre-state at the call; [None] = unknown (all slots live). *)
let call_slot_gen ~contracts (a : Verify.analysis) pc name =
  match Contract.find contracts name with
  | None -> None
  | Some c ->
      let st = (Verify.states_at a).(pc) in
      let arg_val i =
        match st with
        | Some st when i < 5 -> Some (State.get st (Reg.of_int (i + 1)))
        | _ -> None
      in
      let rec go i acc = function
        | [] -> Some acc
        | arg :: tl -> (
            match (arg, arg_val i) with
            | Contract.A_stack_ptr n, Some (Value.Ptr { kind = Value.Stack; off; _ })
              -> (
                match Range.is_const off with
                | Some o ->
                    let slots = Prog.overlapping_slots (Int64.to_int o) n in
                    go (i + 1) (slots @ acc) tl
                | None -> None)
            | Contract.A_stack_ptr _, _ -> None
            | Contract.A_any, Some (Value.Ptr { kind = Value.Stack; _ }) -> None
            | Contract.A_any, None -> None
            | _ -> go (i + 1) acc tl)
      in
      go 0 [] c.Contract.args

let slot_transfer ~contracts (a : Verify.analysis) pc insn f =
  match insn with
  | Insn.Stx (sz, d, disp, _) | Insn.St (sz, d, disp, _)
    when Reg.equal d Reg.fp -> (
      match Prog.slot_of_full_store disp (Insn.size_bytes sz) with
      | Some slot -> sl_kill f slot
      | None -> f (* partial: neither reads nor fully overwrites *))
  | Insn.Ldx (sz, _, s, disp) when Reg.equal s Reg.fp ->
      sl_gen f (Prog.overlapping_slots disp (Insn.size_bytes sz))
  | Insn.Atomic (_, sz, d, disp, _) when Reg.equal d Reg.fp ->
      sl_gen f (Prog.overlapping_slots disp (Insn.size_bytes sz))
  | Insn.Call name -> (
      match call_slot_gen ~contracts a pc name with
      | Some slots -> sl_gen f slots
      | None -> sl_all)
  | _ -> f

(* Block-local look-ahead for the friendlier half of the message. *)
let overwrite_pc ~contracts (a : Verify.analysis) pc slot =
  let b = Cfg.block_of_pc a.Verify.cfg pc in
  let insns = Prog.insns a.Verify.prog in
  let rec scan pc' =
    if pc' > b.Cfg.last then None
    else
      match insns.(pc') with
      | Insn.Stx (sz, d, disp, _) | Insn.St (sz, d, disp, _)
        when Reg.equal d Reg.fp
             && Prog.slot_of_full_store disp (Insn.size_bytes sz) = Some slot ->
          Some pc'
      | insn ->
          (* anything that could read the slot ends the scan *)
          let keeps_looking =
            match insn with
            | Insn.Ldx (sz, _, s, disp) when Reg.equal s Reg.fp ->
                let slots = Prog.overlapping_slots disp (Insn.size_bytes sz) in
                not (List.mem slot slots)
            | Insn.Call name ->
                call_slot_gen ~contracts a pc' name = Some []
            | Insn.Exit -> false
            | _ -> true
          in
          if keeps_looking then scan (pc' + 1) else None
  in
  scan (pc + 1)

(* A dataflow pass that ran out of budget reports that, at the program's
   entry: no findings would read as a clean program. *)
let gave_up what =
  [
    {
      pc = 0;
      kind = Gave_up;
      msg =
        Format.sprintf
          "%s analysis gave up: its fixpoint did not converge within the \
           budget, so this program is unchecked for %s"
          what what;
    };
  ]

let dead_store_diags ~contracts (a : Verify.analysis) =
  let prog = a.Verify.prog in
  let insns = Prog.insns prog in
  if Array.exists fp_escapes insns then []
  else
    let spec =
      {
        Dataflow.join = sl_join;
        equal = sl_equal;
        transfer = slot_transfer ~contracts a;
        edge = None;
      }
    in
    match Dataflow.backward a ~exit_fact:sl_none spec with
    | exception Dataflow.Diverged -> gave_up "dead-store"
    | post ->
        let diags = ref [] in
        Array.iteri
          (fun pc insn ->
            match insn with
            | Insn.Stx (sz, d, disp, _) | Insn.St (sz, d, disp, _)
              when Reg.equal d Reg.fp -> (
                let full = Prog.slot_of_full_store disp (Insn.size_bytes sz) in
                match (full, post.(pc)) with
                | Some slot, Some f when not (sl_mem f slot) ->
                    let where =
                      match overwrite_pc ~contracts a pc slot with
                      | Some opc ->
                          Format.sprintf "overwritten at insn %d before any read"
                            opc
                      | None -> "never read on any path to exit"
                    in
                    diags :=
                      {
                        pc;
                        kind = Dead_store;
                        msg =
                          Format.sprintf
                            "store to stack slot %d (fp%+d) is dead: %s" slot
                            ((slot * 8) - Prog.stack_size)
                            where;
                      }
                      :: !diags
                | _ -> ())
            | _ -> ())
          insns;
        !diags

(* --- r0 liveness on the fixpoint engine ---------------------------------- *)

let ignored_result_diags ~contracts (a : Verify.analysis) =
  let prog = a.Verify.prog in
  let spec =
    {
      Dataflow.join = ( || );
      equal = Bool.equal;
      transfer =
        (fun _pc insn live ->
          List.exists (fun r -> Reg.equal r Reg.R0) (reads contracts insn)
          || (live && not (writes_r0 insn)));
      edge = None;
    }
  in
  match Dataflow.backward a ~exit_fact:false spec with
  | exception Dataflow.Diverged -> gave_up "ignored-result"
  | post ->
      let diags = ref [] in
      Array.iteri
        (fun pc insn ->
          match insn with
          | Insn.Call name
            when (match Contract.find contracts name with
                 | Some { Contract.ret = Contract.R_unit; _ } -> false
                 | _ -> true)
                 && post.(pc) = Some false ->
              diags :=
                {
                  pc;
                  kind = Ignored_result;
                  msg =
                    Format.sprintf
                      "result of `call %s` is ignored: r0 is never read on \
                       any path"
                      name;
                }
                :: !diags
          | _ -> ())
        (Prog.insns prog);
      !diags

let run ~contracts (a : Verify.analysis) =
  let diags =
    unreachable_diags a @ verdict_diags a @ redundant_mask_diags a
    @ dead_store_diags ~contracts a
    @ ignored_result_diags ~contracts a
  in
  List.sort
    (fun x y ->
      match Int.compare x.pc y.pc with
      | 0 -> compare x.kind y.kind
      | c -> c)
    diags
