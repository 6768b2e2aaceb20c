open Kflex_bpf

type verdict = Bounded | Unbounded

(* Whether an instruction writes [r] (conservatively). *)
let writes r = function
  | Insn.Alu (_, d, _) | Insn.Neg d | Insn.Mov (d, _) | Insn.Ldx (_, d, _, _)
  | Insn.Guard (_, d) ->
      Reg.equal d r
  | Insn.Atomic
      ( ( Insn.Fetch_add | Insn.Fetch_or | Insn.Fetch_and | Insn.Fetch_xor
        | Insn.Xchg ),
        _, _, _, s ) ->
      Reg.equal s r
  | Insn.Atomic (Insn.Cmpxchg, _, _, _, _) -> Reg.equal r Reg.R0
  | Insn.Call _ -> List.mem r Reg.caller_saved
  | _ -> false

(* The unique [r += k] / [r -= k] step for [r] in the loop, if [r] is written
   exactly once and only by such an instruction. *)
let step_of prog cfg (l : Cfg.loop) r =
  let blocks = Cfg.blocks cfg in
  let steps = ref 0 and step = ref 0L and other_writes = ref false in
  List.iter
    (fun bid ->
      let b = blocks.(bid) in
      for pc = b.Cfg.first to b.Cfg.last do
        match Prog.get prog pc with
        | Insn.Alu (Insn.Add, d, Insn.Imm k) when Reg.equal d r ->
            incr steps;
            step := k
        | Insn.Alu (Insn.Sub, d, Insn.Imm k) when Reg.equal d r ->
            incr steps;
            step := Int64.neg k
        | insn -> if writes r insn then other_writes := true
      done)
    l.Cfg.body;
  if !steps = 1 && not !other_writes then Some !step else None

(* Whether staying in the loop under [cond r, c] with step [k] per iteration
   must eventually fail. The stay condition holds on the in-loop edge. *)
let progresses (stay : Insn.cond) (c : int64) (k : int64) =
  let pos = k > 0L and neg = k < 0L in
  match stay with
  | Insn.Lt | Insn.Le ->
      (* unsigned upward progress; forbid wrap-past-bound *)
      pos && Int64.unsigned_compare c (Int64.sub (-1L) k) <= 0
  | Insn.Slt | Insn.Sle -> pos && c <= Int64.sub Int64.max_int k
  | Insn.Gt | Insn.Ge -> neg && Int64.unsigned_compare c (Int64.neg k) >= 0
  | Insn.Sgt | Insn.Sge -> neg && c >= Int64.sub Int64.min_int k
  | _ -> false

let classify prog cfg (l : Cfg.loop) =
  let in_loop bid = List.mem bid l.Cfg.body in
  let bounded_exit pc =
    match Prog.get prog pc with
    | Insn.Jcond (cond, r, Insn.Imm c, off) -> (
        let taken = pc + 1 + off and fall = pc + 1 in
        let taken_in = in_loop (Cfg.block_of_pc cfg taken).Cfg.id in
        let fall_in =
          fall < Prog.length prog && in_loop (Cfg.block_of_pc cfg fall).Cfg.id
        in
        match (taken_in, fall_in) with
        | true, false ->
            (* stay condition = cond *)
            (match step_of prog cfg l r with
            | Some k -> progresses cond c k
            | None -> false)
        | false, true ->
            (* stay condition = not cond *)
            (match step_of prog cfg l r with
            | Some k -> progresses (Range.negate_cond cond) c k
            | None -> false)
        | _ -> false)
    | _ -> false
  in
  let blocks = Cfg.blocks cfg in
  (* exit branches sit at block terminators *)
  if List.exists (fun bid -> bounded_exit blocks.(bid).Cfg.last) l.Cfg.body
  then Bounded
  else Unbounded

let unbounded_loops prog cfg =
  List.filter (fun l -> classify prog cfg l = Unbounded) (Cfg.loops cfg)
