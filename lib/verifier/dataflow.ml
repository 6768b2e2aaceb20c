module Insn = Kflex_bpf.Insn
module Cfg = Kflex_bpf.Cfg
module Prog = Kflex_bpf.Prog

type 'f spec = {
  join : 'f -> 'f -> 'f;
  equal : 'f -> 'f -> bool;
  transfer : int -> Insn.t -> 'f -> 'f;
  edge : (int -> Insn.t -> taken:bool -> 'f -> 'f) option;
}

exception Diverged

(* Out-edges of the instruction at [pc], with the branch outcome that
   selects each ([None] for unconditional flow). Edges the verifier proved
   dead are dropped here, so no client fact ever travels an infeasible
   path. *)
let live_out_edges verdicts pc insn =
  let edges =
    match insn with
    | Insn.Jcond (_, _, _, off) ->
        [ (pc + 1 + off, Some true); (pc + 1, Some false) ]
    | Insn.Ja off -> [ (pc + 1 + off, None) ]
    | i when Insn.falls_through i -> [ (pc + 1, None) ]
    | _ -> []
  in
  match Hashtbl.find_opt verdicts pc with
  | Some Verify.Always_taken ->
      List.filter (fun (_, t) -> t <> Some false) edges
  | Some Verify.Never_taken -> List.filter (fun (_, t) -> t <> Some true) edges
  | None -> edges

let verdict_table (a : Verify.analysis) =
  let h = Hashtbl.create 8 in
  List.iter (fun (pc, v) -> Hashtbl.replace h pc v) a.Verify.verdicts;
  h

(* A block participates when the abstract semantics reached it. *)
let live_blocks (a : Verify.analysis) =
  Cfg.blocks a.Verify.cfg
  |> Array.to_list
  |> List.filter (fun (b : Cfg.block) ->
         b.Cfg.id < Array.length a.Verify.reached && a.Verify.reached.(b.Cfg.id))

let budget nblocks = 64 * (nblocks + 4) * (nblocks + 4)

(* A cap replacing [budget] for the fixpoints this domain solves; set only
   by [with_budget]. *)
let cap : int option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let with_budget n f =
  let old = Domain.DLS.get cap in
  Domain.DLS.set cap (Some n);
  Fun.protect ~finally:(fun () -> Domain.DLS.set cap old) f

let fuel nblocks =
  ref (match Domain.DLS.get cap with Some n -> n | None -> budget nblocks)

let forward (a : Verify.analysis) ~init spec =
  let prog = a.Verify.prog in
  let cfg = a.Verify.cfg in
  let verdicts = verdict_table a in
  let blocks = live_blocks a in
  let live = Hashtbl.create 16 in
  List.iter (fun (b : Cfg.block) -> Hashtbl.replace live b.Cfg.id b) blocks;
  (* in-fact per live block id *)
  let in_fact : (int, 'f) Hashtbl.t = Hashtbl.create 16 in
  let entry = Cfg.block_of_pc cfg 0 in
  Hashtbl.replace in_fact entry.Cfg.id init;
  let work = Queue.create () in
  Queue.add entry.Cfg.id work;
  let fuel = fuel (List.length blocks) in
  let block_out (b : Cfg.block) f0 =
    let f = ref f0 in
    for pc = b.Cfg.first to b.Cfg.last do
      f := spec.transfer pc (Prog.get prog pc) !f
    done;
    !f
  in
  while not (Queue.is_empty work) do
    decr fuel;
    if !fuel < 0 then raise Diverged;
    let id = Queue.pop work in
    match (Hashtbl.find_opt live id, Hashtbl.find_opt in_fact id) with
    | Some b, Some f0 ->
        let out = block_out b f0 in
        let last_insn = Prog.get prog b.Cfg.last in
        live_out_edges verdicts b.Cfg.last last_insn
        |> List.iter (fun (tpc, taken) ->
               let sb = Cfg.block_of_pc cfg tpc in
               if Hashtbl.mem live sb.Cfg.id then (
                 let f =
                   match (taken, spec.edge) with
                   | Some taken, Some e -> e b.Cfg.last last_insn ~taken out
                   | _ -> out
                 in
                 let f' =
                   match Hashtbl.find_opt in_fact sb.Cfg.id with
                   | None -> f
                   | Some old -> spec.join old f
                 in
                 match Hashtbl.find_opt in_fact sb.Cfg.id with
                 | Some old when spec.equal old f' -> ()
                 | _ ->
                     Hashtbl.replace in_fact sb.Cfg.id f';
                     Queue.add sb.Cfg.id work))
    | _ -> ()
  done;
  let res = Array.make (Prog.length prog) None in
  List.iter
    (fun (b : Cfg.block) ->
      match Hashtbl.find_opt in_fact b.Cfg.id with
      | None -> ()
      | Some f0 ->
          let f = ref f0 in
          for pc = b.Cfg.first to b.Cfg.last do
            res.(pc) <- Some !f;
            f := spec.transfer pc (Prog.get prog pc) !f
          done)
    blocks;
  res

let backward (a : Verify.analysis) ~exit_fact spec =
  let prog = a.Verify.prog in
  let cfg = a.Verify.cfg in
  let verdicts = verdict_table a in
  let blocks = live_blocks a in
  let live = Hashtbl.create 16 in
  List.iter (fun (b : Cfg.block) -> Hashtbl.replace live b.Cfg.id b) blocks;
  (* Live successor block ids, honouring dead-edge verdicts. *)
  let succs (b : Cfg.block) =
    live_out_edges verdicts b.Cfg.last (Prog.get prog b.Cfg.last)
    |> List.filter_map (fun (tpc, _) ->
           let sb = Cfg.block_of_pc cfg tpc in
           if Hashtbl.mem live sb.Cfg.id then Some sb.Cfg.id else None)
    |> List.sort_uniq compare
  in
  (* in-fact of a block = fact before its first insn (the fixpoint
     variable); out-fact = join of successor in-facts. *)
  let in_fact : (int, 'f) Hashtbl.t = Hashtbl.create 16 in
  let block_in (b : Cfg.block) out =
    let f = ref out in
    for pc = b.Cfg.last downto b.Cfg.first do
      f := spec.transfer pc (Prog.get prog pc) !f
    done;
    !f
  in
  let out_of (b : Cfg.block) =
    match succs b with
    | [] -> Some exit_fact
    | ss ->
        List.fold_left
          (fun acc id ->
            match (acc, Hashtbl.find_opt in_fact id) with
            | None, f | f, None -> f
            | Some x, Some y -> Some (spec.join x y))
          None ss
  in
  let preds_of =
    let h = Hashtbl.create 16 in
    List.iter
      (fun (b : Cfg.block) ->
        List.iter
          (fun s ->
            let old = try Hashtbl.find h s with Not_found -> [] in
            Hashtbl.replace h s (b.Cfg.id :: old))
          (succs b))
      blocks;
    h
  in
  let work = Queue.create () in
  List.iter (fun (b : Cfg.block) -> Queue.add b.Cfg.id work) blocks;
  let fuel = fuel (List.length blocks) in
  while not (Queue.is_empty work) do
    decr fuel;
    if !fuel < 0 then raise Diverged;
    let id = Queue.pop work in
    match Hashtbl.find_opt live id with
    | None -> ()
    | Some b -> (
        match out_of b with
        | None -> ()
        | Some out ->
            let f = block_in b out in
            let changed =
              match Hashtbl.find_opt in_fact id with
              | Some old -> not (spec.equal old f)
              | None -> true
            in
            if changed then (
              Hashtbl.replace in_fact id f;
              List.iter
                (fun p -> Queue.add p work)
                (try Hashtbl.find preds_of id with Not_found -> [])))
  done;
  let res = Array.make (Prog.length prog) None in
  List.iter
    (fun (b : Cfg.block) ->
      match out_of b with
      | None -> ()
      | Some out ->
          (* Walk backward keeping the running pre-fact; the post-fact of
             pc is the fact before transfer was applied at pc. *)
          let post = ref out in
          for pc = b.Cfg.last downto b.Cfg.first do
            res.(pc) <- Some !post;
            post := spec.transfer pc (Prog.get prog pc) !post
          done)
    blocks;
  res
