type block = { id : int; first : int; last : int; succs : int list }

type t = {
  blocks : block array;
  pc_block : int array;  (* pc -> block id, or -1 *)
  preds : int list array;
  (* dom.(b) = sorted list of dominator block ids; [] for unreachable b <> 0 *)
  dom : int list array;
  reach : bool array;
}

type loop = {
  header : int;
  back_edge_src : int;
  back_edge_pc : int;
  body : int list;
}

let successors_of_pc insns pc =
  let insn = insns.(pc) in
  let t = Insn.jump_targets pc insn in
  if Insn.falls_through insn then (pc + 1) :: t else t

let build prog =
  let insns = Prog.insns prog in
  let n = Array.length insns in
  let leader = Array.make n false in
  leader.(0) <- true;
  Array.iteri
    (fun pc insn ->
      match insn with
      | Insn.Ja _ | Insn.Jcond _ | Insn.Exit ->
          List.iter (fun t -> leader.(t) <- true) (Insn.jump_targets pc insn);
          if pc + 1 < n then leader.(pc + 1) <- true
      | _ -> ())
    insns;
  let starts = ref [] in
  for pc = n - 1 downto 0 do
    if leader.(pc) then starts := pc :: !starts
  done;
  let starts = Array.of_list !starts in
  let nb = Array.length starts in
  let pc_block = Array.make n (-1) in
  let bounds =
    Array.mapi
      (fun i first ->
        let last = if i + 1 < nb then starts.(i + 1) - 1 else n - 1 in
        for pc = first to last do
          pc_block.(pc) <- i
        done;
        (first, last))
      starts
  in
  let blocks =
    Array.mapi
      (fun i (first, last) ->
        let succ_pcs = successors_of_pc insns last in
        let succs = List.sort_uniq Int.compare (List.map (fun pc -> pc_block.(pc)) succ_pcs) in
        { id = i; first; last; succs })
      bounds
  in
  let preds = Array.make nb [] in
  Array.iter
    (fun b -> List.iter (fun s -> preds.(s) <- b.id :: preds.(s)) b.succs)
    blocks;
  (* Reachability from entry. *)
  let reach = Array.make nb false in
  let rec dfs b =
    if not reach.(b) then (
      reach.(b) <- true;
      List.iter dfs blocks.(b).succs)
  in
  dfs 0;
  (* Iterative dominator computation over bitsets: block [j] is bit
     [j mod w] of word [j / w]. *)
  let w = Sys.int_size in
  let words = (nb + w - 1) / w in
  let full =
    Array.init words (fun k -> if k < nb / w then -1 else (1 lsl (nb mod w)) - 1)
  in
  let add set j = set.(j / w) <- set.(j / w) lor (1 lsl (j mod w)) in
  let dom =
    Array.init nb (fun i ->
        if i = 0 then begin
          let s = Array.make words 0 in
          add s 0;
          s
        end
        else if reach.(i) then Array.copy full
        else Array.make words 0)
  in
  let changed = ref true in
  (* one working set, copied only when a block's dominators change *)
  let inter = Array.make words 0 in
  while !changed do
    changed := false;
    for b = 1 to nb - 1 do
      if reach.(b) then begin
        Array.blit full 0 inter 0 words;
        let has_pred = ref false in
        List.iter
          (fun p ->
            if reach.(p) then begin
              has_pred := true;
              let dp = dom.(p) in
              for k = 0 to words - 1 do
                inter.(k) <- inter.(k) land dp.(k)
              done
            end)
          preds.(b);
        if not !has_pred then Array.fill inter 0 words 0;
        add inter b;
        if not (Array.for_all2 Int.equal inter dom.(b)) then begin
          dom.(b) <- Array.copy inter;
          changed := true
        end
      end
    done
  done;
  let dom_lists =
    Array.mapi
      (fun b set ->
        if (not reach.(b)) && b <> 0 then []
        else
          let l = ref [] in
          for k = words - 1 downto 0 do
            let word = set.(k) in
            if word <> 0 then
              for bit = w - 1 downto 0 do
                if (word lsr bit) land 1 = 1 then l := ((k * w) + bit) :: !l
              done
          done;
          !l)
      dom
  in
  { blocks; pc_block; preds; dom = dom_lists; reach }

let blocks g = g.blocks

let block_of_pc g pc =
  if pc < 0 || pc >= Array.length g.pc_block || g.pc_block.(pc) < 0 then
    invalid_arg (Printf.sprintf "Cfg.block_of_pc: %d" pc)
  else g.blocks.(g.pc_block.(pc))

let preds g b = g.preds.(b)
let dominators g b = g.dom.(b)
let dominates g a b = List.exists (Int.equal a) g.dom.(b)
let reachable g b = g.reach.(b)

let natural_loop g ~header ~src =
  (* Nodes that reach [src] without passing through [header], plus both. *)
  let nb = Array.length g.blocks in
  let in_loop = Array.make nb false in
  in_loop.(header) <- true;
  let rec add b =
    if not in_loop.(b) then begin
      in_loop.(b) <- true;
      List.iter add g.preds.(b)
    end
  in
  add src;
  let body = ref [] in
  for b = nb - 1 downto 0 do
    if in_loop.(b) then body := b :: !body
  done;
  !body

let loops g =
  let ls = ref [] in
  Array.iter
    (fun b ->
      if g.reach.(b.id) then
        List.iter
          (fun s -> if dominates g s b.id then
              let body = natural_loop g ~header:s ~src:b.id in
              ls :=
                { header = s; back_edge_src = b.id; back_edge_pc = b.last; body }
                :: !ls)
          b.succs)
    g.blocks;
  (* innermost first: sort by body size ascending *)
  List.sort (fun a b -> Int.compare (List.length a.body) (List.length b.body)) !ls

let pp ppf g =
  Format.fprintf ppf "@[<v>";
  Array.iter
    (fun b ->
      Format.fprintf ppf "B%d [%d..%d] -> %a%s@," b.id b.first b.last
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
           Format.pp_print_int)
        b.succs
        (if g.reach.(b.id) then "" else " (unreachable)"))
    g.blocks;
  Format.fprintf ppf "@]"
