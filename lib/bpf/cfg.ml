type block = { id : int; first : int; last : int; succs : int list }

type t = {
  blocks : block array;
  pc_block : int array;  (* pc -> block id, or -1 *)
  preds : int list array;
  (* the dominator sets, [words] ints per block: block [a] dominates [b]
     when bit [a mod int_size] of [dom.(b * words + a / int_size)] is set;
     empty for an unreachable [b <> 0] *)
  dom : int array;
  words : int;
  reach : bool array;
}

type loop = {
  header : int;
  back_edge_src : int;
  back_edge_pc : int;
  body : int list;
}

(* The target of a jump at [pc], or -1. *)
let target pc = function
  | Insn.Ja off | Insn.Jcond (_, _, _, off) -> pc + 1 + off
  | _ -> -1

let build prog =
  let insns = Prog.insns prog in
  let n = Array.length insns in
  let leader = Bytes.make n '\000' in
  let lead pc = if pc < n then Bytes.unsafe_set leader pc '\001' in
  lead 0;
  Array.iteri
    (fun pc insn ->
      match insn with
      | Insn.Ja _ | Insn.Jcond _ | Insn.Exit ->
          let t = target pc insn in
          if t >= 0 then lead t;
          lead (pc + 1)
      | _ -> ())
    insns;
  let pc_block = Array.make n (-1) in
  let nb = ref 0 in
  for pc = 0 to n - 1 do
    if Bytes.unsafe_get leader pc = '\001' then incr nb;
    pc_block.(pc) <- !nb - 1
  done;
  let nb = !nb in
  let first = Array.make nb 0 in
  for pc = n - 1 downto 0 do
    first.(pc_block.(pc)) <- pc
  done;
  let blocks =
    Array.init nb (fun i ->
        let last = if i + 1 < nb then first.(i + 1) - 1 else n - 1 in
        let insn = insns.(last) in
        let t = target last insn in
        let t = if t >= 0 then pc_block.(t) else -1 in
        let f = if Insn.falls_through insn then pc_block.(last + 1) else -1 in
        (* sorted, without duplicates *)
        let succs =
          if t < 0 && f < 0 then []
          else if t < 0 || t = f then [ f ]
          else if f < 0 then [ t ]
          else if t < f then [ t; f ]
          else [ f; t ]
        in
        { id = i; first = first.(i); last; succs })
  in
  let preds = Array.make nb [] in
  Array.iter
    (fun b -> List.iter (fun s -> preds.(s) <- b.id :: preds.(s)) b.succs)
    blocks;
  (* Reachability from entry. *)
  let reach = Array.make nb false in
  let rec dfs b =
    if not reach.(b) then begin
      reach.(b) <- true;
      List.iter dfs blocks.(b).succs
    end
  in
  dfs 0;
  (* Iterative dominator computation over the bitsets. *)
  let w = Sys.int_size in
  let words = (nb + w - 1) / w in
  let top k = if k < nb / w then -1 else (1 lsl (nb mod w)) - 1 in
  let dom = Array.make (nb * words) 0 in
  dom.(0) <- 1;
  for b = 1 to nb - 1 do
    if reach.(b) then
      for k = 0 to words - 1 do
        dom.((b * words) + k) <- top k
      done
  done;
  let changed = ref true in
  (* one working set, written back only when a block's dominators change *)
  let inter = Array.make words 0 in
  while !changed do
    changed := false;
    for b = 1 to nb - 1 do
      if reach.(b) then begin
        for k = 0 to words - 1 do
          inter.(k) <- top k
        done;
        let has_pred = ref false in
        List.iter
          (fun p ->
            if reach.(p) then begin
              has_pred := true;
              for k = 0 to words - 1 do
                inter.(k) <- inter.(k) land dom.((p * words) + k)
              done
            end)
          preds.(b);
        if not !has_pred then Array.fill inter 0 words 0;
        inter.(b / w) <- inter.(b / w) lor (1 lsl (b mod w));
        for k = 0 to words - 1 do
          if inter.(k) <> dom.((b * words) + k) then begin
            dom.((b * words) + k) <- inter.(k);
            changed := true
          end
        done
      end
    done
  done;
  { blocks; pc_block; preds; dom; words; reach }

let blocks g = g.blocks

let block_of_pc g pc =
  if pc < 0 || pc >= Array.length g.pc_block || g.pc_block.(pc) < 0 then
    invalid_arg (Printf.sprintf "Cfg.block_of_pc: %d" pc)
  else g.blocks.(g.pc_block.(pc))

let preds g b = g.preds.(b)

let dominates g a b =
  let w = Sys.int_size in
  (g.dom.((b * g.words) + (a / w)) lsr (a mod w)) land 1 = 1

let dominators g b =
  let l = ref [] in
  for a = Array.length g.blocks - 1 downto 0 do
    if dominates g a b then l := a :: !l
  done;
  !l

let reachable g b = g.reach.(b)

let natural_loop g ~header ~src =
  (* Nodes that reach [src] without passing through [header], plus both. *)
  let nb = Array.length g.blocks in
  let in_loop = Bytes.make nb '\000' in
  Bytes.set in_loop header '\001';
  let rec add b =
    if Bytes.get in_loop b = '\000' then begin
      Bytes.set in_loop b '\001';
      List.iter add g.preds.(b)
    end
  in
  add src;
  let body = ref [] in
  for b = nb - 1 downto 0 do
    if Bytes.get in_loop b = '\001' then body := b :: !body
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
