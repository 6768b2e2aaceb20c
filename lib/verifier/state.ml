open Kflex_bpf

type slot = S_empty | S_misc | S_spill of Value.t

type resource = { id : int; klass : string; destructor : string }

type t = {
  regs : Value.t array;
  stack : slot array;
  res : resource list;
  origin : int array;
}

let nslots = Prog.stack_size / 8

let init ~ctx_nullable =
  let regs = Array.make 11 Value.Uninit in
  regs.(1) <-
    Value.Ptr { kind = Value.Ctx; off = Range.const 0L; nullable = ctx_nullable };
  regs.(10) <- Value.Ptr { kind = Value.Stack; off = Range.const 0L; nullable = false };
  {
    regs;
    stack = Array.make nslots S_empty;
    res = [];
    origin = Array.make 11 (-1);
  }

let get st r = st.regs.(Reg.to_int r)

(* States are never mutated once built, so an unchanged array is shared. *)
let set st r v =
  let i = Reg.to_int r in
  let regs = Array.copy st.regs in
  regs.(i) <- v;
  let origin =
    if st.origin.(i) < 0 then st.origin
    else begin
      let origin = Array.copy st.origin in
      origin.(i) <- -1;
      origin
    end
  in
  { st with regs; origin }

let set_from_slot st r v slot =
  let regs = Array.copy st.regs in
  let origin = Array.copy st.origin in
  regs.(Reg.to_int r) <- v;
  origin.(Reg.to_int r) <- slot;
  { st with regs; origin }

let refine_mirrored st r v =
  let regs = Array.copy st.regs in
  regs.(Reg.to_int r) <- v;
  let slot = st.origin.(Reg.to_int r) in
  let stack =
    if slot >= 0 then begin
      let stack = Array.copy st.stack in
      (match stack.(slot) with
      | S_spill _ -> stack.(slot) <- S_spill v
      | _ -> ());
      stack
    end
    else st.stack
  in
  { st with regs; stack }

let clobber st rs =
  let regs = Array.copy st.regs in
  let origin = Array.copy st.origin in
  List.iter
    (fun r ->
      regs.(Reg.to_int r) <- Value.Uninit;
      origin.(Reg.to_int r) <- -1)
    rs;
  { st with regs; origin }

let write_slot st slot s =
  let stack = Array.copy st.stack in
  stack.(slot) <- s;
  let origin =
    if not (Array.exists (fun o -> o = slot) st.origin) then st.origin
    else Array.map (fun o -> if o = slot then -1 else o) st.origin
  in
  { st with stack; origin }

let slot_equal a b =
  a == b
  ||
  match (a, b) with
  | S_empty, S_empty | S_misc, S_misc -> true
  | S_spill x, S_spill y -> Value.equal x y
  | _ -> false

let res_equal a b =
  List.length a = List.length b
  && List.for_all2 (fun (x : resource) y -> x.id = y.id && x.klass = y.klass) a b

let equal a b =
  a == b
  || (a.regs == b.regs || Array.for_all2 Value.equal a.regs b.regs)
     && (a.stack == b.stack || Array.for_all2 slot_equal a.stack b.stack)
     && res_equal a.res b.res
     && (a.origin == b.origin || Array.for_all2 Int.equal a.origin b.origin)

(* [Array.map2 f a b], but [a] itself when [f] returns every element of [a]
   unchanged: a join or widening that changes nothing allocates nothing, and
   the equality test that follows it short-cuts. [f x x] must be [x], so
   elements [a] and [b] share are skipped. *)
let map2_shared f a b =
  let n = Array.length a in
  let rec go i =
    if i = n then a
    else if b.(i) == a.(i) then go (i + 1)
    else
      let v = f a.(i) b.(i) in
      if v == a.(i) then go (i + 1)
      else begin
        let r = Array.copy a in
        r.(i) <- v;
        for j = i + 1 to n - 1 do
          r.(j) <- f a.(j) b.(j)
        done;
        r
      end
  in
  go 0

(* [slot_join s s = s]: a spilled value is never [Uninit] *)
let slot_join a b =
  match (a, b) with
  | S_empty, _ | _, S_empty -> S_empty
  | S_misc, S_misc -> S_misc
  | S_spill x, S_spill y -> (
      match Value.join x y with
      | Value.Uninit -> S_empty
      | v -> if v == x then a else S_spill v)
  | S_misc, S_spill v | S_spill v, S_misc -> (
      (* scalar bytes meet a spilled value: survives only as untrusted data *)
      match v with
      | Value.Scalar _ | Value.Unknown -> S_misc
      | _ -> S_empty)

let join a b =
  if not (res_equal a.res b.res) then
    Error
      (Format.asprintf "resource sets differ at join: {%s} vs {%s}"
         (String.concat "," (List.map (fun r -> r.klass) a.res))
         (String.concat "," (List.map (fun r -> r.klass) b.res)))
  else
    let regs = map2_shared Value.join a.regs b.regs in
    let stack = map2_shared slot_join a.stack b.stack in
    let origin = map2_shared (fun x y -> if x = y then x else -1) a.origin b.origin in
    if regs == a.regs && stack == a.stack && origin == a.origin then Ok a
    else Ok { regs; stack; res = a.res; origin }

(* Widening drops the interval half (which can keep creeping) but keeps the
   known-bits half: the tnum lattice is finite and only loses bits under
   join, so retaining it cannot prevent termination — and it is exactly
   what preserves alignment facts (index*8 etc.) across loop iterations. *)
let widen_value ~prev v =
  match (prev, v) with
  | Value.Scalar p, Value.Scalar n when not (Range.equal p n) ->
      Value.Scalar (Range.top_with_bits (Range.bits n))
  | Value.Ptr p, Value.Ptr n when p.kind = n.kind && not (Range.equal p.off n.off)
    ->
      Value.Ptr { n with off = Range.top_with_bits (Range.bits n.off) }
  | _ -> v

let widen ~prev st =
  let regs = map2_shared (fun v prev -> widen_value ~prev v) st.regs prev.regs in
  let stack =
    map2_shared
      (fun s p ->
        match (p, s) with
        | S_spill p, S_spill n ->
            let w = widen_value ~prev:p n in
            if w == n then s else S_spill w
        | _ -> s)
      st.stack prev.stack
  in
  if regs == st.regs && stack == st.stack then st else { st with regs; stack }

let add_res st r =
  { st with res = List.sort (fun a b -> Int.compare a.id b.id) (r :: st.res) }

let remove_res st id = { st with res = List.filter (fun r -> r.id <> id) st.res }
let has_res st id = List.exists (fun r -> r.id = id) st.res

type loc = L_reg of Reg.t | L_slot of int

let holds id = function Value.Obj o -> o.id = id | _ -> false
let spills id = function S_spill v -> holds id v | _ -> false

(* The first register, else the first slot, holding object [id], or -1: a
   plain scan that allocates nothing. *)
let rec reg_holding st id i =
  if i = Array.length st.regs then -1
  else if holds id st.regs.(i) then i
  else reg_holding st id (i + 1)

let rec slot_holding st id i =
  if i = nslots then -1
  else if spills id st.stack.(i) then i
  else slot_holding st id (i + 1)

let find_obj st id =
  let r = reg_holding st id 0 in
  if r >= 0 then Some (L_reg (Reg.of_int r))
  else
    let s = slot_holding st id 0 in
    if s >= 0 then Some (L_slot s) else None

let leaked st =
  List.filter
    (fun r -> reg_holding st r.id 0 < 0 && slot_holding st r.id 0 < 0)
    st.res

(* Whether a register or slot differs between [before] and [now] and holds
   an object in either. A transfer builds its state from its pre-state
   sharing every value it does not write, so a physical comparison finds
   the written locations. *)
let moved_reg before now =
  let hit = ref false in
  for i = 0 to Array.length before - 1 do
    let b = before.(i) and n = now.(i) in
    if n != b then
      match (b, n) with Value.Obj _, _ | _, Value.Obj _ -> hit := true | _ -> ()
  done;
  !hit

let moved_slot before now =
  let hit = ref false in
  for i = 0 to Array.length before - 1 do
    let b = before.(i) and n = now.(i) in
    if n != b then
      match (b, n) with
      | S_spill (Value.Obj _), _ | _, S_spill (Value.Obj _) -> hit := true
      | _ -> ()
  done;
  !hit

let objects_moved ~prev st =
  st.res != prev.res
  ||
  match prev.res with
  | [] -> false
  | _ :: _ ->
      (st.regs != prev.regs && moved_reg prev.regs st.regs)
      || (st.stack != prev.stack && moved_slot prev.stack st.stack)

let substitute_obj st ~id v =
  let subst w = if holds id w then v else w in
  let regs = Array.map subst st.regs in
  let stack =
    Array.map
      (function
        | S_spill w when holds id w -> (
            match v with Value.Uninit -> S_empty | v -> S_spill v)
        | s -> s)
      st.stack
  in
  { st with regs; stack }

let set_nonnull_obj st ~id =
  let subst = function
    | Value.Obj o when o.id = id -> Value.Obj { o with nullable = false }
    | v -> v
  in
  let regs = Array.map subst st.regs in
  let stack =
    Array.map
      (function S_spill w -> S_spill (subst w) | s -> s)
      st.stack
  in
  { st with regs; stack }

let pp ppf st =
  Format.fprintf ppf "@[<v>";
  Array.iteri
    (fun i v ->
      if not (Value.equal v Value.Uninit) then
        Format.fprintf ppf "r%d=%a " i Value.pp v)
    st.regs;
  if st.res <> [] then
    Format.fprintf ppf "held:{%s}"
      (String.concat ","
         (List.map (fun r -> Printf.sprintf "%s#%d" r.klass r.id) st.res));
  Format.fprintf ppf "@]"
