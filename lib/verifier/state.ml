open Kflex_bpf

type slot = S_empty | S_misc | S_spill of Value.t

type resource = { id : int; klass : string; destructor : string }

(* A state's arrays are shared copy-on-write: [owned] has a bit for each
   array this state may write in place — the registers, the origins, the
   chunk table and each 8-slot chunk of the stack — and every other array
   is copied before its first write. [copy] clears the bits on both sides,
   so a snapshot costs one record and a block's writes copy only what they
   touch. [moved] records, since {!take_moved} last read it, a write that
   put an object into or took one out of a location, or a change to the
   held resources. *)
type t = {
  mutable regs : Value.t array;
  mutable origin : int array;
  mutable chunks : slot array array;
  mutable res : resource list;
  mutable owned : int;
  mutable moved : bool;
}

let nslots = Prog.stack_size / 8
let nchunks = nslots / 8
let own_regs = 1
let own_origin = 2
let own_chunks = 4
let[@inline] own_chunk c = 8 lsl c

(* the chunk of every slot no write has reached: never written in place,
   as no state owns it *)
let empty_chunk = Array.make 8 S_empty

let init ~ctx_nullable =
  let regs = Array.make 11 Value.Uninit in
  regs.(1) <-
    Value.Ptr { kind = Value.Ctx; off = Range.const 0L; nullable = ctx_nullable };
  regs.(10) <- Value.Ptr { kind = Value.Stack; off = Range.const 0L; nullable = false };
  {
    regs;
    origin = Array.make 11 (-1);
    chunks = Array.make nchunks empty_chunk;
    res = [];
    owned = 0;
    moved = false;
  }

let copy st =
  if st.owned <> 0 then st.owned <- 0;
  { st with owned = 0; moved = false }

let take_moved st =
  let m = st.moved in
  if m then st.moved <- false;
  m

let get st r = st.regs.(Reg.to_int r)
let origin st r = st.origin.(Reg.to_int r)
let slot st i = st.chunks.(i lsr 3).(i land 7)
let res st = st.res

let is_obj = function Value.Obj _ -> true | _ -> false
let spills_obj = function S_spill (Value.Obj _) -> true | _ -> false

let regs_w st =
  if st.owned land own_regs = 0 then begin
    st.regs <- Array.copy st.regs;
    st.owned <- st.owned lor own_regs
  end;
  st.regs

let origin_w st =
  if st.owned land own_origin = 0 then begin
    st.origin <- Array.copy st.origin;
    st.owned <- st.owned lor own_origin
  end;
  st.origin

let chunk_w st c =
  if st.owned land own_chunks = 0 then begin
    st.chunks <- Array.copy st.chunks;
    st.owned <- st.owned lor own_chunks
  end;
  if st.owned land own_chunk c = 0 then begin
    st.chunks.(c) <- Array.copy st.chunks.(c);
    st.owned <- st.owned lor own_chunk c
  end;
  st.chunks.(c)

let write_reg st i v =
  let old = st.regs.(i) in
  if old != v then begin
    if is_obj old || is_obj v then st.moved <- true;
    (regs_w st).(i) <- v
  end

let set_origin st i o = if st.origin.(i) <> o then (origin_w st).(i) <- o

(* a stack write that leaves the origins alone *)
let put_slot st i s =
  let old = slot st i in
  if old != s then begin
    if spills_obj old || spills_obj s then st.moved <- true;
    (chunk_w st (i lsr 3)).(i land 7) <- s
  end

let set st r v =
  let i = Reg.to_int r in
  write_reg st i v;
  set_origin st i (-1)

let set_from_slot st r v slot =
  let i = Reg.to_int r in
  write_reg st i v;
  set_origin st i slot

let refine_mirrored st r v =
  let i = Reg.to_int r in
  write_reg st i v;
  let s = st.origin.(i) in
  if s >= 0 then match slot st s with S_spill _ -> put_slot st s (S_spill v) | _ -> ()

let clobber st rs = List.iter (fun r -> set st r Value.Uninit) rs

let write_slot st i s =
  put_slot st i s;
  for r = 0 to Array.length st.origin - 1 do
    if st.origin.(r) = i then (origin_w st).(r) <- -1
  done

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

let chunk_equal a b = a == b || Array.for_all2 slot_equal a b

let equal a b =
  a == b
  || (a.regs == b.regs || Array.for_all2 Value.equal a.regs b.regs)
     && (a.chunks == b.chunks || Array.for_all2 chunk_equal a.chunks b.chunks)
     && res_equal a.res b.res
     && (a.origin == b.origin || Array.for_all2 Int.equal a.origin b.origin)

(* [Array.map2 f a b], but [a] itself when [f] returns every element of [a]
   unchanged: a join or widening that changes nothing allocates nothing, and
   the equality test that follows it short-cuts. [f x x] must be [x], so
   elements [a] and [b] share are skipped. *)
let rec map2_shared_from f a b i =
  if i = Array.length a then a
  else if b.(i) == a.(i) then map2_shared_from f a b (i + 1)
  else
    let v = f a.(i) b.(i) in
    if v == a.(i) then map2_shared_from f a b (i + 1)
    else begin
      let r = Array.copy a in
      r.(i) <- v;
      for j = i + 1 to Array.length a - 1 do
        r.(j) <- f a.(j) b.(j)
      done;
      r
    end

let map2_shared f a b = map2_shared_from f a b 0

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

let chunk_join = map2_shared slot_join

let join a b =
  if not (res_equal a.res b.res) then
    Error
      (Format.asprintf "resource sets differ at join: {%s} vs {%s}"
         (String.concat "," (List.map (fun r -> r.klass) a.res))
         (String.concat "," (List.map (fun r -> r.klass) b.res)))
  else
    let regs = map2_shared Value.join a.regs b.regs in
    let chunks = map2_shared chunk_join a.chunks b.chunks in
    let origin = map2_shared (fun x y -> if x = y then x else -1) a.origin b.origin in
    if regs == a.regs && chunks == a.chunks && origin == a.origin then Ok a
    else Ok { regs; origin; chunks; res = a.res; owned = 0; moved = false }

(* Widening drops the interval half (which can keep creeping) but keeps the
   known-bits half: the tnum lattice is finite and only loses bits under
   join, so retaining it cannot prevent termination — and it is exactly
   what preserves alignment facts (index*8 etc.) across loop iterations. *)
let widen_value ~prev v =
  match (prev, v) with
  | Value.Scalar p, Value.Scalar n when not (Range.equal p n) ->
      Value.Scalar (Range.widen n)
  | Value.Ptr p, Value.Ptr n when p.kind = n.kind && not (Range.equal p.off n.off)
    ->
      Value.Ptr { n with off = Range.widen n.off }
  | _ -> v

let widen_slot s p =
  match (p, s) with
  | S_spill p, S_spill n ->
      let w = widen_value ~prev:p n in
      if w == n then s else S_spill w
  | _ -> s

let chunk_widen = map2_shared widen_slot

let widen ~prev st =
  let regs = map2_shared (fun v prev -> widen_value ~prev v) st.regs prev.regs in
  let chunks = map2_shared chunk_widen st.chunks prev.chunks in
  if regs == st.regs && chunks == st.chunks then st
  else { st with regs; chunks; owned = 0; moved = false }

let add_res st r =
  st.res <- List.sort (fun a b -> Int.compare a.id b.id) (r :: st.res);
  st.moved <- true

let remove_res st id =
  st.res <- List.filter (fun r -> r.id <> id) st.res;
  st.moved <- true

let has_res st id = List.exists (fun r -> r.id = id) st.res

type loc = L_reg of Reg.t | L_slot of int

let holds id = function Value.Obj o -> o.id = id | _ -> false
let spills id = function S_spill v -> holds id v | _ -> false

(* The first register, else the first slot, holding object [id], or -1: a
   plain scan that allocates and calls nothing. *)
let rec reg_holding st id i =
  if i = Array.length st.regs then -1
  else
    match st.regs.(i) with
    | Value.Obj o when o.id = id -> i
    | _ -> reg_holding st id (i + 1)

let rec slot_holding st id i =
  if i = nslots then -1
  else
    let chunk = st.chunks.(i lsr 3) in
    if chunk == empty_chunk then slot_holding st id ((i lor 7) + 1)
    else
      match chunk.(i land 7) with
      | S_spill (Value.Obj o) when o.id = id -> i
      | _ -> slot_holding st id (i + 1)

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

let substitute_obj st ~id v =
  for i = 0 to Array.length st.regs - 1 do
    if holds id st.regs.(i) then write_reg st i v
  done;
  for i = 0 to nslots - 1 do
    if spills id (slot st i) then
      put_slot st i (match v with Value.Uninit -> S_empty | v -> S_spill v)
  done

let set_nonnull_obj st ~id =
  let subst = function
    | Value.Obj o when o.id = id -> Value.Obj { o with nullable = false }
    | v -> v
  in
  for i = 0 to Array.length st.regs - 1 do
    if holds id st.regs.(i) then write_reg st i (subst st.regs.(i))
  done;
  for i = 0 to nslots - 1 do
    match slot st i with
    | S_spill w when holds id w -> put_slot st i (S_spill (subst w))
    | _ -> ()
  done

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
