(* The map-kind hierarchy (§2.2 and the shared-state extension).

   Array and Hash are private per-instance stores, exactly the seed's
   semantics.  The three shared-capable kinds mirror the production eBPF
   spectrum:

   - Percpu: one bank per CPU.  The owning CPU's operations touch only its
     bank (a per-bank mutex makes the threaded engine safe without ever
     contending on the hot path — each shard only locks its own bank);
     [merged] walks every bank and sums.
   - Spinlock: each value carries a lock word (an [Atomic] owner).  The CAS
     on acquisition and the release store on unlock provide the
     happens-before edges that make the plain [v] cell race-free under the
     OCaml 5 memory model: a reader that won the CAS observes every write
     the previous holder published before its release store.
   - Rcu_shared: a purely functional map published through one [Atomic]
     root.  Readers are wait-free ([Atomic.get], no loops, no locks);
     writers serialize on a mutex, publish version v+1, and retire the old
     snapshot stamped with the current per-CPU epoch vector.  A retired
     snapshot is reclaimed once every CPU's epoch has advanced past the
     stamp — the same quiescence idea the engine already uses for chain
     snapshots, pushed down into a data structure. *)

module U64 = Kflex_runtime.U64
module U64tbl = Kflex_runtime.U64tbl

(* Every per-operation entry point below is allocation-free on a hit and on
   a miss: Array, Hash and Percpu values live in unboxed banks
   ({!U64tbl}), a Spinlock value in a one-word cell, and an Rcu_shared
   snapshot is a persistent hash trie whose lookup never boxes. Keys and
   values cross the module boundary through a caller-owned two-word [io]
   bank (slot 0 the key, slot 1 the value) — an [int64] argument or result
   of a call that does not inline is boxed. Locks are taken and released
   directly, never through [Fun.protect] (none of the critical sections
   can raise). The option-returning [lookup]/[update]/… are thin wrappers
   for tests and tools. *)

(* The Rcu_shared snapshot: a persistent hash trie over [mix k], a
   bijection on 64-bit words (multiplication by an odd constant), so two
   distinct keys have distinct mixed words. Level [d] branches 16 ways on
   bits [60 - 4d, 63 - 4d] of the mixed word, taken from the top, where
   the product depends on every bit of the key. A slot holds nothing, one
   binding (compared on the full key) or a node; a node exists only while
   it covers at least two keys, so 16 levels cover all 64 bits and two
   keys part by the last level at the latest. A lookup reads one array
   slot per level, about three levels for 4,096 keys. Updates copy the
   path from the root and write only arrays they have just allocated:
   nothing reachable from a published root is ever written again. *)
module Trie = struct
  type t = Empty | Leaf of { k : int64; v : int64 } | Node of t array

  let[@inline always] mix (k : int64) = Int64.mul k 0x9E3779B97F4A7C15L

  let[@inline always] index (h : int64) d =
    Int64.to_int (Int64.shift_right_logical h (60 - (4 * d))) land 15

  (* key in [io] slot 0; on a hit the value lands in slot 1 *)
  let find_io io root =
    let k = U64.get io 0 in
    let h = mix k in
    let t = ref root and d = ref 0 and found = ref false in
    while
      match !t with
      | Node a ->
          t := Array.unsafe_get a (index h !d);
          incr d;
          true
      | Leaf l ->
          if (l.k : int64) = k then begin
            U64.set io 1 l.v;
            found := true
          end;
          false
      | Empty -> false
    do
      ()
    done;
    !found

  (* the nodes a lookup of the key descends through *)
  let rec depth h d = function
    | Node a -> depth h (d + 1) a.(index h d)
    | Empty | Leaf _ -> d

  let rec mem h k d = function
    | Empty -> false
    | Leaf l -> (l.k : int64) = k
    | Node a -> mem h k (d + 1) a.(index h d)

  let with_child a i c =
    let a = Array.copy a in
    a.(i) <- c;
    Node a

  let rec add h k v d t =
    match t with
    | Empty -> Leaf { k; v }
    | Leaf l when (l.k : int64) = k -> Leaf { k; v }
    | Leaf l ->
        let a = Array.make 16 Empty in
        a.(index (mix l.k) d) <- t;
        add h k v d (Node a)
    | Node a ->
        let i = index h d in
        with_child a i (add h k v (d + 1) a.(i))

  (* A node left covering one binding collapses into it, so the shape
     depends only on the keys present. *)
  let rec remove h k d t =
    match t with
    | Empty -> Empty
    | Leaf l -> if (l.k : int64) = k then Empty else t
    | Node a -> (
        let i = index h d in
        let c = remove h k (d + 1) a.(i) in
        if c == a.(i) then t
        else
          let others = ref 0 and last = ref Empty in
          Array.iteri
            (fun j x ->
              if j <> i && x != Empty then begin
                incr others;
                last := x
              end)
            a;
          match (c, !others, !last) with
          | Empty, 1, (Leaf _ as l) -> l
          | Leaf _, 0, _ -> c
          | _ -> with_child a i c)

  let rec fold f t acc =
    match t with
    | Empty -> acc
    | Leaf l -> f l.k l.v acc
    | Node a -> Array.fold_left (fun acc c -> fold f c acc) acc a
end

type kind = Array | Hash | Percpu | Spinlock | Rcu_shared

let kind_name = function
  | Array -> "array"
  | Hash -> "hash"
  | Percpu -> "percpu"
  | Spinlock -> "spinlock"
  | Rcu_shared -> "rcu_shared"

type spin_slot = {
  key : int64;
  id : int;  (** registry-stable lock id; encodes into the helper handle *)
  v : U64.cell;  (** guarded by [owner] (see module comment) *)
  owner : int Atomic.t;  (** 0 = free, cpu+1 = held by that cpu *)
  mutable dead : bool;  (** deleted while (possibly) still held *)
}

(* the "no slot" answer of [spin_find] *)
let no_slot =
  { key = 0L; id = 0; v = U64.cell 0L; owner = Atomic.make (-1); dead = true }

type snapshot = { snap : Trie.t; ver : int; card : int }

type rcu = {
  root : snapshot Atomic.t;
  wm : Mutex.t;  (** writer serialization *)
  mutable retired : (int * Trie.t * int array) list;
      (** (version, snapshot kept live, epoch vector at retirement) *)
  epochs : int Atomic.t array;
  mutable retired_total : int;
  mutable reclaimed_total : int;
}

type store =
  | S_hash of U64tbl.t
  | S_array of U64.bank
  | S_percpu of { banks : U64tbl.t array; ms : Mutex.t array }
  | S_spin of {
      m : Mutex.t;  (** guards every field here and each slot's [dead] *)
      index : U64tbl.t;  (** key -> lock id *)
      mutable slots : spin_slot array;
          (** indexed by lock id; [no_slot] where no slot lives *)
      mutable next_id : int;
    }
  | S_rcu of rcu

type t = { k : kind; ncpus : int; max_entries : int; store : store }

let create ?(kind = Hash) ?(cpus = 1) ~max_entries () =
  let cpus = max 1 cpus in
  let store =
    match kind with
    | Hash -> S_hash (U64tbl.create max_entries)
    | Array -> S_array (U64.create max_entries)
    | Percpu ->
        S_percpu
          {
            banks = Stdlib.Array.init cpus (fun _ -> U64tbl.create max_entries);
            ms = Stdlib.Array.init cpus (fun _ -> Mutex.create ());
          }
    | Spinlock ->
        S_spin
          {
            m = Mutex.create ();
            index = U64tbl.create max_entries;
            slots = Stdlib.Array.make 8 no_slot;
            next_id = 1;
          }
    | Rcu_shared ->
        S_rcu
          {
            root = Atomic.make { snap = Trie.Empty; ver = 0; card = 0 };
            wm = Mutex.create ();
            retired = [];
            epochs = Stdlib.Array.init cpus (fun _ -> Atomic.make 0);
            retired_total = 0;
            reclaimed_total = 0;
          }
  in
  { k = kind; ncpus = cpus; max_entries; store }

let kind t = t.k
let cpus t = t.ncpus
let max_entries t = t.max_entries

type io = U64.bank

let io () : io = U64.create 2

(* Hash-table semantics shared by Hash and Percpu banks: replace if
   present, insert unless full. *)
let[@inline always] tbl_find tbl io =
  let i = U64tbl.find tbl (U64.get io 0) in
  if i >= 0 then U64.set io 1 (U64tbl.value tbl i);
  i >= 0

let[@inline always] tbl_store tbl max io =
  let i = U64tbl.find tbl (U64.get io 0) in
  if i >= 0 then begin
    U64tbl.set_value tbl i (U64.get io 1);
    true
  end
  else if U64tbl.length tbl >= max then false
  else begin
    U64tbl.add tbl (U64.get io 0) (U64.get io 1);
    true
  end

let[@inline always] tbl_remove tbl io =
  let i = U64tbl.find tbl (U64.get io 0) in
  if i >= 0 then U64tbl.remove_slot tbl i;
  i >= 0

let[@inline always] bank_of t cpu = if cpu >= 0 && cpu < t.ncpus then cpu else 0

let[@inline always] array_index t io =
  let k = U64.get io 0 in
  if k >= 0L && k < Int64.of_int t.max_entries then Int64.to_int k else -1

(* The key's spin slot, or [no_slot]; caller holds [m]. Every id in
   [index] indexes [slots]. *)
let[@inline always] spin_find index slots (k : int64) =
  let i = U64tbl.find index k in
  if i < 0 then no_slot else slots.(Int64.to_int (U64tbl.value index i))

(* The slot with lock id [id], or [no_slot]: ids come from handles, so
   anything may arrive. Caller holds [m]. *)
let[@inline always] spin_slot slots id =
  if id > 0 && id < Stdlib.Array.length slots then Stdlib.Array.unsafe_get slots id
  else no_slot

(* Runtime lock discipline: reads and writes of a spin-locked value are
   only visible to the holder; an unlocked probe is a miss. *)
let[@inline always] held_by (s : spin_slot) cpu =
  s != no_slot && Atomic.get s.owner = cpu + 1

let find_io t ~cpu io =
  match t.store with
  | S_hash tbl -> tbl_find tbl io
  | S_array a ->
      let i = array_index t io in
      if i >= 0 then U64.set io 1 (U64.get a i);
      i >= 0
  | S_percpu { banks; ms } ->
      let b = bank_of t cpu in
      Mutex.lock ms.(b);
      let hit = tbl_find banks.(b) io in
      Mutex.unlock ms.(b);
      hit
  | S_spin sp ->
      Mutex.lock sp.m;
      let s = spin_find sp.index sp.slots (U64.get io 0) in
      let hit = held_by s cpu in
      if hit then U64.set io 1 (U64.cell_get s.v);
      Mutex.unlock sp.m;
      hit
  | S_rcu r -> Trie.find_io io (Atomic.get r.root).snap

(* Publish [snap'] as the next version and retire the current one, stamped
   with the epoch vector. Caller holds [wm]. *)
let rcu_publish r (cur : snapshot) snap' card =
  Atomic.set r.root { snap = snap'; ver = cur.ver + 1; card };
  let vec = Stdlib.Array.map (fun e -> Atomic.get e) r.epochs in
  r.retired <- (cur.ver, cur.snap, vec) :: r.retired;
  r.retired_total <- r.retired_total + 1

let store_io t ~cpu io =
  match t.store with
  | S_hash tbl -> tbl_store tbl t.max_entries io
  | S_array a ->
      let i = array_index t io in
      if i >= 0 then U64.set a i (U64.get io 1);
      i >= 0
  | S_percpu { banks; ms } ->
      let b = bank_of t cpu in
      Mutex.lock ms.(b);
      let ok = tbl_store banks.(b) t.max_entries io in
      Mutex.unlock ms.(b);
      ok
  | S_spin sp ->
      Mutex.lock sp.m;
      let s = spin_find sp.index sp.slots (U64.get io 0) in
      let ok = held_by s cpu in
      if ok then U64.cell_set s.v (U64.get io 1);
      Mutex.unlock sp.m;
      ok
  | S_rcu r ->
      (* copy-on-write: a publish allocates its new path by design *)
      Mutex.lock r.wm;
      let cur = Atomic.get r.root in
      let k = U64.get io 0 in
      let h = Trie.mix k in
      let present = Trie.mem h k 0 cur.snap in
      let ok = present || cur.card < t.max_entries in
      if ok then
        rcu_publish r cur
          (Trie.add h k (U64.get io 1) 0 cur.snap)
          (if present then cur.card else cur.card + 1);
      Mutex.unlock r.wm;
      ok

let remove_io t ~cpu io =
  match t.store with
  | S_hash tbl -> tbl_remove tbl io
  | S_array _ -> false (* eBPF array maps have no delete *)
  | S_percpu { banks; ms } ->
      let b = bank_of t cpu in
      Mutex.lock ms.(b);
      let ok = tbl_remove banks.(b) io in
      Mutex.unlock ms.(b);
      ok
  | S_spin sp ->
      Mutex.lock sp.m;
      let s = spin_find sp.index sp.slots (U64.get io 0) in
      let ok = held_by s cpu in
      if ok then begin
        s.dead <- true;
        U64tbl.remove_slot sp.index (U64tbl.find sp.index s.key)
      end;
      Mutex.unlock sp.m;
      ok
  | S_rcu r ->
      Mutex.lock r.wm;
      let cur = Atomic.get r.root in
      let k = U64.get io 0 in
      let h = Trie.mix k in
      let ok = Trie.mem h k 0 cur.snap in
      if ok then rcu_publish r cur (Trie.remove h k 0 cur.snap) (cur.card - 1);
      Mutex.unlock r.wm;
      ok

(* Merged read: for Percpu, the sum of every bank's value (the kernel's
   per-CPU map read-from-user behaviour); for every other kind, a plain
   lookup — the helper is total over kinds so programs can be generic. *)
let sum_io t io =
  match t.store with
  | S_percpu { banks; ms } ->
      let hit = ref false and acc = ref 0L in
      for b = 0 to t.ncpus - 1 do
        Mutex.lock ms.(b);
        if tbl_find banks.(b) io then begin
          hit := true;
          acc := Int64.add !acc (U64.get io 1)
        end;
        Mutex.unlock ms.(b)
      done;
      if !hit then U64.set io 1 !acc;
      !hit
  | _ -> find_io t ~cpu:0 io

let with_io k f =
  let io = io () in
  U64.set io 0 k;
  f io

let lookup ?(cpu = 0) t k =
  with_io k (fun io -> if find_io t ~cpu io then Some (U64.get io 1) else None)

let update ?(cpu = 0) t k v =
  with_io k (fun io ->
      U64.set io 1 v;
      store_io t ~cpu io)

let delete ?(cpu = 0) t k = with_io k (remove_io t ~cpu)

let merged t k =
  with_io k (fun io -> if sum_io t io then Some (U64.get io 1) else None)

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let entries t =
  match t.store with
  | S_hash tbl -> U64tbl.length tbl
  | S_array _ -> t.max_entries
  | S_percpu { banks; ms } ->
      let n = ref 0 in
      for i = 0 to t.ncpus - 1 do
        locked ms.(i) (fun () -> n := !n + U64tbl.length banks.(i))
      done;
      !n
  | S_spin { m; index; _ } -> locked m (fun () -> U64tbl.length index)
  | S_rcu r -> (Atomic.get r.root).card

(* A stable dump for tests and the linearizability oracle: merged across
   banks for Percpu, sorted by key.  Array entries elide default-zero
   slots so dumps stay comparable with hash-backed kinds. *)
let to_list t =
  let sorted l = List.sort (fun (a, _) (b, _) -> Int64.compare a b) l in
  let pairs tbl = U64tbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
  match t.store with
  | S_hash tbl -> sorted (pairs tbl)
  | S_array a ->
      let acc = ref [] in
      for i = t.max_entries - 1 downto 0 do
        if U64.get a i <> 0L then acc := (Int64.of_int i, U64.get a i) :: !acc
      done;
      !acc
  | S_percpu { banks; ms } ->
      let acc = Hashtbl.create 16 in
      for i = 0 to t.ncpus - 1 do
        locked ms.(i) (fun () ->
            List.iter
              (fun (k, v) ->
                let prev =
                  Option.value ~default:0L (Hashtbl.find_opt acc k)
                in
                Hashtbl.replace acc k (Int64.add prev v))
              (pairs banks.(i)))
      done;
      sorted (Hashtbl.fold (fun k v l -> (k, v) :: l) acc [])
  | S_spin sp ->
      locked sp.m (fun () ->
          sorted
            (U64tbl.fold
               (fun k id acc ->
                 (k, U64.cell_get sp.slots.(Int64.to_int id).v) :: acc)
               sp.index []))
  | S_rcu r ->
      sorted (Trie.fold (fun k v acc -> (k, v) :: acc) (Atomic.get r.root).snap [])

(* ---- spin-locked values ------------------------------------------------ *)

type lock_result = Acquired of int | Unavailable | Contended

let spin_attempts = 64

(* The lock id (> 0) of the key in [io] slot 0 once acquired, 0 when the
   map is full or not a Spinlock map, -1 when the bounded spin gave up. *)
let lock_io t ~cpu io =
  match t.store with
  | S_spin sp ->
      Mutex.lock sp.m;
      let k = U64.get io 0 in
      let s = spin_find sp.index sp.slots k in
      let s =
        if s != no_slot then s
        else if U64tbl.length sp.index >= t.max_entries then no_slot
        else begin
          (* ids are never reused, so a stale handle finds no slot *)
          let id = sp.next_id in
          let s =
            { key = k; id; v = U64.cell 0L; owner = Atomic.make 0; dead = false }
          in
          let n = Stdlib.Array.length sp.slots in
          if id = n then
            sp.slots <- Stdlib.Array.append sp.slots (Stdlib.Array.make n no_slot);
          sp.slots.(id) <- s;
          sp.next_id <- id + 1;
          U64tbl.add sp.index k (Int64.of_int id);
          s
        end
      in
      Mutex.unlock sp.m;
      if s == no_slot then 0
      else begin
        (* Bounded spin: a holder that never releases (including this
           very cpu — a self-deadlock) surfaces as contention, which the
           helper maps to a stall and the watchdog to a cancellation. *)
        let n = ref spin_attempts in
        while !n > 0 && not (Atomic.compare_and_set s.owner 0 (cpu + 1)) do
          Domain.cpu_relax ();
          decr n
        done;
        if !n > 0 then s.id else -1
      end
  | _ -> 0

let try_lock ?(cpu = 0) t k =
  match with_io k (lock_io t ~cpu) with
  | 0 -> Unavailable
  | -1 -> Contended
  | id -> Acquired id

let unlock_id ?(cpu = 0) t id =
  match t.store with
  | S_spin sp ->
      Mutex.lock sp.m;
      let s = spin_slot sp.slots id in
      let ok = held_by s cpu in
      if ok then begin
        if s.dead then sp.slots.(id) <- no_slot;
        Atomic.set s.owner 0
      end;
      Mutex.unlock sp.m;
      ok
  | _ -> false

let lock_held t k =
  match t.store with
  | S_spin sp ->
      locked sp.m (fun () ->
          let s = spin_find sp.index sp.slots k in
          s != no_slot && Atomic.get s.owner <> 0)
  | _ -> false

(* ---- RCU epochs -------------------------------------------------------- *)

type rcu_stats = { version : int; retired : int; reclaimed : int }

let rcu_reclaim_locked r =
  let keep, gone =
    List.partition
      (fun (_, _, vec) ->
        not
          (Stdlib.Array.for_all2
             (fun (e : int Atomic.t) stamp -> Atomic.get e > stamp)
             r.epochs vec))
      r.retired
  in
  r.retired <- keep;
  r.reclaimed_total <- r.reclaimed_total + List.length gone

(* The writer lock is only taken when something is retired. [retired] is
   read racily here: a writer's retirement missed by this check is seen by
   the next quiescent state of this (or any) cpu. *)
let rcu_quiesce t ~cpu =
  match t.store with
  | S_rcu r ->
      if cpu >= 0 && cpu < t.ncpus then Atomic.incr r.epochs.(cpu);
      (match r.retired with
      | [] -> ()
      | _ -> locked r.wm (fun () -> rcu_reclaim_locked r))
  | _ -> ()

let rcu_synchronize t =
  match t.store with
  | S_rcu r ->
      locked r.wm (fun () ->
          (* Attach/detach-style grace period: everything retired before
             this point is reclaimable once we advance every epoch. *)
          Stdlib.Array.iter (fun e -> Atomic.incr e) r.epochs;
          let n = List.length r.retired in
          r.retired <- [];
          r.reclaimed_total <- r.reclaimed_total + n)
  | _ -> ()

let rcu_depth t k =
  match t.store with
  | S_rcu r -> Trie.depth (Trie.mix k) 0 (Atomic.get r.root).snap
  | _ -> 0

let rcu_stats t =
  match t.store with
  | S_rcu r ->
      Some
        {
          version = (Atomic.get r.root).ver;
          retired = locked r.wm (fun () -> List.length r.retired);
          reclaimed = r.reclaimed_total;
        }
  | _ -> None

(* ---- registry ---------------------------------------------------------- *)

(* fds index an array directly (fd 3 is slot 0); unbound slots hold
   [absent], so the helper-side lookup is one bounds test and one load. *)
let absent = create ~max_entries:0 ()

type registry = { mutable next : int64; mutable maps : t array }

let registry () = { next = 3L; maps = [||] }

let register r m =
  let fd = r.next in
  (* fds are never reused: [next] is monotonic even across unregister, so
     a stale fd held by a program can only ever miss. *)
  r.next <- Int64.add r.next 1L;
  let i = Int64.to_int fd - 3 in
  if i >= Stdlib.Array.length r.maps then
    r.maps <-
      Stdlib.Array.append r.maps
        (Stdlib.Array.make (max 4 (Stdlib.Array.length r.maps)) absent);
  r.maps.(i) <- m;
  fd

let[@inline always] get r (fd : int64) =
  let i = Int64.sub fd 3L in
  if i >= 0L && i < Int64.of_int (Stdlib.Array.length r.maps) then
    Stdlib.Array.unsafe_get r.maps (Int64.to_int i)
  else absent

let find r fd =
  let m = get r fd in
  if m == absent then None else Some m

let unregister r fd =
  let m = get r fd in
  if m == absent then false
  else begin
    r.maps.(Int64.to_int fd - 3) <- absent;
    true
  end
