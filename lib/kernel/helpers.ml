open Kflex_runtime

type t = {
  socks : Socket.t;
  map_reg : Map.registry;
  io : Map.io;  (* key/value words for the allocation-free map calls *)
}

let create () =
  { socks = Socket.create (); map_reg = Map.registry (); io = Map.io () }

let sockets t = t.socks
let maps t = t.map_reg

(* Every helper reads its arguments from r1–r5 and VM memory through the
   inlined {!Vm} accessors, and returns through r0 (cleared before the
   call, so a miss needs no store). The packet accessors are VM builtins
   ({!Vm.native_builtins}), not kernel helpers. *)

let sk_lookup t proto (c : Vm.call_ctx) =
  Vm.charge c 50;
  (* the connection tuple sits on the extension stack: u16 port at offset 0 *)
  let port = Int64.to_int (Vm.read16 c (Vm.arg c 1)) in
  match Socket.lookup t.socks ~proto ~port with
  | Some handle ->
      Ledger.acquire (Vm.ledger c) ~handle ~destructor:"bpf_sk_release";
      Vm.set_ret c handle
  | None -> ()

let sk_release t (c : Vm.call_ctx) =
  Vm.charge c 30;
  ignore (Socket.release t.socks (Vm.arg c 0) : bool);
  ignore (Ledger.release (Vm.ledger c) ~handle:(Vm.arg c 0) : bool)

(* Helper charges dispatch on the map kind (explicit hit/miss/update costs
   per kind — see {!Cost.map_cost}); an unknown fd charges the Hash miss,
   the probe that discovered the fd is stale. The key (and, for updates,
   the value) moves from VM memory into the kernel's [io] words, and a hit
   moves back out, without ever being boxed. *)
let stale_fd_cost = (Cost.map_cost Map.Hash).Cost.lookup_miss

let map_lookup t (c : Vm.call_ctx) =
  let m = Map.get t.map_reg (Vm.arg c 0) in
  if m == Map.absent then Vm.charge c stale_fd_cost
  else begin
    let mc = Cost.map_cost (Map.kind m) in
    Kflex_runtime.U64.set t.io 0 (Vm.read64 c (Vm.arg c 1));
    if Map.find_io m ~cpu:(Vm.cpu c) t.io then begin
      Vm.charge c mc.Cost.lookup_hit;
      Vm.write64 c (Vm.arg c 2) (Kflex_runtime.U64.get t.io 1);
      Vm.set_ret c 1L
    end
    else Vm.charge c mc.Cost.lookup_miss
  end

let map_update t (c : Vm.call_ctx) =
  let m = Map.get t.map_reg (Vm.arg c 0) in
  if m == Map.absent then Vm.charge c stale_fd_cost
  else begin
    Vm.charge c (Cost.map_cost (Map.kind m)).Cost.update;
    Kflex_runtime.U64.set t.io 0 (Vm.read64 c (Vm.arg c 1));
    Kflex_runtime.U64.set t.io 1 (Vm.read64 c (Vm.arg c 2));
    if Map.store_io m ~cpu:(Vm.cpu c) t.io then Vm.set_ret c 1L
  end

let map_delete t (c : Vm.call_ctx) =
  let m = Map.get t.map_reg (Vm.arg c 0) in
  if m == Map.absent then Vm.charge c stale_fd_cost
  else begin
    Vm.charge c (Cost.map_cost (Map.kind m)).Cost.delete;
    Kflex_runtime.U64.set t.io 0 (Vm.read64 c (Vm.arg c 1));
    if Map.remove_io m ~cpu:(Vm.cpu c) t.io then Vm.set_ret c 1L
  end

(* ---- spin-locked map values -------------------------------------------

   The lock handle packs (fd, slot id) into one u64 — everything the
   unwinder has when it releases through the static object table is the
   handle in the destructor's argument slot, so the handle must identify
   the map on its own. fds start at 3, ids at 1: a real handle is never
   0, which keeps the NULL-able return contract honest. *)

let[@inline always] lock_handle ~fd ~id =
  Int64.logor (Int64.shift_left fd 32) (Int64.of_int (id land 0xffffffff))

let[@inline always] lock_handle_fd h = Int64.shift_right_logical h 32
let[@inline always] lock_handle_id h = Int64.to_int (Int64.logand h 0xffffffffL)

let map_lock t (c : Vm.call_ctx) =
  Vm.charge c Cost.map_lock_cost;
  let m = Map.get t.map_reg (Vm.arg c 0) in
  if m != Map.absent then begin
    Kflex_runtime.U64.set t.io 0 (Vm.read64 c (Vm.arg c 1));
    let id = Map.lock_io m ~cpu:(Vm.cpu c) t.io in
    if id > 0 then begin
      let handle = lock_handle ~fd:(Vm.arg c 0) ~id in
      Ledger.acquire (Vm.ledger c) ~handle ~destructor:"bpf_map_unlock";
      Vm.set_ret c handle
    end
    else if id < 0 then
      (* Contention the bounded spin could not resolve (including a
         self-deadlock) stalls the helper; the watchdog cancels and the
         unwinder releases whatever the program already holds. *)
      raise Vm.Helper_stall
  end

let map_unlock t (c : Vm.call_ctx) =
  Vm.charge c Cost.map_unlock_cost;
  let m = Map.get t.map_reg (lock_handle_fd (Vm.arg c 0)) in
  if m != Map.absent then
    ignore
      (Map.unlock_id ~cpu:(Vm.cpu c) m (lock_handle_id (Vm.arg c 0)) : bool);
  ignore (Ledger.release (Vm.ledger c) ~handle:(Vm.arg c 0) : bool)

let map_sum t (c : Vm.call_ctx) =
  let m = Map.get t.map_reg (Vm.arg c 0) in
  if m == Map.absent then Vm.charge c stale_fd_cost
  else begin
    Vm.charge c
      (match Map.kind m with
      | Map.Percpu -> Cost.map_merge_cost ~cpus:(Map.cpus m)
      | k -> (Cost.map_cost k).Cost.lookup_hit);
    Kflex_runtime.U64.set t.io 0 (Vm.read64 c (Vm.arg c 1));
    if Map.sum_io m t.io then begin
      Vm.write64 c (Vm.arg c 2) (Kflex_runtime.U64.get t.io 1);
      Vm.set_ret c 1L
    end
  end

let implementations t =
  [
    ("bpf_sk_lookup_udp", sk_lookup t Packet.Udp);
    ("bpf_sk_lookup_tcp", sk_lookup t Packet.Tcp);
    ("bpf_sk_release", sk_release t);
    ("bpf_map_lookup", map_lookup t);
    ("bpf_map_update", map_update t);
    ("bpf_map_delete", map_delete t);
    ("bpf_map_lock", map_lock t);
    ("bpf_map_unlock", map_unlock t);
    ("bpf_map_sum", map_sum t);
  ]
