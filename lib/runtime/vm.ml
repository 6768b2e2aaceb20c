open Kflex_bpf

(* The execution-state machinery (stats, call_ctx, memory windows, the
   reusable register/stack context) lives in [Machine], shared between the
   compiled closures in [Jit] and the reference interpreter below. The
   aliases below keep [Vm] as the single public surface. *)

type fault_reason = Machine.fault_reason =
  | Page_fault
  | Guard_zone
  | Wild_access
  | Quantum_expired
  | Lock_stall
  | Ext_cancelled

type stats = Machine.stats = {
  mutable insns : int;
  mutable guards : int;
  mutable checkpoints : int;
  mutable helper_calls : int;
  mutable helper_cost : int;
}

let fresh_stats = Machine.fresh_stats
let total_cost = Machine.total_cost

type outcome = Machine.outcome =
  | Finished of int64
  | Cancelled of {
      orig_pc : int;
      reason : fault_reason;
      released : (string * string) list;
      ret : int64;
      ledger_leaked : int;
    }

type call_ctx = Machine.call_ctx
type helper = Machine.helper

exception Helper_stall = Machine.Helper_stall

let arg = Machine.arg
let set_ret = Machine.set_ret
let charge = Machine.charge
let cpu (c : call_ctx) = c.Machine.cpu
let ledger (c : call_ctx) = c.Machine.ledger
let[@inline always] read16 c addr = Machine.load c 2 addr
let[@inline always] read64 c addr = Machine.load c 8 addr
let[@inline always] write64 c addr v = Machine.store c 8 addr v

exception Vm_fault = Machine.Vm_fault

let stack_base = Machine.stack_base
let ctx_base = Machine.ctx_base

(* --- builtin helpers -------------------------------------------------- *)

let get_heap (c : call_ctx) =
  match c.Machine.heap with Some h -> h | None -> raise (Vm_fault Wild_access)

let get_alloc (c : call_ctx) =
  match c.Machine.alloc with Some a -> a | None -> raise (Vm_fault Wild_access)

(* Sizes and offsets cross into the allocator as native ints: a size whose
   [Int64.to_int] is negative or past the largest class fails exactly as
   the int64 path did, and a sanitized address is always in the heap. *)
let h_malloc c =
  let a = get_alloc c in
  charge c 20;
  let off = Alloc.alloc_off a ~cpu:c.Machine.cpu (Int64.to_int (arg c 0)) in
  if off >= 0 then
    set_ret c (Int64.add (Heap.kbase (get_heap c)) (Int64.of_int off))

let h_free c =
  if arg c 0 <> 0L then begin
    let a = get_alloc c in
    let h = get_heap c in
    charge c 15;
    let off = Int64.sub (Heap.sanitize h (arg c 0)) (Heap.kbase h) in
    ignore (Alloc.free_off a ~cpu:c.Machine.cpu (Int64.to_int off) : bool)
  end

(* Spin locks live in heap words: 0 = free, owner-tag otherwise. In the
   single-threaded VM a held lock cannot be released concurrently, so a
   contended acquire is a stall — precisely the §3.4 scenario where the
   extension eventually cancels. *)
let h_spin_lock c =
  let h = get_heap c in
  let addr = Heap.sanitize h (arg c 0) in
  charge c 4;
  if Heap.load h 8 addr = 0L then begin
    Heap.store h 8 addr (Int64.of_int (c.Machine.cpu + 1));
    Ledger.acquire c.Machine.ledger ~handle:addr ~destructor:"kflex_spin_unlock";
    set_ret c addr
  end
  else raise Helper_stall

let h_spin_unlock c =
  let h = get_heap c in
  let addr = Heap.sanitize h (arg c 0) in
  charge c 4;
  Heap.store h 8 addr 0L;
  ignore (Ledger.release c.Machine.ledger ~handle:addr : bool)

let h_heap_base c = set_ret c (Heap.kbase (get_heap c))

(* The PRNG and virtual clock behind [bpf_get_prandom_u32] /
   [bpf_ktime_get_ns] are exposed both as process-global helpers (the
   facade's single-CPU world) and as constructors over caller-owned state:
   the engine gives every shard its own stream so shards stay deterministic
   and race-free regardless of how events interleave across domains. The
   state is a {!U64.cell}, not an [int64 ref] — updating a ref boxes the
   new value on every call, which would be the last allocation left on the
   helper-bearing hot paths. *)

let prandom_helper (state : U64.cell) : helper =
 fun c ->
  (* xorshift64*; deterministic for reproducible runs *)
  let x = U64.cell_get state in
  let x = Int64.logxor x (Int64.shift_left x 13) in
  let x = Int64.logxor x (Int64.shift_right_logical x 7) in
  let x = Int64.logxor x (Int64.shift_left x 17) in
  U64.cell_set state x;
  set_ret c (Int64.logand x 0xffff_ffffL)

let prandom_state = U64.cell 0x853c49e6748fea9bL
let seed_prandom seed = U64.cell_set prandom_state (Int64.logor seed 1L)
let h_prandom = prandom_helper prandom_state

let ktime_helper (clock : U64.cell) : helper =
 fun c ->
  let t = Int64.add (U64.cell_get clock) 1L in
  U64.cell_set clock t;
  set_ret c t

let vtime = U64.cell 0L
let set_vtime v = U64.cell_set vtime v
let h_ktime = ktime_helper vtime

let h_cpu c = set_ret c (Int64.of_int c.Machine.cpu)

let valid_width w = w = 1 || w = 2 || w = 4 || w = 8

let pkt_read p ~width off =
  if valid_width width then Machine.pkt_load p width off
  else invalid_arg "Vm.pkt_read: width"

let pkt_write p ~width off v =
  if valid_width width then Machine.pkt_store p width off v
  else invalid_arg "Vm.pkt_write: width"

let native_builtins = List.map fst Machine.native_builtins

let builtin_helpers =
  List.map (fun (n, b) -> (n, b.Machine.body)) Machine.native_builtins
  @ [
    ("kflex_malloc", h_malloc);
    ("kflex_free", h_free);
    ("kflex_spin_lock", h_spin_lock);
    ("kflex_spin_unlock", h_spin_unlock);
    ("kflex_heap_base", h_heap_base);
    ("bpf_get_prandom_u32", h_prandom);
    ("bpf_ktime_get_ns", h_ktime);
    ("bpf_get_smp_processor_id", h_cpu);
  ]

(* --- extensions ------------------------------------------------------- *)

type ext = {
  kie : Kflex_kie.Instrument.t;
  heap : Heap.t option;
  alloc : Alloc.t option;
  helpers : (string, helper) Hashtbl.t;
  quantum : int;
  default_ret : int64;
  on_cancel : (int64 -> int64) option;
  cancel_flag : bool ref;
  mutable exec_state : Machine.state option;
      (* the reusable execution context (satellite: hoisted allocations) *)
  mutable jit : (Jit.t * helper array) option;
      (* compiled form + helper table linked against [helpers] *)
}

let default_quantum = 100_000_000

(* The Jit compiles a native builtin's call without consulting the helper
   table, so an override would run in the reference interpreter only; it
   is refused instead. *)
let create ?heap ?alloc ?(quantum = default_quantum) ?(default_ret = 0L)
    ?on_cancel ~helpers kie =
  List.iter
    (fun (n, _) ->
      if List.mem n native_builtins then
        invalid_arg ("Vm.create: builtin " ^ n ^ " cannot be overridden"))
    helpers;
  let tbl = Hashtbl.create 32 in
  List.iter (fun (n, h) -> Hashtbl.replace tbl n h) builtin_helpers;
  List.iter (fun (n, h) -> Hashtbl.replace tbl n h) helpers;
  {
    kie;
    heap;
    alloc;
    helpers = tbl;
    quantum;
    default_ret;
    on_cancel;
    cancel_flag = ref false;
    exec_state = None;
    jit = None;
  }

let cancel e = e.cancel_flag := true
let cancelled e = !(e.cancel_flag)
let reset_cancel e = e.cancel_flag := false
let cancel_flag e = e.cancel_flag
let kie e = e.kie

(* --- compiled forms ----------------------------------------------------- *)

let link_helpers e names =
  Array.map
    (fun n ->
      match Hashtbl.find_opt e.helpers n with
      | Some h -> h
      | None -> fun _ -> failwith ("Vm.exec: unknown helper " ^ n))
    names

let set_compiled e t = e.jit <- Some (t, link_helpers e (Jit.helper_names t))

let precompile e =
  let t = Jit.compile e.kie in
  set_compiled e t;
  t

let ensure_compiled e =
  match e.jit with
  | Some p -> p
  | None ->
      ignore (precompile e);
      (match e.jit with Some p -> p | None -> assert false)

(* --- execution context reuse ------------------------------------------ *)

let acquire_state e =
  match e.exec_state with
  | Some st when not st.Machine.in_use ->
      st.Machine.in_use <- true;
      st
  | Some _ ->
      (* reentrant invocation (e.g. a helper running an extension): give it
         a throwaway context rather than corrupting the live one *)
      Machine.create_state ?heap:e.heap ?alloc:e.alloc ~quantum:e.quantum
        ~cancel:e.cancel_flag ()
  | None ->
      let st =
        Machine.create_state ?heap:e.heap ?alloc:e.alloc ~quantum:e.quantum
          ~cancel:e.cancel_flag ()
      in
      st.Machine.in_use <- true;
      e.exec_state <- Some st;
      st

let find_helper e name =
  match Hashtbl.find_opt e.helpers name with
  | Some h -> h
  | None -> failwith ("Vm.exec: unknown helper " ^ name)

(* Cancellation: unwind via the static object table of the faulting
   cancellation point (§3.3). *)
let unwind e (st : Machine.state) exn =
  let reason =
    match exn with
    | Vm_fault r -> r
    | Heap.Fault { reason; _ } ->
        if reason = "unpopulated heap page" then Page_fault
        else if reason = "guard zone access" then Guard_zone
        else Wild_access
    | _ -> assert false
  in
  let regs = st.Machine.regs in
  let stack = st.Machine.stack in
  let orig_pc = e.kie.Kflex_kie.Instrument.orig_of_new.(st.Machine.fault_pc) in
  let table = e.kie.Kflex_kie.Instrument.tables.(orig_pc) in
  (* Read every recorded location before the first destructor runs: a
     destructor takes its argument in r1, which may itself be a recorded
     location. *)
  let held =
    List.filter_map
      (fun (entry : Kflex_kie.Instrument.obj_entry) ->
        let v =
          match entry.Kflex_kie.Instrument.loc with
          | Kflex_verifier.State.L_reg r -> U64.get regs (Reg.to_int r)
          | Kflex_verifier.State.L_slot i -> Bytes.get_int64_le stack (i * 8)
        in
        if v <> 0L then Some (entry, v) else None)
      table
  in
  let released =
    List.map
      (fun ((entry : Kflex_kie.Instrument.obj_entry), v) ->
        (match
           Hashtbl.find_opt e.helpers entry.Kflex_kie.Instrument.destructor
         with
        | Some d -> (
            U64.set regs 0 0L;
            U64.set regs 1 v;
            for i = 2 to 5 do
              U64.set regs i 0L
            done;
            (* a stalling destructor cannot stall the unwind *)
            try d st with Helper_stall -> ())
        | None -> ());
        (entry.Kflex_kie.Instrument.klass, entry.Kflex_kie.Instrument.destructor))
      held
  in
  let ret =
    match e.on_cancel with Some f -> f e.default_ret | None -> e.default_ret
  in
  Cancelled
    {
      orig_pc;
      reason;
      released;
      ret;
      ledger_leaked = Ledger.count st.Machine.ledger;
    }

(* --- the boxed reference interpreter ----------------------------------- *)

(* The pre-refactor representation, kept alive as the differential oracle's
   ground truth and as the executor of every observed run: a boxed
   [int64 array] register file and [Stdlib.Int64] arithmetic everywhere —
   including the stdlib's unsigned division — with the width-dispatched
   generic memory path for every access. Deliberately shares no
   ALU/comparison code with [Jit]: the whole point is that an unboxing bug
   in the compiled closures (wrap-around, sign extension, shift masking,
   division edge cases) cannot also be present here.

   Heap, ledger, helpers, stack bytes and outcome plumbing are shared with
   the live state — the reference covers the VM's value representation, not
   the world around it — so outcomes, stats, payloads and heap snapshots
   must come out bit-identical to the compiled form. *)
module Ref_interp = struct
  let u_lt a b = Int64.unsigned_compare a b < 0
  let u_le a b = Int64.unsigned_compare a b <= 0

  let eval_cond c a b =
    match c with
    | Insn.Eq -> Int64.equal a b
    | Insn.Ne -> not (Int64.equal a b)
    | Insn.Lt -> u_lt a b
    | Insn.Le -> u_le a b
    | Insn.Gt -> u_lt b a
    | Insn.Ge -> u_le b a
    | Insn.Slt -> Int64.compare a b < 0
    | Insn.Sle -> Int64.compare a b <= 0
    | Insn.Sgt -> Int64.compare a b > 0
    | Insn.Sge -> Int64.compare a b >= 0
    | Insn.Set -> Int64.logand a b <> 0L

  let eval_alu op a b =
    match op with
    | Insn.Add -> Int64.add a b
    | Insn.Sub -> Int64.sub a b
    | Insn.Mul -> Int64.mul a b
    | Insn.Div -> if b = 0L then 0L else Int64.unsigned_div a b
    | Insn.Mod -> if b = 0L then a else Int64.unsigned_rem a b
    | Insn.And -> Int64.logand a b
    | Insn.Or -> Int64.logor a b
    | Insn.Xor -> Int64.logxor a b
    | Insn.Lsh -> Int64.shift_left a (Int64.to_int b land 63)
    | Insn.Rsh -> Int64.shift_right_logical a (Int64.to_int b land 63)
    | Insn.Arsh -> Int64.shift_right a (Int64.to_int b land 63)

  let exec e ~ctx ?(pkt = Bytes.empty) ?(cpu = 0) ?stats ?on_insn ?on_site
      () =
    let stats = match stats with Some s -> s | None -> fresh_stats () in
    let st = acquire_state e in
    Fun.protect
      ~finally:(fun () -> st.Machine.in_use <- false)
      (fun () ->
        Machine.reset_state st ~ctx ~pkt ~cpu ~stats;
        let insns = Prog.insns e.kie.Kflex_kie.Instrument.prog in
        let regs = Array.make 11 0L in
        regs.(1) <- ctx_base;
        regs.(10) <- Int64.add stack_base (Int64.of_int Prog.stack_size);
        let start_cost = st.Machine.start_cost in
        (* unwind and helpers read registers from the live bank *)
        let sync_regs () =
          for i = 0 to 10 do
            U64.set st.Machine.regs i regs.(i)
          done
        in
        let src_val = function
          | Insn.Reg r -> regs.(Reg.to_int r)
          | Insn.Imm i -> i
        in
        (* an access is a cancellation site when its address leaves the
           stack and ctx windows; its unit is already charged *)
        let site addr sz =
          match on_site with
          | Some f ->
              let w = Insn.size_bytes sz in
              if
                not
                  (Machine.in_window stack_base Prog.stack_size addr w
                  || Machine.in_window ctx_base st.Machine.ctx_size addr w)
                && f ()
              then raise (Vm_fault Ext_cancelled)
          | None -> ()
        in
        let pc = ref 0 in
        let running = ref true in
        let ret = ref 0L in
        try
          (try
             while !running do
               let insn = insns.(!pc) in
               (match on_insn with Some f -> f !pc regs | None -> ());
               stats.insns <- stats.insns + 1;
               match insn with
               | Insn.Mov (d, s) ->
                   regs.(Reg.to_int d) <- src_val s;
                   incr pc
               | Insn.Neg d ->
                   regs.(Reg.to_int d) <- Int64.neg regs.(Reg.to_int d);
                   incr pc
               | Insn.Alu (op, d, s) ->
                   regs.(Reg.to_int d) <-
                     eval_alu op regs.(Reg.to_int d) (src_val s);
                   incr pc
               | Insn.Ldx (sz, d, s, off) ->
                   let addr =
                     Int64.add regs.(Reg.to_int s) (Int64.of_int off)
                   in
                   site addr sz;
                   regs.(Reg.to_int d) <-
                     Machine.read st ~width:(Insn.size_bytes sz) addr;
                   incr pc
               | Insn.Stx (sz, d, off, s) ->
                   let addr =
                     Int64.add regs.(Reg.to_int d) (Int64.of_int off)
                   in
                   site addr sz;
                   Machine.write st ~width:(Insn.size_bytes sz) addr
                     regs.(Reg.to_int s);
                   incr pc
               | Insn.St (sz, d, off, imm) ->
                   let addr =
                     Int64.add regs.(Reg.to_int d) (Int64.of_int off)
                   in
                   site addr sz;
                   Machine.write st ~width:(Insn.size_bytes sz) addr imm;
                   incr pc
               | Insn.Xstore (sz, d, off, s) ->
                   let addr =
                     Int64.add regs.(Reg.to_int d) (Int64.of_int off)
                   in
                   site addr sz;
                   let h =
                     match st.Machine.heap with
                     | Some h -> h
                     | None -> raise (Vm_fault Wild_access)
                   in
                   let v = regs.(Reg.to_int s) in
                   let v =
                     if Heap.is_shared h then Heap.translate_user h v else v
                   in
                   Machine.write st ~width:(Insn.size_bytes sz) addr v;
                   incr pc
               | Insn.Guard (_, r) ->
                   let h =
                     match st.Machine.heap with
                     | Some h -> h
                     | None -> raise (Vm_fault Wild_access)
                   in
                   stats.guards <- stats.guards + 1;
                   regs.(Reg.to_int r) <-
                     Int64.logor (Heap.kbase h)
                       (Int64.logand regs.(Reg.to_int r) (Heap.mask h));
                   incr pc
               | Insn.Checkpoint _ ->
                   stats.checkpoints <- stats.checkpoints + 1;
                   if !(e.cancel_flag) then raise (Vm_fault Ext_cancelled);
                   if total_cost stats - start_cost > e.quantum then begin
                     e.cancel_flag := true;
                     raise (Vm_fault Quantum_expired)
                   end;
                   (match on_site with
                   | Some f when f () -> raise (Vm_fault Ext_cancelled)
                   | _ -> ());
                   incr pc
               | Insn.Atomic (op, sz, d, off, s) ->
                   let width = Insn.size_bytes sz in
                   let addr =
                     Int64.add regs.(Reg.to_int d) (Int64.of_int off)
                   in
                   site addr sz;
                   let old = Machine.read st ~width addr in
                   let sv = regs.(Reg.to_int s) in
                   (match op with
                   | Insn.Atomic_add ->
                       Machine.write st ~width addr (Int64.add old sv)
                   | Insn.Atomic_or ->
                       Machine.write st ~width addr (Int64.logor old sv)
                   | Insn.Atomic_and ->
                       Machine.write st ~width addr (Int64.logand old sv)
                   | Insn.Atomic_xor ->
                       Machine.write st ~width addr (Int64.logxor old sv)
                   | Insn.Fetch_add ->
                       Machine.write st ~width addr (Int64.add old sv);
                       regs.(Reg.to_int s) <- old
                   | Insn.Fetch_or ->
                       Machine.write st ~width addr (Int64.logor old sv);
                       regs.(Reg.to_int s) <- old
                   | Insn.Fetch_and ->
                       Machine.write st ~width addr (Int64.logand old sv);
                       regs.(Reg.to_int s) <- old
                   | Insn.Fetch_xor ->
                       Machine.write st ~width addr (Int64.logxor old sv);
                       regs.(Reg.to_int s) <- old
                   | Insn.Xchg ->
                       Machine.write st ~width addr sv;
                       regs.(Reg.to_int s) <- old
                   | Insn.Cmpxchg ->
                       if old = regs.(0) then Machine.write st ~width addr sv;
                       regs.(0) <- old);
                   incr pc
               | Insn.Ja off -> pc := !pc + 1 + off
               | Insn.Jcond (c, a, s, off) ->
                   if eval_cond c regs.(Reg.to_int a) (src_val s) then
                     pc := !pc + 1 + off
                   else incr pc
               | Insn.Call name ->
                   stats.helper_calls <- stats.helper_calls + 1;
                   let h = find_helper e name in
                   for i = 1 to 5 do
                     U64.set st.Machine.regs i regs.(i)
                   done;
                   Machine.call_helper st h;
                   regs.(0) <- U64.get st.Machine.regs 0;
                   incr pc
               | Insn.Exit ->
                   ret := regs.(0);
                   running := false
             done
           with exn ->
             st.Machine.fault_pc <- !pc;
             raise exn);
          Finished !ret
        with
        | (Vm_fault _ | Heap.Fault _) as exn ->
            sync_regs ();
            unwind e st exn)
end

(* One invocation of the compiled form, with no optional arguments,
   closures or [Fun.protect]; small return values share a preallocated
   [Finished], so the engine's per-event path ({!run}) allocates nothing
   here. *)
let run e ~ctx ~pkt ~cpu ~stats =
  let st = acquire_state e in
  Machine.reset_state st ~ctx ~pkt ~cpu ~stats;
  match
    let t, helpers = ensure_compiled e in
    if st.Machine.helpers != helpers then st.Machine.helpers <- helpers;
    Jit.run t st
  with
  | () ->
      st.Machine.in_use <- false;
      Machine.finished (U64.get st.Machine.regs 0)
  | exception ((Vm_fault _ | Heap.Fault _) as exn) ->
      let o = unwind e st exn in
      st.Machine.in_use <- false;
      o
  | exception exn ->
      st.Machine.in_use <- false;
      raise exn

let exec e ~ctx ?(pkt = Bytes.empty) ?(cpu = 0) ?stats () =
  let stats = match stats with Some s -> s | None -> fresh_stats () in
  run e ~ctx ~pkt ~cpu ~stats
