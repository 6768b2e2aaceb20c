open Kflex_bpf

type fault_reason =
  | Page_fault
  | Guard_zone
  | Wild_access
  | Quantum_expired
  | Lock_stall
  | Ext_cancelled

type stats = {
  mutable insns : int;
  mutable guards : int;
  mutable checkpoints : int;
  mutable helper_calls : int;
  mutable helper_cost : int;
}

let fresh_stats () =
  { insns = 0; guards = 0; checkpoints = 0; helper_calls = 0; helper_cost = 0 }

let total_cost s = s.insns + s.helper_cost

type outcome =
  | Finished of int64
  | Cancelled of {
      orig_pc : int;
      reason : fault_reason;
      released : (string * string) list;
      ret : int64;
      ledger_leaked : int;
    }

(* Helpers are called the way the kernel calls them: directly, with their
   arguments in r1–r5 of the live register bank and their result written
   to r0 (the dispatcher clears r0 first, so a helper that returns nothing
   returns 0). The context a helper receives is the execution state itself
   ([call_ctx = state], below): VM memory, cost accounting, the ledger and
   the cpu id are plain fields and inlined accessors, not closures — a
   closure call boxes every [int64] that crosses it. A helper that cannot
   make progress (contended lock) raises the constant [Helper_stall], which
   cancels the extension at the call site. *)
exception Helper_stall

exception Vm_fault of fault_reason

let stack_base = 0x2000_0000_0000L
let ctx_base = 0x1000_0000_0000L

(* The reusable execution context: registers, stack, ledger and the
   helper environment are allocated once per extension and recycled across
   invocations (reset below), instead of re-allocated per [Vm.exec]. The
   compiled closures ({!Jit}) and the reference interpreter run against
   this record, and helpers receive it as their [call_ctx]. The register
   file is an unboxed [U64.bank]: register reads and writes are single
   machine loads/stores, never a heap box. An invocation's return value is
   r0 at [Exit]. *)
type state = {
  regs : U64.bank;  (* r0-r10 *)
  stack : Bytes.t;  (* Prog.stack_size bytes, zeroed per invocation *)
  mutable ctx : Bytes.t;
  mutable ctx_size : int;
  mutable pkt : Bytes.t;
      (* the payload of the packet being processed ([Bytes.empty] when the
         invocation has none), read and written by the packet builtins *)
  mutable stats : stats;
  mutable start_cost : int;  (* total_cost at invocation entry *)
  mutable fault_pc : int;  (* instrumented pc of the faulting insn *)
  mutable cpu : int;
  mutable helpers : helper array;  (* the jit's linked helper table *)
  heap : Heap.t option;
  alloc : Alloc.t option;
  quantum : int;
  cancel : bool ref;
  ledger : Ledger.t;
  mutable in_use : bool;
}

and helper = state -> unit

type call_ctx = state

(* Window tests compare offsets, not [addr + width]: adding the width to an
   address near [Int64.max_int] wraps negative and would misclassify a wild
   access as an in-window one. *)
let[@inline always] in_window base size addr width =
  let off = Int64.sub addr base in
  (off : int64) >= 0L && off <= Int64.of_int (size - width)

let read st ~width addr =
  if in_window stack_base Prog.stack_size addr width then begin
    let i = Int64.to_int (Int64.sub addr stack_base) in
    let stack = st.stack in
    match width with
    | 1 -> Int64.of_int (Char.code (Bytes.get stack i))
    | 2 -> Int64.of_int (Bytes.get_uint16_le stack i)
    | 4 -> Int64.logand (Int64.of_int32 (Bytes.get_int32_le stack i)) 0xffff_ffffL
    | 8 -> Bytes.get_int64_le stack i
    | _ -> assert false
  end
  else if in_window ctx_base st.ctx_size addr width then begin
    let i = Int64.to_int (Int64.sub addr ctx_base) in
    let ctx = st.ctx in
    match width with
    | 1 -> Int64.of_int (Char.code (Bytes.get ctx i))
    | 2 -> Int64.of_int (Bytes.get_uint16_le ctx i)
    | 4 -> Int64.logand (Int64.of_int32 (Bytes.get_int32_le ctx i)) 0xffff_ffffL
    | 8 -> Bytes.get_int64_le ctx i
    | _ -> assert false
  end
  else
    match st.heap with
    | Some h -> Heap.read h ~width addr
    | None -> raise (Vm_fault Wild_access)

let write st ~width addr v =
  if in_window stack_base Prog.stack_size addr width then begin
    let i = Int64.to_int (Int64.sub addr stack_base) in
    let stack = st.stack in
    match width with
    | 1 -> Bytes.set stack i (Char.chr (Int64.to_int (Int64.logand v 0xffL)))
    | 2 -> Bytes.set_uint16_le stack i (Int64.to_int (Int64.logand v 0xffffL))
    | 4 -> Bytes.set_int32_le stack i (Int64.to_int32 v)
    | 8 -> Bytes.set_int64_le stack i v
    | _ -> assert false
  end
  else if
    addr >= ctx_base && addr < Int64.add ctx_base (Int64.of_int st.ctx_size)
  then raise (Vm_fault Wild_access) (* ctx is read-only; verifier forbids *)
  else
    match st.heap with
    | Some h -> Heap.write h ~width addr v
    | None -> raise (Vm_fault Wild_access)

(* The memory path of the Jit and the helper ABI, written once for every
   width: the stack window, the read-only ctx window, then the heap's own
   body ({!Heap.load}/{!Heap.store}). Semantics are those of
   [read]/[write] above. [w] is an int literal at every call site, and
   the bodies are forced inline into those sites, so each width folds to
   its own straight-line code: window tests and byte accesses run on
   unboxed values with no call or box in between, the in-window accesses
   using {!U64}'s raw accessors, their bounds discharged by the window
   test. *)

(* [w] bytes at index [i] of [b], zero-extended, with no bounds check *)
let[@inline always] get b w i =
  if w = 1 then Int64.of_int (Char.code (U64.get8 b i))
  else if w = 2 then Int64.of_int (U64.get16 b i)
  else if w = 4 then
    Int64.logand (Int64.of_int32 (U64.get32 b i)) 0xffff_ffffL
  else U64.get64 b i

let[@inline always] load st w addr =
  if in_window stack_base Prog.stack_size addr w then
    get st.stack w (Int64.to_int (Int64.sub addr stack_base))
  else if in_window ctx_base st.ctx_size addr w then
    get st.ctx w (Int64.to_int (Int64.sub addr ctx_base))
  else
    match st.heap with
    | Some h -> Heap.load h w addr
    | None -> raise (Vm_fault Wild_access)

let[@inline always] store st w addr v =
  if in_window stack_base Prog.stack_size addr w then begin
    let i = Int64.to_int (Int64.sub addr stack_base) in
    if w = 1 then
      U64.set8 st.stack i (Char.unsafe_chr (Int64.to_int (Int64.logand v 0xffL)))
    else if w = 2 then
      U64.set16 st.stack i (Int64.to_int (Int64.logand v 0xffffL))
    else if w = 4 then U64.set32 st.stack i (Int64.to_int32 v)
    else U64.set64 st.stack i v
  end
  else if
    addr >= ctx_base && addr < Int64.add ctx_base (Int64.of_int st.ctx_size)
  then raise (Vm_fault Wild_access)
  else
    match st.heap with
    | Some h -> Heap.store h w addr v
    | None -> raise (Vm_fault Wild_access)

let create_state ?heap ?alloc ~quantum ~cancel () =
  {
    regs = U64.create 11;
    stack = Bytes.make Prog.stack_size '\000';
    ctx = Bytes.empty;
    ctx_size = 0;
    pkt = Bytes.empty;
    stats = fresh_stats ();
    start_cost = 0;
    fault_pc = 0;
    cpu = 0;
    helpers = [||];
    heap;
    alloc;
    quantum;
    cancel;
    ledger = Ledger.create ();
    in_use = false;
  }

(* Per invocation. The registers are zeroed by unboxed stores rather than
   a [Bigarray.fill] C call, and a pointer field is written only when its
   value changes: each write is a [caml_modify], and an engine shard runs
   every invocation of an instance against the same context block and
   stats record. *)
let reset_state st ~ctx ~pkt ~cpu ~stats =
  let regs = st.regs in
  for i = 0 to 10 do
    U64.set regs i 0L
  done;
  Bytes.unsafe_fill st.stack 0 (Bytes.length st.stack) '\000';
  Ledger.clear st.ledger;
  if st.ctx != ctx then begin
    st.ctx <- ctx;
    st.ctx_size <- Bytes.length ctx
  end;
  if st.pkt != pkt then st.pkt <- pkt;
  if st.stats != stats then st.stats <- stats;
  st.start_cost <- total_cost stats;
  st.fault_pc <- 0;
  st.cpu <- cpu;
  U64.set regs 1 ctx_base;
  U64.set regs 10 (Int64.add stack_base (Int64.of_int Prog.stack_size))

(* --- the helper ABI ------------------------------------------------------ *)

let[@inline always] arg (c : call_ctx) i = U64.get c.regs (i + 1)
let[@inline always] set_ret (c : call_ctx) v = U64.set c.regs 0 v

let[@inline always] charge (c : call_ctx) n =
  let s = c.stats in
  s.helper_cost <- s.helper_cost + n

(* --- the packet builtins ------------------------------------------------

   [pkt_len], [pkt_read_*] and [pkt_write_*] read and write the payload in
   [st.pkt], and each is defined once, here: the helper table
   ({!Vm.builtin_helpers}) calls these bodies through [call_helper], and
   the fused Jit runs them as ops inside its net-effect regions. With no
   packet installed the payload is empty: length 0, every read 0, every
   write ignored.

   Offsets arrive as full 64-bit scalars. The test compares [off] with
   [length - width], which cannot overflow, where [off + width] wraps for
   offsets near [Int64.max_int]; past it the raw accessors need no bounds
   check of their own. *)

let[@inline always] pkt_fits p (off : int64) width =
  off >= 0L && off <= Int64.of_int (Bytes.length p - width)

let[@inline always] pkt_load p w off =
  if pkt_fits p off w then get p w (Int64.to_int off) else 0L

let[@inline always] pkt_store p w off v =
  if pkt_fits p off w then begin
    let i = Int64.to_int off in
    if w = 1 then
      U64.set8 p i (Char.unsafe_chr (Int64.to_int (Int64.logand v 0xffL)))
    else if w = 2 then U64.set16 p i (Int64.to_int (Int64.logand v 0xffffL))
    else if w = 4 then U64.set32 p i (Int64.to_int32 v)
    else U64.set64 p i v
  end

(* The builtins' bodies in the helper ABI: [pkt_len(ctx)], and for a
   width [w] [pkt_read_uN(ctx, off)] or, with [write],
   [pkt_write_uN(ctx, off, v)]; [w] and [write] are literals at every
   call site. Each writes r0 itself (a write returns 0), so a body called
   without [call_helper]'s clearing of r0 leaves what the call would. *)
let[@inline always] pkt_len_b st =
  charge st 2;
  set_ret st (Int64.of_int (Bytes.length st.pkt))

let[@inline always] pkt_b st w write =
  charge st 3;
  if write then begin
    pkt_store st.pkt w (arg st 1) (arg st 2);
    set_ret st 0L
  end
  else set_ret st (pkt_load st.pkt w (arg st 1))

(* A builtin the fused Jit runs as an op inside its net-effect regions:
   the argument registers its body reads, as a bitmask (r2 holds the
   offset and r3 a written value; none reads r1, the context), its
   helper-table entry, and that op. [op None] bumps [helper_calls] as the
   call would and runs the body, called directly so that it inlines;
   [op (Some c)] first sets r2 to [c], a constant offset the region has
   not written there. *)
type native = { reads : int; body : helper; op : int64 option -> helper }

let[@inline always] called st =
  let s = st.stats in
  s.helper_calls <- s.helper_calls + 1

let[@inline always] at st c = U64.set st.regs 2 c

(* Each entry spells out its closures, so that every one calls its body
   with literal arguments and the body inlines into it. *)
let native_builtins : (string * native) list =
  [
    ( "pkt_len",
      {
        reads = 0;
        body = pkt_len_b;
        op =
          (function
          | None -> fun st -> called st; pkt_len_b st
          | Some _ -> invalid_arg "Machine: pkt_len takes no offset");
      } );
    ( "pkt_read_u8",
      {
        reads = 0b100;
        body = (fun st -> pkt_b st 1 false);
        op =
          (function
          | None -> fun st -> called st; pkt_b st 1 false
          | Some c -> fun st -> at st c; called st; pkt_b st 1 false);
      } );
    ( "pkt_read_u16",
      {
        reads = 0b100;
        body = (fun st -> pkt_b st 2 false);
        op =
          (function
          | None -> fun st -> called st; pkt_b st 2 false
          | Some c -> fun st -> at st c; called st; pkt_b st 2 false);
      } );
    ( "pkt_read_u32",
      {
        reads = 0b100;
        body = (fun st -> pkt_b st 4 false);
        op =
          (function
          | None -> fun st -> called st; pkt_b st 4 false
          | Some c -> fun st -> at st c; called st; pkt_b st 4 false);
      } );
    ( "pkt_read_u64",
      {
        reads = 0b100;
        body = (fun st -> pkt_b st 8 false);
        op =
          (function
          | None -> fun st -> called st; pkt_b st 8 false
          | Some c -> fun st -> at st c; called st; pkt_b st 8 false);
      } );
    ( "pkt_write_u8",
      {
        reads = 0b1100;
        body = (fun st -> pkt_b st 1 true);
        op =
          (function
          | None -> fun st -> called st; pkt_b st 1 true
          | Some c -> fun st -> at st c; called st; pkt_b st 1 true);
      } );
    ( "pkt_write_u16",
      {
        reads = 0b1100;
        body = (fun st -> pkt_b st 2 true);
        op =
          (function
          | None -> fun st -> called st; pkt_b st 2 true
          | Some c -> fun st -> at st c; called st; pkt_b st 2 true);
      } );
    ( "pkt_write_u32",
      {
        reads = 0b1100;
        body = (fun st -> pkt_b st 4 true);
        op =
          (function
          | None -> fun st -> called st; pkt_b st 4 true
          | Some c -> fun st -> at st c; called st; pkt_b st 4 true);
      } );
    ( "pkt_write_u64",
      {
        reads = 0b1100;
        body = (fun st -> pkt_b st 8 true);
        op =
          (function
          | None -> fun st -> called st; pkt_b st 8 true
          | Some c -> fun st -> at st c; called st; pkt_b st 8 true);
      } );
  ]

(* Call [h] with r1-r5 as its arguments: clear r0, run, and let a
   [Helper_stall] cancel the extension at the call site (§3.4). A helper
   that raises leaves r0 as the call found it: the unwinder may find a
   held object recorded there. *)
let[@inline always] call_helper (st : state) (h : helper) =
  let r0 = U64.get st.regs 0 in
  U64.set st.regs 0 0L;
  match h st with
  | () -> ()
  | exception e ->
      U64.set st.regs 0 r0;
      if e == Helper_stall then begin
        st.cancel := true;
        raise (Vm_fault Lock_stall)
      end
      else raise e

(* Outcomes of the common small return values (verdicts, 0/1 results) are
   preallocated and shared, so a finished invocation allocates nothing. *)
let finished_lo = -1
let finished_hi = 255

let finished_table =
  Array.init (finished_hi - finished_lo + 1) (fun i ->
      Finished (Int64.of_int (i + finished_lo)))

let[@inline always] finished (v : int64) =
  if v >= Int64.of_int finished_lo && v <= Int64.of_int finished_hi then
    Array.unsafe_get finished_table (Int64.to_int v - finished_lo)
  else Finished v
