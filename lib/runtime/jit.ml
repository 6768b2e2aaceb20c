(* Template JIT: ahead-of-time translation of an instrumented program into
   an array of OCaml closures with direct-threaded dispatch. Each closure
   performs the work of one instruction, or of a fused run of them, and
   tail-calls its continuation, so a run is a chain of tail calls with no
   per-insn fetch/decode match and no hook-presence checks. Specialization
   happens at compile time: ALU operators, comparison predicates, operand
   kinds and memory-access widths are each resolved into a dedicated
   closure body, so the executed code contains no per-instruction operator
   dispatch.

   Compilation walks the program backwards so that fall-through and
   forward-jump continuations are captured directly; backward jumps (and
   self-loops) fetch their entry at run time. The invariant throughout is
   that [entries.(q)] executes the instruction stream from [q] onward for
   every [q] that is entered: pc 0, every jump target, and every pc a
   closure falls through to. A jump into the middle of a fused run enters
   its own entry, compiled from that pc on.

   Guard+Load / Guard+Store pairs: the sanitize result is an address inside
   the heap window (kbase >= 2^46, stack/ctx windows < 2^46, and the ±32 KB
   displacement range cannot bridge the gap), so the fused closure skips
   the stack/ctx window tests and goes straight to the heap's access body
   ({!Heap.load}/{!Heap.store}). Fault reasons and order (wild access,
   guard zone, unpopulated page) are unchanged; the heap's body falls back
   to the generic checked path for anything unusual.

   One body per memory-access protocol. The Guard+access pair
   ([guarded]), the unfused access ([access]), the checkpoint's watchdog
   ([watchdog]), the window-tested path ({!Machine.load}/{!Machine.store}),
   the heap's fast path and the packet builtins ({!Machine.pkt_b}) are
   each written once for every width, forced inline, and every closure
   that runs one is a one-line call passing the width [w] (and here the
   access kind [k]) as an int literal. The compiler folds the literal, so
   each closure's machine code is what a body written for that width alone
   compiled to. Without flambda (OCaml 5.1's Closure inliner), three rules
   keep it so; each was checked on the object code:
   - A shared body contains no nested [fun]; the closure stays at the call
     site: [| Insn.U16 -> fun st -> guarded st pc g off 2 0 d 0L; cont st].
     A body that returns the closure is either applied partially or not
     inlined at all, and its one closure code carries every width: 71
     instructions against 25 for a 16-bit load in a scratch module.
   - Branch on the literal with [if w = 1 then ... else if ...]. An
     inlined [if] on a constant keeps one arm; a four-way [match w with]
     compiled to a jump table indexed by the constant, every arm kept (72
     instructions against 25 in the same module).
   - Never pass an accessor as a function parameter. The inlined body's
     call of its parameter stays a generic application through
     [caml_apply2], which boxes the [int64] the accessor returns (seen in
     the scratch module, and in a scratch copy of this file). CI fails if
     the object code of [Heap], [Machine] or this module calls
     [caml_apply*] or [caml_curry*].
   Each shared body is also compiled once standalone, with [w] unknown;
   nothing calls those copies. A closure's captured values that it passes
   to a body are bound at the inlined body's entry, so they load up front
   rather than at their first use: each access closure is within 3
   instructions of the per-width code it replaced (14 of the 24 differ at
   all).

   Net-effect regions. A pure region is a maximal run of Mov/Alu/Neg;
   when no instruction ever writes r10 (so the frame pointer keeps its
   entry value), [Ldx]/[Stx]/[St] at [r10 + off] with the slot statically
   inside the frame; and calls of the packet builtins
   ({!Machine.native_builtins}), whose bodies the fused form runs itself.
   None of these can fault or reach an observation point, so the region
   charges its whole [insns] upfront and only its net effect has to
   happen:
   - copies and constants propagate through registers and 64-bit frame
     slots, and a store forwards to later loads of its slot, so a read
     takes the value's earliest intact location or its constant;
   - operations on two constants fold at compile time, with the
     executor's Div/Mod-by-zero and shift-masking rules;
   - a builtin call is an op that charges what the helper-table call
     charges, reads its operands in place (the offset in r2, and the value
     in r3 for a write; a constant offset it sets in r2 itself) and
     defines r0; it is always kept;
   - a write that a later instruction of the region overwrites before
     anything reads it is dropped, and so is a register write or frame
     store that is dead at the region's exit;
   - an ALU result stored to an 8-byte slot, with its register dead after
     the store, becomes one op writing the slot.
   Deadness comes from a backward liveness over the instrumented program,
   of registers and of frame slots. At an instruction that can fault, the
   live set holds its operands, r0–r5 at a helper-table call (a tenant may
   supply the helper's body), and the locations of the cancellation
   point's object table ([tables.(orig_of_new.(pc))]): the unwinder
   ([Vm.unwind]) reads exactly those registers and frame slots when it
   releases the objects the program holds, so at every fault point each
   of them holds what the reference interpreter would hold. A frame slot
   is also read by in-frame loads and atomics at [r10 + off], and, once
   the frame's address escapes into a register, by every helper-table
   call and every other memory access. Nothing else reads a register or
   the frame after a fault, and only r0 after [Exit].

   What survives becomes three-address ops whose operands are registers,
   frame slots or immediates, one closure each. A [Jcond]/[Ja]/[Exit]/
   [Checkpoint] ending the region folds into the region closure; a folded
   [Jcond] reads its operands in place (a frame slot or constant the
   region left them in), and a region whose ops all drop compiles to its
   terminator alone. A jump directly following a checkpoint (the shape
   instrumentation emits at every loop back edge) folds in too.

   Cost accounting is bit-identical to the reference interpreter
   ([Vm.Ref_interp]): guards, checkpoints and helper counters bump in the
   interpreter's order, and fused closures that touch memory batch their
   charge only across fault-free prefixes, so a fault observes the same
   counts. A jump folded in after a checkpoint charges after the quantum
   comparison, exactly where the interpreter would.

   This is the only compiled form. Runs with observers ([on_insn],
   [on_site]) take the reference interpreter ([Vm.Ref_interp]) instead. *)

open Kflex_bpf
open Machine

type op = state -> unit

type t = {
  entries : op array;
  helper_names : string array;
      (* helper-table slots, in order of first appearance; [run] requires
         [st.helpers] linked at least this long *)
  fused : int;  (* instructions absorbed into superinstructions *)
  closures : int;  (* entry closures plus region ops built *)
  region_ops : int;  (* ops built for net-effect regions *)
  pure_insns : int;  (* pure instructions those regions cover *)
  native_ops : int;  (* region ops that run a packet builtin *)
  dead_frame_stores : int;  (* frame stores the regions drop *)
}

let helper_names t = t.helper_names
let fused_pairs t = t.fused
let closures t = t.closures
let region_ops t = t.region_ops
let pure_insns t = t.pure_insns
let native_ops t = t.native_ops
let dead_frame_stores t = t.dead_frame_stores

let dummy : op = fun _ -> failwith "Jit: fell off the end of the program"

let ri = Reg.to_int

(* Register indices come from [Reg.to_int], which is always in [0, 10], and
   [state.regs] is an 11-slot unboxed bank — unsafe accesses are in bounds
   by construction. The accessors are monomorphic externals ({!U64}), so
   there is no polymorphic-array dispatch left to miscompile: the weak-type
   [Array.unsafe_get] trap that once made these wrappers necessary (the
   generic float-dispatching accessor misreading boxed elements) cannot
   arise on a Bigarray primitive. These must stay [external] declarations:
   let-binding a primitive ([let rget = U64.get]) would demote it to an
   ordinary function whose every call boxes its [int64] result. *)
external rget : U64.bank -> int -> int64 = "%caml_ba_unsafe_ref_1"
external rset : U64.bank -> int -> int64 -> unit = "%caml_ba_unsafe_set_1"

(* Operand reads for the closure bodies. Frame-slot indices are byte
   offsets proven inside the frame at compile time ({!in_frame}), which
   discharges the raw accessors' bounds obligation. All of these inline,
   so no [int64] crosses a call. *)
let[@inline always] reg st x = rget st.regs x
let[@inline always] slot st i = U64.get64 st.stack i
let[@inline always] put st d v = rset st.regs d v
let[@inline always] sput st i v = U64.set64 st.stack i v
let[@inline always] charge st k = st.stats.insns <- st.stats.insns + k

(* The ALU's edge cases, shared by the closures and constant folding:
   division by zero yields 0, modulo by zero leaves the dividend, and
   shift counts are masked to 6 bits. *)
let[@inline always] div0 (a : int64) (b : int64) =
  if Int64.equal b 0L then 0L else U64.udiv a b

let[@inline always] mod0 (a : int64) (b : int64) =
  if Int64.equal b 0L then a else U64.urem a b

let[@inline always] shl a (b : int64) =
  Int64.shift_left a (Int64.to_int b land 63)

let[@inline always] shr a (b : int64) =
  Int64.shift_right_logical a (Int64.to_int b land 63)

let[@inline always] sar a (b : int64) =
  Int64.shift_right a (Int64.to_int b land 63)

let eval_alu op a b =
  match op with
  | Insn.Add -> Int64.add a b
  | Insn.Sub -> Int64.sub a b
  | Insn.Mul -> Int64.mul a b
  | Insn.Div -> div0 a b
  | Insn.Mod -> mod0 a b
  | Insn.And -> Int64.logand a b
  | Insn.Or -> Int64.logor a b
  | Insn.Xor -> Int64.logxor a b
  | Insn.Lsh -> shl a b
  | Insn.Rsh -> shr a b
  | Insn.Arsh -> sar a b

let eval_cond c a b =
  match c with
  | Insn.Eq -> Int64.equal a b
  | Insn.Ne -> not (Int64.equal a b)
  | Insn.Lt -> Int64.unsigned_compare a b < 0
  | Insn.Le -> Int64.unsigned_compare a b <= 0
  | Insn.Gt -> Int64.unsigned_compare a b > 0
  | Insn.Ge -> Int64.unsigned_compare a b >= 0
  | Insn.Slt -> Int64.compare a b < 0
  | Insn.Sle -> Int64.compare a b <= 0
  | Insn.Sgt -> Int64.compare a b > 0
  | Insn.Sge -> Int64.compare a b >= 0
  | Insn.Set -> not (Int64.equal (Int64.logand a b) 0L)

(* --- operands and ops --------------------------------------------------- *)

(* An operand: a register, the 64-bit frame slot at a stack byte index, or
   an immediate. *)
type v = R of int | S of int | I of int64

let same_v a b =
  match (a, b) with
  | R x, R y | S x, S y -> x = y
  | I x, I y -> Int64.equal x y
  | _ -> false

let native_of name =
  List.find_map
    (fun (n, nat) -> if String.equal n name then Some nat else None)
    native_builtins

(* A net-effect op: what survives of a pure region, before its closure is
   built. Stack operands are byte indices into the frame. *)
type ir =
  | Set of int * v  (* r := v *)
  | Bin of Insn.alu_op * int * v * v  (* r := a op b, a in R|S, b in R|I *)
  | Bin_s of Insn.alu_op * int * v * v  (* stack[i, i+8) := a op b *)
  | Neg of int * int  (* r := -r' *)
  | Get of int * int * int  (* r := zero-extended stack[i, i+w), w < 8 *)
  | Put of int * int * v  (* stack[i, i+w) := low w bytes of v *)
  | Native of native * int64 option
      (* r0 := the builtin ({!Machine.native}), charging the call; with
         [Some c], r2 := c first *)

(* [d := a op b] with the operator and both operand kinds resolved here.
   Zero divisors and the all-immediate case never get this far: they fold
   when the region is analysed. *)
let bin op d a b : op =
  match (a, b) with
  | R x, R y -> (
      match op with
      | Insn.Add -> fun st -> put st d (Int64.add (reg st x) (reg st y))
      | Insn.Sub -> fun st -> put st d (Int64.sub (reg st x) (reg st y))
      | Insn.Mul -> fun st -> put st d (Int64.mul (reg st x) (reg st y))
      | Insn.Div -> fun st -> put st d (div0 (reg st x) (reg st y))
      | Insn.Mod -> fun st -> put st d (mod0 (reg st x) (reg st y))
      | Insn.And -> fun st -> put st d (Int64.logand (reg st x) (reg st y))
      | Insn.Or -> fun st -> put st d (Int64.logor (reg st x) (reg st y))
      | Insn.Xor -> fun st -> put st d (Int64.logxor (reg st x) (reg st y))
      | Insn.Lsh -> fun st -> put st d (shl (reg st x) (reg st y))
      | Insn.Rsh -> fun st -> put st d (shr (reg st x) (reg st y))
      | Insn.Arsh -> fun st -> put st d (sar (reg st x) (reg st y)))
  | S x, R y -> (
      match op with
      | Insn.Add -> fun st -> put st d (Int64.add (slot st x) (reg st y))
      | Insn.Sub -> fun st -> put st d (Int64.sub (slot st x) (reg st y))
      | Insn.Mul -> fun st -> put st d (Int64.mul (slot st x) (reg st y))
      | Insn.Div -> fun st -> put st d (div0 (slot st x) (reg st y))
      | Insn.Mod -> fun st -> put st d (mod0 (slot st x) (reg st y))
      | Insn.And -> fun st -> put st d (Int64.logand (slot st x) (reg st y))
      | Insn.Or -> fun st -> put st d (Int64.logor (slot st x) (reg st y))
      | Insn.Xor -> fun st -> put st d (Int64.logxor (slot st x) (reg st y))
      | Insn.Lsh -> fun st -> put st d (shl (slot st x) (reg st y))
      | Insn.Rsh -> fun st -> put st d (shr (slot st x) (reg st y))
      | Insn.Arsh -> fun st -> put st d (sar (slot st x) (reg st y)))
  | R x, I c -> (
      let n = Int64.to_int c land 63 in
      match op with
      | Insn.Add -> fun st -> put st d (Int64.add (reg st x) c)
      | Insn.Sub -> fun st -> put st d (Int64.sub (reg st x) c)
      | Insn.Mul -> fun st -> put st d (Int64.mul (reg st x) c)
      | Insn.Div -> fun st -> put st d (U64.udiv (reg st x) c)
      | Insn.Mod -> fun st -> put st d (U64.urem (reg st x) c)
      | Insn.And -> fun st -> put st d (Int64.logand (reg st x) c)
      | Insn.Or -> fun st -> put st d (Int64.logor (reg st x) c)
      | Insn.Xor -> fun st -> put st d (Int64.logxor (reg st x) c)
      | Insn.Lsh -> fun st -> put st d (Int64.shift_left (reg st x) n)
      | Insn.Rsh -> fun st -> put st d (Int64.shift_right_logical (reg st x) n)
      | Insn.Arsh -> fun st -> put st d (Int64.shift_right (reg st x) n))
  | S x, I c -> (
      let n = Int64.to_int c land 63 in
      match op with
      | Insn.Add -> fun st -> put st d (Int64.add (slot st x) c)
      | Insn.Sub -> fun st -> put st d (Int64.sub (slot st x) c)
      | Insn.Mul -> fun st -> put st d (Int64.mul (slot st x) c)
      | Insn.Div -> fun st -> put st d (U64.udiv (slot st x) c)
      | Insn.Mod -> fun st -> put st d (U64.urem (slot st x) c)
      | Insn.And -> fun st -> put st d (Int64.logand (slot st x) c)
      | Insn.Or -> fun st -> put st d (Int64.logor (slot st x) c)
      | Insn.Xor -> fun st -> put st d (Int64.logxor (slot st x) c)
      | Insn.Lsh -> fun st -> put st d (Int64.shift_left (slot st x) n)
      | Insn.Rsh -> fun st -> put st d (Int64.shift_right_logical (slot st x) n)
      | Insn.Arsh -> fun st -> put st d (Int64.shift_right (slot st x) n))
  | _ -> invalid_arg "Jit: unnormalised ALU operands"

(* [stack[i, i+8) := a op b], the same shapes as {!bin}. *)
let bin_s op i a b : op =
  match (a, b) with
  | R x, R y -> (
      match op with
      | Insn.Add -> fun st -> sput st i (Int64.add (reg st x) (reg st y))
      | Insn.Sub -> fun st -> sput st i (Int64.sub (reg st x) (reg st y))
      | Insn.Mul -> fun st -> sput st i (Int64.mul (reg st x) (reg st y))
      | Insn.Div -> fun st -> sput st i (div0 (reg st x) (reg st y))
      | Insn.Mod -> fun st -> sput st i (mod0 (reg st x) (reg st y))
      | Insn.And -> fun st -> sput st i (Int64.logand (reg st x) (reg st y))
      | Insn.Or -> fun st -> sput st i (Int64.logor (reg st x) (reg st y))
      | Insn.Xor -> fun st -> sput st i (Int64.logxor (reg st x) (reg st y))
      | Insn.Lsh -> fun st -> sput st i (shl (reg st x) (reg st y))
      | Insn.Rsh -> fun st -> sput st i (shr (reg st x) (reg st y))
      | Insn.Arsh -> fun st -> sput st i (sar (reg st x) (reg st y)))
  | S x, R y -> (
      match op with
      | Insn.Add -> fun st -> sput st i (Int64.add (slot st x) (reg st y))
      | Insn.Sub -> fun st -> sput st i (Int64.sub (slot st x) (reg st y))
      | Insn.Mul -> fun st -> sput st i (Int64.mul (slot st x) (reg st y))
      | Insn.Div -> fun st -> sput st i (div0 (slot st x) (reg st y))
      | Insn.Mod -> fun st -> sput st i (mod0 (slot st x) (reg st y))
      | Insn.And -> fun st -> sput st i (Int64.logand (slot st x) (reg st y))
      | Insn.Or -> fun st -> sput st i (Int64.logor (slot st x) (reg st y))
      | Insn.Xor -> fun st -> sput st i (Int64.logxor (slot st x) (reg st y))
      | Insn.Lsh -> fun st -> sput st i (shl (slot st x) (reg st y))
      | Insn.Rsh -> fun st -> sput st i (shr (slot st x) (reg st y))
      | Insn.Arsh -> fun st -> sput st i (sar (slot st x) (reg st y)))
  | R x, I c -> (
      let n = Int64.to_int c land 63 in
      match op with
      | Insn.Add -> fun st -> sput st i (Int64.add (reg st x) c)
      | Insn.Sub -> fun st -> sput st i (Int64.sub (reg st x) c)
      | Insn.Mul -> fun st -> sput st i (Int64.mul (reg st x) c)
      | Insn.Div -> fun st -> sput st i (U64.udiv (reg st x) c)
      | Insn.Mod -> fun st -> sput st i (U64.urem (reg st x) c)
      | Insn.And -> fun st -> sput st i (Int64.logand (reg st x) c)
      | Insn.Or -> fun st -> sput st i (Int64.logor (reg st x) c)
      | Insn.Xor -> fun st -> sput st i (Int64.logxor (reg st x) c)
      | Insn.Lsh -> fun st -> sput st i (Int64.shift_left (reg st x) n)
      | Insn.Rsh -> fun st -> sput st i (Int64.shift_right_logical (reg st x) n)
      | Insn.Arsh -> fun st -> sput st i (Int64.shift_right (reg st x) n))
  | S x, I c -> (
      let n = Int64.to_int c land 63 in
      match op with
      | Insn.Add -> fun st -> sput st i (Int64.add (slot st x) c)
      | Insn.Sub -> fun st -> sput st i (Int64.sub (slot st x) c)
      | Insn.Mul -> fun st -> sput st i (Int64.mul (slot st x) c)
      | Insn.Div -> fun st -> sput st i (U64.udiv (slot st x) c)
      | Insn.Mod -> fun st -> sput st i (U64.urem (slot st x) c)
      | Insn.And -> fun st -> sput st i (Int64.logand (slot st x) c)
      | Insn.Or -> fun st -> sput st i (Int64.logor (slot st x) c)
      | Insn.Xor -> fun st -> sput st i (Int64.logxor (slot st x) c)
      | Insn.Lsh -> fun st -> sput st i (Int64.shift_left (slot st x) n)
      | Insn.Rsh ->
          fun st -> sput st i (Int64.shift_right_logical (slot st x) n)
      | Insn.Arsh -> fun st -> sput st i (Int64.shift_right (slot st x) n))
  | _ -> invalid_arg "Jit: unnormalised ALU operands"

let op_of_ir = function
  | Set (d, R x) -> fun st -> put st d (reg st x)
  | Set (d, S i) -> fun st -> put st d (slot st i)
  | Set (d, I c) -> fun st -> put st d c
  | Bin (op, d, a, b) -> bin op d a b
  | Bin_s (op, i, a, b) -> bin_s op i a b
  | Native (nat, c) -> nat.op c
  | Neg (d, x) -> fun st -> put st d (Int64.neg (reg st x))
  | Get (d, i, 1) ->
      fun st -> put st d (Int64.of_int (Char.code (U64.get8 st.stack i)))
  | Get (d, i, 2) -> fun st -> put st d (Int64.of_int (U64.get16 st.stack i))
  | Get (d, i, _) ->
      fun st ->
        put st d
          (Int64.logand (Int64.of_int32 (U64.get32 st.stack i)) 0xffff_ffffL)
  | Put (i, 8, R x) -> fun st -> U64.set64 st.stack i (reg st x)
  | Put (i, 8, S j) -> fun st -> U64.set64 st.stack i (slot st j)
  | Put (i, 8, I c) -> fun st -> U64.set64 st.stack i c
  | Put (i, 4, R x) ->
      fun st -> U64.set32 st.stack i (Int64.to_int32 (reg st x))
  | Put (i, 4, I c) ->
      let c = Int64.to_int32 c in
      fun st -> U64.set32 st.stack i c
  | Put (i, 2, R x) ->
      fun st ->
        U64.set16 st.stack i (Int64.to_int (Int64.logand (reg st x) 0xffffL))
  | Put (i, 2, I c) ->
      let c = Int64.to_int (Int64.logand c 0xffffL) in
      fun st -> U64.set16 st.stack i c
  | Put (i, 1, R x) ->
      fun st ->
        U64.set8 st.stack i
          (Char.unsafe_chr (Int64.to_int (Int64.logand (reg st x) 0xffL)))
  | Put (i, 1, I c) ->
      let c = Char.unsafe_chr (Int64.to_int (Int64.logand c 0xffL)) in
      fun st -> U64.set8 st.stack i c
  | Put _ -> invalid_arg "Jit: unnormalised frame store"

(* A taken-or-not step charging [k] instructions; inlined into each
   branch body below. *)
let[@inline always] jump st k taken (jt : op) (jf : op) =
  charge st k;
  if taken then jt st else jf st

(* A conditional branch charging [k] instructions, the comparison inlined
   into the branch body. The five negated predicates become their
   complement with the targets swapped, so six predicates cover all eleven;
   operands are normalised to a register or slot against a register or
   immediate ({!branch_operands}). *)
let branch k c a b (jt : op) (jf : op) : op =
  let p, jt, jf =
    match c with
    | Insn.Ne -> (Insn.Eq, jf, jt)
    | Insn.Ge -> (Insn.Lt, jf, jt)
    | Insn.Le -> (Insn.Gt, jf, jt)
    | Insn.Sge -> (Insn.Slt, jf, jt)
    | Insn.Sle -> (Insn.Sgt, jf, jt)
    | c -> (c, jt, jf)
  in
  match (a, b) with
  | R x, R y -> (
      match p with
      | Insn.Eq -> fun st -> jump st k (Int64.equal (reg st x) (reg st y)) jt jf
      | Insn.Lt -> fun st -> jump st k (U64.ult (reg st x) (reg st y)) jt jf
      | Insn.Gt -> fun st -> jump st k (U64.ult (reg st y) (reg st x)) jt jf
      | Insn.Slt -> fun st -> jump st k ((reg st x : int64) < (reg st y)) jt jf
      | Insn.Sgt -> fun st -> jump st k ((reg st x : int64) > (reg st y)) jt jf
      | _ ->
          fun st -> jump st k (Int64.logand (reg st x) (reg st y) <> 0L) jt jf)
  | S x, R y -> (
      match p with
      | Insn.Eq ->
          fun st -> jump st k (Int64.equal (slot st x) (reg st y)) jt jf
      | Insn.Lt -> fun st -> jump st k (U64.ult (slot st x) (reg st y)) jt jf
      | Insn.Gt -> fun st -> jump st k (U64.ult (reg st y) (slot st x)) jt jf
      | Insn.Slt -> fun st -> jump st k ((slot st x : int64) < (reg st y)) jt jf
      | Insn.Sgt -> fun st -> jump st k ((slot st x : int64) > (reg st y)) jt jf
      | _ ->
          fun st -> jump st k (Int64.logand (slot st x) (reg st y) <> 0L) jt jf)
  | R x, I c -> (
      match p with
      | Insn.Eq -> fun st -> jump st k (Int64.equal (reg st x) c) jt jf
      | Insn.Lt -> fun st -> jump st k (U64.ult (reg st x) c) jt jf
      | Insn.Gt -> fun st -> jump st k (U64.ult c (reg st x)) jt jf
      | Insn.Slt -> fun st -> jump st k ((reg st x : int64) < c) jt jf
      | Insn.Sgt -> fun st -> jump st k ((reg st x : int64) > c) jt jf
      | _ -> fun st -> jump st k (Int64.logand (reg st x) c <> 0L) jt jf)
  | S x, I c -> (
      match p with
      | Insn.Eq -> fun st -> jump st k (Int64.equal (slot st x) c) jt jf
      | Insn.Lt -> fun st -> jump st k (U64.ult (slot st x) c) jt jf
      | Insn.Gt -> fun st -> jump st k (U64.ult c (slot st x)) jt jf
      | Insn.Slt -> fun st -> jump st k ((slot st x : int64) < c) jt jf
      | Insn.Sgt -> fun st -> jump st k ((slot st x : int64) > c) jt jf
      | _ -> fun st -> jump st k (Int64.logand (slot st x) c <> 0L) jt jf)
  | _ -> invalid_arg "Jit: unnormalised branch operands"

(* One closure for a whole pure region: charge [k] insns upfront, apply the
   ops in order, finish with [fin] (a branch or the fall-through entry).
   Short regions get an unrolled body so the common case is a single frame. *)
let region k (effs : op array) (fin : op) : op =
  match effs with
  | [||] ->
      fun st ->
        st.stats.insns <- st.stats.insns + k;
        fin st
  | [| a |] ->
      fun st ->
        st.stats.insns <- st.stats.insns + k;
        a st;
        fin st
  | [| a; b |] ->
      fun st ->
        st.stats.insns <- st.stats.insns + k;
        a st;
        b st;
        fin st
  | [| a; b; c |] ->
      fun st ->
        st.stats.insns <- st.stats.insns + k;
        a st;
        b st;
        c st;
        fin st
  | [| a; b; c; d |] ->
      fun st ->
        st.stats.insns <- st.stats.insns + k;
        a st;
        b st;
        c st;
        d st;
        fin st
  | [| a; b; c; d; e |] ->
      fun st ->
        st.stats.insns <- st.stats.insns + k;
        a st;
        b st;
        c st;
        d st;
        e st;
        fin st
  | [| a; b; c; d; e; f |] ->
      fun st ->
        st.stats.insns <- st.stats.insns + k;
        a st;
        b st;
        c st;
        d st;
        e st;
        f st;
        fin st
  | [| a; b; c; d; e; f; g |] ->
      fun st ->
        st.stats.insns <- st.stats.insns + k;
        a st;
        b st;
        c st;
        d st;
        e st;
        f st;
        g st;
        fin st
  | [| a; b; c; d; e; f; g; h |] ->
      fun st ->
        st.stats.insns <- st.stats.insns + k;
        a st;
        b st;
        c st;
        d st;
        e st;
        f st;
        g st;
        h st;
        fin st
  | _ ->
      fun st ->
        st.stats.insns <- st.stats.insns + k;
        for i = 0 to Array.length effs - 1 do
          (Array.unsafe_get effs i) st
        done;
        fin st

(* --- the net effect of a pure region ------------------------------------ *)

(* Whether a frame access at [r10 + off] lies wholly inside the frame; its
   byte index into the stack is then [Prog.stack_size + off]. *)
let in_frame off sz =
  let i = Prog.stack_size + off in
  i >= 0 && i + Insn.size_bytes sz <= Prog.stack_size

(* Whether an instruction can write the given register — used to prove the
   frame pointer (r10) is never reassigned, which lets stack accesses
   resolve to constant byte indices at compile time. *)
let writes_reg r insn =
  match insn with
  | Insn.Mov (d, _) | Insn.Neg d | Insn.Alu (_, d, _) | Insn.Ldx (_, d, _, _)
  | Insn.Guard (_, d) ->
      ri d = r
  | Insn.Atomic (op, _, _, _, s) -> (
      match op with
      | Insn.Fetch_add | Insn.Fetch_or | Insn.Fetch_and | Insn.Fetch_xor
      | Insn.Xchg ->
          ri s = r
      | Insn.Cmpxchg -> r = 0
      | Insn.Atomic_add | Insn.Atomic_or | Insn.Atomic_and | Insn.Atomic_xor ->
          false)
  | Insn.Call _ -> r = 0
  | Insn.Stx _ | Insn.St _ | Insn.Xstore _ | Insn.Checkpoint _ | Insn.Ja _
  | Insn.Jcond _ | Insn.Exit ->
      false

(* A region member: it cannot fault and observes nothing. Frame accesses
   qualify only under [fp_const] (r10 never written). *)
let is_pure ~fp_const insn =
  match insn with
  | Insn.Mov _ | Insn.Neg _ | Insn.Alu _ -> true
  | Insn.Ldx (sz, _, b, off)
  | Insn.Stx (sz, b, off, _)
  | Insn.St (sz, b, off, _) ->
      fp_const && ri b = 10 && in_frame off sz
  | _ -> false

(* What each register and tracked 64-bit frame slot holds, in the reference
   semantics, at the current point of a region: its own content ([R r] for
   register r, [S i] for slot i — no entry in [slots]), a copy of another
   location's content, or a constant. A location named in a value always
   holds its own content, and the analysis resets every copy of a location
   the moment that location is written. *)
type sym = { rv : v array; mutable slots : (int * v) list }

let own = Array.init 11 (fun r -> R r)
let fresh () = { rv = Array.copy own; slots = [] }

(* back to every location holding its own content *)
let reset s =
  Array.blit own 0 s.rv 0 11;
  s.slots <- []

let slot_v s i =
  match List.assoc_opt i s.slots with Some v -> v | None -> S i

(* the 8-byte slot at [j] shares a byte with [i, i+w) *)
let overlaps j i w = j < i + w && i < j + 8

let write_reg s d v =
  for r = 0 to 10 do
    match s.rv.(r) with R x when x = d && r <> d -> s.rv.(r) <- R r | _ -> ()
  done;
  s.slots <-
    List.filter (fun (_, x) -> match x with R y -> y <> d | _ -> true) s.slots;
  s.rv.(d) <- v

(* Bytes [i, i+w) change; an 8-byte store records the value it stored. *)
let write_stack s i w stored =
  let hit = function S j -> overlaps j i w | _ -> false in
  for r = 0 to 10 do
    if hit s.rv.(r) then s.rv.(r) <- R r
  done;
  s.slots <- List.filter (fun (j, x) -> not (overlaps j i w || hit x)) s.slots;
  match stored with
  | Some v when not (hit v) -> s.slots <- (i, v) :: s.slots
  | _ -> ()

(* [d := v]; nothing to do when [d] already holds that value *)
let set s d v =
  if same_v s.rv.(d) v then None
  else begin
    write_reg s d v;
    Some (Set (d, v))
  end

let store s i w v =
  if w = 8 && same_v (slot_v s i) v then None
  else begin
    write_stack s i w (if w = 8 then Some v else None);
    Some (Put (i, w, v))
  end

let commutes = function
  | Insn.Add | Insn.Mul | Insn.And | Insn.Or | Insn.Xor -> true
  | _ -> false

(* Swap the operands of a comparison. *)
let flip = function
  | Insn.Lt -> Insn.Gt
  | Insn.Gt -> Insn.Lt
  | Insn.Le -> Insn.Ge
  | Insn.Ge -> Insn.Le
  | Insn.Slt -> Insn.Sgt
  | Insn.Sgt -> Insn.Slt
  | Insn.Sle -> Insn.Sge
  | Insn.Sge -> Insn.Sle
  | (Insn.Eq | Insn.Ne | Insn.Set) as c -> c

(* The value an instruction's source operand holds. [orig] is the
   instruction's own operand: reading it is always valid, because the
   write that put its value there is kept whenever a kept op reads it. *)
let src_v s = function Insn.Reg r -> s.rv.(ri r) | Insn.Imm c -> I c
let orig = function Insn.Reg r -> R (ri r) | Insn.Imm c -> I c

(* The shapes with closure bodies: a register or slot against a register
   or immediate. Commutative operators swap into shape; otherwise a
   constant first operand is read from [d] and a slot second operand
   from the instruction's own register. *)
let alu_operands op d a b src =
  let a, b =
    match (a, b) with
    | I _, (R _ | S _) | R _, S _ -> if commutes op then (b, a) else (a, b)
    | _ -> (a, b)
  in
  ((match a with I _ -> R d | _ -> a), match b with S _ -> orig src | _ -> b)

(* One pure instruction's effect on the region's state, as the op that
   performs it ([None] when it changes nothing). *)
let step s insn : ir option =
  match insn with
  | Insn.Mov (d, src) -> set s (ri d) (src_v s src)
  | Insn.Neg d -> (
      let d = ri d in
      match s.rv.(d) with
      | I c -> set s d (I (Int64.neg c))
      | a ->
          let x = match a with R x -> x | _ -> d in
          write_reg s d (R d);
          Some (Neg (d, x)))
  | Insn.Alu (op, d, src) -> (
      let d = ri d in
      match (op, s.rv.(d), src_v s src) with
      | _, I a, I b -> set s d (I (eval_alu op a b))
      | Insn.Div, _, I 0L -> set s d (I 0L)
      | Insn.Mod, a, I 0L -> set s d a
      | _, a, b ->
          let a, b = alu_operands op d a b src in
          write_reg s d (R d);
          Some (Bin (op, d, a, b)))
  | Insn.Ldx (sz, d, _, off) -> (
      let d = ri d and i = Prog.stack_size + off in
      match sz with
      | Insn.U64 -> set s d (slot_v s i)
      | _ ->
          write_reg s d (R d);
          Some (Get (d, i, Insn.size_bytes sz)))
  | Insn.Stx (sz, _, off, r) ->
      let w = Insn.size_bytes sz in
      let v = match s.rv.(ri r) with S _ when w < 8 -> R (ri r) | v -> v in
      store s (Prog.stack_size + off) w v
  | Insn.St (sz, _, off, c) ->
      store s (Prog.stack_size + off) (Insn.size_bytes sz) (I c)
  | Insn.Call name -> (
      match native_of name with
      | Some nat ->
          (* the op sets a constant offset itself, so the write that put
             it in r2 can drop *)
          let c =
            match s.rv.(2) with
            | I c when nat.reads land 0b100 <> 0 -> Some c
            | _ -> None
          in
          write_reg s 0 (R 0);
          Some (Native (nat, c))
      | None -> invalid_arg "Jit: helper call in a region")
  | _ -> invalid_arg "Jit: impure instruction in a region"

(* A folded branch's operands, read in place, normalised to the shapes
   {!branch} has bodies for; [`Taken b] when both are constants. *)
let branch_operands s c a src =
  match (s.rv.(ri a), src_v s src) with
  | I x, I y -> `Taken (eval_cond c x y)
  | (I _ as x), y | (R _ as x), (S _ as y) -> `Test (flip c, y, x)
  | (S _ as x), S _ -> `Test (c, x, orig src)
  | x, y -> `Test (c, x, y)

(* Frame sets: bit [b] stands for the 8-byte slot [b + 1], stack bytes
   [8 (b + 1), 8 (b + 1) + 8): every slot of the frame but the lowest,
   which a 63-bit int has no room for, so a store reaching slot 0 is
   always kept. A slot is live when some later read may observe any of
   its bytes. A store overwrites its slot only when it covers all eight
   bytes, so a narrow or unaligned store kills nothing. *)
let slots i w =
  let a = max (i lsr 3) 1 and b = (i + w - 1) lsr 3 in
  if b < a then 0 else ((1 lsl (b - a + 1)) - 1) lsl (a - 1)

let covers i w = w = 8 && i land 7 = 0

(* The ops of [irs] that survive, in order: an op is kept when its
   register is in [live] after it, when some slot it stores to is in the
   frame set [frame] after it, or when it runs a builtin (which charges
   and may write the packet); a kept op's operands become live. [live] and
   [frame] are the sets at the region's exit. An 8-byte store of a
   register that is dead after it merges with the ALU op right before it
   that computes that register, into one slot-destination op. Returns the
   kept ops and the number of stores dropped. *)
let net_effect (irs : ir list) ~live ~frame =
  let live = ref live and frame = ref frame and dropped = ref 0 in
  let read = function
    | R r -> live := !live lor (1 lsl r)
    | S i -> frame := !frame lor slots i 8
    | I _ -> ()
  in
  (* [pending]: the kept ops so far begin with the store of register d
     to byte i, and d is dead after it *)
  let rec go kept pending = function
    | [] -> kept
    | ir :: rest -> (
        let keep =
          match ir with
          | Set (d, _) | Bin (_, d, _, _) | Neg (d, _) | Get (d, _, _) ->
              !live land (1 lsl d) <> 0
          | Put (i, w, _) -> !frame land slots i w <> 0 || i < 8
          | Bin_s _ | Native _ -> true
        in
        if not keep then begin
          (match ir with Put _ -> incr dropped | _ -> ());
          go kept pending rest
        end
        else
          match (ir, pending, kept) with
          | Bin (op, d, a, b), Some (i, d'), _ :: kept when d = d' ->
              (* the store above reads d and nothing else does: write the
                 result straight to the slot; d's old value stays *)
              live := !live land lnot (1 lsl d);
              read a;
              read b;
              go (Bin_s (op, i, a, b) :: kept) None rest
          | _ ->
              let pending =
                match ir with
                | Put (i, 8, R d) when !live land (1 lsl d) = 0 -> Some (i, d)
                | _ -> None
              in
              (* the destination dies before the operands are read: an op
                 may read the register it writes *)
              (match ir with
              | Set (d, _) | Bin (_, d, _, _) | Neg (d, _) | Get (d, _, _) ->
                  live := !live land lnot (1 lsl d)
              | Native (_, None) -> live := !live land lnot 1
              | Native (_, Some _) -> live := !live land lnot 0b101
              | Put (i, w, _) ->
                  if covers i w then frame := !frame land lnot (slots i 8)
              | Bin_s _ -> ());
              (match ir with
              | Set (_, v) | Put (_, _, v) -> read v
              | Bin (_, _, a, b) | Bin_s (_, _, a, b) ->
                  read a;
                  read b
              | Native (nat, c) ->
                  let r2 = if c = None then 0 else 0b100 in
                  live := !live lor (nat.reads land lnot r2)
              | Neg (_, x) -> read (R x)
              | Get (_, i, w) -> frame := !frame lor slots i w);
              go (ir :: kept) pending rest)
  in
  let kept = go [] None (List.rev irs) in
  (kept, !dropped)

(* --- liveness over the instrumented program ----------------------------- *)

(* Per instrumented pc, two words naming what the unwinder ([Vm.unwind])
   reads if that pc faults, from its cancellation point's object table
   ([tables.(orig_of_new.(pc))]): at [2 * pc] the registers (a bitmask
   over r0–r10), at [2 * pc + 1] the frame slots as a frame set
   ({!slots}; [L_slot i] is stack bytes [8i, 8i + 8), and slot 0, whose
   stores are always kept, has no bit). *)
let unwind_locs (kie : Kflex_kie.Instrument.t) =
  let orig = kie.Kflex_kie.Instrument.orig_of_new in
  let u = Array.make (2 * Array.length orig) 0 in
  let rec add pc = function
    | [] -> ()
    | (e : Kflex_kie.Instrument.obj_entry) :: rest ->
        (match e.Kflex_kie.Instrument.loc with
        | Kflex_verifier.State.L_reg r ->
            u.(2 * pc) <- u.(2 * pc) lor (1 lsl ri r)
        | Kflex_verifier.State.L_slot i when i >= 0 && i < 64 ->
            u.((2 * pc) + 1) <- u.((2 * pc) + 1) lor slots (8 * i) 8
        | Kflex_verifier.State.L_slot _ ->
            invalid_arg "Jit: object-table slot outside the frame");
        add pc rest
  in
  for pc = 0 to Array.length orig - 1 do
    add pc kie.Kflex_kie.Instrument.tables.(orig.(pc))
  done;
  u

(* What some later read may observe on entry to each pc. [regs.(pc)]: the
   registers, as bitmasks over r0–r10. An instruction that can fault also
   reads its object-table registers, and a helper-table call reads r0–r5;
   a builtin the fused form runs as a region op reads only its operands
   (r2, and r3 for a write) and cannot fault.

   [frame.(pc)]: the frame slots, as frame sets ({!slots}). A slot is read
   by an in-frame load or atomic at [r10 + off]; by the unwinder, at each
   fault point, as an object-table slot; and, once the frame's address
   escapes ({!Kflex_verifier.Lint.fp_escapes}), by every helper-table call
   and every other memory access, which may reach it through a copied
   pointer. Only in-frame stores at [r10 + off] overwrite a slot. Both
   sets are one int per pc, solved in one fixpoint. *)
type liveness = { regs : int array; frame : int array }

let liveness insns ~pure ~unwind =
  let n = Array.length insns in
  let bit r = 1 lsl ri r in
  let src = function Insn.Reg r -> bit r | Insn.Imm _ -> 0 in
  let bytes off sz = slots (Prog.stack_size + off) (Insn.size_bytes sz) in
  (* int arrays, not [Array.init] over tuples: a major-heap array
     initialised with a young block forces a minor collection, which
     stops every domain in the process. They are few, too: every word
     allocated in the major heap paces major-GC work, which a compile
     pays for. [ud.(pc)]: the registers used, those defined shifted left
     by 11, and from bit 22 the slot a covering in-frame store
     overwrites (0 for none: slot 0 has no bit to kill). *)
  let ud = Array.make n 0 and fuse = Array.make n 0 in
  (* the pcs whose every-slot use below depends on whether the frame
     address escapes, known only after the loop *)
  let escapes = ref false and reach = Bytes.make n '\000' in
  (* a memory access not at a constant frame offset: the whole frame at
     [r10 + off] out of the frame, and otherwise whatever a copy of r10
     reaches *)
  let access pc b =
    if ri b = 10 then -1
    else begin
      Bytes.set reach pc '\001';
      0
    end
  in
  for pc = 0 to n - 1 do
    let insn = insns.(pc) and pure = pure.(pc) in
    if Kflex_verifier.Lint.fp_escapes insn then escapes := true;
    (* registers used and defined, frame slots used, whether a fault here
       hands the object table to the unwinder *)
    let u = ref 0 and d = ref 0 and kill = ref 0 and fu = ref 0 in
    let faults = ref (not pure) in
    (match insn with
    | Insn.Mov (r, s) ->
        u := src s;
        d := bit r
    | Insn.Neg r | Insn.Guard (_, r) ->
        u := bit r;
        d := bit r
    | Insn.Alu (_, r, s) ->
        u := bit r lor src s;
        d := bit r
    | Insn.Ldx (sz, r, b, off) ->
        u := bit b;
        d := bit r;
        if pure then fu := bytes off sz else fu := access pc b
    | Insn.Stx (sz, b, off, s) | Insn.Xstore (sz, b, off, s) ->
        u := bit b lor bit s;
        if pure then begin
          let i = Prog.stack_size + off in
          if covers i (Insn.size_bytes sz) then kill := i lsr 3
        end
        else fu := access pc b
    | Insn.St (sz, b, off, _) ->
        u := bit b;
        if pure then begin
          let i = Prog.stack_size + off in
          if covers i (Insn.size_bytes sz) then kill := i lsr 3
        end
        else fu := access pc b
    | Insn.Atomic (op, sz, b, off, s) ->
        (match op with
        | Insn.Cmpxchg ->
            u := bit b lor bit s lor 1;
            d := 1
        | Insn.Fetch_add | Insn.Fetch_or | Insn.Fetch_and | Insn.Fetch_xor
        | Insn.Xchg ->
            u := bit b lor bit s;
            d := bit s
        | Insn.Atomic_add | Insn.Atomic_or | Insn.Atomic_and
        | Insn.Atomic_xor ->
            u := bit b lor bit s);
        fu := if ri b = 10 && in_frame off sz then bytes off sz else access pc b
    | Insn.Call name ->
        d := 1;
        (match native_of name with
        | Some nat when pure -> u := nat.reads
        | _ ->
            u := 0b111111;
            Bytes.set reach pc '\001')
    | Insn.Jcond (_, a, s, _) ->
        u := bit a lor src s;
        faults := false
    | Insn.Ja _ -> faults := false
    | Insn.Exit ->
        u := 1;
        faults := false
    | Insn.Checkpoint _ -> ());
    if !faults then begin
      u := !u lor unwind.(2 * pc);
      fu := !fu lor unwind.((2 * pc) + 1)
    end;
    ud.(pc) <- !u lor (!d lsl 11) lor (!kill lsl 22);
    fuse.(pc) <- !fu
  done;
  (* once the frame's address escapes, every other memory access and
     helper-table call may read any slot through a copied pointer *)
  if !escapes then
    Bytes.iteri (fun pc r -> if r <> '\000' then fuse.(pc) <- -1) reach;
  (* row [n] stays empty: the exit, and jumps out of the program *)
  let live = Array.make (n + 1) 0 and frame = Array.make (n + 1) 0 in
  let at q = if q >= 0 && q < n then q else n in
  let changed = ref true in
  while !changed do
    changed := false;
    for pc = n - 1 downto 0 do
      let a, b =
        match insns.(pc) with
        | Insn.Ja off -> (at (pc + 1 + off), n)
        | Insn.Jcond (_, _, _, off) -> (at (pc + 1 + off), at (pc + 1))
        | Insn.Exit -> (n, n)
        | _ -> (at (pc + 1), n)
      in
      let u = ud.(pc) in
      let def = (u lsr 11) land 0x7ff and k = u lsr 22 in
      let l = (u land 0x7ff) lor ((live.(a) lor live.(b)) land lnot def) in
      let kill = if k = 0 then 0 else 1 lsl (k - 1) in
      let f = fuse.(pc) lor ((frame.(a) lor frame.(b)) land lnot kill) in
      if l <> live.(pc) || f <> frame.(pc) then begin
        live.(pc) <- l;
        frame.(pc) <- f;
        changed := true
      end
    done
  done;
  { regs = live; frame }

(* --- the shared bodies of the access and checkpoint closures -------------

   Each is forced inline into closures that pass its width [w] and access
   kind [k] as int literals: [k] = 0 loads into register [x], 1 stores
   register [x], 2 stores the immediate [imm]. *)

(* An unfused access at [pc] to [r + off], through the stack and ctx
   windows and then the heap ({!Machine.load}/{!Machine.store}). *)
let[@inline always] access st pc r off w k x imm =
  st.stats.insns <- st.stats.insns + 1;
  st.fault_pc <- pc;
  if k = 0 then
    rset st.regs x (Machine.load st w (Int64.add (rget st.regs r) off))
  else
    Machine.store st w (Int64.add (rget st.regs r) off)
      (if k = 1 then rget st.regs x else imm)

(* A Guard of register [g] at [pc] and the access at [g + off] after it.
   The fused closure must leave state and stats exactly as the two
   standalone closures would at every observation point. Once the heap
   check passes, nothing between the guard's bookkeeping and the access
   can fault (sanitize is total), so the hot path charges both
   instructions in one batch and sets [fault_pc] once, to the access pc —
   any access fault observes exactly the interpreter's counters. The
   guard-only charge survives in the cold wild-pointer branch. The access
   goes straight to the heap's body (see the header comment). A stored
   register is read after sanitizing: when [x] = [g] the stored value is
   the sanitized one, as in the interpreter. *)
let[@inline always] guarded st pc g off w k x imm =
  match st.heap with
  | Some h ->
      let stats = st.stats in
      stats.insns <- stats.insns + 2;
      stats.guards <- stats.guards + 1;
      st.fault_pc <- pc + 1;
      let a = Heap.sanitize h (rget st.regs g) in
      rset st.regs g a;
      if k = 0 then rset st.regs x (Heap.load h w (Int64.add a off))
      else
        Heap.store h w (Int64.add a off) (if k = 1 then rget st.regs x else imm)
  | None ->
      st.stats.insns <- st.stats.insns + 1;
      st.fault_pc <- pc;
      raise (Vm_fault Wild_access)

(* The checkpoint at [t]: charge its instruction when [own] (a closure
   whose region charged it upfront passes [false]), count it, then cancel
   on a raised flag or a spent quantum. *)
let[@inline always] watchdog st t own =
  let s = st.stats in
  if own then s.insns <- s.insns + 1;
  s.checkpoints <- s.checkpoints + 1;
  st.fault_pc <- t;
  if !(st.cancel) then raise (Vm_fault Ext_cancelled);
  if total_cost s - st.start_cost > st.quantum then begin
    st.cancel := true;
    raise (Vm_fault Quantum_expired)
  end

let[@inline always] count_call st =
  let s = st.stats in
  s.insns <- s.insns + 1;
  s.helper_calls <- s.helper_calls + 1

let compile (kie : Kflex_kie.Instrument.t) =
  let unwind = unwind_locs kie in
  let insns = Prog.insns kie.Kflex_kie.Instrument.prog in
  let n = Array.length insns in
  (* r10 keeps its entry value (the frame top) iff nothing ever writes it;
     then frame accesses at [r10 + off] are constant-index and pure. *)
  let fp_const = not (Array.exists (writes_reg 10) insns) in
  (* region members; a packet builtin's call is one too: it cannot fault,
     and nothing observes a run between fault points *)
  let pure =
    Array.map
      (fun insn ->
        is_pure ~fp_const insn
        ||
        match insn with
        | Insn.Call name -> Option.is_some (native_of name)
        | _ -> false)
      insns
  in
  (* helper name -> slot in the per-extension linked table; the native
     builtins run without it *)
  let hidx = Hashtbl.create 8 in
  let horder = ref [] in
  Array.iteri
    (fun pc insn ->
      match insn with
      | Insn.Call name when not (Hashtbl.mem hidx name || pure.(pc)) ->
          Hashtbl.add hidx name (Hashtbl.length hidx);
          horder := name :: !horder
      | _ -> ())
    insns;
  let helper_names = Array.of_list (List.rev !horder) in
  let entries = Array.make (n + 1) dummy in
  let goto pc target : op =
    if target < 0 || target > n then
      invalid_arg "Jit.compile: jump outside the program";
    if target > pc then entries.(target) (* already compiled *)
    else fun st -> (Array.unsafe_get entries target) st
    (* in bounds: target was range-checked above, and [entries] has n+1
       slots precisely so that a jump to the end resolves to [dummy] *)
  in
  let s = fresh () in
  (* an instruction outside every region ({!fuse_region} covers the pure
     ones) *)
  let compile_one pc insn (next : op) : op =
    match insn with
    | Insn.Mov _ | Insn.Neg _ | Insn.Alu _ -> assert false
    | Insn.Ldx (sz, d, s, off) -> (
        let d = ri d and s = ri s and off = Int64.of_int off in
        match sz with
        | Insn.U8 -> fun st -> access st pc s off 1 0 d 0L; next st
        | Insn.U16 -> fun st -> access st pc s off 2 0 d 0L; next st
        | Insn.U32 -> fun st -> access st pc s off 4 0 d 0L; next st
        | Insn.U64 -> fun st -> access st pc s off 8 0 d 0L; next st)
    | Insn.Stx (sz, d, off, s) -> (
        let d = ri d and s = ri s and off = Int64.of_int off in
        match sz with
        | Insn.U8 -> fun st -> access st pc d off 1 1 s 0L; next st
        | Insn.U16 -> fun st -> access st pc d off 2 1 s 0L; next st
        | Insn.U32 -> fun st -> access st pc d off 4 1 s 0L; next st
        | Insn.U64 -> fun st -> access st pc d off 8 1 s 0L; next st)
    | Insn.St (sz, d, off, imm) -> (
        let d = ri d and off = Int64.of_int off in
        match sz with
        | Insn.U8 -> fun st -> access st pc d off 1 2 0 imm; next st
        | Insn.U16 -> fun st -> access st pc d off 2 2 0 imm; next st
        | Insn.U32 -> fun st -> access st pc d off 4 2 0 imm; next st
        | Insn.U64 -> fun st -> access st pc d off 8 2 0 imm; next st)
    | Insn.Xstore (sz, d, off, s) ->
        let w = Insn.size_bytes sz in
        let d = ri d and s = ri s in
        let off = Int64.of_int off in
        fun st ->
          st.stats.insns <- st.stats.insns + 1;
          st.fault_pc <- pc;
          let h =
            match st.heap with
            | Some h -> h
            | None -> raise (Vm_fault Wild_access)
          in
          let v = rget st.regs s in
          let v = if Heap.is_shared h then Heap.translate_user h v else v in
          write st ~width:w (Int64.add (rget st.regs d) off) v;
          next st
    | Insn.Guard (_, r) ->
        let r = ri r in
        fun st ->
          st.stats.insns <- st.stats.insns + 1;
          st.fault_pc <- pc;
          (match st.heap with
          | Some h ->
              st.stats.guards <- st.stats.guards + 1;
              rset st.regs r (Heap.sanitize h (rget st.regs r))
          | None -> raise (Vm_fault Wild_access));
          next st
    | Insn.Checkpoint _ ->
        fun st ->
          watchdog st pc true;
          next st
    | Insn.Atomic (op, sz, d, off, s) ->
        let w = Insn.size_bytes sz in
        let d = ri d and s = ri s in
        let off = Int64.of_int off in
        fun st ->
          st.stats.insns <- st.stats.insns + 1;
          st.fault_pc <- pc;
          let addr = Int64.add (rget st.regs d) off in
          let old = read st ~width:w addr in
          let sv = rget st.regs s in
          (match op with
          | Insn.Atomic_add -> write st ~width:w addr (Int64.add old sv)
          | Insn.Atomic_or -> write st ~width:w addr (Int64.logor old sv)
          | Insn.Atomic_and -> write st ~width:w addr (Int64.logand old sv)
          | Insn.Atomic_xor -> write st ~width:w addr (Int64.logxor old sv)
          | Insn.Fetch_add ->
              write st ~width:w addr (Int64.add old sv);
              rset st.regs s old
          | Insn.Fetch_or ->
              write st ~width:w addr (Int64.logor old sv);
              rset st.regs s old
          | Insn.Fetch_and ->
              write st ~width:w addr (Int64.logand old sv);
              rset st.regs s old
          | Insn.Fetch_xor ->
              write st ~width:w addr (Int64.logxor old sv);
              rset st.regs s old
          | Insn.Xchg ->
              write st ~width:w addr sv;
              rset st.regs s old
          | Insn.Cmpxchg ->
              if old = rget st.regs 0 then write st ~width:w addr sv;
              rset st.regs 0 old);
          next st
    | Insn.Ja off ->
        let k = goto pc (pc + 1 + off) in
        fun st ->
          st.stats.insns <- st.stats.insns + 1;
          k st
    | Insn.Jcond (c, a, s, off) ->
        branch 1 c (R (ri a)) (orig s) (goto pc (pc + 1 + off)) next
    | Insn.Call name ->
        let idx = Hashtbl.find hidx name in
        fun st ->
          count_call st;
          st.fault_pc <- pc;
          call_helper st (Array.unsafe_get st.helpers idx);
          next st
    | Insn.Exit -> fun st -> st.stats.insns <- st.stats.insns + 1
  in
  (* Guard+access superinstructions ({!guarded}) *)
  let fuse_pair pc i1 i2 : op option =
    match (i1, i2) with
    | Insn.Guard (_, g), Insn.Ldx (sz, d, s, off) when ri s = ri g ->
        let g = ri g and d = ri d and off = Int64.of_int off in
        let cont = goto pc (pc + 2) in
        Some
          (match sz with
          | Insn.U8 -> fun st -> guarded st pc g off 1 0 d 0L; cont st
          | Insn.U16 -> fun st -> guarded st pc g off 2 0 d 0L; cont st
          | Insn.U32 -> fun st -> guarded st pc g off 4 0 d 0L; cont st
          | Insn.U64 -> fun st -> guarded st pc g off 8 0 d 0L; cont st)
    | Insn.Guard (_, g), Insn.Stx (sz, d, off, s) when ri d = ri g ->
        let g = ri g and s = ri s and off = Int64.of_int off in
        let cont = goto pc (pc + 2) in
        Some
          (match sz with
          | Insn.U8 -> fun st -> guarded st pc g off 1 1 s 0L; cont st
          | Insn.U16 -> fun st -> guarded st pc g off 2 1 s 0L; cont st
          | Insn.U32 -> fun st -> guarded st pc g off 4 1 s 0L; cont st
          | Insn.U64 -> fun st -> guarded st pc g off 8 1 s 0L; cont st)
    | Insn.Guard (_, g), Insn.St (sz, d, off, imm) when ri d = ri g ->
        let g = ri g and off = Int64.of_int off in
        let cont = goto pc (pc + 2) in
        Some
          (match sz with
          | Insn.U8 -> fun st -> guarded st pc g off 1 2 0 imm; cont st
          | Insn.U16 -> fun st -> guarded st pc g off 2 2 0 imm; cont st
          | Insn.U32 -> fun st -> guarded st pc g off 4 2 0 imm; cont st
          | Insn.U64 -> fun st -> guarded st pc g off 8 2 0 imm; cont st)
    | _ -> None
  in
  (* The checkpoint at [t] as the closing op of a closure rooted at [p],
     and the number of instructions it covers. Its own charge is taken
     upfront with the region's (only pure effects separate the batched
     charge from the check, so the quantum comparison observes exactly the
     interpreter's counters), but a jump folded in after it charges inside
     the closure, after the quantum check: the interpreter would not have
     retired that jump yet if the checkpoint cancels. *)
  let checkpoint_fin p t : op * int =
    let check st = watchdog st t false in
    match if t + 1 < n then insns.(t + 1) else Insn.Exit with
    | Insn.Ja off ->
        let q = t + 2 + off in
        let k = goto p q in
        (* a loop's back edge loads the head's entry itself rather than
           calling [goto]'s fetching closure ([q] is range-checked) *)
        ( (if q > p then fun st ->
             check st;
             st.stats.insns <- st.stats.insns + 1;
             k st
           else fun st ->
             check st;
             st.stats.insns <- st.stats.insns + 1;
             (Array.unsafe_get entries q) st),
          2 )
    | Insn.Jcond (c, a, s, off) ->
        let br =
          branch 1 c (R (ri a)) (orig s) (goto p (t + 2 + off)) (goto p (t + 2))
        in
        ( (fun st ->
            check st;
            br st),
          2 )
    | _ ->
        let k = goto p (t + 1) in
        ( (fun st ->
            check st;
            k st),
          1 )
  in
  let lv = liveness insns ~pure ~unwind in
  (* the registers and frame slots live on entry to any of [qs] *)
  let exit_live qs =
    List.fold_left
      (fun (l, f) q ->
        if q >= 0 && q < n then (l lor lv.regs.(q), f lor lv.frame.(q))
        else (l, f))
      (0, 0) qs
  in
  let region_ops = ref 0 and pure_insns = ref 0 in
  let native_ops = ref 0 and dead_stores = ref 0 in
  (* pure_run.(p): length of the maximal run of pure instructions starting
     at p *)
  let pure_run = Array.make (n + 1) 0 in
  for p = n - 1 downto 0 do
    if pure.(p) then pure_run.(p) <- 1 + pure_run.(p + 1)
  done;
  (* The net-effect region rooted at pure pc [p] and the terminator after
     it: the closure and the number of instructions it covers. *)
  let fuse_region p : op * int =
    let m = pure_run.(p) in
    let t = p + m in
    reset s;
    let irs = List.filter_map (step s) (List.init m (fun k -> insns.(p + k))) in
    let ops (live, frame) =
      let kept, dropped = net_effect irs ~live ~frame in
      region_ops := !region_ops + List.length kept;
      List.iter (function Native _ -> incr native_ops | _ -> ()) kept;
      dead_stores := !dead_stores + dropped;
      pure_insns := !pure_insns + m;
      Array.of_list (List.map op_of_ir kept)
    in
    if t >= n then (region m (ops (exit_live [ t ])) (goto p t), m)
    else
      match insns.(t) with
      | Insn.Jcond (c, a, src, off) -> (
          let jt = t + 1 + off and jf = t + 1 in
          match branch_operands s c a src with
          | `Taken taken ->
              let q = if taken then jt else jf in
              (region (m + 1) (ops (exit_live [ q ])) (goto p q), m + 1)
          | `Test (c, x, y) -> (
              let br k = branch k c x y (goto p jt) (goto p jf) in
              (* the branch reads its operands in place *)
              let read = function
                | R r -> (1 lsl r, 0)
                | S i -> (0, slots i 8)
                | I _ -> (0, 0)
              in
              let l, f = exit_live [ jt; jf ] in
              let lx, fx = read x and ly, fy = read y in
              match ops (l lor lx lor ly, f lor fx lor fy) with
              | [||] -> (br (m + 1), m + 1)
              | ops -> (region m ops (br 1), m + 1)))
      | Insn.Ja off ->
          (region (m + 1) (ops (exit_live [ t ])) (goto p (t + 1 + off)), m + 1)
      | Insn.Exit ->
          (region (m + 1) (ops (exit_live [ t ])) (fun _ -> ()), m + 1)
      | Insn.Checkpoint _ ->
          let fin, covered = checkpoint_fin p t in
          (region (m + 1) (ops (exit_live [ t ])) fin, m + covered)
      | _ -> (region m (ops (exit_live [ t ])) (goto p t), m)
  in
  (* Which pcs get an entry: pc 0, every jump target, and every pc that
     the closure before it falls through to rather than covers. *)
  let needed = Array.make (n + 1) false in
  needed.(0) <- true;
  Array.iteri
    (fun pc i ->
      List.iter
        (fun q -> if q >= 0 && q <= n then needed.(q) <- true)
        (Insn.jump_targets pc i))
    insns;
  for p = 1 to n - 1 do
    let covered =
      match (insns.(p - 1), insns.(p)) with
      | _, (Insn.Jcond _ | Insn.Ja _ | Insn.Exit | Insn.Checkpoint _)
        when pure.(p - 1) ->
          true
      | Insn.Checkpoint _, (Insn.Ja _ | Insn.Jcond _) -> true
      | ( Insn.Guard (_, g),
          ( Insn.Ldx (_, _, b, _)
          | Insn.Stx (_, b, _, _)
          | Insn.St (_, b, _, _) ) ) ->
          ri b = ri g (* a Guard+access pair ({!fuse_pair}) *)
      | _ -> pure.(p - 1) && pure.(p)
    in
    if not covered then needed.(p) <- true
  done;
  let fused = ref 0 and built = ref 0 in
  for p = n - 1 downto 0 do
    if needed.(p) then begin
      incr built;
      entries.(p) <-
        (match
           if p + 1 < n then fuse_pair p insns.(p) insns.(p + 1) else None
         with
        | Some op ->
            incr fused;
            op
        | None when pure.(p) ->
            let op, covered = fuse_region p in
            fused := !fused + (covered - 1);
            op
        | None -> (
            (* a checkpoint with a jump right behind it (every loop back
               edge after instrumentation) fuses with no pure run in front *)
            match insns.(p) with
            | Insn.Checkpoint _ -> (
                match checkpoint_fin p p with
                | fin, 2 ->
                    incr fused;
                    region 1 [||] fin
                | _ -> compile_one p insns.(p) entries.(p + 1))
            | _ -> compile_one p insns.(p) entries.(p + 1)))
    end
  done;
  {
    entries;
    helper_names;
    fused = !fused;
    closures = !built + !region_ops;
    region_ops = !region_ops;
    pure_insns = !pure_insns;
    native_ops = !native_ops;
    dead_frame_stores = !dead_stores;
  }

let run t (st : state) =
  if Array.length st.helpers < Array.length t.helper_names then
    invalid_arg "Jit.run: helper table not linked";
  t.entries.(0) st
