(* Template JIT: ahead-of-time translation of an instrumented program into
   an array of OCaml closures with direct-threaded dispatch. Each closure
   performs the work of one instruction — or one superinstruction — and
   tail-calls its continuation, so a run is a chain of tail calls with no
   per-insn fetch/decode match and no hook-presence checks. Specialization
   happens at compile time: ALU operators, comparison predicates, and
   memory-access widths are each resolved into a dedicated closure body, so
   the executed code contains no per-instruction operator dispatch.

   Compilation walks the program backwards so that fall-through and
   forward-jump continuations are captured directly; backward jumps (and
   self-loops) fetch their entry at run time. The invariant throughout is
   that [entries.(q)] executes the instruction stream from [q] onward —
   which makes jumps into the middle of a superinstruction automatically
   correct: every covered instruction keeps its own standalone closure.

   Superinstruction fusion:
   - Guard+Load / Guard+Store pairs: the sanitize result is an address
     inside the heap window (kbase >= 2^46, stack/ctx windows < 2^46, and
     the ±32 KB displacement range cannot bridge the gap), so the fused
     closure skips the stack/ctx window tests and goes straight to the
     heap's width-specialized accessor. Fault reasons and order (wild
     access, guard zone, unpopulated page) are unchanged — the specialized
     accessors fall back to the generic checked path for anything unusual.
   - Regions: a maximal run of pure instructions (Mov/Alu/Neg, and frame
     accesses when r10 is provably constant — see below), optionally
     terminated by a jump, exit, or checkpoint, becomes one closure that
     charges the whole run's [insns] upfront and applies the precompiled
     effects in sequence. Pure instructions cannot fault and contain no
     observation points, so batching the charge is unobservable.
   - Terminators: the [Jcond]/[Ja]/[Exit]/[Checkpoint] ending a region is
     folded into the region closure — and a jump directly following a
     checkpoint (the shape instrumentation emits at every loop back edge)
     folds in too, so one closure carries a loop iteration's tail from the
     last pure effect through the quantum check to the branch target.
   - Frame accesses: when no instruction ever writes r10, the frame
     pointer keeps its entry value, so [Ldx]/[Stx]/[St] at [r10 + off]
     with the slot statically inside the frame resolve to constant-index
     accesses on the stack bytes. These cannot fault, making them pure
     region members; out-of-frame offsets keep the generic faulting
     closure.

   Cost accounting is bit-identical to the reference interpreter
   ([Vm.Ref_interp]): guards, checkpoints and helper counters bump in the
   interpreter's order, and fused closures that touch memory batch their
   charge only across fault-free prefixes, so a fault observes the same
   counts. A jump folded in after a checkpoint charges after the quantum
   comparison, exactly where the interpreter would.

   The hooked form ({!compile_hooked}) serves [Vm.exec]'s [on_insn] and
   [on_site] observers: no fusion, and each instruction's standalone
   closure sits behind a prelude that consults the hooks in [state]. *)

open Kflex_bpf
open Machine

type op = state -> unit

type t = {
  entries : op array;
  helper_names : string array;
      (* helper-table slots, in order of first appearance; [run] requires
         [st.helpers] linked at least this long *)
  fused : int;  (* instructions absorbed into superinstructions *)
}

let helper_names t = t.helper_names
let fused_pairs t = t.fused

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

(* The register-only effect of a pure instruction, with the operator
   resolved at compile time into a dedicated closure ([Int64] primitives
   inline; there is no inner operator-closure call at run time). *)
let eff_of insn : op option =
  match insn with
  | Insn.Mov (d, Insn.Imm i) ->
      let d = ri d in
      Some (fun st -> rset st.regs d i)
  | Insn.Mov (d, Insn.Reg r) ->
      let d = ri d and r = ri r in
      Some (fun st -> rset st.regs d (rget st.regs r))
  | Insn.Neg d ->
      let d = ri d in
      Some (fun st -> rset st.regs d (Int64.neg (rget st.regs d)))
  | Insn.Alu (op, d, Insn.Imm i) ->
      let d = ri d in
      Some
        (match op with
        | Insn.Add -> fun st -> rset st.regs d (Int64.add (rget st.regs d) i)
        | Insn.Sub -> fun st -> rset st.regs d (Int64.sub (rget st.regs d) i)
        | Insn.Mul -> fun st -> rset st.regs d (Int64.mul (rget st.regs d) i)
        | Insn.Div ->
            if i = 0L then fun st -> rset st.regs d 0L
            else fun st -> rset st.regs d (U64.udiv (rget st.regs d) i)
        | Insn.Mod ->
            if i = 0L then fun st -> rset st.regs d (rget st.regs d)
            else fun st -> rset st.regs d (U64.urem (rget st.regs d) i)
        | Insn.And -> fun st -> rset st.regs d (Int64.logand (rget st.regs d) i)
        | Insn.Or -> fun st -> rset st.regs d (Int64.logor (rget st.regs d) i)
        | Insn.Xor -> fun st -> rset st.regs d (Int64.logxor (rget st.regs d) i)
        | Insn.Lsh ->
            let sh = Int64.to_int i land 63 in
            fun st -> rset st.regs d (Int64.shift_left (rget st.regs d) sh)
        | Insn.Rsh ->
            let sh = Int64.to_int i land 63 in
            fun st -> rset st.regs d (Int64.shift_right_logical (rget st.regs d) sh)
        | Insn.Arsh ->
            let sh = Int64.to_int i land 63 in
            fun st -> rset st.regs d (Int64.shift_right (rget st.regs d) sh))
  | Insn.Alu (op, d, Insn.Reg r) ->
      let d = ri d and r = ri r in
      Some
        (match op with
        | Insn.Add ->
            fun st -> rset st.regs d (Int64.add (rget st.regs d) (rget st.regs r))
        | Insn.Sub ->
            fun st -> rset st.regs d (Int64.sub (rget st.regs d) (rget st.regs r))
        | Insn.Mul ->
            fun st -> rset st.regs d (Int64.mul (rget st.regs d) (rget st.regs r))
        | Insn.Div ->
            fun st ->
              let b = rget st.regs r in
              rset st.regs d
                (if b = 0L then 0L else U64.udiv (rget st.regs d) b)
        | Insn.Mod ->
            fun st ->
              let b = rget st.regs r in
              if b <> 0L then
                rset st.regs d (U64.urem (rget st.regs d) b)
        | Insn.And ->
            fun st -> rset st.regs d (Int64.logand (rget st.regs d) (rget st.regs r))
        | Insn.Or ->
            fun st -> rset st.regs d (Int64.logor (rget st.regs d) (rget st.regs r))
        | Insn.Xor ->
            fun st -> rset st.regs d (Int64.logxor (rget st.regs d) (rget st.regs r))
        | Insn.Lsh ->
            fun st ->
              rset st.regs d
                (Int64.shift_left (rget st.regs d)
                   (Int64.to_int (rget st.regs r) land 63))
        | Insn.Rsh ->
            fun st ->
              rset st.regs d
                (Int64.shift_right_logical (rget st.regs d)
                   (Int64.to_int (rget st.regs r) land 63))
        | Insn.Arsh ->
            fun st ->
              rset st.regs d
                (Int64.shift_right (rget st.regs d)
                   (Int64.to_int (rget st.regs r) land 63)))
  | _ -> None

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

(* The effect of a stack access at a compile-time-constant frame offset:
   valid only when r10 provably keeps its entry value (see [writes_reg]),
   the base register is r10, and the slot is statically inside the frame —
   then the access cannot fault and is as pure as a register move. The
   closures use {!U64}'s raw (unchecked) byte accessors: the bounds
   obligation is discharged here at compile time by [idx], which only
   admits slots statically inside the frame. *)
let eff_stack insn : op option =
  let idx off sz =
    let i = Prog.stack_size + off in
    if i >= 0 && i + Insn.size_bytes sz <= Prog.stack_size then Some i
    else None
  in
  (* Build each closure after the index match, never as [Option.map (fun i
     -> fun st -> ...)]: that is a two-argument function applied to one,
     and every execution would enter a currying trampoline first. *)
  match insn with
  | Insn.Ldx (sz, d, s, off) when ri s = 10 -> (
      let d = ri d in
      match (sz, idx off sz) with
      | _, None -> None
      | Insn.U8, Some i ->
          Some
            (fun st ->
              rset st.regs d (Int64.of_int (Char.code (U64.get8 st.stack i))))
      | Insn.U16, Some i ->
          Some (fun st -> rset st.regs d (Int64.of_int (U64.get16 st.stack i)))
      | Insn.U32, Some i ->
          Some
            (fun st ->
              rset st.regs d
                (Int64.logand
                   (Int64.of_int32 (U64.get32 st.stack i))
                   0xffff_ffffL))
      | Insn.U64, Some i ->
          Some (fun st -> rset st.regs d (U64.get64 st.stack i)))
  | Insn.Stx (sz, d, off, s) when ri d = 10 -> (
      let s = ri s in
      match (sz, idx off sz) with
      | _, None -> None
      | Insn.U8, Some i ->
          Some
            (fun st ->
              U64.set8 st.stack i
                (Char.chr (Int64.to_int (Int64.logand (rget st.regs s) 0xffL))))
      | Insn.U16, Some i ->
          Some
            (fun st ->
              U64.set16 st.stack i
                (Int64.to_int (Int64.logand (rget st.regs s) 0xffffL)))
      | Insn.U32, Some i ->
          Some
            (fun st -> U64.set32 st.stack i (Int64.to_int32 (rget st.regs s)))
      | Insn.U64, Some i ->
          Some (fun st -> U64.set64 st.stack i (rget st.regs s)))
  | Insn.St (sz, d, off, imm) when ri d = 10 -> (
      match (sz, idx off sz) with
      | _, None -> None
      | Insn.U8, Some i ->
          let c = Char.chr (Int64.to_int (Int64.logand imm 0xffL)) in
          Some (fun st -> U64.set8 st.stack i c)
      | Insn.U16, Some i ->
          let v = Int64.to_int (Int64.logand imm 0xffffL) in
          Some (fun st -> U64.set16 st.stack i v)
      | Insn.U32, Some i ->
          let v = Int64.to_int32 imm in
          Some (fun st -> U64.set32 st.stack i v)
      | Insn.U64, Some i -> Some (fun st -> U64.set64 st.stack i imm))
  | _ -> None

(* Compile-time-specialized condition test for [Jcond]. *)
let cond_test c a s : state -> bool =
  let a = ri a in
  match s with
  | Insn.Imm i -> (
      match c with
      | Insn.Eq -> fun st -> Int64.equal (rget st.regs a) i
      | Insn.Ne -> fun st -> not (Int64.equal (rget st.regs a) i)
      | Insn.Lt -> fun st -> Int64.unsigned_compare (rget st.regs a) i < 0
      | Insn.Le -> fun st -> Int64.unsigned_compare (rget st.regs a) i <= 0
      | Insn.Gt -> fun st -> Int64.unsigned_compare (rget st.regs a) i > 0
      | Insn.Ge -> fun st -> Int64.unsigned_compare (rget st.regs a) i >= 0
      | Insn.Slt -> fun st -> Int64.compare (rget st.regs a) i < 0
      | Insn.Sle -> fun st -> Int64.compare (rget st.regs a) i <= 0
      | Insn.Sgt -> fun st -> Int64.compare (rget st.regs a) i > 0
      | Insn.Sge -> fun st -> Int64.compare (rget st.regs a) i >= 0
      | Insn.Set -> fun st -> Int64.logand (rget st.regs a) i <> 0L)
  | Insn.Reg r -> (
      let r = ri r in
      match c with
      | Insn.Eq -> fun st -> Int64.equal (rget st.regs a) (rget st.regs r)
      | Insn.Ne -> fun st -> not (Int64.equal (rget st.regs a) (rget st.regs r))
      | Insn.Lt ->
          fun st -> Int64.unsigned_compare (rget st.regs a) (rget st.regs r) < 0
      | Insn.Le ->
          fun st -> Int64.unsigned_compare (rget st.regs a) (rget st.regs r) <= 0
      | Insn.Gt ->
          fun st -> Int64.unsigned_compare (rget st.regs a) (rget st.regs r) > 0
      | Insn.Ge ->
          fun st -> Int64.unsigned_compare (rget st.regs a) (rget st.regs r) >= 0
      | Insn.Slt -> fun st -> Int64.compare (rget st.regs a) (rget st.regs r) < 0
      | Insn.Sle -> fun st -> Int64.compare (rget st.regs a) (rget st.regs r) <= 0
      | Insn.Sgt -> fun st -> Int64.compare (rget st.regs a) (rget st.regs r) > 0
      | Insn.Sge -> fun st -> Int64.compare (rget st.regs a) (rget st.regs r) >= 0
      | Insn.Set ->
          fun st -> Int64.logand (rget st.regs a) (rget st.regs r) <> 0L)

(* A complete conditional-branch closure with the comparison inlined into
   the branch body — one closure call fewer per taken branch than routing
   through a {!cond_test} closure. Charges its own instruction. *)
let jcond_op c a s (jt : op) (jf : op) : op =
  let a = ri a in
  match s with
  | Insn.Imm i -> (
      match c with
      | Insn.Eq ->
          fun st ->
            st.stats.insns <- st.stats.insns + 1;
            if Int64.equal (rget st.regs a) i then jt st else jf st
      | Insn.Ne ->
          fun st ->
            st.stats.insns <- st.stats.insns + 1;
            if Int64.equal (rget st.regs a) i then jf st else jt st
      | Insn.Lt ->
          fun st ->
            st.stats.insns <- st.stats.insns + 1;
            if Int64.unsigned_compare (rget st.regs a) i < 0 then jt st
            else jf st
      | Insn.Le ->
          fun st ->
            st.stats.insns <- st.stats.insns + 1;
            if Int64.unsigned_compare (rget st.regs a) i <= 0 then jt st
            else jf st
      | Insn.Gt ->
          fun st ->
            st.stats.insns <- st.stats.insns + 1;
            if Int64.unsigned_compare (rget st.regs a) i > 0 then jt st
            else jf st
      | Insn.Ge ->
          fun st ->
            st.stats.insns <- st.stats.insns + 1;
            if Int64.unsigned_compare (rget st.regs a) i >= 0 then jt st
            else jf st
      | Insn.Slt ->
          fun st ->
            st.stats.insns <- st.stats.insns + 1;
            if Int64.compare (rget st.regs a) i < 0 then jt st else jf st
      | Insn.Sle ->
          fun st ->
            st.stats.insns <- st.stats.insns + 1;
            if Int64.compare (rget st.regs a) i <= 0 then jt st else jf st
      | Insn.Sgt ->
          fun st ->
            st.stats.insns <- st.stats.insns + 1;
            if Int64.compare (rget st.regs a) i > 0 then jt st else jf st
      | Insn.Sge ->
          fun st ->
            st.stats.insns <- st.stats.insns + 1;
            if Int64.compare (rget st.regs a) i >= 0 then jt st else jf st
      | Insn.Set ->
          fun st ->
            st.stats.insns <- st.stats.insns + 1;
            if Int64.logand (rget st.regs a) i <> 0L then jt st else jf st)
  | Insn.Reg r -> (
      let r = ri r in
      match c with
      | Insn.Eq ->
          fun st ->
            st.stats.insns <- st.stats.insns + 1;
            if Int64.equal (rget st.regs a) (rget st.regs r) then jt st
            else jf st
      | Insn.Ne ->
          fun st ->
            st.stats.insns <- st.stats.insns + 1;
            if Int64.equal (rget st.regs a) (rget st.regs r) then jf st
            else jt st
      | Insn.Lt ->
          fun st ->
            st.stats.insns <- st.stats.insns + 1;
            if Int64.unsigned_compare (rget st.regs a) (rget st.regs r) < 0
            then jt st
            else jf st
      | Insn.Le ->
          fun st ->
            st.stats.insns <- st.stats.insns + 1;
            if Int64.unsigned_compare (rget st.regs a) (rget st.regs r) <= 0
            then jt st
            else jf st
      | Insn.Gt ->
          fun st ->
            st.stats.insns <- st.stats.insns + 1;
            if Int64.unsigned_compare (rget st.regs a) (rget st.regs r) > 0
            then jt st
            else jf st
      | Insn.Ge ->
          fun st ->
            st.stats.insns <- st.stats.insns + 1;
            if Int64.unsigned_compare (rget st.regs a) (rget st.regs r) >= 0
            then jt st
            else jf st
      | Insn.Slt ->
          fun st ->
            st.stats.insns <- st.stats.insns + 1;
            if Int64.compare (rget st.regs a) (rget st.regs r) < 0 then jt st
            else jf st
      | Insn.Sle ->
          fun st ->
            st.stats.insns <- st.stats.insns + 1;
            if Int64.compare (rget st.regs a) (rget st.regs r) <= 0 then jt st
            else jf st
      | Insn.Sgt ->
          fun st ->
            st.stats.insns <- st.stats.insns + 1;
            if Int64.compare (rget st.regs a) (rget st.regs r) > 0 then jt st
            else jf st
      | Insn.Sge ->
          fun st ->
            st.stats.insns <- st.stats.insns + 1;
            if Int64.compare (rget st.regs a) (rget st.regs r) >= 0 then jt st
            else jf st
      | Insn.Set ->
          fun st ->
            st.stats.insns <- st.stats.insns + 1;
            if Int64.logand (rget st.regs a) (rget st.regs r) <> 0L then jt st
            else jf st)

(* One closure for a whole pure region: charge [k] insns upfront, apply the
   effects in order, finish with [fin] (a branch or the fall-through entry).
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
  | [| a; b; c; d; e; f; g; h; i |] ->
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
        i st;
        fin st
  | [| a; b; c; d; e; f; g; h; i; j |] ->
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
        i st;
        j st;
        fin st
  | _ ->
      fun st ->
        st.stats.insns <- st.stats.insns + k;
        for i = 0 to Array.length effs - 1 do
          (Array.unsafe_get effs i) st
        done;
        fin st

(* --- observation preludes (the hooked form) ------------------------------ *)

(* The base register, displacement and width of a memory access: its
   address decides at run time whether it is a cancellation site. *)
let access_of insn =
  match insn with
  | Insn.Ldx (sz, _, b, off)
  | Insn.Stx (sz, b, off, _)
  | Insn.St (sz, b, off, _)
  | Insn.Xstore (sz, b, off, _)
  | Insn.Atomic (_, sz, b, off, _) ->
      Some (ri b, Int64.of_int off, Insn.size_bytes sz)
  | _ -> None

let[@inline always] observe st pc =
  match st.on_insn with
  | Some f ->
      sync_snap st;
      f pc st.reg_snap
  | None -> ()

(* [on_insn] sees the registers before the instruction is charged. An
   access whose address leaves the stack and ctx windows is a site, and
   [on_site] sees it with the access's [insns] charge already taken — the
   deterministic reaper derives its clock from that cost. The access
   closure charges the instruction itself, so the prelude hands the unit
   back unless the site cancels. *)
let prelude pc insn (op : op) : op =
  match access_of insn with
  | None ->
      fun st ->
        observe st pc;
        op st
  | Some (b, off, w) ->
      fun st ->
        observe st pc;
        (match st.on_site with
        | Some f ->
            let addr = Int64.add (rget st.regs b) off in
            if
              not
                (in_window stack_base Prog.stack_size addr w
                || in_window ctx_base st.ctx_size addr w)
            then begin
              let s = st.stats in
              s.insns <- s.insns + 1;
              if f () then begin
                st.fault_pc <- pc;
                raise (Vm_fault Ext_cancelled)
              end;
              s.insns <- s.insns - 1
            end
        | None -> ());
        op st

(* A checkpoint's site follows its watchdog check: it is the continuation
   of the checkpoint closure, which has already set [fault_pc]. *)
let site_after (next : op) : op =
 fun st ->
  (match st.on_site with
  | Some f -> if f () then raise (Vm_fault Ext_cancelled)
  | None -> ());
  next st

let build form prog =
  let insns = Prog.insns prog in
  let n = Array.length insns in
  (* r10 keeps its entry value (the frame top) iff nothing ever writes it;
     then [eff_stack] may turn frame accesses into constant-index loads. *)
  let fp_const = not (Array.exists (writes_reg 10) insns) in
  let eff_any insn =
    match eff_of insn with
    | Some _ as e -> e
    | None -> if fp_const then eff_stack insn else None
  in
  (* helper name -> slot in the per-extension linked table *)
  let hidx = Hashtbl.create 8 in
  let horder = ref [] in
  Array.iter
    (function
      | Insn.Call name when not (Hashtbl.mem hidx name) ->
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
  (* Hand-fused effects for adjacent 64-bit frame accesses: one closure
     retires two stack-resident instructions, halving the per-effect call
     overhead in the spill/reload runs that dominate compiled extension
     code. A store-forward pair (store then reload of the same slot) skips
     the memory round-trip; distinct-slot pairs sequence both raw accesses
     in one body, which preserves ordering for any overlap. Valid only
     under [fp_const], same as {!eff_stack}. *)
  let sidx off w =
    let i = Prog.stack_size + off in
    if i >= 0 && i + w <= Prog.stack_size then Some i else None
  in
  let eff2 i1 i2 : op option =
    match (i1, i2) with
    (* d <- x op y: a move feeding an ALU op on the same register — the
       address-computation idiom compilers emit constantly. The second
       operand must not be [Reg d] (it would read the moved value); both
       operands are fetched inside one closure, and an all-immediate form
       constant-folds at compile time. Only the wrap-safe operators get
       arms; Div/Mod/shifts keep their standalone effects. *)
    | Insn.Mov (d, m), Insn.Alu (op, d2, a) when ri d = ri d2 -> (
        let d = ri d in
        match (op, m, a) with
        | _, _, Insn.Reg s when ri s = d -> None
        | Insn.Add, Insn.Reg r, Insn.Imm i ->
            let r = ri r in
            Some (fun st -> rset st.regs d (Int64.add (rget st.regs r) i))
        | Insn.Add, Insn.Reg r, Insn.Reg s ->
            let r = ri r and s = ri s in
            Some
              (fun st ->
                rset st.regs d (Int64.add (rget st.regs r) (rget st.regs s)))
        | Insn.Add, Insn.Imm i, Insn.Reg s ->
            let s = ri s in
            Some (fun st -> rset st.regs d (Int64.add i (rget st.regs s)))
        | Insn.Add, Insn.Imm i, Insn.Imm j ->
            let v = Int64.add i j in
            Some (fun st -> rset st.regs d v)
        | Insn.Sub, Insn.Reg r, Insn.Imm i ->
            let r = ri r in
            Some (fun st -> rset st.regs d (Int64.sub (rget st.regs r) i))
        | Insn.Sub, Insn.Reg r, Insn.Reg s ->
            let r = ri r and s = ri s in
            Some
              (fun st ->
                rset st.regs d (Int64.sub (rget st.regs r) (rget st.regs s)))
        | Insn.Sub, Insn.Imm i, Insn.Reg s ->
            let s = ri s in
            Some (fun st -> rset st.regs d (Int64.sub i (rget st.regs s)))
        | Insn.Sub, Insn.Imm i, Insn.Imm j ->
            let v = Int64.sub i j in
            Some (fun st -> rset st.regs d v)
        | Insn.Mul, Insn.Reg r, Insn.Imm i ->
            let r = ri r in
            Some (fun st -> rset st.regs d (Int64.mul (rget st.regs r) i))
        | Insn.Mul, Insn.Reg r, Insn.Reg s ->
            let r = ri r and s = ri s in
            Some
              (fun st ->
                rset st.regs d (Int64.mul (rget st.regs r) (rget st.regs s)))
        | Insn.Mul, Insn.Imm i, Insn.Reg s ->
            let s = ri s in
            Some (fun st -> rset st.regs d (Int64.mul i (rget st.regs s)))
        | Insn.Mul, Insn.Imm i, Insn.Imm j ->
            let v = Int64.mul i j in
            Some (fun st -> rset st.regs d v)
        | Insn.And, Insn.Reg r, Insn.Imm i ->
            let r = ri r in
            Some (fun st -> rset st.regs d (Int64.logand (rget st.regs r) i))
        | Insn.And, Insn.Reg r, Insn.Reg s ->
            let r = ri r and s = ri s in
            Some
              (fun st ->
                rset st.regs d
                  (Int64.logand (rget st.regs r) (rget st.regs s)))
        | Insn.And, Insn.Imm i, Insn.Reg s ->
            let s = ri s in
            Some (fun st -> rset st.regs d (Int64.logand i (rget st.regs s)))
        | Insn.And, Insn.Imm i, Insn.Imm j ->
            let v = Int64.logand i j in
            Some (fun st -> rset st.regs d v)
        | Insn.Or, Insn.Reg r, Insn.Imm i ->
            let r = ri r in
            Some (fun st -> rset st.regs d (Int64.logor (rget st.regs r) i))
        | Insn.Or, Insn.Reg r, Insn.Reg s ->
            let r = ri r and s = ri s in
            Some
              (fun st ->
                rset st.regs d (Int64.logor (rget st.regs r) (rget st.regs s)))
        | Insn.Or, Insn.Imm i, Insn.Reg s ->
            let s = ri s in
            Some (fun st -> rset st.regs d (Int64.logor i (rget st.regs s)))
        | Insn.Or, Insn.Imm i, Insn.Imm j ->
            let v = Int64.logor i j in
            Some (fun st -> rset st.regs d v)
        | Insn.Xor, Insn.Reg r, Insn.Imm i ->
            let r = ri r in
            Some (fun st -> rset st.regs d (Int64.logxor (rget st.regs r) i))
        | Insn.Xor, Insn.Reg r, Insn.Reg s ->
            let r = ri r and s = ri s in
            Some
              (fun st ->
                rset st.regs d
                  (Int64.logxor (rget st.regs r) (rget st.regs s)))
        | Insn.Xor, Insn.Imm i, Insn.Reg s ->
            let s = ri s in
            Some (fun st -> rset st.regs d (Int64.logxor i (rget st.regs s)))
        | Insn.Xor, Insn.Imm i, Insn.Imm j ->
            let v = Int64.logxor i j in
            Some (fun st -> rset st.regs d v)
        | _ -> None)
    | _ when not fp_const -> None
    | _ -> (
      match (i1, i2) with
      | Insn.Stx (Insn.U64, d1, o1, s1), Insn.Ldx (Insn.U64, d2, s2, o2)
        when ri d1 = 10 && ri s2 = 10 -> (
          match (sidx o1 8, sidx o2 8) with
          | Some i, Some j ->
              let s1 = ri s1 and d2 = ri d2 in
              if o1 = o2 then
                Some
                  (fun st ->
                    let v = rget st.regs s1 in
                    U64.set64 st.stack i v;
                    rset st.regs d2 v)
              else
                Some
                  (fun st ->
                    U64.set64 st.stack i (rget st.regs s1);
                    rset st.regs d2 (U64.get64 st.stack j))
          | _ -> None)
      | Insn.Ldx (Insn.U64, d1, s1, o1), Insn.Ldx (Insn.U64, d2, s2, o2)
        when ri s1 = 10 && ri s2 = 10 -> (
          match (sidx o1 8, sidx o2 8) with
          | Some i, Some j ->
              (* d1 <> r10 under [fp_const], so the second load's base is
                 unaffected by the first load's write-back *)
              let d1 = ri d1 and d2 = ri d2 in
              Some
                (fun st ->
                  rset st.regs d1 (U64.get64 st.stack i);
                  rset st.regs d2 (U64.get64 st.stack j))
          | _ -> None)
      | Insn.Stx (Insn.U64, d1, o1, s1), Insn.Stx (Insn.U64, d2, o2, s2)
        when ri d1 = 10 && ri d2 = 10 -> (
          match (sidx o1 8, sidx o2 8) with
          | Some i, Some j ->
              let s1 = ri s1 and s2 = ri s2 in
              Some
                (fun st ->
                  U64.set64 st.stack i (rget st.regs s1);
                  U64.set64 st.stack j (rget st.regs s2))
          | _ -> None)
      | _ -> None)
  in
  (* pure_run.(p): length of the maximal run of register-pure instructions
     starting at p — region-fusion candidates *)
  let pure_run = Array.make (n + 1) 0 in
  for p = n - 1 downto 0 do
    if Option.is_some (eff_any insns.(p)) then
      pure_run.(p) <- 1 + pure_run.(p + 1)
  done;
  let compile_one pc insn (next : op) : op =
    match eff_any insn with
    | Some eff ->
        fun st ->
          st.stats.insns <- st.stats.insns + 1;
          eff st;
          next st
    | None -> (
        match insn with
        | Insn.Mov _ | Insn.Neg _ | Insn.Alu _ -> assert false
        | Insn.Ldx (sz, d, s, off) -> (
            let d = ri d and s = ri s in
            let off = Int64.of_int off in
            match sz with
            | Insn.U8 ->
                fun st ->
                  st.stats.insns <- st.stats.insns + 1;
                  st.fault_pc <- pc;
                  rset st.regs d (read8 st (Int64.add (rget st.regs s) off));
                  next st
            | Insn.U16 ->
                fun st ->
                  st.stats.insns <- st.stats.insns + 1;
                  st.fault_pc <- pc;
                  rset st.regs d (read16 st (Int64.add (rget st.regs s) off));
                  next st
            | Insn.U32 ->
                fun st ->
                  st.stats.insns <- st.stats.insns + 1;
                  st.fault_pc <- pc;
                  rset st.regs d (read32 st (Int64.add (rget st.regs s) off));
                  next st
            | Insn.U64 ->
                fun st ->
                  st.stats.insns <- st.stats.insns + 1;
                  st.fault_pc <- pc;
                  rset st.regs d (read64 st (Int64.add (rget st.regs s) off));
                  next st)
        | Insn.Stx (sz, d, off, s) -> (
            let d = ri d and s = ri s in
            let off = Int64.of_int off in
            match sz with
            | Insn.U8 ->
                fun st ->
                  st.stats.insns <- st.stats.insns + 1;
                  st.fault_pc <- pc;
                  write8 st (Int64.add (rget st.regs d) off) (rget st.regs s);
                  next st
            | Insn.U16 ->
                fun st ->
                  st.stats.insns <- st.stats.insns + 1;
                  st.fault_pc <- pc;
                  write16 st (Int64.add (rget st.regs d) off) (rget st.regs s);
                  next st
            | Insn.U32 ->
                fun st ->
                  st.stats.insns <- st.stats.insns + 1;
                  st.fault_pc <- pc;
                  write32 st (Int64.add (rget st.regs d) off) (rget st.regs s);
                  next st
            | Insn.U64 ->
                fun st ->
                  st.stats.insns <- st.stats.insns + 1;
                  st.fault_pc <- pc;
                  write64 st (Int64.add (rget st.regs d) off) (rget st.regs s);
                  next st)
        | Insn.St (sz, d, off, imm) -> (
            let d = ri d in
            let off = Int64.of_int off in
            match sz with
            | Insn.U8 ->
                fun st ->
                  st.stats.insns <- st.stats.insns + 1;
                  st.fault_pc <- pc;
                  write8 st (Int64.add (rget st.regs d) off) imm;
                  next st
            | Insn.U16 ->
                fun st ->
                  st.stats.insns <- st.stats.insns + 1;
                  st.fault_pc <- pc;
                  write16 st (Int64.add (rget st.regs d) off) imm;
                  next st
            | Insn.U32 ->
                fun st ->
                  st.stats.insns <- st.stats.insns + 1;
                  st.fault_pc <- pc;
                  write32 st (Int64.add (rget st.regs d) off) imm;
                  next st
            | Insn.U64 ->
                fun st ->
                  st.stats.insns <- st.stats.insns + 1;
                  st.fault_pc <- pc;
                  write64 st (Int64.add (rget st.regs d) off) imm;
                  next st)
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
              let s = st.stats in
              s.insns <- s.insns + 1;
              s.checkpoints <- s.checkpoints + 1;
              st.fault_pc <- pc;
              if !(st.cancel) then raise (Vm_fault Ext_cancelled);
              if total_cost s - st.start_cost > st.quantum then begin
                st.cancel := true;
                raise (Vm_fault Quantum_expired)
              end;
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
            jcond_op c a s (goto pc (pc + 1 + off)) next
        | Insn.Call name ->
            let idx = Hashtbl.find hidx name in
            fun st ->
              let s = st.stats in
              s.insns <- s.insns + 1;
              s.helper_calls <- s.helper_calls + 1;
              st.fault_pc <- pc;
              call_helper st (Array.unsafe_get st.helpers idx);
              next st
        | Insn.Exit -> fun st -> st.stats.insns <- st.stats.insns + 1)
  in
  (* Guard+access superinstructions. The fused closure must leave state and
     stats exactly as the two standalone closures would at every observation
     point. Once the heap check passes, nothing between the guard's
     bookkeeping and the access can fault (sanitize is total), so the hot
     path charges both instructions in one batch and sets [fault_pc] once,
     to the access pc — any access fault observes exactly the interpreter's
     counters. The guard-only charge survives in the cold wild-pointer
     branch. The access goes straight to the heap's width-specialized
     accessor (see the header comment). *)
  let fuse_pair pc i1 i2 : op option =
    match (i1, i2) with
    | Insn.Guard (_, g), Insn.Ldx (sz, d, s, off) when ri s = ri g ->
        let g = ri g and d = ri d in
        let off = Int64.of_int off in
        let cont = goto pc (pc + 2) in
        Some
          (match sz with
          | Insn.U8 ->
              fun st ->
                (match st.heap with
                | Some h ->
                    let stats = st.stats in
                    stats.insns <- stats.insns + 2;
                    stats.guards <- stats.guards + 1;
                    st.fault_pc <- pc + 1;
                    let a = Heap.sanitize h (rget st.regs g) in
                    rset st.regs g a;
                    rset st.regs d (Heap.read8 h (Int64.add a off))
                | None ->
                    st.stats.insns <- st.stats.insns + 1;
                    st.fault_pc <- pc;
                    raise (Vm_fault Wild_access));
                cont st
          | Insn.U16 ->
              fun st ->
                (match st.heap with
                | Some h ->
                    let stats = st.stats in
                    stats.insns <- stats.insns + 2;
                    stats.guards <- stats.guards + 1;
                    st.fault_pc <- pc + 1;
                    let a = Heap.sanitize h (rget st.regs g) in
                    rset st.regs g a;
                    rset st.regs d (Heap.read16 h (Int64.add a off))
                | None ->
                    st.stats.insns <- st.stats.insns + 1;
                    st.fault_pc <- pc;
                    raise (Vm_fault Wild_access));
                cont st
          | Insn.U32 ->
              fun st ->
                (match st.heap with
                | Some h ->
                    let stats = st.stats in
                    stats.insns <- stats.insns + 2;
                    stats.guards <- stats.guards + 1;
                    st.fault_pc <- pc + 1;
                    let a = Heap.sanitize h (rget st.regs g) in
                    rset st.regs g a;
                    rset st.regs d (Heap.read32 h (Int64.add a off))
                | None ->
                    st.stats.insns <- st.stats.insns + 1;
                    st.fault_pc <- pc;
                    raise (Vm_fault Wild_access));
                cont st
          | Insn.U64 ->
              fun st ->
                (match st.heap with
                | Some h ->
                    let stats = st.stats in
                    stats.insns <- stats.insns + 2;
                    stats.guards <- stats.guards + 1;
                    st.fault_pc <- pc + 1;
                    let a = Heap.sanitize h (rget st.regs g) in
                    rset st.regs g a;
                    rset st.regs d (Heap.read64 h (Int64.add a off))
                | None ->
                    st.stats.insns <- st.stats.insns + 1;
                    st.fault_pc <- pc;
                    raise (Vm_fault Wild_access));
                cont st)
    | Insn.Guard (_, g), Insn.Stx (sz, d, off, s) when ri d = ri g ->
        let g = ri g and s = ri s in
        let off = Int64.of_int off in
        let cont = goto pc (pc + 2) in
        (* the source register is read after sanitizing: when s = g the
           stored value is the sanitized one, as in the interpreter *)
        Some
          (match sz with
          | Insn.U8 ->
              fun st ->
                (match st.heap with
                | Some h ->
                    let stats = st.stats in
                    stats.insns <- stats.insns + 2;
                    stats.guards <- stats.guards + 1;
                    st.fault_pc <- pc + 1;
                    let a = Heap.sanitize h (rget st.regs g) in
                    rset st.regs g a;
                    Heap.write8 h (Int64.add a off) (rget st.regs s)
                | None ->
                    st.stats.insns <- st.stats.insns + 1;
                    st.fault_pc <- pc;
                    raise (Vm_fault Wild_access));
                cont st
          | Insn.U16 ->
              fun st ->
                (match st.heap with
                | Some h ->
                    let stats = st.stats in
                    stats.insns <- stats.insns + 2;
                    stats.guards <- stats.guards + 1;
                    st.fault_pc <- pc + 1;
                    let a = Heap.sanitize h (rget st.regs g) in
                    rset st.regs g a;
                    Heap.write16 h (Int64.add a off) (rget st.regs s)
                | None ->
                    st.stats.insns <- st.stats.insns + 1;
                    st.fault_pc <- pc;
                    raise (Vm_fault Wild_access));
                cont st
          | Insn.U32 ->
              fun st ->
                (match st.heap with
                | Some h ->
                    let stats = st.stats in
                    stats.insns <- stats.insns + 2;
                    stats.guards <- stats.guards + 1;
                    st.fault_pc <- pc + 1;
                    let a = Heap.sanitize h (rget st.regs g) in
                    rset st.regs g a;
                    Heap.write32 h (Int64.add a off) (rget st.regs s)
                | None ->
                    st.stats.insns <- st.stats.insns + 1;
                    st.fault_pc <- pc;
                    raise (Vm_fault Wild_access));
                cont st
          | Insn.U64 ->
              fun st ->
                (match st.heap with
                | Some h ->
                    let stats = st.stats in
                    stats.insns <- stats.insns + 2;
                    stats.guards <- stats.guards + 1;
                    st.fault_pc <- pc + 1;
                    let a = Heap.sanitize h (rget st.regs g) in
                    rset st.regs g a;
                    Heap.write64 h (Int64.add a off) (rget st.regs s)
                | None ->
                    st.stats.insns <- st.stats.insns + 1;
                    st.fault_pc <- pc;
                    raise (Vm_fault Wild_access));
                cont st)
    | Insn.Guard (_, g), Insn.St (sz, d, off, imm) when ri d = ri g ->
        let g = ri g in
        let off = Int64.of_int off in
        let cont = goto pc (pc + 2) in
        Some
          (match sz with
          | Insn.U8 ->
              fun st ->
                (match st.heap with
                | Some h ->
                    let stats = st.stats in
                    stats.insns <- stats.insns + 2;
                    stats.guards <- stats.guards + 1;
                    st.fault_pc <- pc + 1;
                    let a = Heap.sanitize h (rget st.regs g) in
                    rset st.regs g a;
                    Heap.write8 h (Int64.add a off) imm
                | None ->
                    st.stats.insns <- st.stats.insns + 1;
                    st.fault_pc <- pc;
                    raise (Vm_fault Wild_access));
                cont st
          | Insn.U16 ->
              fun st ->
                (match st.heap with
                | Some h ->
                    let stats = st.stats in
                    stats.insns <- stats.insns + 2;
                    stats.guards <- stats.guards + 1;
                    st.fault_pc <- pc + 1;
                    let a = Heap.sanitize h (rget st.regs g) in
                    rset st.regs g a;
                    Heap.write16 h (Int64.add a off) imm
                | None ->
                    st.stats.insns <- st.stats.insns + 1;
                    st.fault_pc <- pc;
                    raise (Vm_fault Wild_access));
                cont st
          | Insn.U32 ->
              fun st ->
                (match st.heap with
                | Some h ->
                    let stats = st.stats in
                    stats.insns <- stats.insns + 2;
                    stats.guards <- stats.guards + 1;
                    st.fault_pc <- pc + 1;
                    let a = Heap.sanitize h (rget st.regs g) in
                    rset st.regs g a;
                    Heap.write32 h (Int64.add a off) imm
                | None ->
                    st.stats.insns <- st.stats.insns + 1;
                    st.fault_pc <- pc;
                    raise (Vm_fault Wild_access));
                cont st
          | Insn.U64 ->
              fun st ->
                (match st.heap with
                | Some h ->
                    let stats = st.stats in
                    stats.insns <- stats.insns + 2;
                    stats.guards <- stats.guards + 1;
                    st.fault_pc <- pc + 1;
                    let a = Heap.sanitize h (rget st.regs g) in
                    rset st.regs g a;
                    Heap.write64 h (Int64.add a off) imm
                | None ->
                    st.stats.insns <- st.stats.insns + 1;
                    st.fault_pc <- pc;
                    raise (Vm_fault Wild_access));
                cont st)
    | _ -> None
  in
  (* The terminator at [t] folded into a region closure rooted at [p]:
     returns the closing op, the number of instructions it covers, and how
     many of those may be charged upfront with the region's pure run.
     [Ja]/[Exit] cannot fault and charge upfront; a [Jcond] terminator is a
     self-charging {!jcond_op}. A [Checkpoint]
     also charges upfront (only pure effects separate the batched charge
     from the check, so the quantum comparison observes exactly the
     interpreter's counters), but a jump folded in AFTER it must charge
     inside the closure, after the quantum check — the interpreter would
     not have retired that jump yet if the checkpoint cancels. *)
  let term_fin p t : (op * int * int) option =
    match insns.(t) with
    | Insn.Jcond (c, a, s, off) ->
        (* self-charging (upfront 0): the branch closure owns its +1 *)
        Some (jcond_op c a s (goto p (t + 1 + off)) (goto p (t + 1)), 1, 0)
    | Insn.Ja off -> Some (goto p (t + 1 + off), 1, 1)
    | Insn.Exit -> Some ((fun _ -> ()), 1, 1)
    | Insn.Checkpoint _ ->
        let check st =
          let s = st.stats in
          s.checkpoints <- s.checkpoints + 1;
          st.fault_pc <- t;
          if !(st.cancel) then raise (Vm_fault Ext_cancelled);
          if total_cost s - st.start_cost > st.quantum then begin
            st.cancel := true;
            raise (Vm_fault Quantum_expired)
          end
        in
        if t + 1 < n then
          match insns.(t + 1) with
          | Insn.Ja off ->
              let k = goto p (t + 2 + off) in
              Some
                ( (fun st ->
                    check st;
                    st.stats.insns <- st.stats.insns + 1;
                    k st),
                  2,
                  1 )
          | Insn.Jcond (c, a, s, off) ->
              let test = cond_test c a s in
              let jt = goto p (t + 2 + off) in
              let jf = goto p (t + 2) in
              Some
                ( (fun st ->
                    check st;
                    st.stats.insns <- st.stats.insns + 1;
                    if test st then jt st else jf st),
                  2,
                  1 )
          | _ ->
              let k = goto p (t + 1) in
              Some
                ( (fun st ->
                    check st;
                    k st),
                  1,
                  1 )
        else
          let k = goto p (t + 1) in
          Some
            ( (fun st ->
                check st;
                k st),
              1,
              1 )
    | _ -> None
  in
  (* Region fusion: the run of pure instructions at [p] (length from
     [pure_run]), plus a folded terminator when one follows. Returns the
     closure and the number of instructions covered, or None when a region
     would not beat the standalone closure. *)
  let fuse_region p : (op * int) option =
    let m = pure_run.(p) in
    if m = 0 then None
    else begin
      let t = p + m in
      (* pack the run's effects, greedily pairing adjacent frame accesses
         into two-instruction closures (see [eff2]); the charge stays [m] *)
      let effs =
        let acc = ref [] in
        let i = ref p in
        while !i < t do
          match
            if !i + 1 < t then eff2 insns.(!i) insns.(!i + 1) else None
          with
          | Some e ->
              acc := e :: !acc;
              i := !i + 2
          | None ->
              (match eff_any insns.(!i) with
              | Some e -> acc := e :: !acc
              | None -> assert false);
              incr i
        done;
        Array.of_list (List.rev !acc)
      in
      if t < n then
        match term_fin p t with
        | Some (fin, covered, upfront) ->
            Some (region (m + upfront) effs fin, m + covered)
        | None ->
            if m >= 2 then Some (region m effs (goto p t), m) else None
      else if m >= 2 then Some (region m effs (goto p t), m)
      else None
    end
  in
  (* A checkpoint with a jump right behind it (every loop back edge after
     instrumentation) fuses even with no pure run in front. *)
  let fuse_cp p : (op * int) option =
    match insns.(p) with
    | Insn.Checkpoint _ -> (
        match term_fin p p with
        | Some (fin, covered, upfront) when covered >= 2 ->
            Some (region upfront [||] fin, covered)
        | _ -> None)
    | _ -> None
  in
  let fused = ref 0 in
  for p = n - 1 downto 0 do
    let body =
      match form with
      | `Hooked ->
          let next =
            match insns.(p) with
            | Insn.Checkpoint _ -> site_after entries.(p + 1)
            | _ -> entries.(p + 1)
          in
          prelude p insns.(p) (compile_one p insns.(p) next)
      | `Fused -> (
          match
            if p + 1 < n then fuse_pair p insns.(p) insns.(p + 1) else None
          with
          | Some op ->
              incr fused;
              op
          | None -> (
              match fuse_region p with
              | Some (op, covered) ->
                  fused := !fused + (covered - 1);
                  op
              | None -> (
                  match fuse_cp p with
                  | Some (op, covered) ->
                      fused := !fused + (covered - 1);
                      op
                  | None -> compile_one p insns.(p) entries.(p + 1))))
    in
    entries.(p) <- body
  done;
  { entries; helper_names; fused = !fused }

let compile prog = build `Fused prog
let compile_hooked prog = build `Hooked prog

let run t (st : state) =
  if Array.length st.helpers < Array.length t.helper_names then
    invalid_arg "Jit.run: helper table not linked";
  t.entries.(0) st
