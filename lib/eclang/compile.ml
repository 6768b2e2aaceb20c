open Ast
open Kflex_bpf

exception Error of string

(* Names are compared with [String.equal], never the polymorphic compare. *)
module Stbl = Hashtbl.Make (String)

let rec assoc k = function
  | [] -> None
  | (k', v) :: rest -> if String.equal k k' then Some v else assoc k rest

let rec mem_name k = function [] -> false | k' :: rest -> String.equal k k' || mem_name k rest

let fail fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

type layout = {
  globals : (string * (int64 * field_ty)) list;
  globals_size : int64;
  struct_layouts : (string * ((string * (int * field_ty)) list * int)) list;
}

type compiled = { prog : Prog.t; layout : layout }

(* --- sizes and layout --------------------------------------------------- *)

let globals_base = 64

let rec fty_size structs = function
  | Fu8 -> 1
  | Fu16 -> 2
  | Fu32 -> 4
  | Fu64 | Fptr _ -> 8
  | Farr (elt, n) -> fty_size structs elt * n

let fty_align structs = function
  | Fu8 -> 1
  | Fu16 -> 2
  | Fu32 -> 4
  | Fu64 | Fptr _ -> 8
  | Farr (elt, _) -> fty_size structs elt |> fun s -> min 8 (max 1 s)

let align_up v a = (v + a - 1) / a * a

let layout_struct structs (sd : struct_decl) =
  let off = ref 0 in
  let fields =
    List.map
      (fun (f, t) ->
        let a = fty_align structs t in
        off := align_up !off a;
        let o = !off in
        off := !off + fty_size structs t;
        (f, (o, t)))
      sd.sfields
  in
  (fields, align_up !off 8)

(* --- compiler state ------------------------------------------------------ *)

type binding =
  | B_local of int * ty  (** byte offset below fp (address r10 - off), type *)
  | B_buf of int * int  (** stack buffer: offset below fp, size *)
  | B_ctx

type ret_target = R_entry | R_inline of { slot : int option; end_lbl : int }

(* Code is emitted in place through an assembler buffer, with int labels.
   A register stack is an int, 4 bits per register (its number plus one),
   the top in the low bits. *)
type cg = {
  asm : Asm.Buf.t;
  mutable pool : int;  (** free registers *)
  mutable live : int;  (** allocated registers, the latest on top *)
  mutable next_slot : int;  (** next free byte offset below fp (multiple of 8) *)
  structs : ((string * (int * field_ty)) list * int) Stbl.t;
  globals : (int * field_ty) Stbl.t;
  fns : fn_decl Stbl.t;
  use_heap : bool;
  mutable inline_stack : string list;
}

let push s r = (s lsl 4) lor (Reg.to_int r + 1)
let top s = Reg.of_int ((s land 15) - 1)
let pop s = s lsr 4
let rec mem s r = s <> 0 && (s land 15 = Reg.to_int r + 1 || mem (pop s) r)

let rec remove s r =
  if s = 0 then 0
  else if s land 15 = Reg.to_int r + 1 then pop s
  else push (remove (pop s) r) (top s)

(* R1 on top *)
let all_pool =
  List.fold_left push 0 [ Reg.R8; Reg.R7; Reg.R5; Reg.R4; Reg.R3; Reg.R2; Reg.R1 ]

(* one shared register operand per register *)
let reg_srcs = Array.of_list (List.map (fun r -> Insn.Reg r) Reg.all)
let reg_src r = reg_srcs.(Reg.to_int r)

let emit cg insn = Asm.Buf.emit cg.asm insn
let mov cg d s = emit cg (Insn.Mov (d, reg_src s))
let movi cg d i = emit cg (Insn.Mov (d, Insn.Imm i))
let alu cg op d s = emit cg (Insn.Alu (op, d, reg_src s))
let alui cg op d i = emit cg (Insn.Alu (op, d, Insn.Imm i))
let ldx cg sz d s off = emit cg (Insn.Ldx (sz, d, s, off))
let stx cg sz d off s = emit cg (Insn.Stx (sz, d, off, s))
let sti cg sz d off i = emit cg (Insn.St (sz, d, off, i))
let call cg h = emit cg (Insn.Call h)
let exit_ cg = emit cg Insn.Exit
let fresh_label cg = Asm.Buf.label cg.asm
let place cg l = Asm.Buf.place cg.asm l
let ja cg l = Asm.Buf.ja cg.asm l
let jmp cg c a b l = Asm.Buf.jcond cg.asm c a (reg_src b) l
let jmpi cg c a i l = Asm.Buf.jcond cg.asm c a (Insn.Imm i) l

let alloc_reg cg =
  if cg.pool = 0 then fail "expression too deep: out of registers";
  let r = top cg.pool in
  cg.pool <- pop cg.pool;
  cg.live <- push cg.live r;
  r

let free_reg cg r =
  if mem cg.live r then begin
    cg.live <- remove cg.live r;
    cg.pool <- push cg.pool r
  end

let alloc_slot cg =
  let s = cg.next_slot in
  cg.next_slot <- cg.next_slot + 8;
  if cg.next_slot > Prog.stack_size then fail "stack frame overflow (512 bytes)";
  s + 8 (* slot addressed as r10 - (s+8) *)

let alloc_bytes cg n =
  let n = align_up n 8 in
  let s = cg.next_slot in
  cg.next_slot <- cg.next_slot + n;
  if cg.next_slot > Prog.stack_size then fail "stack frame overflow (512 bytes)";
  s + n (* buffer occupies [r10 - (s+n), r10 - s) *)

(* Stores the registers of stack [s], the top first, to fresh slots. *)
let rec spill cg s =
  if s <> 0 then begin
    let slot = alloc_slot cg in
    stx cg Insn.U64 Reg.R10 (-slot) (top s);
    spill cg (pop s)
  end

(* Reloads what [spill cg s] stored, from [slot] on. *)
let rec reload cg s slot =
  if s <> 0 then begin
    ldx cg Insn.U64 (top s) Reg.R10 (-slot);
    reload cg (pop s) (slot + 8)
  end

(* temps inside one statement: save/restore the slot watermark *)
let with_watermark cg f =
  let saved = cg.next_slot in
  let r = f () in
  cg.next_slot <- saved;
  r

let size_insn = function
  | 1 -> Insn.U8
  | 2 -> Insn.U16
  | 4 -> Insn.U32
  | 8 -> Insn.U64
  | _ -> assert false

let width_of_fty = function
  | Fu8 -> 1
  | Fu16 -> 2
  | Fu32 -> 4
  | Fu64 | Fptr _ -> 8
  | Farr _ -> fail "array field used as a scalar"

let ty_of_fty = function
  | Fptr s -> Tptr s
  | Farr _ -> fail "array field used as a scalar"
  | _ -> Tu64

(* --- helper signatures --------------------------------------------------- *)

(* A helper's arity comes from its contract: an [A_ctx] argument must be the
   context, every other one is a value. *)
let helper_contract name =
  let rec go = function
    | [] -> None
    | (c : Kflex_verifier.Contract.t) :: rest ->
        if String.equal c.name name then Some c else go rest
  in
  go Kflex_verifier.Contract.kflex_base

let heap_helpers =
  [ "kflex_malloc"; "kflex_free"; "kflex_spin_lock"; "kflex_spin_unlock";
    "kflex_heap_base" ]

(* --- expression compilation ---------------------------------------------- *)

type env = (string * binding) list

let lookup_binding env n = assoc n env

let load_global_addr cg rd off =
  if not cg.use_heap then fail "global used in a heap-less (eBPF-mode) program";
  mov cg rd Reg.R9;
  if off <> 0 then alui cg Insn.Add rd (Int64.of_int off)

let emit_mem_load cg rd rbase off width =
  if off >= -32768 && off <= 32767 then
    ldx cg (size_insn width) rd rbase off
  else begin
    if not (Reg.equal rd rbase) then mov cg rd rbase
    else ();
    alui cg Insn.Add rd (Int64.of_int off);
    ldx cg (size_insn width) rd rd 0
  end

let binop_alu = function
  | Add -> Some Insn.Add
  | Sub -> Some Insn.Sub
  | Mul -> Some Insn.Mul
  | Div -> Some Insn.Div
  | Mod -> Some Insn.Mod
  | BAnd -> Some Insn.And
  | BOr -> Some Insn.Or
  | BXor -> Some Insn.Xor
  | Shl -> Some Insn.Lsh
  | Shr -> Some Insn.Rsh
  | _ -> None

let binop_cond = function
  | Lt -> Some Insn.Lt
  | Le -> Some Insn.Le
  | Gt -> Some Insn.Gt
  | Ge -> Some Insn.Ge
  | Eq -> Some Insn.Eq
  | Ne -> Some Insn.Ne
  | SLt -> Some Insn.Slt
  | SLe -> Some Insn.Sle
  | SGt -> Some Insn.Sgt
  | SGe -> Some Insn.Sge
  | _ -> None

let signed_builtins =
  [ ("slt", SLt); ("sle", SLe); ("sgt", SGt); ("sge", SGe) ]

let mem_builtins =
  [ ("ld8", (1, false)); ("ld16", (2, false)); ("ld32", (4, false));
    ("ld64", (8, false)); ("st8", (1, true)); ("st16", (2, true));
    ("st32", (4, true)); ("st64", (8, true)) ]

let rec eval cg env e : Reg.t * ty =
  match e with
  | E_int i ->
      let rd = alloc_reg cg in
      movi cg rd i;
      (rd, Tu64)
  | E_null ->
      let rd = alloc_reg cg in
      movi cg rd 0L;
      (rd, Tu64)
  | E_var n -> (
      match lookup_binding env n with
      | Some (B_local (slot, t)) ->
          let rd = alloc_reg cg in
          ldx cg Insn.U64 rd Reg.R10 (-slot);
          (rd, t)
      | Some B_ctx -> (Reg.R6, Tctx)
      | Some (B_buf _) -> fail "buffer %s used as a value (use &%s)" n n
      | None -> (
          match Stbl.find_opt cg.globals n with
          | Some (off, fty) -> (
              match fty with
              | Farr _ -> fail "global array %s used without an index" n
              | _ ->
                  let rd = alloc_reg cg in
                  if not cg.use_heap then
                    fail "global %s in a heap-less program" n;
                  emit_mem_load cg rd Reg.R9 off (width_of_fty fty);
                  (rd, ty_of_fty fty))
          | None -> fail "unbound variable %s" n))
  | E_unop (Neg, e) ->
      let r, t = eval_scalar cg env e in
      emit cg (Insn.Neg r);
      (r, t)
  | E_unop (BNot, e) ->
      let r, _ = eval_scalar cg env e in
      alui cg Insn.Xor r (-1L);
      (r, Tu64)
  | E_unop (LNot, e) ->
      let r, _ = eval_scalar cg env e in
      let l = fresh_label cg in
      let rd = alloc_reg cg in
      movi cg rd 1L;
      jmpi cg Insn.Eq r 0L l;
      movi cg rd 0L;
      place cg l;
      free_reg cg r;
      (rd, Tu64)
  | E_binop ((LAnd | LOr), _, _) ->
      (* value context: materialise 0/1 through branches *)
      let l_false = fresh_label cg in
      let l_end = fresh_label cg in
      branch_false cg env e l_false;
      let rd = alloc_reg cg in
      movi cg rd 1L;
      ja cg l_end;
      place cg l_false;
      movi cg rd 0L;
      place cg l_end;
      (rd, Tu64)
  | E_binop (op, a, b) -> (
      match binop_alu op with
      | Some aop ->
          let ra, ta = eval cg env a in
          let ra = own cg ra in
          let rb, tb = eval cg env b in
          alu cg aop ra rb;
          free_reg cg rb;
          let t =
            match (ta, tb, op) with
            | Tptr s, _, (Add | Sub) -> Tptr s
            | _, Tptr s, Add -> Tptr s
            | _ -> Tu64
          in
          (ra, t)
      | None -> (
          match binop_cond op with
          | Some c ->
              let ra, _ = eval cg env a in
              let ra = own cg ra in
              let rb, _ = eval cg env b in
              let l = fresh_label cg in
              let rd = alloc_reg cg in
              movi cg rd 1L;
              jmp cg c ra rb l;
              movi cg rd 0L;
              place cg l;
              free_reg cg ra;
              free_reg cg rb;
              (rd, Tu64)
          | None -> assert false))
  | E_field (p, f) ->
      let rp, tp = eval cg env p in
      let rp = own cg rp in
      let off, fty = field_of cg tp f in
      (match fty with Farr _ -> fail "array field %s needs an index" f | _ -> ());
      emit_mem_load cg rp rp off (width_of_fty fty);
      (rp, ty_of_fty fty)
  | E_index (base, idx) ->
      let addr, fty = eval_index_addr cg env base idx in
      (match fty with
      | Farr _ -> fail "nested arrays are not supported"
      | _ -> ());
      ldx cg (size_insn (width_of_fty fty)) addr addr 0;
      (addr, ty_of_fty fty)
  | E_addr n -> (
      match lookup_binding env n with
      | Some (B_local (slot, _)) ->
          let rd = alloc_reg cg in
          mov cg rd Reg.R10;
          alui cg Insn.Add rd (Int64.of_int (-slot));
          (rd, Tu64)
      | Some (B_buf (bytes_end, _)) ->
          let rd = alloc_reg cg in
          mov cg rd Reg.R10;
          alui cg Insn.Add rd (Int64.of_int (-bytes_end));
          (rd, Tu64)
      | Some B_ctx -> fail "cannot take the address of the context"
      | None -> (
          match Stbl.find_opt cg.globals n with
          | Some (off, _) ->
              let rd = alloc_reg cg in
              load_global_addr cg rd off;
              (rd, Tu64)
          | None -> fail "unbound variable %s in &%s" n n))
  | E_new s ->
      let _, size = struct_of cg s in
      let r, _ = emit_helper_call cg env "kflex_malloc" [ E_int (Int64.of_int size) ] in
      (r, Tptr s)
  | E_call (name, args) -> eval_call cg env name args

and eval_scalar cg env e =
  let r, t = eval cg env e in
  let r = own cg r in
  (r, t)

(* ensure the result register is pool-owned and writable (r6 is shared) *)
and own cg r =
  if Reg.equal r Reg.R6 then begin
    let rd = alloc_reg cg in
    mov cg rd Reg.R6;
    rd
  end
  else r

and field_of cg tp f =
  match tp with
  | Tptr s ->
      let fields, _ = struct_of cg s in
      (match assoc f fields with
      | Some (off, fty) -> (off, fty)
      | None -> fail "struct %s has no field %s" s f)
  | Tu64 -> fail "field access .%s on a non-pointer value" f
  | Tctx -> fail "field access on the context (use pkt_* helpers)"

and struct_of cg s =
  match Stbl.find_opt cg.structs s with
  | Some x -> x
  | None -> fail "unknown struct %s" s

(* address of an indexed element; returns (reg holding address, element ty) *)
and eval_index_addr cg env base idx =
  let elt_addr rbase base_off elt_fty =
    let esize = fty_size cg.structs elt_fty in
    (match idx with
    | E_int i ->
        (* constant index: fold into one offset *)
        let off = base_off + (Int64.to_int i * esize) in
        if off <> 0 then alui cg Insn.Add rbase (Int64.of_int off)
    | _ ->
        if base_off <> 0 then
          alui cg Insn.Add rbase (Int64.of_int base_off);
        let ri, _ = eval cg env idx in
        let ri = own cg ri in
        let rec log2 n k = if n = 1 then Some k else if n land 1 = 1 then None else log2 (n / 2) (k + 1) in
        (match log2 esize 0 with
        | Some 0 -> ()
        | Some k -> alui cg Insn.Lsh ri (Int64.of_int k)
        | None -> alui cg Insn.Mul ri (Int64.of_int esize));
        alu cg Insn.Add rbase ri;
        free_reg cg ri);
    (rbase, elt_fty)
  in
  match base with
  | E_var n -> (
      match lookup_binding env n with
      | Some (B_buf (bytes_end, size)) ->
          (* stack buffer: constant index required (verified stack access) *)
          (match idx with
          | E_int i ->
              let i = Int64.to_int i in
              if i < 0 || i >= size then fail "buffer index %d out of bounds" i;
              let rd = alloc_reg cg in
              mov cg rd Reg.R10;
              alui cg Insn.Add rd (Int64.of_int (-bytes_end + i));
              (rd, Fu8)
          | _ -> fail "stack buffer %s requires a constant index" n)
      | Some _ -> fail "%s is not indexable" n
      | None -> (
          match Stbl.find_opt cg.globals n with
          | Some (off, Farr (elt, _)) ->
              let rd = alloc_reg cg in
              load_global_addr cg rd 0;
              elt_addr rd off elt
          | Some _ -> fail "global %s is not an array" n
          | None -> fail "unbound variable %s" n))
  | E_field (p, f) -> (
      let rp, tp = eval cg env p in
      let rp = own cg rp in
      let off, fty = field_of cg tp f in
      match fty with
      | Farr (elt, _) -> elt_addr rp off elt
      | _ -> fail "field %s is not an array" f)
  | _ -> fail "only globals, buffers and struct fields can be indexed"

and eval_call cg env name args =
  match assoc name signed_builtins with
  | Some op -> eval cg env (E_binop (op, List.nth args 0, List.nth args 1))
  | None -> (
      match assoc name mem_builtins with
      | Some (width, is_store) ->
          let nargs = if is_store then 3 else 2 in
          if List.length args <> nargs then
            fail "%s expects %d arguments" name nargs;
          let off =
            match List.nth args 1 with
            | E_int i -> Int64.to_int i
            | _ -> fail "%s offset must be a constant" name
          in
          let ra, _ = eval cg env (List.nth args 0) in
          let ra = own cg ra in
          if is_store then begin
            let rv, _ = eval cg env (List.nth args 2) in
            stx cg (size_insn width) ra off rv;
            free_reg cg rv;
            movi cg ra 0L;
            (ra, Tu64)
          end
          else begin
            ldx cg (size_insn width) ra ra off;
            (ra, Tu64)
          end
      | None -> (
          match helper_contract name with
          | Some _ -> emit_helper_call cg env name args
          | None -> (
              match Stbl.find_opt cg.fns name with
              | Some fn -> inline_call cg env fn args
              | None -> fail "unknown function or helper %s" name)))

and emit_helper_call cg env name args =
  let kinds =
    match helper_contract name with
    | Some c -> c.args
    | None -> fail "unknown helper %s" name
  in
  if (not cg.use_heap) && mem_name name heap_helpers then
    fail "%s requires a KFlex heap (eBPF-mode program)" name;
  if List.length args <> List.length kinds then
    fail "%s expects %d arguments, got %d" name (List.length kinds)
      (List.length args);
  (* evaluate non-ctx args into temp slots *)
  let prepared =
    List.map2
      (fun kind arg ->
        match kind with
        | Kflex_verifier.Contract.A_ctx -> (
            match arg with
            | E_var n when lookup_binding env n = Some B_ctx -> `Ctx
            | _ -> fail "%s: this argument must be the context" name)
        | _ ->
            let r, _ = eval cg env arg in
            let slot = alloc_slot cg in
            stx cg Insn.U64 Reg.R10 (-slot) r;
            free_reg cg r;
            `Slot slot)
      kinds args
  in
  (* spill live registers *)
  let spilled = cg.live and first = cg.next_slot + 8 in
  spill cg spilled;
  (* load arguments *)
  List.iteri
    (fun i p ->
      let dst = Reg.of_int (i + 1) in
      match p with
      | `Ctx -> mov cg dst Reg.R6
      | `Slot s -> ldx cg Insn.U64 dst Reg.R10 (-s))
    prepared;
  call cg name;
  let rd = alloc_reg cg in
  mov cg rd Reg.R0;
  reload cg spilled first;
  (rd, Tu64)

and inline_call cg env fn args =
  if mem_name fn.fname cg.inline_stack then
    fail "recursive call to %s cannot be inlined" fn.fname;
  if List.length args <> List.length fn.params then
    fail "%s expects %d arguments, got %d" fn.fname (List.length fn.params)
      (List.length args);
  cg.inline_stack <- fn.fname :: cg.inline_stack;
  let saved_slot = cg.next_slot in
  (* bind parameters (argument expressions run in the caller's context) *)
  let callee_env =
    List.map2
      (fun (pname, pty) arg ->
        match pty with
        | Tctx -> (
            match arg with
            | E_var n when lookup_binding env n = Some B_ctx -> (pname, B_ctx)
            | _ -> fail "%s: parameter %s must receive the context" fn.fname pname)
        | _ ->
            let r, _ = eval cg env arg in
            let slot = alloc_slot cg in
            stx cg Insn.U64 Reg.R10 (-slot) r;
            free_reg cg r;
            (pname, B_local (slot, pty)))
      fn.params args
  in
  let ret_slot = if fn.ret then Some (alloc_slot cg) else None in
  let end_lbl = fresh_label cg in
  (* default return value 0 *)
  (match ret_slot with
  | Some s -> sti cg Insn.U64 Reg.R10 (-s) 0L
  | None -> ());
  (* The inlined body manages the register pool statement by statement, so
     live caller registers must survive in stack slots across it. *)
  let spilled = cg.live and first = cg.next_slot + 8 in
  spill cg spilled;
  let saved_pool = cg.pool in
  cg.pool <- all_pool;
  cg.live <- 0;
  compile_block cg callee_env ~ret:(R_inline { slot = ret_slot; end_lbl })
    ~brk:None ~cont:None fn.body;
  place cg end_lbl;
  cg.pool <- saved_pool;
  cg.live <- spilled;
  reload cg spilled first;
  let rd = alloc_reg cg in
  (match ret_slot with
  | Some s -> ldx cg Insn.U64 rd Reg.R10 (-s)
  | None -> movi cg rd 0L);
  cg.next_slot <- saved_slot;
  cg.inline_stack <- List.tl cg.inline_stack;
  (rd, if fn.ret then Tu64 else Tu64)

(* --- conditions ----------------------------------------------------------- *)

and branch_false cg env e lbl =
  match e with
  | E_binop (LAnd, a, b) ->
      branch_false cg env a lbl;
      branch_false cg env b lbl
  | E_binop (LOr, a, b) ->
      let l_true = fresh_label cg in
      branch_true cg env a l_true;
      branch_false cg env b lbl;
      place cg l_true
  | E_unop (LNot, e) -> branch_true cg env e lbl
  | E_binop (op, a, b) when binop_cond op <> None ->
      let c = Option.get (binop_cond op) in
      let neg = Kflex_verifier.Range.negate_cond c in
      let ra, _ = eval cg env a in
      let ra = own cg ra in
      let rb, _ = eval cg env b in
      jmp cg neg ra rb lbl;
      free_reg cg ra;
      free_reg cg rb
  | _ ->
      let r, _ = eval cg env e in
      let r = own cg r in
      jmpi cg Insn.Eq r 0L lbl;
      free_reg cg r

and branch_true cg env e lbl =
  match e with
  | E_binop (LOr, a, b) ->
      branch_true cg env a lbl;
      branch_true cg env b lbl
  | E_binop (LAnd, a, b) ->
      let l_false = fresh_label cg in
      branch_false cg env a l_false;
      branch_true cg env b lbl;
      place cg l_false
  | E_unop (LNot, e) -> branch_false cg env e lbl
  | E_binop (op, a, b) when binop_cond op <> None ->
      let c = Option.get (binop_cond op) in
      let ra, _ = eval cg env a in
      let ra = own cg ra in
      let rb, _ = eval cg env b in
      jmp cg c ra rb lbl;
      free_reg cg ra;
      free_reg cg rb
  | _ ->
      let r, _ = eval cg env e in
      let r = own cg r in
      jmpi cg Insn.Ne r 0L lbl;
      free_reg cg r

(* --- statements ------------------------------------------------------------ *)

and compile_stmt cg env ~ret ~brk ~cont stmt : env =
  let reset_regs () =
    cg.pool <- all_pool;
    cg.live <- 0
  in
  match stmt with
  | S_var (n, ty, e) ->
      let slot = alloc_slot cg in
      let inferred = ref Tu64 in
      with_watermark cg (fun () ->
          let r, t = eval cg env e in
          inferred := t;
          stx cg Insn.U64 Reg.R10 (-slot) r);
      reset_regs ();
      let t = match ty with Some t -> t | None -> !inferred in
      (n, B_local (slot, t)) :: env
  | S_buf (n, size) ->
      let bytes_end = alloc_bytes cg size in
      (* zero-initialise so the verifier sees defined stack bytes *)
      let words = align_up size 8 / 8 in
      for i = 0 to words - 1 do
        sti cg Insn.U64 Reg.R10 (-bytes_end + (8 * i)) 0L
      done;
      (n, B_buf (bytes_end, size)) :: env
  | S_assign (lv, e) ->
      with_watermark cg (fun () ->
          (match lv with
          | L_var n -> (
              match lookup_binding env n with
              | Some (B_local (slot, _)) ->
                  let r, _ = eval cg env e in
                  stx cg Insn.U64 Reg.R10 (-slot) r
              | Some B_ctx -> fail "cannot assign to the context"
              | Some (B_buf _) -> fail "cannot assign to a buffer (use st8)"
              | None -> (
                  match Stbl.find_opt cg.globals n with
                  | Some (off, fty) ->
                      if not cg.use_heap then
                        fail "global %s in a heap-less program" n;
                      let r, _ = eval cg env e in
                      let r = own cg r in
                      if off >= -32768 && off <= 32767 then
                        stx cg (size_insn (width_of_fty fty)) Reg.R9 off r
                      else begin
                        let ra = alloc_reg cg in
                        load_global_addr cg ra off;
                        stx cg (size_insn (width_of_fty fty)) ra 0 r;
                        free_reg cg ra
                      end
                  | None -> fail "unbound variable %s" n))
          | L_field (p, f) ->
              let rp, tp = eval cg env p in
              let rp = own cg rp in
              let off, fty = field_of cg tp f in
              let rv, _ = eval cg env e in
              stx cg (size_insn (width_of_fty fty)) rp off rv
          | L_index (base, idx) ->
              let addr, fty = eval_index_addr cg env base idx in
              let rv, _ = eval cg env e in
              stx cg (size_insn (width_of_fty fty)) addr 0 rv));
      reset_regs ();
      env
  | S_if (c, then_, else_) ->
      let l_else = fresh_label cg in
      let l_end = fresh_label cg in
      with_watermark cg (fun () -> branch_false cg env c l_else);
      reset_regs ();
      compile_block cg env ~ret ~brk ~cont then_;
      ja cg l_end;
      place cg l_else;
      compile_block cg env ~ret ~brk ~cont else_;
      place cg l_end;
      env
  | S_while (c, body) ->
      let l_head = fresh_label cg in
      let l_end = fresh_label cg in
      place cg l_head;
      with_watermark cg (fun () -> branch_false cg env c l_end);
      reset_regs ();
      compile_block cg env ~ret ~brk:(Some l_end) ~cont:(Some l_head) body;
      ja cg l_head;
      place cg l_end;
      env
  | S_for (init, c, step, body) ->
      (* the induction variable scopes over the loop only *)
      let saved_slot = cg.next_slot in
      let env' = compile_stmt cg env ~ret ~brk:None ~cont:None init in
      let l_head = fresh_label cg in
      let l_step = fresh_label cg in
      let l_end = fresh_label cg in
      place cg l_head;
      with_watermark cg (fun () -> branch_false cg env' c l_end);
      reset_regs ();
      compile_block cg env' ~ret ~brk:(Some l_end) ~cont:(Some l_step) body;
      place cg l_step;
      ignore (compile_stmt cg env' ~ret ~brk:None ~cont:None step);
      ja cg l_head;
      place cg l_end;
      cg.next_slot <- saved_slot;
      env
  | S_return eo ->
      with_watermark cg (fun () ->
          match ret with
          | R_entry ->
              (match eo with
              | Some e ->
                  let r, _ = eval cg env e in
                  mov cg Reg.R0 r
              | None -> movi cg Reg.R0 0L);
              exit_ cg
          | R_inline { slot; end_lbl } ->
              (match (eo, slot) with
              | Some e, Some s ->
                  let r, _ = eval cg env e in
                  stx cg Insn.U64 Reg.R10 (-s) r
              | None, _ -> ()
              | Some _, None -> fail "return with a value in a void function");
              ja cg end_lbl);
      reset_regs ();
      env
  | S_break -> (
      match brk with
      | Some l ->
          ja cg l;
          env
      | None -> fail "break outside a loop")
  | S_continue -> (
      match cont with
      | Some l ->
          ja cg l;
          env
      | None -> fail "continue outside a loop")
  | S_expr e ->
      with_watermark cg (fun () -> ignore (eval cg env e));
      reset_regs ();
      env
  | S_free e ->
      with_watermark cg (fun () ->
          ignore (emit_helper_call cg env "kflex_free" [ e ]));
      reset_regs ();
      env

and compile_block cg env ~ret ~brk ~cont stmts =
  ignore
    (List.fold_left
       (fun env s -> compile_stmt cg env ~ret ~brk ~cont s)
       env stmts)

(* --- top level -------------------------------------------------------------- *)

let compile ?(entry = "prog") ?(use_heap = true) ?name (p : program) =
  let structs = Stbl.create 16 in
  List.iter
    (fun sd ->
      if Stbl.mem structs sd.sname then fail "duplicate struct %s" sd.sname;
      Stbl.replace structs sd.sname (layout_struct structs sd))
    p.structs;
  let globals = Stbl.create 16 in
  let goff = ref globals_base in
  let glist =
    List.map
      (fun g ->
        if Stbl.mem globals g.gname then fail "duplicate global %s" g.gname;
        goff := align_up !goff 8;
        let off = !goff in
        goff := !goff + align_up (fty_size structs g.gty) 8;
        Stbl.replace globals g.gname (off, g.gty);
        (g.gname, (Int64.of_int off, g.gty)))
      p.globals
  in
  let fns = Stbl.create 16 in
  List.iter
    (fun f ->
      if Stbl.mem fns f.fname then fail "duplicate function %s" f.fname;
      Stbl.replace fns f.fname f)
    p.fns;
  let entry_fn =
    match Stbl.find_opt fns entry with
    | Some f -> f
    | None -> fail "entry function %s not found" entry
  in
  let cg =
    {
      asm = Asm.Buf.create ();
      pool = all_pool;
      live = 0;
      next_slot = 0;
      structs;
      globals;
      fns;
      use_heap;
      inline_stack = [ entry ];
    }
  in
  (* prologue *)
  let env =
    match entry_fn.params with
    | [ (n, Tctx) ] ->
        mov cg Reg.R6 Reg.R1;
        [ (n, B_ctx) ]
    | [] -> []
    | _ -> fail "entry %s must take a single ctx parameter (or none)" entry
  in
  if use_heap then begin
    call cg "kflex_heap_base";
    mov cg Reg.R9 Reg.R0
  end;
  compile_block cg env ~ret:R_entry ~brk:None ~cont:None entry_fn.body;
  movi cg Reg.R0 0L;
  exit_ cg;
  let name = match name with Some n -> n | None -> entry in
  let prog = Prog.create ~name (Asm.Buf.finish cg.asm) in
  let layout =
    {
      globals = glist;
      globals_size = Int64.of_int (!goff - globals_base);
      struct_layouts =
        Stbl.fold (fun k v acc -> (k, v) :: acc) structs []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b);
    }
  in
  { prog; layout }

let compile_string ?entry ?use_heap ?name src =
  compile ?entry ?use_heap ?name (Parser.parse src)

let global_offset c n =
  match List.assoc_opt n c.layout.globals with
  | Some (off, _) -> off
  | None -> raise Not_found

let field_offset c ~struct_ f =
  match List.assoc_opt struct_ c.layout.struct_layouts with
  | Some (fields, _) -> (
      match List.assoc_opt f fields with
      | Some x -> x
      | None -> raise Not_found)
  | None -> raise Not_found

let sizeof c s =
  match List.assoc_opt s c.layout.struct_layouts with
  | Some (_, size) -> size
  | None -> raise Not_found
