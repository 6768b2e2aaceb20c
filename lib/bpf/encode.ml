exception Decode_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Decode_error s)) fmt

let magic = "KFLX"
let version = 2

(* Tag bytes. *)
let t_alu = 0x01
let t_neg = 0x02
let t_mov_reg = 0x03
let t_mov_imm = 0x04
let t_ldx = 0x05
let t_stx = 0x06
let t_st = 0x07
let t_atomic = 0x08
let t_ja = 0x09
let t_jcond_reg = 0x0a
let t_jcond_imm = 0x0b
let t_call = 0x0c
let t_exit = 0x0d
let t_guard_r = 0x0e
let t_guard_w = 0x0f
let t_checkpoint = 0x10
let t_xstore = 0x11

let alu_code = function
  | Insn.Add -> 0
  | Insn.Sub -> 1
  | Insn.Mul -> 2
  | Insn.Div -> 3
  | Insn.Mod -> 4
  | Insn.And -> 5
  | Insn.Or -> 6
  | Insn.Xor -> 7
  | Insn.Lsh -> 8
  | Insn.Rsh -> 9
  | Insn.Arsh -> 10

let alu_of_code = function
  | 0 -> Insn.Add
  | 1 -> Insn.Sub
  | 2 -> Insn.Mul
  | 3 -> Insn.Div
  | 4 -> Insn.Mod
  | 5 -> Insn.And
  | 6 -> Insn.Or
  | 7 -> Insn.Xor
  | 8 -> Insn.Lsh
  | 9 -> Insn.Rsh
  | 10 -> Insn.Arsh
  | c -> fail "bad alu code %d" c

let cond_code = function
  | Insn.Eq -> 0
  | Insn.Ne -> 1
  | Insn.Lt -> 2
  | Insn.Le -> 3
  | Insn.Gt -> 4
  | Insn.Ge -> 5
  | Insn.Slt -> 6
  | Insn.Sle -> 7
  | Insn.Sgt -> 8
  | Insn.Sge -> 9
  | Insn.Set -> 10

let cond_of_code = function
  | 0 -> Insn.Eq
  | 1 -> Insn.Ne
  | 2 -> Insn.Lt
  | 3 -> Insn.Le
  | 4 -> Insn.Gt
  | 5 -> Insn.Ge
  | 6 -> Insn.Slt
  | 7 -> Insn.Sle
  | 8 -> Insn.Sgt
  | 9 -> Insn.Sge
  | 10 -> Insn.Set
  | c -> fail "bad cond code %d" c

let size_code = function Insn.U8 -> 0 | Insn.U16 -> 1 | Insn.U32 -> 2 | Insn.U64 -> 3

let size_of_code = function
  | 0 -> Insn.U8
  | 1 -> Insn.U16
  | 2 -> Insn.U32
  | 3 -> Insn.U64
  | c -> fail "bad size code %d" c

let atomic_code = function
  | Insn.Atomic_add -> 0
  | Insn.Atomic_or -> 1
  | Insn.Atomic_and -> 2
  | Insn.Atomic_xor -> 3
  | Insn.Fetch_add -> 4
  | Insn.Fetch_or -> 5
  | Insn.Fetch_and -> 6
  | Insn.Fetch_xor -> 7
  | Insn.Xchg -> 8
  | Insn.Cmpxchg -> 9

let atomic_of_code = function
  | 0 -> Insn.Atomic_add
  | 1 -> Insn.Atomic_or
  | 2 -> Insn.Atomic_and
  | 3 -> Insn.Atomic_xor
  | 4 -> Insn.Fetch_add
  | 5 -> Insn.Fetch_or
  | 6 -> Insn.Fetch_and
  | 7 -> Insn.Fetch_xor
  | 8 -> Insn.Xchg
  | 9 -> Insn.Cmpxchg
  | c -> fail "bad atomic code %d" c

(* Multi-byte fields are little-endian; a 32-bit field holds the low 32
   bits of its value. *)
let put_u8 b v = Buffer.add_char b (Char.unsafe_chr (v land 0xff))
let put_reg b r = put_u8 b (Reg.to_int r)
let put_i32 b v = Buffer.add_int32_le b (Int32.of_int v)
let put_i64 b (v : int64) = Buffer.add_int64_le b v

let put_str b s =
  put_i32 b (String.length s);
  Buffer.add_string b s

let encode_insn b insn =
  match insn with
  | Insn.Alu (op, d, Insn.Reg s) ->
      put_u8 b t_alu; put_u8 b (alu_code op); put_reg b d; put_u8 b 0; put_reg b s
  | Insn.Alu (op, d, Insn.Imm i) ->
      put_u8 b t_alu; put_u8 b (alu_code op); put_reg b d; put_u8 b 1; put_i64 b i
  | Insn.Neg d -> put_u8 b t_neg; put_reg b d
  | Insn.Mov (d, Insn.Reg s) -> put_u8 b t_mov_reg; put_reg b d; put_reg b s
  | Insn.Mov (d, Insn.Imm i) -> put_u8 b t_mov_imm; put_reg b d; put_i64 b i
  | Insn.Ldx (sz, d, s, off) ->
      put_u8 b t_ldx; put_u8 b (size_code sz); put_reg b d; put_reg b s;
      put_i32 b (off land 0xffff_ffff)
  | Insn.Stx (sz, d, off, s) ->
      put_u8 b t_stx; put_u8 b (size_code sz); put_reg b d; put_reg b s;
      put_i32 b (off land 0xffff_ffff)
  | Insn.St (sz, d, off, imm) ->
      put_u8 b t_st; put_u8 b (size_code sz); put_reg b d;
      put_i32 b (off land 0xffff_ffff); put_i64 b imm
  | Insn.Atomic (op, sz, d, off, s) ->
      put_u8 b t_atomic; put_u8 b (atomic_code op); put_u8 b (size_code sz);
      put_reg b d; put_reg b s; put_i32 b (off land 0xffff_ffff)
  | Insn.Ja off -> put_u8 b t_ja; put_i32 b (off land 0xffff_ffff)
  | Insn.Jcond (c, d, Insn.Reg s, off) ->
      put_u8 b t_jcond_reg; put_u8 b (cond_code c); put_reg b d; put_reg b s;
      put_i32 b (off land 0xffff_ffff)
  | Insn.Jcond (c, d, Insn.Imm i, off) ->
      put_u8 b t_jcond_imm; put_u8 b (cond_code c); put_reg b d; put_i64 b i;
      put_i32 b (off land 0xffff_ffff)
  | Insn.Call h -> put_u8 b t_call; put_str b h
  | Insn.Exit -> put_u8 b t_exit
  | Insn.Guard (Insn.Gread, r) -> put_u8 b t_guard_r; put_reg b r
  | Insn.Guard (Insn.Gwrite, r) -> put_u8 b t_guard_w; put_reg b r
  | Insn.Checkpoint id -> put_u8 b t_checkpoint; put_i32 b id
  | Insn.Xstore (sz, d, off, s) ->
      put_u8 b t_xstore; put_u8 b (size_code sz); put_reg b d; put_reg b s;
      put_i32 b (off land 0xffff_ffff)

let get_u8 s off =
  if off >= String.length s then fail "truncated at %d" off
  else (Char.code s.[off], off + 1)

let get_reg s off =
  let v, off = get_u8 s off in
  if v > 10 then fail "bad register %d" v else (Reg.of_int v, off)

let get_i32 s off =
  let v = ref 0 in
  let off' = ref off in
  for i = 0 to 3 do
    let b, o = get_u8 s !off' in
    v := !v lor (b lsl (8 * i));
    off' := o
  done;
  (* sign-extend from 32 bits *)
  let v = !v in
  let v = if v land 0x8000_0000 <> 0 then v - (1 lsl 32) else v in
  (v, !off')

let get_i64 s off =
  let v = ref 0L in
  let off' = ref off in
  for i = 0 to 7 do
    let b, o = get_u8 s !off' in
    v := Int64.logor !v (Int64.shift_left (Int64.of_int b) (8 * i));
    off' := o
  done;
  (!v, !off')

let get_str s off =
  let n, off = get_i32 s off in
  if n < 0 || off + n > String.length s then fail "bad string length %d" n;
  (String.sub s off n, off + n)

let decoded_size s off =
  let tag, off = get_u8 s off in
  if tag = t_alu then begin
    let op, off = get_u8 s off in
    let d, off = get_reg s off in
    let kind, off = get_u8 s off in
    if kind = 0 then
      let r, off = get_reg s off in
      (Insn.Alu (alu_of_code op, d, Insn.Reg r), off)
    else
      let i, off = get_i64 s off in
      (Insn.Alu (alu_of_code op, d, Insn.Imm i), off)
  end
  else if tag = t_neg then
    let d, off = get_reg s off in
    (Insn.Neg d, off)
  else if tag = t_mov_reg then begin
    let d, off = get_reg s off in
    let r, off = get_reg s off in
    (Insn.Mov (d, Insn.Reg r), off)
  end
  else if tag = t_mov_imm then begin
    let d, off = get_reg s off in
    let i, off = get_i64 s off in
    (Insn.Mov (d, Insn.Imm i), off)
  end
  else if tag = t_ldx then begin
    let sz, off = get_u8 s off in
    let d, off = get_reg s off in
    let src, off = get_reg s off in
    let o, off = get_i32 s off in
    (Insn.Ldx (size_of_code sz, d, src, o), off)
  end
  else if tag = t_stx then begin
    let sz, off = get_u8 s off in
    let d, off = get_reg s off in
    let src, off = get_reg s off in
    let o, off = get_i32 s off in
    (Insn.Stx (size_of_code sz, d, o, src), off)
  end
  else if tag = t_st then begin
    let sz, off = get_u8 s off in
    let d, off = get_reg s off in
    let o, off = get_i32 s off in
    let i, off = get_i64 s off in
    (Insn.St (size_of_code sz, d, o, i), off)
  end
  else if tag = t_atomic then begin
    let op, off = get_u8 s off in
    let sz, off = get_u8 s off in
    let d, off = get_reg s off in
    let src, off = get_reg s off in
    let o, off = get_i32 s off in
    (Insn.Atomic (atomic_of_code op, size_of_code sz, d, o, src), off)
  end
  else if tag = t_ja then
    let o, off = get_i32 s off in
    (Insn.Ja o, off)
  else if tag = t_jcond_reg then begin
    let c, off = get_u8 s off in
    let d, off = get_reg s off in
    let src, off = get_reg s off in
    let o, off = get_i32 s off in
    (Insn.Jcond (cond_of_code c, d, Insn.Reg src, o), off)
  end
  else if tag = t_jcond_imm then begin
    let c, off = get_u8 s off in
    let d, off = get_reg s off in
    let i, off = get_i64 s off in
    let o, off = get_i32 s off in
    (Insn.Jcond (cond_of_code c, d, Insn.Imm i, o), off)
  end
  else if tag = t_call then
    let h, off = get_str s off in
    (Insn.Call h, off)
  else if tag = t_exit then (Insn.Exit, off)
  else if tag = t_guard_r then
    let r, off = get_reg s off in
    (Insn.Guard (Insn.Gread, r), off)
  else if tag = t_guard_w then
    let r, off = get_reg s off in
    (Insn.Guard (Insn.Gwrite, r), off)
  else if tag = t_checkpoint then
    let id, off = get_i32 s off in
    (Insn.Checkpoint id, off)
  else if tag = t_xstore then begin
    let sz, off = get_u8 s off in
    let d, off = get_reg s off in
    let src, off = get_reg s off in
    let o, off = get_i32 s off in
    (Insn.Xstore (size_of_code sz, d, o, src), off)
  end
  else fail "bad instruction tag 0x%02x" tag

let encode prog =
  let b = Buffer.create 1024 in
  Buffer.add_string b magic;
  put_u8 b version;
  put_u8 b (if Prog.is_instrumented prog then 1 else 0);
  put_str b (Prog.name prog);
  put_i32 b (Prog.length prog);
  Array.iter (encode_insn b) (Prog.insns prog);
  Buffer.contents b

let decode s =
  let ml = String.length magic in
  if String.length s < ml + 2 || String.sub s 0 ml <> magic then
    fail "bad magic";
  let v, off = get_u8 s ml in
  if v <> version then fail "unsupported version %d" v;
  let instr, off = get_u8 s off in
  let name, off = get_str s off in
  let n, off = get_i32 s off in
  if n < 0 then fail "bad instruction count %d" n;
  let off = ref off in
  let insns =
    Array.init n (fun _ ->
        let insn, o = decoded_size s !off in
        off := o;
        insn)
  in
  Prog.create ~allow_instrumentation:(instr = 1) ~name insns
