type item =
  | I of Insn.t
  | L of string
  | Ja_l of string
  | Jcond_l of Insn.cond * Reg.t * Insn.src * string

exception Error of string

let fail fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

module Buf = struct
  type t = {
    mutable code : Insn.t array;
    mutable pc : int;
    mutable labels : int array;
    mutable nlabels : int;
    mutable fixups : int array;
    mutable nfixups : int;
  }

  let create () =
    {
      code = Array.make 256 Insn.Exit;
      pc = 0;
      labels = Array.make 64 (-1);
      nlabels = 0;
      fixups = Array.make 128 0;
      nfixups = 0;
    }

  let grow a fill =
    let a' = Array.make (2 * Array.length a) fill in
    Array.blit a 0 a' 0 (Array.length a);
    a'

  let emit b insn =
    if b.pc = Array.length b.code then b.code <- grow b.code Insn.Exit;
    b.code.(b.pc) <- insn;
    b.pc <- b.pc + 1

  let label b =
    if b.nlabels = Array.length b.labels then b.labels <- grow b.labels (-1);
    b.nlabels <- b.nlabels + 1;
    b.nlabels - 1

  let placed b l = b.labels.(l) >= 0
  let place b l = b.labels.(l) <- b.pc

  (* The offset of a jump to [l] emitted next: to [l] if it is placed, else
     0, patched by [finish]. *)
  let offset_to b l =
    let target = b.labels.(l) in
    if target >= 0 then target - b.pc - 1
    else begin
      if 2 * b.nfixups = Array.length b.fixups then b.fixups <- grow b.fixups 0;
      b.fixups.(2 * b.nfixups) <- b.pc;
      b.fixups.((2 * b.nfixups) + 1) <- l;
      b.nfixups <- b.nfixups + 1;
      0
    end

  let ja b l = emit b (Insn.Ja (offset_to b l))
  let jcond b c r s l = emit b (Insn.Jcond (c, r, s, offset_to b l))

  let finish b =
    for i = 0 to b.nfixups - 1 do
      let pc = b.fixups.(2 * i) and l = b.fixups.((2 * i) + 1) in
      if not (placed b l) then fail "undefined label %d" l;
      let off = b.labels.(l) - pc - 1 in
      b.code.(pc) <-
        (match b.code.(pc) with
        | Insn.Ja _ -> Insn.Ja off
        | Insn.Jcond (c, r, s, _) -> Insn.Jcond (c, r, s, off)
        | i -> i)
    done;
    Array.sub b.code 0 b.pc
end

let assemble ?allow_instrumentation ~name items =
  let b = Buf.create () in
  let ids = Hashtbl.create 16 in
  let id l =
    match Hashtbl.find_opt ids l with
    | Some i -> i
    | None ->
        let i = Buf.label b in
        Hashtbl.replace ids l i;
        i
  in
  List.iter
    (function
      | L l ->
          let i = id l in
          if Buf.placed b i then fail "duplicate label %s" l;
          Buf.place b i
      | I i -> Buf.emit b i
      | Ja_l l -> Buf.ja b (id l)
      | Jcond_l (c, r, s, l) -> Buf.jcond b c r s (id l))
    items;
  (* the first jump, in program order, to a label never placed *)
  List.iter
    (function
      | (Ja_l l | Jcond_l (_, _, _, l)) when not (Buf.placed b (id l)) ->
          fail "undefined label %s" l
      | _ -> ())
    items;
  Prog.create ?allow_instrumentation ~name (Buf.finish b)

let mov d s = I (Insn.Mov (d, Insn.Reg s))
let movi d i = I (Insn.Mov (d, Insn.Imm i))
let alu op d s = I (Insn.Alu (op, d, Insn.Reg s))
let alui op d i = I (Insn.Alu (op, d, Insn.Imm i))
let ldx sz d s off = I (Insn.Ldx (sz, d, s, off))
let stx sz d off s = I (Insn.Stx (sz, d, off, s))
let sti sz d off i = I (Insn.St (sz, d, off, i))
let call h = I (Insn.Call h)
let exit_ = I Insn.Exit
let label l = L l
let ja l = Ja_l l
let jmp c a b l = Jcond_l (c, a, Insn.Reg b, l)
let jmpi c a i l = Jcond_l (c, a, Insn.Imm i, l)
