type item =
  | I of Insn.t
  | L of string
  | Ja_l of string
  | Jcond_l of Insn.cond * Reg.t * Insn.src * string

exception Error of string

let fail fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

let assemble ?allow_instrumentation ~name items =
  let labels = Hashtbl.create 16 in
  let pc = ref 0 in
  List.iter
    (fun item ->
      match item with
      | L l ->
          if Hashtbl.mem labels l then fail "duplicate label %s" l;
          Hashtbl.replace labels l !pc
      | I _ | Ja_l _ | Jcond_l _ -> incr pc)
    items;
  let resolve pc l =
    match Hashtbl.find_opt labels l with
    | Some target -> target - pc - 1
    | None -> fail "undefined label %s" l
  in
  (* filled in place: [Array.of_list] of a long list of fresh instructions
     would force a minor collection *)
  let insns = Array.make !pc Insn.Exit in
  let pc = ref 0 in
  List.iter
    (fun item ->
      let emit i =
        insns.(!pc) <- i;
        incr pc
      in
      match item with
      | L _ -> ()
      | I i -> emit i
      | Ja_l l -> emit (Insn.Ja (resolve !pc l))
      | Jcond_l (c, r, s, l) -> emit (Insn.Jcond (c, r, s, resolve !pc l)))
    items;
  Prog.create ?allow_instrumentation ~name insns

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
