type t = { name : string; insns : Insn.t array; instrumented : bool }

exception Malformed of string

let stack_size = 512
let max_insns = 1_000_000

(* Frame bytes count from [r10 - stack_size]; slot [s] is bytes [8s, 8s+8). *)
let slot_of_full_store disp width =
  let b = stack_size + disp in
  if width = 8 && b >= 0 && b + 8 <= stack_size && b land 7 = 0 then
    Some (b / 8)
  else None

let overlapping_slots disp width =
  let lo = max 0 (stack_size + disp)
  and hi = min stack_size (stack_size + disp + width) in
  if lo >= hi then []
  else List.init (((hi - 1) / 8) - (lo / 8) + 1) (fun i -> (lo / 8) + i)

let fail fmt = Format.kasprintf (fun s -> raise (Malformed s)) fmt

let check_off_16 pc off =
  if off < -32768 || off > 32767 then
    fail "insn %d: memory offset %d exceeds signed 16 bits" pc off

let validate ~allow_instrumentation insns =
  let n = Array.length insns in
  if n = 0 then fail "empty program";
  if n > max_insns then fail "program too long: %d insns" n;
  let check_target pc t =
    if t < 0 || t >= n then fail "insn %d: jump target %d out of range" pc t
  in
  Array.iteri
    (fun pc insn ->
      (match insn with
      | Insn.Ldx (_, _, _, off)
      | Insn.Stx (_, _, off, _)
      | Insn.St (_, _, off, _)
      | Insn.Xstore (_, _, off, _) ->
          check_off_16 pc off
      | Insn.Atomic (_, sz, _, off, _) ->
          check_off_16 pc off;
          if sz = Insn.U8 || sz = Insn.U16 then
            fail "insn %d: atomic access must be u32 or u64" pc
      | _ -> ());
      (match insn with
      | Insn.Mov (d, _) | Insn.Alu (_, d, _) | Insn.Neg d | Insn.Ldx (_, d, _, _)
        ->
          if Reg.equal d Reg.fp then fail "insn %d: write to frame pointer" pc
      | _ -> ());
      if (not allow_instrumentation) && Insn.is_instrumentation insn then
        fail "insn %d: instrumentation instruction in input program" pc;
      (match insn with
      | Insn.Ja off | Insn.Jcond (_, _, _, off) -> check_target pc (pc + 1 + off)
      | _ -> ());
      if Insn.falls_through insn && pc = n - 1 then
        fail "insn %d: control falls off the end of the program" pc)
    insns

let create ?(allow_instrumentation = false) ~name insns =
  validate ~allow_instrumentation insns;
  let instrumented = Array.exists Insn.is_instrumentation insns in
  { name; insns = Array.copy insns; instrumented }

let name p = p.name
let insns p = p.insns
let length p = Array.length p.insns

let get p pc =
  if pc < 0 || pc >= Array.length p.insns then
    invalid_arg (Printf.sprintf "Prog.get: pc %d" pc)
  else p.insns.(pc)

let is_instrumented p = p.instrumented

let pp_with_notes ~notes ppf p =
  Format.fprintf ppf "@[<v>; program %s (%d insns)@," p.name
    (Array.length p.insns);
  Array.iteri
    (fun pc insn ->
      match notes pc with
      | None -> Format.fprintf ppf "%4d: %a@," pc Insn.pp insn
      | Some note ->
          Format.fprintf ppf "%4d: %-32s ; %s@," pc
            (Format.asprintf "%a" Insn.pp insn)
            note)
    p.insns;
  Format.fprintf ppf "@]"

let pp ppf p = pp_with_notes ~notes:(fun _ -> None) ppf p
