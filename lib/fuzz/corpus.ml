open Kflex_bpf
module Heap = Kflex_runtime.Heap

type t = {
  oracle : string option;
  config : Oracle.config;
  prog : Prog.t;
  prog2 : Prog.t option;
}

let magic = "kflex-fuzz-repro v1"

let to_hex s =
  let b = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents b

let of_hex s =
  let digit = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false in
  if String.length s mod 2 <> 0 then Error "odd number of hex digits"
  else if not (String.for_all digit s) then Error "not a hex string"
  else
    Ok
      (String.init (String.length s / 2) (fun i ->
           Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2))))

type error = { file : string; line : int; key : string; msg : string }

let pp_error ppf e = Format.fprintf ppf "%s:%d: %s: %s" e.file e.line e.key e.msg

exception Malformed of error

let write path ?oracle ?prog2 (cfg : Oracle.config) prog =
  let oc = open_out path in
  let pr fmt = Printf.fprintf oc fmt in
  pr "%s\n" magic;
  (match oracle with Some o -> pr "oracle %s\n" o | None -> ());
  pr "heap_size 0x%Lx\n" cfg.heap_size;
  pr "kbase 0x%Lx\n" cfg.kbase;
  pr "pages %s\n" (String.concat "," (List.map string_of_int cfg.pages));
  pr "port %d\n" cfg.port;
  pr "prandom 0x%Lx\n" cfg.prandom;
  pr "src_port %d\n" cfg.src_port;
  pr "dst_port %d\n" cfg.dst_port;
  pr "quantum %d\n" cfg.quantum;
  pr "insn_budget %d\n" cfg.insn_budget;
  pr "inject_cap %d\n" cfg.inject_cap;
  pr "payload %s\n" (to_hex cfg.payload);
  pr "prog %s\n" (to_hex (Encode.encode prog));
  (match prog2 with
  | Some p -> pr "prog2 %s\n" (to_hex (Encode.encode p))
  | None -> ());
  close_out oc

let read path =
  let lines =
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.mapi (fun i l -> (i + 1, String.trim l))
    |> List.filter (fun (_, l) -> l <> "")
  in
  let bad line key fmt =
    Printf.ksprintf
      (fun msg -> raise (Malformed { file = path; line; key; msg }))
      fmt
  in
  let parse line key conv v =
    match conv v with Some x -> x | None -> bad line key "%S is not a number" v
  in
  let hex line key v =
    match of_hex v with Ok s -> s | Error m -> bad line key "%s" m
  in
  let decode line key v =
    try Encode.decode (hex line key v)
    with Encode.Decode_error m -> bad line key "%s" m
  in
  let cfg = ref Oracle.default_config
  and oracle = ref None
  and prog = ref None
  and prog2 = ref None
  and heap_line = ref 0
  and kbase_line = ref 0 in
  let field (line, l) =
    (* [write] emits an empty page list or payload as a bare key once the
       line is trimmed: a key with no value has the empty value *)
    let k, v =
      match String.index_opt l ' ' with
      | None -> (l, "")
      | Some i ->
          ( String.sub l 0 i,
            String.trim (String.sub l (i + 1) (String.length l - i - 1)) )
    in
    let int = parse line k int_of_string_opt
    and int64 = parse line k Int64.of_string_opt in
    (* below 1, a budget or cap breaks an oracle or silently switches it off *)
    let positive v =
      match int v with
      | n when n >= 1 -> n
      | n -> bad line k "%d is not at least 1" n
    in
    match k with
    | "oracle" -> oracle := Some v
    | "heap_size" ->
        heap_line := line;
        cfg := { !cfg with heap_size = int64 v }
    | "kbase" ->
        kbase_line := line;
        cfg := { !cfg with kbase = int64 v }
    | "pages" ->
        let pages =
          if v = "" then [] else List.map int (String.split_on_char ',' v)
        in
        cfg := { !cfg with pages }
    | "port" -> cfg := { !cfg with port = int v }
    | "prandom" -> cfg := { !cfg with prandom = int64 v }
    | "src_port" -> cfg := { !cfg with src_port = int v }
    | "dst_port" -> cfg := { !cfg with dst_port = int v }
    | "quantum" -> cfg := { !cfg with quantum = int v }
    | "insn_budget" -> cfg := { !cfg with insn_budget = positive v }
    | "inject_cap" -> cfg := { !cfg with inject_cap = positive v }
    | "payload" -> cfg := { !cfg with payload = hex line k v }
    | "prog" -> prog := Some (decode line k v)
    | "prog2" -> prog2 := Some (decode line k v)
    | _ -> bad line k "unknown key"
  in
  try
    (match lines with
    | (_, m) :: rest when m = magic -> List.iter field rest
    | (line, _) :: _ -> bad line "magic" "expected %S" magic
    | [] -> bad 0 "magic" "empty file");
    let { Oracle.heap_size = size; kbase; _ } = !cfg in
    (* the size alone is checked against the default base, which is
       aligned for every valid size, so a bad base is the base's fault *)
    (match Heap.geometry_error ~kbase:Oracle.default_config.kbase ~size with
    | Some m -> bad !heap_line "heap_size" "%s" m
    | None ->
        Option.iter (bad !kbase_line "kbase" "%s")
          (Heap.geometry_error ~kbase ~size));
    match !prog with
    | Some prog -> Ok { oracle = !oracle; config = !cfg; prog; prog2 = !prog2 }
    | None -> bad (List.fold_left (fun _ (i, _) -> i) 0 lines) "prog" "missing"
  with Malformed e -> Error e

let replay t =
  match (t.oracle, t.prog2) with
  | _, Some p2 -> Oracle.chain_equiv t.config t.prog p2
  | Some "shared", None -> (
      (* shared-oracle reproducers replay through the sharded-vs-reference
         comparison first, then the ordinary single-program oracles *)
      match Oracle.shared_equiv t.config t.prog with
      | Oracle.Pass | Oracle.Rejected _ ->
          Oracle.run_case t.config t.prog
      | fail -> fail)
  | _, None -> Oracle.run_case t.config t.prog
