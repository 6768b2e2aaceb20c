type t = {
  counted_sites : int;
  elided : int;
  emitted : int;
  formation : int;
  reads_unguarded : int;
  checkpoints : int;
  xlate_stores : int;
}

let zero =
  {
    counted_sites = 0;
    elided = 0;
    emitted = 0;
    formation = 0;
    reads_unguarded = 0;
    checkpoints = 0;
    xlate_stores = 0;
  }

let elision_ratio t =
  if t.counted_sites = 0 then 1.0
  else float_of_int t.elided /. float_of_int t.counted_sites

let pp_lint ppf diags =
  match diags with
  | [] -> Format.fprintf ppf "lint: clean"
  | _ ->
      let count k =
        List.length
          (List.filter (fun (d : Kflex_verifier.Lint.diag) -> d.kind = k) diags)
      in
      let parts =
        List.filter_map
          (fun k ->
            match count k with
            | 0 -> None
            | n ->
                Some (Printf.sprintf "%d %s" n (Kflex_verifier.Lint.kind_name k)))
          [
            Kflex_verifier.Lint.Unreachable;
            Kflex_verifier.Lint.Dead_store;
            Kflex_verifier.Lint.Always_taken;
            Kflex_verifier.Lint.Never_taken;
            Kflex_verifier.Lint.Redundant_guard;
            Kflex_verifier.Lint.Ignored_result;
            Kflex_verifier.Lint.Gave_up;
          ]
      in
      Format.fprintf ppf "@[<v>lint: %d finding%s (%s)" (List.length diags)
        (if List.length diags = 1 then "" else "s")
        (String.concat ", " parts);
      List.iter
        (fun d -> Format.fprintf ppf "@,  %a" Kflex_verifier.Lint.pp_diag d)
        diags;
      Format.fprintf ppf "@]"

let pp_lifecycle ppf findings =
  match findings with
  | [] -> Format.fprintf ppf "lifecycle: clean"
  | _ ->
      let module L = Kflex_verifier.Lifecycle in
      let count k =
        List.length (List.filter (fun (f : L.finding) -> f.L.kind = k) findings)
      in
      let parts =
        List.filter_map
          (fun k ->
            match count k with
            | 0 -> None
            | n -> Some (Printf.sprintf "%d %s" n (L.kind_name k)))
          [
            L.Leak;
            L.Double_release;
            L.Use_after_release;
            L.Null_deref;
            L.Lock_hazard;
            L.Lock_order;
            L.Chain_unreachable;
            L.Gave_up;
          ]
      in
      Format.fprintf ppf "@[<v>lifecycle: %d finding%s (%s)"
        (List.length findings)
        (if List.length findings = 1 then "" else "s")
        (String.concat ", " parts);
      List.iter
        (fun f -> Format.fprintf ppf "@,  %a" L.pp_finding f)
        findings;
      Format.fprintf ppf "@]"

(* --- machine-readable diagnostics (kflexc lint --json) --------------------

   Hand-rolled emitter: the schema is flat and stable, and the toolchain
   deliberately has no JSON dependency. Schema (documented in README):

   {"version":1,"program":<string>,"findings":[
     {"source":"lint","kind":<kind>,"pc":<int>,"message":<string>}
   | {"source":"lifecycle","kind":<kind>,"pc":<int>,"site":<int>,
      "witness":[<int>...],"message":<string>}
   | {"source":"lifecycle","kind":"chain-unreachable","index":<int>,...}]} *)

let json_escape b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let add_str b s =
  Buffer.add_char b '"';
  json_escape b s;
  Buffer.add_char b '"'

let add_int_list b l =
  Buffer.add_char b '[';
  List.iteri
    (fun i n ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (string_of_int n))
    l;
  Buffer.add_char b ']'

let add_lint_finding b (d : Kflex_verifier.Lint.diag) =
  Buffer.add_string b "{\"source\":\"lint\",\"kind\":";
  add_str b (Kflex_verifier.Lint.kind_name d.kind);
  Buffer.add_string b (Printf.sprintf ",\"pc\":%d,\"message\":" d.pc);
  add_str b d.msg;
  Buffer.add_char b '}'

let add_lifecycle_finding b ?index (f : Kflex_verifier.Lifecycle.finding) =
  let module L = Kflex_verifier.Lifecycle in
  Buffer.add_string b "{\"source\":\"lifecycle\",\"kind\":";
  add_str b (L.kind_name f.L.kind);
  (match index with
  | Some i -> Buffer.add_string b (Printf.sprintf ",\"index\":%d" i)
  | None -> ());
  Buffer.add_string b (Printf.sprintf ",\"pc\":%d,\"site\":%d,\"witness\":" f.L.pc f.L.site);
  add_int_list b f.L.witness;
  Buffer.add_string b ",\"message\":";
  add_str b f.L.msg;
  Buffer.add_char b '}'

let lint_json ~program ~diags ~findings =
  let b = Buffer.create 256 in
  Buffer.add_string b "{\"version\":1,\"program\":";
  add_str b program;
  Buffer.add_string b ",\"findings\":[";
  let first = ref true in
  let sep () =
    if !first then first := false else Buffer.add_char b ','
  in
  List.iter (fun d -> sep (); add_lint_finding b d) diags;
  List.iter (fun f -> sep (); add_lifecycle_finding b f) findings;
  Buffer.add_string b "]}";
  Buffer.contents b

let lint_rejected_json ~program (e : Kflex_verifier.Verify.error) =
  let b = Buffer.create 128 in
  Buffer.add_string b "{\"version\":1,\"program\":";
  add_str b program;
  Buffer.add_string b ",\"rejected\":{";
  (match e.Kflex_verifier.Verify.pc with
  | Some pc -> Buffer.add_string b (Printf.sprintf "\"pc\":%d," pc)
  | None -> ());
  Buffer.add_string b "\"kind\":";
  add_str b (Kflex_verifier.Verify.error_kind_name e.Kflex_verifier.Verify.kind);
  Buffer.add_string b ",\"message\":";
  add_str b e.Kflex_verifier.Verify.msg;
  Buffer.add_string b "}}";
  Buffer.contents b

let verify_json ~program (a : Kflex_verifier.Verify.analysis) =
  let open Kflex_verifier.Verify in
  let b = Buffer.create 256 in
  Buffer.add_string b "{\"version\":1,\"program\":";
  add_str b program;
  Printf.bprintf b
    ",\"insns\":%d,\"heap_accesses\":%d,\"elidable\":%d,\"unbounded_loops\":%d,\
     \"stack_bytes\":%d,\"blocks\":%d,\"block_visits\":%d,\"joins\":%d,\
     \"widenings\":%d}"
    a.insn_count
    (List.length a.heap_accesses)
    (List.length (List.filter (fun x -> x.elidable) a.heap_accesses))
    (List.length a.unbounded) a.stack_used
    (Array.length (Kflex_bpf.Cfg.blocks a.cfg))
    a.stats.block_visits a.stats.joins a.stats.widenings;
  Buffer.contents b

let chain_json ~programs ~findings =
  let b = Buffer.create 256 in
  Buffer.add_string b "{\"version\":1,\"chain\":[";
  List.iteri
    (fun i p ->
      if i > 0 then Buffer.add_char b ',';
      add_str b p)
    programs;
  Buffer.add_string b "],\"findings\":[";
  List.iteri
    (fun i (cf : Kflex_verifier.Lifecycle.chain_finding) ->
      if i > 0 then Buffer.add_char b ',';
      add_lifecycle_finding b ~index:cf.Kflex_verifier.Lifecycle.index
        cf.Kflex_verifier.Lifecycle.finding)
    findings;
  Buffer.add_string b "]}";
  Buffer.contents b

let pp ppf t =
  Format.fprintf ppf
    "guards: %d sites, %d elided (%.0f%%), %d emitted, %d formation, %d \
     perf-mode reads unguarded; %d checkpoints; %d translated stores"
    t.counted_sites t.elided
    (100. *. elision_ratio t)
    t.emitted t.formation t.reads_unguarded t.checkpoints t.xlate_stores
