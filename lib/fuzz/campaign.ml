module Rng = Kflex_workload.Rng

type summary = {
  cases : int;
  accepted : int;
  rejected : int;
  invalid : int;
  chained : int;
  shared : int;
  flagged : int;
  failures : int;
  reproducers : string list;
}

let pp_summary ppf s =
  Format.fprintf ppf
    "%d cases: %d accepted, %d rejected, %d invalid, %d chain-checked, %d \
     shared-checked, %d lifecycle-flagged, %d FAILURES"
    s.cases s.accepted s.rejected s.invalid s.chained s.shared s.flagged
    s.failures;
  List.iter (fun p -> Format.fprintf ppf "@.  reproducer: %s" p) s.reproducers

(* Randomised environment layout for one case, drawn from its own stream. *)
let layout_config rng =
  let heap_size = Int64.shift_left 1L (Rng.choose rng [| 12; 14; 16 |]) in
  let kbase =
    Int64.add 0x4000_0000_0000L
      (Int64.shift_left (Int64.of_int (Rng.int rng 256)) 30)
  in
  let npages = Int64.to_int (Int64.div heap_size 4096L) in
  let pages =
    if Rng.bool rng then List.init npages Fun.id
    else List.filter (fun _ -> Rng.int rng 4 < 3) (List.init npages Fun.id)
  in
  let port = 53 in
  let prandom = Rng.int64 rng in
  let payload = String.init 64 (fun _ -> Char.chr (Rng.int rng 256)) in
  let dst_port = if Rng.bool rng then port else 9 in
  {
    Oracle.default_config with
    heap_size;
    kbase;
    pages;
    port;
    prandom;
    payload;
    src_port = 1024 + Rng.int rng 60000;
    dst_port;
  }

let run ?(out_dir = ".") ?(log = fun _ -> ()) ?(threaded_shared = false)
    ~seed ~count () =
  if not (Sys.file_exists out_dir) then Unix.mkdir out_dir 0o755;
  let master = Rng.create ~seed in
  let accepted = ref 0
  and rejected = ref 0
  and invalid = ref 0
  and chained = ref 0
  and shared = ref 0
  and flagged = ref 0
  and failures = ref 0
  and repros = ref [] in
  (* The one failure path: shrink [items] while [check] still fails under
     the same oracle (no [check]: keep them as they are), then [write] the
     smallest failing program to case_<i>_<tag>.kfxr. *)
  let report i ~tag (f : Oracle.failure) ?check ~write items =
    incr failures;
    log
      (Printf.sprintf "case %d: FAIL [%s] %s" i f.Oracle.oracle
         f.Oracle.detail);
    let fails cand =
      match (check, Gen.assemble cand) with
      | Some check, p -> (
          match check p with
          | Oracle.Fail g -> g.Oracle.oracle = f.Oracle.oracle
          | _ -> false)
      | None, _ | (exception _) -> false
    in
    let small =
      if fails items then Shrink.shrink ~check:fails items else items
    in
    let path =
      Filename.concat out_dir (Printf.sprintf "case_%d_%s.kfxr" i tag)
    in
    write path (Gen.assemble small);
    repros := path :: !repros;
    log
      (Printf.sprintf "case %d: shrunk %d -> %d items, wrote %s" i
         (List.length items) (List.length small) path)
  in
  (* An oracle riding on an accepted case: [counter] counts every verdict
     but [Rejected]. *)
  let ride i ~tag counter check ~write items =
    match Gen.assemble items with
    | exception _ -> Oracle.Rejected "did not assemble"
    | prog ->
        let v = check prog in
        (match v with
        | Oracle.Rejected _ -> ()
        | Oracle.Pass -> incr counter
        | Oracle.Fail f ->
            incr counter;
            report i ~tag f ~check ~write items);
        v
  in
  for i = 0 to count - 1 do
    let gen_rng = Rng.split master in
    let layout_rng = Rng.split master in
    let cfg = layout_config layout_rng in
    let generate ?shared () =
      Gen.generate ?shared ~rng:gen_rng ~heap_size:cfg.Oracle.heap_size
        ~port:cfg.Oracle.port ()
    in
    let items = generate () in
    match Gen.assemble items with
    | exception e ->
        incr invalid;
        log (Printf.sprintf "case %d: did not assemble: %s" i
               (Printexc.to_string e))
    | prog -> (
        let verdict, nflag = Oracle.run_case_stats cfg prog in
        flagged := !flagged + nflag;
        match verdict with
        | Oracle.Rejected _ -> incr rejected
        | Oracle.Fail f ->
            report i ~tag:f.Oracle.oracle f ~check:(Oracle.run_case cfg)
              ~write:(fun path ->
                Corpus.write path ~oracle:f.Oracle.oracle cfg)
              items
        | Oracle.Pass -> (
            incr accepted;
            (* both riders draw from the continuation of the case's
               generation stream, in a fixed order, so every case (and its
               reproducers) stays deterministic in (seed, count); a chain
               failure shrinks the second program with the first held
               fixed *)
            let items2 = generate () in
            let items_s = generate ~shared:true () in
            ignore
              (ride i ~tag:"chain" chained (Oracle.chain_equiv cfg prog)
                 ~write:(fun path prog2 ->
                   Corpus.write path ~oracle:"chain" ~prog2 cfg prog)
                 items2
                : Oracle.verdict);
            let write_shared path = Corpus.write path ~oracle:"shared" cfg in
            match
              ride i ~tag:"shared" shared (Oracle.shared_equiv cfg)
                ~write:write_shared items_s
            with
            | Oracle.Pass when threaded_shared -> (
                match Oracle.shared_safety cfg (Gen.assemble items_s) with
                | Oracle.Fail f ->
                    (* interleaving-dependent: not re-checked, so not
                       shrunk *)
                    report i ~tag:"shared_threaded" f ~write:write_shared
                      items_s
                | Oracle.Pass | Oracle.Rejected _ -> ())
            | _ -> ()))
  done;
  {
    cases = count;
    accepted = !accepted;
    rejected = !rejected;
    invalid = !invalid;
    chained = !chained;
    shared = !shared;
    flagged = !flagged;
    failures = !failures;
    reproducers = List.rev !repros;
  }
