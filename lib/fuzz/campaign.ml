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

let shrink_failure cfg (f : Oracle.failure) items =
  let check cand =
    match Gen.assemble cand with
    | exception _ -> false
    | prog -> (
        match Oracle.run_case cfg prog with
        | Oracle.Fail f' -> f'.Oracle.oracle = f.Oracle.oracle
        | _ -> false)
  in
  if check items then Shrink.shrink ~check items else items

(* The chain oracle rides on accepted cases: a second program drawn from the
   continuation of the case's generation stream (the master stream is
   untouched, so single-program cases reproduce exactly as before) forms a
   2-program chain checked engine-vs-facade. Chain failures shrink the
   second program with the first held fixed. *)
let shrink_chain_partner cfg prog1 items2 =
  let check cand =
    match Gen.assemble cand with
    | exception _ -> false
    | p2 -> (
        match Oracle.chain_equiv cfg prog1 p2 with
        | Oracle.Fail _ -> true
        | _ -> false)
  in
  if check items2 then Shrink.shrink ~check items2 else items2

let shrink_shared cfg items =
  let check cand =
    match Gen.assemble cand with
    | exception _ -> false
    | p -> (
        match Oracle.shared_equiv cfg p with
        | Oracle.Fail _ -> true
        | _ -> false)
  in
  if check items then Shrink.shrink ~check items else items

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
  for i = 0 to count - 1 do
    let gen_rng = Rng.split master in
    let layout_rng = Rng.split master in
    let cfg = layout_config layout_rng in
    let items =
      Gen.generate ~rng:gen_rng ~heap_size:cfg.Oracle.heap_size
        ~port:cfg.Oracle.port ()
    in
    match Gen.assemble items with
    | exception e ->
        incr invalid;
        log (Printf.sprintf "case %d: did not assemble: %s" i
               (Printexc.to_string e))
    | prog -> (
        let verdict, nflag = Oracle.run_case_stats cfg prog in
        flagged := !flagged + nflag;
        match verdict with
        | Oracle.Pass ->
            incr accepted;
            (* both riders draw from the continuation of the case's
               generation stream, in a fixed order, so every case (and its
               reproducers) stays deterministic in (seed, count) *)
            let items2 =
              Gen.generate ~rng:gen_rng ~heap_size:cfg.Oracle.heap_size
                ~port:cfg.Oracle.port ()
            in
            let items_s =
              Gen.generate ~shared:true ~rng:gen_rng
                ~heap_size:cfg.Oracle.heap_size ~port:cfg.Oracle.port ()
            in
            (match Gen.assemble items2 with
            | exception _ -> ()
            | prog2 -> (
                match Oracle.chain_equiv cfg prog prog2 with
                | Oracle.Rejected _ -> ()
                | Oracle.Pass -> incr chained
                | Oracle.Fail f ->
                    incr chained;
                    incr failures;
                    log
                      (Printf.sprintf "case %d: FAIL [%s] %s" i f.Oracle.oracle
                         f.Oracle.detail);
                    let small2 = shrink_chain_partner cfg prog items2 in
                    let path =
                      Filename.concat out_dir
                        (Printf.sprintf "case_%d_chain.kfxr" i)
                    in
                    (match Gen.assemble small2 with
                    | small_prog2 ->
                        Corpus.write path ~oracle:"chain" ~prog2:small_prog2
                          cfg prog
                    | exception _ ->
                        Corpus.write path ~oracle:"chain" ~prog2 cfg prog);
                    repros := path :: !repros;
                    log
                      (Printf.sprintf
                         "case %d: chain partner shrunk %d -> %d items, wrote \
                          %s"
                         i (List.length items2) (List.length small2) path)));
            (match Gen.assemble items_s with
            | exception _ -> ()
            | sprog -> (
                match Oracle.shared_equiv cfg sprog with
                | Oracle.Rejected _ -> ()
                | Oracle.Pass ->
                    incr shared;
                    if threaded_shared then (
                      match Oracle.shared_safety cfg sprog with
                      | Oracle.Pass | Oracle.Rejected _ -> ()
                      | Oracle.Fail f ->
                          incr failures;
                          log
                            (Printf.sprintf "case %d: FAIL [%s] %s" i
                               f.Oracle.oracle f.Oracle.detail);
                          (* interleaving-dependent — keep the unshrunk
                             program, shrinking can't reproduce reliably *)
                          let path =
                            Filename.concat out_dir
                              (Printf.sprintf "case_%d_shared_threaded.kfxr" i)
                          in
                          Corpus.write path ~oracle:"shared" cfg sprog;
                          repros := path :: !repros)
                | Oracle.Fail f ->
                    incr shared;
                    incr failures;
                    log
                      (Printf.sprintf "case %d: FAIL [%s] %s" i f.Oracle.oracle
                         f.Oracle.detail);
                    let small = shrink_shared cfg items_s in
                    let path =
                      Filename.concat out_dir
                        (Printf.sprintf "case_%d_shared.kfxr" i)
                    in
                    (match Gen.assemble small with
                    | small_prog ->
                        Corpus.write path ~oracle:"shared" cfg small_prog
                    | exception _ ->
                        Corpus.write path ~oracle:"shared" cfg sprog);
                    repros := path :: !repros;
                    log
                      (Printf.sprintf
                         "case %d: shared program shrunk %d -> %d items, \
                          wrote %s"
                         i (List.length items_s) (List.length small) path)))
        | Oracle.Rejected _ -> incr rejected
        | Oracle.Fail f ->
            incr failures;
            log (Printf.sprintf "case %d: FAIL [%s] %s" i f.Oracle.oracle
                   f.Oracle.detail);
            let small = shrink_failure cfg f items in
            let path =
              Filename.concat out_dir
                (Printf.sprintf "case_%d_%s.kfxr" i f.Oracle.oracle)
            in
            (match Gen.assemble small with
            | small_prog ->
                Corpus.write path ~oracle:f.Oracle.oracle cfg small_prog
            | exception _ -> Corpus.write path ~oracle:f.Oracle.oracle cfg prog);
            repros := path :: !repros;
            log (Printf.sprintf "case %d: shrunk %d -> %d items, wrote %s" i
                   (List.length items) (List.length small) path))
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
