(* kflexc — the KFlex extension toolchain CLI.

   Subcommands:
     compile FILE.ec [-o OUT.kfx]   compile eclang to a KFlex bytecode blob
     disasm  FILE.kfx               disassemble a bytecode blob
     verify  FILE.ec|FILE.kfx       run the verifier and print the analysis
     lint    FILE.ec|FILE.kfx       report dead code, dead stores, redundant guards
     report  FILE.ec [--perf-mode]  instrument and print the guard report
     run     FILE.ec [--payload HEX] load and execute with one packet
     fuzz    --seed N --count K     differential soundness fuzzing campaign
     replay  FILE.kfxr              re-run a fuzz reproducer file
     serve   --attach FILE ...      drive a multi-tenant engine (or --selftest)
     chain   FILE...                run one packet through an ad-hoc chain *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let load_prog path =
  if Filename.check_suffix path ".kfx" then
    (Kflex_bpf.Encode.decode (read_file path), 0L)
  else
    let c = Kflex_eclang.Compile.compile_string ~name:(Filename.basename path) (read_file path) in
    (c.Kflex_eclang.Compile.prog, c.Kflex_eclang.Compile.layout.Kflex_eclang.Compile.globals_size)

(* A malformed reproducer exits with [code], like {!handle_errors}. *)
let read_reproducer ~code file =
  match Kflex_fuzz.Corpus.read file with
  | Ok r -> r
  | Error e ->
      Format.eprintf "reproducer error: %a@." Kflex_fuzz.Corpus.pp_error e;
      exit code

let handle_errors ?(code = 1) f =
  try f () with
  | Kflex_eclang.Compile.Error m ->
      Format.eprintf "compile error: %s@." m;
      exit code
  | Kflex_eclang.Parser.Error { line; msg } ->
      Format.eprintf "parse error (line %d): %s@." line msg;
      exit code
  | Kflex_eclang.Lexer.Error { line; msg } ->
      Format.eprintf "lex error (line %d): %s@." line msg;
      exit code
  | Kflex_bpf.Encode.Decode_error m ->
      Format.eprintf "decode error: %s@." m;
      exit code
  | Sys_error m ->
      Format.eprintf "%s@." m;
      exit code

let file_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE")

let compile_cmd =
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"OUT")
  in
  let run file out =
    handle_errors (fun () ->
        let prog, globals = load_prog file in
        let out =
          match out with
          | Some o -> o
          | None -> Filename.remove_extension file ^ ".kfx"
        in
        let oc = open_out_bin out in
        output_string oc (Kflex_bpf.Encode.encode prog);
        close_out oc;
        Format.printf "%s: %d insns, %Ld bytes of globals -> %s@." file
          (Kflex_bpf.Prog.length prog) globals out)
  in
  Cmd.v (Cmd.info "compile" ~doc:"Compile eclang to KFlex bytecode")
    Term.(const run $ file_arg $ out)

let disasm_cmd =
  let run file =
    handle_errors (fun () ->
        let prog, _ = load_prog file in
        Format.printf "%a@." Kflex_bpf.Prog.pp prog)
  in
  Cmd.v (Cmd.info "disasm" ~doc:"Disassemble a program") Term.(const run $ file_arg)

(* Argument converters: a malformed value is a usage error, reported by
   Cmdliner (exit 124) before any work starts. *)
let int_in ?(hi = max_int) lo =
  Arg.conv' ~docv:"N"
    ( (fun s ->
        match int_of_string_opt s with
        | Some n when n >= lo && n <= hi -> Ok n
        | _ when hi = max_int ->
            Error (Printf.sprintf "%S is not an integer >= %d" s lo)
        | _ -> Error (Printf.sprintf "%S is not an integer in [%d, %d]" s lo hi)),
      Format.pp_print_int )

(* [Heap.create]'s bounds: a page (2^12) to 1 TiB (2^40). *)
let heap_size_arg =
  Arg.(value & opt (int_in ~hi:40 12) 24 & info [ "heap-bits" ] ~docv:"N"
         ~doc:"Heap size as a power of two, 12 to 40 (default 24 = 16 MiB)")

let payload_arg =
  let hex =
    Arg.conv' ~docv:"HEX"
      ( Kflex_fuzz.Corpus.of_hex,
        fun ppf s -> String.iter (fun c -> Format.fprintf ppf "%02x" (Char.code c)) s )
  in
  Arg.(value & opt hex "" & info [ "payload" ] ~docv:"HEX"
         ~doc:"Packet payload as hex bytes (default: 64 zero bytes)")

let packet_of_payload payload =
  Kflex_kernel.Packet.make ~proto:Kflex_kernel.Packet.Udp ~src_port:1 ~dst_port:2
    (if payload = "" then Bytes.make 64 '\000' else Bytes.of_string payload)

let verify_cmd =
  let run file heap_bits =
    handle_errors (fun () ->
        let prog, _ = load_prog file in
        match
          Kflex_verifier.Verify.run ~mode:Kflex_verifier.Verify.Kflex
            ~contracts:Kflex.contracts ~ctx_size:Kflex_kernel.Hook.ctx_size
            ~heap_size:(Int64.shift_left 1L heap_bits) prog
        with
        | Error e ->
            Format.printf "REJECTED: %a@." Kflex_verifier.Verify.pp_error e;
            exit 1
        | Ok a ->
            let s = a.Kflex_verifier.Verify.stats in
            Format.printf "OK: %d insns, %d heap accesses (%d elidable), %d \
                           unbounded loops, %d stack bytes; %d block visits \
                           over %d blocks, %d joins, %d widenings@."
              a.Kflex_verifier.Verify.insn_count
              (List.length a.Kflex_verifier.Verify.heap_accesses)
              (List.length
                 (List.filter
                    (fun (x : Kflex_verifier.Verify.heap_access) ->
                      x.Kflex_verifier.Verify.elidable)
                    a.Kflex_verifier.Verify.heap_accesses))
              (List.length a.Kflex_verifier.Verify.unbounded)
              a.Kflex_verifier.Verify.stack_used
              s.Kflex_verifier.Verify.block_visits
              (Array.length (Kflex_bpf.Cfg.blocks a.Kflex_verifier.Verify.cfg))
              s.Kflex_verifier.Verify.joins s.Kflex_verifier.Verify.widenings)
  in
  Cmd.v (Cmd.info "verify" ~doc:"Verify kernel-interface compliance")
    Term.(const run $ file_arg $ heap_size_arg)

let lint_cmd =
  let files =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"FILE"
           ~doc:"Programs to lint (.ec, .kfx, or .kfxr fuzz reproducers — a \
                 pair reproducer contributes both chain programs). With more \
                 than one program, they are additionally analysed as an XDP \
                 chain in argument order.")
  in
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit machine-readable diagnostics: one JSON object per \
                 program (JSON lines), plus a final chain object when more \
                 than one program is given. See README for the schema.")
  in
  let run files json heap_bits =
    handle_errors ~code:2 (fun () ->
        (* Each input contributes one or two (name, prog, heap_size) units;
           a .kfxr reproducer carries its own heap geometry. *)
        let units =
          List.concat_map
            (fun file ->
              if Filename.check_suffix file ".kfxr" then begin
                let r = read_reproducer ~code:2 file in
                let hs =
                  r.Kflex_fuzz.Corpus.config.Kflex_fuzz.Oracle.heap_size
                in
                let base = Filename.basename file in
                match r.Kflex_fuzz.Corpus.prog2 with
                | None -> [ (base, r.Kflex_fuzz.Corpus.prog, hs) ]
                | Some p2 ->
                    [ (base, r.Kflex_fuzz.Corpus.prog, hs);
                      (base ^ "#2", p2, hs) ]
              end
              else
                let prog, _ = load_prog file in
                [ (Filename.basename file, prog,
                   Int64.shift_left 1L heap_bits) ])
            files
        in
        (* A rejected program is itself a lint result (the buggy variants
           in examples/ exist to demonstrate it): report it — structured
           under --json — and keep linting the remaining files. *)
        let rejected = ref [] in
        let analyses =
          List.filter_map
            (fun (name, prog, heap_size) ->
              match
                Kflex_verifier.Verify.run ~mode:Kflex_verifier.Verify.Kflex
                  ~contracts:Kflex.contracts
                  ~ctx_size:Kflex_kernel.Hook.ctx_size ~heap_size prog
              with
              | Error e ->
                  rejected := (name, e) :: !rejected;
                  None
              | Ok a -> Some (name, a))
            units
        in
        let rejected = List.rev !rejected in
        let per =
          List.map
            (fun (name, a) ->
              ( name,
                Kflex_verifier.Lint.run ~contracts:Kflex.contracts a,
                Kflex_verifier.Lifecycle.run ~contracts:Kflex.contracts a ))
            analyses
        in
        let multi = List.length units > 1 in
        (* the chain view needs every member admitted *)
        let chain =
          if multi && rejected = [] then
            Kflex_verifier.Lifecycle.run_chain ~contracts:Kflex.contracts
              ~pass_verdict:
                (Kflex_kernel.Hook.pass_verdict Kflex_kernel.Hook.Xdp)
              (List.map snd analyses)
          else []
        in
        if json then begin
          List.iter
            (fun (name, e) ->
              print_endline (Kflex_kie.Report.lint_rejected_json ~program:name e))
            rejected;
          List.iter
            (fun (name, diags, findings) ->
              print_endline
                (Kflex_kie.Report.lint_json ~program:name ~diags ~findings))
            per;
          if multi && rejected = [] then
            print_endline
              (Kflex_kie.Report.chain_json
                 ~programs:(List.map (fun (n, _, _) -> n) per)
                 ~findings:chain)
        end
        else begin
          List.iter
            (fun (name, e) ->
              Format.printf "%s: REJECTED: %a@." name
                Kflex_verifier.Verify.pp_error e)
            rejected;
          List.iter
            (fun (name, diags, findings) ->
              if multi then Format.printf "%s:@." name;
              Format.printf "%a@." Kflex_kie.Report.pp_lint diags;
              Format.printf "%a@." Kflex_kie.Report.pp_lifecycle findings)
            per;
          if multi && rejected = [] then begin
            if chain = [] then Format.printf "chain: clean@."
            else
              List.iter
                (fun (cf : Kflex_verifier.Lifecycle.chain_finding) ->
                  Format.printf "chain: #%d %a@."
                    cf.Kflex_verifier.Lifecycle.index
                    Kflex_verifier.Lifecycle.pp_finding
                    cf.Kflex_verifier.Lifecycle.finding)
                chain
          end
        end;
        let any =
          chain <> []
          || List.exists (fun (_, d, f) -> d <> [] || f <> []) per
        in
        exit (if rejected <> [] then 2 else if any then 1 else 0))
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Report dead code, dead stores, provably-dead branches, redundant \
          guards, ignored helper results, and path-sensitive lifecycle \
          hazards (leaks, double-release, use-after-release, null derefs, \
          lock pairing/ordering, chain-unreachable programs). Exits 0 when \
          clean, 1 with findings, 2 on compile/verify failure.")
    Term.(const run $ files $ json $ heap_size_arg)

let access_note (a : Kflex_verifier.Verify.analysis) =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (x : Kflex_verifier.Verify.heap_access) ->
      let what =
        if x.Kflex_verifier.Verify.formation then "formation"
        else if x.Kflex_verifier.Verify.elidable then "elidable"
        else "guarded"
      in
      Hashtbl.replace tbl x.Kflex_verifier.Verify.pc
        (Format.asprintf "%s %s w=%d eff=%a" what
           (if x.Kflex_verifier.Verify.is_store then "store" else "load")
           x.Kflex_verifier.Verify.width Kflex_verifier.Range.pp
           x.Kflex_verifier.Verify.eff))
    a.Kflex_verifier.Verify.heap_accesses;
  fun pc -> Hashtbl.find_opt tbl pc

let report_cmd =
  let pm = Arg.(value & flag & info [ "perf-mode" ] ~doc:"Performance mode") in
  let run file heap_bits pm =
    handle_errors (fun () ->
        let prog, _ = load_prog file in
        match
          Kflex_verifier.Verify.run ~mode:Kflex_verifier.Verify.Kflex
            ~contracts:Kflex.contracts ~ctx_size:Kflex_kernel.Hook.ctx_size
            ~heap_size:(Int64.shift_left 1L heap_bits) prog
        with
        | Error e ->
            Format.printf "REJECTED: %a@." Kflex_verifier.Verify.pp_error e;
            exit 1
        | Ok a ->
            let kie =
              Kflex_kie.Instrument.run
                ~options:{ Kflex_kie.Instrument.default_options with
                           Kflex_kie.Instrument.performance_mode = pm }
                a
            in
            Format.printf "%a@."
              (Kflex_bpf.Prog.pp_with_notes ~notes:(access_note a))
              prog;
            Format.printf "%a@." Kflex_kie.Report.pp
              kie.Kflex_kie.Instrument.report;
            let diags = Kflex_verifier.Lint.run ~contracts:Kflex.contracts a in
            Format.printf "%a@." Kflex_kie.Report.pp_lint diags;
            Format.printf "%a@." Kflex_kie.Report.pp_lifecycle
              (Kflex_verifier.Lifecycle.run ~contracts:Kflex.contracts a);
            Format.printf "instrumented: %d -> %d insns@."
              (Kflex_bpf.Prog.length prog)
              (Kflex_bpf.Prog.length kie.Kflex_kie.Instrument.prog))
  in
  Cmd.v (Cmd.info "report" ~doc:"Print the Kie instrumentation report")
    Term.(const run $ file_arg $ heap_size_arg $ pm)

let run_cmd =
  let run file heap_bits payload =
    handle_errors (fun () ->
        let prog, globals = load_prog file in
        let kernel = Kflex_kernel.Helpers.create () in
        let heap =
          Kflex_runtime.Heap.create ~size:(Int64.shift_left 1L heap_bits) ()
        in
        match
          Kflex.load ~kernel ~heap ~globals_size:globals
            ~hook:Kflex_kernel.Hook.Xdp prog
        with
        | Error e ->
            Format.printf "REJECTED: %a@." Kflex_verifier.Verify.pp_error e;
            exit 1
        | Ok loaded -> (
            let stats = Kflex_runtime.Vm.fresh_stats () in
            match Kflex.run_packet loaded ~stats (packet_of_payload payload) with
            | Kflex_runtime.Vm.Finished v ->
                Format.printf "finished: ret=%Ld (%d insns, %d guards, %d \
                               checkpoints)@."
                  v stats.Kflex_runtime.Vm.insns stats.Kflex_runtime.Vm.guards
                  stats.Kflex_runtime.Vm.checkpoints
            | Kflex_runtime.Vm.Cancelled { orig_pc; released; ret; _ } ->
                Format.printf "cancelled at pc %d; released [%s]; ret=%Ld@."
                  orig_pc
                  (String.concat "; " (List.map fst released))
                  ret))
  in
  Cmd.v (Cmd.info "run" ~doc:"Load and execute an extension once")
    Term.(const run $ file_arg $ heap_size_arg $ payload_arg)

let fuzz_cmd =
  let seed =
    Arg.(value & opt int64 42L & info [ "seed" ] ~docv:"N"
           ~doc:"Master RNG seed; the whole campaign is deterministic in it")
  in
  let count =
    Arg.(value & opt (int_in 0) 1000 & info [ "count" ] ~docv:"K"
           ~doc:"Number of random programs to generate and check")
  in
  let out =
    Arg.(value & opt string "fuzz-out" & info [ "out" ] ~docv:"DIR"
           ~doc:"Directory for shrunk reproducer files")
  in
  let quiet = Arg.(value & flag & info [ "quiet" ] ~doc:"Only print the summary") in
  let threaded_shared =
    Arg.(value & flag
         & info [ "shared-threaded" ]
             ~doc:
               "Escalate every shared-map linearizability pass to a 4-shard \
                threaded safety run (real cross-domain contention)")
  in
  let run seed count out quiet threaded_shared =
    let log = if quiet then fun _ -> () else fun l -> Format.printf "%s@." l in
    let s =
      Kflex_fuzz.Campaign.run ~out_dir:out ~log ~threaded_shared ~seed ~count
        ()
    in
    Format.printf "%a@." Kflex_fuzz.Campaign.pp_summary s;
    if s.Kflex_fuzz.Campaign.failures > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential soundness fuzzing: random extensions checked against \
          the abstract-containment, guard-elision, cancellation, \
          encode-roundtrip, executor-equivalence and lifecycle oracles (plus \
          chain equivalence and shared-map linearizability on a sharded \
          engine). Exits 1 when any oracle fails, writing shrunk reproducers \
          to --out.")
    Term.(const run $ seed $ count $ out $ quiet $ threaded_shared)

let replay_cmd =
  let run file =
    handle_errors (fun () ->
        let v = Kflex_fuzz.Corpus.replay (read_reproducer ~code:1 file) in
        Format.printf "%s: %a@." file Kflex_fuzz.Oracle.pp_verdict v;
        match v with Kflex_fuzz.Oracle.Fail _ -> exit 1 | _ -> ())
  in
  Cmd.v (Cmd.info "replay" ~doc:"Re-run a fuzz reproducer (.kfxr) file")
    Term.(const run $ file_arg)

(* ---- serve / chain: the multi-tenant engine ---------------------------- *)

module Engine = Kflex_engine.Engine

let attach_file eng ?quantum ~heap_bits file =
  let prog, globals = load_prog file in
  match
    Engine.attach eng ~name:(Filename.basename file) ~globals_size:globals
      ?quantum
      ~heap_size:(Int64.shift_left 1L heap_bits)
      ~hook:Kflex_kernel.Hook.Xdp prog
  with
  | Ok h -> h
  | Error e ->
      Format.eprintf "%s: REJECTED: %a@." file Kflex_verifier.Verify.pp_error e;
      exit 1

(* The built-in selftest tenants: a 3-extension chain whose composed verdict
   depends only on per-flow state, so any shard count must produce the same
   aggregate verdict histogram (flows are partitioned, never split). *)
let selftest_filter = {|
fn prog(c: ctx) -> u64 {
  var flow: u64 = pkt_read_u64(c, 1);
  var low: u64 = flow & 7;
  if (low == 0) { return 1; }
  return 2;
}
|}

let selftest_counter_body = {|
struct node { key: u64; count: u64; next: ptr<node>; }
global buckets: [ptr<node>; 256];

fn bump(k: u64) -> u64 {
  var b: u64 = k & 255;
  var n: ptr<node> = buckets[b];
  while (n != null) {
    if (n.key == k) { n.count = n.count + 1; return n.count; }
    n = n.next;
  }
  var m: ptr<node> = new node;
  if (m == null) { return 0; }
  m.key = k;
  m.count = 1;
  m.next = buckets[b];
  buckets[b] = m;
  return 1;
}
|}

let selftest_counter = selftest_counter_body ^ {|
fn prog(c: ctx) -> u64 {
  var flow: u64 = pkt_read_u64(c, 1);
  var n: u64 = bump(flow);
  if (n == 0) { return 0; }
  return 2;
}
|}

let selftest_capper = selftest_counter_body ^ {|
fn prog(c: ctx) -> u64 {
  var flow: u64 = pkt_read_u64(c, 1);
  var n: u64 = bump(flow);
  if (n > 96) { return 1; }
  return 2;
}
|}

let selftest_progs =
  [ ("filter", selftest_filter); ("counter", selftest_counter);
    ("capper", selftest_capper) ]

let attach_selftest eng =
  List.iter
    (fun (name, src) ->
      let c = Kflex_eclang.Compile.compile_string ~name src in
      match
        Engine.attach eng ~name
          ~globals_size:
            c.Kflex_eclang.Compile.layout.Kflex_eclang.Compile.globals_size
          ~heap_size:(Int64.shift_left 1L 20)
          ~hook:Kflex_kernel.Hook.Xdp c.Kflex_eclang.Compile.prog
      with
      | Ok _ -> ()
      | Error e ->
          Format.kasprintf failwith "selftest program %s rejected: %a" name
            Kflex_verifier.Verify.pp_error e)
    selftest_progs

(* Deterministic event stream: flow id in the payload (what the tenants
   key on), flow-derived ports (what the engine hashes for placement). *)
let selftest_packets ~seed ~events =
  let rng = Kflex_workload.Rng.create ~seed in
  Array.init events (fun _ ->
      let flow = Kflex_workload.Rng.int rng 512 in
      let b = Bytes.make 17 '\000' in
      Bytes.set_int64_le b 1 (Int64.of_int flow);
      Kflex_kernel.Packet.make ~proto:Kflex_kernel.Packet.Udp
        ~src_port:(1024 + (flow * 97 mod 60000))
        ~dst_port:9 b)

let pp_totals ppf (t : Engine.totals) =
  Format.fprintf ppf "%d events, %d cancelled, %d leaked; verdicts [%s]"
    t.Engine.events t.Engine.cancelled t.Engine.leaked
    (String.concat "; "
       (List.map
          (fun (v, n) -> Printf.sprintf "%Ld: %d" v n)
          t.Engine.verdicts))

let serve_cmd =
  let attach =
    Arg.(value & opt_all string [] & info [ "attach" ] ~docv:"FILE"
           ~doc:"Extension to attach to the XDP chain (repeatable, in order)")
  in
  let shards =
    Arg.(value & opt (int_in 1) 4 & info [ "shards" ] ~docv:"N"
           ~doc:"Number of per-CPU shards (at least 1)")
  in
  let events =
    Arg.(value & opt (int_in 0) 50_000 & info [ "events" ] ~docv:"K"
           ~doc:"Synthetic events to deliver")
  in
  let seed =
    Arg.(value & opt int64 1L & info [ "seed" ] ~docv:"N"
           ~doc:"Event-stream seed (the run is deterministic in it)")
  in
  let threaded =
    Arg.(value & flag & info [ "threaded" ]
           ~doc:"One OCaml domain per shard instead of deterministic mode \
                 (not with $(b,--open-loop), which runs in virtual time; \
                 kbench in benchmark/ is the wall-clock serving measurement)")
  in
  let quantum =
    Arg.(value & opt (some int) None & info [ "quantum" ] ~docv:"COST"
           ~doc:"Per-invocation cost budget (watchdog quantum)")
  in
  let selftest =
    Arg.(value & flag & info [ "selftest" ]
           ~doc:"Attach the built-in 3-tenant chain and assert the N-shard \
                 aggregate verdict histogram matches a 1-shard run, with \
                 zero leaked resources")
  in
  let open_loop =
    Arg.(value & flag & info [ "open-loop" ]
           ~doc:"Open-loop serving mode: Zipfian requests on an arrival \
                 schedule, encoded to real wire-protocol bytes, parsed off \
                 per-connection rings and multiplexed onto the shards. \
                 Latency runs from each request's scheduled generation time \
                 (no coordinated omission).")
  in
  let rate =
    Arg.(value & opt float 150_000.0 & info [ "rate" ] ~docv:"RPS"
           ~doc:"Offered load in requests/second (open-loop mode)")
  in
  let conns =
    Arg.(value & opt (int_in 1) 512 & info [ "conns" ] ~docv:"N"
           ~doc:"Simulated connections, each with its own byte ring and \
                 protocol decoder (open-loop mode)")
  in
  let dist =
    Arg.(value & opt (enum [ ("poisson", `Poisson); ("bursty", `Bursty) ])
           `Poisson
         & info [ "dist" ] ~docv:"DIST"
             ~doc:"Arrival process: $(b,poisson) or $(b,bursty) \
                   (Pareto on-off, heavy-tailed)")
  in
  let duration =
    Arg.(value & opt float 1.0 & info [ "duration" ] ~docv:"SECONDS"
           ~doc:"Schedule length; requests = rate x duration (open-loop \
                 mode)")
  in
  let proto =
    Arg.(value
         & opt (enum [ ("memcached", `Memcached); ("redis", `Redis) ])
             `Memcached
         & info [ "proto" ] ~docv:"PROTO"
             ~doc:"Wire protocol: $(b,memcached) (binary, XDP) or \
                   $(b,redis) (RESP, sk_skb)")
  in
  let run_open_loop ~shards ~seed ~rate ~conns ~dist ~duration ~proto =
    let module OL = Kflex_serve.Open_loop in
    let requests = int_of_float (rate *. duration) in
    if requests <= 0 then begin
      Format.eprintf "serve: rate x duration yields no requests@.";
      exit 2
    end;
    let cfg =
      {
        OL.default with
        OL.proto =
          (match proto with
          | `Memcached -> Kflex_serve.Wire.Memcached
          | `Redis -> Kflex_serve.Wire.Redis);
        rate;
        conns;
        requests;
        seed;
        arrival =
          (match dist with
          | `Poisson -> Kflex_workload.Arrivals.Poisson
          | `Bursty -> Kflex_workload.Arrivals.default_bursty);
      }
    in
    Format.printf
      "open loop: %s over %d conns, %.0f req/s %s for %.2fs (%d requests), \
       %d shard(s), deterministic virtual time@."
      (match proto with `Memcached -> "memcached" | `Redis -> "redis")
      conns rate
      (match dist with `Poisson -> "poisson" | `Bursty -> "bursty")
      duration requests shards;
    let o = OL.run_deterministic ~shards cfg in
    Format.printf "  achieved %.0f req/s (offered %.0f) over %.2fs@."
      o.OL.achieved_rps o.OL.offered_rps o.OL.span_s;
    Format.printf "  latency us: mean %.1f  p50 %.1f  p99 %.1f  p999 %.1f@."
      o.OL.mean_us o.OL.p50_us o.OL.p99_us o.OL.p999_us;
    Format.printf "  completed %d, cancelled %d, leaked %d, verdict digest %Lx@."
      o.OL.completed o.OL.cancelled o.OL.leaked o.OL.digest;
    if o.OL.leaked <> 0 then exit 1
  in
  let run attach shards events seed threaded quantum selftest open_loop rate
      conns dist duration proto heap_bits =
    handle_errors (fun () ->
        if open_loop && threaded then begin
          Format.eprintf
            "serve: --open-loop runs in virtual time only; the wall-clock \
             serving measurement is kbench (benchmark/)@.";
          exit 2
        end
        else if open_loop then
          run_open_loop ~shards ~seed ~rate ~conns ~dist ~duration ~proto
        else begin
        let mode = if threaded then `Threaded else `Deterministic in
        let pkts = selftest_packets ~seed ~events in
        let drive eng =
          (match Engine.mode eng with
          | `Deterministic ->
              Array.iter (fun p -> ignore (Engine.run_packet eng p)) pkts
          | `Threaded ->
              Array.iter (fun p -> Engine.submit eng p) pkts;
              Engine.drain eng);
          let t = Engine.totals eng in
          let refs = Engine.socket_refs eng in
          Engine.shutdown eng;
          (t, refs)
        in
        if selftest then begin
          let eng = Engine.create ~shards ~mode ?quantum () in
          attach_selftest eng;
          let t_n, refs_n = drive eng in
          let one = Engine.create ~shards:1 ?quantum () in
          attach_selftest one;
          let t_1, refs_1 = drive one in
          Format.printf "%d shards%s: %a@." shards
            (if threaded then " (threaded)" else "")
            pp_totals t_n;
          Format.printf "1 shard:  %a@." pp_totals t_1;
          let ok =
            t_n.Engine.verdicts = t_1.Engine.verdicts
            && t_n.Engine.events = events
            && t_1.Engine.events = events
            && t_n.Engine.leaked = 0 && t_1.Engine.leaked = 0
            && refs_n = 0 && refs_1 = 0
          in
          if ok then Format.printf "selftest OK@."
          else begin
            Format.printf
              "selftest FAILED (socket refs %d vs %d; histograms %s)@." refs_n
              refs_1
              (if t_n.Engine.verdicts = t_1.Engine.verdicts then "equal"
               else "DIFFER");
            exit 1
          end
        end
        else begin
          if attach = [] then begin
            Format.eprintf "serve: nothing to attach (use --attach or --selftest)@.";
            exit 2
          end;
          let eng = Engine.create ~shards ~mode ?quantum () in
          List.iter
            (fun f -> ignore (attach_file eng ?quantum ~heap_bits f))
            attach;
          let t, refs = drive eng in
          Format.printf "%a@." pp_totals t;
          Format.printf "socket refs %d; per-shard events [%s]@." refs
            (String.concat "; "
               (List.init shards (fun s ->
                    string_of_int (Engine.shard_events eng s))))
        end
        end)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Drive a multi-tenant engine: N per-CPU shards, an XDP hook chain \
          of attached extensions, flow-hashed event placement and a \
          deterministic synthetic event stream. $(b,--selftest) checks \
          shard-count invariance of the built-in 3-tenant chain; \
          $(b,--open-loop) serves Zipfian wire-protocol traffic from an \
          open-loop generator in virtual time and reports \
          generation-to-verdict latency.")
    Term.(const run $ attach $ shards $ events $ seed $ threaded $ quantum
          $ selftest $ open_loop $ rate $ conns $ dist $ duration $ proto
          $ heap_size_arg)

let chain_cmd =
  let files =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"FILE"
           ~doc:"Extensions, attached to the XDP chain in argument order")
  in
  let quantum =
    Arg.(value & opt (some int) None & info [ "quantum" ] ~docv:"COST"
           ~doc:"Per-invocation cost budget (watchdog quantum)")
  in
  let run files payload quantum heap_bits =
    handle_errors (fun () ->
        let eng = Engine.create ~shards:1 ?quantum () in
        let handles =
          List.map (fun f -> attach_file eng ?quantum ~heap_bits f) files
        in
        let r = Engine.run_packet eng (packet_of_payload payload) in
        List.iteri
          (fun i o ->
            let name =
              match List.nth_opt handles i with
              | Some h -> Engine.handle_name h
              | None -> Printf.sprintf "#%d" i
            in
            match o with
            | Kflex_runtime.Vm.Finished v ->
                Format.printf "  %-20s ret=%Ld%s@." name v
                  (if Kflex_engine.Chain.continue_on Kflex_kernel.Hook.Xdp v
                   then "" else "  (chain stops here)")
            | Kflex_runtime.Vm.Cancelled { orig_pc; ret; _ } ->
                Format.printf "  %-20s CANCELLED at pc %d, ret=%Ld@." name
                  orig_pc ret)
          r.Engine.outcomes;
        Format.printf "verdict %Ld (%d of %d ran, cost %d)@." r.Engine.verdict
          r.Engine.executed (List.length files) r.Engine.cost)
  in
  Cmd.v
    (Cmd.info "chain"
       ~doc:
         "Run one packet through an ad-hoc XDP chain and print each \
          extension's verdict and where composition stopped.")
    Term.(const run $ files $ payload_arg $ quantum $ heap_size_arg)

let () =
  let info = Cmd.info "kflexc" ~doc:"KFlex extension toolchain" in
  exit
    (Cmd.eval
       (Cmd.group info
          [ compile_cmd; disasm_cmd; verify_cmd; lint_cmd; report_cmd; run_cmd;
            fuzz_cmd; replay_cmd; serve_cmd; chain_cmd ]))
