(* Pins every verifier analysis: one MD5 per program over a canonical text
   rendering of its compiled instructions, of every field of
   [Verify.analysis] (or of its rejection), and of what Kie makes of an
   accepted program with its default options: the instrumented
   instructions, [pc_map], [orig_of_new] and the object tables. The output is diffed against
   analysis_golden.txt in [dune runtest]; a mismatch names the program whose
   analysis changed. After a deliberate change, review the diff and refresh
   the golden with [dune promote], as for the lint golden.

   The text is rendered field by field rather than marshalled: [Marshal]
   encodes sharing, so one and the same analysis can marshal to different
   bytes when its states share arrays differently.

     analysis_golden.exe EXAMPLES_DIR CORPUS_DIR *)

open Kflex_bpf
open Kflex_verifier
module Hook = Kflex_kernel.Hook

let pr = Printf.bprintf

let range b (r : Range.t) =
  let t = Range.bits r in
  pr b "[%Lx,%Lx,%Lx,%Lx,%Lx/%Lx]" (Range.umin r) (Range.umax r) (Range.smin r)
    (Range.smax r) (Tnum.value t) (Tnum.mask t)

let ptr_kind = function Value.Ctx -> "ctx" | Value.Stack -> "stack" | Value.Heap -> "heap"

let value b = function
  | Value.Uninit -> pr b "U"
  | Value.Unknown -> pr b "?"
  | Value.Scalar r ->
      pr b "S";
      range b r
  | Value.Ptr p ->
      pr b "P(%s,%b," (ptr_kind p.kind) p.nullable;
      range b p.off;
      pr b ")"
  | Value.Obj o -> pr b "O(%s,%d,%b)" o.klass o.id o.nullable

let resource b (r : State.resource) = pr b "%d:%s:%s" r.id r.klass r.destructor

let regs = List.init 11 Reg.of_int

let state b (st : State.t) =
  pr b " regs";
  List.iter (fun r -> pr b " "; value b (State.get st r)) regs;
  pr b " stack";
  for i = 0 to State.nslots - 1 do
    match State.slot st i with
    | State.S_empty -> ()
    | State.S_misc -> pr b " %d:m" i
    | State.S_spill v ->
        pr b " %d:" i;
        value b v
  done;
  pr b " res";
  List.iter (fun r -> pr b " "; resource b r) (State.res st);
  pr b " origin";
  List.iter (fun r -> pr b " %d" (State.origin st r)) regs

let loc b = function
  | State.L_reg r -> pr b "r%d" (Reg.to_int r)
  | State.L_slot s -> pr b "s%d" s

let analysis b (a : Verify.analysis) =
  pr b "insn_count %d stack_used %d\n" a.insn_count a.stack_used;
  Array.iter
    (fun (blk : Cfg.block) ->
      pr b "block %d [%d,%d] ->%s\n" blk.id blk.first blk.last
        (String.concat "" (List.map (Printf.sprintf " %d") blk.succs)))
    (Cfg.blocks a.cfg);
  Array.iteri (fun i r -> pr b "reached %d %b\n" i r) a.reached;
  Array.iteri
    (fun pc st ->
      pr b "pc %d" pc;
      (match st with None -> pr b " unreached" | Some st -> state b st);
      pr b " at";
      List.iter
        (fun (e : Verify.res_entry) ->
          pr b " ";
          resource b e.res;
          pr b "@";
          loc b e.loc)
        a.res_at.(pc);
      pr b "\n")
    (Verify.states_at a);
  List.iter
    (fun (h : Verify.heap_access) ->
      pr b "access %d store=%b atomic=%b width=%d r%d elidable=%b formation=%b \
            stored_ptr=%b eff="
        h.pc h.is_store h.is_atomic h.width (Reg.to_int h.addr_reg) h.elidable
        h.formation h.stored_ptr;
      range b h.eff;
      pr b "\n")
    a.heap_accesses;
  List.iter
    (fun (l : Cfg.loop) ->
      pr b "unbounded header=%d src=%d pc=%d body%s\n" l.header l.back_edge_src
        l.back_edge_pc
        (String.concat "" (List.map (Printf.sprintf " %d") l.body)))
    a.unbounded;
  List.iter
    (fun (pc, v) ->
      pr b "verdict %d %s\n" pc
        (match v with Verify.Always_taken -> "always" | Never_taken -> "never"))
    a.verdicts;
  List.iter (fun (pc, m) -> pr b "mask %d %Lx\n" pc m) a.redundant_masks;
  pr b "stats visits=%d joins=%d widenings=%d\n" a.stats.block_visits
    a.stats.joins a.stats.widenings

let kie b (k : Kflex_kie.Instrument.t) =
  Array.iteri
    (fun pc i -> pr b "kie %d %s\n" pc (Format.asprintf "%a" Insn.pp i))
    (Prog.insns k.prog);
  pr b "pc_map";
  Array.iter (pr b " %d") k.pc_map;
  pr b "\norig_of_new";
  Array.iter (pr b " %d") k.orig_of_new;
  pr b "\n";
  Array.iteri
    (fun pc (t : Kflex_kie.Instrument.obj_entry list) ->
      if t <> [] then begin
        pr b "table %d" pc;
        List.iter
          (fun (e : Kflex_kie.Instrument.obj_entry) ->
            pr b " %s:%s@" e.klass e.destructor;
            loc b e.loc)
          t;
        pr b "\n"
      end)
    k.tables

(* One program: its instructions, then its analysis and instrumentation,
   or its rejection. *)
let digest ~mode ~heap_size ~sleepable prog =
  let b = Buffer.create 65536 in
  Array.iteri (fun pc i -> pr b "%d %s\n" pc (Format.asprintf "%a" Insn.pp i))
    (Prog.insns prog);
  (match
     Verify.run ~mode ~contracts:Kflex.contracts ~ctx_size:Hook.ctx_size
       ?heap_size ~sleepable prog
   with
  | Ok a ->
      analysis b a;
      kie b (Kflex_kie.Instrument.run a)
  | Error e ->
      pr b "rejected pc=%s kind=%s msg=%s\n"
        (match e.pc with Some pc -> string_of_int pc | None -> "-")
        (Verify.error_kind_name e.kind) e.msg);
  Digest.to_hex (Digest.string (Buffer.contents b))

type unit_ = {
  name : string;
  prog : Prog.t;
  mode : Verify.mode;
  heap_size : int64 option;
  sleepable : bool;
}

let kflex ?(hook = Hook.Xdp) ~heap_bits name prog =
  { name; prog; mode = Verify.Kflex; heap_size = Some (Int64.shift_left 1L heap_bits);
    sleepable = Hook.sleepable hook }

let eclang ?hook ~heap_bits name src =
  kflex ?hook ~heap_bits name
    (Kflex_eclang.Compile.compile_string ~name src).Kflex_eclang.Compile.prog

let read_file path = In_channel.with_open_bin path In_channel.input_all

let files dir suffix =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f suffix)
  |> List.sort compare
  |> List.map (fun f -> (f, Filename.concat dir f))

(* Every named program, verified as the code that loads it does. *)
let named ~examples ~corpus =
  let module A = Kflex_apps in
  let apps =
    [
      eclang ~heap_bits:26 "memcached.kflex" A.Memcached.kflex_source;
      {
        name = "memcached.bmc";
        prog =
          (Kflex_eclang.Compile.compile_string ~name:"bmc" ~use_heap:false
             A.Memcached.bmc_source).Kflex_eclang.Compile.prog;
        mode = Verify.Ebpf;
        heap_size = None;
        sleepable = false;
      };
      eclang ~hook:Hook.Sk_skb ~heap_bits:26 "redis" A.Redis.source;
      eclang ~heap_bits:12 "ratelimit.bucket"
        (A.Ratelimit.bucket_source ~pass:2L ~drop:1L ~capacity:64
           ~window_ns:1_000_000L);
      eclang ~heap_bits:12 "ratelimit.conntrack"
        (A.Ratelimit.conntrack_source ~pass:2L ~drop:1L);
    ]
  in
  let ds =
    List.concat_map
      (fun k ->
        let n = A.Datastructs.name k in
        List.map
          (fun (suffix, src) -> eclang ~heap_bits:24 (n ^ "." ^ suffix) src)
          [
            ("source", A.Datastructs.source k);
            ("chain", A.Datastructs.chain_source k);
            ("update", A.Datastructs.op_source k `Update);
            ("lookup", A.Datastructs.op_source k `Lookup);
            ("delete", A.Datastructs.op_source k `Delete);
          ])
      A.Datastructs.all
  in
  let ecs =
    List.map (fun (f, path) -> eclang ~heap_bits:24 f (read_file path))
      (files examples ".ec")
  in
  let kfxrs =
    List.map
      (fun (f, path) ->
        match Kflex_fuzz.Corpus.read path with
        | Error e -> Format.kasprintf failwith "%a" Kflex_fuzz.Corpus.pp_error e
        | Ok r ->
            { name = f; prog = r.prog; mode = Verify.Kflex;
              heap_size = Some r.config.Kflex_fuzz.Oracle.heap_size; sleepable = false })
      (files corpus ".kfxr")
  in
  apps @ ds @ ecs @ kfxrs

(* Fuzzer programs from a fixed seed, over the campaign's heap sizes; every
   fourth is a shared-map program. *)
let generated n =
  let module Rng = Kflex_workload.Rng in
  let rng = Rng.create ~seed:0x5eedL in
  List.init n (fun i ->
      let heap_bits = Rng.choose rng [| 12; 14; 16 |] in
      let items =
        Kflex_fuzz.Gen.generate ~shared:(i mod 4 = 3) ~rng
          ~heap_size:(Int64.shift_left 1L heap_bits) ~port:7000 ()
      in
      let name = Printf.sprintf "gen.%04d" i in
      match Kflex_fuzz.Gen.assemble items with
      | prog -> Some (kflex ~heap_bits name prog)
      | exception (Asm.Error _ | Prog.Malformed _) -> None)
  |> List.filter_map Fun.id

let () =
  let examples = Sys.argv.(1) and corpus = Sys.argv.(2) in
  let print prefix u =
    Printf.printf "%s%s %s\n" prefix u.name
      (digest ~mode:u.mode ~heap_size:u.heap_size ~sleepable:u.sleepable u.prog)
  in
  let named = named ~examples ~corpus in
  List.iter (print "") named;
  List.iter (print "") (generated 1000);
  Range.set_tnum false;
  Fun.protect
    ~finally:(fun () -> Range.set_tnum true)
    (fun () -> List.iter (print "no-tnum:") named)
