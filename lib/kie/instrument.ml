open Kflex_bpf
open Kflex_verifier

type options = {
  performance_mode : bool;
  translate_on_store : bool;
  kmod_baseline : bool;
  no_elision : bool;
}

let default_options =
  {
    performance_mode = false;
    translate_on_store = false;
    kmod_baseline = false;
    no_elision = false;
  }

let forced_guards = { default_options with no_elision = true }

type obj_entry = { klass : string; destructor : string; loc : State.loc }

type t = {
  prog : Prog.t;
  report : Report.t;
  pc_map : int array;
  orig_of_new : int array;
  tables : obj_entry list array;
}

let entry (e : Verify.res_entry) =
  {
    klass = e.Verify.res.State.klass;
    destructor = e.Verify.res.State.destructor;
    loc = e.Verify.loc;
  }

let run ?(options = default_options) (analysis : Verify.analysis) =
  let prog = analysis.Verify.prog in
  let n = Prog.length prog in
  let access_at = Array.make n None in
  List.iter
    (fun (a : Verify.heap_access) -> access_at.(a.Verify.pc) <- Some a)
    analysis.Verify.heap_accesses;
  let c1 = Bytes.make n '\000' in
  if not options.kmod_baseline then
    List.iter
      (fun (l : Cfg.loop) -> Bytes.set c1 l.Cfg.back_edge_pc '\001')
      analysis.Verify.unbounded;
  (* Pass 1: decide, per original pc, the C1 checkpoint, the guard ('r',
     'w' or none) and the translate-on-store rewrite, and lay out. *)
  let counted = ref 0
  and elided = ref 0
  and emitted = ref 0
  and formation = ref 0
  and unguarded_reads = ref 0
  and checkpoints = ref 0
  and xlates = ref 0 in
  let guard = Bytes.make n '\000' and xlate = Bytes.make n '\000' in
  let pc_map = Array.make n 0 in
  let pos = ref 0 in
  for pc = 0 to n - 1 do
    pc_map.(pc) <- !pos;
    if Bytes.get c1 pc = '\001' then begin
      incr checkpoints;
      incr pos
    end;
    (match (if options.kmod_baseline then None else access_at.(pc)) with
    | None -> ()
    | Some a ->
        let writeish = a.Verify.is_store || a.Verify.is_atomic in
        let guarded =
          if a.Verify.formation then
            if options.performance_mode && not writeish then begin
              incr unguarded_reads;
              false
            end
            else begin
              incr formation;
              true
            end
          else begin
            incr counted;
            if a.Verify.elidable && not options.no_elision then begin
              incr elided;
              false
            end
            else if options.performance_mode && not writeish then begin
              incr unguarded_reads;
              false
            end
            else begin
              incr emitted;
              true
            end
          end
        in
        if guarded then begin
          Bytes.set guard pc (if writeish then 'w' else 'r');
          incr pos
        end;
        if writeish && a.Verify.stored_ptr && options.translate_on_store then
          match Prog.get prog pc with
          | Insn.Stx _ ->
              incr xlates;
              Bytes.set xlate pc '\001'
          | _ -> ());
    incr pos
  done;
  let total = !pos in
  (* Pass 2: emit. A checkpoint's id counts the cancellation points before
     it: the C1 checkpoints and the C2 heap accesses (whose page may be
     unpopulated), in program order. *)
  let out = Array.make total Insn.Exit in
  let orig_of_new = Array.make total 0 in
  let sites = ref 0 and at = ref 0 in
  let put pc insn =
    out.(!at) <- insn;
    orig_of_new.(!at) <- pc;
    incr at
  in
  (* jumps land on the first instruction of their target's group *)
  let rel target = pc_map.(target) - !at - 1 in
  for pc = 0 to n - 1 do
    if Bytes.get c1 pc = '\001' then begin
      put pc (Insn.Checkpoint !sites);
      incr sites
    end;
    (match access_at.(pc) with
    | Some a ->
        incr sites;
        (match Bytes.get guard pc with
        | 'r' -> put pc (Insn.Guard (Insn.Gread, a.Verify.addr_reg))
        | 'w' -> put pc (Insn.Guard (Insn.Gwrite, a.Verify.addr_reg))
        | _ -> ())
    | None -> ());
    put pc
      (match Prog.get prog pc with
      | Insn.Stx (sz, d, off, s) when Bytes.get xlate pc = '\001' ->
          Insn.Xstore (sz, d, off, s)
      | Insn.Ja off -> Insn.Ja (rel (pc + 1 + off))
      | Insn.Jcond (c, r, s, off) -> Insn.Jcond (c, r, s, rel (pc + 1 + off))
      | i -> i)
  done;
  let report =
    {
      Report.counted_sites = !counted;
      elided = !elided;
      emitted = !emitted;
      formation = !formation;
      reads_unguarded = !unguarded_reads;
      checkpoints = !checkpoints;
      xlate_stores = !xlates;
    }
  in
  let prog' =
    Prog.create ~allow_instrumentation:true
      ~name:(Prog.name prog ^ ".kie")
      out
  in
  (* consecutive pcs share their resource list while nothing moves, and
     then share one table *)
  let res_at = analysis.Verify.res_at in
  let tables = Array.make n [] in
  for pc = 0 to n - 1 do
    tables.(pc) <-
      (if pc > 0 && res_at.(pc) == res_at.(pc - 1) then tables.(pc - 1)
       else List.map entry res_at.(pc))
  done;
  { prog = prog'; report; pc_map; orig_of_new; tables }
