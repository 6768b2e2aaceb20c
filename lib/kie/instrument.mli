(** Kie — the KFlex instrumentation engine (§3, step 2).

    Takes a verified program together with the verifier's analysis and
    produces the instrumented program the runtime executes:

    - a {!Kflex_bpf.Insn.Guard} before every heap access whose safety the
      range analysis could not prove (reads are left unguarded in
      performance mode, §3.2/§4.2);
    - a {!Kflex_bpf.Insn.Checkpoint} — the [*terminate] heap access — before
      the back edge of every loop the verifier could not bound (C1
      cancellation points, §3.3);
    - stores of heap-pointer-typed values rewritten to
      {!Kflex_bpf.Insn.Xstore} when the heap is shared with user space
      (translate-on-store, §3.4);
    - the per-cancellation-point {e object tables}: which kernel resources
      are held at the point and where (register or stack slot), with the
      destructor the runtime must invoke to release each (§3.3/§4.3).

    Every heap access is also a C2 cancellation point (the accessed page may
    be unpopulated). A checkpoint's id counts the C1 and C2 points before it
    in program order. Whichever point faults, the unwinder reads the object
    table of its original pc, [tables.(orig_of_new.(pc))]. *)

type options = {
  performance_mode : bool;  (** do not guard reads (§3.2) *)
  translate_on_store : bool;  (** shared heap: rewrite pointer stores (§3.4) *)
  kmod_baseline : bool;
      (** emit {e no} instrumentation at all — the "identical implementation
          written as a kernel module (i.e., unsafe kernel code)" baseline of
          §5.2. Loses every safety guarantee; benchmarks only. *)
  no_elision : bool;
      (** ablation: ignore the verifier's range analysis and guard every
          heap access, quantifying what the §5.4 co-design buys. Safe but
          slower. *)
}

val default_options : options

val forced_guards : options
(** [default_options] with [no_elision] set: every heap access guarded
    regardless of what the analysis proved. The fuzzer's elision oracle runs
    each program under both option sets and demands observationally identical
    executions. *)

type obj_entry = {
  klass : string;
  destructor : string;  (** helper to call with the object as argument *)
  loc : Kflex_verifier.State.loc;
      (** where the object lives when the cancellation point executes, in
          {e instrumented}-program coordinates *)
}

type t = {
  prog : Kflex_bpf.Prog.t;  (** the instrumented program *)
  report : Report.t;
  pc_map : int array;  (** original pc -> first instrumented pc of its group *)
  orig_of_new : int array;  (** instrumented pc -> original pc *)
  tables : obj_entry list array;
      (** object table per {e original} pc: resources held on entry to that
          instruction. The runtime unwinder consults
        [tables.(orig_of_new.(fault_pc))]. *)
}

val run : ?options:options -> Kflex_verifier.Verify.analysis -> t
