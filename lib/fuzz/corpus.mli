(** Reproducer files.

    A reproducer captures everything a failing case depends on — the full
    oracle configuration (heap geometry, page layout, packet, PRNG seed,
    budgets) and the encoded program — in a line-oriented text format
    ([kflex-fuzz-repro v1]) friendly to [git diff]. The fuzzer writes one
    per shrunk failure; [test/corpus/*.kfxr] replays them in [dune runtest]
    as regression tests. *)

type t = {
  oracle : string option;
      (** which oracle failed when the file was written; [replay] does not
          restrict itself to it — any failure on a corpus file is a bug *)
  config : Oracle.config;
  prog : Kflex_bpf.Prog.t;
  prog2 : Kflex_bpf.Prog.t option;
      (** chain-oracle reproducers carry the second chain program *)
}

val write :
  string ->
  ?oracle:string ->
  ?prog2:Kflex_bpf.Prog.t ->
  Oracle.config ->
  Kflex_bpf.Prog.t ->
  unit
(** [write path ?oracle config prog] saves a reproducer; [prog2] makes it a
    chain-oracle pair. *)

val of_hex : string -> (string, string) result
(** Decode an even-length string of hex digits (the [payload]/[prog]
    encoding); [Error] says what is wrong with it. *)

type error = {
  file : string;
  line : int;  (** 1-based line of the offending entry *)
  key : string;  (** the entry's key, or ["magic"] for the header *)
  msg : string;
}

val pp_error : Format.formatter -> error -> unit
(** [file:line: key: msg]. *)

val read : string -> (t, error) result
(** Parse a reproducer. A key with no value reads as empty: that is how
    [write] saves an empty page list or payload. A malformed value, an
    unknown key, a missing [prog], an [insn_budget] or [inject_cap] below
    1, or a [heap_size]/[kbase] pair that {!Kflex_runtime.Heap.create}
    would refuse is an [Error] naming the line and key.
    @raise Sys_error when the file cannot be read. *)

val replay : t -> Oracle.verdict
(** [Oracle.run_case] under the reproducer's own config. Pair files
    replay through {!Oracle.chain_equiv} instead; files whose recorded
    oracle is ["shared"] run {!Oracle.shared_equiv} first, then the
    single-program oracles. *)
