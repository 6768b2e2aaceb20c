(** Instrumentation accounting — the data behind Table 3 of the paper.

    Counts SFI guards by category. Following §5.4, guards emitted on
    {e forming} a new heap pointer (sanitising an untrusted word before its
    first use as an address) are kept separate from guards on manipulated
    heap pointers, because formation guards must never be optimised away;
    the elision statistics are computed over the latter only. *)

type t = {
  counted_sites : int;
      (** heap accesses through manipulated heap pointers ("total number of
          guard insns." in Table 3) *)
  elided : int;  (** of [counted_sites], proven safe by range analysis *)
  emitted : int;  (** counted guards actually emitted = counted - elided *)
  formation : int;  (** formation guards emitted (excluded from Table 3) *)
  reads_unguarded : int;
      (** guards dropped because of performance mode (§3.2) *)
  checkpoints : int;  (** C1 cancellation points inserted at back edges *)
  xlate_stores : int;  (** stores rewritten for pointer translation (§3.4) *)
}

val zero : t

val elision_ratio : t -> float
(** [elided / counted_sites]; 1.0 when there are no counted sites. *)

val pp : Format.formatter -> t -> unit

val pp_lint : Format.formatter -> Kflex_verifier.Lint.diag list -> unit
(** Summary line plus one indented line per diagnostic — the [kflexc lint]
    and [kflexc report] rendering of {!Kflex_verifier.Lint.run} output.
    Prints ["lint: clean"] for an empty list. *)

val pp_lifecycle :
  Format.formatter -> Kflex_verifier.Lifecycle.finding list -> unit
(** Same shape as {!pp_lint} for the path-sensitive lifecycle pass:
    summary line with per-kind counts, then one indented line per finding
    (with its pc-trace witness). Prints ["lifecycle: clean"] for []. *)

val lint_json :
  program:string ->
  diags:Kflex_verifier.Lint.diag list ->
  findings:Kflex_verifier.Lifecycle.finding list ->
  string
(** One JSON object (no trailing newline) with the stable machine-readable
    diagnostics schema used by [kflexc lint --json]:

    {v
    {"version":1,"program":<string>,"findings":[
      {"source":"lint","kind":<kind>,"pc":<int>,"message":<string>},
      {"source":"lifecycle","kind":<kind>,"pc":<int>,"site":<int>,
       "witness":[<int>,...],"message":<string>}, ...]}
    v}

    Finding order is lint diagnostics (ascending pc) followed by lifecycle
    findings (ascending pc). [kind] strings come from
    {!Kflex_verifier.Lint.kind_name} / {!Kflex_verifier.Lifecycle.kind_name}
    and are part of the schema contract. *)

val lint_rejected_json :
  program:string -> Kflex_verifier.Verify.error -> string
(** One JSON object for a program the verifier refused — the structured
    counterpart of the ["REJECTED"] text line, so [kflexc lint --json]
    stays machine-readable when a file fails admission:

    {v
    {"version":1,"program":<string>,"rejected":{
      "pc":<int>?,"kind":<error kind>,"message":<string>}}
    v}

    [kind] strings come from {!Kflex_verifier.Verify.error_kind_name}. *)

val verify_json : program:string -> Kflex_verifier.Verify.analysis -> string
(** One JSON object (no trailing newline) for an accepted program, with
    the figures of [kflexc verify]'s summary line, as [kflexc verify
    --json] prints them:

    {v
    {"version":1,"program":<string>,"insns":<int>,"heap_accesses":<int>,
     "elidable":<int>,"unbounded_loops":<int>,"stack_bytes":<int>,
     "blocks":<int>,"block_visits":<int>,"joins":<int>,"widenings":<int>}
    v}

    The last four are the fixpoint's work ({!Kflex_verifier.Verify.stats}
    and the CFG's block count), as [bench/main.exe verify] records them.
    A rejected program prints {!lint_rejected_json}. *)

val chain_json :
  programs:string list ->
  findings:Kflex_verifier.Lifecycle.chain_finding list ->
  string
(** JSON object for cross-program chain analysis: like {!lint_json} but
    with a ["chain"] array of program names instead of ["program"], and
    each finding carries an additional ["index"] field naming the chain
    position it applies to. *)
