(** The KFlex runtime's execution engine (§3, step 3).

    Runs an instrumented program, compiled to closures by {!Jit}, while
    enforcing the two runtime halves of extension correctness:

    - {b memory safety}: [Guard] instructions sanitise heap addresses
      (mask + base, one unit of cost, §4.2); accesses that land in guard
      zones or on unpopulated pages raise faults;
    - {b safe termination}: when an invocation exceeds its quantum (or a
      sibling CPU already cancelled the extension), the next [Checkpoint] —
      the [*terminate] heap access — faults; the runtime catches the fault,
      walks the cancellation point's static object table, invokes each
      destructor on the value found at the recorded register/stack-slot
      location, and returns the hook's default code (§3.3, §4.3).

    Execution is cost-accounted: every instruction (including each [Guard])
    costs one unit, and helpers add their declared cost. Benchmarks convert
    units to time through the kernel cost model. *)

type fault_reason =
  | Page_fault  (** heap access to an unpopulated page (C2) *)
  | Guard_zone  (** displacement carried the access past the heap edge *)
  | Wild_access  (** unguarded address outside every region *)
  | Quantum_expired  (** watchdog-initiated cancellation at a C1 point *)
  | Lock_stall  (** spin lock unobtainable within the quantum *)
  | Ext_cancelled  (** another CPU cancelled this extension (§4.3) *)

type stats = {
  mutable insns : int;  (** instructions retired, guards included *)
  mutable guards : int;
  mutable checkpoints : int;
  mutable helper_calls : int;
  mutable helper_cost : int;  (** extra cost units charged by helpers *)
}

val fresh_stats : unit -> stats

val total_cost : stats -> int
(** [insns + helper_cost]. *)

type outcome =
  | Finished of int64
  | Cancelled of {
      orig_pc : int;  (** pre-instrumentation pc of the cancellation point *)
      reason : fault_reason;
      released : (string * string) list;  (** (class, destructor) per object
          released by object-table unwinding *)
      ret : int64;  (** the default (or callback-adjusted) return code *)
      ledger_leaked : int;  (** objects the static table failed to release —
          always 0; tests assert this invariant *)
    }

(** {2 Helper ABI}

    Helpers are called directly, the way the kernel calls them: arguments
    in [r1]–[r5] of the live register file, the result in [r0] (cleared to
    0 before every call). A helper receives the invocation's execution
    state as its [call_ctx] and reaches VM memory, cost accounting and the
    ledger through the inlined accessors below — no closure sits between a
    helper and the VM, so no [int64] is boxed crossing it. *)

type call_ctx

type helper = call_ctx -> unit

exception Helper_stall
(** Raised by a helper that cannot make progress (e.g. contended lock):
    the VM cancels the extension at the call site with {!Lock_stall}. *)

val arg : call_ctx -> int -> int64
(** [arg c i] reads argument register [r(i+1)], for [i] in 0–4. *)

val set_ret : call_ctx -> int64 -> unit
(** Store the helper's return value in [r0]. *)

val charge : call_ctx -> int -> unit
(** Add helper cost units to the invocation's stats. *)

val cpu : call_ctx -> int
val ledger : call_ctx -> Ledger.t

val read16 : call_ctx -> int64 -> int64
(** VM memory (stack, ctx or heap) as the extension sees it, with its
    faults; zero-extended. *)

val read64 : call_ctx -> int64 -> int64
val write64 : call_ctx -> int64 -> int64 -> unit

val stack_base : int64
(** Virtual base of the 512-byte extension stack window ([r10] starts at
    [stack_base + 512]). *)

val ctx_base : int64
(** Virtual base of the context window ([r1] at entry). *)

val seed_prandom : int64 -> unit
(** Reset the deterministic PRNG behind [bpf_get_prandom_u32] — benchmarks
    comparing instrumentation modes of randomised structures (skiplists)
    need identical shapes across runs. *)

val set_vtime : int64 -> unit
(** Reset the virtual clock behind [bpf_ktime_get_ns] (each call advances it
    by one tick). Differential tests aligning the facade against the
    engine's per-shard clocks reset both to the same origin. *)

val prandom_helper : U64.cell -> helper
(** A [bpf_get_prandom_u32] implementation over caller-owned state, using
    the exact global algorithm (xorshift64-star). Seed the cell with
    [Int64.logor seed 1L] to match {!seed_prandom}. The engine shadows the
    builtin with one of these per shard, so streams are per-CPU like the
    kernel's and never race across domains. The state lives in a {!U64.cell}
    rather than an [int64 ref] so advancing it never allocates. *)

val ktime_helper : U64.cell -> helper
(** Same for [bpf_ktime_get_ns]: a one-tick-per-call virtual clock over
    caller-owned state. *)

val builtin_helpers : (string * helper) list
(** Implementations of the KFlex runtime API: the packet accessors
    ({!native_builtins}), [kflex_malloc], [kflex_free], [kflex_spin_lock],
    [kflex_spin_unlock], [kflex_heap_base], [bpf_get_smp_processor_id],
    [bpf_ktime_get_ns], [bpf_get_prandom_u32]. *)

val native_builtins : string list
(** The builtins the fused Jit compiles into the call's own closure, with
    no helper-table call: [pkt_len], [pkt_read_u8/16/32/64] and
    [pkt_write_u8/16/32/64]. They read and write the invocation's packet
    payload (the [pkt] of {!run} and {!exec}): [pkt_len(ctx)] charges 2,
    each read or write charges 3; a read outside the payload returns 0 and
    a write outside it is ignored. *)

val pkt_read : Bytes.t -> width:int -> int64 -> int64
(** The packet builtins' semantics on a payload, for host-side callers:
    little-endian and zero-extended, 0 unless the [width] bytes at the
    offset lie inside the payload. [width] is 1, 2, 4 or 8. *)

val pkt_write : Bytes.t -> width:int -> int64 -> int64 -> unit
(** Ignored unless the [width] bytes at the offset lie inside the
    payload. *)

type ext
(** A loaded (instrumented) extension ready to run. *)

val default_quantum : int
(** 100 million cost units (seconds of real execution, §4.3): the quantum
    of an extension created without one. *)

val create :
  ?heap:Heap.t ->
  ?alloc:Alloc.t ->
  ?quantum:int ->
  ?default_ret:int64 ->
  ?on_cancel:(int64 -> int64) ->
  helpers:(string * helper) list ->
  Kflex_kie.Instrument.t ->
  ext
(** [quantum] is the watchdog budget in cost units per invocation (default
    {!default_quantum}). [on_cancel] is the §4.3
    user callback that may rewrite the default return code. [helpers] extend
    (and may shadow) {!builtin_helpers}, except the {!native_builtins}: the
    compiled form never consults the table for those, so shadowing one
    raises [Invalid_argument]. *)

val cancel : ext -> unit
(** Request cancellation (all CPUs, §4.3): every running or future
    invocation faults at its next cancellation point. *)

val cancelled : ext -> bool

val cancel_flag : ext -> bool ref
(** The flag {!cancel} sets and every cancellation point loads — a
    watchdog holds it to cancel without holding the extension. *)

val reset_cancel : ext -> unit
(** Re-arm a cancelled extension (tests only; the paper's runtime unloads the
    extension instead). *)

val kie : ext -> Kflex_kie.Instrument.t

val precompile : ext -> Jit.t
(** Compile the extension's instrumented program and install the result,
    so the first invocation skips lazy compilation. Returns the compiled
    form (for fusion/compile-time reporting). *)

val set_compiled : ext -> Jit.t -> unit
(** Install an externally compiled program (e.g. from the core facade's
    compiled-program cache), linking its helper table against this
    extension's helpers. *)

val run :
  ext -> ctx:Bytes.t -> pkt:Bytes.t -> cpu:int -> stats:stats -> outcome
(** One invocation — {!exec} without optional arguments, for per-event
    callers: it allocates nothing when the extension finishes with a
    return value in [-1, 255] (those outcomes are preallocated). *)

val exec :
  ext ->
  ctx:Bytes.t ->
  ?pkt:Bytes.t ->
  ?cpu:int ->
  ?stats:stats ->
  unit ->
  outcome
(** Run one invocation with the given context block and packet payload
    ([pkt], default empty), both installed in the execution state for the
    invocation. [stats], when supplied, accumulates across invocations. The
    invocation runs the compiled form ({!Jit}), compiling it on first use
    unless {!precompile} or {!set_compiled} installed one. A run that needs
    observers takes {!Ref_interp.exec}. *)

(** The reference the differential oracles hold the compiled form to, and
    the executor of their observed runs: a boxed [int64 array]
    register file with [Stdlib.Int64] arithmetic everywhere (including the
    stdlib's unsigned division) and the width-dispatched generic memory
    path. Shares no ALU/comparison/accessor code with {!Jit}, so a
    representation bug there cannot also hide here. Outcomes, stats and
    memory effects are identical to {!exec}'s; it is several times slower,
    so per-event paths without observers must not take it. *)
module Ref_interp : sig
  val exec :
    ext ->
    ctx:Bytes.t ->
    ?pkt:Bytes.t ->
    ?cpu:int ->
    ?stats:stats ->
    ?on_insn:(int -> int64 array -> unit) ->
    ?on_site:(unit -> bool) ->
    unit ->
    outcome
  (** {!exec}'s contract, plus two observers.

      [on_insn] observes every instruction boundary: it receives the
      instrumented pc and the register file {e before} the instruction
      executes and is charged. The array is the interpreter's own, live
      for the whole run: copy it to keep it. Exceptions [on_insn] raises
      propagate out of [exec] uncaught — the fuzzer's containment oracle
      uses this both to check abstract states and to bound runaway
      concrete loops.

      [on_site] is consulted at every cancellation site, in execution
      order: each [Checkpoint], after its watchdog check, and each
      [Ldx]/[Stx]/[St]/[Xstore]/[Atomic] whose address leaves the
      stack/ctx windows, after the access is charged and before it
      executes. Returning [true] injects an asynchronous cancellation
      ({!Ext_cancelled}) at that site, exercising object-table unwinding.
      The fuzzer's oracles record the sites and inject cancellations
      there. *)
end
