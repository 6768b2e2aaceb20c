(** The central cancellation reaper (§4.3 done the way the kernel does it).

    Per-invocation cost quanta catch runaway loops from {e inside} the VM;
    the reaper is the complementary {e outside} watchdog. Each shard owns
    one {!slot}; a shard arms it with the extension and deadline of the
    invocation it is about to run and disarms it afterwards. A periodic
    {!scan} injects cancellation into any slot past its deadline by setting
    the extension's cancel flag, so the next cancellation point faults and
    unwinds through the static object table. It also watches
    {!Kflex_runtime.Timeslice} values for §4.4 lock holders owing a
    preemption, force-preempting each at most once.

    A slot is one atomic state word — a generation bumped by every arm,
    and a phase: idle → running (arm) → idle (disarm), or running →
    cancelling → cancelled (scan) → idle (disarm). Every transition is a
    store or a CAS, so arming and disarming take no lock. A scan cancels
    by CAS from the exact word it read: once the shard disarms, the
    generation has moved on and a stale scan's CAS fails, so a scan can
    never cancel a later invocation. A disarm that finds the slot
    cancelling waits for the reaper's next store, then clears the flag it
    set — before the shard can arm the slot again.

    The engine uses a reaper in threaded mode only: the process's one
    watchdog domain calls {!scan} on the wall clock, every 500 µs, on the
    reaper of each threaded engine with a deadline. A deterministic engine
    lowers its deadline onto each instance's quantum instead
    ({!Engine.create}). *)

type t

type slot
(** One shard's watchdog slot. *)

val create : ?slots:int -> unit -> t
(** [slots] (default 1) slots, one per shard. *)

val slot : t -> int -> slot

val arm : slot -> Kflex_runtime.Vm.ext -> deadline:float -> unit
(** Start watching an invocation of the extension that must finish by
    [deadline] (ns, on the scanner's clock).
    @raise Invalid_argument if the slot is already armed. *)

val disarm : t -> slot -> finished:bool -> unit
(** Stop watching it and clear any cancellation the reaper injected.
    [finished] says the invocation ran to completion: a cancel that landed
    after its last cancellation point never took effect and is not
    counted. No-op on an idle slot. *)

val expired : slot -> now:float -> int
(** The slot's state word when it holds a running invocation past its
    deadline at [now], else -1. [scan] is [expired] then [cancel_if] on
    every slot; the split lets tests interleave a disarm in between. *)

val cancel_if : slot -> int -> bool
(** Cancel the invocation named by a word {!expired} returned — unless the
    slot has moved on since (disarmed, re-armed, already cancelled).
    Returns whether it cancelled. *)

val watch : t -> Kflex_runtime.Timeslice.t -> unit
(** Watch a §4.4 time-slice: scans {!Kflex_runtime.Timeslice.force_preempt}
    it (once) as soon as [should_preempt] holds. *)

val unwatch : t -> Kflex_runtime.Timeslice.t -> unit

val scan : t -> now:float -> unit
(** One watchdog pass at time [now] (ns). *)

val cancellations : t -> int
(** Invocations the reaper cancelled (counted at disarm). *)

val preemptions : t -> int
(** Total time-slice force-preemptions issued. *)
