(** Value ranges for 64-bit registers.

    A simplified version of the eBPF verifier's scalar bounds tracking: each
    value carries simultaneous unsigned ([umin]/[umax]) and signed
    ([smin]/[smax]) interval bounds {e and} a known-bits view ({!Tnum.t}),
    all kept mutually consistent the way the kernel's [reg_bounds_sync]
    does: known bits narrow the unsigned interval, and the interval pins the
    common high bits back into the tnum. This is the analysis Kie queries to
    elide SFI guards: a heap pointer whose offset range provably lies within
    the heap needs no runtime sanitisation (§3.2, §5.4 of the paper), and it
    is masking/alignment arithmetic — where intervals alone are blind but
    known bits are exact — that the tnum half wins back. *)

type t
(** Abstract: the four bounds and the tnum's two words are stored unboxed
    in one 48-byte block, so an operation allocates only its result. *)

val umin : t -> int64
val umax : t -> int64
val smin : t -> int64
val smax : t -> int64

val bits : t -> Tnum.t
(** The known bits, consistent with the unsigned bounds (a fresh copy). *)

val top : t
(** The unconstrained 64-bit value. *)

val const : int64 -> t
(** A singleton range. *)

val unsigned : int64 -> int64 -> t
(** [unsigned lo hi] is the range of unsigned values in [lo..hi], with
    signed/unsigned/known-bits consistency deduced; an empty interval
    collapses to {!top}. *)

val widen : t -> t
(** The widest range with the same known bits — what loop widening
    degrades a changing value to, so alignment facts survive fixpoint
    iteration. *)

val is_const : t -> int64 option

val equal : t -> t -> bool

val join : t -> t -> t
(** Interval union + tnum union (least upper bound). *)

val subset : t -> t -> bool
(** [subset a b]: every value admitted by [a] is admitted by [b]. *)

val fits_unsigned : t -> lo:int64 -> hi:int64 -> bool
(** Whether all values in the range lie within [lo..hi] as unsigned
    integers — the guard-elision query. *)

val contains : t -> int64 -> bool
(** Whether the word is admitted by the bounds and the known bits. *)

val within_mask : t -> int64 -> bool
(** Whether every possibly-set bit lies inside the mask: an [And] with it
    cannot change the value ({!Tnum.within_mask}). *)

val set_tnum : bool -> unit
(** Enable/disable the known-bits half of the domain (default enabled).
    Disabled, every constructed value carries [Tnum.unknown] and the
    analysis degenerates to the seed's interval-only precision — the
    ablation switch behind the bench's elision-delta column. Restore to
    [true] after measuring; the setting is global. *)

(** Abstract transfer functions, mirroring eBPF ALU semantics (64-bit;
    unsigned division and modulo; division by zero yields 0). All are sound
    over-approximations, exact when both operands are singletons. Each
    computes the interval and known-bits halves independently and
    re-synchronises them. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val rem : t -> t -> t
val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t
val shl : t -> t -> t
val lshr : t -> t -> t
val ashr : t -> t -> t
val neg : t -> t

val refine :
  Kflex_bpf.Insn.cond -> t -> t -> (t * t) option
(** [refine c x y] narrows the ranges of both operands assuming
    [x c y] holds; [None] when the assumption is contradictory (the branch
    is dead). Use with the negated condition for the fall-through edge. *)

val negate_cond : Kflex_bpf.Insn.cond -> Kflex_bpf.Insn.cond
(** The condition that holds exactly when the argument does not. *)

val pp : Format.formatter -> t -> unit
(** Constants print as [{v}]; other ranges print the unsigned/signed
    intervals plus a [t:value/mask] known-bits component when it carries
    information the interval does not. *)
