(** Tristate numbers: the verifier's known-bits abstract domain.

    A tnum [{value; mask}] describes the set of 64-bit words [w] such that
    [w land (lnot mask) = value] — every bit is either {e known} (the
    corresponding [mask] bit is 0 and the bit equals the one in [value]) or
    {e unknown} (the [mask] bit is 1, and then the [value] bit is 0 by
    invariant). This is the same domain the Linux eBPF verifier tracks in
    [struct tnum] ([kernel/bpf/tnum.c]) alongside interval bounds; the two
    views are synchronised in {!Range} the way [reg_bounds_sync] does it.

    It is exactly masking and alignment arithmetic — [land] with a
    size-class mask, [lor] of low flag bits, [lxor] scrambles, shifts by
    constants — where intervals lose precision and known bits retain it,
    which is why the domain sharpens guard elision (§3.2/§5.4 of the paper).

    Deviations from kernel tnum semantics (documented per the repo policy):
    - [div] and [rem] return {!unknown} for non-constant operands; the
      kernel has no tnum transfer for divisions either (it falls back to
      unknown in [scalar_min_max_div] paths), but we also make the
      constant/constant case exact at the {!Range} layer rather than here.
    - [intersect] detects contradictions (known bits that disagree) and
      returns [None]; the kernel's [tnum_intersect] assumes compatible
      inputs and silently produces garbage on conflict. We need the
      contradiction signal to prune dead branches during refinement.
    - Shifts with non-constant shift amounts return {!unknown}; the kernel
      models small ranges of shifts ([tnum_arshift] takes [min_shift]).
      Constant shifts — the only ones our compiler emits for scaling — are
      exact on known bits. *)

type t
(** Invariant: [value land mask = 0]. A tnum is stored as its two words,
    unboxed, in a 16-byte block. *)

val value : t -> int64
val mask : t -> int64

val unknown : t
(** All 64 bits unknown — the top element. *)

val const : int64 -> t
(** All bits known. *)

val make : value:int64 -> mask:int64 -> t
(** Normalises the invariant: bits of [value] under [mask] are cleared. *)

val is_const : t -> int64 option

val contains : t -> int64 -> bool
(** Membership: all known bits of the tnum agree with the word. *)

val within_mask : t -> int64 -> bool
(** [within_mask t m]: every member [w] satisfies [w land m = w] — i.e. all
    possibly-set bits lie inside [m]. This is the "redundant sanitisation"
    query: an [And] with [m] cannot change such a value. *)

val range : int64 -> int64 -> t
(** [range lo hi] (unsigned [lo <= hi]): the best tnum containing the whole
    interval — the common high-bit prefix of [lo] and [hi] is known, bits
    below the highest differing bit are unknown (kernel [tnum_range]). *)

val intersect : t -> t -> t option
(** Greatest lower bound; [None] when known bits disagree (empty set). *)

val union : t -> t -> t
(** Least upper bound (kernel [tnum_union]). *)

val subset : t -> t -> bool
(** [subset a b]: every member of [a] is a member of [b]. *)

(** {1 Transfer functions}

    Sound over-approximations of 64-bit machine arithmetic, ported from
    [kernel/bpf/tnum.c]. All are exact when both operands are constants. *)

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val mul : t -> t -> t

val div : t -> t -> t
(** Always {!unknown} unless handled as constants by the caller. *)

val rem : t -> t -> t
(** Always {!unknown} unless handled as constants by the caller. *)

val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t

val shl : t -> t -> t
(** Shift by a tnum amount: exact when the amount is constant (taken
    modulo 64, as the ISA does), otherwise {!unknown}. *)

val lshr : t -> t -> t
val ashr : t -> t -> t

(** {1 Unboxed kernels}

    {!Range} keeps a tnum's two words unboxed at a byte offset of its own
    block. Each kernel reads its operands' value and mask at bytes [o] and
    [o + 8] and writes its result at the same offset of [d], which may be
    an operand; it allocates nothing. *)
module At : sig
  val add : int -> Bytes.t -> Bytes.t -> Bytes.t -> unit
  val sub : int -> Bytes.t -> Bytes.t -> Bytes.t -> unit
  val neg : int -> Bytes.t -> Bytes.t -> unit
  val mul : int -> Bytes.t -> Bytes.t -> Bytes.t -> unit
  val logand : int -> Bytes.t -> Bytes.t -> Bytes.t -> unit
  val logor : int -> Bytes.t -> Bytes.t -> Bytes.t -> unit
  val logxor : int -> Bytes.t -> Bytes.t -> Bytes.t -> unit
  val shl : int -> Bytes.t -> Bytes.t -> Bytes.t -> unit
  val lshr : int -> Bytes.t -> Bytes.t -> Bytes.t -> unit
  val ashr : int -> Bytes.t -> Bytes.t -> Bytes.t -> unit
  val union : int -> Bytes.t -> Bytes.t -> Bytes.t -> unit

  val intersect : int -> Bytes.t -> Bytes.t -> Bytes.t -> bool
  (** [false], leaving [d] unwritten, when known bits disagree. *)

  val subset : int -> Bytes.t -> Bytes.t -> bool
  val equal : int -> Bytes.t -> Bytes.t -> bool
end

val smear : int64 -> int64
(** Every bit at or below the highest set bit of the argument. *)

val range_mask : int64 -> int64 -> int64
(** The mask of [range lo hi]; its value is [lo] with those bits
    cleared. *)

val pp : Format.formatter -> t -> unit
(** Constants print as the value; otherwise [v/m] in hex, e.g. [0x3c/0xff]
    — kernel notation: value slash mask. *)
