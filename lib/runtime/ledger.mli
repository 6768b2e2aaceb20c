(** Dynamic ledger of kernel objects held by a running extension invocation.

    The KFlex design point is that the runtime does {e not} need such
    dynamic tracking — object tables are computed statically (§3.3). The
    ledger exists because our helpers must actually manage reference counts,
    and because tests use it as ground truth: after a cancellation unwinds
    via the static object table, the ledger must be empty, which is exactly
    the property the paper's static computation guarantees. *)

type t

val create : unit -> t

val acquire : t -> handle:int64 -> destructor:string -> unit

val release : t -> handle:int64 -> bool
(** [false] if the handle was not held. *)

val count : t -> int

val clear : t -> unit
(** Drop every held entry — used when an execution context is recycled for
    the next invocation. *)
