(** Control-flow graphs, dominators and natural loops.

    Used by the verifier's loop analysis (bounded vs unbounded
    classification) and by Kie to locate the back edges where C1
    cancellation points must be inserted (§3.3 of the paper). *)

type block = {
  id : int;  (** index into {!blocks} *)
  first : int;  (** pc of the first instruction *)
  last : int;  (** pc of the last instruction (inclusive) *)
  succs : int list;  (** successor block ids *)
}

type t

type loop = {
  header : int;  (** block id of the loop header *)
  back_edge_src : int;  (** block id of the back-edge source *)
  back_edge_pc : int;  (** pc of the branch instruction forming the edge *)
  body : int list;  (** block ids of the natural loop, header included *)
}

val build : Prog.t -> t

val blocks : t -> block array

val block_of_pc : t -> int -> block
(** The block containing a given pc.
    @raise Invalid_argument for an unreachable or out-of-range pc. *)

val preds : t -> int -> int list
(** Predecessor block ids. *)

val dominators : t -> int -> int list
(** [dominators g b] is the ascending list of block ids dominating block
    [b] (including [b] itself), read off its dominator set. An unreachable
    block other than the entry has none. *)

val dominates : t -> int -> int -> bool
(** [dominates g a b] holds when every path from the entry to [b] passes
    through [a]: one bit test in [b]'s dominator set, which {!build}
    computes as a packed bitset. *)

val loops : t -> loop list
(** Natural loops, one per back edge, innermost first. *)

val reachable : t -> int -> bool
(** Whether a block is reachable from the entry. *)

val pp : Format.formatter -> t -> unit
