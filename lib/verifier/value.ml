type ptr_kind = Ctx | Stack | Heap

type t =
  | Uninit
  | Scalar of Range.t
  | Unknown
  | Ptr of { kind : ptr_kind; off : Range.t; nullable : bool }
  | Obj of { klass : string; id : int; nullable : bool }

let scalar_top = Scalar Range.top

let equal a b =
  a == b
  ||
  match (a, b) with
  | Uninit, Uninit -> true
  | Unknown, Unknown -> true
  | Scalar x, Scalar y -> Range.equal x y
  | Ptr p, Ptr q ->
      p.kind = q.kind && Range.equal p.off q.off && p.nullable = q.nullable
  | Obj o, Obj p -> o.klass = p.klass && o.id = p.id && o.nullable = p.nullable
  | _ -> false

(* Returns [a] itself whenever the join is [a], so that unchanged states
   stay physically shared. *)
let join a b =
  if a == b then a
  else
    match (a, b) with
    | Uninit, _ | _, Uninit -> Uninit
    | Scalar x, Scalar y ->
        let r = Range.join x y in
        if r == x then a else Scalar r
    | Unknown, (Scalar _ | Unknown | Ptr { kind = Heap; _ })
    | (Scalar _ | Ptr { kind = Heap; _ }), Unknown ->
        Unknown
    | Ptr p, Ptr q when p.kind = q.kind ->
        let off = Range.join p.off q.off and nullable = p.nullable || q.nullable in
        if off == p.off && nullable = p.nullable then a
        else Ptr { kind = p.kind; off; nullable }
    | Ptr { kind = Heap; _ }, Scalar _ | Scalar _, Ptr { kind = Heap; _ } ->
        (* a heap address or a number: usable only through a guard *)
        Unknown
    | Obj o, Obj p when o.klass = p.klass && o.id = p.id ->
        if o.nullable || not p.nullable then a else Obj { o with nullable = true }
    | _ -> Uninit

let obj_id = function Obj o -> Some o.id | _ -> None

let pp_ptr_kind ppf k =
  Format.pp_print_string ppf
    (match k with Ctx -> "ctx" | Stack -> "stack" | Heap -> "heap")

let pp ppf = function
  | Uninit -> Format.pp_print_string ppf "uninit"
  | Unknown -> Format.pp_print_string ppf "unknown"
  | Scalar r -> Format.fprintf ppf "scalar%a" Range.pp r
  | Ptr p ->
      Format.fprintf ppf "%a_ptr%a%s" pp_ptr_kind p.kind Range.pp p.off
        (if p.nullable then "?" else "")
  | Obj o ->
      Format.fprintf ppf "obj<%s#%d>%s" o.klass o.id
        (if o.nullable then "?" else "")
