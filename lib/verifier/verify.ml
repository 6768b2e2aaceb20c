open Kflex_bpf

type mode = Ebpf | Kflex

type error_kind =
  | E_uninit
  | E_bounds
  | E_type
  | E_helper
  | E_leak
  | E_loop
  | E_resource

type error = { pc : int option; kind : error_kind; msg : string }

type heap_access = {
  pc : int;
  is_store : bool;
  is_atomic : bool;
  width : int;
  addr_reg : Reg.t;
  elidable : bool;
  formation : bool;
  stored_ptr : bool;
  eff : Range.t;
}

type branch_verdict = Always_taken | Never_taken

type res_entry = { res : State.resource; loc : State.loc }

type stats = { block_visits : int; joins : int; widenings : int }

exception Err of error

let err ?pc kind fmt =
  Format.kasprintf (fun msg -> raise (Err { pc; kind; msg })) fmt

let error_kind_name = function
  | E_uninit -> "uninit"
  | E_bounds -> "bounds"
  | E_type -> "type"
  | E_helper -> "helper"
  | E_leak -> "leak"
  | E_loop -> "loop"
  | E_resource -> "resource"

let pp_error ppf e =
  let kind = error_kind_name e.kind in
  match e.pc with
  | Some pc -> Format.fprintf ppf "insn %d: [%s] %s" pc kind e.msg
  | None -> Format.fprintf ppf "[%s] %s" kind e.msg

(* ------------------------------------------------------------------ *)

type env = {
  mode : mode;
  contracts : Contract.registry;
  ctx_size : int;
  heap_size : int64 option;
  sleepable : bool;
  (* min byte index of the stack frame touched, for stack_used *)
  min_stack : int ref;
}

(* What [states_at] replays the final pass from: the environment and the
   fixpoint's block-entry states. The per-pc states are built on the first
   request; two domains asking at once each build them, and one result
   wins. *)
type replay = {
  env : env;
  entries : State.t option array;
  states : State.t option array option Atomic.t;
}

type analysis = {
  prog : Prog.t;
  cfg : Cfg.t;
  heap_accesses : heap_access list;
  unbounded : Cfg.loop list;
  res_at : res_entry list array;
  stack_used : int;
  insn_count : int;
  reached : bool array;
  verdicts : (int * branch_verdict) list;
  redundant_masks : (int * int64) list;
  stats : stats;
  replay : replay;
}

let use ~pc st r =
  match State.get st r with
  | Value.Uninit -> err ~pc E_uninit "use of uninitialised %a" Reg.pp r
  | v -> v

let src_value ~pc st = function
  | Insn.Reg r -> use ~pc st r
  | Insn.Imm i -> Value.Scalar (Range.const i)

let heapish = function
  | Value.Scalar _ | Value.Unknown | Value.Ptr { kind = Value.Heap; _ } -> true
  | _ -> false

let require_heap env ~pc =
  match (env.mode, env.heap_size) with
  | Kflex, Some sz -> sz
  | Kflex, None -> err ~pc E_type "extension uses its heap but none is attached"
  | Ebpf, _ ->
      err ~pc E_type
        "memory access outside ctx/stack: plain eBPF rejects extension-defined \
         memory (use KFlex mode with a heap)"

(* --- ALU transfer ------------------------------------------------- *)

let range_op (op : Insn.alu_op) =
  match op with
  | Insn.Add -> Range.add
  | Insn.Sub -> Range.sub
  | Insn.Mul -> Range.mul
  | Insn.Div -> Range.div
  | Insn.Mod -> Range.rem
  | Insn.And -> Range.logand
  | Insn.Or -> Range.logor
  | Insn.Xor -> Range.logxor
  | Insn.Lsh -> Range.shl
  | Insn.Rsh -> Range.lshr
  | Insn.Arsh -> Range.ashr

let alu_value env ~pc op va vb =
  let open Value in
  match (va, vb, op) with
  | Scalar a, Scalar b, _ -> Scalar ((range_op op) a b)
  (* heap pointer arithmetic: add/sub scalar keeps the pointer *)
  | Ptr ({ kind = Heap; _ } as p), Scalar s, Insn.Add ->
      Ptr { p with off = Range.add p.off s }
  | Ptr ({ kind = Heap; _ } as p), Scalar s, Insn.Sub ->
      Ptr { p with off = Range.sub p.off s }
  | Scalar s, Ptr ({ kind = Heap; _ } as p), Insn.Add ->
      Ptr { p with off = Range.add p.off s }
  | Ptr { kind = Heap; off = o1; _ }, Ptr { kind = Heap; off = o2; _ }, Insn.Sub
    ->
      Scalar (Range.sub o1 o2)
  (* other operations involving heap words degrade to untrusted data, which
     is fine: any dereference will be guarded *)
  | (Ptr { kind = Heap; _ } | Unknown | Scalar _),
      (Ptr { kind = Heap; _ } | Unknown | Scalar _), _ ->
      ignore (require_heap env ~pc);
      Unknown
  (* ctx/stack pointer arithmetic: constant-range add/sub only, non-null *)
  | Ptr ({ kind = (Ctx | Stack) as k; nullable = false; _ } as p), Scalar s,
      (Insn.Add | Insn.Sub) ->
      let off =
        if op = Insn.Add then Range.add p.off s else Range.sub p.off s
      in
      Ptr { kind = k; off; nullable = false }
  | Ptr { kind = Stack; off = o1; _ }, Ptr { kind = Stack; off = o2; _ },
      Insn.Sub ->
      Scalar (Range.sub o1 o2)
  | Ptr { nullable = true; kind = Ctx | Stack; _ }, _, _ ->
      err ~pc E_type "arithmetic on possibly-null pointer"
  | Obj _, _, _ | _, Obj _, _ ->
      err ~pc E_type "arithmetic on kernel object pointer"
  | _ -> err ~pc E_type "invalid pointer arithmetic"

(* --- stack access -------------------------------------------------- *)

let stack_byte ~pc off disp =
  if Range.umin off <> Range.umax off then
    err ~pc E_bounds "stack access at variable offset"
  else
    let byte = Int64.to_int (Range.umin off) + disp + Prog.stack_size in
    if byte < 0 || byte + 1 > Prog.stack_size then
      err ~pc E_bounds "stack access out of frame (byte %d)" byte
    else byte

let touch_stack env byte = if byte < !(env.min_stack) then env.min_stack := byte

let stack_load env ~pc st off disp width =
  let byte = stack_byte ~pc off disp in
  if byte + width > Prog.stack_size then
    err ~pc E_bounds "stack access past frame end";
  touch_stack env byte;
  let slot = byte / 8 in
  if width = 8 && byte mod 8 = 0 then
    match State.slot st slot with
    | State.S_spill v -> v
    | State.S_misc -> Value.scalar_top
    | State.S_empty -> err ~pc E_uninit "read of uninitialised stack slot %d" slot
  else begin
    let last = (byte + width - 1) / 8 in
    for s = slot to last do
      match State.slot st s with
      | State.S_empty ->
          err ~pc E_uninit "read of uninitialised stack slot %d" s
      | State.S_spill (Value.Ptr _ | Value.Obj _) when width < 8 ->
          err ~pc E_type "partial read of spilled pointer"
      | _ -> ()
    done;
    if width = 8 then Value.scalar_top
    else
      Value.Scalar
        (Range.unsigned 0L Int64.(sub (shift_left 1L (8 * width)) 1L))
  end

let stack_store env ~pc st off disp width v =
  let byte = stack_byte ~pc off disp in
  if byte + width > Prog.stack_size then
    err ~pc E_bounds "stack access past frame end";
  touch_stack env byte;
  if width = 8 && byte mod 8 = 0 then
    State.write_slot st (byte / 8) (State.S_spill v)
  else begin
    (match v with
    | Value.Ptr _ | Value.Obj _ ->
        err ~pc E_type "partial spill of pointer to stack"
    | _ -> ());
    for s = byte / 8 to (byte + width - 1) / 8 do
      (match State.slot st s with
      | State.S_spill (Value.Obj _) ->
          err ~pc E_resource "overwriting spilled kernel object"
      | _ -> ());
      State.write_slot st s State.S_misc
    done
  end

(* --- memory access dispatch ---------------------------------------- *)

type mem_region =
  | M_ctx
  | M_stack
  | M_heap of { elidable : bool; formation : bool; eff : Range.t }

let classify_addr env ~pc ~width ~disp v =
  match v with
  | Value.Ptr { kind = Value.Ctx; off; nullable } ->
      if nullable then err ~pc E_type "possibly-null context pointer dereference";
      let eff = Range.add off (Range.const (Int64.of_int disp)) in
      if
        not
          (Range.fits_unsigned eff ~lo:0L
             ~hi:(Int64.of_int (env.ctx_size - width)))
      then err ~pc E_bounds "context access out of bounds (ctx size %d)" env.ctx_size;
      M_ctx
  | Value.Ptr { kind = Value.Stack; _ } -> M_stack
  | Value.Ptr { kind = Value.Heap; off; nullable } ->
      let hs = require_heap env ~pc in
      let lim = Int64.sub hs (Int64.of_int width) in
      (* The 16-bit displacement is absorbed by the guard zones (§4.1), but
         elision demands the full effective address be provably in-heap. *)
      let eff = Range.add off (Range.const (Int64.of_int disp)) in
      let elidable = (not nullable) && Range.fits_unsigned eff ~lo:0L ~hi:lim in
      M_heap { elidable; formation = false; eff }
  | Value.Scalar r ->
      ignore (require_heap env ~pc);
      M_heap
        {
          elidable = false;
          formation = true;
          eff = Range.add r (Range.const (Int64.of_int disp));
        }
  | Value.Unknown ->
      ignore (require_heap env ~pc);
      M_heap { elidable = false; formation = true; eff = Range.top }
  | Value.Obj _ ->
      err ~pc E_type
        "direct dereference of kernel object (use the helper interface)"
  | Value.Uninit -> err ~pc E_uninit "dereference of uninitialised register"

let check_storable ~pc v =
  match v with
  | Value.Uninit -> err ~pc E_uninit "store of uninitialised value"
  | Value.Obj _ ->
      err ~pc E_resource "kernel object pointer leaked to extension memory"
  | Value.Ptr { kind = Value.Ctx | Value.Stack; _ } ->
      err ~pc E_resource "kernel address leaked to extension memory"
  | _ -> ()

(* --- helper calls --------------------------------------------------- *)

let arg_regs = [| Reg.R1; Reg.R2; Reg.R3; Reg.R4; Reg.R5 |]

let check_arg env ~pc ~helper st i (shape : Contract.arg) =
  let r = arg_regs.(i) in
  let v = use ~pc st r in
  let bad expect =
    err ~pc E_helper "%s arg %d: expected %s, got %a" helper (i + 1) expect
      Value.pp v
  in
  match shape with
  | Contract.A_any -> ()
  | Contract.A_scalar -> (
      match v with Value.Scalar _ | Value.Unknown -> () | _ -> bad "scalar")
  | Contract.A_ctx -> (
      match v with
      | Value.Ptr { kind = Value.Ctx; nullable = false; _ } -> ()
      | _ -> bad "context pointer")
  | Contract.A_heap_ptr ->
      ignore (require_heap env ~pc);
      if not (heapish v) then bad "heap pointer"
  | Contract.A_heap_or_null ->
      ignore (require_heap env ~pc);
      if not (heapish v) then bad "heap pointer or null"
  | Contract.A_stack_ptr n -> (
      match v with
      | Value.Ptr { kind = Value.Stack; off; nullable = false } ->
          (* bytes [off .. off+n) must be initialised; helper may overwrite *)
          let byte = stack_byte ~pc off 0 in
          if byte + n > Prog.stack_size then
            err ~pc E_bounds "%s arg %d: stack buffer past frame end" helper
              (i + 1);
          touch_stack env byte;
          for s = byte / 8 to (byte + n - 1) / 8 do
            (match State.slot st s with
            | State.S_empty ->
                err ~pc E_helper "%s arg %d: uninitialised stack buffer" helper
                  (i + 1)
            | State.S_spill (Value.Obj _) ->
                err ~pc E_resource "%s arg %d: stack buffer holds kernel object"
                  helper (i + 1)
            | _ -> ());
            (* the helper may overwrite the buffer; registers loaded from it
               keep their origin, and a refinement narrows only a slot that
               still holds a spill *)
            State.put_slot st s State.S_misc
          done
      | _ -> bad "stack pointer")
  | Contract.A_obj k -> (
      match v with
      | Value.Obj { klass; nullable = false; _ } when klass = k -> ()
      | Value.Obj { klass; nullable = true; _ } when klass = k ->
          err ~pc E_helper "%s arg %d: possibly-null %s (null-check it first)"
            helper (i + 1) k
      | _ -> bad (Printf.sprintf "held %s object" k))

let transfer_call env ~pc st name =
  (* Resource ids are the acquiring call's pc: deterministic across fixpoint
     iterations (states from different passes must join), and unique per
     acquisition site. At most one resource per site can be live — a second
     live acquisition from the same site is only reachable through a loop,
     which the §3.1 convergence rule already forbids. *)
  let c =
    match Contract.find env.contracts name with
    | Some c -> c
    | None -> err ~pc E_helper "unknown helper %s" name
  in
  if c.Contract.sleepable && not env.sleepable then
    err ~pc E_helper "%s may sleep but the hook is non-sleepable" name;
  (* upper bound of the first scalar argument, pre-clobber (allocator sizes) *)
  let size_max =
    match c.Contract.args with
    | first :: _ when first = Contract.A_scalar -> (
        match State.get st Reg.R1 with
        | Value.Scalar r ->
            if Range.equal r Range.top then None else Some (Range.umax r)
        | _ -> None)
    | _ -> None
  in
  List.iteri
    (fun i shape -> check_arg env ~pc ~helper:name st i shape)
    c.Contract.args;
  (* release effects act on the argument object *)
  (match c.Contract.eff with
  | Contract.E_release i -> (
      let v = State.get st arg_regs.(i) in
      match Value.obj_id v with
      | Some id ->
          if not (State.has_res st id) then
            err ~pc E_resource "%s: releasing object not held" name;
          State.remove_res st id;
          State.substitute_obj st ~id Value.Uninit
      | None -> err ~pc E_helper "%s: release argument is not an object" name)
  | _ -> ());
  (* clobber caller-saved registers *)
  State.clobber st Reg.caller_saved;
  (* return value + acquire effects *)
  let acquire ~nullable klass =
    let destructor =
      match c.Contract.destructor with
      | Some d -> d
      | None -> err ~pc E_helper "%s acquires %s but has no destructor" name klass
    in
    let id = pc in
    if State.has_res st id then
      err ~pc E_resource
        "%s: re-acquiring while the object from this call site is still held \
         (release it within the loop iteration, §3.1)"
        name;
    State.add_res st { State.id; klass; destructor };
    State.set st Reg.R0 (Value.Obj { klass; id; nullable })
  in
  match c.Contract.ret with
  | Contract.R_scalar -> State.set st Reg.R0 Value.scalar_top
  | Contract.R_scalar_range (lo, hi) ->
      State.set st Reg.R0 (Value.Scalar (Range.unsigned lo hi))
  | Contract.R_unit -> State.set st Reg.R0 (Value.Scalar (Range.const 0L))
  | Contract.R_heap_ptr_or_null ->
      let hs = require_heap env ~pc in
      (* An allocator never returns a block overhanging the heap end, so a
         known allocation size bounds the result's offset — this is what
         makes field accesses on freshly allocated objects guard-elidable
         (§5.4). [size_max] is read before the clobber of r1–r5 above, so
         recompute it from the pre-call state. *)
      let off =
        match size_max with
        | Some m when Int64.unsigned_compare m hs <= 0 ->
            Range.unsigned 0L (Int64.sub hs m)
        | _ -> Range.top
      in
      State.set st Reg.R0 (Value.Ptr { kind = Value.Heap; off; nullable = true })
  | Contract.R_heap_base ->
      ignore (require_heap env ~pc);
      State.set st Reg.R0
        (Value.Ptr { kind = Value.Heap; off = Range.const 0L; nullable = false })
  | Contract.R_obj klass -> acquire ~nullable:false klass
  | Contract.R_obj_or_null klass -> acquire ~nullable:true klass

(* --- conditional refinement ----------------------------------------- *)

let refine_branch ~pc st cond a srcv taken =
  (* Refines [st] in place for the edge where [cond] holds iff [taken];
     false, leaving [st] as it was, when the edge is dead. *)
  let c = if taken then cond else Range.negate_cond cond in
  let va = State.get st a in
  let vb = match srcv with `Reg (_, v) -> v | `Imm i -> Value.Scalar (Range.const i) in
  match (va, vb) with
  | Value.Scalar ra, Value.Scalar rb -> (
      match Range.refine c ra rb with
      | None -> false
      | Some (ra', rb') ->
          State.refine_mirrored st a (Value.Scalar ra');
          (match srcv with
          | `Reg (rb_reg, _) -> State.refine_mirrored st rb_reg (Value.Scalar rb')
          | `Imm _ -> ());
          true)
  (* null checks on nullable objects: the null edge drops the resource *)
  | Value.Obj o, Value.Scalar rz when Range.is_const rz = Some 0L -> (
      match c with
      | Insn.Eq ->
          (* a held object is never null: that edge is dead *)
          o.nullable
          && begin
               State.remove_res st o.id;
               State.substitute_obj st ~id:o.id (Value.Scalar (Range.const 0L));
               true
             end
      | Insn.Ne ->
          State.set_nonnull_obj st ~id:o.id;
          true
      | _ -> true)
  (* null checks on nullable pointers *)
  | Value.Ptr p, Value.Scalar rz when Range.is_const rz = Some 0L -> (
      match c with
      | Insn.Eq ->
          if p.nullable then begin
            State.set st a (Value.Scalar (Range.const 0L));
            true
          end
          else p.kind = Value.Heap
      | Insn.Ne ->
          State.set st a (Value.Ptr { p with nullable = false });
          true
      | _ -> true)
  | (Value.Unknown | Value.Scalar _ | Value.Ptr _ | Value.Obj _), _ -> true
  | Value.Uninit, _ -> err ~pc E_uninit "branch on uninitialised register"

(* --- per-instruction transfer ---------------------------------------- *)

(* Result of executing one instruction, which updates its state in place.
   A branch refines a copy for its taken edge ([None] when that edge is
   dead) and the state itself for the fall-through edge (when the flag is
   set; otherwise that edge is dead and the state unchanged). *)
type outcome = Fall | Branch of State.t option * bool | Jump | Stop

(* [accesses] is [None] during the fixpoint, whose intermediate states
   classify accesses the final pass classifies again *)
let record_access accesses ~pc ~is_store ~is_atomic ?(stored_ptr = false)
    ~width ~addr_reg region =
  match (accesses, region) with
  | Some accesses, M_heap { elidable; formation; eff } ->
      accesses :=
        {
          pc;
          is_store;
          is_atomic;
          width;
          addr_reg;
          elidable;
          formation;
          stored_ptr;
          eff;
        }
        :: !accesses
  | _ -> ()

let transfer env accesses ~pc st (insn : Insn.t) =
  match insn with
  | Insn.Mov (d, s) ->
      State.set st d (src_value ~pc st s);
      Fall
  | Insn.Neg d ->
      (match use ~pc st d with
      | Value.Scalar r -> State.set st d (Value.Scalar (Range.neg r))
      | Value.Unknown -> State.set st d Value.Unknown
      | _ -> err ~pc E_type "negation of pointer");
      Fall
  | Insn.Alu (op, d, s) ->
      let va = use ~pc st d and vb = src_value ~pc st s in
      State.set st d (alu_value env ~pc op va vb);
      Fall
  | Insn.Ldx (sz, d, s, disp) -> (
      let width = Insn.size_bytes sz in
      let v = use ~pc st s in
      let region = classify_addr env ~pc ~width ~disp v in
      record_access accesses ~pc ~is_store:false ~is_atomic:false ~width
        ~addr_reg:s region;
      match region with
      | M_ctx ->
          let bound =
            if width = 8 then Value.scalar_top
            else
              Value.Scalar
                (Range.unsigned 0L Int64.(sub (shift_left 1L (8 * width)) 1L))
          in
          State.set st d bound;
          Fall
      | M_stack ->
          let off =
            match v with Value.Ptr p -> p.off | _ -> assert false
          in
          let loaded = stack_load env ~pc st off disp width in
          let byte = stack_byte ~pc off disp in
          if width = 8 && byte mod 8 = 0 then
            State.set_from_slot st d loaded (byte / 8)
          else State.set st d loaded;
          Fall
      | M_heap _ ->
          let loaded =
            if width = 8 then Value.Unknown
            else
              Value.Scalar
                (Range.unsigned 0L Int64.(sub (shift_left 1L (8 * width)) 1L))
          in
          State.set st d loaded;
          Fall)
  | Insn.Stx (sz, d, disp, _) | Insn.St (sz, d, disp, _) -> (
      let width = Insn.size_bytes sz in
      let stored =
        match insn with
        | Insn.Stx (_, _, _, s') -> use ~pc st s'
        | Insn.St (_, _, _, imm) -> Value.Scalar (Range.const imm)
        | _ -> assert false
      in
      let v = use ~pc st d in
      let region = classify_addr env ~pc ~width ~disp v in
      let stored_ptr =
        match stored with Value.Ptr { kind = Value.Heap; _ } -> true | _ -> false
      in
      record_access accesses ~pc ~is_store:true ~is_atomic:false ~stored_ptr
        ~width ~addr_reg:d region;
      match region with
      | M_ctx -> err ~pc E_type "store to read-only context"
      | M_stack ->
          let off = match v with Value.Ptr p -> p.off | _ -> assert false in
          stack_store env ~pc st off disp width stored;
          Fall
      | M_heap _ ->
          check_storable ~pc stored;
          Fall)
  | Insn.Atomic (op, sz, d, disp, s) -> (
      let width = Insn.size_bytes sz in
      let vd = use ~pc st d in
      let vs = use ~pc st s in
      check_storable ~pc vs;
      let region = classify_addr env ~pc ~width ~disp vd in
      (match region with
      | M_heap _ -> ()
      | _ -> err ~pc E_type "atomic access outside the extension heap");
      record_access accesses ~pc ~is_store:true ~is_atomic:true ~width
        ~addr_reg:d region;
      match op with
      | Insn.Fetch_add | Insn.Fetch_or | Insn.Fetch_and | Insn.Fetch_xor
      | Insn.Xchg ->
          State.set st s Value.Unknown;
          Fall
      | Insn.Cmpxchg ->
          ignore (use ~pc st Reg.R0);
          State.set st Reg.R0 Value.Unknown;
          Fall
      | _ -> Fall)
  | Insn.Ja _ -> Jump
  | Insn.Jcond (cond, a, s, _) ->
      ignore (use ~pc st a);
      let srcv =
        match s with
        | Insn.Reg r -> `Reg (r, use ~pc st r)
        | Insn.Imm i -> `Imm i
      in
      let taken = State.copy st in
      let taken = if refine_branch ~pc taken cond a srcv true then Some taken else None in
      Branch (taken, refine_branch ~pc st cond a srcv false)
  | Insn.Call name ->
      transfer_call env ~pc st name;
      Fall
  | Insn.Exit ->
      (match use ~pc st Reg.R0 with
      | Value.Scalar _ | Value.Unknown -> ()
      | v -> err ~pc E_type "exit with non-scalar r0 (%a)" Value.pp v);
      (match State.res st with
      | [] -> ()
      | r :: _ ->
          err ~pc E_resource "exit while holding %s (acquired id %d)" r.klass
            r.id);
      Stop
  | Insn.Guard _ | Insn.Checkpoint _ | Insn.Xstore _ ->
      err ~pc E_type "instrumentation instruction in unverified program"

(* The state a transfer started from was leak-free: every state the
   fixpoint executes from was checked when it was delivered or joined
   (widening only moves ranges), so the scan runs only after a transfer
   that may have moved an object. *)
let check_leak ~pc st =
  if State.take_moved st then
    match State.leaked st with
    | [] -> ()
    | r :: _ ->
        err ~pc E_leak
          "all copies of held %s (id %d) were lost; the runtime could not \
           release it on cancellation — spill it to the stack"
          r.klass r.id

let locate st =
  List.filter_map
    (fun (r : State.resource) ->
      match State.find_obj st r.State.id with
      | Some loc -> Some { res = r; loc }
      | None -> None)
    (State.res st)

(* --- final pass ----------------------------------------------------------- *)

type final = {
  res_at : res_entry list array;
  accesses : heap_access list;
  verdicts : (int * branch_verdict) list;
  redundant_masks : (int * int64) list;
}

(* Re-run each reached block once from its fixpoint entry state, recording
   resource locations before each instruction — plus the semantic facts
   the lint pass consumes: branch verdicts (an edge the abstract semantics
   never delivers a state to is dead) and no-op masks (an [And] that
   provably cannot clear any possibly-set bit). With [snapshots], also
   store a copy of each instruction's pre-state there. *)
let final_pass ?snapshots env prog cfg entries =
  let res_at = Array.make (Prog.length prog) [] in
  let verdicts = ref [] in
  let redundant_masks = ref [] in
  let accesses = ref [] in
  Array.iteri
    (fun b entry ->
      match entry with
      | None -> ()
      | Some entry ->
          let blk = (Cfg.blocks cfg).(b) in
          let st = State.copy entry in
          let entries = ref (locate st) in
          let rec step pc =
            (match snapshots with
            | Some a -> a.(pc) <- Some (State.copy st)
            | None -> ());
            res_at.(pc) <- !entries;
            let insn = Prog.get prog pc in
            (* the compiler materialises mask constants into registers, so
               accept both immediate and known-constant register operands *)
            (match insn with
            | Insn.Alu (Insn.And, d, src) -> (
                let mask =
                  match src with
                  | Insn.Imm m -> Some m
                  | Insn.Reg s -> (
                      match State.get st s with
                      | Value.Scalar r -> Range.is_const r
                      | _ -> None)
                in
                match (mask, State.get st d) with
                | Some m, Value.Scalar r when Range.within_mask r m ->
                    redundant_masks := (pc, m) :: !redundant_masks
                | _ -> ())
            | _ -> ());
            match transfer env (Some accesses) ~pc st insn with
            | Fall ->
                if State.take_moved st then entries := locate st;
                if pc < blk.Cfg.last then step (pc + 1)
            | Jump | Stop -> ()
            | Branch (taken, fall) -> (
                match (taken, fall) with
                | Some _, false -> verdicts := (pc, Always_taken) :: !verdicts
                | None, true -> verdicts := (pc, Never_taken) :: !verdicts
                | _ -> ())
          in
          step blk.Cfg.first)
    entries;
  let by_pc (a, _) (b, _) = Int.compare a b in
  {
    res_at;
    (* the final pass visits each block exactly once, so no dedup needed *)
    accesses = List.sort (fun a b -> Int.compare a.pc b.pc) !accesses;
    verdicts = List.sort by_pc !verdicts;
    redundant_masks = List.sort by_pc !redundant_masks;
  }

(* --- fixpoint engine --------------------------------------------------- *)

let widen_threshold = 8

let run ~mode ~contracts ~ctx_size ?heap_size ?(sleepable = false) prog =
  (match heap_size with
  | Some hs ->
      if Int64.logand hs (Int64.sub hs 1L) <> 0L || hs <= 0L then
        invalid_arg "Verify.run: heap_size must be a positive power of two"
  | None -> ());
  let env =
    {
      mode;
      contracts;
      ctx_size;
      heap_size = (match mode with Ebpf -> None | Kflex -> heap_size);
      sleepable;
      min_stack = ref Prog.stack_size;
    }
  in
  try
    let cfg = Cfg.build prog in
    let unbounded = Loopcheck.unbounded_loops prog cfg in
    (match (mode, unbounded) with
    | Ebpf, l :: _ ->
        err ~pc:l.Cfg.back_edge_pc E_loop
          "loop cannot be bounded statically: plain eBPF rejects it (KFlex \
           instruments it with a cancellation point instead)"
    | _ -> ());
    let blocks = Cfg.blocks cfg in
    let nb = Array.length blocks in
    let in_states : State.t option array = Array.make nb None in
    let joins_at = Array.make nb 0 in
    let block_visits = ref 0 and joins = ref 0 and widenings = ref 0 in
    let workset = Queue.create () in
    let enqueue b = Queue.push b workset in
    in_states.(0) <- Some (State.init ~ctx_nullable:false);
    enqueue 0;
    (* [st], delivered from block [from], is not written after that *)
    let merge_into ~from succ st =
      match in_states.(succ) with
      | None ->
          in_states.(succ) <- Some (State.copy st);
          enqueue succ
      | Some old -> (
          match State.join old st with
          | Error msg ->
              let from_back_edge = Cfg.dominates cfg succ from in
              let kind = if from_back_edge then E_loop else E_resource in
              let msg =
                if from_back_edge then
                  msg
                  ^ " — kernel resources acquired in a loop iteration must be \
                     released within it (§3.1)"
                else msg
              in
              err ~pc:blocks.(succ).Cfg.first kind "%s" msg
          | Ok joined ->
              (* [old] was checked when it arrived: only an object the join
                 took out of its locations can leak here, and a join that
                 changes nothing returns [old] itself *)
              (match if joined == old then [] else State.leaked joined with
              | [] -> ()
              | r :: _ ->
                  err ~pc:blocks.(succ).Cfg.first E_leak
                    "held %s (id %d) has no common location across the \
                     paths joining here — the runtime could not release it \
                     on cancellation (§4.3; the loader will retry with \
                     spilled acquisitions)"
                    r.State.klass r.State.id);
              incr joins;
              joins_at.(succ) <- joins_at.(succ) + 1;
              let joined =
                if joins_at.(succ) > widen_threshold then begin
                  incr widenings;
                  State.widen ~prev:old joined
                end
                else joined
              in
              if not (State.equal joined old) then begin
                in_states.(succ) <- Some joined;
                enqueue succ
              end)
    in
    let deliver b pc st = merge_into ~from:b (Cfg.block_of_pc cfg pc).Cfg.id st in
    (* execute block [b] on a copy of its entry state, delivering successor
       states *)
    let exec_block b entry =
      let blk = blocks.(b) in
      let st = State.copy entry in
      let rec step pc =
        let insn = Prog.get prog pc in
        match transfer env None ~pc st insn with
        | Fall ->
            check_leak ~pc st;
            if pc = blk.Cfg.last then deliver b (pc + 1) st else step (pc + 1)
        | Jump -> (
            check_leak ~pc st;
            match insn with
            | Insn.Ja off -> deliver b (pc + 1 + off) st
            | _ -> assert false)
        | Branch (taken, fall) ->
            let toff =
              match insn with
              | Insn.Jcond (_, _, _, off) -> pc + 1 + off
              | _ -> assert false
            in
            (match taken with
            | Some s ->
                check_leak ~pc s;
                deliver b toff s
            | None -> ());
            if fall then begin
              check_leak ~pc st;
              deliver b (pc + 1) st
            end
        | Stop -> ()
      in
      step blk.Cfg.first
    in
    while not (Queue.is_empty workset) do
      let b = Queue.pop workset in
      match in_states.(b) with
      | None -> ()
      | Some st ->
          incr block_visits;
          exec_block b st
    done;
    let final = final_pass env prog cfg in_states in
    Ok
      {
        prog;
        cfg;
        heap_accesses = final.accesses;
        unbounded = (match mode with Ebpf -> [] | Kflex -> unbounded);
        res_at = final.res_at;
        stack_used = Prog.stack_size - !(env.min_stack);
        insn_count = Prog.length prog;
        reached = Array.map Option.is_some in_states;
        verdicts = final.verdicts;
        redundant_masks = final.redundant_masks;
        stats =
          { block_visits = !block_visits; joins = !joins; widenings = !widenings };
        replay = { env; entries = in_states; states = Atomic.make None };
      }
  with Err e -> Error e

let states_at a =
  match Atomic.get a.replay.states with
  | Some states -> states
  | None ->
      let states = Array.make a.insn_count None in
      let env = { a.replay.env with min_stack = ref Prog.stack_size } in
      ignore (final_pass ~snapshots:states env a.prog a.cfg a.replay.entries : final);
      Atomic.set a.replay.states (Some states);
      states
