open Kflex_runtime

type loaded = {
  ext : Vm.ext;
  kie : Kflex_kie.Instrument.t;
  heap : Heap.t option;
  alloc : Alloc.t option;
  kernel : Kflex_kernel.Helpers.t;
  hook : Kflex_kernel.Hook.kind;
}

type admitted = {
  a_kie : Kflex_kie.Instrument.t;
  a_hook : Kflex_kernel.Hook.kind;
  a_jit : Jit.t;
}

(* --- compiled-program cache -------------------------------------------- *)

(* Attach/run paths and the fuzz oracles load the same instrumented program
   repeatedly; compile it once. The fused form depends on the instruction
   stream (instrumentation options are already baked into it, so programs
   differing in options hash apart) and on each pc's unwind locations
   ({!Jit.unwind_locs}: the registers and frame slots of its object table),
   whose liveness decides which writes it drops. Both go into one canonical
   byte form (see [canonical]); the key is its MD5, and a hit compares the
   entry's form with the program's byte for byte: a digest collision
   counts as a miss and compiles, so an entry compiled against another
   program's object tables is never returned.

   The cache is LRU-bounded: entries carry a logical-clock stamp bumped on
   every hit, and an insert past capacity evicts the stalest entry. The
   capacity is small (an engine attaches a handful of distinct programs, a
   fuzz campaign churns through thousands — exactly the workload an
   unbounded table grows without limit under), and eviction is O(capacity),
   which at these sizes is cheaper than maintaining an intrusive list. *)

type cache_stats = {
  hits : int;
  misses : int;
  entries : int;
  evictions : int;
  capacity : int;
}

type cached = { c_form : string; c_jit : Jit.t; c_stamp : int ref }

let jit_cache : (string, cached) Hashtbl.t = Hashtbl.create 16
let jit_hits = ref 0
let jit_misses = ref 0
let jit_evictions = ref 0
let jit_capacity = 64
let jit_clock = ref 0

let jit_cache_mutex = Mutex.create ()
(* threaded-engine shards race attach-time compiles through here *)

let evict_one () =
  let victim = ref None in
  Hashtbl.iter
    (fun k c ->
      match !victim with
      | Some (_, s) when s <= !(c.c_stamp) -> ()
      | _ -> victim := Some (k, !(c.c_stamp)))
    jit_cache;
  match !victim with
  | Some (k, _) ->
      Hashtbl.remove jit_cache k;
      incr jit_evictions
  | None -> ()

let jit_cache_stats () =
  Mutex.protect jit_cache_mutex (fun () ->
      {
        hits = !jit_hits;
        misses = !jit_misses;
        entries = Hashtbl.length jit_cache;
        evictions = !jit_evictions;
        capacity = jit_capacity;
      })

(* The canonical form: the instruction count, each instruction's binary
   encoding ({!Kflex_bpf.Encode.encode_insn}), then every unwind word; the
   count and the words are unsigned LEB128. It depends on the values only,
   never on how they share memory. The encoding is injective within
   [Prog.create]'s limits (16-bit memory offsets, jump offsets inside the
   program, length-prefixed helper names); only checkpoint ids past 32 bits
   alias, and the fused form does not read them. It is built in [form],
   the scratch buffer the cache mutex guards, and copied out only into a
   new entry. *)
let buf = Buffer.create 4096
let form = ref (Bytes.create 4096)

(* writes [v] at [at], at most 9 bytes; returns the offset past it *)
let rec leb128 f at v =
  if v lsr 7 = 0 then begin
    Bytes.unsafe_set f at (Char.unsafe_chr v);
    at + 1
  end
  else begin
    Bytes.unsafe_set f at (Char.unsafe_chr (0x80 lor (v land 0x7f)));
    leb128 f (at + 1) (v lsr 7)
  end

let canonical kie =
  let insns = Kflex_bpf.Prog.insns kie.Kflex_kie.Instrument.prog in
  Buffer.clear buf;
  Array.iter (Kflex_bpf.Encode.encode_insn buf) insns;
  let unwind = Jit.unwind_locs kie in
  let n = Buffer.length buf in
  let most = 9 + n + (9 * Array.length unwind) in
  if Bytes.length !form < most then form := Bytes.create most;
  let f = !form in
  let at = leb128 f 0 (Array.length insns) in
  Buffer.blit buf 0 f at n;
  let at = ref (at + n) in
  for i = 0 to Array.length unwind - 1 do
    at := leb128 f !at unwind.(i)
  done;
  !at

(* whether [s] equals [f]'s first [len] bytes, from byte [i], eight at a
   time *)
let rec same_from s f len i =
  if i + 8 <= len then
    Int64.equal (String.get_int64_ne s i) (Bytes.get_int64_ne f i)
    && same_from s f len (i + 8)
  else i = len || (String.get s i = Bytes.get f i && same_from s f len (i + 1))

let same_form s len = String.length s = len && same_from s !form len 0

let digest len = Digest.subbytes !form 0 len

let jit_cache_key kie =
  Mutex.protect jit_cache_mutex (fun () -> digest (canonical kie))

(* under the mutex, with the program's form of length [len] in [form] *)
let lookup key len kie =
  incr jit_clock;
  match Hashtbl.find_opt jit_cache key with
  | Some c when same_form c.c_form len ->
      incr jit_hits;
      c.c_stamp := !jit_clock;
      c.c_jit
  | found ->
      incr jit_misses;
      let t = Jit.compile kie in
      if Option.is_none found && Hashtbl.length jit_cache >= jit_capacity then
        evict_one ();
      Hashtbl.replace jit_cache key
        {
          c_form = Bytes.sub_string !form 0 len;
          c_jit = t;
          c_stamp = ref !jit_clock;
        };
      t

let compile_cached ~key kie =
  Mutex.protect jit_cache_mutex (fun () -> lookup key (canonical kie) kie)

let compiled_for kie =
  Mutex.protect jit_cache_mutex (fun () ->
      let len = canonical kie in
      lookup (digest len) len kie)

let contracts = Kflex_verifier.Contract.registry Kflex_verifier.Contract.kflex_base

let globals_base = 64L

(* --- admission ---------------------------------------------------------- *)

let admit ?(mode = Kflex_verifier.Verify.Kflex) ?options ?heap_size ~hook
    prog =
  let verify p =
    Kflex_verifier.Verify.run ~mode ~contracts
      ~ctx_size:Kflex_kernel.Hook.ctx_size ?heap_size
      ~sleepable:(Kflex_kernel.Hook.sleepable hook)
      p
  in
  let result =
    match verify prog with
    | Ok a -> Ok a
    | Error ({ Kflex_verifier.Verify.kind = Kflex_verifier.Verify.E_leak; _ } as e)
      -> (
        (* §4.3: conflicting object-table locations — retry with acquired
           resources spilled to unique stack slots *)
        match Kflex_kie.Spill.mitigate ~contracts prog with
        | None -> Error e
        | Some prog' -> ( match verify prog' with Ok a -> Ok a | Error _ -> Error e))
    | Error e -> Error e
  in
  match result with
  | Error e -> Error e
  | Ok analysis ->
      let kie = Kflex_kie.Instrument.run ?options analysis in
      (* the admission-time compile: chain reloads hit the cache, and every
         instance of this admission shares the compiled form *)
      Ok
        {
          a_kie = kie;
          a_hook = hook;
          a_jit = compiled_for kie;
        }

let instantiate ?heap ?(globals_size = 0L) ?quantum ?(extra_helpers = [])
    ~kernel a =
  let alloc =
    Option.map
      (fun h ->
        let data_start = Int64.add globals_base globals_size in
        (* globals live on always-populated pages *)
        Heap.populate h ~off:0L ~len:data_start;
        Alloc.create ~data_start h)
      heap
  in
  let helpers = Kflex_kernel.Helpers.implementations kernel @ extra_helpers in
  let ext =
    Vm.create ?heap ?alloc ?quantum
      ~default_ret:(Kflex_kernel.Hook.default_ret a.a_hook)
      ~helpers a.a_kie
  in
  Vm.set_compiled ext a.a_jit;
  {
    ext;
    kie = a.a_kie;
    heap;
    alloc;
    kernel;
    hook = a.a_hook;
  }

let load ?mode ?options ?heap ?globals_size ?quantum ~kernel ~hook prog =
  let options =
    match options with
    | Some o -> Some o
    | None ->
        (* the facade defaults translate-on-store from the heap it is handed;
           [admit] alone cannot (the heap only exists at instantiation) *)
        Option.map
          (fun h ->
            {
              Kflex_kie.Instrument.default_options with
              translate_on_store = Heap.is_shared h;
            })
          heap
  in
  let heap_size = Option.map Heap.size heap in
  match admit ?mode ?options ?heap_size ~hook prog with
  | Error e -> Error e
  | Ok a -> Ok (instantiate ?heap ?globals_size ?quantum ~kernel a)

(* One packet through the extension, with the caller's context block —
   the engine fills one reused block per shard per event. The payload is
   installed in the VM's execution state for the invocation. *)
let run_packet_into t ~ctx ~cpu ~stats (pkt : Kflex_kernel.Packet.t) =
  Vm.run t.ext ~ctx ~pkt:pkt.Kflex_kernel.Packet.payload ~cpu ~stats

let run_packet t ?(cpu = 0) ?stats pkt =
  let stats = match stats with Some s -> s | None -> Vm.fresh_stats () in
  run_packet_into t ~ctx:(Kflex_kernel.Hook.build_ctx pkt) ~cpu ~stats pkt
