(* Page backing: small heaps (up to [max_arr_pages] pages) use a flat
   option array so the hot extension access path costs one bounds-checked
   array load instead of hashtable probes; the 2^40-byte upper end of the
   permitted size range falls back to a hashtable keyed by page index. *)
type backing = Arr of Bytes.t option array | Tbl of (int, Bytes.t) Hashtbl.t

type t = {
  size : int64;
  mask : int64;
  kbase : int64;
  shared : bool;
  npages : int;
  (* lazily backed 4 KB pages, keyed by page index *)
  backing : backing;
  mutable npop : int;  (* populated page count *)
  (* [size - width] per access width, precomputed so the width-specialized
     accessors below do a single unsigned bound check with no allocation *)
  lim1 : int64;
  lim2 : int64;
  lim4 : int64;
  lim8 : int64;
}

exception Fault of { addr : int64; reason : string }

let page_size = 4096
let page_size64 = 4096L
let page_shift = 12
let guard64 = 32768L

(* Flat page arrays are capped at 256 MiB of heap (64 Ki pages = one 512 KB
   pointer array); anything larger — the spec allows 2^40 — stays sparse. *)
let max_arr_pages = 65536

(* Both views are aligned to 2^46, hence to any permitted heap size. *)
let kbase_const = 0x4000_0000_0000L
let ubase_const = 0x8000_0000_0000L

let geometry_error ~kbase ~size =
  if
    size < page_size64
    || size > 0x100_0000_0000L (* 2^40 *)
    || Int64.logand size (Int64.sub size 1L) <> 0L
  then Some (Printf.sprintf "size %Ld must be a power of two in [4K, 1T]" size)
  (* The base must be size-aligned (masking extracts the offset), sit at or
     above the canonical kernel view, and leave the user view's window —
     guard zones included — untouched. *)
  else if
    Int64.logand kbase (Int64.sub size 1L) <> 0L
    || kbase < kbase_const
    || Int64.add (Int64.add kbase size) guard64
       > Int64.sub ubase_const guard64
  then Some (Printf.sprintf "kbase %Lx must be size-aligned in [2^46, 2^47)" kbase)
  else None

let create ?(shared = false) ?(kbase = kbase_const) ~size () =
  Option.iter (fun m -> invalid_arg ("Heap.create: " ^ m))
    (geometry_error ~kbase ~size);
  let npages = Int64.to_int (Int64.div size page_size64) in
  let backing =
    if npages <= max_arr_pages then Arr (Array.make npages None)
    else Tbl (Hashtbl.create 64)
  in
  {
    size;
    mask = Int64.sub size 1L;
    kbase;
    shared;
    npages;
    backing;
    npop = 0;
    lim1 = Int64.sub size 1L;
    lim2 = Int64.sub size 2L;
    lim4 = Int64.sub size 4L;
    lim8 = Int64.sub size 8L;
  }

let size h = h.size
let mask h = h.mask
let kbase h = h.kbase
let ubase h = if h.shared then Some ubase_const else None
let is_shared h = h.shared

let[@inline always] sanitize h addr = Int64.logor h.kbase (Int64.logand addr h.mask)

let translate_user h addr =
  if not h.shared then invalid_arg "Heap.translate_user: heap is not shared"
  else Int64.logor ubase_const (Int64.logand addr h.mask)

let offset_of_addr h addr =
  let in_view base =
    addr >= Int64.sub base guard64 && addr < Int64.add (Int64.add base h.size) guard64
  in
  if in_view h.kbase then Some (Int64.sub addr h.kbase)
  else if h.shared && in_view ubase_const then Some (Int64.sub addr ubase_const)
  else None

let fault addr reason = raise (Fault { addr; reason })

(* [idx] is trusted to be in [0, npages) on array-backed heaps (the callers
   below establish it from checked offsets). *)
let[@inline always] get_page h idx =
  match h.backing with
  | Arr a -> Array.get a idx
  | Tbl t -> Hashtbl.find_opt t idx

(* Unchecked variant for the width-specialized accessors below: their page
   index derives from an offset already checked against the heap limit
   ([off <= lim] implies [off < size], so [off lsr page_shift < npages]),
   making the array bounds check redundant. Every populated page is exactly
   [page_size] bytes ([set_page] only ever stores [Bytes.make page_size]),
   so their in-page byte offsets — checked against [page_size - width] —
   may use {!U64}'s raw unaligned accessors too. *)
let[@inline always] page_at h idx =
  match h.backing with
  | Arr a -> Array.unsafe_get a idx
  | Tbl t -> Hashtbl.find_opt t idx

let set_page h idx p =
  (match h.backing with
  | Arr a -> Array.set a idx (Some p)
  | Tbl t -> Hashtbl.replace t idx p);
  h.npop <- h.npop + 1

let populate h ~off ~len =
  if off < 0L || len < 0L || Int64.add off len > h.size then
    invalid_arg "Heap.populate: range out of heap";
  let first = Int64.to_int (Int64.div off page_size64) in
  let last =
    Int64.to_int
      (Int64.div (Int64.add off (Int64.max 0L (Int64.sub len 1L))) page_size64)
  in
  for idx = first to min last (h.npages - 1) do
    match get_page h idx with
    | Some _ -> ()
    | None -> set_page h idx (Bytes.make page_size '\000')
  done

let populated_bytes h = Int64.of_int (h.npop * page_size)

(* Deterministic view of the backed pages, sorted by index (the array walk
   is naturally ordered; the sparse table must sort). *)
let snapshot h =
  match h.backing with
  | Arr a ->
      let acc = ref [] in
      for i = Array.length a - 1 downto 0 do
        match Array.unsafe_get a i with
        | Some p -> acc := (Int64.of_int i, Bytes.to_string p) :: !acc
        | None -> ()
      done;
      !acc
  | Tbl t ->
      Hashtbl.fold
        (fun idx p acc -> (Int64.of_int idx, Bytes.to_string p) :: acc)
        t []
      |> List.sort (fun (a, _) (b, _) -> Int64.compare a b)

(* Trusted offset-based access; populates pages (the runtime/user side owns
   its mappings). *)
let rec read_off h ~width off =
  let o = Int64.to_int off in
  let inpage = o land (page_size - 1) in
  if inpage + width <= page_size then begin
    let idx = o lsr page_shift in
    let p =
      match get_page h idx with
      | Some p -> p
      | None ->
          populate h ~off ~len:(Int64.of_int width);
          (match get_page h idx with Some p -> p | None -> assert false)
    in
    match width with
    | 1 -> Int64.of_int (Char.code (Bytes.get p inpage))
    | 2 -> Int64.of_int (Bytes.get_uint16_le p inpage)
    | 4 -> Int64.logand (Int64.of_int32 (Bytes.get_int32_le p inpage)) 0xffff_ffffL
    | 8 -> Bytes.get_int64_le p inpage
    | _ -> invalid_arg "Heap.read_off: width"
  end
  else begin
    (* straddles a page boundary: assemble bytes *)
    let v = ref 0L in
    for i = width - 1 downto 0 do
      let b = read_off h ~width:1 (Int64.add off (Int64.of_int i)) in
      v := Int64.logor (Int64.shift_left !v 8) b
    done;
    !v
  end

let rec write_off h ~width off v =
  let o = Int64.to_int off in
  let inpage = o land (page_size - 1) in
  if inpage + width <= page_size then begin
    let idx = o lsr page_shift in
    let p =
      match get_page h idx with
      | Some p -> p
      | None ->
          populate h ~off ~len:(Int64.of_int width);
          (match get_page h idx with Some p -> p | None -> assert false)
    in
    match width with
    | 1 -> Bytes.set p inpage (Char.chr (Int64.to_int (Int64.logand v 0xffL)))
    | 2 -> Bytes.set_uint16_le p inpage (Int64.to_int (Int64.logand v 0xffffL))
    | 4 -> Bytes.set_int32_le p inpage (Int64.to_int32 v)
    | 8 -> Bytes.set_int64_le p inpage v
    | _ -> invalid_arg "Heap.write_off: width"
  end
  else
    for i = 0 to width - 1 do
      write_off h ~width:1
        (Int64.add off (Int64.of_int i))
        (Int64.shift_right_logical v (8 * i))
    done

(* Allocation-free trusted stores for the allocator: an 8-byte word (the
   block header) at a native-int offset, and zeroing a byte range. Both
   populate pages exactly as [write_off] does; a header that straddles a
   page takes the generic path. *)
let[@inline always] set64_off h off v =
  let inpage = off land (page_size - 1) in
  match if inpage <= page_size - 8 then page_at h (off lsr page_shift) else None with
  | Some p -> U64.set64 p inpage v
  | None -> write_off h ~width:8 (Int64.of_int off) v

let zero_off h ~off ~len =
  let o = ref off and stop = off + len in
  while !o < stop do
    let idx = !o lsr page_shift in
    let inpage = !o land (page_size - 1) in
    let n = min (page_size - inpage) (stop - !o) in
    let p =
      match get_page h idx with
      | Some p -> p
      | None ->
          populate h ~off:(Int64.of_int !o) ~len:(Int64.of_int n);
          (match get_page h idx with Some p -> p | None -> assert false)
    in
    Bytes.unsafe_fill p inpage n '\000';
    o := !o + n
  done

(* Untrusted (extension) access: faults on wild addresses, guard zones and
   unpopulated pages, in that order. The checked offset is non-negative and
   in-heap, so plain int arithmetic replaces the Int64 div/rem pair. *)
let check_ext h addr width =
  match offset_of_addr h addr with
  | None -> fault addr "access outside any heap mapping"
  | Some off ->
      if off < 0L || Int64.add off (Int64.of_int width) > h.size then
        fault addr "guard zone access";
      off

let check_pages h addr o width =
  let first = o lsr page_shift in
  let last = (o + width - 1) lsr page_shift in
  for idx = first to last do
    match get_page h idx with
    | Some _ -> ()
    | None -> fault addr "unpopulated heap page"
  done

let read h ~width addr =
  let off = check_ext h addr width in
  let o = Int64.to_int off in
  let inpage = o land (page_size - 1) in
  if inpage + width <= page_size then begin
    match get_page h (o lsr page_shift) with
    | None -> fault addr "unpopulated heap page"
    | Some p -> (
        match width with
        | 1 -> Int64.of_int (Char.code (Bytes.get p inpage))
        | 2 -> Int64.of_int (Bytes.get_uint16_le p inpage)
        | 4 ->
            Int64.logand (Int64.of_int32 (Bytes.get_int32_le p inpage))
              0xffff_ffffL
        | 8 -> Bytes.get_int64_le p inpage
        | _ -> invalid_arg "Heap.read: width")
  end
  else begin
    check_pages h addr o width;
    read_off h ~width off
  end

let write h ~width addr v =
  let off = check_ext h addr width in
  let o = Int64.to_int off in
  let inpage = o land (page_size - 1) in
  if inpage + width <= page_size then begin
    match get_page h (o lsr page_shift) with
    | None -> fault addr "unpopulated heap page"
    | Some p -> (
        match width with
        | 1 -> Bytes.set p inpage (Char.chr (Int64.to_int (Int64.logand v 0xffL)))
        | 2 ->
            Bytes.set_uint16_le p inpage (Int64.to_int (Int64.logand v 0xffffL))
        | 4 -> Bytes.set_int32_le p inpage (Int64.to_int32 v)
        | 8 -> Bytes.set_int64_le p inpage v
        | _ -> invalid_arg "Heap.write: width")
  end
  else begin
    check_pages h addr o width;
    write_off h ~width off v
  end

(* The extension access protocol of the Jit, written once for every width:
   one unsigned bound check against a precomputed limit, one page load,
   one unaligned access. Anything unusual — guard zones, user-view
   addresses, page-straddling accesses — falls back to the generic checked
   path above, so fault reasons and their order are identical to that
   path's. [w] (1, 2, 4 or 8) is an int literal at every call site: the
   bodies are forced inline and their [if w = ...] tests fold, so each
   width compiles to the code a body written for it alone would (see the
   header of jit.ml). A byte never straddles, hence no in-page test. *)

let[@inline always] lim h w =
  if w = 1 then h.lim1 else if w = 2 then h.lim2 else if w = 4 then h.lim4
  else h.lim8

let[@inline always] load h w addr =
  let off = Int64.sub addr h.kbase in
  if Int64.unsigned_compare off (lim h w) <= 0 then begin
    let o = Int64.to_int off in
    let inpage = o land (page_size - 1) in
    if w = 1 || inpage <= page_size - w then
      match page_at h (o lsr page_shift) with
      | Some p ->
          if w = 1 then Int64.of_int (Char.code (U64.get8 p inpage))
          else if w = 2 then Int64.of_int (U64.get16 p inpage)
          else if w = 4 then
            Int64.logand (Int64.of_int32 (U64.get32 p inpage)) 0xffff_ffffL
          else U64.get64 p inpage
      | None -> fault addr "unpopulated heap page"
    else read h ~width:w addr
  end
  else read h ~width:w addr

let[@inline always] store h w addr v =
  let off = Int64.sub addr h.kbase in
  if Int64.unsigned_compare off (lim h w) <= 0 then begin
    let o = Int64.to_int off in
    let inpage = o land (page_size - 1) in
    if w = 1 || inpage <= page_size - w then
      match page_at h (o lsr page_shift) with
      | Some p ->
          if w = 1 then
            U64.set8 p inpage
              (Char.unsafe_chr (Int64.to_int (Int64.logand v 0xffL)))
          else if w = 2 then
            U64.set16 p inpage (Int64.to_int (Int64.logand v 0xffffL))
          else if w = 4 then U64.set32 p inpage (Int64.to_int32 v)
          else U64.set64 p inpage v
      | None -> fault addr "unpopulated heap page"
    else write h ~width:w addr v
  end
  else write h ~width:w addr v
