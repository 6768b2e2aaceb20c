type 'a entry = { key : float; seq : int; v : 'a }

type 'a t = {
  mutable arr : 'a entry array;
  mutable n : int;
  mutable seq : int;
}

let create () = { arr = [||]; n = 0; seq = 0 }

let less a b = a.key < b.key || (a.key = b.key && a.seq < b.seq)

let push t key v =
  if t.n = Array.length t.arr then begin
    let cap = if t.n = 0 then 64 else 2 * t.n in
    let bigger = Array.make cap { key; seq = 0; v } in
    Array.blit t.arr 0 bigger 0 t.n;
    t.arr <- bigger
  end;
  let e = { key; seq = t.seq; v } in
  t.seq <- t.seq + 1;
  t.arr.(t.n) <- e;
  t.n <- t.n + 1;
  (* sift up *)
  let i = ref (t.n - 1) in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if less t.arr.(!i) t.arr.(parent) then begin
      let tmp = t.arr.(parent) in
      t.arr.(parent) <- t.arr.(!i);
      t.arr.(!i) <- tmp;
      i := parent
    end
    else continue := false
  done

let pop t =
  if t.n = 0 then None
  else begin
    let top = t.arr.(0) in
    t.n <- t.n - 1;
    if t.n > 0 then begin
      t.arr.(0) <- t.arr.(t.n);
      (* sift down *)
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < t.n && less t.arr.(l) t.arr.(!smallest) then smallest := l;
        if r < t.n && less t.arr.(r) t.arr.(!smallest) then smallest := r;
        if !smallest <> !i then begin
          let tmp = t.arr.(!smallest) in
          t.arr.(!smallest) <- t.arr.(!i);
          t.arr.(!i) <- tmp;
          i := !smallest
        end
        else continue := false
      done
    end;
    Some (top.key, top.v)
  end
