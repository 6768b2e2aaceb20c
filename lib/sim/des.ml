type t = {
  q : (unit -> unit) Heapq.t;
  mutable now : float;
}

let create () = { q = Heapq.create (); now = 0.0 }
let now t = t.now

let schedule t ~delay f =
  if delay < 0.0 then invalid_arg "Des.schedule: negative delay";
  Heapq.push t.q (t.now +. delay) f

let run ?until t =
  let continue = ref true in
  while !continue do
    match Heapq.pop t.q with
    | None -> continue := false
    | Some (time, f) -> (
        match until with
        | Some u when time > u ->
            t.now <- u;
            continue := false
        | _ ->
            t.now <- time;
            f ())
  done
