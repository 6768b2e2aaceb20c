(* Exact statistics owned by the benchmark: nearest-rank percentiles over
   every sample, with the number of samples beyond each, and the quartiles
   the calibration report uses. *)

(* [sorted] ascending, non-empty; nearest rank = ceil(p * n) *)
let rank sorted p =
  let n = Array.length sorted in
  let k = int_of_float (Float.ceil (p *. float_of_int n)) in
  Stdlib.max 1 (Stdlib.min n k) - 1

let at sorted p = sorted.(rank sorted p)

(* samples strictly greater than the p-th percentile *)
let beyond sorted p =
  let v = at sorted p in
  let n = Array.length sorted in
  let i = ref (rank sorted p) in
  while !i < n && sorted.(!i) <= v do incr i done;
  n - !i

let sorted_copy a =
  let s = Array.copy a in
  Array.sort compare s;
  s

let mean a =
  if Array.length a = 0 then 0.0
  else float_of_int (Array.fold_left ( + ) 0 a) /. float_of_int (Array.length a)

(* The three quartile cut points of Python's
   [statistics.quantiles(data, n=4)] (its default "exclusive" method), so
   the calibration spread matches what an outside check computes. *)
let quartiles values =
  let d = Array.copy values in
  Array.sort Float.compare d;
  let n = Array.length d in
  if n < 2 then invalid_arg "Pct.quartiles: fewer than two values";
  let m = n + 1 in
  Array.init 3 (fun k ->
      let i = k + 1 in
      let j = Stdlib.max 1 (Stdlib.min (n - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((d.(j - 1) *. (4.0 -. delta)) +. (d.(j) *. delta)) /. 4.0)
