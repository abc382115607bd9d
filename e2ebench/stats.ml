(* Order statistics shared by the runner and the comparator. *)

let sorted values =
  let a = Array.of_list values in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks (p in [0, 1]); 0 for no
   data. *)
let percentile values p =
  let a = sorted values in
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let x = p *. float_of_int (n - 1) in
    let i = int_of_float x in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((x -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median values = percentile values 0.5

(* First quartile, median, third quartile by the method of Python's
   [statistics.quantiles(values, n=4)] (the "exclusive" method), so the
   comparator's spreads are the ones the benchmark's acceptance rule
   computes. A single value is its own quartiles. *)
let quartiles values =
  let a = sorted values in
  let ld = Array.length a in
  if ld = 0 then invalid_arg "Stats.quartiles: no data"
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 2, q 3)
