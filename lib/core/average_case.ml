let thresholds =
  Array.init 11 (fun i -> float_of_int (10 - i) /. 10.0)

type row = {
  fault_count : int;
  at_least : int array;
  min_probability : float;
}

(* Threshold comparison with a small epsilon so that counts assembled from
   d/K ratios are not perturbed by float rounding. *)
let epsilon = 1e-9

let summarize_probabilities probabilities =
  let fault_count = Array.length probabilities in
  let at_least =
    Array.map
      (fun theta ->
        Array.fold_left
          (fun acc p -> if p >= theta -. epsilon then acc + 1 else acc)
          0 probabilities)
      thresholds
  in
  let min_probability = Array.fold_left min 1.0 probabilities in
  let min_probability = if fault_count = 0 then 0.0 else min_probability in
  { fault_count; at_least; min_probability }

let expected_escapes probabilities =
  Array.fold_left (fun acc p -> acc +. (1.0 -. p)) 0.0 probabilities

let expected_escapes_of outcome ~n =
  let report = Procedure1.report_faults outcome in
  expected_escapes
    (Array.map (fun gj -> Procedure1.probability outcome ~n ~gj) report)

let wilson_interval ?(z = 1.96) ~detected ~trials () =
  if trials <= 0 || detected < 0 || detected > trials then
    invalid_arg "Average_case.wilson_interval";
  let n = float_of_int trials in
  let p = float_of_int detected /. n in
  let z2 = z *. z in
  let denom = 1.0 +. (z2 /. n) in
  let center = (p +. (z2 /. (2.0 *. n))) /. denom in
  let spread =
    z /. denom *. sqrt ((p *. (1.0 -. p) /. n) +. (z2 /. (4.0 *. n *. n)))
  in
  (max 0.0 (center -. spread), min 1.0 (center +. spread))

let summarize outcome ~n =
  let report = Procedure1.report_faults outcome in
  let probabilities =
    Array.map (fun gj -> Procedure1.probability outcome ~n ~gj) report
  in
  summarize_probabilities probabilities
