(* Acklam's rational approximation to the inverse standard normal CDF.
   Three branches (lower tail / central / upper tail by symmetry);
   relative error < 1.15e-9 over (0, 1). The stdlib has no erf, and the
   sampling error these z-values multiply is orders of magnitude
   larger than the approximation error. *)
let inv_norm_cdf p =
  if not (p > 0.0 && p < 1.0) then
    invalid_arg "Interval.inv_norm_cdf: p outside (0, 1)";
  let a0 = -3.969683028665376e+01 and a1 = 2.209460984245205e+02 in
  let a2 = -2.759285104469687e+02 and a3 = 1.383577518672690e+02 in
  let a4 = -3.066479806614716e+01 and a5 = 2.506628277459239e+00 in
  let b0 = -5.447609879822406e+01 and b1 = 1.615858368580409e+02 in
  let b2 = -1.556989798598866e+02 and b3 = 6.680131188771972e+01 in
  let b4 = -1.328068155288572e+01 in
  let c0 = -7.784894002430293e-03 and c1 = -3.223964580411365e-01 in
  let c2 = -2.400758277161838e+00 and c3 = -2.549732539343734e+00 in
  let c4 = 4.374664141464968e+00 and c5 = 2.938163982698783e+00 in
  let d0 = 7.784695709041462e-03 and d1 = 3.224671290700398e-01 in
  let d2 = 2.445134137142996e+00 and d3 = 3.754408661907416e+00 in
  let tail q =
    ((((((c0 *. q) +. c1) *. q +. c2) *. q +. c3) *. q +. c4) *. q +. c5)
    /. (((((d0 *. q) +. d1) *. q +. d2) *. q +. d3) *. q +. 1.0)
  in
  let p_low = 0.02425 in
  if p < p_low then tail (sqrt (-2.0 *. log p))
  else if p > 1.0 -. p_low then -.tail (sqrt (-2.0 *. log (1.0 -. p)))
  else
    let q = p -. 0.5 in
    let r = q *. q in
    ((((((a0 *. r) +. a1) *. r +. a2) *. r +. a3) *. r +. a4) *. r +. a5)
    *. q
    /. ((((((b0 *. r) +. b1) *. r +. b2) *. r +. b3) *. r +. b4) *. r +. 1.0)

let z_of_confidence confidence =
  if not (confidence > 0.0 && confidence < 1.0) then
    invalid_arg "Interval.z_of_confidence: confidence outside (0, 1)";
  inv_norm_cdf ((1.0 +. confidence) /. 2.0)

let wilson ~z ~trials ~successes =
  if trials <= 0 then invalid_arg "Interval.wilson: trials must be positive";
  if successes < 0 || successes > trials then
    invalid_arg "Interval.wilson: successes outside [0, trials]";
  let s = float_of_int trials in
  let p_hat = float_of_int successes /. s in
  let z2 = z *. z in
  let denom = 1.0 +. (z2 /. s) in
  let center = (p_hat +. (z2 /. (2.0 *. s))) /. denom in
  let half =
    z
    *. sqrt ((p_hat *. (1.0 -. p_hat) /. s) +. (z2 /. (4.0 *. s *. s)))
    /. denom
  in
  (* At the boundary counts the exact endpoints are 0 and 1; the
     formula only reaches them up to rounding, so pin them. *)
  let lo = if successes = 0 then 0.0 else Float.max 0.0 (center -. half) in
  let hi =
    if successes = trials then 1.0 else Float.min 1.0 (center +. half)
  in
  (lo, hi)
