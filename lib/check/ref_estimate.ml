module Rng = Ndetect_util.Rng
module Detection_table = Ndetect_core.Detection_table
module Random_circuit = Ndetect_suite.Random_circuit
module Estimate = Ndetect_estimate.Estimate
module Sampler = Ndetect_estimate.Sampler

type miss = {
  cell : string;
  exact : int;
  lo : float;
  hi : float;
}

type circuit_result = {
  spec : Random_circuit.spec;
  checks : int;
  covered : int;
  misses : miss list;  (** Capped at {!max_misses}. *)
}

type report = {
  trials : int;
  confidence : float;
  slack : float;
  target_checks : int;
  target_covered : int;
  nmin_checks : int;
  nmin_covered : int;
  worst : circuit_result option;  (** Lowest per-circuit coverage. *)
  reproducer : circuit_result option;  (** Shrunk, only when failed. *)
}

let max_misses = 8

let rate ~covered ~checks =
  if checks = 0 then 1.0 else float_of_int covered /. float_of_int checks

let target_rate r = rate ~covered:r.target_covered ~checks:r.target_checks
let nmin_rate r = rate ~covered:r.nmin_covered ~checks:r.nmin_checks

let failed r =
  let floor = r.confidence -. r.slack in
  target_rate r < floor || nmin_rate r < floor

(* Lanczos log-gamma (g = 7, 9 terms) — feeds the incomplete-beta
   prefactor. Accurate to ~1e-13 over the arguments used here (shape
   parameters are sample counts, so >= 1 after the reflection). *)
let rec log_gamma x =
  if x < 0.5 then
    (* Reflection formula keeps the series in its accurate range. *)
    log (Float.pi /. sin (Float.pi *. x)) -. log_gamma (1.0 -. x)
  else
    let c =
      [|
        0.99999999999980993; 676.5203681218851; -1259.1392167224028;
        771.32342877765313; -176.61502916214059; 12.507343278686905;
        -0.13857109526572012; 9.9843695780195716e-6; 1.5056327351493116e-7;
      |]
    in
    let x = x -. 1.0 in
    let acc = ref c.(0) in
    for i = 1 to 8 do
      acc := !acc +. (c.(i) /. (x +. float_of_int i))
    done;
    let t = x +. 7.5 in
    (0.5 *. log (2.0 *. Float.pi))
    +. ((x +. 0.5) *. log t)
    -. t
    +. log !acc

(* Continued fraction for the regularized incomplete beta (Lentz's
   method, the Numerical Recipes recurrence). Converges in a few dozen
   iterations for the arguments produced by Clopper-Pearson. *)
let betacf a b x =
  let fpmin = 1e-300 and eps = 3e-14 in
  let qab = a +. b and qap = a +. 1.0 and qam = a -. 1.0 in
  let c = ref 1.0 in
  let d = ref (1.0 -. (qab *. x /. qap)) in
  if Float.abs !d < fpmin then d := fpmin;
  d := 1.0 /. !d;
  let h = ref !d in
  (try
     for m = 1 to 300 do
       let mf = float_of_int m in
       let m2 = 2.0 *. mf in
       let step aa =
         d := 1.0 +. (aa *. !d);
         if Float.abs !d < fpmin then d := fpmin;
         c := 1.0 +. (aa /. !c);
         if Float.abs !c < fpmin then c := fpmin;
         d := 1.0 /. !d;
         !d *. !c
       in
       h := !h *. step (mf *. (b -. mf) *. x /. ((qam +. m2) *. (a +. m2)));
       let del =
         step (-.(a +. mf) *. (qab +. mf) *. x /. ((a +. m2) *. (qap +. m2)))
       in
       h := !h *. del;
       if Float.abs (del -. 1.0) < eps then raise Exit
     done
   with Exit -> ());
  !h

let reg_inc_beta a b x =
  if x <= 0.0 then 0.0
  else if x >= 1.0 then 1.0
  else
    let bt =
      exp
        (log_gamma (a +. b) -. log_gamma a -. log_gamma b +. (a *. log x)
        +. (b *. log (1.0 -. x)))
    in
    (* Use the continued fraction on whichever side converges fast. *)
    if x < (a +. 1.0) /. (a +. b +. 2.0) then bt *. betacf a b x /. a
    else 1.0 -. (bt *. betacf b a (1.0 -. x) /. b)

(* The regularized incomplete beta is strictly increasing in x, so the
   quantile inverts by plain bisection: 80 halvings reach ~1e-24, well
   past double precision. *)
let inv_reg_inc_beta a b p =
  let lo = ref 0.0 and hi = ref 1.0 in
  for _ = 1 to 80 do
    let mid = 0.5 *. (!lo +. !hi) in
    if reg_inc_beta a b mid < p then lo := mid else hi := mid
  done;
  0.5 *. (!lo +. !hi)

let clopper_pearson ~confidence ~trials ~successes =
  if trials <= 0 || successes < 0 || successes > trials then
    invalid_arg "Ref_estimate.clopper_pearson: counts out of range";
  if not (confidence > 0.0 && confidence < 1.0) then
    invalid_arg "Ref_estimate.clopper_pearson: confidence outside (0, 1)";
  let alpha = 1.0 -. confidence in
  let n = float_of_int trials and k = float_of_int successes in
  let lo =
    if successes = 0 then 0.0
    else inv_reg_inc_beta k (n -. k +. 1.0) (alpha /. 2.0)
  in
  let hi =
    if successes = trials then 1.0
    else inv_reg_inc_beta (k +. 1.0) (n -. k) (1.0 -. (alpha /. 2.0))
  in
  (lo, hi)

(* Exact nmin(g) from the exhaustive oracle table (built with both
   keep flags, so fault indices align with the sampled table):
   min over f with M(g,f) > 0 of N(f) - M(g,f) + 1, or None when no
   target set intersects T(g). *)
let exact_nmin table gj =
  let f_count = Detection_table.target_count table in
  let best = ref None in
  for fi = 0 to f_count - 1 do
    let m = Detection_table.m table ~gj ~fi in
    if m > 0 then
      let d = Detection_table.target_n table fi - m in
      match !best with
      | Some b when b <= d -> ()
      | _ -> best := Some d
  done;
  Option.map (fun d -> d + 1) !best

(* Interval membership with a whisker of float slop: the endpoints are
   products of a Wilson bound and 2^PI, so exact integers can land
   within one ulp of them. *)
let inside exact ~lo ~hi =
  let x = float_of_int exact in
  x >= lo -. 1e-9 && x <= hi +. 1e-9

let check_circuit ~spec (cspec : Random_circuit.spec) =
  let net = Random_circuit.of_spec cspec in
  let table =
    Detection_table.build ~keep_undetectable_targets:true
      ~keep_undetectable_untargeted:true net
  in
  let est =
    Estimate.analyze ~spec ~seed:cspec.Random_circuit.seed
      ~name:(Random_circuit.spec_to_string cspec)
      net
  in
  let t_checks = ref 0 and t_cov = ref 0 in
  let n_checks = ref 0 and n_cov = ref 0 in
  let misses = ref [] and miss_count = ref 0 in
  let miss cell exact lo hi =
    incr miss_count;
    if !miss_count <= max_misses then
      misses := { cell; exact; lo; hi } :: !misses
  in
  for fi = 0 to Detection_table.target_count table - 1 do
    let exact = Detection_table.target_n table fi in
    let lo, _, hi = Estimate.target_interval est fi in
    incr t_checks;
    if inside exact ~lo ~hi then incr t_cov
    else miss (Printf.sprintf "N(f%d)" fi) exact lo hi
  done;
  for gj = 0 to Detection_table.untargeted_count table - 1 do
    match exact_nmin table gj with
    | None ->
      (* Truly unbounded: a sampled set is a subset of the exhaustive
         one, so the estimator necessarily agrees — nothing to score. *)
      ()
    | Some exact -> (
      incr n_checks;
      match Estimate.nmin_interval est gj with
      | Some (lo, _, hi) ->
        if inside exact ~lo ~hi then incr n_cov
        else miss (Printf.sprintf "nmin(g%d)" gj) exact lo hi
      | None ->
        (* The sample found no intersecting target although one
           exists: an uncovered check, with the "interval" empty. *)
        miss (Printf.sprintf "nmin(g%d)" gj) exact nan nan)
  done;
  ( {
      spec = cspec;
      checks = !t_checks + !n_checks;
      covered = !t_cov + !n_cov;
      misses = List.rev !misses;
    },
    (!t_checks, !t_cov, !n_checks, !n_cov) )

let circuit_rate c = rate ~covered:c.covered ~checks:c.checks

(* Greedy shrink on the per-circuit coverage predicate: each candidate
   strictly decreases one spec field, so the walk terminates. *)
let shrink ~spec ~floor cspec0 =
  let bad cspec =
    let c, _ = check_circuit ~spec cspec in
    if c.checks > 0 && circuit_rate c < floor then Some c else None
  in
  match bad cspec0 with
  | None -> None
  | Some c0 ->
    let rec go (cspec : Random_circuit.spec) c =
      let candidates =
        [
          { cspec with Random_circuit.gates = cspec.Random_circuit.gates / 2 };
          { cspec with Random_circuit.gates = cspec.Random_circuit.gates - 1 };
          { cspec with Random_circuit.inputs = cspec.Random_circuit.inputs - 1 };
          { cspec with Random_circuit.seed = cspec.Random_circuit.seed / 2 };
        ]
        |> List.filter (fun (s : Random_circuit.spec) ->
               s.Random_circuit.gates >= 1
               && s.Random_circuit.inputs >= 1
               && s <> cspec)
      in
      match
        List.find_map (fun s -> Option.map (fun c -> (s, c)) (bad s)) candidates
      with
      | Some (_, c) -> go c.spec c
      | None -> (cspec, c)
    in
    Some (snd (go cspec0 c0))

let run ?(mutate = false) ?(samples = 400) ?(strata = 8)
    ?(confidence = 0.95) ?(slack = 0.05) ~trials ~seed ~max_pi () =
  if trials < 1 then invalid_arg "Ref_estimate.run: trials < 1";
  if max_pi < 1 || max_pi > 10 then
    invalid_arg "Ref_estimate.run: max_pi must be in 1..10 (exhaustive oracle)";
  if slack < 0.0 || slack >= 1.0 then
    invalid_arg "Ref_estimate.run: slack must be in [0, 1)";
  let spec =
    match Estimate.Spec.make ~strata ~confidence ~samples () with
    | Ok s -> s
    | Error m -> invalid_arg ("Ref_estimate.run: " ^ m)
  in
  (* The self-test hook: a deliberately biased sampler (every draw
     returns its stratum's first vector). The coverage floor must
     catch it. *)
  Sampler.debug_bias := mutate;
  Fun.protect ~finally:(fun () -> Sampler.debug_bias := false) @@ fun () ->
  let rng = Rng.create ~seed in
  let t_checks = ref 0 and t_cov = ref 0 in
  let n_checks = ref 0 and n_cov = ref 0 in
  let worst = ref None in
  for _ = 1 to trials do
    let cspec =
      Random_circuit.draw_spec rng ~max_inputs:max_pi
        ~max_gates:((2 * max_pi) + 6)
    in
    let c, (tc, tv, nc, nv) = check_circuit ~spec cspec in
    t_checks := !t_checks + tc;
    t_cov := !t_cov + tv;
    n_checks := !n_checks + nc;
    n_cov := !n_cov + nv;
    if c.checks > 0 then
      match !worst with
      | Some w when circuit_rate w <= circuit_rate c -> ()
      | _ -> worst := Some c
  done;
  let report =
    {
      trials;
      confidence;
      slack;
      target_checks = !t_checks;
      target_covered = !t_cov;
      nmin_checks = !n_checks;
      nmin_covered = !n_cov;
      worst = !worst;
      reproducer = None;
    }
  in
  if failed report then
    let reproducer =
      Option.bind !worst (fun w ->
          shrink ~spec ~floor:(confidence -. slack) w.spec)
    in
    { report with reproducer }
  else report

let render r =
  let b = Buffer.create 1024 in
  Printf.bprintf b
    "estimator calibration: %d trial(s), floor %.3f (confidence %.3f - \
     slack %.3f)\n"
    r.trials
    (r.confidence -. r.slack)
    r.confidence r.slack;
  Printf.bprintf b "  N(f) coverage:    %d/%d = %.4f\n" r.target_covered
    r.target_checks (target_rate r);
  Printf.bprintf b "  nmin(g) coverage: %d/%d = %.4f\n" r.nmin_covered
    r.nmin_checks (nmin_rate r);
  if failed r then begin
    Printf.bprintf b "FAIL: coverage below the floor\n";
    let describe label c =
      Printf.bprintf b "%s: %s coverage %d/%d\n" label
        (Random_circuit.spec_to_string c.spec)
        c.covered c.checks;
      List.iter
        (fun m ->
          Printf.bprintf b "  %s = %d outside [%.2f, %.2f]\n" m.cell m.exact
            m.lo m.hi)
        c.misses
    in
    Option.iter (describe "worst circuit") r.worst;
    Option.iter (describe "shrunk reproducer") r.reproducer
  end
  else Printf.bprintf b "PASS: every family at or above the floor\n";
  Buffer.contents b
