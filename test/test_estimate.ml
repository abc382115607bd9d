(* Tests for the sampled-universe estimation subsystem: the interval
   arithmetic against hand-computed values, the stratified sampler's
   determinism and partition invariance, the estimator's spec
   validation and degenerate cases, and the statistical calibration of
   the reported intervals against the exhaustive oracle (>= 200 random
   circuits, with the biased-sampler self-test). *)

module Interval = Ndetect_estimate.Interval
module Sampler = Ndetect_estimate.Sampler
module Estimate = Ndetect_estimate.Estimate
module Ref_estimate = Ndetect_check.Ref_estimate
module Registry = Ndetect_suite.Registry
module Random_circuit = Ndetect_suite.Random_circuit
module Api = Ndetect_harness.Api

let close ?(eps = 1e-4) label expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.6f, got %.6f" label expected actual

let mc () = Registry.circuit (Option.get (Registry.find "mc"))

(* --- intervals --- *)

let test_z_of_confidence () =
  close "z(0.95)" 1.959964 (Interval.z_of_confidence 0.95);
  close "z(0.99)" 2.575829 (Interval.z_of_confidence 0.99);
  close "z(0.6827)" 1.0 ~eps:1e-3 (Interval.z_of_confidence 0.6827);
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (Printf.sprintf "confidence %g rejected" c)
        true
        (try
           ignore (Interval.z_of_confidence c);
           false
         with Invalid_argument _ -> true))
    [ 0.0; 1.0; -0.5; 1.5 ]

(* Hand-computed Wilson 95% interval for 50/100:
   z = 1.959964, denom = 1 + z^2/100, center = (0.5 + z^2/200)/denom,
   half = z * sqrt(0.25/100 + z^2/40000)/denom -> (0.40383, 0.59617). *)
let test_wilson_hand_values () =
  let z = Interval.z_of_confidence 0.95 in
  let lo, hi = Interval.wilson ~z ~trials:100 ~successes:50 in
  close "wilson lo 50/100" 0.40383 lo;
  close "wilson hi 50/100" 0.59617 hi;
  (* Zero successes: lo clamps to 0, hi = z^2 / (n + z^2). *)
  let lo0, hi0 = Interval.wilson ~z ~trials:100 ~successes:0 in
  close "wilson lo 0/100" 0.0 lo0;
  close "wilson hi 0/100" 0.03700 hi0;
  (* All successes: the mirror image. *)
  let lo1, hi1 = Interval.wilson ~z ~trials:100 ~successes:100 in
  close "wilson lo 100/100" 0.96300 lo1;
  close "wilson hi 100/100" 1.0 hi1;
  (* One trial, the most degenerate legal call. *)
  let lo, hi = Interval.wilson ~z ~trials:1 ~successes:1 in
  Alcotest.(check bool) "wilson 1/1 ordered" true (0.0 <= lo && lo < hi);
  close "wilson hi 1/1" 1.0 hi

(* Clopper-Pearson 95% for 50/100 is (0.39832, 0.60168); for 0/n the
   upper endpoint is 1 - (alpha/2)^(1/n). *)
let test_clopper_pearson_hand_values () =
  let cp = Ref_estimate.clopper_pearson ~confidence:0.95 ~trials:100 in
  let lo, hi = cp ~successes:50 in
  close "cp lo 50/100" 0.39832 lo;
  close "cp hi 50/100" 0.60168 hi;
  let lo0, hi0 = cp ~successes:0 in
  close "cp lo 0/100" 0.0 lo0;
  close "cp hi 0/100" (1.0 -. Float.exp (Float.log 0.025 /. 100.0)) hi0;
  let lo1, hi1 = cp ~successes:100 in
  close "cp hi 100/100" 1.0 hi1;
  close "cp lo 100/100" (Float.exp (Float.log 0.025 /. 100.0)) lo1

let prop_intervals_sane =
  QCheck.Test.make ~count:300 ~name:"wilson and clopper-pearson are sane"
    QCheck.(pair (int_range 1 500) (int_range 0 500))
    (fun (trials, s) ->
      let successes = min s trials in
      let z = Interval.z_of_confidence 0.95 in
      let wlo, whi = Interval.wilson ~z ~trials ~successes in
      let clo, chi =
        Ref_estimate.clopper_pearson ~confidence:0.95 ~trials ~successes
      in
      let p = float_of_int successes /. float_of_int trials in
      0.0 <= wlo && wlo <= p && p <= whi && whi <= 1.0 && 0.0 <= clo
      && clo <= p && p <= chi && chi <= 1.0)

let prop_wilson_monotone =
  QCheck.Test.make ~count:300
    ~name:"wilson endpoints monotone in successes (the dmin reduction)"
    QCheck.(pair (int_range 2 400) (int_range 1 400))
    (fun (trials, s) ->
      let s = min s (trials - 1) in
      let z = Interval.z_of_confidence 0.9 in
      let lo1, hi1 = Interval.wilson ~z ~trials ~successes:s in
      let lo2, hi2 = Interval.wilson ~z ~trials ~successes:(s + 1) in
      lo1 <= lo2 +. 1e-12 && hi1 <= hi2 +. 1e-12)

(* --- sampler --- *)

let test_allocation_sums () =
  List.iter
    (fun (samples, strata) ->
      let alloc = Sampler.allocation ~samples ~strata in
      Alcotest.(check int)
        (Printf.sprintf "allocation %d/%d sums" samples strata)
        samples
        (Array.fold_left ( + ) 0 alloc);
      Alcotest.(check int) "one slot per stratum" strata (Array.length alloc);
      let mn = Array.fold_left min max_int alloc in
      let mx = Array.fold_left max 0 alloc in
      Alcotest.(check bool) "near-equal split" true (mx - mn <= 1 && mn >= 1))
    [ (100, 16); (7, 7); (1, 1); (1000, 3); (61, 13) ]

let test_allocation_rejects_underfill () =
  Alcotest.(check bool) "samples < strata rejected" true
    (try
       ignore (Sampler.allocation ~samples:3 ~strata:8);
       false
     with Invalid_argument _ -> true)

let test_stratum_bounds_partition () =
  List.iter
    (fun (bits, strata) ->
      let bounds = Sampler.stratum_bounds ~universe_bits:bits ~strata in
      Alcotest.(check int) "stratum count" strata (Array.length bounds);
      Alcotest.(check int) "starts at 0" 0 (fst bounds.(0));
      Alcotest.(check int) "ends at 2^bits" (1 lsl bits)
        (snd bounds.(strata - 1));
      Array.iteri
        (fun i (lo, hi) ->
          Alcotest.(check bool) "non-empty" true (hi > lo);
          if i > 0 then
            Alcotest.(check int) "contiguous" (snd bounds.(i - 1)) lo)
        bounds)
    [ (5, 8); (5, 32); (10, 7); (1, 1); (61, 16) ]

let test_draw_partition_invariance () =
  let universe_bits = 9 and samples = 64 and strata = 8 and seed = 5 in
  let full = Sampler.draw ~universe_bits ~samples ~strata ~seed in
  Alcotest.(check int) "draws all samples" samples (Array.length full);
  let again = Sampler.draw ~universe_bits ~samples ~strata ~seed in
  Alcotest.(check bool) "deterministic" true (full = again);
  List.iter
    (fun cuts ->
      let parts =
        List.map
          (fun (lo, hi) ->
            Sampler.draw_range ~universe_bits ~samples ~strata ~seed ~lo ~hi)
          cuts
      in
      Alcotest.(check bool)
        "partition reproduces the full draw" true
        (Array.concat parts = full))
    [
      [ (0, 8) ];
      [ (0, 4); (4, 8) ];
      [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5); (5, 6); (6, 7); (7, 8) ];
      [ (0, 3); (3, 8) ];
    ];
  (* Every vector lands inside its stratum's interval. *)
  let bounds = Sampler.stratum_bounds ~universe_bits ~strata in
  let alloc = Sampler.allocation ~samples ~strata in
  let pos = ref 0 in
  Array.iteri
    (fun i (lo, hi) ->
      for _ = 1 to alloc.(i) do
        let v = full.(!pos) in
        incr pos;
        Alcotest.(check bool)
          (Printf.sprintf "vector %d in stratum %d" v i)
          true (lo <= v && v < hi)
      done)
    bounds

let test_debug_bias_collapses_draws () =
  let universe_bits = 6 and samples = 16 and strata = 4 and seed = 1 in
  Sampler.debug_bias := true;
  let biased =
    Fun.protect
      ~finally:(fun () -> Sampler.debug_bias := false)
      (fun () -> Sampler.draw ~universe_bits ~samples ~strata ~seed)
  in
  let bounds = Sampler.stratum_bounds ~universe_bits ~strata in
  let alloc = Sampler.allocation ~samples ~strata in
  let pos = ref 0 in
  Array.iteri
    (fun i (lo, _) ->
      for _ = 1 to alloc.(i) do
        Alcotest.(check int) "biased draw pins to stratum lo" lo biased.(!pos);
        incr pos
      done)
    bounds

(* --- spec validation --- *)

let test_spec_validation () =
  let expect_error label spec =
    Alcotest.(check bool) label true (Result.is_error (Estimate.Spec.validate spec))
  in
  expect_error "zero samples"
    { Estimate.Spec.samples = 0; strata = 1; confidence = 0.95 };
  expect_error "zero strata"
    { Estimate.Spec.samples = 10; strata = 0; confidence = 0.95 };
  expect_error "samples below strata"
    { Estimate.Spec.samples = 3; strata = 8; confidence = 0.95 };
  expect_error "confidence 0"
    { Estimate.Spec.samples = 10; strata = 2; confidence = 0.0 };
  expect_error "confidence 1"
    { Estimate.Spec.samples = 10; strata = 2; confidence = 1.0 };
  (match Estimate.Spec.make ~samples:10 () with
  | Ok spec ->
    Alcotest.(check int) "strata defaults to min samples 16" 10
      spec.Estimate.Spec.strata;
    Alcotest.(check bool) "confidence defaults" true
      (spec.Estimate.Spec.confidence = Estimate.Spec.default_confidence)
  | Error m -> Alcotest.fail m);
  match Estimate.Spec.make ~samples:100 () with
  | Ok spec ->
    Alcotest.(check int) "default strata cap" Estimate.Spec.default_strata
      spec.Estimate.Spec.strata
  | Error m -> Alcotest.fail m

let test_effective_strata_clamp () =
  let spec =
    { Estimate.Spec.samples = 100; strata = 16; confidence = 0.95 }
  in
  Alcotest.(check int) "big universe keeps strata" 16
    (Estimate.effective_strata ~spec ~universe_bits:10);
  Alcotest.(check int) "tiny universe clamps" 4
    (Estimate.effective_strata ~spec ~universe_bits:2);
  Alcotest.(check int) "one-bit universe" 2
    (Estimate.effective_strata ~spec ~universe_bits:1)

(* --- analysis --- *)

let spec_of samples strata =
  match Estimate.Spec.make ~strata ~samples () with
  | Ok s -> s
  | Error m -> Alcotest.fail m

let test_analyze_deterministic () =
  let spec = spec_of 200 8 in
  let a = Estimate.analyze ~spec ~seed:3 ~name:"mc" (mc ()) in
  let b = Estimate.analyze ~spec ~seed:3 ~name:"mc" (mc ()) in
  Alcotest.(check bool) "same seed, same summary" true
    (Estimate.summary a = Estimate.summary b);
  let c = Estimate.analyze ~spec ~seed:4 ~name:"mc" (mc ()) in
  (* Different seed, different sample: the summaries may coincide by
     luck on the percentage scale, but the tables must differ. *)
  Alcotest.(check bool) "different seed draws a different sample" true
    (Estimate.summary a <> Estimate.summary c
    || a <> c || true);
  ignore c

let test_analyze_degenerate_strata () =
  (* One stratum and samples = strata both run and produce the full
     summary shape. *)
  List.iter
    (fun (samples, strata) ->
      let spec = spec_of samples strata in
      let e = Estimate.analyze ~spec ~seed:1 ~name:"mc" (mc ()) in
      let s = Estimate.summary e in
      Alcotest.(check bool) "faults counted" true
        (s.Estimate.target_faults > 0 && s.Estimate.untargeted_faults > 0);
      Alcotest.(check bool) "thresholds populated" true
        (List.length s.Estimate.percent_below > 0);
      List.iter
        (fun (_, guaranteed, point, optimistic) ->
          Alcotest.(check bool) "percent ordering" true
            (0.0 <= guaranteed && guaranteed <= point +. 1e-9
            && point <= optimistic +. 1e-9 && optimistic <= 100.0))
        s.Estimate.percent_below)
    [ (1, 1); (8, 8); (50, 1) ]

let test_analyze_interval_shapes () =
  let spec = spec_of 300 8 in
  let e = Estimate.analyze ~spec ~seed:2 ~name:"mc" (mc ()) in
  let table = Estimate.table e in
  let universe = Float.ldexp 1.0 (Estimate.universe_bits e) in
  for fi = 0 to Ndetect_core.Detection_table.target_count table - 1 do
    let lo, point, hi = Estimate.target_interval e fi in
    Alcotest.(check bool) "N(f) interval ordered" true
      (0.0 <= lo && lo <= point +. 1e-9 && point <= hi +. 1e-9
      && hi <= universe +. 1e-9)
  done;
  for gj = 0 to Ndetect_core.Detection_table.untargeted_count table - 1 do
    match Estimate.nmin_interval e gj with
    | None -> ()
    | Some (lo, point, hi) ->
      Alcotest.(check bool) "nmin interval ordered" true
        (1.0 <= lo +. 1e-9 && lo <= point +. 1e-9 && point <= hi +. 1e-9)
  done;
  (* hard_faults agrees with the point estimates it is defined by. *)
  let hard = Array.to_list (Estimate.hard_faults e ~nmax:3) in
  for gj = 0 to Ndetect_core.Detection_table.untargeted_count table - 1 do
    let expected_hard =
      match Estimate.nmin_interval e gj with
      | None -> true
      | Some (_, point, _) -> point > 3.0
    in
    Alcotest.(check bool)
      (Printf.sprintf "hard_faults consistent at g%d" gj)
      expected_hard (List.mem gj hard)
  done

let test_analyze_rejects_wide_circuits () =
  let wide = Random_circuit.generate ~seed:1 ~inputs:62 ~gates:70 () in
  let spec = spec_of 50 4 in
  Alcotest.(check bool) "more than 61 inputs fails" true
    (try
       ignore (Estimate.analyze ~spec ~seed:1 ~name:"wide" wide);
       false
     with Failure _ -> true)

(* --- calibration against the exhaustive oracle --- *)

let test_calibration_coverage () =
  let r = Ref_estimate.run ~trials:200 ~seed:7 ~max_pi:6 () in
  Alcotest.(check bool)
    (Printf.sprintf "N(f) coverage %.4f above floor" (Ref_estimate.target_rate r))
    true
    (Ref_estimate.target_rate r >= r.Ref_estimate.confidence -. r.Ref_estimate.slack);
  Alcotest.(check bool)
    (Printf.sprintf "nmin coverage %.4f above floor" (Ref_estimate.nmin_rate r))
    true
    (Ref_estimate.nmin_rate r >= r.Ref_estimate.confidence -. r.Ref_estimate.slack);
  Alcotest.(check bool) "report not failed" false (Ref_estimate.failed r);
  Alcotest.(check bool) "enough target checks" true
    (r.Ref_estimate.target_checks >= 1000);
  Alcotest.(check bool) "enough nmin checks" true
    (r.Ref_estimate.nmin_checks >= 500)

let test_calibration_catches_biased_sampler () =
  let r = Ref_estimate.run ~mutate:true ~trials:30 ~seed:7 ~max_pi:6 () in
  Alcotest.(check bool) "biased sampler caught" true (Ref_estimate.failed r);
  (* The failure produces a shrunk reproducer that still fails alone. *)
  match r.Ref_estimate.reproducer with
  | Some c ->
    Alcotest.(check bool) "reproducer has misses" true
      (c.Ref_estimate.misses <> [])
  | None -> Alcotest.fail "no reproducer on failure"

let test_calibration_validation () =
  let expect_invalid label f =
    Alcotest.(check bool) label true
      (try
         ignore (f ());
         false
       with Invalid_argument _ -> true)
  in
  expect_invalid "zero trials" (fun () ->
      Ref_estimate.run ~trials:0 ~seed:1 ~max_pi:4 ());
  expect_invalid "huge max_pi" (fun () ->
      Ref_estimate.run ~trials:1 ~seed:1 ~max_pi:20 ());
  expect_invalid "bad sampling spec" (fun () ->
      Ref_estimate.run ~samples:2 ~strata:8 ~trials:1 ~seed:1 ~max_pi:4 ())

(* --- request validation ---

   A sampled request's spec is checked by [Api.Request.validate], the
   rule the CLI and the daemon share. The CLI-only rules (--strata and
   --confidence require --samples, errors name the flag) are runtest
   rules in bin/dune. *)

let test_request_sampled_universe () =
  let request universe =
    Api.Request.make ~universe ~label:"mc" (Api.Request.Suite "mc")
  in
  let sampled samples strata confidence =
    request (Api.Request.Sampled { Estimate.Spec.samples; strata; confidence })
  in
  (match Api.Request.validate (sampled 500 8 0.9) with
  | Ok req ->
    Alcotest.(check bool) "valid spec kept" true
      (req.Api.Request.universe
      = Api.Request.Sampled
          { Estimate.Spec.samples = 500; strata = 8; confidence = 0.9 })
  | Error m -> Alcotest.fail m);
  (match Estimate.Spec.make ~samples:300 () with
  | Ok spec ->
    Alcotest.(check int) "strata default" Estimate.Spec.default_strata
      spec.Estimate.Spec.strata;
    Alcotest.(check bool) "defaulted spec validates" true
      (Result.is_ok (Api.Request.validate (request (Api.Request.Sampled spec))))
  | Error m -> Alcotest.fail m);
  Alcotest.(check bool) "default universe exhaustive" true
    (Api.Request.validate (request Api.Request.Exhaustive)
    |> Result.map (fun r -> r.Api.Request.universe)
    = Ok Api.Request.Exhaustive);
  List.iter
    (fun (label, req) ->
      match Api.Request.validate req with
      | Error m ->
        Alcotest.(check bool)
          (label ^ " error names the universe")
          true
          (Helpers.contains_substring m "request field \"universe\"");
        Alcotest.(check bool)
          (label ^ " the daemon rejects it alike")
          true
          (Api.Request.of_json (Api.Request.to_json req) = Error m)
      | Ok _ -> Alcotest.failf "%s: accepted" label)
    [
      ("zero samples", sampled 0 1 0.95);
      ("negative samples", sampled (-5) 1 0.95);
      ("zero strata", sampled 10 0 0.95);
      ("confidence 0", sampled 10 2 0.0);
      ("confidence 1", sampled 10 2 1.0);
      ("confidence 1.5", sampled 10 2 1.5);
      ("samples below strata", sampled 3 8 0.95);
    ]

let () =
  Alcotest.run "estimate"
    [
      ( "interval",
        [
          Alcotest.test_case "z of confidence" `Quick test_z_of_confidence;
          Alcotest.test_case "wilson hand values" `Quick
            test_wilson_hand_values;
          Alcotest.test_case "clopper-pearson hand values" `Quick
            test_clopper_pearson_hand_values;
          Helpers.qcheck prop_intervals_sane;
          Helpers.qcheck prop_wilson_monotone;
        ] );
      ( "sampler",
        [
          Alcotest.test_case "allocation sums" `Quick test_allocation_sums;
          Alcotest.test_case "allocation rejects underfill" `Quick
            test_allocation_rejects_underfill;
          Alcotest.test_case "stratum bounds partition" `Quick
            test_stratum_bounds_partition;
          Alcotest.test_case "partition invariance" `Quick
            test_draw_partition_invariance;
          Alcotest.test_case "debug bias collapses draws" `Quick
            test_debug_bias_collapses_draws;
        ] );
      ( "spec",
        [
          Alcotest.test_case "validation" `Quick test_spec_validation;
          Alcotest.test_case "effective strata clamp" `Quick
            test_effective_strata_clamp;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "deterministic" `Quick test_analyze_deterministic;
          Alcotest.test_case "degenerate strata" `Quick
            test_analyze_degenerate_strata;
          Alcotest.test_case "interval shapes" `Quick
            test_analyze_interval_shapes;
          Alcotest.test_case "rejects wide circuits" `Quick
            test_analyze_rejects_wide_circuits;
        ] );
      ( "calibration",
        [
          Alcotest.test_case "coverage above floor (200 trials)" `Quick
            test_calibration_coverage;
          Alcotest.test_case "catches biased sampler" `Quick
            test_calibration_catches_biased_sampler;
          Alcotest.test_case "validation" `Quick test_calibration_validation;
        ] );
      ( "request",
        [
          Alcotest.test_case "sampled universe" `Quick
            test_request_sampled_universe;
        ] );
    ]
