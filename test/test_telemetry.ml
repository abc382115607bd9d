(* Tests for the telemetry subsystem: the counter/gauge registry, nested
   timing spans, the in-memory and JSONL sinks, and the error-annotation
   hand-off to the supervisor.

   The registry is process-wide and monotone, so counter assertions are
   delta-based (sample before/after) rather than absolute; sink tests
   detach their sinks in a [Fun.protect] so a failing test cannot leave
   spans enabled for the rest of the binary. *)

module Telemetry = Ndetect_util.Telemetry
module Parallel = Ndetect_util.Parallel

let with_memory_sink f =
  let sink = Telemetry.Memory.attach () in
  Fun.protect ~finally:(fun () -> Telemetry.Memory.detach sink) (fun () ->
      f sink)

(* counters and gauges *)

let test_counter_basics () =
  let c = Telemetry.Counter.create "test.basics" in
  Alcotest.(check string) "name" "test.basics" (Telemetry.Counter.name c);
  let v0 = Telemetry.Counter.value c in
  Telemetry.Counter.incr c;
  Telemetry.Counter.add c 41;
  Alcotest.(check int) "incr + add" (v0 + 42) (Telemetry.Counter.value c);
  (* create is idempotent: the same name is the same cell. *)
  let c' = Telemetry.Counter.create "test.basics" in
  Telemetry.Counter.incr c';
  Alcotest.(check int) "same cell" (v0 + 43) (Telemetry.Counter.value c);
  Alcotest.(check int) "registry lookup" (v0 + 43)
    (Telemetry.counter_value "test.basics")

let test_counter_unknown () =
  Alcotest.(check int) "unregistered reads 0" 0
    (Telemetry.counter_value "test.never_created")

let test_gauge () =
  let g = Telemetry.Gauge.create "test.gauge" in
  Telemetry.Gauge.set g 4;
  Alcotest.(check int) "set" 4 (Telemetry.Gauge.value g);
  Telemetry.Gauge.set g 2;
  Alcotest.(check int) "last write wins" 2 (Telemetry.Gauge.value g);
  Alcotest.(check bool) "in snapshot" true
    (List.mem_assoc "test.gauge" (Telemetry.counters ()))

let test_counter_atomicity_across_domains () =
  let c = Telemetry.Counter.create "test.atomicity" in
  let v0 = Telemetry.Counter.value c in
  let adds_per_item = 1000 in
  let items = Array.init 64 Fun.id in
  ignore
    (Parallel.map_array ~domains:4
       (fun _ ->
         for _ = 1 to adds_per_item do
           Telemetry.Counter.incr c
         done)
       items);
  Alcotest.(check int) "no lost updates"
    (v0 + (Array.length items * adds_per_item))
    (Telemetry.Counter.value c)

let test_snapshot_sorted () =
  ignore (Telemetry.Counter.create "test.zz");
  ignore (Telemetry.Counter.create "test.aa");
  let names = List.map fst (Telemetry.counters ()) in
  Alcotest.(check bool) "sorted by name" true
    (List.sort String.compare names = names)

let test_delta () =
  let d =
    Telemetry.delta
      ~before:[ ("a", 1); ("b", 5); ("c", 0) ]
      ~after:[ ("a", 1); ("b", 9); ("c", 2); ("d", 3) ]
  in
  Alcotest.(check bool) "unchanged dropped" true (not (List.mem_assoc "a" d));
  Alcotest.(check int) "changed diffed" 4 (List.assoc "b" d);
  Alcotest.(check int) "zero base" 2 (List.assoc "c" d);
  Alcotest.(check int) "absent from before counts from 0" 3
    (List.assoc "d" d)

(* spans: disabled path *)

let test_disabled_is_transparent () =
  Alcotest.(check bool) "no sink registered" false (Telemetry.enabled ());
  Alcotest.(check (list string)) "no open spans" [] (Telemetry.current_spans ());
  let r = Telemetry.with_span "test.off" (fun () -> 7) in
  Alcotest.(check int) "value through" 7 r;
  Alcotest.(check (list string)) "still no spans" []
    (Telemetry.current_spans ())

(* spans: memory sink *)

let test_span_nesting () =
  with_memory_sink (fun sink ->
      Alcotest.(check bool) "enabled" true (Telemetry.enabled ());
      let inner_stack = ref [] in
      Telemetry.with_span "outer" (fun () ->
          Telemetry.with_span "inner" (fun () ->
              inner_stack := Telemetry.current_spans ()));
      Alcotest.(check (list string)) "stack innermost first"
        [ "inner"; "outer" ] !inner_stack;
      Alcotest.(check (list string)) "stack unwinds" []
        (Telemetry.current_spans ());
      match Telemetry.Memory.spans sink with
      | [ (inner, d_inner); (outer, d_outer) ] ->
        Alcotest.(check string) "child completes first" "inner"
          inner.Telemetry.name;
        Alcotest.(check string) "parent completes last" "outer"
          outer.Telemetry.name;
        Alcotest.(check bool) "parent link" true
          (inner.Telemetry.parent = Some outer.Telemetry.id);
        Alcotest.(check bool) "root has no parent" true
          (outer.Telemetry.parent = None);
        Alcotest.(check bool) "ids increase" true
          (inner.Telemetry.id > outer.Telemetry.id);
        Alcotest.(check bool) "durations non-negative" true
          (d_inner >= 0.0 && d_outer >= 0.0);
        Alcotest.(check bool) "parent covers child" true
          (d_outer >= d_inner)
      | spans ->
        Alcotest.fail
          (Printf.sprintf "expected 2 completed spans, got %d"
             (List.length spans)))

let test_span_args_and_render () =
  with_memory_sink (fun sink ->
      Telemetry.with_span "render.root" (fun () ->
          for _ = 1 to 3 do
            Telemetry.with_span "render.child"
              ~args:[ ("k", "v") ]
              (fun () -> ())
          done);
      (match Telemetry.Memory.spans sink with
      | (child, _) :: _ ->
        Alcotest.(check bool) "args recorded" true
          (child.Telemetry.args = [ ("k", "v") ])
      | [] -> Alcotest.fail "no spans collected");
      let table = Telemetry.Memory.render sink in
      List.iter
        (fun needle ->
          Alcotest.(check bool) (needle ^ " in profile") true
            (Helpers.contains_substring table needle))
        [ "render.root"; "render.child"; "3" ])

(* A qcheck-driven random span tree: the generated list gives the
   branching factor at each depth. Whatever the shape: every span
   completes exactly once with a unique id and a non-negative duration,
   every non-root's parent is a span that began earlier, and a parent's
   duration covers the sum of its direct children. *)
let prop_span_tree =
  QCheck.Test.make ~name:"random span tree invariants" ~count:25
    QCheck.(small_list (int_bound 2))
    (fun arities ->
      with_memory_sink (fun sink ->
          let arr = Array.of_list arities in
          let rec build depth =
            Telemetry.with_span (Printf.sprintf "d%d" depth) (fun () ->
                if depth < Array.length arr then
                  for _ = 1 to arr.(depth) do
                    build (depth + 1)
                  done)
          in
          build 0;
          let spans = Telemetry.Memory.spans sink in
          let ids = List.map (fun (s, _) -> s.Telemetry.id) spans in
          List.length ids = List.length (List.sort_uniq Int.compare ids)
          && List.for_all
               (fun (s, d) ->
                 d >= 0.0
                 &&
                 match s.Telemetry.parent with
                 | None -> true
                 | Some p ->
                   p < s.Telemetry.id
                   && List.exists (fun (q, _) -> q.Telemetry.id = p) spans)
               spans
          && List.for_all
               (fun (parent, d_parent) ->
                 let child_sum =
                   List.fold_left
                     (fun acc (s, d) ->
                       if s.Telemetry.parent = Some parent.Telemetry.id then
                         acc +. d
                       else acc)
                     0.0 spans
                 in
                 d_parent +. 1e-9 >= child_sum)
               spans))

(* spans: exceptions *)

exception Boom

let test_span_exception_propagates () =
  with_memory_sink (fun sink ->
      (try
         Telemetry.with_span "outer" (fun () ->
             Telemetry.with_span "inner" (fun () -> raise Boom))
       with Boom -> ());
      Alcotest.(check (list string)) "stack unwound" []
        (Telemetry.current_spans ());
      Alcotest.(check int) "both spans closed" 2
        (List.length (Telemetry.Memory.spans sink)))

let test_error_spans () =
  with_memory_sink (fun _sink ->
      match
        Telemetry.with_span "outer" (fun () ->
            Telemetry.with_span "inner" (fun () -> raise Boom))
      with
      | () -> Alcotest.fail "expected Boom"
      | exception Boom ->
        Alcotest.(check (list string)) "innermost first"
          [ "inner"; "outer" ] (Telemetry.error_spans Boom);
        Alcotest.(check (list string)) "consuming" []
          (Telemetry.error_spans Boom))

let test_error_spans_unknown_exn () =
  Alcotest.(check (list string)) "never-seen exception" []
    (Telemetry.error_spans Not_found)

(* jsonl sink *)

let with_temp_trace f =
  let path = Filename.temp_file "ndetect-trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let read_lines path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

let count_substring line needle =
  if Helpers.contains_substring line needle then 1 else 0

let test_jsonl_stream () =
  with_temp_trace (fun path ->
      let sink = Telemetry.Jsonl.attach ~path in
      Fun.protect ~finally:(fun () -> Telemetry.Jsonl.detach sink)
        (fun () ->
          Telemetry.with_span "a" (fun () ->
              Telemetry.with_span "b" ~args:[ ("x", "1") ] (fun () -> ()));
          Telemetry.with_span "c" (fun () -> ()));
      Telemetry.Jsonl.detach sink;
      let lines = read_lines path in
      (match lines with
      | meta :: _ ->
        Alcotest.(check bool) "meta first" true
          (Helpers.contains_substring meta "\"type\":\"meta\""
          && Helpers.contains_substring meta "ndetect-trace/1")
      | [] -> Alcotest.fail "empty trace");
      let count needle =
        List.fold_left (fun acc l -> acc + count_substring l needle) 0 lines
      in
      Alcotest.(check int) "three begins" 3 (count "\"type\":\"begin\"");
      Alcotest.(check int) "begins balance ends" (count "\"type\":\"begin\"")
        (count "\"type\":\"end\"");
      Alcotest.(check int) "one counters footer" 1
        (count "\"type\":\"counters\"");
      Alcotest.(check bool) "args serialized" true
        (count "\"args\":{\"x\":\"1\"}" = 1);
      (match List.rev lines with
      | last :: _ ->
        Alcotest.(check bool) "counters last" true
          (Helpers.contains_substring last "\"type\":\"counters\"")
      | [] -> assert false))

(* End arguments are derived from the result and ride on the end line
   only; a span that raises ends without them. *)
let test_jsonl_end_args () =
  with_temp_trace (fun path ->
      let sink = Telemetry.Jsonl.attach ~path in
      Fun.protect ~finally:(fun () -> Telemetry.Jsonl.detach sink)
        (fun () ->
          let n =
            Telemetry.with_span "sized" ~args:[ ("in", "3") ]
              ~end_args:(fun n -> [ ("out", string_of_int n) ])
              (fun () -> 7)
          in
          Alcotest.(check int) "result passes through" 7 n;
          try
            Telemetry.with_span "raises"
              ~end_args:(fun () -> [ ("out", "never") ])
              (fun () -> failwith "boom")
          with Failure _ -> ());
      Telemetry.Jsonl.detach sink;
      let lines = read_lines path in
      let has kind name args =
        let field key v = Printf.sprintf "\"%s\":\"%s\"" key v in
        List.exists
          (fun l ->
            Helpers.contains_substring l (field "type" kind)
            && Helpers.contains_substring l (field "name" name)
            && Helpers.contains_substring l args)
          lines
      in
      Alcotest.(check bool) "begin keeps its args" true
        (has "begin" "sized" "\"args\":{\"in\":\"3\"}");
      Alcotest.(check bool) "end carries the result args" true
        (has "end" "sized" "\"args\":{\"out\":\"7\"}");
      Alcotest.(check bool) "raising span ends without them" false
        (has "end" "raises" "\"args\""))

let test_jsonl_escaping () =
  with_temp_trace (fun path ->
      let sink = Telemetry.Jsonl.attach ~path in
      Fun.protect ~finally:(fun () -> Telemetry.Jsonl.detach sink)
        (fun () ->
          Telemetry.with_span "quote\"back\\slash"
            ~args:[ ("k", "line\nbreak") ]
            (fun () -> ()));
      Telemetry.Jsonl.detach sink;
      let lines = read_lines path in
      Alcotest.(check bool) "escaped quote" true
        (List.exists
           (fun l -> Helpers.contains_substring l "quote\\\"back\\\\slash")
           lines);
      Alcotest.(check bool) "escaped newline kept on one line" true
        (List.exists
           (fun l -> Helpers.contains_substring l "line\\nbreak")
           lines))

(* A trace on a full device: spans of the traced work never raise (the
   trace just ends), and detach reports the failed write once the file
   is closed. Enough spans to overflow the channel buffer mid-run. *)
let test_jsonl_full_device () =
  if Sys.file_exists "/dev/full" then begin
    let sink = Telemetry.Jsonl.attach ~path:"/dev/full" in
    let raised_in_span =
      match
        for i = 1 to 5_000 do
          Telemetry.with_span "work" ~args:[ ("i", string_of_int i) ] ignore
        done
      with
      | () -> false
      | exception Sys_error _ -> true
    in
    let raised_at_detach =
      match Telemetry.Jsonl.detach sink with
      | () -> false
      | exception Sys_error _ -> true
    in
    Alcotest.(check bool) "spans never raise" false raised_in_span;
    Alcotest.(check bool) "detach reports the write" true raised_at_detach;
    Telemetry.Jsonl.detach sink
  end

(* clock *)

let test_now_monotone () =
  let rec loop i last =
    if i < 1000 then begin
      let t = Telemetry.now () in
      Alcotest.(check bool) "non-decreasing" true (t >= last);
      loop (i + 1) t
    end
  in
  loop 0 (Telemetry.now ())

(* The monotonic clock counts real seconds: a 20 ms sleep shows as at
   least 20 ms and well under a second. *)
let test_now_advances () =
  let t0 = Telemetry.now () in
  Unix.sleepf 0.02;
  let dt = Telemetry.now () -. t0 in
  Alcotest.(check bool) (Printf.sprintf "slept 20 ms, clock says %.4fs" dt)
    true (dt >= 0.0195 && dt < 1.0)

let () =
  Alcotest.run "telemetry"
    [
      ( "registry",
        [
          Alcotest.test_case "counter basics" `Quick test_counter_basics;
          Alcotest.test_case "unknown counter" `Quick test_counter_unknown;
          Alcotest.test_case "gauge" `Quick test_gauge;
          Alcotest.test_case "atomicity across domains" `Quick
            test_counter_atomicity_across_domains;
          Alcotest.test_case "snapshot sorted" `Quick test_snapshot_sorted;
          Alcotest.test_case "delta" `Quick test_delta;
        ] );
      ( "spans",
        [
          Alcotest.test_case "disabled transparent" `Quick
            test_disabled_is_transparent;
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "args and render" `Quick
            test_span_args_and_render;
          Helpers.qcheck prop_span_tree;
          Alcotest.test_case "exception propagates" `Quick
            test_span_exception_propagates;
          Alcotest.test_case "error spans" `Quick test_error_spans;
          Alcotest.test_case "error spans unknown" `Quick
            test_error_spans_unknown_exn;
        ] );
      ( "jsonl",
        [
          Alcotest.test_case "stream" `Quick test_jsonl_stream;
          Alcotest.test_case "escaping" `Quick test_jsonl_escaping;
          Alcotest.test_case "end args" `Quick test_jsonl_end_args;
          Alcotest.test_case "full device" `Quick test_jsonl_full_device;
        ] );
      ("clock",
        [
          Alcotest.test_case "monotone" `Quick test_now_monotone;
          Alcotest.test_case "advances with sleep" `Quick test_now_advances;
        ] );
    ]
