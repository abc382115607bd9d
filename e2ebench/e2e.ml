(* End-to-end benchmark of the analysis pipeline.

     e2e.exe --workload NAME --seed N --seconds S --trace 0|1 [--json FILE]
     e2e.exe --smoke
     e2e.exe --pins

   A run repeats the workload's fixed request corpus (a "pass"), set up
   afresh before each, until S seconds have passed, checking every
   answer against its pinned render digest. A batch pass calls
   [Api.run] in a forked child; a serve-mixed pass starts a fresh [Serve]
   daemon process (this executable with --daemon DIR) and sends it the
   corpus over a Unix-domain socket from two closed-loop client threads.

   With --trace 0 the last stdout line reports the end-to-end metrics,
   measured on untraced passes. With --trace 1 untraced and traced passes
   alternate, and the line reports the per-layer metrics, attributed from
   the library's own spans: a traced batch pass runs [Api.run] under a
   span-collecting sink, a traced serve pass reads the daemon's streamed
   per-request traces. --json writes the full ndetect-bench/2 record (read
   by compare.exe and validate.exe).

   --smoke runs one cheap request of every workload's shape, traced and
   untraced, and writes one record per workload, WORKLOAD.json, to the
   current directory. --pins prints the [Pins] module for every request
   a seed can produce. *)

module Api = Ndetect_harness.Api
module Serve = Ndetect_harness.Serve
module Rpc = Ndetect_harness.Rpc
module Telemetry = Ndetect_util.Telemetry
module Kernel = Ndetect_util.Kernel
module Parallel = Ndetect_util.Parallel
module Strategy = Ndetect_sim.Strategy

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* User + system CPU of this process and of its reaped children. *)
let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime +. t.Unix.tms_cutime +. t.Unix.tms_cstime

(* Metrics, by name and unit; BENCHMARK.json lists the same ones. *)
let e2e_metrics =
  [
    ("setup_s", "s");
    ("wall_s", "s");
    ("cpu_s", "s");
    ("peak_rss_mb", "MB");
    ("req_p50_ms", "ms");
    ("req_p95_ms", "ms");
  ]

(* Layers, in call order. Loading the source happens before [Api.run]'s
   first span and counts as unattributed. *)
type layer = Table | Worst | Def1 | Def2 | Estimate | Render

let layers = [| Table; Worst; Def1; Def2; Estimate; Render |]

let layer_name = function
  | Table -> "table"
  | Worst -> "worst"
  | Def1 -> "procedure1.def1"
  | Def2 -> "procedure1.def2"
  | Estimate -> "estimate"
  | Render -> "render"

let layer_index l =
  let rec go i = if layers.(i) = l then i else go (i + 1) in
  go 0

(* Library spans reported as a share of the traced wall, whichever
   layer they ran under. *)
let sub_spans =
  [
    ("table.sim", "table.sim_pct");
    ("table.finalize", "table.finalize_pct");
    ("est.scan", "estimate.scan_pct");
  ]

(* Counter deltas reported per traced pass. *)
let pass_counters =
  [ "table.builds"; "sim.detection_sets"; "sim.cone_propagations";
    "est.samples_drawn" ]

let allocating = [ Table; Worst; Def2; Estimate ]

let per_layer_metrics =
  [ ("traced_wall_s", "s"); ("trace_overhead_s", "s"); ("unattributed_s", "s") ]
  @ List.map (fun l -> (layer_name l ^ ".self_pct", "%")) (Array.to_list layers)
  @ List.map (fun (_, m) -> (m, "%")) sub_spans
  @ [
      ("req.compute_ms_p50", "ms");
      ("req.wait_ms_p50", "ms");
      ("req.wait_ms_p95", "ms");
    ]
  @ List.map (fun l -> (layer_name l ^ ".alloc_mw", "Mw")) allocating
  @ List.map (fun c -> (c, "count")) pass_counters
  @ [
      ("table.dedup_ratio", "ratio");
      ("worst.kernel_calls_per_fault", "ratio");
      ("worst.early_exit_ratio", "ratio");
      ("serve.dedup_ratio", "ratio");
      ("table_cache.miss_ratio", "ratio");
      ("serve.resident_mb", "MB");
    ]

(* What the traced passes of one run accumulate. *)
type trace = {
  self_s : float array;  (* per layer *)
  alloc_w : float array;  (* per layer, words *)
  calls : int array;  (* per layer *)
  sub_s : (string, float) Hashtbl.t;  (* library span name -> seconds *)
  mutable counters : (string * int) list;  (* summed deltas *)
  mutable faults_scanned : int;  (* untargeted faults the scan visited *)
  mutable compute : float list;  (* per traced request, seconds *)
  mutable wait : float list;  (* per traced request, seconds *)
  mutable resident_bytes : int;
  mutable begun : int;
  mutable ended : int;
}

let new_trace () =
  let n = Array.length layers in
  {
    self_s = Array.make n 0.0;
    alloc_w = Array.make n 0.0;
    calls = Array.make n 0;
    sub_s = Hashtbl.create 8;
    counters = [];
    faults_scanned = 0;
    compute = [];
    wait = [];
    resident_bytes = 0;
    begun = 0;
    ended = 0;
  }

let add_sub tr name dur =
  if List.mem_assoc name sub_spans then
    Hashtbl.replace tr.sub_s name
      (dur +. Option.value ~default:0.0 (Hashtbl.find_opt tr.sub_s name))

let add_counters tr delta =
  tr.counters <-
    List.fold_left
      (fun acc (name, v) ->
        (name, v + Option.value ~default:0 (List.assoc_opt name acc))
        :: List.remove_assoc name acc)
      tr.counters delta

let counter tr name = Option.value ~default:0 (List.assoc_opt name tr.counters)

let charge tr l ~dur ~alloc_w =
  let i = layer_index l in
  tr.self_s.(i) <- tr.self_s.(i) +. dur;
  tr.alloc_w.(i) <- tr.alloc_w.(i) +. alloc_w;
  tr.calls.(i) <- tr.calls.(i) + 1

(* One completed library span. [alloc_w] is known for batch requests
   only. *)
type span_rec = {
  name : string;
  args : (string * string) list;
  dur : float;
  alloc_w : float;
}

(* Charges one request's spans to the layers and returns the request's
   compute time. [Api.run] opens one span per supervised unit (the only
   spans with a "site" argument); inside them the layers open
   "table.build", "worst.compute" and "procedure1.run" (its "mode" tells
   the definitions apart). The analyze unit of a sampled request is
   [Estimate.analyze], sampled table build included. *)
let attribute tr ~sampled spans =
  List.fold_left
    (fun compute s ->
      let arg key = List.assoc_opt key s.args in
      add_sub tr s.name s.dur;
      let charge l = charge tr l ~dur:s.dur ~alloc_w:s.alloc_w in
      (match (s.name, arg "site") with
      | "table.build", _ -> if not sampled then charge Table
      | "worst.compute", _ ->
        charge Worst;
        tr.faults_scanned <-
          tr.faults_scanned
          + Option.value ~default:0 (Option.bind (arg "untargeted") int_of_string_opt)
      | "procedure1.run", _ ->
        charge (if arg "mode" = Some "definition2" then Def2 else Def1)
      | _, Some site when sampled && String.starts_with ~prefix:"analyze:" site ->
        charge Estimate
      | _ -> ());
      if arg "site" = None then compute else compute +. s.dur)
    0.0 spans

(* Words the whole process has allocated, minor and major heaps; other
   domains count as of their last minor collection. *)
let allocated_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* Runs [f] with a sink that records every span it opens, with the words
   allocated while the span was open; returns [f]'s result and the spans
   in completion order. *)
let collect_spans tr f =
  let lock = Mutex.create () in
  let opened = Hashtbl.create 64 and spans = ref [] in
  let sink =
    Telemetry.register_sink (fun event ->
        let words = allocated_words () in
        Mutex.protect lock (fun () ->
            match event with
            | Telemetry.Span_begin { span; _ } ->
              tr.begun <- tr.begun + 1;
              Hashtbl.replace opened span.id words
            | Telemetry.Span_end { span; duration; _ } ->
              tr.ended <- tr.ended + 1;
              let before = Option.value ~default:words (Hashtbl.find_opt opened span.id) in
              Hashtbl.remove opened span.id;
              spans :=
                { name = span.name; args = span.args; dur = duration;
                  alloc_w = words -. before }
                :: !spans))
  in
  let v = Fun.protect ~finally:(fun () -> Telemetry.unregister_sink sink) f in
  (v, List.rev !spans)

(* Answers. *)

exception Failed of string

let digest_of render = Digest.to_hex (Digest.string render)

let check_pin req render =
  let key = Corpus.key req in
  match List.assoc_opt key Pins.pins with
  | None -> Error (Printf.sprintf "no pinned digest for %S" key)
  | Some pinned ->
    let d = digest_of render in
    if String.equal d pinned then Ok d
    else Error (Printf.sprintf "%s: digest %s, pinned %s" key d pinned)

(* What `ndetect analyze` does with a request: [Api.run], then render. *)
let api_run req =
  match Api.run req with
  | Error message -> raise (Failed message)
  | Ok resp when resp.Api.Response.failures <> [] ->
    raise (Failed (Corpus.key req ^ ": supervised unit failed"))
  | Ok resp -> resp

let api_render req = Api.Response.render (api_run req)

(* [api_render] with its spans collected and charged to [tr]; returns the
   render and the request's compute time. *)
let traced_render tr (req : Api.Request.t) =
  let resp, spans = collect_spans tr (fun () -> api_run req) in
  let sampled = match req.universe with Sampled _ -> true | Exhaustive -> false in
  let compute = attribute tr ~sampled spans in
  let t0 = now () in
  let render = Api.Response.render resp in
  let render_s = now () -. t0 in
  charge tr Render ~dur:render_s ~alloc_w:0.0;
  (render, compute +. render_s)

(* One pass. *)

type pass = {
  traced : bool;
  wall : float;
  cpu : float;  (* user + system, the daemon's included *)
  rss_mb : float;  (* VmHWM of the process that computed the answers *)
  latencies : float list;  (* seconds, request-index order *)
  digests : string array;  (* request-index order *)
}

let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
            (fun kb -> float_of_int kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> raise (Failed ("no VmHWM in " ^ path))
      in
      scan ())

let errors : string list ref = ref []

let record_error message =
  errors := message :: !errors;
  "error"

(* Runs [f] in a forked child and returns its result. Every batch
   request starts from the same small heap, as a new `ndetect analyze`
   process would, and its peak RSS is its own. *)
let in_child f =
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    let oc = Unix.out_channel_of_descr w in
    (match f () with
    | v -> Marshal.to_channel oc (Ok v) []
    | exception e -> Marshal.to_channel oc (Error (Printexc.to_string e)) []);
    close_out oc;
    Unix._exit 0
  | pid -> (
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let result =
      try Marshal.from_channel ic
      with End_of_file | Failure _ -> Error "request process died"
    in
    close_in ic;
    ignore (Unix.waitpid [] pid);
    match result with Ok v -> v | Error message -> raise (Failed message))

(* A batch pass: the requests in order, one at a time, each in its own
   process. [tr] and [errors] are carried through the children. *)
let batch_pass ~traced tr requests =
  let n = Array.length requests in
  let digests = Array.make n "" and latencies = Array.make n 0.0 in
  let rss_mb = ref 0.0 in
  let c0 = cpu_now () and t0 = now () in
  Array.iteri
    (fun i req ->
      let digest, latency, peak, t, e =
        in_child (fun () ->
            let before = Telemetry.counters () in
            let start = now () in
            let result =
              try
                if traced then Ok (traced_render !tr req)
                else Ok (api_render req, 0.0)
              with Failed m -> Error m
            in
            let latency = now () -. start in
            let digest =
              match result with
              | Error message -> record_error message
              | Ok (render, compute) -> (
                if traced then begin
                  !tr.compute <- compute :: !tr.compute;
                  !tr.wait <- (latency -. compute) :: !tr.wait;
                  add_counters !tr
                    (Telemetry.delta ~before ~after:(Telemetry.counters ()))
                end;
                match check_pin req render with
                | Ok d -> d
                | Error message -> record_error message)
            in
            (digest, latency, peak_rss_mb "self", !tr, !errors))
      in
      tr := t;
      errors := e;
      digests.(i) <- digest;
      latencies.(i) <- latency;
      rss_mb := Float.max !rss_mb peak)
    requests;
  {
    traced;
    wall = now () -. t0;
    cpu = cpu_now () -. c0;
    rss_mb = !rss_mb;
    latencies = Array.to_list latencies;
    digests;
  }

(* Serve-mixed: every pass gets a fresh daemon process with an empty
   table cache, so its heap and peak RSS belong to that pass alone. *)

let rec remove_tree path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let close_conn c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let frame_type j = Option.bind (Rpc.member "type" j) Rpc.to_str

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  let c =
    { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
  in
  match Rpc.read_frame c.ic with
  | Ok j when Option.bind (Rpc.member "protocol" j) Rpc.to_str = Some Rpc.protocol
    -> c
  | Ok _ | Error _ -> raise (Failed "daemon hello missing or protocol mismatch")

(* One request's answer: the render, or the error/overloaded/failure
   reason, plus its streamed trace lines. *)
let call c req =
  Rpc.write_frame c.oc
    (Rpc.Obj
       [ ("type", Rpc.Str "request"); ("request", Api.Request.to_json req) ]);
  let rec loop trace =
    match Rpc.read_frame c.ic with
    | Error message -> (Error ("connection: " ^ message), trace)
    | Ok j -> (
      let str name = Option.bind (Rpc.member name j) Rpc.to_str in
      match frame_type j with
      | Some "trace" -> loop (Option.value ~default:"" (str "line") :: trace)
      | Some "done" -> (
        match (str "render", Option.bind (Rpc.member "failures" j) Rpc.to_int) with
        | Some render, Some 0 -> (Ok render, trace)
        | _ -> (Error (Corpus.key req ^ ": failed in the daemon"), trace))
      | Some "error" ->
        (Error ("daemon error: " ^ Option.value ~default:"" (str "message")), trace)
      | Some "overloaded" -> (Error "daemon overloaded", trace)
      | _ -> loop trace)
  in
  let answer, trace = loop [] in
  (answer, List.rev trace)

(* The daemon's counters and gauges. *)
let stats c =
  Rpc.write_frame c.oc (Rpc.Obj [ ("type", Rpc.Str "stats") ]);
  match Rpc.read_frame c.ic with
  | Ok j when frame_type j = Some "stats" -> (
    match Rpc.member "counters" j with
    | Some (Rpc.Obj members) ->
      List.filter_map
        (fun (name, v) -> Option.map (fun n -> (name, n)) (Rpc.to_int v))
        members
    | _ -> [])
  | Ok _ | Error _ -> raise (Failed "daemon stats frame missing")

(* The completed spans of one streamed ndetect-trace/1 document, in
   completion order. *)
let spans_of_trace tr lines =
  let opened = Hashtbl.create 16 in
  List.fold_left
    (fun spans line ->
      match Rpc.of_string line with
      | Error _ -> spans
      | Ok j -> (
        let id = Option.bind (Rpc.member "id" j) Rpc.to_int in
        match frame_type j with
        | Some "begin" ->
          tr.begun <- tr.begun + 1;
          let args =
            match Rpc.member "args" j with
            | Some (Rpc.Obj members) ->
              List.filter_map
                (fun (k, v) -> Option.map (fun s -> (k, s)) (Rpc.to_str v))
                members
            | _ -> []
          in
          let name = Option.bind (Rpc.member "name" j) Rpc.to_str in
          Hashtbl.replace opened id (Option.value ~default:"" name, args);
          spans
        | Some "end" -> (
          tr.ended <- tr.ended + 1;
          let dur =
            match Rpc.member "dur" j with
            | Some (Rpc.Float f) -> f
            | Some (Rpc.Int n) -> float_of_int n
            | _ -> 0.0
          in
          match Hashtbl.find_opt opened id with
          | Some (name, args) -> { name; args; dur; alloc_w = 0.0 } :: spans
          | None -> spans)
        | _ -> spans))
    [] lines
  |> List.rev

let run_dir = lazy (Printf.sprintf ".e2ebench/%d" (Unix.getpid ()))

let mkdir_p path =
  let rec go p =
    if not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Unix.mkdir p 0o755
    end
  in
  go path

type daemon = {
  pid : int;
  stop : Unix.file_descr;  (* the daemon's stdin: closing it stops it *)
  dir : string;
  conns : conn list;
}

let daemon_config dir =
  {
    (Serve.default_config ~socket:(Filename.concat dir "s")) with
    Serve.cache_dir = Some (Filename.concat dir "tables");
    quiet = true;
  }

(* [e2e.exe --daemon DIR]: the daemon process of a serve pass. It prints
   a line once it listens and drains and exits when its stdin closes. *)
let daemon_main dir =
  match Serve.start (daemon_config dir) with
  | Error message ->
    prerr_endline ("e2e: " ^ message);
    exit 1
  | Ok server ->
    print_endline "ready";
    (try ignore (input_line stdin) with End_of_file -> ());
    Serve.stop server

let daemons = ref 0

(* Serve-mixed set-up: an empty table cache, a fresh daemon process with
   the default configuration, two connected clients. *)
let start_daemon () =
  incr daemons;
  let dir = Printf.sprintf "%s/d%d" (Lazy.force run_dir) !daemons in
  mkdir_p (Filename.concat dir "tables");
  let stdin_r, stdin_w = Unix.pipe ~cloexec:true () in
  let stdout_r, stdout_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "--daemon"; dir |]
      stdin_r stdout_w Unix.stderr
  in
  Unix.close stdin_r;
  Unix.close stdout_w;
  let ready =
    let ic = Unix.in_channel_of_descr stdout_r in
    let line = try Some (input_line ic) with End_of_file -> None in
    close_in ic;
    line = Some "ready"
  in
  let abandon () =
    Unix.close stdin_w;
    ignore (Unix.waitpid [] pid);
    remove_tree dir
  in
  if not ready then begin
    abandon ();
    raise (Failed "daemon did not start")
  end;
  let socket = (daemon_config dir).Serve.socket in
  match
    let a = connect socket in
    try [ a; connect socket ]
    with e ->
      close_conn a;
      raise e
  with
  | conns -> { pid; stop = stdin_w; dir; conns }
  | exception e ->
    abandon ();
    raise e

(* Stops the daemon and returns the CPU time it used. *)
let stop_daemon d =
  List.iter close_conn d.conns;
  Unix.close d.stop;
  let c0 = cpu_now () in
  ignore (Unix.waitpid [] d.pid);
  let cpu = cpu_now () -. c0 in
  remove_tree d.dir;
  cpu

(* A serve pass: the requests from two closed-loop clients, each taking
   the next request index when its previous answer is complete. *)
let serve_pass d ~tr requests =
  let n = Array.length requests in
  let answers = Array.make n (Error "not sent", [], 0.0) in
  let next = Atomic.make 0 in
  let client c () =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let start = now () in
        let answer, trace = call c requests.(i) in
        answers.(i) <- (answer, trace, now () -. start);
        loop ()
      end
    in
    loop ()
  in
  let first = List.hd d.conns in
  let before = stats first in
  let c0 = cpu_now () and t0 = now () in
  List.map (fun c -> Thread.create (client c) ()) d.conns |> List.iter Thread.join;
  let wall = now () -. t0 and cpu = cpu_now () -. c0 in
  let after = stats first in
  let rss_mb = peak_rss_mb (string_of_int d.pid) in
  let digests =
    Array.mapi
      (fun i (answer, trace, latency) ->
        Option.iter
          (fun tr ->
            let compute = attribute tr ~sampled:false (spans_of_trace tr trace) in
            tr.compute <- compute :: tr.compute;
            tr.wait <- (latency -. compute) :: tr.wait)
          tr;
        match answer with
        | Error message -> record_error message
        | Ok render -> (
          match check_pin requests.(i) render with
          | Ok d -> d
          | Error message -> record_error message))
      answers
  in
  Option.iter
    (fun tr ->
      add_counters tr (Telemetry.delta ~before ~after);
      tr.resident_bytes <-
        max tr.resident_bytes
          (Option.value ~default:0 (List.assoc_opt "serve.resident_bytes" after)))
    tr;
  {
    traced = tr <> None;
    wall;
    cpu;
    rss_mb;
    latencies = Array.to_list (Array.map (fun (_, _, l) -> l) answers);
    digests;
  }

let load_sources requests =
  let seen = Hashtbl.create 8 in
  Array.iter
    (fun (req : Api.Request.t) ->
      if not (Hashtbl.mem seen req.source) then begin
        Hashtbl.replace seen req.source ();
        match Api.load_source ~scheme:req.scheme req.source with
        | Ok _ -> ()
        | Error message -> raise (Failed message)
      end)
    requests

(* Run-level results. *)

type run = {
  workload : Corpus.workload;
  seed : int;
  seconds : float;
  trace_mode : bool;
  setups : float list;
  passes : pass list;
  tr : trace;
}

let setup_rounds = 5

let execute ~workload ~seed ~seconds ~trace_mode ~gen =
  let tr = ref (new_trace ()) in
  let setups = ref [] in
  (* A set-up takes milliseconds, so one sample is mostly noise: each
     pass sets up [setup_rounds] times, timing each and keeping the
     last. *)
  let timed_setup ?(discard = ignore) f =
    let rec go rounds =
      let s0 = now () in
      let v = f () in
      setups := (now () -. s0) :: !setups;
      if rounds <= 1 then v
      else begin
        discard v;
        go (rounds - 1)
      end
    in
    go setup_rounds
  in
  let serving = workload = Corpus.Serve_mixed in
  (* A daemon that dies mid-answer must fail the request, not kill the
     bench. *)
  if serving then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* Every pass sets up afresh, so the set-ups sample the whole run.
     Set-up is generating the corpus plus loading every source once (a
     missing input fails before timing), or starting a daemon and
     connecting both clients; a daemon's stop is not timed. *)
  let pass i =
    let traced = trace_mode && i mod 2 = 1 in
    if serving then begin
      let requests, d =
        timed_setup
          ~discard:(fun (_, d) -> ignore (stop_daemon d))
          (fun () -> (Array.of_list (gen ()), start_daemon ()))
      in
      match serve_pass d ~tr:(if traced then Some !tr else None) requests with
      | p -> { p with cpu = p.cpu +. stop_daemon d }
      | exception e ->
        ignore (stop_daemon d);
        raise e
    end
    else
      let requests =
        timed_setup (fun () ->
            let requests = Array.of_list (gen ()) in
            load_sources requests;
            requests)
      in
      batch_pass ~traced tr requests
  in
  let start = now () in
  let rec loop i acc =
    let acc = pass i :: acc in
    let enough = i >= if trace_mode then 1 else 0 in
    if enough && now () -. start >= seconds then List.rev acc
    else loop (i + 1) acc
  in
  let passes =
    Fun.protect
      ~finally:(fun () ->
        remove_tree (Lazy.force run_dir);
        try Unix.rmdir (Filename.dirname (Lazy.force run_dir))
        with Unix.Unix_error _ -> ())
      (fun () -> loop 0 [])
  in
  { workload; seed; seconds; trace_mode; setups = !setups; passes; tr = !tr }

(* Metrics. *)

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* Medians over the untraced passes of per-pass values: a pass slowed
   by other load on the host moves the median only when most passes
   are. *)
let e2e_values r =
  let untraced = List.filter (fun p -> not p.traced) r.passes in
  let median f = Stats.median (List.map f untraced) in
  let latency q p = 1000.0 *. Stats.percentile p.latencies q in
  [
    ("setup_s", Stats.median r.setups);
    ("wall_s", median (fun p -> p.wall));
    ("cpu_s", median (fun p -> p.cpu));
    ("peak_rss_mb", median (fun p -> p.rss_mb));
    ("req_p50_ms", median (latency 0.5));
    ("req_p95_ms", median (latency 0.95));
  ]

let per_layer_values r =
  let tr = r.tr in
  let traced, untraced = List.partition (fun p -> p.traced) r.passes in
  let npass = float_of_int (max 1 (List.length traced)) in
  let walls ps = List.map (fun p -> p.wall) ps in
  let traced_wall = List.fold_left ( +. ) 0.0 (walls traced) in
  let attributed = Array.fold_left ( +. ) 0.0 tr.self_s in
  let pct s = if traced_wall > 0.0 then 100.0 *. s /. traced_wall else 0.0 in
  let c = counter tr in
  let executed = c "serve.requests" - c "serve.dedup_joins" in
  [
    ("traced_wall_s", Stats.median (walls traced));
    ("trace_overhead_s", Stats.median (walls traced) -. Stats.median (walls untraced));
    ("unattributed_s", (traced_wall -. attributed) /. npass);
  ]
  @ Array.to_list
      (Array.mapi
         (fun i l -> (layer_name l ^ ".self_pct", pct tr.self_s.(i)))
         layers)
  @ List.map
      (fun (span, m) ->
        (m, pct (Option.value ~default:0.0 (Hashtbl.find_opt tr.sub_s span))))
      sub_spans
  @ [
      ("req.compute_ms_p50", 1000.0 *. Stats.percentile tr.compute 0.5);
      ("req.wait_ms_p50", 1000.0 *. Stats.percentile tr.wait 0.5);
      ("req.wait_ms_p95", 1000.0 *. Stats.percentile tr.wait 0.95);
    ]
  @ List.map
      (fun l ->
        (layer_name l ^ ".alloc_mw", tr.alloc_w.(layer_index l) /. 1e6 /. npass))
      allocating
  @ List.map (fun name -> (name, float_of_int (c name) /. npass)) pass_counters
  @ [
      ("table.dedup_ratio", ratio (c "table.dedup_hits") (c "sim.detection_sets"));
      ("worst.kernel_calls_per_fault", ratio (c "worst.kernel_calls") tr.faults_scanned);
      ("worst.early_exit_ratio", ratio (c "worst.early_exits") tr.faults_scanned);
      ("serve.dedup_ratio", ratio (c "serve.dedup_joins") (c "serve.requests"));
      ("table_cache.miss_ratio", ratio (c "table_cache.misses") executed);
      ("serve.resident_mb", float_of_int tr.resident_bytes /. 1048576.0);
    ]

(* Reporting. *)

let metrics_json defs values =
  Rpc.Obj
    (List.map
       (fun (name, unit) ->
         ( name,
           Rpc.Obj
             [ ("value", Rpc.Float (List.assoc name values)); ("unit", Rpc.Str unit) ] ))
       defs)

let attempted r = List.fold_left (fun acc p -> acc + Array.length p.digests) 0 r.passes

let failed r =
  List.fold_left
    (fun acc p ->
      acc + Array.fold_left (fun n d -> if d = "error" then n + 1 else n) 0 p.digests)
    0 r.passes

(* Every pass of a run must produce the same answers. *)
let digest r =
  match r.passes with
  | [] -> ""
  | p :: rest ->
    let d = Corpus.workload_digest p.digests in
    if List.for_all (fun q -> Corpus.workload_digest q.digests = d) rest then d
    else begin
      ignore (record_error "passes disagree on the workload digest");
      d
    end

let record r ~correct ~failed ~digest ~values =
  let floats l = Rpc.List (List.map (fun x -> Rpc.Float x) l) in
  let tr = r.tr in
  Rpc.Obj
    [
      ("schema", Rpc.Str "ndetect-bench/2");
      ("workload", Rpc.Str (Corpus.workload_name r.workload));
      ("seed", Rpc.Int r.seed);
      ("seconds", Rpc.Float r.seconds);
      ("trace", Rpc.Bool r.trace_mode);
      ( "settings",
        Rpc.Obj
          [
            ("kernel.backend", Rpc.Str (Kernel.current_name ()));
            ("sim.strategy", Rpc.Str (Strategy.current_name ()));
            ("domains", Rpc.Int (Parallel.default_domains ()));
          ] );
      ("digest", Rpc.Str digest);
      ("correct", Rpc.Bool correct);
      ("attempted", Rpc.Int (attempted r));
      ("failed", Rpc.Int failed);
      ("errors", Rpc.List (List.rev_map (fun e -> Rpc.Str e) !errors));
      ("setups_s", floats r.setups);
      ( "passes",
        Rpc.List
          (List.map
             (fun p ->
               Rpc.Obj
                 [
                   ("traced", Rpc.Bool p.traced);
                   ("wall_s", Rpc.Float p.wall);
                   ("cpu_s", Rpc.Float p.cpu);
                   ("rss_mb", Rpc.Float p.rss_mb);
                   ("requests", Rpc.Int (Array.length p.digests));
                 ])
             r.passes) );
      ("spans", Rpc.Obj [ ("begun", Rpc.Int tr.begun); ("ended", Rpc.Int tr.ended) ]);
      ( "layers",
        Rpc.List
          (Array.to_list
             (Array.mapi
                (fun i l ->
                  Rpc.Obj
                    [
                      ("layer", Rpc.Str (layer_name l));
                      ("self_s", Rpc.Float tr.self_s.(i));
                      ("alloc_mw", Rpc.Float (tr.alloc_w.(i) /. 1e6));
                      ("calls", Rpc.Int tr.calls.(i));
                    ])
                layers)
          @ [
              Rpc.Obj
                [
                  ("layer", Rpc.Str "unattributed");
                  ("self_s", Rpc.Float (List.assoc "unattributed_s" values));
                ];
            ]) );
      ("metrics", metrics_json (e2e_metrics @ per_layer_metrics) values);
    ]

let write_file path text =
  let oc = open_out path in
  output_string oc text;
  output_char oc '\n';
  close_out oc

(* Runs [execute] and returns (correct, full record, result line). *)
let measure ~workload ~seed ~seconds ~trace_mode ~gen =
  errors := [];
  let r = execute ~workload ~seed ~seconds ~trace_mode ~gen in
  let values = e2e_values r @ per_layer_values r in
  let digest = digest r in
  if r.tr.begun <> r.tr.ended then ignore (record_error "unbalanced spans");
  let correct = !errors = [] in
  (* An error outside any one request (passes disagreeing, unbalanced
     spans) counts as one failure. *)
  let failed = max (failed r) (if correct then 0 else 1) in
  let line =
    Rpc.Obj
      [
        ("correct", Rpc.Bool correct);
        ("attempted", Rpc.Int (attempted r));
        ("failed", Rpc.Int failed);
        ( "metrics",
          metrics_json (if trace_mode then per_layer_metrics else e2e_metrics) values );
      ]
  in
  (correct, record r ~correct ~failed ~digest ~values, line)

(* Pins. *)

let print_pins () =
  print_endline "(* Render digests of every request a seed can produce. Generated by";
  print_endline "   `e2e.exe --pins`; an answer that differs is a wrong answer. *)";
  print_endline "";
  print_endline "let pins =";
  print_endline "  [";
  List.iter
    (fun req ->
      let render = try api_render req with Failed m -> failwith m in
      Printf.printf "    (%S,\n     %S);\n%!" (Corpus.key req) (digest_of render))
    (Corpus.pinnable ());
  print_endline "  ]"

(* Command line. *)

let usage =
  "usage: e2e.exe --workload NAME --seed N --seconds S --trace 0|1 [--json FILE]\n\
  \       e2e.exe --smoke\n\
  \       e2e.exe --pins\n\
   workloads: "
  ^ String.concat ", " (List.map fst Corpus.workloads)

let bad_usage message =
  prerr_endline ("e2e: " ^ message);
  prerr_endline usage;
  exit 2

let () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None and json = ref None in
  let smoke = ref false and pins = ref false in
  let rec parse = function
    | [] -> ()
    | "--smoke" :: rest -> smoke := true; parse rest
    | "--pins" :: rest -> pins := true; parse rest
    | [ "--daemon"; dir ] -> daemon_main dir; exit 0
    | flag :: value :: rest -> (
      let num conv what =
        match conv value with
        | Some v -> v
        | None -> bad_usage (Printf.sprintf "%s expects %s, got %S" flag what value)
      in
      (match flag with
      | "--workload" -> (
        match Corpus.workload_of_name value with
        | Some w -> workload := Some w
        | None -> bad_usage (Printf.sprintf "unknown workload %S" value))
      | "--seed" -> seed := Some (num int_of_string_opt "an integer")
      | "--seconds" ->
        seconds :=
          Some
            (num
               (fun s ->
                 Option.bind (float_of_string_opt s) (fun f ->
                     if f >= 0.0 then Some f else None))
               "a non-negative number")
      | "--trace" ->
        trace :=
          Some (num (function "0" -> Some false | "1" -> Some true | _ -> None) "0 or 1")
      | "--json" -> json := Some value
      | _ -> bad_usage (Printf.sprintf "unknown option %S" flag));
      parse rest)
    | [ flag ] -> bad_usage (Printf.sprintf "%s requires a value" flag)
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !pins then print_pins ()
  else if !smoke then begin
    let results =
      List.map
        (fun (name, w) ->
          let correct, full, _ =
            measure ~workload:w ~seed:1 ~seconds:0.0 ~trace_mode:true
              ~gen:(fun () -> Corpus.smoke_requests w)
          in
          write_file (name ^ ".json") (Rpc.to_string full);
          if not correct then
            prerr_endline ("e2e: smoke " ^ name ^ ": " ^ String.concat "; " !errors);
          correct)
        Corpus.workloads
    in
    if not (List.for_all Fun.id results) then exit 1
  end
  else
    match (!workload, !seed, !seconds, !trace) with
    | Some workload, Some seed, Some seconds, Some trace_mode ->
      let correct, full, line =
        try
          measure ~workload ~seed ~seconds ~trace_mode ~gen:(fun () ->
              Corpus.requests workload ~seed)
        with Failed message ->
          prerr_endline ("e2e: " ^ message);
          exit 1
      in
      Option.iter (fun path -> write_file path (Rpc.to_string full)) !json;
      if not correct then prerr_endline ("e2e: " ^ String.concat "; " !errors);
      print_endline (Rpc.to_string line);
      if not correct then exit 1
    | _ -> bad_usage "--workload, --seed, --seconds and --trace are required"
