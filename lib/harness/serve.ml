module Detection_table = Ndetect_core.Detection_table
module Supervise = Ndetect_util.Supervise
module Telemetry = Ndetect_util.Telemetry
module Cancel = Ndetect_util.Cancel

let c_requests = Telemetry.Counter.create "serve.requests"
let c_dedup_joins = Telemetry.Counter.create "serve.dedup_joins"
let c_evictions = Telemetry.Counter.create "serve.evictions"
let c_overloaded = Telemetry.Counter.create "serve.overloaded"
let g_resident_bytes = Telemetry.Gauge.create "serve.resident_bytes"
let g_resident_tables = Telemetry.Gauge.create "serve.resident_tables"

type config = {
  socket : string;
  cache_dir : string option;
  queue_capacity : int;
  resident_budget : int;
  quiet : bool;
}

let default_config ~socket =
  {
    socket;
    cache_dir = None;
    queue_capacity = 16;
    resident_budget = 256 * 1024 * 1024;
    quiet = false;
  }

(* A one-shot rendezvous between the executor (producer) and the
   connection thread that owns the request (consumer). *)
module Mailbox = struct
  type 'a t = {
    lock : Mutex.t;
    cond : Condition.t;
    mutable value : 'a option;
  }

  let create () =
    { lock = Mutex.create (); cond = Condition.create (); value = None }

  let put mb v =
    Mutex.protect mb.lock (fun () ->
        mb.value <- Some v;
        Condition.signal mb.cond)

  let take mb =
    Mutex.protect mb.lock (fun () ->
        while mb.value = None do
          Condition.wait mb.cond mb.lock
        done;
        Option.get mb.value)
end

(* Bounded content-addressed store of hot detection tables, keyed by
   {!Table_cache.key}. Entries are charged the bytes their backing
   pins (the shared file mapping for cache loads, a heap estimate for
   fresh builds) and evicted least-recently-used past the budget — but
   never below one entry: evicting the table just handed out frees
   nothing, it is still referenced. *)
module Resident = struct
  type entry = {
    table : Detection_table.t;
    bytes : int;
    mutable tick : int;
  }

  type t = {
    lock : Mutex.t;
    entries : (string, entry) Hashtbl.t;
    budget : int;
    mutable clock : int;
    mutable total : int;
  }

  let create ~budget =
    {
      lock = Mutex.create ();
      entries = Hashtbl.create 8;
      budget;
      clock = 0;
      total = 0;
    }

  let publish t =
    Telemetry.Gauge.set g_resident_bytes t.total;
    Telemetry.Gauge.set g_resident_tables (Hashtbl.length t.entries)

  let find t ~key =
    Mutex.protect t.lock (fun () ->
        match Hashtbl.find_opt t.entries key with
        | Some e ->
          t.clock <- t.clock + 1;
          e.tick <- t.clock;
          Some e.table
        | None -> None)

  let evict_over_budget t =
    while t.total > t.budget && Hashtbl.length t.entries > 1 do
      let victim =
        Hashtbl.fold
          (fun key e acc ->
            match acc with
            | Some (_, oldest) when oldest.tick <= e.tick -> acc
            | Some _ | None -> Some (key, e))
          t.entries None
      in
      match victim with
      | None -> ()
      | Some (key, e) ->
        Hashtbl.remove t.entries key;
        t.total <- t.total - e.bytes;
        Telemetry.Counter.incr c_evictions
    done

  let add t ~key table ~bytes =
    Mutex.protect t.lock (fun () ->
        if not (Hashtbl.mem t.entries key) then begin
          t.clock <- t.clock + 1;
          Hashtbl.replace t.entries key { table; bytes; tick = t.clock };
          t.total <- t.total + bytes;
          evict_over_budget t
        end;
        publish t)
end

type outcome = {
  response : (Api.Response.t, string) result;
  trace : string list;
}

type job = {
  request : Api.Request.t;
  fingerprint : string;
  admission : Cancel.token option;  (* deadline clock, started at submit *)
  mailbox : outcome Mailbox.t;
}

type t = {
  config : config;
  listen_fd : Unix.file_descr;
  stopping : bool Atomic.t;
  queue : job Queue.t;
  queue_lock : Mutex.t;
  queue_cond : Condition.t;
  (* In-flight dedup: fingerprint -> mailboxes of joined duplicates.
     Present from admission to delivery. *)
  inflight : (string, outcome Mailbox.t list ref) Hashtbl.t;
  resident : Resident.t;
  conns : Unix.file_descr list ref;
  conns_lock : Mutex.t;
  mutable listener : Thread.t option;
  mutable executor : Thread.t option;
}

let log t fmt =
  Printf.ksprintf
    (fun line -> if not t.config.quiet then Printf.eprintf "[serve] %s\n%!" line)
    fmt

(* The deadline excluded: it is per-request quality of service, not
   analysis content — a joiner with a tighter deadline still gets the
   owner's (correct) answer when it lands. *)
let fingerprint (req : Api.Request.t) =
  Digest.to_hex
    (Digest.string
       (Rpc.to_string
          (Api.Request.to_json { req with Api.Request.deadline = None })))

type admitted =
  | Pending of outcome Mailbox.t
  | Overloaded
  | Rejected of string

let submit t (req : Api.Request.t) =
  if Atomic.get t.stopping then Rejected "server is shutting down"
  else begin
    Telemetry.Counter.incr c_requests;
    let fp = fingerprint req in
    Mutex.protect t.queue_lock (fun () ->
        match Hashtbl.find_opt t.inflight fp with
        | Some joiners ->
          let mb = Mailbox.create () in
          joiners := mb :: !joiners;
          Telemetry.Counter.incr c_dedup_joins;
          Pending mb
        | None ->
          if Queue.length t.queue >= t.config.queue_capacity then begin
            Telemetry.Counter.incr c_overloaded;
            Overloaded
          end
          else begin
            let admission =
              Option.map
                (fun budget -> Cancel.create ~deadline_in:budget ())
                req.Api.Request.deadline
            in
            let job =
              { request = req; fingerprint = fp; admission;
                mailbox = Mailbox.create () }
            in
            Hashtbl.replace t.inflight fp (ref []);
            Queue.push job t.queue;
            Condition.signal t.queue_cond;
            Pending job.mailbox
          end)
  end

(* The executor's table builder: resident store first, then the disk
   cache ({!Table_cache.load_sized} reports the bytes the shared
   mapping pins), a fresh fault-simulation build last. A fresh build is
   persisted and immediately re-loaded so the resident entry is backed
   by the shared mapping rather than the build's private heap. *)
let builder t ~dir ~cancel net =
  let key = Table_cache.key net in
  match Resident.find t.resident ~key with
  | Some table -> table
  | None -> (
    let adopt table bytes =
      Resident.add t.resident ~key table ~bytes;
      table
    in
    match dir with
    | Some dir -> (
      match Table_cache.load_sized ~dir ~key net with
      | Some (table, bytes) -> adopt table bytes
      | None -> (
        let built = Detection_table.build ~cancel net in
        Table_cache.store ~dir ~key built;
        match Table_cache.load_sized ~dir ~key net with
        | Some (table, bytes) -> adopt table bytes
        | None -> adopt built (8 * Obj.reachable_words (Obj.repr built))))
    | None ->
      let built = Detection_table.build ~cancel net in
      adopt built (8 * Obj.reachable_words (Obj.repr built)))

let process t job =
  (* The remaining budget, not the original: time spent queued counts
     against the request. A request that starved in the queue gets an
     epsilon budget — it still runs the full supervised path and comes
     back as a structured timeout row, never a hang or a crash. *)
  let deadline =
    Option.map
      (fun tok ->
        Float.max 0.001 (Option.value (Cancel.remaining tok) ~default:0.001))
      job.admission
  in
  let cache_dir =
    match job.request.Api.Request.cache_dir with
    | Some _ as dir -> dir
    | None -> t.config.cache_dir
  in
  let req = { job.request with Api.Request.deadline; cache_dir } in
  let lines = ref [] in
  let sink = Telemetry.Jsonl.attach_writer (fun line -> lines := line :: !lines) in
  let response =
    try Api.run ~build:(builder t ~dir:cache_dir) req
    with exn -> Error (Printexc.to_string exn)
  in
  Telemetry.Jsonl.detach sink;
  let joiners =
    Mutex.protect t.queue_lock (fun () ->
        let joiners =
          match Hashtbl.find_opt t.inflight job.fingerprint with
          | Some j -> !j
          | None -> []
        in
        Hashtbl.remove t.inflight job.fingerprint;
        joiners)
  in
  Mailbox.put job.mailbox { response; trace = List.rev !lines };
  (* Joiners did no work of their own: same response, empty trace. *)
  List.iter
    (fun mb ->
      Mailbox.put mb { response; trace = Telemetry.Jsonl.empty_trace () })
    joiners

let executor_loop t =
  let next () =
    Mutex.protect t.queue_lock (fun () ->
        while Queue.is_empty t.queue && not (Atomic.get t.stopping) do
          Condition.wait t.queue_cond t.queue_lock
        done;
        (* Drain: jobs admitted before the stop are still answered
           (under SIGTERM the supervised units inside return skipped
           rows rather than computing). *)
        if Queue.is_empty t.queue then None else Some (Queue.pop t.queue))
  in
  let rec loop () =
    match next () with
    | None -> ()
    | Some job ->
      process t job;
      loop ()
  in
  loop ()

(* Wire helpers. *)

let obj_type j = Option.bind (Rpc.member "type" j) Rpc.to_str

let hello_frame =
  Rpc.Obj
    [
      ("type", Rpc.Str "hello");
      ("protocol", Rpc.Str Rpc.protocol);
      ("server", Rpc.Str "ndetect serve");
    ]

let error_frame message =
  Rpc.Obj [ ("type", Rpc.Str "error"); ("message", Rpc.Str message) ]

let counters_json counters =
  Rpc.Obj (List.map (fun (name, v) -> (name, Rpc.Int v)) counters)

let stream_outcome oc outcome =
  match outcome.response with
  | Error message -> Rpc.write_frame oc (error_frame message)
  | Ok resp ->
    List.iter
      (fun line ->
        Rpc.write_frame oc
          (Rpc.Obj [ ("type", Rpc.Str "trace"); ("line", Rpc.Str line) ]))
      outcome.trace;
    List.iter
      (fun (section, rows) ->
        Rpc.write_frame oc
          (Rpc.Obj
             [
               ("type", Rpc.Str "row");
               ("section", Rpc.Str (Api.Request.section_name section));
               ("text", Rpc.Str (Api.Response.render_section rows));
             ]))
      resp.Api.Response.sections;
    List.iter
      (fun (label, failure) ->
        let base =
          [
            ("type", Rpc.Str "failure");
            ("label", Rpc.Str label);
            ("reason", Rpc.Str (Supervise.describe failure));
          ]
        in
        (* A timeout also reports the span stack that was open when the
           cancellation unwound (innermost first) — where the budget
           actually went. *)
        let frame =
          match failure with
          | Supervise.Timed_out { spans; _ } ->
            base
            @ [ ("spans", Rpc.List (List.map (fun s -> Rpc.Str s) spans)) ]
          | Supervise.Crashed _ | Supervise.Skipped _ -> base
        in
        Rpc.write_frame oc (Rpc.Obj frame))
      resp.Api.Response.failures;
    Rpc.write_frame oc
      (Rpc.Obj
         [
           ("type", Rpc.Str "done");
           ("render", Rpc.Str (Api.Response.render resp));
           ("failures", Rpc.Int (List.length resp.Api.Response.failures));
           ("counters", counters_json resp.Api.Response.counters);
         ])

let handle_frame t oc j =
  match obj_type j with
  | Some "stats" ->
    Rpc.write_frame oc
      (Rpc.Obj
         [
           ("type", Rpc.Str "stats");
           ("counters", counters_json (Telemetry.counters ()));
         ])
  | Some "request" -> (
    match Rpc.member "request" j with
    | None -> Rpc.write_frame oc (error_frame "frame carries no \"request\"")
    | Some rj -> (
      match Api.Request.of_json rj with
      | Error message -> Rpc.write_frame oc (error_frame message)
      | Ok req -> (
        match submit t req with
        | Rejected message -> Rpc.write_frame oc (error_frame message)
        | Overloaded ->
          Rpc.write_frame oc
            (Rpc.Obj
               [
                 ("type", Rpc.Str "overloaded");
                 ("queue", Rpc.Int t.config.queue_capacity);
               ])
        | Pending mb -> stream_outcome oc (Mailbox.take mb))))
  | Some other ->
    Rpc.write_frame oc (error_frame (Printf.sprintf "unknown frame type %S" other))
  | None -> Rpc.write_frame oc (error_frame "frame carries no \"type\"")

let handle_conn t fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  (try
     Rpc.write_frame oc hello_frame;
     let rec loop () =
       match Rpc.read_payload ic with
       | Error _ -> ()  (* peer hung up (or sent garbage framing) *)
       | Ok payload ->
         (match Rpc.of_string payload with
         | Ok j -> handle_frame t oc j
         | Error message -> Rpc.write_frame oc (error_frame message));
         loop ()
     in
     loop ()
   with Sys_error _ | Unix.Unix_error _ | End_of_file -> ());
  Mutex.protect t.conns_lock (fun () ->
      t.conns := List.filter (fun other -> other != fd) !(t.conns));
  (try Unix.close fd with Unix.Unix_error _ -> ())

let listener_loop t =
  let rec loop () =
    if Atomic.get t.stopping || Supervise.terminating () then ()
    else begin
      (match Unix.select [ t.listen_fd ] [] [] 0.2 with
      | [], _, _ -> ()
      | _ :: _, _, _ -> (
        match Unix.accept t.listen_fd with
        | fd, _ ->
          Mutex.protect t.conns_lock (fun () -> t.conns := fd :: !(t.conns));
          ignore (Thread.create (handle_conn t) fd)
        | exception Unix.Unix_error _ -> ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ()

let start config =
  if String.length config.socket > 100 then
    Error
      (Printf.sprintf
         "socket path %s exceeds the sockaddr_un limit (~104 bytes); use a \
          shorter path"
         config.socket)
  else begin
    (* A dead client mid-write must be a Unix_error on this connection,
       not a process-killing SIGPIPE. *)
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ -> ());
    (match (Unix.lstat config.socket).Unix.st_kind with
    | Unix.S_SOCK -> (try Unix.unlink config.socket with Unix.Unix_error _ -> ())
    | _ -> ()
    | exception Unix.Unix_error _ -> ());
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match
      Unix.bind fd (Unix.ADDR_UNIX config.socket);
      Unix.listen fd 16
    with
    | exception Unix.Unix_error (err, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error
        (Printf.sprintf "cannot listen on %s: %s" config.socket
           (Unix.error_message err))
    | () ->
      let t =
        {
          config;
          listen_fd = fd;
          stopping = Atomic.make false;
          queue = Queue.create ();
          queue_lock = Mutex.create ();
          queue_cond = Condition.create ();
          inflight = Hashtbl.create 8;
          resident = Resident.create ~budget:config.resident_budget;
          conns = ref [];
          conns_lock = Mutex.create ();
          listener = None;
          executor = None;
        }
      in
      t.listener <- Some (Thread.create listener_loop t);
      t.executor <- Some (Thread.create executor_loop t);
      log t "listening on %s" config.socket;
      Ok t
  end

let stop t =
  if not (Atomic.exchange t.stopping true) then begin
    (* Wake both loops: the listener notices the flag within its select
       timeout, the executor drains the queue then exits. *)
    Mutex.protect t.queue_lock (fun () -> Condition.broadcast t.queue_cond);
    Option.iter Thread.join t.listener;
    t.listener <- None;
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    Option.iter Thread.join t.executor;
    t.executor <- None;
    (* Every queued request has been answered; drop the connections so
       their reader threads unblock and exit. *)
    let conns = Mutex.protect t.conns_lock (fun () -> !(t.conns)) in
    List.iter
      (fun fd ->
        try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      conns;
    (try Unix.unlink t.config.socket with Unix.Unix_error _ | Sys_error _ -> ());
    log t "drained and stopped"
  end

let run config =
  match start config with
  | Error message ->
    prerr_endline ("serve: " ^ message);
    1
  | Ok t ->
    let rec wait () =
      if Supervise.terminating () || Atomic.get t.stopping then ()
      else begin
        Unix.sleepf 0.1;
        wait ()
      end
    in
    wait ();
    log t "termination requested; draining";
    stop t;
    0
