(* Process-wide counters, nested spans, pluggable sinks. Everything here
   is observation only: no instrumented computation reads any of this
   state, so telemetry can never change a result. *)

let now = Clock.now

(* Counter / gauge registry: creation is rare and mutex-guarded; the hot
   path touches only the cell's Atomic. Counters and gauges share one
   namespace (a name is created as whichever kind asked first). *)
type cell = { cname : string; cell : int Atomic.t }

let registry : (string, cell) Hashtbl.t = Hashtbl.create 64
let registry_lock = Mutex.create ()

let intern name =
  Mutex.protect registry_lock (fun () ->
      match Hashtbl.find_opt registry name with
      | Some c -> c
      | None ->
        let c = { cname = name; cell = Atomic.make 0 } in
        Hashtbl.replace registry name c;
        c)

module Counter = struct
  type t = cell

  let create = intern
  let name c = c.cname
  let add c n = ignore (Atomic.fetch_and_add c.cell n)
  let incr c = add c 1
  let value c = Atomic.get c.cell
end

module Gauge = struct
  type t = cell

  let create = intern
  let name c = c.cname
  let set c v = Atomic.set c.cell v
  let value c = Atomic.get c.cell
end

let counters () =
  Mutex.protect registry_lock (fun () ->
      Hashtbl.fold (fun name c acc -> (name, Atomic.get c.cell) :: acc)
        registry [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let counter_value name =
  Mutex.protect registry_lock (fun () ->
      match Hashtbl.find_opt registry name with
      | Some c -> Atomic.get c.cell
      | None -> 0)

let delta ~before ~after =
  List.filter_map
    (fun (name, v) ->
      let v0 =
        match List.assoc_opt name before with Some v0 -> v0 | None -> 0
      in
      if v = v0 then None else Some (name, v - v0))
    after

(* Spans. *)

type span = {
  id : int;
  parent : int option;
  name : string;
  args : (string * string) list;
}

type event =
  | Span_begin of { span : span; time : float }
  | Span_end of {
      span : span;
      time : float;
      duration : float;
      end_args : (string * string) list;
    }

(* Registered sinks, as a copy-on-write array published through an
   Atomic: emitting reads one snapshot, registration CAS-swaps a new
   array. The empty array doubles as the "telemetry disabled" state. *)
type sink = int

let sink_cells : (sink * (event -> unit)) array Atomic.t = Atomic.make [||]
let next_sink = Atomic.make 0

let register_sink f =
  let id = Atomic.fetch_and_add next_sink 1 in
  let rec swap () =
    let old = Atomic.get sink_cells in
    let updated = Array.append old [| (id, f) |] in
    if not (Atomic.compare_and_set sink_cells old updated) then swap ()
  in
  swap ();
  id

let unregister_sink id =
  let rec swap () =
    let old = Atomic.get sink_cells in
    let updated =
      Array.of_seq
        (Seq.filter (fun (i, _) -> i <> id) (Array.to_seq old))
    in
    if Array.length updated <> Array.length old
       && not (Atomic.compare_and_set sink_cells old updated)
    then swap ()
  in
  swap ()

let enabled () = Array.length (Atomic.get sink_cells) > 0

let emit sinks event = Array.iter (fun (_, f) -> f event) sinks

let next_span_id = Atomic.make 1

(* Per-domain open-span stack; worker domains spawned mid-span start
   with a fresh (empty) stack, so their spans are roots. *)
let stack_key : span list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

(* The open-span stack captured when an exception was first raised
   through [with_span] on this domain. The innermost handler records it
   (matching later re-raises of the physically same exception), so the
   supervisor can see where in the span tree a crash happened even
   though every span has unwound by the time it catches. *)
let pending_error : (exn * string list) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let current_spans () =
  List.map (fun s -> s.name) !(Domain.DLS.get stack_key)

let error_spans e =
  let pending = Domain.DLS.get pending_error in
  match !pending with
  | Some (e0, spans) when e0 == e ->
    pending := None;
    spans
  | Some _ | None -> []

let with_span ?(args = []) ?end_args name f =
  let sinks = Atomic.get sink_cells in
  if Array.length sinks = 0 then f ()
  else begin
    let stack = Domain.DLS.get stack_key in
    let parent =
      match !stack with [] -> None | s :: _ -> Some s.id
    in
    let span =
      { id = Atomic.fetch_and_add next_span_id 1; parent; name; args }
    in
    let t0 = now () in
    emit sinks (Span_begin { span; time = t0 });
    stack := span :: !stack;
    (* End events go to the sinks captured at begin time, so a sink
       registered or removed mid-span still sees a balanced stream. *)
    let finish end_args =
      (match !stack with
      | s :: rest when s.id = span.id -> stack := rest
      | _ -> () (* unreachable: spans unwind strictly nested *));
      let t1 = now () in
      emit sinks
        (Span_end
           { span; time = t1; duration = Float.max 0.0 (t1 -. t0); end_args })
    in
    match f () with
    | value ->
      finish (match end_args with None -> [] | Some args_of -> args_of value);
      value
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      let pending = Domain.DLS.get pending_error in
      (match !pending with
      | Some (e0, _) when e0 == e -> () (* innermost record wins *)
      | Some _ | None -> pending := Some (e, current_spans ()));
      finish [];
      Printexc.raise_with_backtrace e bt
  end

(* In-memory collector. *)

module Memory = struct
  type record = { span : span; mutable duration : float option }

  type t = {
    lock : Mutex.t;
    records : (int, record) Hashtbl.t;
    mutable completed : int list;  (* newest first *)
    mutable handle : sink option;
  }

  let on_event t event =
    Mutex.protect t.lock (fun () ->
        match event with
        | Span_begin { span; _ } ->
          Hashtbl.replace t.records span.id { span; duration = None }
        | Span_end { span; duration; _ } -> (
          match Hashtbl.find_opt t.records span.id with
          | Some r ->
            r.duration <- Some duration;
            t.completed <- span.id :: t.completed
          | None -> ()))

  let attach () =
    let t =
      {
        lock = Mutex.create ();
        records = Hashtbl.create 256;
        completed = [];
        handle = None;
      }
    in
    t.handle <- Some (register_sink (on_event t));
    t

  let detach t =
    match t.handle with
    | Some id ->
      unregister_sink id;
      t.handle <- None
    | None -> ()

  let spans t =
    Mutex.protect t.lock (fun () ->
        List.rev_map
          (fun id ->
            let r = Hashtbl.find t.records id in
            (r.span, Option.value r.duration ~default:0.0))
          t.completed)

  (* Aggregated profile: sibling spans sharing a name merge into one row
     (call count, total, mean); rows keep first-begin order (span ids
     are allocated in begin order) and indent under their parent. *)
  let render t =
    let records =
      Mutex.protect t.lock (fun () ->
          Hashtbl.fold (fun _ r acc -> r :: acc) t.records [])
    in
    let known = Hashtbl.create (List.length records) in
    List.iter (fun r -> Hashtbl.replace known r.span.id ()) records;
    let is_root r =
      match r.span.parent with
      | None -> true
      | Some p -> not (Hashtbl.mem known p)
    in
    let children_of =
      let tbl = Hashtbl.create 64 in
      List.iter
        (fun r ->
          match r.span.parent with
          | Some p when Hashtbl.mem known p ->
            Hashtbl.replace tbl p (r :: Option.value ~default:[] (Hashtbl.find_opt tbl p))
          | Some _ | None -> ())
        records;
      fun r -> Option.value ~default:[] (Hashtbl.find_opt tbl r.span.id)
    in
    let by_id rs =
      List.sort (fun a b -> Int.compare a.span.id b.span.id) rs
    in
    (* Group a sibling list by name, first-begin order. *)
    let group rs =
      let seen = Hashtbl.create 8 and order = ref [] in
      List.iter
        (fun r ->
          match Hashtbl.find_opt seen r.span.name with
          | Some cell -> cell := r :: !cell
          | None ->
            let cell = ref [ r ] in
            Hashtbl.replace seen r.span.name cell;
            order := (r.span.name, cell) :: !order)
        (by_id rs);
      List.rev_map (fun (name, cell) -> (name, List.rev !cell)) !order
    in
    let rows = ref [] in
    let rec walk depth (name, rs) =
      let durations = List.filter_map (fun r -> r.duration) rs in
      let calls = List.length durations in
      let total = List.fold_left ( +. ) 0.0 durations in
      rows := (depth, name, calls, total, List.length rs - calls) :: !rows;
      List.concat_map children_of rs |> group |> List.iter (walk (depth + 1))
    in
    List.filter is_root records |> group |> List.iter (walk 0);
    let rows = List.rev !rows in
    let label depth name = String.make (2 * depth) ' ' ^ name in
    let width =
      List.fold_left
        (fun acc (depth, name, _, _, _) ->
          max acc (String.length (label depth name)))
        (String.length "span") rows
    in
    let buf = Buffer.create 1024 in
    Buffer.add_string buf
      (Printf.sprintf "%-*s  %7s  %10s  %10s\n" width "span" "calls"
         "total(s)" "mean(ms)");
    List.iter
      (fun (depth, name, calls, total, open_count) ->
        if calls = 0 then
          Buffer.add_string buf
            (Printf.sprintf "%-*s  %7s  %10s  %10s\n" width
               (label depth name)
               (if open_count > 0 then "(open)" else "0")
               "-" "-")
        else
          Buffer.add_string buf
            (Printf.sprintf "%-*s  %7d  %10.3f  %10.2f\n" width
               (label depth name) calls total
               (1000.0 *. total /. float_of_int calls)))
      rows;
    Buffer.contents buf
end

(* JSON Lines trace sink. *)

module Jsonl = struct
  (* The sink writes whole lines through [write]; [seal] runs after the
     counters footer on detach (flush + close for the file form, a
     no-op for a caller-supplied writer streaming to e.g. a client
     connection). *)
  type t = {
    write : string -> unit;
    seal : unit -> unit;
    lock : Mutex.t;
    t0 : float;
    mutable handle : sink option;
  }

  let escape s =
    let buf = Buffer.create (String.length s + 2) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let write_line t line = Mutex.protect t.lock (fun () -> t.write line)

  let ts t = Printf.sprintf "%.6f" (now () -. t.t0)

  let args_field args =
    if args = [] then ""
    else
      Printf.sprintf ",\"args\":{%s}"
        (String.concat ","
           (List.map
              (fun (k, v) ->
                Printf.sprintf "\"%s\":\"%s\"" (escape k) (escape v))
              args))

  let on_event t = function
    | Span_begin { span; _ } ->
      write_line t
        (Printf.sprintf "{\"type\":\"begin\",\"id\":%d,\"parent\":%s,\"name\":\"%s\",\"ts\":%s%s}"
           span.id
           (match span.parent with
           | Some p -> string_of_int p
           | None -> "null")
           (escape span.name) (ts t) (args_field span.args))
    | Span_end { span; duration; end_args; _ } ->
      write_line t
        (Printf.sprintf "{\"type\":\"end\",\"id\":%d,\"name\":\"%s\",\"ts\":%s,\"dur\":%.6f%s}"
           span.id (escape span.name) (ts t) duration (args_field end_args))

  let meta_line =
    "{\"type\":\"meta\",\"schema\":\"ndetect-trace/1\",\"clock\":\"monotonic-s\"}"

  let counters_line ~ts =
    Printf.sprintf "{\"type\":\"counters\",\"ts\":%s,\"values\":{%s}}" ts
      (String.concat ","
         (List.map
            (fun (name, v) -> Printf.sprintf "\"%s\":%d" (escape name) v)
            (counters ())))

  let make ~write ~seal =
    let t = { write; seal; lock = Mutex.create (); t0 = now (); handle = None } in
    write_line t meta_line;
    t.handle <- Some (register_sink (on_event t));
    t

  (* A span's begin or end runs inside the traced work, so a failed
     write (a full disk) must not raise there: the first failure stops
     the trace, and [seal] re-raises it once the file is closed. *)
  let attach ~path =
    let oc = open_out path in
    let failed = ref None in
    let guard f = if !failed = None then try f () with Sys_error _ as e -> failed := Some e in
    make
      ~write:(fun line ->
        guard (fun () ->
            output_string oc line;
            output_char oc '\n'))
      ~seal:(fun () ->
        guard (fun () -> flush oc);
        close_out_noerr oc;
        Option.iter raise !failed)

  let attach_writer write = make ~write ~seal:(fun () -> ())

  let empty_trace () = [ meta_line; counters_line ~ts:"0.000000" ]

  let detach t =
    match t.handle with
    | Some id ->
      unregister_sink id;
      t.handle <- None;
      write_line t (counters_line ~ts:(ts t));
      Mutex.protect t.lock t.seal
    | None -> ()
end
