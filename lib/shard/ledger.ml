module Fs = Ndetect_harness.Fs
module Telemetry = Ndetect_util.Telemetry
module Record = Ndetect_util.Record

(* Every payload-carrying file is one {!Record}: the file's kind
   ("units", "claim", "result", ...) is the record kind and the owning
   unit's fingerprint is the record key, so the payload reaches
   [Marshal.from_string] only after the header, exact length and digest
   have been verified. *)

let corrupt_counter = "shard.ledger_corrupt"
let c_corrupt = Telemetry.Counter.create corrupt_counter

type t = { dir : string; campaign : Spec.campaign; campaign_fp : string }

let dir t = t.dir
let campaign t = t.campaign
let tables_dir t = Filename.concat t.dir "tables"
let path t name = Filename.concat t.dir (name ^ ".rec")

let read_file file = In_channel.with_open_bin file In_channel.input_all

(* A record that exists but fails validation is counted, deleted
   (self-healing: a damaged claim or result must not pin its unit
   forever) and reported absent. Concurrent healers racing on the
   delete just see ENOENT, which is the healed state already. *)
let read_record t ~name ~kind ~fp =
  let file = path t name in
  if not (Sys.file_exists file) then None
  else
    let payload =
      match Record.decode ~kind ~key:fp (read_file file) with
      | Ok payload -> Some payload
      | Error _ | (exception Sys_error _) -> None
    in
    (match payload with
    | Some _ -> ()
    | None ->
      Telemetry.Counter.incr c_corrupt;
      (try Sys.remove file with Sys_error _ -> ()));
    payload

let write_record t ~name ~kind ~fp payload =
  Fs.write_atomic ~path:(path t name) (Record.encode ~kind ~key:fp payload)

(* Claims need BOTH atomic content (a reader must never see a torn
   claim) and exclusive creation (two claimants, one winner). Plain
   O_CREAT|O_EXCL gives exclusivity but exposes the window between
   create and write; temp+rename gives atomic content but rename
   clobbers an existing claim. [link] gives both: the fully-written
   temp file is linked into place atomically, and a concurrent winner
   makes the link fail with EEXIST. *)
let write_record_excl t ~name ~kind ~fp payload =
  let content = Record.encode ~kind ~key:fp payload in
  let tmp = Filename.temp_file ~temp_dir:t.dir ".excl-" ".tmp" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
      let oc = open_out_bin tmp in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc content);
      match Unix.link tmp (path t name) with
      | () -> true
      | exception Unix.Unix_error (Unix.EEXIST, _, _) -> false)

(* --- campaign record --- *)

let campaign_name = "campaign"
let campaign_fp_of c = Digest.to_hex (Digest.string (Spec.stamp c))

let read_campaign ~dir =
  let file = Filename.concat dir (campaign_name ^ ".rec") in
  if not (Sys.file_exists file) then Ok None
  else
    (* The campaign fingerprint is the record key, so validate in two
       steps: decode under the key the header declares, then check the
       payload agrees with it. *)
    let parsed =
      match Record.decode_keyed ~kind:campaign_name (read_file file) with
      | Ok (fp, payload) -> (
        match (Marshal.from_string payload 0 : Spec.campaign) with
        | c when campaign_fp_of c = fp -> Some c
        | _ -> None
        | exception _ -> None)
      | Error _ | (exception Sys_error _) -> None
    in
    match parsed with
    | Some c -> Ok (Some c)
    | None ->
      Telemetry.Counter.incr c_corrupt;
      (try Sys.remove file with Sys_error _ -> ());
      Error "ledger campaign record is damaged"

let make ~dir c = { dir; campaign = c; campaign_fp = campaign_fp_of c }

let unit_name gen = Printf.sprintf "units-%d" gen

let write_units t ~gen units =
  Ndetect_util.Supervise.inject "ledger:units";
  write_record t ~name:(unit_name gen) ~kind:"units" ~fp:t.campaign_fp
    (Marshal.to_string (units : Spec.t list) [])

let read_units t ~gen =
  match read_record t ~name:(unit_name gen) ~kind:"units" ~fp:t.campaign_fp with
  | None -> None
  | Some payload -> (
    try Some (Marshal.from_string payload 0 : Spec.t list) with _ -> None)

let generations t =
  let rec go gen =
    match read_units t ~gen with None -> gen | Some _ -> go (gen + 1)
  in
  go 0

let units t =
  let rec go gen acc =
    match read_units t ~gen with
    | None -> List.concat (List.rev acc)
    | Some us -> go (gen + 1) (us :: acc)
  in
  go 0 []

let seal t ~total_gens =
  write_record t ~name:"sealed" ~kind:"sealed" ~fp:t.campaign_fp
    (Marshal.to_string (total_gens : int) [])

let sealed_gens t =
  match read_record t ~name:"sealed" ~kind:"sealed" ~fp:t.campaign_fp with
  | None -> None
  | Some payload -> (
    try Some (Marshal.from_string payload 0 : int) with _ -> None)

let create ~dir c =
  Fs.mkdir_recursive dir;
  match read_campaign ~dir with
  | Error _ | Ok None ->
    (* Fresh directory, or a damaged campaign record (already healed
       away by the read): (re)write it and generation 0. *)
    let t = make ~dir c in
    write_record t ~name:campaign_name ~kind:campaign_name ~fp:t.campaign_fp
      (Marshal.to_string c []);
    if read_units t ~gen:0 = None then
      write_units t ~gen:0 (Spec.plan_units c);
    Ok t
  | Ok (Some existing) ->
    if Spec.stamp existing = Spec.stamp c then (
      let t = make ~dir c in
      if read_units t ~gen:0 = None then
        write_units t ~gen:0 (Spec.plan_units c);
      Ok t)
    else
      Error
        (Printf.sprintf
           "ledger at %s belongs to a different campaign (%s; this run: %s)"
           dir (Spec.stamp existing) (Spec.stamp c))

let open_existing ~dir =
  match read_campaign ~dir with
  | Ok (Some c) when c.Spec.format_version <> Spec.format_version ->
    (* Its results have another shape: never unmarshal them. *)
    Error
      (Printf.sprintf
         "ledger at %s belongs to a different campaign (format v%d; this \
          binary reads v%d)"
         dir c.Spec.format_version Spec.format_version)
  | Ok (Some c) -> Ok (make ~dir c)
  | Ok None -> Error (Printf.sprintf "no campaign ledger at %s" dir)
  | Error e -> Error e

(* --- claims and heartbeats --- *)

let claim_name id = "claim-" ^ id

let claim t ~worker (u : Spec.t) =
  Ndetect_util.Supervise.inject "ledger:claim";
  write_record_excl t ~name:(claim_name u.id) ~kind:"claim"
    ~fp:(Spec.fingerprint t.campaign u)
    (Marshal.to_string (worker : string) [])

let release t (u : Spec.t) =
  try Sys.remove (path t (claim_name u.id)) with Sys_error _ -> ()

(* Wall time, not the monotonic clock: the mtime was stamped by another
   process (a worker's heartbeat or claim), and only the wall clock is
   shared between processes and comparable with it. *)
let file_age file =
  match Unix.stat file with
  | exception Unix.Unix_error _ -> None
  | st -> Some (max 0.0 (Unix.gettimeofday () -. st.Unix.st_mtime))

let claimant t (u : Spec.t) =
  match
    read_record t ~name:(claim_name u.id) ~kind:"claim"
      ~fp:(Spec.fingerprint t.campaign u)
  with
  | None -> None
  | Some payload -> (
    match (Marshal.from_string payload 0 : string) with
    | worker -> (
      match file_age (path t (claim_name u.id)) with
      | None -> None
      | Some age -> Some (worker, age))
    | exception _ -> None)

let claims t =
  (* Enumerate via the unit list so order is deterministic and the
     fingerprint check applies to every claim we report. *)
  List.filter_map
    (fun (u : Spec.t) ->
      match claimant t u with
      | None -> None
      | Some (worker, age) -> Some (u.id, worker, age))
    (units t)

let hb_name worker = "hb-" ^ worker

let heartbeat t ~worker =
  try Fs.write_atomic ~path:(path t (hb_name worker)) "hb\n"
  with Sys_error _ | Unix.Unix_error _ -> ()

let heartbeat_age t ~worker = file_age (path t (hb_name worker))

(* --- results, failures, poison --- *)

let result_name id = "result-" ^ id

let write_result t ~worker (u : Spec.t) result =
  Ndetect_util.Supervise.inject "ledger:result";
  let fp = Spec.fingerprint t.campaign u in
  match read_record t ~name:(result_name u.id) ~kind:"result" ~fp with
  | Some _ -> `Lost_race
  | None ->
    write_record t ~name:(result_name u.id) ~kind:"result" ~fp
      (Marshal.to_string ((worker, result) : string * Spec.result) []);
    `Stored

let read_result t (u : Spec.t) =
  match
    read_record t ~name:(result_name u.id) ~kind:"result"
      ~fp:(Spec.fingerprint t.campaign u)
  with
  | None -> None
  | Some payload -> (
    try Some (Marshal.from_string payload 0 : string * Spec.result)
    with _ -> None)

let fail_name id k = Printf.sprintf "fail-%s-%d" id k
let max_fail_slots = 64

let record_failure t ~worker (u : Spec.t) reason =
  let fp = Spec.fingerprint t.campaign u in
  let payload = Marshal.to_string ((worker, reason) : string * string) [] in
  let rec go k =
    if k >= max_fail_slots then ()
    else if write_record_excl t ~name:(fail_name u.id k) ~kind:"fail" ~fp payload
    then ()
    else go (k + 1)
  in
  go 0

let failures t (u : Spec.t) =
  let fp = Spec.fingerprint t.campaign u in
  let rec go k acc =
    if k >= max_fail_slots then List.rev acc
    else
      let file = path t (fail_name u.id k) in
      if not (Sys.file_exists file) then List.rev acc
      else
        match read_record t ~name:(fail_name u.id k) ~kind:"fail" ~fp with
        | None -> go (k + 1) acc (* healed; the slot stays burnt *)
        | Some payload -> (
          match (Marshal.from_string payload 0 : string * string) with
          | _, reason -> go (k + 1) (reason :: acc)
          | exception _ -> go (k + 1) acc)
  in
  go 0 []

let poison_name id = "poison-" ^ id

let poison t (u : Spec.t) ~reasons =
  write_record t ~name:(poison_name u.id) ~kind:"poison"
    ~fp:(Spec.fingerprint t.campaign u)
    (Marshal.to_string (reasons : string list) [])

let poisoned t (u : Spec.t) =
  match
    read_record t ~name:(poison_name u.id) ~kind:"poison"
      ~fp:(Spec.fingerprint t.campaign u)
  with
  | None -> None
  | Some payload -> (
    try Some (Marshal.from_string payload 0 : string list) with _ -> None)

let resolved t u = read_result t u <> None || poisoned t u <> None
