module Fs = Ndetect_harness.Fs
module Telemetry = Ndetect_util.Telemetry

(* Record format, shared by every payload-carrying file (see the .mli):

     magic | "<version> <kind> <fingerprint> <md5-hex payload> <len>\n" | payload

   identical in spirit to Table_cache v2: the header is plain ASCII,
   parsed with string operations, and the payload reaches
   [Marshal.from_string] only after its exact length and MD5 digest
   have been verified. *)

let magic = "ndetect-ledger\n"
let version = 1
let corrupt_counter = "shard.ledger_corrupt"
let c_corrupt = Telemetry.Counter.create corrupt_counter

type t = { dir : string; campaign : Spec.campaign; campaign_fp : string }

let dir t = t.dir
let campaign t = t.campaign
let tables_dir t = Filename.concat t.dir "tables"
let path t name = Filename.concat t.dir (name ^ ".rec")

let encode ~kind ~fp payload =
  let buf = Buffer.create (String.length payload + 128) in
  Buffer.add_string buf magic;
  Buffer.add_string buf
    (Printf.sprintf "%d %s %s %s %d\n" version kind fp
       (Digest.to_hex (Digest.string payload))
       (String.length payload));
  Buffer.add_string buf payload;
  Buffer.contents buf

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let decode raw ~kind ~fp =
  let mlen = String.length magic in
  if String.length raw < mlen || String.sub raw 0 mlen <> magic then None
  else
    match String.index_from_opt raw mlen '\n' with
    | None -> None
    | Some nl -> (
      let header = String.sub raw mlen (nl - mlen) in
      match String.split_on_char ' ' header with
      | [ v; file_kind; file_fp; digest_hex; len ] -> (
        match (int_of_string_opt v, int_of_string_opt len) with
        | Some file_version, Some payload_len
          when file_version = version && file_kind = kind && file_fp = fp
               && payload_len >= 0
               && String.length raw - (nl + 1) = payload_len ->
          let payload = String.sub raw (nl + 1) payload_len in
          if Digest.to_hex (Digest.string payload) = digest_hex then
            Some payload
          else None
        | _ -> None)
      | _ -> None)

(* A record that exists but fails validation is counted, deleted
   (self-healing: a damaged claim or result must not pin its unit
   forever) and reported absent. Concurrent healers racing on the
   delete just see ENOENT, which is the healed state already. *)
let read_record t ~name ~kind ~fp =
  let file = path t name in
  if not (Sys.file_exists file) then None
  else
    let payload = try decode (read_file file) ~kind ~fp with _ -> None in
    (match payload with
    | Some _ -> ()
    | None ->
      Telemetry.Counter.incr c_corrupt;
      (try Sys.remove file with Sys_error _ -> ()));
    payload

let write_record t ~name ~kind ~fp payload =
  Fs.write_atomic ~path:(path t name) (encode ~kind ~fp payload)

(* Claims need BOTH atomic content (a reader must never see a torn
   claim) and exclusive creation (two claimants, one winner). Plain
   O_CREAT|O_EXCL gives exclusivity but exposes the window between
   create and write; temp+rename gives atomic content but rename
   clobbers an existing claim. [link] gives both: the fully-written
   temp file is linked into place atomically, and a concurrent winner
   makes the link fail with EEXIST. *)
let write_record_excl t ~name ~kind ~fp payload =
  let content = encode ~kind ~fp payload in
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
    (* The campaign fingerprint is inside the record itself, so validate
       in two steps: parse with the fingerprint the header declares,
       then check the payload agrees with it. *)
    let raw = try Some (read_file file) with _ -> None in
    let parsed =
      Option.bind raw (fun raw ->
          let mlen = String.length magic in
          if String.length raw < mlen then None
          else
            match String.index_from_opt raw mlen '\n' with
            | None -> None
            | Some nl -> (
              let header = String.sub raw mlen (nl - mlen) in
              match String.split_on_char ' ' header with
              | [ _; _; fp; _; _ ] -> (
                match decode raw ~kind:campaign_name ~fp with
                | None -> None
                | Some payload -> (
                  match (Marshal.from_string payload 0 : Spec.campaign) with
                  | c when campaign_fp_of c = fp -> Some c
                  | _ -> None
                  | exception _ -> None))
              | _ -> None))
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
