module Record = Ndetect_util.Record

type stamp = {
  version : int;
  seed : int;
  tier : string;
  k : int;
  k2 : int;
}

let version = 2

type t = { root : string; stamp : stamp }

let create ~dir ~stamp =
  Fs.mkdir_recursive dir;
  if not (Sys.is_directory dir) then
    failwith (Printf.sprintf "checkpoint path %s is not a directory" dir);
  { root = dir; stamp }

let dir t = t.root

(* Keys come from circuit/section names; keep filenames tame. *)
let path_of t key =
  let sanitized =
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> c
        | _ -> '_')
      key
  in
  Filename.concat t.root (sanitized ^ ".ckpt")

(* One {!Record} per entry: kind "checkpoint", keyed by the entry key,
   its payload the marshalled (stamp, response). Marshal only ever sees
   a payload whose digest has been checked. *)
let kind = "checkpoint"

let store t ~key (payload : Api.Response.t) =
  (* Injection site for the checkpoint write path: a crash here is a
     failed write, which the driver records (see Driver.store_ck). *)
  Ndetect_util.Supervise.inject "checkpoint:store";
  Fs.write_atomic ~path:(path_of t key)
    (Record.encode ~kind ~key (Marshal.to_string (t.stamp, payload) []))

let load t ~key =
  match In_channel.with_open_bin (path_of t key) In_channel.input_all with
  | exception Sys_error _ -> None
  | raw -> (
    match Record.decode ~kind ~key raw with
    | Error _ -> None
    | Ok payload -> (
      match (Marshal.from_string payload 0 : stamp * Api.Response.t) with
      | stamp, response when stamp = t.stamp -> Some response
      | _ -> None
      | exception _ -> None))

let mem t ~key = Option.is_some (load t ~key)
