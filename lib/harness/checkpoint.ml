type stamp = {
  version : int;
  seed : int;
  tier : string;
  k : int;
  k2 : int;
}

let version = 2
let magic = "ndetect-checkpoint"

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

let store t ~key (payload : Api.Response.t) =
  (* Injection site for the checkpoint I/O path, so ENOSPC/EACCES-style
     faults can be driven through the supervised retry policy
     end to end (see Supervise.parse_injection_spec). *)
  Ndetect_util.Supervise.inject "checkpoint:store";
  let content =
    Marshal.to_string ((magic, t.stamp, key), payload) []
  in
  Fs.write_atomic ~path:(path_of t key) content

let load t ~key =
  let path = path_of t key in
  if not (Sys.file_exists path) then None
  else
    match
      In_channel.with_open_bin path (fun ic -> In_channel.input_all ic)
    with
    | exception Sys_error _ -> None
    | content -> (
      match Marshal.from_string content 0 with
      | exception _ -> None
      | ((m, stamp, k), payload : (string * stamp * string) * Api.Response.t)
        ->
        if m = magic && stamp = t.stamp && k = key then Some payload
        else None)

let mem t ~key = Option.is_some (load t ~key)
