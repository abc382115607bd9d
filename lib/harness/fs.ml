let rec mkdir_recursive dir =
  let parent = Filename.dirname dir in
  if parent <> dir && not (Sys.file_exists parent) then
    mkdir_recursive parent;
  (* No file_exists-then-mkdir race: just create and swallow EEXIST. *)
  match Unix.mkdir dir 0o755 with
  | () -> ()
  | exception Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let write_atomic ~path content =
  let dir = Filename.dirname path in
  let tmp = Filename.temp_file ~temp_dir:dir ".atomic-" ".tmp" in
  let ok = ref false in
  Fun.protect
    ~finally:(fun () ->
      if not !ok then try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
      let oc = open_out_bin tmp in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          output_string oc content;
          (* The final flush can fail (a full disk): it must raise here,
             before the rename, not vanish in [close_out_noerr]. *)
          close_out oc);
      Sys.rename tmp path;
      ok := true)
