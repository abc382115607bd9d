let version = 4

type error = Future | Damaged
type span = { off : int; len : int; digest : int64 }

let magic kind = "ndetect-" ^ kind ^ "\n"
let align8 n = (n + 7) land lnot 7

(* Lane-split FNV-1a (see the .mli), the writer-side mirror of the C
   pass in kernel_stubs.c, over [len] bytes of [s] at [off]. *)
let fnv_init = 0xcbf29ce484222325L
let fnv_prime = 0x100000001B3L
let mix h w = Int64.mul (Int64.logxor h w) fnv_prime

let digest_sub s ~off ~len =
  let full = len / 8 in
  let h0 = ref fnv_init and h1 = ref fnv_init in
  let h2 = ref fnv_init and h3 = ref fnv_init in
  let i = ref 0 in
  while !i + 4 <= full do
    let p = off + (8 * !i) in
    h0 := mix !h0 (String.get_int64_le s p);
    h1 := mix !h1 (String.get_int64_le s (p + 8));
    h2 := mix !h2 (String.get_int64_le s (p + 16));
    h3 := mix !h3 (String.get_int64_le s (p + 24));
    i := !i + 4
  done;
  (* The remaining words, the last one zero-padded when [len] is not a
     whole number of words. *)
  for i = !i to ((len + 7) / 8) - 1 do
    let p = off + (8 * i) in
    let w =
      if i < full then String.get_int64_le s p
      else begin
        let w = ref 0L in
        for b = off + len - 1 downto p do
          w :=
            Int64.logor (Int64.shift_left !w 8) (Int64.of_int (Char.code s.[b]))
        done;
        !w
      end
    in
    match i land 3 with
    | 0 -> h0 := mix !h0 w
    | 1 -> h1 := mix !h1 w
    | 2 -> h2 := mix !h2 w
    | _ -> h3 := mix !h3 w
  done;
  mix (mix (mix (mix fnv_init !h0) !h1) !h2) !h3

let digest s = digest_sub s ~off:0 ~len:(String.length s)

let token s = s <> "" && not (String.exists (fun c -> c = ' ' || c = '\n') s)

let encode ~kind ~key payload =
  if not (token kind && token key) then
    invalid_arg "Record.encode: kind and key must be non-empty, without spaces";
  let len = String.length payload in
  let header =
    Printf.sprintf "%s%d %s %d %016Lx\n" (magic kind) version key len
      (digest payload)
  in
  let off = align8 (String.length header) in
  let b = Bytes.make (off + len) '\000' in
  Bytes.blit_string header 0 b 0 (String.length header);
  Bytes.blit_string payload 0 b off len;
  Bytes.unsafe_to_string b

(* Header fields must be in canonical form, so that no byte of a record
   can change without the record failing: [int_of_string] alone would
   accept "+5", "05" or "1_0" for the same value. *)
let count s =
  match int_of_string_opt s with
  | Some n when n >= 0 && string_of_int n = s -> Some n
  | _ -> None

let hex64 s =
  if
    String.length s = 16
    && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) s
  then Some (Int64.of_string ("0x" ^ s))
  else None

(* Every check but the digest, over [prefix] — the record's first
   bytes, at least through the pad when the record is well formed — of
   a record [size] bytes long, bound to [key]. The version is read
   first and alone: a newer version may have changed everything after
   it. *)
let parse ~kind ~key ~size prefix =
  let m = magic kind in
  let mlen = String.length m in
  if not (String.starts_with ~prefix:m prefix) then Error Damaged
  else
    let v_end =
      Option.value (String.index_from_opt prefix mlen ' ')
        ~default:(String.length prefix)
    in
    match count (String.sub prefix mlen (v_end - mlen)) with
    | Some v when v > version -> Error Future
    | Some v when v = version -> (
      match String.index_from_opt prefix mlen '\n' with
      | None -> Error Damaged
      | Some nl -> (
        match String.split_on_char ' ' (String.sub prefix mlen (nl - mlen)) with
        | [ _; k; len; hex ] -> (
          match (count len, hex64 hex) with
          | Some len, Some digest when String.equal k key ->
            let off = align8 (nl + 1) in
            if size < off || size - off <> len || String.length prefix < off
            then Error Damaged
            else if
              String.exists (( <> ) '\000')
                (String.sub prefix (nl + 1) (off - nl - 1))
            then Error Damaged
            else Ok { off; len; digest }
          | _ -> Error Damaged)
        | _ -> Error Damaged))
    | _ -> Error Damaged

let decode ~kind ~key raw =
  match parse ~kind ~key ~size:(String.length raw) raw with
  | Error _ as e -> e
  | Ok { off; len; digest } ->
    if Int64.equal (digest_sub raw ~off ~len) digest then
      Ok (String.sub raw off len)
    else Error Damaged

let locate ~kind ~key ic =
  (* A well-formed header and pad fit in this many bytes: magic, key,
     two 19-digit counts, the 16-digit digest, separators and pad. *)
  let bound = String.length (magic kind) + String.length key + 72 in
  match
    let size = in_channel_length ic in
    (size, really_input_string ic (min size bound))
  with
  | size, prefix -> parse ~kind ~key ~size prefix
  | exception (Sys_error _ | End_of_file) -> Error Damaged
