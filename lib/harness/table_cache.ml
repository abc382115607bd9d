module Detection_table = Ndetect_core.Detection_table
module Netlist = Ndetect_circuit.Netlist
module Gate = Ndetect_circuit.Gate
module Line = Ndetect_circuit.Line
module Stuck = Ndetect_faults.Stuck
module Wired = Ndetect_faults.Wired
module Bitvec = Ndetect_util.Bitvec
module Kernel = Ndetect_util.Kernel
module Record = Ndetect_util.Record
module Telemetry = Ndetect_util.Telemetry
module A1 = Bigarray.Array1
module Packed = Detection_table.Packed

(* On-disk format: one {!Record} of kind "table" per table, keyed by
   {!key} and named [key ^ ".tbl"]. Its payload is

     meta            (little-endian int64 fields, see [store])
     words           (raw detection-set words, LE)

   The meta section is plain integer records — fault descriptions, pool
   indices, the blocked-layout row map — and the words section is the
   flat word data of every distinct detection set followed by the
   cache-blocked target layout, exactly the bytes the kernels sweep.
   The record pads its header so the payload starts 8-byte aligned: a
   warm load [Unix.map_file]s the payload once, verifies the record
   digest with one C pass over the mapping ({!Kernel.verify_region},
   which also rejects any word outside the 62-bit payload range — every
   meta field is a non-negative int below 2^62 too), decodes the meta
   fields straight out of the map (plain int reads, no copy, no [Int64]
   boxing), and adopts zero-copy {!Bitvec.of_view} /
   {!Bitvec.Blocked.of_buffer} views over the words: no Marshal, no
   copies, no repacking.

   Any failure — truncation, bit flips anywhere, an older format, key
   mismatch, inconsistent meta fields — degrades to a cache miss, bumps
   ["table_cache.corrupt"], and deletes the damaged file. Files from a
   {e newer} format version are spared: a rolled-back binary must not
   destroy a newer cache. *)

let kind = "table"
let version = Record.version

let kind_tag = function
  | Gate.Input -> "i"
  | Gate.Const0 -> "0"
  | Gate.Const1 -> "1"
  | Gate.Buf -> "b"
  | Gate.Not -> "n"
  | Gate.And -> "a"
  | Gate.Nand -> "A"
  | Gate.Or -> "o"
  | Gate.Nor -> "O"
  | Gate.Xor -> "x"
  | Gate.Xnor -> "X"

(* The key fingerprints everything the fault simulation depends on: the
   exact netlist (structure and names — labels are recomputed from node
   names on restore) and the build parameters. MD5 hex, so it is
   filename-safe. *)
let key ?(keep_undetectable_targets = false) ?(collapse = true)
    ?(model = Detection_table.Four_way) net =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "params:";
  Buffer.add_string buf (if keep_undetectable_targets then "K" else "k");
  Buffer.add_string buf (if collapse then "C" else "c");
  Buffer.add_string buf
    (match model with
    | Detection_table.Four_way -> "four-way"
    | Detection_table.Wired Wired.Wired_and -> "wired-and"
    | Detection_table.Wired Wired.Wired_or -> "wired-or");
  Buffer.add_string buf ";net:";
  Buffer.add_string buf (string_of_int (Netlist.input_count net));
  for id = 0 to Netlist.node_count net - 1 do
    Buffer.add_char buf '|';
    Buffer.add_string buf (kind_tag (Netlist.kind net id));
    Array.iter
      (fun f ->
        Buffer.add_char buf ',';
        Buffer.add_string buf (string_of_int f))
      (Netlist.fanins net id);
    Buffer.add_char buf ':';
    Buffer.add_string buf (Netlist.name net id)
  done;
  Buffer.add_string buf ";outputs:";
  Array.iter
    (fun o ->
      Buffer.add_char buf ',';
      Buffer.add_string buf (string_of_int o))
    (Netlist.outputs net);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let path ~dir ~key = Filename.concat dir (key ^ ".tbl")

(* Outcome accounting lives in the Telemetry registry; [hits]/[misses]
   stay as thin accessors for existing callers. "table_cache.corrupt"
   counts the misses where a cache file existed but failed validation
   (truncation, corruption, version or key mismatch, bad meta);
   "table.mmap_hits"/"table.mmap_bytes" count the loads that adopted a
   mapped cache image and how many bytes they mapped. *)
let c_hits = Telemetry.Counter.create "table_cache.hits"
let c_misses = Telemetry.Counter.create "table_cache.misses"
let c_corrupt = Telemetry.Counter.create "table_cache.corrupt"
let c_mmap_hits = Telemetry.Counter.create "table.mmap_hits"
let c_mmap_bytes = Telemetry.Counter.create "table.mmap_bytes"
let hits () = Telemetry.Counter.value c_hits
let misses () = Telemetry.Counter.value c_misses

(* Meta section layout, all fields little-endian int64:

     fixed (10):   universe, W (words per set), t_count, g_count,
                   pool_count, undetectable_targets,
                   undetectable_untargeted, layout_rows,
                   layout_block_size, reserved (0)
     targets:      t_count x 4   (line_tag 0=stem/1=branch,
                                  node_or_gate, pin, stuck value)
     tindex:       t_count       (pool index of each target's set)
     untargeted:   g_count x 5   (tag 0=bridge: victim, victim_value,
                                  aggressor, aggressor_value;
                                  tag 1=wired: a, b, semantics, 0)
     uindex:       g_count       (pool index of each untargeted set)
     rep:          layout_rows   (representative target per row)
     row_n:        layout_rows   (N per row, ascending)

   Words section: [pool_count x W] distinct detection sets (one copy
   per distinct set — sharing survives the round trip), then
   [layout_rows x W] blocked target layout, raw in pack order. *)

exception Bad_meta

let write ~dir ~key table =
  Fs.mkdir_recursive dir;
  let universe = Detection_table.universe table in
  let wpr = max 1 (Bitvec.word_count universe) in
  let t_count = Detection_table.target_count table in
  let g_count = Detection_table.untargeted_count table in
  let layout = Detection_table.target_layout table in
  let rows = layout.Detection_table.rows in
  let block_size = Bitvec.Blocked.block_size layout.Detection_table.blocked in
  (* One pool over both fault families: identical sets are written once
     and re-shared on load via the index indirection. Untargeted faults
     take their pool index from their class, so only the table's
     distinct sets are hashed. *)
  let pool = Bitvec.Index.create t_count in
  let pool_index = Bitvec.Index.add pool in
  let tindex =
    Array.init t_count (fun i -> pool_index (Detection_table.target_set table i))
  in
  let class_index =
    Array.make (Detection_table.untargeted_class_count table) (-1)
  in
  let uindex =
    Array.init g_count (fun j ->
        let c = Detection_table.untargeted_class table j in
        if class_index.(c) < 0 then
          class_index.(c) <-
            pool_index (Detection_table.untargeted_class_set table c);
        class_index.(c))
  in
  let pool = Bitvec.Index.to_array pool in
  let pool_count = Array.length pool in
  let nwords = (pool_count + rows) * wpr in
  let buf =
    Buffer.create
      (8 * (10 + (5 * t_count) + (6 * g_count) + (2 * rows) + nwords))
  in
  let add v = Buffer.add_int64_le buf (Int64.of_int v) in
  add universe;
  add wpr;
  add t_count;
  add g_count;
  add pool_count;
  add (Detection_table.undetectable_target_count table);
  add (Detection_table.undetectable_untargeted_count table);
  add rows;
  add block_size;
  add 0;
  for i = 0 to t_count - 1 do
    let f = Detection_table.target_fault table i in
    (match f.Stuck.line with
    | Line.Stem node ->
      add 0;
      add node;
      add 0
    | Line.Branch { gate; pin } ->
      add 1;
      add gate;
      add pin);
    add (Bool.to_int f.Stuck.value)
  done;
  Array.iter add tindex;
  for j = 0 to g_count - 1 do
    let c = Detection_table.untargeted_packed table j in
    if Packed.is_wired c then begin
      add 1;
      add (Packed.first c);
      add (Packed.second c);
      add (Bool.to_int (Packed.first_value c));
      add 0
    end
    else begin
      add 0;
      add (Packed.first c);
      add (Bool.to_int (Packed.first_value c));
      add (Packed.second c);
      add (Bool.to_int (Packed.second_value c))
    end
  done;
  Array.iter add uindex;
  Array.iter add layout.Detection_table.rep;
  Array.iter add layout.Detection_table.row_n;
  Array.iter
    (fun set ->
      for w = 0 to wpr - 1 do
        add (Bitvec.unsafe_get_word set w)
      done)
    pool;
  if rows > 0 then begin
    let data = Bitvec.Blocked.raw layout.Detection_table.blocked in
    for i = 0 to (rows * wpr) - 1 do
      add (A1.get data i)
    done
  end;
  Fs.write_atomic ~path:(path ~dir ~key)
    (Record.encode ~kind ~key (Buffer.contents buf))

(* Best-effort: an unusable cache directory (not a directory, read-only,
   full) leaves the table unstored and never fails the caller. *)
let store ~dir ~key table =
  try write ~dir ~key table with Sys_error _ | Unix.Unix_error _ -> ()

(* One private (copy-on-write) kind-int mapping covers the whole
   meta+words payload; verification and decoding both read through it.
   The C digest pass sees the raw 64-bit memory — including bit 63,
   which OCaml-side reads of the same buffer drop ([Val_long]) — so no
   separate int64 view is needed. Private, so fault-injection writes to
   a restored table can never reach the cache file; the mapping
   outlives the closed fd (and any concurrent atomic-rename of the
   path: the map holds the original inode). *)
let map_image file ~off ~len =
  let fd = Unix.openfile file [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Bigarray.array1_of_genarray
        (Unix.map_file fd ~pos:(Int64.of_int off) Bigarray.int
           Bigarray.c_layout false [| len |]))

(* A hit carries the bytes backing the restored table, the mapped
   payload size: what a resident store charges against its budget. *)
type outcome =
  | Hit of Detection_table.t * int
  | Corrupt
  | Future
  | Absent

(* Decode the meta fields straight from the verified mapping: plain
   kind-int reads, no string copy, no [Int64] boxing. (A read drops
   bit 63, but the C digest already vouched for the full 64 bits of
   every field, and a legal store never writes one outside 0 .. 2^62.)
   [words] is the payload length in words; the meta field count
   follows from the fixed fields, and the detection-set words follow
   the meta.

   Reads are unsafe (no per-field bounds check): the first ten fixed
   fields are covered by the caller's [words >= 10] check, and before
   any array is decoded the exact field count implied by the fixed
   fields is checked against [words], which bounds every remaining
   read. *)
let decode ~map ~words net =
  let pos = ref 0 in
  let next_int () =
    let v : int = A1.unsafe_get map !pos in
    incr pos;
    if v < 0 then raise Bad_meta;
    v
  in
  let bool_of = function 0 -> false | 1 -> true | _ -> raise Bad_meta in
  (* Every node id and pin must name a line of [net]: labels and the
     packed untargeted ints are built from them. *)
  let nodes = Netlist.node_count net in
  let node () =
    let v = next_int () in
    if v >= nodes then raise Bad_meta;
    v
  in
  let universe = next_int () in
  let wpr = next_int () in
  let t_count = next_int () in
  let g_count = next_int () in
  let pool_count = next_int () in
  let undetectable_targets = next_int () in
  let undetectable_untargeted = next_int () in
  let rows = next_int () in
  let block_size = next_int () in
  if next_int () <> 0 then raise Bad_meta;
  if wpr <> max 1 (Bitvec.word_count universe) then raise Bad_meta;
  if block_size < 1 then raise Bad_meta;
  (* Exact field count before any array decode: bounds every unsafe
     read below. The per-count guards keep the sum from overflowing. *)
  if
    t_count > words || g_count > words || rows > words || pool_count > words
  then raise Bad_meta;
  let meta_words = 10 + (5 * t_count) + (6 * g_count) + (2 * rows) in
  let nwords = words - meta_words in
  (* [wpr >= 1]; dividing keeps the set count check overflow-free. *)
  if nwords < 0 || nwords mod wpr <> 0 || nwords / wpr <> pool_count + rows
  then raise Bad_meta;
  let targets =
    Array.init t_count (fun _ ->
        let tag = next_int () in
        let a = node () in
        let b = next_int () in
        let value = bool_of (next_int ()) in
        let line =
          match tag with
          | 0 -> Line.Stem a
          | 1 ->
            if b >= Array.length (Netlist.fanins net a) then raise Bad_meta;
            Line.Branch { gate = a; pin = b }
          | _ -> raise Bad_meta
        in
        { Stuck.line; value })
  in
  let pool_idx () =
    let i = next_int () in
    if i >= pool_count then raise Bad_meta;
    i
  in
  let tindex = Array.init t_count (fun _ -> pool_idx ()) in
  (* Validated and packed in one pass: no record per fault. *)
  let untargeted =
    Array.init g_count (fun _ ->
        match next_int () with
        | 0 ->
          let victim = node () in
          let victim_value = bool_of (next_int ()) in
          let aggressor = node () in
          let aggressor_value = bool_of (next_int ()) in
          Packed.bridge ~victim ~victim_value ~aggressor ~aggressor_value
        | 1 ->
          let a = node () in
          let b = node () in
          let semantics =
            match next_int () with
            | 0 -> Wired.Wired_and
            | 1 -> Wired.Wired_or
            | _ -> raise Bad_meta
          in
          if next_int () <> 0 then raise Bad_meta;
          Packed.wired ~a ~b semantics
        | _ -> raise Bad_meta)
  in
  let uindex = Array.init g_count (fun _ -> pool_idx ()) in
  let rep =
    Array.init rows (fun _ ->
        let i = next_int () in
        if i >= t_count then raise Bad_meta;
        i)
  in
  let row_n = Array.init rows (fun _ -> next_int ()) in
  if !pos <> meta_words then raise Bad_meta;
  let table =
    if nwords = 0 then
      Detection_table.restore_parts net ~universe ~targets ~target_sets:[||]
        ~undetectable_targets ~untargeted ~untargeted_class:[||]
        ~untargeted_distinct:[||] ~undetectable_untargeted ()
    else begin
      (* The checksums held: adopt the verified mapping zero-copy. *)
      let pool =
        Array.init pool_count (fun i ->
            Bitvec.of_view universe (A1.sub map (meta_words + (i * wpr)) wpr))
      in
      let target_sets = Array.map (fun i -> pool.(i)) tindex in
      (* Classes in first-seen order of [uindex], as the build numbers
         them: pool entries are distinct, so are the classes. *)
      let pool_class = Array.make pool_count (-1) in
      let distinct = ref [] and classes = ref 0 in
      let untargeted_class =
        Array.map
          (fun i ->
            if pool_class.(i) < 0 then begin
              pool_class.(i) <- !classes;
              distinct := pool.(i) :: !distinct;
              incr classes
            end;
            pool_class.(i))
          uindex
      in
      let untargeted_distinct = Array.of_list (List.rev !distinct) in
      let layout =
        if rows = 0 then None
        else
          let data =
            A1.sub map (meta_words + (pool_count * wpr)) (rows * wpr)
          in
          let blocked =
            Bitvec.Blocked.of_buffer ~block_size ~len:universe ~rows data
          in
          Some { Detection_table.rows; rep; row_n; blocked }
      in
      Detection_table.restore_parts net ~universe ~targets ~target_sets
        ~undetectable_targets ~untargeted ~untargeted_class
        ~untargeted_distinct ~undetectable_untargeted ?layout ()
    end
  in
  Telemetry.Counter.incr c_mmap_hits;
  Telemetry.Counter.add c_mmap_bytes (8 * words);
  Hit (table, 8 * words)

let attempt file ~key net =
  match In_channel.with_open_bin file (Record.locate ~kind ~key) with
  | Error Record.Future -> Future
  | Error Record.Damaged -> Corrupt
  | Ok { Record.off; len; digest } -> (
    if len < 80 || len land 7 <> 0 then Corrupt
    else
      let words = len / 8 in
      let map = map_image file ~off ~len:words in
      match Kernel.verify_region map ~off:0 words with
      | Some h when Int64.equal h digest -> (
        try decode ~map ~words net
        with Bad_meta | Invalid_argument _ -> Corrupt)
      | Some _ | None -> Corrupt)

let load_sized ~dir ~key net =
  let file = path ~dir ~key in
  let outcome =
    if not (Sys.file_exists file) then Absent
    else try attempt file ~key net with _ -> Corrupt
  in
  match outcome with
  | Hit (table, bytes) ->
    Telemetry.Counter.incr c_hits;
    Some (table, bytes)
  | Absent ->
    Telemetry.Counter.incr c_misses;
    None
  | Corrupt ->
    Telemetry.Counter.incr c_misses;
    Telemetry.Counter.incr c_corrupt;
    (* A damaged entry can only ever miss again — reclaim it so the next
       store writes fresh. *)
    (try Sys.remove file with Sys_error _ -> ());
    None
  | Future ->
    (* Not ours to judge (or delete): a newer binary's cache. *)
    Telemetry.Counter.incr c_misses;
    Telemetry.Counter.incr c_corrupt;
    None

let load ~dir ~key net = Option.map fst (load_sized ~dir ~key net)

let table ~dir ?keep_undetectable_targets ?collapse ?model
    ?(cancel = Ndetect_util.Cancel.none) net =
  Telemetry.with_span "table_cache.lookup" @@ fun () ->
  let key = key ?keep_undetectable_targets ?collapse ?model net in
  match load ~dir ~key net with
  | Some table -> table
  | None ->
    let table =
      Detection_table.build ?keep_undetectable_targets ?collapse ?model
        ~cancel net
    in
    store ~dir ~key table;
    table
