module Detection_table = Ndetect_core.Detection_table
module Netlist = Ndetect_circuit.Netlist
module Gate = Ndetect_circuit.Gate
module Line = Ndetect_circuit.Line
module Stuck = Ndetect_faults.Stuck
module Bridge = Ndetect_faults.Bridge
module Wired = Ndetect_faults.Wired
module Bitvec = Ndetect_util.Bitvec
module Kernel = Ndetect_util.Kernel
module Telemetry = Ndetect_util.Telemetry
module A1 = Bigarray.Array1

(* On-disk format, version 3 (one file per table, named [key ^ ".tbl"]):

     magic
     "3 <key> <fnv-hex meta> <meta_len> <words_off> <nwords> <fnv-hex>\n"
     zero pad        (up to the first 8-byte boundary; < 8 bytes)
     meta            (meta_len bytes of little-endian int64 fields,
                      8-byte aligned, ending exactly at words_off)
     words           (nwords * 8 bytes: raw detection-set words, LE)

   The meta section is plain integer records — fault descriptions, pool
   indices, the blocked-layout row map (see [encode_meta]) — and the
   words section is the flat word data of every distinct detection set
   followed by the cache-blocked target layout, exactly the bytes the
   kernels sweep. Because the pad sits {e before} the meta, everything
   after the header is one 8-byte-aligned image: a warm load
   [Unix.map_file]s it once, verifies both digests with single C passes
   over the mapping, decodes the meta fields straight out of the map
   (plain int reads, no copy, no [Int64] boxing), and adopts zero-copy
   {!Bitvec.of_view} / {!Bitvec.Blocked.of_buffer} views over the words
   region: no Marshal, no copies, no repacking.

   Verification still rejects any damage: FNV-1a over the meta fields,
   FNV-1a fused with a 62-bit payload range check over the words —
   both run in C over the raw mapped memory, where bit 63 is visible
   even though OCaml-side bigarray reads of the same buffer drop it
   ([Val_long]) — plus a pad-is-zero check and an exact file-size
   check. Any failure — truncation, bit flips in header, pad, meta or
   words, key mismatch — degrades to a cache miss, bumps
   ["table_cache.corrupt"], and deletes the damaged file (files from a
   {e newer} format version are spared: a rolled-back binary must not
   destroy a newer cache).

   Version 2 files (magic + ASCII header + marshalled snapshot, MD5
   over the whole payload) still load for one release; the next
   {!store} rewrites the entry as v3. *)

let magic = "ndetect-table\n"
let version = 3
let v2_version = 2

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
   (truncation, corruption, version or key mismatch, bad snapshot);
   "table.mmap_hits"/"table.mmap_bytes" count the v3 loads that adopted
   a mapped cache image and how many bytes they mapped. *)
let c_hits = Telemetry.Counter.create "table_cache.hits"
let c_misses = Telemetry.Counter.create "table_cache.misses"
let c_corrupt = Telemetry.Counter.create "table_cache.corrupt"
let c_mmap_hits = Telemetry.Counter.create "table.mmap_hits"
let c_mmap_bytes = Telemetry.Counter.create "table.mmap_bytes"
let c_mmap_reuse = Telemetry.Counter.create "table.mmap_reuse"
let hits () = Telemetry.Counter.value c_hits
let misses () = Telemetry.Counter.value c_misses

(* Lane-split FNV-1a over 64-bit words — sensitive to every bit
   including bit 63 (which OCaml-side bigarray reads cannot see), and
   cheap enough to verify at memory bandwidth on warm loads: lane [k]
   digests the words at indices congruent to [k] (mod 4), and the
   region digest folds the four lane digests (as words, in lane order)
   into a fifth FNV-1a chain. The lane split breaks the serial
   xor-multiply dependency chain so the C reader
   ({!Kernel.fnv1a_region} / {!Kernel.verify_region}) runs at memory
   bandwidth instead of multiplier latency; this writer must compute
   the same function, so changing either side is a format break. *)
let fnv_init = 0xcbf29ce484222325L
let fnv_prime = 0x100000001B3L
let fnv_mix h w = Int64.mul (Int64.logxor h w) fnv_prime

(* Digest of a string of little-endian 64-bit words (length a multiple
   of 8), as "%016Lx" hex — the writer-side mirror of the C passes. *)
let fnv_hex_of_le_words s =
  let lanes = Array.make 4 fnv_init in
  let n = String.length s / 8 in
  for i = 0 to n - 1 do
    let k = i land 3 in
    lanes.(k) <- fnv_mix lanes.(k) (String.get_int64_le s (8 * i))
  done;
  let h = ref fnv_init in
  Array.iter (fun l -> h := fnv_mix !h l) lanes;
  Printf.sprintf "%016Lx" !h

(* {2 Version 2 (marshalled snapshot) — legacy fallback} *)

let store_v2 ~dir ~key table =
  Fs.mkdir_recursive dir;
  let payload = Marshal.to_string (Detection_table.snapshot table) [] in
  let buf = Buffer.create (String.length payload + 128) in
  Buffer.add_string buf magic;
  Buffer.add_string buf
    (Printf.sprintf "%d %s %s %d\n" v2_version key
       (Digest.to_hex (Digest.string payload))
       (String.length payload));
  Buffer.add_string buf payload;
  Fs.write_atomic ~path:(path ~dir ~key) (Buffer.contents buf)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Parse and verify everything before touching Marshal. Exceptions
   (missing file, malformed header fields, out-of-range lengths) are
   all equivalent to [None] in the caller. *)
let validated_payload_v2 raw ~key =
  let mlen = String.length magic in
  if String.length raw < mlen || String.sub raw 0 mlen <> magic then None
  else
    match String.index_from_opt raw mlen '\n' with
    | None -> None
    | Some nl -> (
      let header = String.sub raw mlen (nl - mlen) in
      match String.split_on_char ' ' header with
      | [ v; file_key; digest_hex; len ] -> (
        match (int_of_string_opt v, int_of_string_opt len) with
        | Some file_version, Some payload_len
          when file_version = v2_version && file_key = key
               && payload_len >= 0
               && String.length raw - (nl + 1) = payload_len ->
          let payload = String.sub raw (nl + 1) payload_len in
          if Digest.to_hex (Digest.string payload) = digest_hex then
            Some payload
          else None
        | _ -> None)
      | _ -> None)

(* {2 Version 3 (flat words + mmap)} *)

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

let store ~dir ~key table =
  Fs.mkdir_recursive dir;
  let universe = Detection_table.universe table in
  let wpr = max 1 (Bitvec.word_count universe) in
  let t_count = Detection_table.target_count table in
  let g_count = Detection_table.untargeted_count table in
  let layout = Detection_table.target_layout table in
  let rows = layout.Detection_table.rows in
  let block_size = Bitvec.Blocked.block_size layout.Detection_table.blocked in
  (* One pool over both fault families: identical sets (deduplicated by
     [Detection_table.build]'s [share]) are written once and re-shared
     on load via the index indirection. *)
  let canon : int Bitvec.Tbl.t = Bitvec.Tbl.create (2 * (t_count + g_count)) in
  let pool_rev = ref [] and pool_n = ref 0 in
  let pool_index set =
    match Bitvec.Tbl.find_opt canon set with
    | Some i -> i
    | None ->
      let i = !pool_n in
      Bitvec.Tbl.replace canon set i;
      pool_rev := set :: !pool_rev;
      incr pool_n;
      i
  in
  let tindex =
    Array.init t_count (fun i -> pool_index (Detection_table.target_set table i))
  in
  let uindex =
    Array.init g_count (fun j ->
        pool_index (Detection_table.untargeted_set table j))
  in
  let pool = Array.of_list (List.rev !pool_rev) in
  let pool_count = Array.length pool in
  let meta =
    let buf =
      Buffer.create (8 * (10 + (5 * t_count) + (6 * g_count) + (2 * rows)))
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
      match Detection_table.untargeted_fault table j with
      | Detection_table.Bridge_fault b ->
        add 0;
        add b.Bridge.victim;
        add (Bool.to_int b.Bridge.victim_value);
        add b.Bridge.aggressor;
        add (Bool.to_int b.Bridge.aggressor_value)
      | Detection_table.Wired_fault w ->
        add 1;
        add w.Wired.a;
        add w.Wired.b;
        add (match w.Wired.semantics with Wired.Wired_and -> 0 | Wired.Wired_or -> 1);
        add 0
    done;
    Array.iter add uindex;
    Array.iter add layout.Detection_table.rep;
    Array.iter add layout.Detection_table.row_n;
    Buffer.contents buf
  in
  let nwords = (pool_count + rows) * wpr in
  let word_bytes =
    let buf = Buffer.create (8 * nwords) in
    let emit w64 = Buffer.add_int64_le buf w64 in
    Array.iter
      (fun set ->
        for w = 0 to wpr - 1 do
          emit (Int64.of_int (Bitvec.unsafe_get_word set w))
        done)
      pool;
    if rows > 0 then begin
      let data = Bitvec.Blocked.raw layout.Detection_table.blocked in
      for i = 0 to (rows * wpr) - 1 do
        emit (Int64.of_int (A1.get data i))
      done
    end;
    Buffer.contents buf
  in
  let fnv_hex = fnv_hex_of_le_words word_bytes in
  let meta_len = String.length meta in
  let meta_fnv_hex = fnv_hex_of_le_words meta in
  (* The header quotes words_off, and words_off depends on the header's
     length — iterate to the (monotone, hence reached) fixpoint. The
     pad sits between header and meta, so meta and words form one
     8-byte-aligned image. *)
  let rec fit guess =
    let header =
      Printf.sprintf "%d %s %s %d %d %d %s\n" version key meta_fnv_hex
        meta_len guess nwords fnv_hex
    in
    let header_end = String.length magic + String.length header in
    let meta_off = (header_end + 7) land lnot 7 in
    let words_off = meta_off + meta_len in
    if words_off = guess then (header, meta_off - header_end) else fit words_off
  in
  let header, pad_len = fit 0 in
  let out =
    Buffer.create
      (String.length magic + String.length header + pad_len + meta_len
     + String.length word_bytes)
  in
  Buffer.add_string out magic;
  Buffer.add_string out header;
  Buffer.add_string out (String.make pad_len '\000');
  Buffer.add_string out meta;
  Buffer.add_string out word_bytes;
  Fs.write_atomic ~path:(path ~dir ~key) (Buffer.contents out)

(* One private (copy-on-write) kind-int mapping covers the whole
   meta+words image; verification and decoding both read through it.
   The C digest passes see the raw 64-bit memory — including bit 63,
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

(* A hit carries the bytes backing the restored table: the mapped image
   size on the v3 path, the marshalled payload length on the v2
   fallback — what a resident store charges against its budget. *)
type outcome =
  | Hit of Detection_table.t * int
  | Corrupt
  | Future
  | Absent

(* Decode the meta fields straight from the verified mapping: plain
   kind-int reads, no string copy, no [Int64] boxing. (A read drops
   bit 63, but the C digest already vouched for the full 64 bits of
   every field, and a legal store never writes one outside 0 .. 2^62.)
   [meta_words] is the field count; words follow at that offset.

   Reads are unsafe (no per-field bounds check): the first ten fixed
   fields are covered by the header's [meta_len >= 80] check, and
   before any array is decoded the exact field count implied by the
   fixed fields is checked against [meta_words], which bounds every
   remaining read. *)
let decode_v3 ~map ~meta_words ~nwords net =
  let pos = ref 0 in
  let next_int () =
    let v : int = A1.unsafe_get map !pos in
    incr pos;
    if v < 0 then raise Bad_meta;
    v
  in
  let bool_of = function 0 -> false | 1 -> true | _ -> raise Bad_meta in
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
  if t_count > meta_words || g_count > meta_words || rows > meta_words then
    raise Bad_meta;
  if meta_words <> 10 + (5 * t_count) + (6 * g_count) + (2 * rows) then
    raise Bad_meta;
  let targets =
    Array.init t_count (fun _ ->
        let tag = next_int () in
        let a = next_int () in
        let b = next_int () in
        let value = bool_of (next_int ()) in
        let line =
          match tag with
          | 0 -> Line.Stem a
          | 1 -> Line.Branch { gate = a; pin = b }
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
  let untargeted =
    Array.init g_count (fun _ ->
        match next_int () with
        | 0 ->
          let victim = next_int () in
          let victim_value = bool_of (next_int ()) in
          let aggressor = next_int () in
          let aggressor_value = bool_of (next_int ()) in
          Detection_table.Bridge_fault
            { Bridge.victim; victim_value; aggressor; aggressor_value }
        | 1 ->
          let a = next_int () in
          let b = next_int () in
          let semantics =
            match next_int () with
            | 0 -> Wired.Wired_and
            | 1 -> Wired.Wired_or
            | _ -> raise Bad_meta
          in
          if next_int () <> 0 then raise Bad_meta;
          Detection_table.Wired_fault { Wired.a; b; semantics }
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
  if nwords <> (pool_count + rows) * wpr then raise Bad_meta;
  let table =
    if nwords = 0 then
      Detection_table.restore_parts net ~universe ~targets ~target_sets:[||]
        ~undetectable_targets ~untargeted ~untargeted_sets:[||]
        ~undetectable_untargeted ()
    else begin
      (* The checksums held: adopt the verified mapping zero-copy. *)
      let pool =
        Array.init pool_count (fun i ->
            Bitvec.of_view universe (A1.sub map (meta_words + (i * wpr)) wpr))
      in
      let target_sets = Array.map (fun i -> pool.(i)) tindex in
      let untargeted_sets = Array.map (fun i -> pool.(i)) uindex in
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
        ~undetectable_targets ~untargeted ~untargeted_sets
        ~undetectable_untargeted ?layout ()
    end
  in
  Telemetry.Counter.incr c_mmap_hits;
  Telemetry.Counter.add c_mmap_bytes (8 * (meta_words + nwords));
  Hit (table, 8 * (meta_words + nwords))

let attempt_v3 ic ~size ~file ~key net ~header_end fields =
  match fields with
  | [ file_key; meta_fnv_hex; meta_len; words_off; nwords; fnv_hex ] -> (
    match
      (int_of_string_opt meta_len, int_of_string_opt words_off,
       int_of_string_opt nwords)
    with
    | Some meta_len, Some words_off, Some nwords
      when file_key = key && meta_len >= 80 && meta_len land 7 = 0
           && nwords >= 0
           && words_off land 7 = 0
           && words_off - meta_len >= header_end
           && words_off - meta_len - header_end < 8
           && size = words_off + (8 * nwords) -> (
      let meta_off = words_off - meta_len in
      let pad = really_input_string ic (meta_off - header_end) in
      if String.exists (fun c -> c <> '\000') pad then Corrupt
      else
        let meta_words = meta_len / 8 in
        let map = map_image file ~off:meta_off ~len:(meta_words + nwords) in
        if
          Printf.sprintf "%016Lx" (Kernel.fnv1a_region map ~off:0 meta_words)
          <> meta_fnv_hex
        then Corrupt
        else
          match Kernel.verify_region map ~off:meta_words nwords with
          | None -> Corrupt
          | Some h when Printf.sprintf "%016Lx" h <> fnv_hex -> Corrupt
          | Some _ -> (
            try decode_v3 ~map ~meta_words ~nwords net
            with Bad_meta | Invalid_argument _ -> Corrupt))
    | _ -> Corrupt)
  | _ -> Corrupt

let attempt file ~key net =
  let ic = open_in_bin file in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let mlen = String.length magic in
  let size = in_channel_length ic in
  if size < mlen || really_input_string ic mlen <> magic then Corrupt
  else
    let header = input_line ic in
    let header_end = mlen + String.length header + 1 in
    match String.split_on_char ' ' header with
    | v :: rest -> (
      match int_of_string_opt v with
      | Some n when n = version -> attempt_v3 ic ~size ~file ~key net ~header_end rest
      | Some n when n = v2_version -> (
        match validated_payload_v2 (read_file file) ~key with
        | None -> Corrupt
        | Some payload ->
          let snap : Detection_table.snapshot =
            Marshal.from_string payload 0
          in
          Hit (Detection_table.restore net snap, String.length payload))
      | Some n when n > version -> Future
      | _ -> Corrupt)
    | [] -> Corrupt

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

(* Single-slot resident mapping: [table] used to re-open and re-map the
   same v3 file on every warm lookup in one process (each Analysis of
   the same circuit paid a fresh map + checksum pass). The last adopted
   table is kept, keyed by (dir, key), and handed back physically shared
   on a repeat lookup — counted on "table.mmap_reuse", never on
   "table_cache.hits" (no load happened). The slot lives here, not in
   {!load}, so direct load calls (tests, damage sweeps) keep their
   exact hit/mmap accounting; a server wanting more than one hot table
   layers its own store (see {!Serve}) over {!load_sized}. *)
let slot : (string * string * Detection_table.t) option ref = ref None
let slot_lock = Mutex.create ()

let slot_find ~dir ~key =
  Mutex.protect slot_lock (fun () ->
      match !slot with
      | Some (d, k, table) when String.equal d dir && String.equal k key ->
        Some table
      | Some _ | None -> None)

let slot_keep ~dir ~key table =
  Mutex.protect slot_lock (fun () -> slot := Some (dir, key, table))

let table ~dir ?keep_undetectable_targets ?collapse ?model
    ?(cancel = Ndetect_util.Cancel.none) net =
  Telemetry.with_span "table_cache.lookup" @@ fun () ->
  let key = key ?keep_undetectable_targets ?collapse ?model net in
  match slot_find ~dir ~key with
  | Some table ->
    Telemetry.Counter.incr c_mmap_reuse;
    table
  | None ->
    let table =
      match load ~dir ~key net with
      | Some table -> table
      | None ->
        let table =
          Detection_table.build ?keep_undetectable_targets ?collapse ?model
            ~cancel net
        in
        (* Best-effort persistence: an unwritable cache directory must
           not fail the analysis itself. *)
        (try store ~dir ~key table with Sys_error _ -> ());
        table
    in
    slot_keep ~dir ~key table;
    table
