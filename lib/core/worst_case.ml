module Bitvec = Ndetect_util.Bitvec
module Telemetry = Ndetect_util.Telemetry

(* Kernel calls = blocks swept; early exits = scans cut short by the
   N-ascending bound. Both are per-unique-detection-set totals, so
   they are identical for every domain count. Only table scans (the
   [worst.compute] span) count: e2ebench divides these totals by the
   faults that span covers, so scans against other target sets stay
   out. *)
let c_kernel_calls = Telemetry.Counter.create "worst.kernel_calls"
let c_early_exits = Telemetry.Counter.create "worst.early_exits"

type t = {
  table : Detection_table.t;
  nmin : int array;
  witness : int array;  (* target index achieving nmin, or -1 *)
}

let unbounded = max_int
let debug_skip_first_block = ref false

(* The layout without its first block: what the scan sees when the
   self-test hook is armed. *)
let drop_first_block (l : Detection_table.target_layout) =
  let bs = Bitvec.Blocked.block_size l.blocked in
  let skip = min bs l.rows in
  let words = Bitvec.Blocked.words_per_row l.blocked in
  let raw = Bitvec.Blocked.raw l.blocked in
  let rows = l.rows - skip in
  {
    Detection_table.rows;
    rep = Array.sub l.rep skip rows;
    row_n = Array.sub l.row_n skip rows;
    blocked =
      Bitvec.Blocked.of_buffer ~block_size:bs
        ~len:(Bitvec.Blocked.length l.blocked)
        ~rows
        (Bigarray.Array1.sub raw (skip * words)
           (Bigarray.Array1.dim raw - (skip * words)));
  }

(* nmin(g) = min over f of N(f) - M(g, f) + 1, computed over the
   deduplicated, N-ascending, cache-blocked target layout
   ({!Detection_table.target_layout}) by one C call per untargeted set
   ({!Bitvec.Blocked.scan}): identical T(f) rows are counted once, and
   since M(g, f) <= |T(g)| the scan stops at the first block whose
   first row has N(f) - |T(g)| + 1 at least the best candidate found;
   a best of 1 cannot be improved at all. The scan is a pure read, so
   any partition of the untargeted sets yields the same nmin values,
   and the sets run on parallel domains. [tally] says whether it adds
   to the [worst.*] counters. *)
let make_scanner ~tally cancel (layout : Detection_table.target_layout) =
  let layout =
    if !debug_skip_first_block then drop_first_block layout else layout
  in
  fun tg ->
    Ndetect_util.Cancel.poll cancel;
    let out = Array.make 4 0 in
    Bitvec.Blocked.scan layout.blocked ~row_n:layout.row_n
      ~probe_count:(Bitvec.count tg) tg out;
    if tally then begin
      Telemetry.Counter.add c_kernel_calls out.(2);
      if out.(3) = 1 then Telemetry.Counter.incr c_early_exits
    end;
    (out.(0), if out.(1) < 0 then -1 else layout.rep.(out.(1)))

(* nmin depends on T(g) alone, and a table already knows its distinct
   sets: each untargeted class is scanned once, with the classes
   renumbered in first-seen order, and the results are expanded back to
   one per fault. *)
let scan_classes per_set table =
  let local = Array.make (Detection_table.untargeted_class_count table) (-1) in
  let unique = ref [] and unique_count = ref 0 in
  let group =
    Array.init (Detection_table.untargeted_count table) (fun gj ->
        let c = Detection_table.untargeted_class table gj in
        if local.(c) < 0 then begin
          local.(c) <- !unique_count;
          unique := Detection_table.untargeted_class_set table c :: !unique;
          incr unique_count
        end;
        local.(c))
  in
  let results =
    Ndetect_util.Parallel.map_array per_set (Array.of_list (List.rev !unique))
  in
  ( Array.map (fun u -> fst results.(u)) group,
    Array.map (fun u -> snd results.(u)) group )

let nmin_of_classes ?(cancel = Ndetect_util.Cancel.none) ~target_sets table =
  let per_set =
    make_scanner ~tally:false cancel
      (Detection_table.layout_of_sets target_sets)
  in
  fst (scan_classes per_set table)

let compute ?(cancel = Ndetect_util.Cancel.none) table =
  Telemetry.with_span "worst.compute"
    ~args:
      [ ("untargeted", string_of_int (Detection_table.untargeted_count table)) ]
  @@ fun () ->
  let per_set =
    make_scanner ~tally:true cancel (Detection_table.target_layout table)
  in
  let nmin, witness = scan_classes per_set table in
  { table; nmin; witness }

let table t = t.table

let nmin_pair t ~gj ~fi =
  let m = Detection_table.m t.table ~gj ~fi in
  if m = 0 then None else Some (Detection_table.target_n t.table fi - m + 1)

let nmin t gj = t.nmin.(gj)

let nmin_witness t gj =
  if t.witness.(gj) < 0 then None else Some t.witness.(gj)

let count_below t n0 =
  Array.fold_left (fun acc v -> if v <= n0 then acc + 1 else acc) 0 t.nmin

let count_at_least t n0 =
  Array.fold_left (fun acc v -> if v >= n0 then acc + 1 else acc) 0 t.nmin

let percent_of t count =
  let total = Array.length t.nmin in
  if total = 0 then 0.0 else 100.0 *. float_of_int count /. float_of_int total

let percent_below t n0 = percent_of t (count_below t n0)
let percent_at_least t n0 = percent_of t (count_at_least t n0)

let coverage_guaranteed t ~n =
  let total = Array.length t.nmin in
  if total = 0 then 1.0
  else float_of_int (count_below t n) /. float_of_int total

let max_finite_nmin t =
  Array.fold_left
    (fun acc v ->
      if v = unbounded then acc
      else match acc with None -> Some v | Some m -> Some (max m v))
    None t.nmin

let histogram_of_nmin nmin ~min_value =
  let counts = Hashtbl.create 64 in
  Array.iter
    (fun v ->
      if v <> unbounded && v >= min_value then
        Hashtbl.replace counts v
          (1 + Option.value (Hashtbl.find_opt counts v) ~default:0))
    nmin;
  Hashtbl.fold (fun value count acc -> (value, count) :: acc) counts []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let histogram t ~min_value = histogram_of_nmin t.nmin ~min_value

let distribution t = Array.copy t.nmin
