module Bitvec = Ndetect_util.Bitvec
module Telemetry = Ndetect_util.Telemetry

(* Kernel calls = intersection sweeps actually performed (sparse row
   probes plus dense block popcounts); early exits = scans cut short by
   the N-ascending bound. Both are per-unique-detection-set totals, so
   they are identical for every domain count. Only table scans (the
   [worst.compute*] spans) count: e2ebench divides these totals by the
   faults those spans cover, so scans of plain set arrays stay out. *)
let c_kernel_calls = Telemetry.Counter.create "worst.kernel_calls"
let c_early_exits = Telemetry.Counter.create "worst.early_exits"

type t = {
  table : Detection_table.t;
  nmin : int array;
  witness : int array;  (* target index achieving nmin, or -1 *)
}

let unbounded = max_int

(* nmin(g) = min over f of N(f) - M(g, f) + 1, computed over the
   deduplicated, N-ascending, cache-blocked target layout
   ({!Detection_table.target_layout}): identical T(f) rows are counted
   once, and scanning rows in increasing N(f) admits a strong early
   exit — M(g, f) <= |T(g)|, so once N(f) - |T(g)| + 1 is at least the
   best candidate found, no later row can improve it (checked at block
   granularity on the dense path); and M(g, f) <= N(f), so a best of 1
   cannot be improved at all. Untargeted faults with small
   detection sets (the interesting, hard ones) use a sparse membership
   intersection instead of the blocked popcount sweep. *)
let sparse_threshold = 64

(* The per-untargeted-set scan over [layout], whose [rep] indexes
   [target_set]: a pure read, so any partition of the untargeted sets
   yields the same nmin values. [tally] says whether it adds to the
   [worst.*] counters. *)
let make_scanner ~tally cancel (layout : Detection_table.target_layout)
    target_set =
  let rows = layout.rows in
  let row_n = layout.row_n in
  let rep = layout.rep in
  let blocked = layout.blocked in
  let block_size = Bitvec.Blocked.block_size blocked in
  let block_count = Bitvec.Blocked.block_count blocked in
  let early_exit () = if tally then Telemetry.Counter.incr c_early_exits in
  let add_kernels k = if tally then Telemetry.Counter.add c_kernel_calls k in
  (* Per-untargeted-set scans are independent pure reads, so they run on
     parallel domains; the counts scratch is per-call, never shared. *)
  let per_set tg =
    Ndetect_util.Cancel.poll cancel;
    let tg_count = Bitvec.count tg in
    if tg_count <= sparse_threshold then begin
      (* Sparse path: membership probes, row-granular early exit. *)
      let vectors = Bitvec.to_list tg in
      let kernels = ref 0 in
      let rec scan row best best_witness =
        if row >= rows then (best, best_witness)
        else if best = 1 || row_n.(row) - tg_count + 1 >= best then begin
          early_exit ();
          (best, best_witness)
        end
        else begin
          incr kernels;
          let set = target_set rep.(row) in
          let m =
            List.fold_left
              (fun acc v -> if Bitvec.unsafe_get set v then acc + 1 else acc)
              0 vectors
          in
          let best, best_witness =
            if m > 0 && row_n.(row) - m + 1 < best then
              (row_n.(row) - m + 1, rep.(row))
            else (best, best_witness)
          in
          scan (row + 1) best best_witness
        end
      in
      let result = scan 0 unbounded (-1) in
      add_kernels !kernels;
      result
    end
    else begin
      (* Dense path: one word-major sweep per block of rows, early exit
         at block granularity (rows are N-ascending, so the first row of
         a block bounds the whole tail). *)
      let counts = Array.make block_size 0 in
      let best = ref unbounded and best_witness = ref (-1) in
      let block = ref 0 and stop = ref false in
      let kernels = ref 0 in
      while (not !stop) && !block < block_count do
        let base = !block * block_size in
        if !best = 1 || row_n.(base) - tg_count + 1 >= !best then begin
          early_exit ();
          stop := true
        end
        else begin
          incr kernels;
          let k =
            Bitvec.Blocked.inter_counts_into blocked ~block:!block tg counts
          in
          for r = 0 to k - 1 do
            let m = counts.(r) in
            if m > 0 && row_n.(base + r) - m + 1 < !best then begin
              best := row_n.(base + r) - m + 1;
              best_witness := rep.(base + r)
            end
          done;
          incr block
        end
      done;
      add_kernels !kernels;
      (!best, !best_witness)
    end
  in
  per_set

(* nmin depends on T(g) alone, so each distinct set is scanned once:
   [group.(i)] indexes [unique] for the [i]-th fault of the range, and
   the results are expanded back to one per fault. *)
let scan_groups per_set unique group =
  let results = Ndetect_util.Parallel.map_array per_set unique in
  ( Array.map (fun u -> fst results.(u)) group,
    Array.map (fun u -> snd results.(u)) group )

(* Plain set arrays are grouped by the content index. *)
let scan_sets per_set sets =
  let index = Bitvec.Index.create 1024 in
  let group = Array.map (Bitvec.Index.add index) sets in
  scan_groups per_set (Bitvec.Index.to_array index) group

(* A table already knows its distinct sets: the faults of the range are
   grouped by class, renumbered in first-seen order, with no hashing. *)
let scan_classes per_set table ~lo ~hi =
  let local = Array.make (Detection_table.untargeted_class_count table) (-1) in
  let unique = ref [] and unique_count = ref 0 in
  let group =
    Array.init (hi - lo) (fun i ->
        let c = Detection_table.untargeted_class table (lo + i) in
        if local.(c) < 0 then begin
          local.(c) <- !unique_count;
          unique := Detection_table.untargeted_class_set table c :: !unique;
          incr unique_count
        end;
        local.(c))
  in
  scan_groups per_set (Array.of_list (List.rev !unique)) group

let scan_table cancel table ~lo ~hi =
  let per_set =
    make_scanner ~tally:true cancel
      (Detection_table.target_layout table)
      (Detection_table.target_set table)
  in
  scan_classes per_set table ~lo ~hi

let plain_scanner cancel target_sets =
  make_scanner ~tally:false cancel
    (Detection_table.layout_of_sets target_sets)
    (Array.get target_sets)

let nmin_of_sets ?(cancel = Ndetect_util.Cancel.none) ~target_sets
    ~untargeted_sets () =
  fst (scan_sets (plain_scanner cancel target_sets) untargeted_sets)

let nmin_of_classes ?(cancel = Ndetect_util.Cancel.none) ~target_sets table =
  fst
    (scan_classes (plain_scanner cancel target_sets) table ~lo:0
       ~hi:(Detection_table.untargeted_count table))

let compute ?(cancel = Ndetect_util.Cancel.none) table =
  let g_count = Detection_table.untargeted_count table in
  Telemetry.with_span "worst.compute"
    ~args:[ ("untargeted", string_of_int g_count) ]
  @@ fun () ->
  let nmin, witness = scan_table cancel table ~lo:0 ~hi:g_count in
  { table; nmin; witness }

let compute_slice ?(cancel = Ndetect_util.Cancel.none) table ~lo ~hi =
  let g_count = Detection_table.untargeted_count table in
  if lo < 0 || hi < lo || hi > g_count then
    invalid_arg "Worst_case.compute_slice: bad range";
  Telemetry.with_span "worst.compute_slice"
    ~args:[ ("lo", string_of_int lo); ("hi", string_of_int hi) ]
  @@ fun () -> if lo = hi then [||] else fst (scan_table cancel table ~lo ~hi)

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
