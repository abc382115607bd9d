module Rng = Ndetect_util.Rng
module Bitvec = Ndetect_util.Bitvec

let test_rng_deterministic () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let sa = List.init 8 (fun _ -> Rng.next_int64 a) in
  let sb = List.init 8 (fun _ -> Rng.next_int64 b) in
  Alcotest.(check bool) "streams differ" true (sa <> sb)

let test_rng_int_bounds () =
  let rng = Rng.create ~seed:7 in
  for _ = 1 to 1000 do
    let v = Rng.int rng ~bound:13 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 13)
  done

let test_rng_int_bound_one () =
  let rng = Rng.create ~seed:7 in
  Alcotest.(check int) "bound 1 gives 0" 0 (Rng.int rng ~bound:1)

let test_rng_int_rejects_zero () =
  let rng = Rng.create ~seed:7 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng ~bound:0))

let test_rng_uniformity () =
  (* Chi-squared-ish sanity: each of 8 buckets gets its share. *)
  let rng = Rng.create ~seed:11 in
  let buckets = Array.make 8 0 in
  let draws = 80_000 in
  for _ = 1 to draws do
    let v = Rng.int rng ~bound:8 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iter
    (fun c ->
      Alcotest.(check bool) "bucket near expectation" true
        (abs (c - 10_000) < 500))
    buckets

let test_rng_split_independent () =
  let a = Rng.create ~seed:3 in
  let b = Rng.split a in
  let sa = List.init 8 (fun _ -> Rng.next_int64 a) in
  let sb = List.init 8 (fun _ -> Rng.next_int64 b) in
  Alcotest.(check bool) "streams differ" true (sa <> sb)

let test_rng_copy () =
  let a = Rng.create ~seed:3 in
  ignore (Rng.next_int64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.next_int64 a)
    (Rng.next_int64 b)

let test_rng_shuffle_permutation () =
  let rng = Rng.create ~seed:5 in
  let arr = Array.init 20 Fun.id in
  Rng.shuffle_in_place rng arr;
  let sorted = Array.copy arr in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 20 Fun.id) sorted

(* The stream, pinned to literal values: per seed, the first three raw
   outputs; one [int] draw per bound in order from a fresh generator;
   and a 10-element shuffle from a fresh generator. *)
let rng_pins =
  [
    ( 0,
      [ -2152535657050944081L; 7960286522194355700L; 487617019471545679L ],
      [ 0; 0; 0; 719; 154894754480; 4390466628494765097 ],
      [| 9; 5; 4; 7; 1; 8; 0; 2; 6; 3 |] );
    ( 1,
      [ -7995527694508729151L; -4689498862643123097L; -534904783426661026L ],
      [ 0; 1; 2; 366; 1099042209952; 4046056672035966761 ],
      [| 5; 3; 8; 4; 1; 9; 6; 2; 7; 0 |] );
    ( 42,
      [ -4767286540954276203L; 2949826092126892291L; 5139283748462763858L ],
      [ 0; 0; 5; 252; 543567132353; 1007216178194406231 ],
      [| 8; 2; 6; 3; 1; 7; 9; 4; 0; 5 |] );
    ( -1,
      [ -1956407806741107680L; -1612297016619662647L; 4048727598324417001L ],
      [ 0; 0; 2; 180; 874392853099; 3803126536585752268 ],
      [| 0; 7; 5; 1; 6; 3; 4; 9; 2; 8 |] );
  ]

let test_rng_pinned () =
  List.iter
    (fun (seed, raw, ints, shuffled) ->
      let name what = Printf.sprintf "seed %d: %s" seed what in
      let rng = Rng.create ~seed in
      Alcotest.(check (list int64))
        (name "next_int64") raw
        (List.init 3 (fun _ -> Rng.next_int64 rng));
      let rng = Rng.create ~seed in
      Alcotest.(check (list int))
        (name "int") ints
        (List.map
           (fun bound -> Rng.int rng ~bound)
           [ 1; 2; 7; 1000; 1 lsl 40; max_int ]);
      let rng = Rng.create ~seed and arr = Array.init 10 Fun.id in
      Rng.shuffle_in_place rng arr;
      Alcotest.(check (array int)) (name "shuffle") shuffled arr)
    rng_pins

let test_rng_int_no_alloc () =
  let rng = Rng.create ~seed:3 in
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    ignore (Sys.opaque_identity (Rng.int rng ~bound:1000))
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "10 000 draws allocate %.0f minor words (< 100)" words)
    true (words < 100.)

(* Rng.stream is the closed form of a sequential split loop: stream i
   is the (i+1)-th split of the root, for any seed (negative ones too),
   checked at i = 0 and i = k. *)
let prop_rng_stream_is_kth_split =
  QCheck.Test.make ~name:"Rng.stream ~seed k = (k+1)-th Rng.split"
    ~count:200
    QCheck.(pair int (int_bound 300))
    (fun (seed, k) ->
      let root = Rng.create ~seed in
      let splits = Array.make (k + 1) root in
      for i = 0 to k do
        splits.(i) <- Rng.split root
      done;
      let draws rng = List.init 4 (fun _ -> Rng.next_int64 rng) in
      List.for_all
        (fun i -> draws (Rng.copy splits.(i)) = draws (Rng.stream ~seed i))
        [ 0; k ])

let test_bitvec_basics () =
  let v = Bitvec.create 100 in
  Alcotest.(check int) "empty count" 0 (Bitvec.count v);
  Bitvec.set v 0;
  Bitvec.set v 63;
  Bitvec.set v 99;
  Alcotest.(check int) "count" 3 (Bitvec.count v);
  Alcotest.(check bool) "get 63" true (Bitvec.get v 63);
  Alcotest.(check bool) "get 62" false (Bitvec.get v 62);
  Bitvec.clear v 63;
  Alcotest.(check bool) "cleared" false (Bitvec.get v 63);
  Alcotest.(check (list int)) "to_list" [ 0; 99 ] (Bitvec.to_list v)

let test_bitvec_bounds () =
  let v = Bitvec.create 10 in
  Alcotest.check_raises "oob" (Invalid_argument "Bitvec: index out of bounds")
    (fun () -> ignore (Bitvec.get v 10))

let bitvec_gen =
  QCheck.make
    ~print:(fun (len, xs) ->
      Printf.sprintf "len=%d {%s}" len
        (String.concat ";" (List.map string_of_int xs)))
    QCheck.Gen.(
      int_range 1 300 >>= fun len ->
      list_size (int_range 0 40) (int_range 0 (len - 1)) >|= fun xs ->
      (len, xs))

let pair_gen =
  QCheck.Gen.(
    int_range 1 300 >>= fun len ->
    let idx = list_size (int_range 0 40) (int_range 0 (len - 1)) in
    idx >>= fun a ->
    idx >|= fun b -> (len, a, b))

let bitvec_pair =
  QCheck.make
    ~print:(fun (len, a, b) ->
      Printf.sprintf "len=%d |a|=%d |b|=%d" len (List.length a)
        (List.length b))
    pair_gen

let prop_inter_count =
  QCheck.Test.make ~name:"inter_count = |a ∩ b|" ~count:200 bitvec_pair
    (fun (len, a, b) ->
      let va = Bitvec.of_list len a and vb = Bitvec.of_list len b in
      let expected =
        List.sort_uniq Int.compare a
        |> List.filter (fun x -> List.mem x b)
        |> List.length
      in
      Bitvec.inter_count va vb = expected
      && Bitvec.count (Bitvec.inter va vb) = expected)

let prop_diff_and_union =
  QCheck.Test.make ~name:"set algebra laws" ~count:200 bitvec_pair
    (fun (len, a, b) ->
      let va = Bitvec.of_list len a and vb = Bitvec.of_list len b in
      let u = Bitvec.union va vb and d = Bitvec.diff va vb in
      Bitvec.count u + Bitvec.inter_count va vb
      = Bitvec.count va + Bitvec.count vb
      && Bitvec.subset d va
      && (not (Bitvec.intersects d vb)) )

let prop_nth_diff =
  QCheck.Test.make ~name:"nth_diff enumerates diff in order" ~count:200
    bitvec_pair (fun (len, a, b) ->
      let va = Bitvec.of_list len a and vb = Bitvec.of_list len b in
      let d = Bitvec.diff va vb in
      let expected = Bitvec.to_list d in
      let got = List.mapi (fun k _ -> Bitvec.nth_diff va vb k) expected in
      got = expected)

let prop_nth_set =
  QCheck.Test.make ~name:"nth_set agrees with to_list" ~count:200 bitvec_gen
    (fun (len, xs) ->
      let v = Bitvec.of_list len xs in
      let expected = Bitvec.to_list v in
      List.mapi (fun k _ -> Bitvec.nth_set v k) expected = expected)

let prop_diff_desc_into =
  QCheck.Test.make ~name:"diff_desc_into lists diff in decreasing order"
    ~count:200 bitvec_pair (fun (len, a, b) ->
      let va = Bitvec.of_list len a and vb = Bitvec.of_list len b in
      let expected = List.rev (Bitvec.to_list (Bitvec.diff va vb)) in
      let n = List.length expected in
      let dst = Array.make n (-1) in
      Bitvec.diff_desc_into va vb dst;
      let misfit size =
        match Bitvec.diff_desc_into va vb (Array.make size 0) with
        | () -> false
        | exception Invalid_argument _ -> true
      in
      Array.to_list dst = expected
      && misfit (n + 1)
      && (n = 0 || misfit (n - 1)))

let test_nth_diff_not_found () =
  let a = Bitvec.of_list 10 [ 1; 2 ] and b = Bitvec.of_list 10 [ 2 ] in
  Alcotest.check_raises "exhausted" Not_found (fun () ->
      ignore (Bitvec.nth_diff a b 1))

let test_union_in_place () =
  let a = Bitvec.of_list 80 [ 1; 70 ] and b = Bitvec.of_list 80 [ 2; 70 ] in
  Bitvec.union_in_place a b;
  Alcotest.(check (list int)) "union" [ 1; 2; 70 ] (Bitvec.to_list a)

let test_length_mismatch () =
  let a = Bitvec.create 10 and b = Bitvec.create 11 in
  Alcotest.check_raises "mismatch" (Invalid_argument "Bitvec: length mismatch")
    (fun () -> ignore (Bitvec.inter_count a b))

(* Pooled allocation: the views behave exactly like independently
   created vectors — all-zero, correct length, and mutation of one
   element never leaks into a neighbour despite the shared backing. *)
let test_create_many () =
  let vs = Bitvec.create_many 5 100 in
  Alcotest.(check int) "count" 5 (Array.length vs);
  Array.iter
    (fun v ->
      Alcotest.(check int) "length" 100 (Bitvec.length v);
      Alcotest.(check bool) "zeroed" true (Bitvec.is_empty v))
    vs;
  Bitvec.set vs.(2) 0;
  Bitvec.set vs.(2) 99;
  Array.iteri
    (fun i v ->
      Alcotest.(check (list int))
        (Printf.sprintf "element %d" i)
        (if i = 2 then [ 0; 99 ] else [])
        (Bitvec.to_list v))
    vs;
  Alcotest.(check int) "empty pool" 0 (Array.length (Bitvec.create_many 0 7))

(* Kernel properties: every fast path (SWAR popcount, De Bruijn ctz
   iteration, early-exit and batched intersection counts, the blocked
   word-major layout) against its naive list-based meaning. *)

let prop_count_naive =
  QCheck.Test.make ~name:"count = naive popcount" ~count:300 bitvec_gen
    (fun (len, xs) ->
      Bitvec.count (Bitvec.of_list len xs)
      = List.length (List.sort_uniq Int.compare xs))

let prop_iter_set_order =
  QCheck.Test.make ~name:"iter_set enumerates sorted members" ~count:300
    bitvec_gen (fun (len, xs) ->
      Bitvec.to_list (Bitvec.of_list len xs)
      = List.sort_uniq Int.compare xs)

let family_gen =
  QCheck.make
    ~print:(fun (len, probe, rows) ->
      Printf.sprintf "len=%d |probe|=%d rows=%d" len (List.length probe)
        (List.length rows))
    QCheck.Gen.(
      int_range 1 300 >>= fun len ->
      let idx = list_size (int_range 0 40) (int_range 0 (len - 1)) in
      idx >>= fun probe ->
      list_size (int_range 0 30) idx >|= fun rows -> (len, probe, rows))

(* Per-row counts through the worst-case scan: scanning with row [r]'s
   own count 0 and every other row's 2L + 2 (L the length) makes row
   [r] the witness exactly when it meets the probe, with nmin 1 - |p ∩
   r|. A probe count of 4L + 4 keeps the exit bound below every
   reachable best, so the scan counts every block. *)
let row_counts scan packed probe =
  let rows = Bitvec.Blocked.rows packed and len = Bitvec.length probe in
  let out = Array.make 4 0 in
  List.init rows (fun r ->
      let row_n =
        Array.init rows (fun j -> if j = r then 0 else (2 * len) + 2)
      in
      scan packed ~row_n ~probe_count:((4 * len) + 4) probe out;
      if out.(1) = r then 1 - out.(0) else 0)

let prop_blocked_row_counts =
  QCheck.make
    ~print:(fun ((len, _, rows), bs) ->
      Printf.sprintf "len=%d rows=%d block_size=%d" len (List.length rows) bs)
    QCheck.Gen.(pair (QCheck.gen family_gen) (int_range 1 9))
  |> fun arb ->
  QCheck.Test.make ~name:"Blocked.scan row counts = per-row inter_count"
    ~count:200 arb (fun ((len, probe, rows), block_size) ->
      let p = Bitvec.of_list len probe in
      let vecs = Array.of_list (List.map (Bitvec.of_list len) rows) in
      let packed = Bitvec.Blocked.pack ~block_size vecs in
      Bitvec.Blocked.rows packed = Array.length vecs
      && row_counts Bitvec.Blocked.scan packed p
         = Array.to_list (Array.map (Bitvec.inter_count p) vecs))

(* Dense differential oracles: the sparse list generators above rarely
   fill whole words, so the SWAR fast paths and the ragged-last-word
   masking are exercised here against literal [Bitvec.get] bit loops.
   Vectors are ~half-full, reproducible from a (len, seed) pair, and
   lengths concentrate on word boundaries of the 62-bit layout
   (61/62/63/123/124) plus arbitrary sizes. *)

let ragged_lengths = [| 1; 2; 61; 62; 63; 100; 123; 124; 186; 248; 300 |]

let dense_of_seed len seed =
  let rng = Rng.create ~seed in
  let v = Bitvec.create len in
  for i = 0 to len - 1 do
    if Rng.bool rng then Bitvec.set v i
  done;
  v

let dense_pair_gen =
  QCheck.make
    ~print:(fun (len, sa, sb) ->
      Printf.sprintf "len=%d seed_a=%d seed_b=%d" len sa sb)
    QCheck.Gen.(
      let len =
        oneof
          [
            oneofa ragged_lengths;
            int_range 1 300;
          ]
      in
      triple len (int_bound 10_000) (int_bound 10_000))

let naive_inter_count len a b =
  let c = ref 0 in
  for i = 0 to len - 1 do
    if Bitvec.get a i && Bitvec.get b i then incr c
  done;
  !c

(* The bulk counts come in two implementations over the same words: the
   C kernel behind [Bitvec] and its pure-OCaml SWAR reference
   [Ref_kernel]. Property bodies take one of them, so the same
   differential checks run against each (the "kernel backends" group
   below) and the two are compared output for output. *)

module Ref_kernel = Ndetect_check.Ref_kernel

type kernel = {
  count : Bitvec.t -> int;
  inter_count : Bitvec.t -> Bitvec.t -> int;
  scan :
    Bitvec.Blocked.t ->
    row_n:int array -> probe_count:int -> Bitvec.t -> int array -> unit;
}

let c_kernel =
  {
    count = Bitvec.count;
    inter_count = Bitvec.inter_count;
    scan = Bitvec.Blocked.scan;
  }

let ref_kernel =
  {
    count = Ref_kernel.count;
    inter_count = Ref_kernel.inter_count;
    scan = Ref_kernel.blocked_scan;
  }

(* Labelled as the test names have always read: "c" is the C kernel,
   "swar" its reference. *)
let kernels = [ ("swar", ref_kernel); ("c", c_kernel) ]

let dense_inter_count_body k (len, sa, sb) =
  let a = dense_of_seed len sa and b = dense_of_seed len sb in
  k.inter_count a b = naive_inter_count len a b

let prop_dense_inter_count =
  QCheck.Test.make ~name:"inter_count = naive get loop (dense)" ~count:300
    dense_pair_gen
    (dense_inter_count_body c_kernel)

let dense_blocked_gen =
  QCheck.make
    ~print:(fun (len, sp, rows, bs) ->
      Printf.sprintf "len=%d seed_p=%d rows=%d block_size=%d" len sp rows bs)
    QCheck.Gen.(
      quad (oneofa ragged_lengths) (int_bound 10_000) (int_range 0 12)
        (int_range 1 9))

let dense_blocked_body k (len, sp, rows, block_size) =
  let p = dense_of_seed len sp in
  let vecs = Array.init rows (fun r -> dense_of_seed len (r + 31)) in
  let packed = Bitvec.Blocked.pack ~block_size vecs in
  row_counts k.scan packed p
  = Array.to_list (Array.map (naive_inter_count len p) vecs)

let prop_dense_blocked =
  QCheck.Test.make ~name:"Blocked = naive get loops (dense, ragged)"
    ~count:200 dense_blocked_gen
    (dense_blocked_body c_kernel)

(* Empty operands hit the all-zero-word paths; spelled out per ragged
   length rather than left to chance. *)
let test_intersection_kernels_empty_sets k () =
  Array.iter
    (fun len ->
      let empty = Bitvec.create len in
      let dense = dense_of_seed len 5 in
      List.iter
        (fun (label, a, b) ->
          Alcotest.(check int)
            (Printf.sprintf "inter_count %s len=%d" label len)
            0 (k.inter_count a b))
        [ ("0∩0", empty, empty); ("0∩d", empty, dense); ("d∩0", dense, empty) ];
      let packed = Bitvec.Blocked.pack ~block_size:2 [| empty; dense |] in
      Alcotest.(check (list int))
        (Printf.sprintf "blocked vs empty probe len=%d" len)
        [ 0; 0 ]
        (row_counts k.scan packed empty);
      let out = Array.make 4 (-1) in
      k.scan packed ~row_n:[| 0; Bitvec.count dense |] ~probe_count:0 empty
        out;
      Alcotest.(check (array int))
        (Printf.sprintf "scan of an empty probe len=%d" len)
        [| max_int; -1; 1; 0 |] out)
    ragged_lengths

(* The C kernel against its reference: the dense differential
   properties run once per kernel, and structured edge inputs compare
   the two output for output. *)

let kernel_props (name, k) =
  let name s = Printf.sprintf "%s [%s]" s name in
  [
    QCheck.Test.make
      ~name:(name "inter_count = naive (dense)")
      ~count:200 dense_pair_gen (dense_inter_count_body k);
    QCheck.Test.make
      ~name:(name "Blocked = naive (dense, ragged)")
      ~count:150 dense_blocked_gen (dense_blocked_body k);
  ]

(* Structured edge inputs — whole-word masks (every bit of the ragged
   last word set), empty sets, half-full vectors, self-intersection —
   counted by the C kernel and by the reference, compared
   output-for-output. *)
let test_kernels_agree () =
  Array.iter
    (fun len ->
      let full = Bitvec.of_list len (List.init len Fun.id) in
      let empty = Bitvec.create len in
      let a = dense_of_seed len 101 and b = dense_of_seed len 202 in
      List.iter
        (fun (label, p, q) ->
          let run k =
            let targets = [| q; p; empty; full |] in
            let packed = Bitvec.Blocked.pack ~block_size:3 targets in
            let out = Array.make 4 0 in
            k.scan packed
              ~row_n:(Array.map k.count targets)
              ~probe_count:(k.count p) p out;
            ( k.count p,
              k.inter_count p q,
              row_counts k.scan packed p,
              out )
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s len=%d" label len)
            true
            (run ref_kernel = run c_kernel))
        [
          ("full∩dense", full, a);
          ("dense∩dense", a, b);
          ("empty∩dense", empty, b);
          ("full∩full", full, full);
        ])
    ragged_lengths

(* The C scan against its SWAR twin on N-ascending layouts: rows of
   1 to 75 words, every block size from 1 to 9 (full 8-row blocks take
   the AVX2 stripes, the others the scalar loop), up to 40 rows, and
   probes with runs of zero words. Rows are random of any density, or
   the probe plus one or two bits (N - M + 1 is 2 or 3 and N ties
   often, so a block's bound often equals the best), or, in half the
   cases, also the probe less a few bits (N - M + 1 = 1 with N below
   |probe|, where only the best-of-1 rule stops the scan). *)
let scan_layout_gen =
  QCheck.make
    ~print:(fun (words, bs, rows, seed) ->
      Printf.sprintf "words=%d block_size=%d rows=%d seed=%d" words bs rows
        seed)
    QCheck.Gen.(
      quad (int_range 1 75) (int_range 1 9) (int_range 0 40)
        (int_bound 100_000))

let random_row rng len ~zero_words =
  let density = Rng.int rng ~bound:17 in
  let v = Bitvec.create len in
  for i = 0 to len - 1 do
    if Rng.int rng ~bound:16 < density then Bitvec.set v i
  done;
  if zero_words then
    for w = 0 to Bitvec.word_length v - 1 do
      if Rng.bool rng then Bitvec.unsafe_set_word v w 0
    done;
  v

let prop_scan_twin =
  QCheck.Test.make ~name:"Blocked.scan = SWAR twin (ragged, exit rule)"
    ~count:200 scan_layout_gen (fun (words, block_size, rows, seed) ->
      let rng = Rng.create ~seed in
      let len = ((words - 1) * 62) + 1 + Rng.int rng ~bound:62 in
      let probe = random_row rng len ~zero_words:true in
      let members = Array.of_list (Bitvec.to_list probe) in
      let kinds = 2 + Rng.int rng ~bound:2 in
      let vecs =
        Array.init rows (fun _ ->
            let v = Bitvec.copy probe in
            match Rng.int rng ~bound:kinds with
            | 0 -> random_row rng len ~zero_words:false
            | 1 ->
              for _ = 0 to Rng.int rng ~bound:2 do
                Bitvec.set v (Rng.int rng ~bound:len)
              done;
              v
            | _ ->
              if Array.length members > 0 then
                for _ = 0 to Rng.int rng ~bound:3 do
                  Bitvec.clear v
                    members.(Rng.int rng ~bound:(Array.length members))
                done;
              v)
      in
      Array.stable_sort
        (fun a b -> Int.compare (Bitvec.count a) (Bitvec.count b))
        vecs;
      let packed = Bitvec.Blocked.pack ~block_size vecs in
      let run scan =
        let out = Array.make 4 (-1) in
        scan packed
          ~row_n:(Array.map Bitvec.count vecs)
          ~probe_count:(Bitvec.count probe) probe out;
        out
      in
      run Bitvec.Blocked.scan = run Ref_kernel.blocked_scan)

(* All-ones probes against all-ones rows: every byte of the AVX2 byte
   counters gains 8 per word, so a missed flush (every 31 nonzero
   words) would wrap past 255. One row per block size is cleared in a
   few words so the rows' counts differ. *)
let test_scan_flush () =
  List.iter
    (fun (words, ragged) ->
      let len = (words * 62) - ragged in
      let ones = Bitvec.of_list len (List.init len Fun.id) in
      let vecs =
        Array.init 16 (fun r ->
            let v = Bitvec.copy ones in
            for w = 0 to r - 1 do
              Bitvec.unsafe_set_word v (w * 3) 0
            done;
            v)
      in
      List.iter
        (fun block_size ->
          let packed = Bitvec.Blocked.pack ~block_size vecs in
          let expected = Array.to_list (Array.map Bitvec.count vecs) in
          List.iter
            (fun (name, scan) ->
              Alcotest.(check (list int))
                (Printf.sprintf "%s words=%d block_size=%d" name words
                   block_size)
                expected
                (row_counts scan packed ones))
            [ ("c", Bitvec.Blocked.scan); ("swar", Ref_kernel.blocked_scan) ])
        [ 8; 5 ])
    [ (64, 0); (65, 7); (100, 0) ]

let prop_equal_compare_hash =
  QCheck.make
    ~print:(fun ((l1, x1), (l2, x2)) ->
      Printf.sprintf "len=%d/%d |a|=%d |b|=%d" l1 l2 (List.length x1)
        (List.length x2))
    QCheck.Gen.(pair (QCheck.gen bitvec_gen) (QCheck.gen bitvec_gen))
  |> fun arb ->
  QCheck.Test.make ~name:"equal/compare/hash consistent" ~count:300
    arb (fun ((l1, x1), (l2, x2)) ->
      let a = Bitvec.of_list l1 x1 and b = Bitvec.of_list l2 x2 in
      let eq = Bitvec.equal a b in
      eq = (Bitvec.compare a b = 0)
      && ((not eq) || Bitvec.hash a = Bitvec.hash b))

let prop_equal_reflexive =
  QCheck.Test.make ~name:"equal on copies" ~count:200 bitvec_gen
    (fun (len, xs) ->
      let a = Bitvec.of_list len xs in
      let b = Bitvec.copy a in
      Bitvec.equal a b && Bitvec.compare a b = 0 && Bitvec.hash a = Bitvec.hash b)

module Parallel = Ndetect_util.Parallel

let test_parallel_matches_sequential () =
  let arr = Array.init 1000 Fun.id in
  let f x = (x * x) + 1 in
  List.iter
    (fun domains ->
      Alcotest.(check (array int))
        (Printf.sprintf "domains=%d" domains)
        (Array.map f arr)
        (Parallel.map_array ~domains f arr))
    [ 1; 2; 3; 7 ]

let test_parallel_small_arrays () =
  Alcotest.(check (array int)) "empty" [||] (Parallel.map_array succ [||]);
  Alcotest.(check (array int)) "singleton" [| 2 |]
    (Parallel.map_array succ [| 1 |])

let test_parallel_init () =
  Alcotest.(check (array int)) "init" [| 0; 2; 4; 6; 8 |]
    (Parallel.init ~domains:2 5 (fun i -> 2 * i))

exception Boom

let test_parallel_propagates_exception () =
  let arr = Array.init 100 Fun.id in
  Alcotest.check_raises "raises" Boom (fun () ->
      ignore
        (Parallel.map_array ~domains:4
           (fun x -> if x = 57 then raise Boom else x)
           arr))

(* The caller's chunk fails at once while every other chunk is still
   working: the raise must wait until each domain has finished its
   chunk, so every item outside the failing chunk has run. *)
let test_map_array_joins_before_raising () =
  let n = 64 and domains = 4 in
  let done_ = Array.init n (fun _ -> Atomic.make false) in
  let raised =
    try
      ignore
        (Parallel.map_array ~domains
           (fun x ->
             if x = 0 then raise Boom;
             Unix.sleepf 0.002;
             Atomic.set done_.(x) true;
             x)
           (Array.init n Fun.id));
      false
    with Boom -> true
  in
  Alcotest.(check bool) "raised" true raised;
  let chunk = n / domains in
  for x = chunk to n - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "item %d finished" x)
      true (Atomic.get done_.(x))
  done

let test_map_array_reraises_lowest_index () =
  (* With several failing items, the raising wrapper must surface the
     lowest-index one regardless of domain scheduling. *)
  let arr = Array.init 200 Fun.id in
  Alcotest.(check bool) "lowest index wins" true
    (try
       ignore
         (Parallel.map_array ~domains:7
            (fun x -> if x = 23 || x = 150 then failwith (string_of_int x) else x)
            arr);
       false
     with Failure m -> m = "23")

(* The map_array failure contract: over an arbitrary failing subset and
   any domain count, the raised exception is the lowest failing index's;
   with no failure the result is the sequential map. *)
let failing_subset_gen =
  QCheck.make
    ~print:(fun (n, domains, fails) ->
      Printf.sprintf "n=%d domains=%d fails={%s}" n domains
        (String.concat ";" (List.map string_of_int fails)))
    QCheck.Gen.(
      int_range 0 64 >>= fun n ->
      int_range 1 8 >>= fun domains ->
      list_size (int_range 0 12) (int_range 0 (max 0 (n - 1)))
      >|= fun fails -> (n, domains, List.sort_uniq Int.compare fails))

let prop_map_array_lowest_failure =
  QCheck.Test.make ~name:"map_array raises the lowest failing index"
    ~count:100 failing_subset_gen (fun (n, domains, fails) ->
      let fails = List.filter (fun i -> i < n) fails in
      match
        Parallel.map_array ~domains
          (fun x ->
            if List.mem x fails then failwith (string_of_int x) else 2 * x)
          (Array.init n Fun.id)
      with
      | results -> fails = [] && results = Array.init n (fun i -> 2 * i)
      | exception Failure m -> (
        match fails with
        | lowest :: _ -> m = string_of_int lowest
        | [] -> false))

(* Record container: a fuzzed decoder never raises, and accepts bytes
   only when they are exactly what [encode] wrote. *)

module Record = Ndetect_util.Record

type mutation = Truncate of int | Overwrite of int * char | Flip of int * int

let record_gen =
  let open QCheck.Gen in
  let token chars = string_size ~gen:(oneofl chars) (int_range 1 12) in
  let lower = List.init 26 (fun i -> Char.chr (97 + i)) in
  let key_chars = lower @ [ '0'; '7'; 'f'; '-'; '+'; '_'; '.'; ':' ] in
  (* Empty, word-multiple and ragged payloads, including non-ASCII. *)
  let payload =
    frequency
      [ (1, return "");
        (1, string_size ~gen:char (map (( * ) 8) (int_range 1 8)));
        (4, string_size ~gen:char (int_range 1 70)) ]
  in
  token lower >>= fun kind ->
  token key_chars >>= fun key ->
  payload >>= fun payload ->
  let raw = Record.encode ~kind ~key payload in
  let n = String.length raw in
  oneof
    [ map (fun cut -> Truncate cut) (int_range 0 (n - 1));
      map2 (fun pos c -> Overwrite (pos, c)) (int_range 0 (n - 1)) char;
      map2
        (fun pos bit -> Flip (pos, bit))
        (int_range 0 (n - 1))
        (int_range 0 7) ]
  >|= fun m -> (kind, key, payload, m)

let mutate raw = function
  | Truncate cut -> String.sub raw 0 cut
  | Overwrite (pos, c) -> String.mapi (fun i x -> if i = pos then c else x) raw
  | Flip (pos, bit) ->
    String.mapi
      (fun i x ->
        if i = pos then Char.chr (Char.code x lxor (1 lsl bit)) else x)
      raw

let prop_record_roundtrip =
  QCheck.Test.make ~name:"Record.decode (encode p) = Ok p" ~count:300
    (QCheck.make record_gen) (fun (kind, key, payload, _) ->
      let raw = Record.encode ~kind ~key payload in
      Record.decode ~kind ~key raw = Ok payload
      && Record.decode ~kind:(kind ^ "x") ~key raw = Error Record.Damaged
      && Record.decode ~kind ~key:(key ^ "x") raw = Error Record.Damaged)

let prop_record_mutations =
  QCheck.Test.make ~name:"Record.decode rejects every mutation" ~count:1000
    (QCheck.make
       ~print:(fun (kind, key, payload, m) ->
         Printf.sprintf "kind=%S key=%S payload=%S %s" kind key payload
           (match m with
           | Truncate cut -> Printf.sprintf "truncate %d" cut
           | Overwrite (pos, c) -> Printf.sprintf "overwrite %d %C" pos c
           | Flip (pos, bit) -> Printf.sprintf "flip %d bit %d" pos bit))
       record_gen)
    (fun (kind, key, payload, m) ->
      let raw = Record.encode ~kind ~key payload in
      let damaged = mutate raw m in
      match Record.decode ~kind ~key damaged with
      | Ok p -> damaged = raw && p = payload
      | Error _ -> damaged <> raw)

(* The writer-side digest is the C pass's function: equal on every
   payload of 62-bit words, whatever its length mod 4. *)
let prop_record_digest_matches_kernel =
  QCheck.Test.make ~name:"Record.digest = Kernel.verify_region" ~count:200
    QCheck.(array_of_size Gen.(int_range 0 40) (int_bound max_int))
    (fun words ->
      let n = Array.length words in
      let bytes = Bytes.create (8 * n) in
      Array.iteri
        (fun i w -> Bytes.set_int64_le bytes (8 * i) (Int64.of_int w))
        words;
      let buf = Bigarray.(Array1.of_array int c_layout words) in
      Ndetect_util.Kernel.verify_region buf ~off:0 n
      = Some (Record.digest (Bytes.to_string bytes)))

let test_record_versions () =
  let raw = Record.encode ~kind:"t" ~key:"k" "payload" in
  let with_version v =
    "ndetect-t\n" ^ v ^ String.sub raw 11 (String.length raw - 11)
  in
  Alcotest.(check bool) "newer version is Future" true
    (Record.decode ~kind:"t" ~key:"k" (with_version "5") = Error Record.Future);
  Alcotest.(check bool) "older version is Damaged" true
    (Record.decode ~kind:"t" ~key:"k" (with_version "3")
    = Error Record.Damaged);
  Alcotest.(check bool) "spaces in a key are refused" true
    (match Record.encode ~kind:"t" ~key:"a b" "" with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* The fused AND+hash kernel against its OCaml twin, on 1-70 words with
   every tail length mod 4, and on products that are empty because one
   operand is empty or the operands are complements. *)
let hash_case_gen =
  QCheck.make
    ~print:(fun (words, tail, mode, sa, sb) ->
      Printf.sprintf "words=%d tail=%d mode=%d seeds=%d/%d" words tail mode sa
        sb)
    QCheck.Gen.(
      map
        (fun ((words, tail, mode), (sa, sb)) -> (words, tail, mode, sa, sb))
        (pair
           (triple (int_range 1 70) (int_range 1 62) (int_bound 3))
           (pair (int_bound 10_000) (int_bound 10_000))))

let prop_inter_hash_twin =
  QCheck.Test.make ~name:"inter_hash_into = Ref_kernel twin = hash dst"
    ~count:400 hash_case_gen (fun (words, tail, mode, sa, sb) ->
      let len = (62 * (words - 1)) + tail in
      let a = dense_of_seed len sa in
      let b =
        match mode with
        | 0 -> Bitvec.create len
        | 1 ->
          let c = Bitvec.create len in
          for i = 0 to len - 1 do
            if not (Bitvec.get a i) then Bitvec.set c i
          done;
          c
        | _ -> dense_of_seed len sb
      in
      let dst = Bitvec.create len and ref_dst = Bitvec.create len in
      let h = Bitvec.inter_hash_into dst a b in
      let ref_h = Ref_kernel.inter_hash_into ref_dst a b in
      Bitvec.equal dst ref_dst
      && Bitvec.equal dst (Bitvec.inter a b)
      && h = ref_h
      &&
      if Bitvec.is_empty dst then h = -1
      else h = Bitvec.hash dst && h >= 0)

(* Class ids from the index, against first-seen numbering by a linear
   scan with [Bitvec.equal]. A small content pool makes repeats common. *)
let index_case_gen =
  QCheck.make
    ~print:(fun xs -> Printf.sprintf "%d vectors" (List.length xs))
    QCheck.Gen.(
      list_size (int_range 0 200)
        (list_size (int_range 0 3) (int_range 0 69)))

let naive_classes vecs =
  let seen = ref [] in
  List.map
    (fun v ->
      let rec find i = function
        | [] ->
          seen := !seen @ [ v ];
          i
        | w :: rest -> if Bitvec.equal v w then i else find (i + 1) rest
      in
      find 0 !seen)
    vecs,
  seen

let prop_index_first_seen =
  QCheck.Test.make ~name:"Index classes = naive first-seen (forced hashes)"
    ~count:200 index_case_gen (fun xs ->
      let vecs = List.map (Bitvec.of_list 70) xs in
      let expected, distinct = naive_classes vecs in
      let classes_with add =
        let index = Bitvec.Index.create 4 in
        let ids = List.map (add index) vecs in
        ( ids,
          Array.to_list (Bitvec.Index.to_array index),
          Bitvec.Index.classes index )
      in
      let agrees (ids, reps, count) =
        ids = expected
        && List.equal Bitvec.equal reps !distinct
        && count = List.length !distinct
      in
      agrees (classes_with (fun index -> Bitvec.Index.add index))
      && agrees (classes_with (fun index -> Bitvec.Index.add ~hash:0 index))
      && agrees (classes_with (fun index -> Bitvec.Index.add ~hash:(-1) index)))

let test_index_copy_on_miss () =
  let index = Bitvec.Index.create 1 in
  let scratch = Bitvec.of_list 70 [ 3 ] in
  let c = Bitvec.Index.add ~copy:true index scratch in
  Bitvec.set scratch 5;
  Alcotest.(check (list int))
    "representative is a copy" [ 3 ]
    (Bitvec.to_list (Bitvec.Index.to_array index).(c));
  Alcotest.(check int) "new content, new class" 1
    (Bitvec.Index.add ~copy:true index scratch)

(* The index masks the low bits of the hash, so vectors differing only
   in bits 14-30 of one word must still spread over the low 10 bits.
   A serial FNV chain carries differences only upwards and puts all of
   these in one bucket. *)
let test_hash_spread () =
  let buckets_of ~words ~word =
    let seen = Hashtbl.create 1024 in
    for i = 0 to 2047 do
      let v = Bitvec.create (62 * words) in
      for w = 0 to words - 1 do
        Bitvec.unsafe_set_word v w 0x2A5
      done;
      Bitvec.unsafe_set_word v word (0x2A5 lor ((i * 37 land 0x1FFFF) lsl 14));
      Hashtbl.replace seen (Bitvec.hash v land 1023) ()
    done;
    Hashtbl.length seen
  in
  List.iter
    (fun (words, word) ->
      let buckets = buckets_of ~words ~word in
      Alcotest.(check bool)
        (Printf.sprintf "2048 vectors, word %d of %d: %d of 1024 buckets" word
           words buckets)
        true (buckets >= 700))
    [ (1, 0); (5, 2); (9, 8) ]

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "bound one" `Quick test_rng_int_bound_one;
          Alcotest.test_case "bound zero rejected" `Quick
            test_rng_int_rejects_zero;
          Alcotest.test_case "uniformity" `Quick test_rng_uniformity;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "shuffle permutes" `Quick
            test_rng_shuffle_permutation;
          Helpers.qcheck prop_rng_stream_is_kth_split;
          Alcotest.test_case "pinned stream" `Quick test_rng_pinned;
          Alcotest.test_case "int allocates nothing" `Quick
            test_rng_int_no_alloc;
        ] );
      ( "bitvec",
        [
          Alcotest.test_case "basics" `Quick test_bitvec_basics;
          Alcotest.test_case "bounds" `Quick test_bitvec_bounds;
          Alcotest.test_case "nth_diff not found" `Quick
            test_nth_diff_not_found;
          Alcotest.test_case "union in place" `Quick test_union_in_place;
          Alcotest.test_case "length mismatch" `Quick test_length_mismatch;
          Alcotest.test_case "pooled create_many" `Quick test_create_many;
          Helpers.qcheck prop_inter_count;
          Helpers.qcheck prop_diff_and_union;
          Helpers.qcheck prop_nth_diff;
          Helpers.qcheck prop_diff_desc_into;
          Helpers.qcheck prop_nth_set;
        ] );
      ( "bitvec kernels",
        [
          Helpers.qcheck prop_count_naive;
          Helpers.qcheck prop_iter_set_order;
          Helpers.qcheck prop_blocked_row_counts;
          Helpers.qcheck prop_dense_inter_count;
          Helpers.qcheck prop_dense_blocked;
          Helpers.qcheck prop_scan_twin;
          Alcotest.test_case "Blocked.scan all-ones flush" `Quick
            test_scan_flush;
          Alcotest.test_case "empty sets (all kernels)" `Quick
            (test_intersection_kernels_empty_sets c_kernel);
          Helpers.qcheck prop_equal_compare_hash;
          Helpers.qcheck prop_equal_reflexive;
        ] );
      ( "kernel backends",
        List.concat_map
          (fun kernel -> List.map Helpers.qcheck (kernel_props kernel))
          kernels
        @ List.map
            (fun (name, k) ->
              Alcotest.test_case
                (Printf.sprintf "empty sets [%s]" name)
                `Quick
                (test_intersection_kernels_empty_sets k))
            kernels
        @ [
            Alcotest.test_case "swar and c agree on edge inputs" `Quick
              test_kernels_agree;
          ] );
      ( "content index",
        [
          Helpers.qcheck prop_inter_hash_twin;
          Helpers.qcheck prop_index_first_seen;
          Alcotest.test_case "copy on miss" `Quick test_index_copy_on_miss;
          Alcotest.test_case "hash spreads high-bit differences" `Quick
            test_hash_spread;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "matches sequential" `Quick
            test_parallel_matches_sequential;
          Alcotest.test_case "small arrays" `Quick test_parallel_small_arrays;
          Alcotest.test_case "init" `Quick test_parallel_init;
          Alcotest.test_case "exception propagation" `Quick
            test_parallel_propagates_exception;
          Alcotest.test_case "map_array joins before raising" `Quick
            test_map_array_joins_before_raising;
          Alcotest.test_case "lowest failing index re-raised" `Quick
            test_map_array_reraises_lowest_index;
          Helpers.qcheck prop_map_array_lowest_failure;
        ] );
      ( "record",
        [
          Helpers.qcheck prop_record_roundtrip;
          Helpers.qcheck prop_record_mutations;
          Helpers.qcheck prop_record_digest_matches_kernel;
          Alcotest.test_case "versions and key tokens" `Quick
            test_record_versions;
        ] );
    ]
