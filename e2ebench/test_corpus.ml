(* Corpus generation is a function of the seed alone, and every answer a
   seed can ask for is pinned. Run by `dune runtest`. *)

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("test_corpus: " ^ m); exit 1) fmt

let keys w ~seed = List.map Corpus.key (Corpus.requests w ~seed)

let () =
  List.iter
    (fun (name, w) ->
      for seed = 1 to 50 do
        let ks = keys w ~seed in
        if ks <> keys w ~seed then fail "%s: seed %d is not deterministic" name seed;
        List.iter
          (fun k ->
            if not (List.mem_assoc k Pins.pins) then
              fail "%s: seed %d asks for unpinned %S" name seed k)
          ks
      done)
    Corpus.workloads;
  (* serve-mixed: the seed draws the order of one fixed Zipf multiset. *)
  let n = List.length Corpus.serve_circuits and total = Corpus.serve_requests in
  let s1 = Corpus.zipf_sequence ~seed:1 ~n ~total in
  let s2 = Corpus.zipf_sequence ~seed:2 ~n ~total in
  if s1 <> Corpus.zipf_sequence ~seed:1 ~n ~total then fail "zipf: not deterministic";
  if s1 = s2 then fail "zipf: seeds 1 and 2 give the same sequence";
  let sorted a = List.sort compare (Array.to_list a) in
  if sorted s1 <> sorted s2 then fail "zipf: the multiset depends on the seed";
  let quotas = Corpus.zipf_quotas ~n ~total in
  if Array.fold_left ( + ) 0 quotas <> total then fail "zipf: quotas do not sum";
  Array.iteri
    (fun i q ->
      if q < 1 then fail "zipf: rank %d is never requested" i;
      if i > 0 && q > quotas.(i - 1) then fail "zipf: rank %d outdraws rank %d" i (i - 1))
    quotas;
  if keys Corpus.Exhaustive_large ~seed:1 = keys Corpus.Exhaustive_large ~seed:2
     && keys Corpus.Sampled_wide ~seed:1 = keys Corpus.Sampled_wide ~seed:2
  then fail "batch corpora ignore the seed";
  (* The workload digest is over request-index slots: answers filled in
     completion order give the digest of the index order, not of the
     completion order. *)
  let answers = [| "a"; "b"; "c"; "d" |] and completion = [ 2; 0; 3; 1 ] in
  let slots = Array.make 4 "" in
  List.iter (fun i -> slots.(i) <- answers.(i)) completion;
  if Corpus.workload_digest slots <> Corpus.workload_digest answers then
    fail "digest: slot filling changed the digest";
  if
    Corpus.workload_digest (Array.of_list (List.map (Array.get answers) completion))
    = Corpus.workload_digest answers
  then fail "digest: insensitive to order";
  print_endline "test_corpus: OK"
