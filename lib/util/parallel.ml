let default_domains () =
  min 8 (max 1 (Domain.recommended_domain_count () - 1))

let max_domains = 64

(* Shared chunked runner. [f] is wrapped so a per-item exception (with
   its backtrace) lands in that item's slot instead of poisoning the
   whole array: a worker domain always runs its chunk to completion and
   join never raises. *)
let capture f x =
  match f x with
  | v -> Ok v
  | exception e -> Error (e, Printexc.get_raw_backtrace ())

let map_captured ?domains f arr =
  let n = Array.length arr in
  let domains =
    match domains with Some d -> max 1 d | None -> default_domains ()
  in
  let domains = min domains (n / 2) in
  if domains <= 1 || n < 4 then Array.map (capture f) arr
  else begin
    (* Results land in a preallocated array: each domain owns a disjoint
       index range, so unsynchronized writes are safe. *)
    let results = Array.make n None in
    let chunk = (n + domains - 1) / domains in
    let worker d () =
      let lo = d * chunk in
      let hi = min n (lo + chunk) - 1 in
      for i = lo to hi do
        results.(i) <- Some (capture f arr.(i))
      done
    in
    (* A spawn can fail (the runtime caps the live domains); the ones
       already running are joined before the failure is re-raised, so
       none outlives the call. *)
    let spawned = ref [] in
    (try
       for d = 1 to domains - 1 do
         spawned := Domain.spawn (worker d) :: !spawned
       done
     with e ->
       let backtrace = Printexc.get_raw_backtrace () in
       List.iter Domain.join !spawned;
       Printexc.raise_with_backtrace e backtrace);
    worker 0 ();
    List.iter Domain.join !spawned;
    Array.map
      (function
        | Some v -> v
        | None -> invalid_arg "Parallel.map_array: missing result")
      results
  end

let try_map_array ?domains f arr =
  map_captured ?domains f arr
  |> Array.map (function
       | Ok v -> Ok v
       | Error (e, backtrace) -> Error (Error.of_exn ~backtrace e))

let map_array ?domains f arr =
  let captured = map_captured ?domains f arr in
  (* Re-raise the lowest-index failure with its original backtrace, after
     every domain has been joined. *)
  Array.iter
    (function
      | Error (e, bt) -> Printexc.raise_with_backtrace e bt
      | Ok _ -> ())
    captured;
  Array.map (function Ok v -> v | Error _ -> assert false) captured

let init ?domains n f =
  map_array ?domains f (Array.init n Fun.id)
