let default_domains () =
  min 8 (max 1 (Domain.recommended_domain_count () - 1))

let max_domains = 64

(* Each domain maps one contiguous chunk and stops at its first
   failure, which it hands back with its backtrace. Chunks are in index
   order, so the first failed chunk holds the lowest failing index. *)
let map_array ?domains f arr =
  let n = Array.length arr in
  let domains =
    match domains with Some d -> max 1 d | None -> default_domains ()
  in
  let domains = min domains (n / 2) in
  if domains <= 1 || n < 4 then Array.map f arr
  else begin
    let chunk = (n + domains - 1) / domains in
    let worker d () =
      let lo = min n (d * chunk) in
      let len = min n (lo + chunk) - lo in
      match Array.init len (fun i -> f arr.(lo + i)) with
      | mapped -> Ok mapped
      | exception e -> Error (e, Printexc.get_raw_backtrace ())
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
       List.iter (fun d -> ignore (Domain.join d)) !spawned;
       Printexc.raise_with_backtrace e backtrace);
    let first = worker 0 () in
    let chunks = first :: List.rev_map Domain.join !spawned in
    Array.concat
      (List.map
         (function
           | Ok mapped -> mapped
           | Error (e, backtrace) -> Printexc.raise_with_backtrace e backtrace)
         chunks)
  end

let init ?domains n f =
  map_array ?domains f (Array.init n Fun.id)
