module Supervise = Ndetect_util.Supervise

let default_lease_secs = 30.0

(* Result write happens before claim release: a kill in between leaves
   a resolved unit under a stale claim, which the coordinator's lease
   sweep clears without re-running anything. The opposite order could
   lose a computed result to a racing claimant. *)
let execute ?(retries = 2) ledger ~worker (u : Spec.t) =
  let outcome =
    Supervise.run ~retries ~backoff:0.05 (fun cancel ->
        let result =
          Spec.compute ~cancel ~tables_dir:(Ledger.tables_dir ledger)
            (Ledger.campaign ledger) u
        in
        ignore (Ledger.write_result ledger ~worker u result))
  in
  match outcome with
  | Ok () ->
    Ledger.release ledger u;
    `Completed
  | Error failure ->
    if Supervise.terminating () then (
      Ledger.release ledger u;
      `Terminating)
    else (
      let reason =
        Printf.sprintf "worker %s: %s" worker (Supervise.describe failure)
      in
      Ledger.record_failure ledger ~worker u reason;
      Ledger.release ledger u;
      `Failed reason)

(* Claiming goes through the supervisor too, so an injected I/O fault
   on "ledger:claim" exercises the same retry policy as the result
   path; a claim that still fails is simply not ours this sweep. *)
let try_claim ledger ~worker u =
  match Supervise.run ~retries:2 ~backoff:0.05 (fun _ -> Ledger.claim ledger ~worker u) with
  | Ok claimed -> claimed
  | Error _ -> false

(* The seal and the generation count are read before the units: a unit
   list read earlier can predate the last generation, whose open units
   it would not show. *)
let drained ledger =
  match Ledger.sealed_gens ledger with
  | Some gens when Ledger.generations ledger >= gens ->
    List.for_all (Ledger.resolved ledger) (Ledger.units ledger)
  | _ -> false

let run ?(retries = 2) ?(lease_secs = default_lease_secs)
    ?(poll_interval = 0.05) ~dir ~worker_id () =
  Supervise.install_sigterm ();
  match Ledger.open_existing ~dir with
  | Error e ->
    Printf.eprintf "ndetect worker %s: %s\n%!" worker_id e;
    1
  | Ok ledger ->
    (* The first heartbeat is synchronous: its presence is how the
       coordinator distinguishes a worker that came up from a spawn
       that failed before reaching us. *)
    Ledger.heartbeat ledger ~worker:worker_id;
    let stop = Atomic.make false in
    let hb_interval = max 0.02 (lease_secs /. 4.0) in
    let hb_domain =
      Domain.spawn (fun () ->
          (* Sleep in short slices so [stop] is honoured promptly even
             under a long lease. *)
          let rec sleep remaining =
            if remaining > 0.0 && not (Atomic.get stop) then (
              Unix.sleepf (Float.min 0.05 remaining);
              sleep (remaining -. 0.05))
          in
          while not (Atomic.get stop) do
            (try Ledger.heartbeat ledger ~worker:worker_id with _ -> ());
            sleep hb_interval
          done)
    in
    let finish code =
      Atomic.set stop true;
      Domain.join hb_domain;
      code
    in
    let rec loop () =
      if Supervise.terminating () then finish Supervise.sigterm_exit_code
      else
        let units = Ledger.units ledger in
        let progressed = ref false in
        let sigterm = ref false in
        List.iter
          (fun u ->
            if (not !sigterm) && not (Supervise.terminating ()) then
              if
                (not (Ledger.resolved ledger u))
                && try_claim ledger ~worker:worker_id u
              then (
                progressed := true;
                match execute ~retries ledger ~worker:worker_id u with
                | `Completed | `Failed _ -> ()
                | `Terminating -> sigterm := true))
          units;
        if !sigterm || Supervise.terminating () then
          finish Supervise.sigterm_exit_code
        else if drained ledger then finish 0
        else begin
          if not !progressed then Unix.sleepf poll_interval;
          loop ()
        end
    in
    loop ()
