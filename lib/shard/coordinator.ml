module Supervise = Ndetect_util.Supervise
module Telemetry = Ndetect_util.Telemetry
module Rng = Ndetect_util.Rng
module Clock = Ndetect_util.Clock

let c_reassigned = Telemetry.Counter.create "shard.reassigned"
let c_poisoned = Telemetry.Counter.create "shard.poisoned"
let c_spec_wins = Telemetry.Counter.create "shard.speculative_wins"

type config = {
  ledger_dir : string;
  workers : int;
  lease_secs : float;
  max_unit_retries : int;
  chaos : bool;
  chaos_seed : int;
  worker_cmd : string array option;
  inject : string option;
  max_wall_secs : float option;
  log : string -> unit;
}

let default_config ~ledger_dir =
  {
    ledger_dir;
    workers = 2;
    lease_secs = Worker.default_lease_secs;
    max_unit_retries = 3;
    chaos = false;
    chaos_seed = 1;
    worker_cmd = None;
    inject = None;
    max_wall_secs = None;
    log = (fun line -> Printf.eprintf "%s\n%!" line);
  }

type outcome = {
  report : string;
  failed_circuits : int;
  poisoned_units : (string * string) list;
  reassigned : int;
  speculative_wins : int;
  poisoned_count : int;
  ledger_corrupt : int;
  spawn_failures : int;
  chaos_kills : int;
  workers_spawned : int;
}

type wstate = {
  pid : int;
  wid : string;
  mutable chaos_killed : bool;  (** SIGKILLed by the chaos engine. *)
  mutable hung : bool;  (** SIGKILLed by lease enforcement. *)
  mutable stopped_until : float;  (** Chaos-stall deadline; [0.] = running. *)
}

let inline_worker = "coordinator"
let tick_secs = 0.02
let max_chaos_kills = 2
let straggler_leases = 3.0
let shutdown_grace_secs = 2.0

let describe_status = function
  | Unix.WEXITED code -> Printf.sprintf "exited %d" code
  | Unix.WSIGNALED s -> Printf.sprintf "killed by signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped by signal %d" s

let kill_quiet pid signal =
  try Unix.kill pid signal with Unix.Unix_error _ -> ()

let run cfg campaign =
  match Ledger.create ~dir:cfg.ledger_dir campaign with
  | Error e -> Error e
  | Ok ledger ->
    Supervise.install_sigterm ();
    let corrupt_before = Telemetry.counter_value Ledger.corrupt_counter in
    let reassigned_before = Telemetry.Counter.value c_reassigned in
    let poisoned_before = Telemetry.Counter.value c_poisoned in
    let spec_before = Telemetry.Counter.value c_spec_wins in
    let rng = Rng.create ~seed:cfg.chaos_seed in
    let fleet = ref [] in
    let next_worker = ref 0 in
    let workers_spawned = ref 0 in
    let spawn_failures = ref 0 in
    let fleet_target = ref (max 0 cfg.workers) in
    let spawn_budget = ref ((max 1 cfg.workers * 8) + 8) in
    let chaos_kills = ref 0 in
    let spec_origin : (string, string) Hashtbl.t = Hashtbl.create 16 in
    let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
    let started = Clock.now () in
    let last_progress = ref 0.0 in

    let unit_by_id () =
      let tbl = Hashtbl.create 64 in
      List.iter (fun (u : Spec.t) -> Hashtbl.replace tbl u.id u) (Ledger.units ledger);
      tbl
    in

    (* Release every claim the worker held, counting reassignments of
       units that still need work and — unless the death was
       chaos-inflicted — leaving a failure row against each of them. *)
    let release_holdings ~attribute_crash ~reason wid =
      let tbl = unit_by_id () in
      List.iter
        (fun (uid, worker, _age) ->
          if worker = wid then
            match Hashtbl.find_opt tbl uid with
            | None -> ()
            | Some u ->
              (* Read before the release: once the claim is gone another
                 worker may resolve the unit at once, and a claim that
                 was stranded still counts as reassigned. *)
              let unresolved = not (Ledger.resolved ledger u) in
              Ledger.release ledger u;
              if unresolved then (
                Telemetry.Counter.incr c_reassigned;
                if attribute_crash then
                  Ledger.record_failure ledger ~worker:wid u reason))
        (Ledger.claims ledger)
    in

    let handle_death w status =
      if w.chaos_killed || w.stopped_until > 0.0 then
        release_holdings ~attribute_crash:false ~reason:"" w.wid
      else if w.hung then
        release_holdings ~attribute_crash:true
          ~reason:
            (Printf.sprintf "worker %s hung (heartbeat older than lease)" w.wid)
          w.wid
      else
        match status with
        | Unix.WEXITED 0 ->
          release_holdings ~attribute_crash:false ~reason:"" w.wid
        | Unix.WEXITED code when code = Supervise.sigterm_exit_code ->
          release_holdings ~attribute_crash:false ~reason:"" w.wid
        | Unix.WEXITED 127 when Ledger.heartbeat_age ledger ~worker:w.wid = None
          ->
          (* The exec never happened: a spawn failure, not a crash.
             Shrink the fleet rather than respawn-looping. *)
          incr spawn_failures;
          fleet_target := max 0 (!fleet_target - 1);
          cfg.log
            (Printf.sprintf
               "campaign: worker spawn failed; degrading fleet to %d"
               !fleet_target)
        | status ->
          release_holdings ~attribute_crash:true
            ~reason:
              (Printf.sprintf "worker %s died (%s)" w.wid
                 (describe_status status))
            w.wid
    in

    let reap () =
      fleet :=
        List.filter
          (fun w ->
            match Unix.waitpid [ Unix.WNOHANG ] w.pid with
            | 0, _ -> true
            | _, status ->
              handle_death w status;
              false
            | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
              handle_death w (Unix.WEXITED 0);
              false)
          !fleet
    in

    let spawn_worker () =
      let wid = Printf.sprintf "w%d" !next_worker in
      incr next_worker;
      let base =
        match cfg.worker_cmd with
        | Some argv -> argv
        | None -> [| Sys.executable_name; "worker" |]
      in
      let argv =
        Array.concat
          [
            base;
            [|
              "--ledger"; cfg.ledger_dir; "--worker-id"; wid; "--lease-secs";
              Printf.sprintf "%g" cfg.lease_secs;
            |];
            (match cfg.inject with
            | Some spec -> [| "--inject"; spec |]
            | None -> [||]);
          ]
      in
      match
        (* Workers write progress to stderr only; their stdout is
           folded into stderr so the campaign's stdout stays exactly
           the merged report. *)
        Unix.create_process argv.(0) argv devnull Unix.stderr Unix.stderr
      with
      | pid ->
        incr workers_spawned;
        decr spawn_budget;
        fleet :=
          { pid; wid; chaos_killed = false; hung = false; stopped_until = 0.0 }
          :: !fleet
      | exception Unix.Unix_error (err, _, _) ->
        incr spawn_failures;
        decr spawn_budget;
        fleet_target := max 0 (!fleet_target - 1);
        cfg.log
          (Printf.sprintf
             "campaign: cannot spawn worker (%s); degrading fleet to %d"
             (Unix.error_message err) !fleet_target)
    in

    let lease_sweep () =
      List.iter
        (fun w ->
          if w.stopped_until = 0.0 && not (w.hung || w.chaos_killed) then
            match Ledger.heartbeat_age ledger ~worker:w.wid with
            | Some age when age > cfg.lease_secs ->
              w.hung <- true;
              kill_quiet w.pid Sys.sigkill
            | _ -> ())
        !fleet
    in

    (* Claims by workers of this fleet are handled via reap/lease; a
       claim under any other name is an orphan of a previous run (or
       of this process's inline executor dying mid-unit — impossible,
       it is synchronous) and expires with its heartbeat. *)
    let orphan_sweep () =
      let tbl = unit_by_id () in
      List.iter
        (fun (uid, worker, _age) ->
          let live = List.exists (fun w -> w.wid = worker) !fleet in
          if (not live) && worker <> inline_worker then
            let fresh =
              match Ledger.heartbeat_age ledger ~worker with
              | Some age -> age <= cfg.lease_secs
              | None -> false
            in
            if not fresh then
              match Hashtbl.find_opt tbl uid with
              | None -> ()
              | Some u ->
                let unresolved = not (Ledger.resolved ledger u) in
                Ledger.release ledger u;
                if unresolved then Telemetry.Counter.incr c_reassigned)
        (Ledger.claims ledger)
    in

    let straggler_sweep () =
      let tbl = unit_by_id () in
      List.iter
        (fun (uid, worker, age) ->
          if
            age > straggler_leases *. cfg.lease_secs
            && List.exists
                 (fun w -> w.wid = worker && w.stopped_until = 0.0 && not w.hung)
                 !fleet
          then
            match Hashtbl.find_opt tbl uid with
            | None -> ()
            | Some u ->
              if not (Ledger.resolved ledger u) then (
                (* The original keeps computing without its claim; a
                   second executor races it and the first identical
                   result wins. *)
                Ledger.release ledger u;
                Hashtbl.replace spec_origin uid worker;
                cfg.log
                  (Printf.sprintf
                     "campaign: speculating %s (claim held %.0fs by %s)" uid
                     age worker)))
        (Ledger.claims ledger)
    in

    let speculation_accounting () =
      let tbl = unit_by_id () in
      Hashtbl.iter
        (fun uid origin ->
          match Hashtbl.find_opt tbl uid with
          | None -> Hashtbl.remove spec_origin uid
          | Some u ->
            if Ledger.resolved ledger u then (
              (match Ledger.read_result ledger u with
              | Some (winner, _) when winner <> origin ->
                Telemetry.Counter.incr c_spec_wins
              | _ -> ());
              Hashtbl.remove spec_origin uid))
        (Hashtbl.copy spec_origin)
    in

    let poison_sweep () =
      List.iter
        (fun u ->
          if not (Ledger.resolved ledger u) then
            let fails = Ledger.failures ledger u in
            if List.length fails >= cfg.max_unit_retries then (
              Ledger.poison ledger u ~reasons:fails;
              Telemetry.Counter.incr c_poisoned;
              cfg.log
                (Printf.sprintf "campaign: poisoned %s after %d failed attempts"
                   u.Spec.id (List.length fails))))
        (Ledger.units ledger)
    in

    let supervised_write label f =
      match Supervise.run ~retries:2 ~backoff:0.05 (fun _ -> f ()) with
      | Ok () -> true
      | Error failure ->
        cfg.log
          (Printf.sprintf "campaign: %s failed: %s" label
             (Supervise.describe failure));
        false
    in

    (* Sampled campaigns shard generation 1 over strata instead of
       fault blocks, and have no generation 2: the merge scans the
       concatenated sample slices directly. *)
    let sampled = Spec.estimate_spec campaign <> None in

    let worst_units_of_plans plans =
      List.concat_map
        (fun u ->
          match Ledger.read_result ledger u with
          | Some (_, Spec.Plan_result info) ->
            if sampled then
              Spec.sample_units campaign ~circuit:(Spec.circuit_of u)
                ~pi:info.pi
            else
              Spec.worst_units campaign ~circuit:(Spec.circuit_of u)
                ~untargeted:info.untargeted
          | _ -> [])
        plans
    in

    let avg_units_of plans worst =
      if sampled then []
      else
      List.concat_map
        (fun plan_u ->
          let circuit = Spec.circuit_of plan_u in
          match Ledger.read_result ledger plan_u with
          | Some (_, Spec.Plan_result info) ->
            let mine = List.filter (fun u -> Spec.circuit_of u = circuit) worst in
            if List.exists (fun u -> Ledger.poisoned ledger u <> None) mine then
              []
            else
              let nmin =
                Array.concat
                  (List.map
                     (fun u ->
                       match Ledger.read_result ledger u with
                       | Some (_, Spec.Worst_result slice) -> slice
                       | _ -> [||])
                     mine)
              in
              if Array.length nmin <> info.untargeted then []
              else
                let hard = ref [] in
                for gj = Array.length nmin - 1 downto 0 do
                  if nmin.(gj) > campaign.Spec.nmax then hard := gj :: !hard
                done;
                Spec.avg_units campaign ~circuit ~hard:(Array.of_list !hard)
          | _ -> [])
        plans
    in

    let expand () =
      if Ledger.sealed_gens ledger = None then
        match Ledger.generations ledger with
        | 0 ->
          (* units-0 was damaged and healed away; rederive it. *)
          ignore
            (supervised_write "rewrite generation 0" (fun () ->
                 Ledger.write_units ledger ~gen:0 (Spec.plan_units campaign)))
        | 1 -> (
          match Ledger.read_units ledger ~gen:0 with
          | Some plans when List.for_all (Ledger.resolved ledger) plans ->
            ignore
              (supervised_write "write generation 1" (fun () ->
                   Ledger.write_units ledger ~gen:1 (worst_units_of_plans plans)))
          | _ -> ())
        | 2 -> (
          match (Ledger.read_units ledger ~gen:0, Ledger.read_units ledger ~gen:1)
          with
          | Some plans, Some worst
            when List.for_all (Ledger.resolved ledger) plans
                 && List.for_all (Ledger.resolved ledger) worst ->
            if
              supervised_write "write generation 2" (fun () ->
                  Ledger.write_units ledger ~gen:2 (avg_units_of plans worst))
            then
              ignore
                (supervised_write "seal" (fun () ->
                     Ledger.seal ledger ~total_gens:3))
          | _ -> ())
        | gens ->
          ignore
            (supervised_write "seal" (fun () ->
                 Ledger.seal ledger ~total_gens:gens))
    in

    (* Block until [pid], just sent SIGSTOP, has stopped or died. *)
    let rec wait_stopped pid =
      match Unix.waitpid [ Unix.WUNTRACED ] pid with
      | _, Unix.WSTOPPED _ -> `Stopped
      | _, status -> `Exited status
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_stopped pid
      | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
        `Exited (Unix.WEXITED 0)
    in

    let chaos_tick now =
      if cfg.chaos then (
        List.iter
          (fun w ->
            if w.stopped_until > 0.0 && now >= w.stopped_until then (
              kill_quiet w.pid Sys.sigcont;
              w.stopped_until <- 0.0))
          !fleet;
        if !chaos_kills < max_chaos_kills then
          let candidates =
            List.filter
              (fun w ->
                w.stopped_until = 0.0
                && (not w.hung)
                && (not w.chaos_killed)
                && List.exists (fun (_, worker, _) -> worker = w.wid)
                     (Ledger.claims ledger))
              !fleet
          in
          if
            candidates <> []
            && (!chaos_kills = 0 || Rng.float rng < 0.05)
          then (
            let w = Rng.pick rng (Array.of_list candidates) in
            (* Freeze first, then decide while the victim cannot finish
               its unit under us: a kill is only worth its name if it
               provably strands a claim for reassignment. The stop lands
               asynchronously, so wait until it has: a worker that exited
               in the meantime goes down the ordinary death path. *)
            kill_quiet w.pid Sys.sigstop;
            match wait_stopped w.pid with
            | `Exited status ->
              fleet := List.filter (fun x -> x != w) !fleet;
              handle_death w status
            | `Stopped ->
              let held =
                List.filter_map
                  (fun (uid, worker, _) ->
                    if worker = w.wid then Some uid else None)
                  (Ledger.claims ledger)
              in
              let tbl = unit_by_id () in
              let unresolved_held =
                List.exists
                  (fun uid ->
                    match Hashtbl.find_opt tbl uid with
                    | Some u -> not (Ledger.resolved ledger u)
                    | None -> false)
                  held
              in
              if not unresolved_held then kill_quiet w.pid Sys.sigcont
              else if !chaos_kills > 0 && Rng.float rng < 0.3 then (
                (* Stall: hold it frozen past its lease so the hung path
                   fires too; its claims reassign immediately. *)
                w.stopped_until <- now +. (1.5 *. cfg.lease_secs);
                release_holdings ~attribute_crash:false ~reason:"" w.wid;
                cfg.log
                  (Printf.sprintf "campaign: chaos stalled worker %s" w.wid))
              else (
                w.chaos_killed <- true;
                incr chaos_kills;
                kill_quiet w.pid Sys.sigkill;
                cfg.log
                  (Printf.sprintf "campaign: chaos killed worker %s" w.wid))))
    in

    let pending_exists () =
      let claimed =
        List.fold_left
          (fun acc (uid, _, _) -> uid :: acc)
          [] (Ledger.claims ledger)
      in
      List.exists
        (fun (u : Spec.t) ->
          (not (Ledger.resolved ledger u)) && not (List.mem u.id claimed))
        (Ledger.units ledger)
    in

    let complete () =
      match Ledger.sealed_gens ledger with
      | Some gens ->
        Ledger.generations ledger >= gens
        && List.for_all (Ledger.resolved ledger) (Ledger.units ledger)
      | None -> false
    in

    let run_inline () =
      match
        List.find_opt
          (fun u -> not (Ledger.resolved ledger u))
          (Ledger.units ledger)
      with
      | None -> ()
      | Some u ->
        if Ledger.claim ledger ~worker:inline_worker u then
          ignore (Worker.execute ledger ~worker:inline_worker u)
    in

    let shutdown_fleet ~graceful =
      List.iter
        (fun w -> if w.stopped_until > 0.0 then kill_quiet w.pid Sys.sigcont)
        !fleet;
      if graceful then List.iter (fun w -> kill_quiet w.pid Sys.sigterm) !fleet;
      let deadline = Clock.now () +. shutdown_grace_secs in
      while !fleet <> [] && Clock.now () < deadline do
        reap ();
        if !fleet <> [] then Unix.sleepf tick_secs
      done;
      List.iter (fun w -> kill_quiet w.pid Sys.sigkill) !fleet;
      List.iter
        (fun w ->
          match Unix.waitpid [] w.pid with
          | _ -> handle_death w (Unix.WEXITED 0)
          | exception Unix.Unix_error _ -> ())
        !fleet;
      fleet := []
    in

    let finish result =
      shutdown_fleet ~graceful:true;
      (try Unix.close devnull with Unix.Unix_error _ -> ());
      result
    in

    let outcome_of merged =
      {
        report = merged.Merge.report;
        failed_circuits = merged.Merge.failed_circuits;
        poisoned_units = merged.Merge.poisoned_units;
        reassigned = Telemetry.Counter.value c_reassigned - reassigned_before;
        speculative_wins = Telemetry.Counter.value c_spec_wins - spec_before;
        poisoned_count = Telemetry.Counter.value c_poisoned - poisoned_before;
        ledger_corrupt =
          Telemetry.counter_value Ledger.corrupt_counter - corrupt_before;
        spawn_failures = !spawn_failures;
        chaos_kills = !chaos_kills;
        workers_spawned = !workers_spawned;
      }
    in

    let rec loop () =
      if Supervise.terminating () then
        finish
          (Error
             (Printf.sprintf
                "terminated by SIGTERM; campaign resumable from %s"
                cfg.ledger_dir))
      else
        let now = Clock.now () in
        match cfg.max_wall_secs with
        | Some budget when now -. started > budget ->
          finish
            (Error
               (Printf.sprintf
                  "campaign exceeded %.0fs wall-clock budget; resumable from %s"
                  budget cfg.ledger_dir))
        | _ ->
          reap ();
          lease_sweep ();
          orphan_sweep ();
          straggler_sweep ();
          poison_sweep ();
          expand ();
          speculation_accounting ();
          if complete () then (
            shutdown_fleet ~graceful:true;
            match Merge.merge ledger with
            | Ok merged -> finish (Ok (outcome_of merged))
            | Error e -> finish (Error e))
          else (
            if
              !fleet_target > 0 && !spawn_budget > 0
              && List.length !fleet < !fleet_target
              && pending_exists ()
            then spawn_worker ();
            if !fleet = [] && (!fleet_target = 0 || !spawn_budget <= 0) then
              run_inline ();
            chaos_tick now;
            if now -. !last_progress > 1.0 then (
              last_progress := now;
              let units = Ledger.units ledger in
              let done_ = List.length (List.filter (Ledger.resolved ledger) units) in
              cfg.log
                (Printf.sprintf "campaign: %d/%d units resolved, %d worker(s)"
                   done_ (List.length units) (List.length !fleet)));
            Unix.sleepf tick_secs;
            loop ())
    in
    loop ()
