(* Reproduction harness: regenerates every table and figure of the paper.

   Usage: reproduce [--tier small|medium|large] [--k N] [--k2 N]
                    [--seed N] [--only tableN|figure2] [--quiet]
                    [--csv DIR] [--checkpoint DIR] [--resume]
                    [--timeout-per-circuit SECS] [--inject SPEC]
                    [--trace FILE] [--metrics]

   Defaults are sized so a medium-tier run finishes in about a minute;
   pass --tier large --k 10000 --k2 1000 for the paper-scale experiment
   (see EXPERIMENTS.md for recorded timings).

   Exit codes: 0 on a clean run, 2 on a usage error, 3 when the run
   completed but one or more supervised per-circuit units timed out or
   crashed (their rows render as "(timed out)" / "(crashed: ...)") or a
   --checkpoint entry or the --trace file could not be written (every
   table still prints; stderr names each "checkpoint CIRCUIT" or the
   "trace FILE"), 4 when SIGTERM cut the run short (finished circuits
   are already checkpointed; rerun with --resume). `ndetect tables` is
   the same command. *)

let () =
  exit (Ndetect_harness.Driver.main (List.tl (Array.to_list Sys.argv)))
