(** The reproduction driver: regenerates every table and figure of the
    paper on the embedded benchmark suite. [bin/reproduce] and
    [ndetect tables] are its {!main}.

    The per-circuit half is a loop of {!Api.run} requests. Each suite
    circuit of the tier gets one request ({!Options.to_request}) whose
    sections are the ones [only] selects: [all] runs Worst, Average and
    Average_def2; [table2], [table3] and [figure2] run Worst; [table5]
    runs Average and [table6] Average_def2. Each request runs at most
    once per run, and Tables 2, 3, 5 and 6, Figure 2 and their CSVs are
    renderings of the kept responses. Only Tables 1 and 4 (the Figure 1
    example) call the analyses directly.

    Supervision is {!Api.run}'s: every unit gets its own cancellation
    deadline from [--timeout-per-circuit], passes through the
    deterministic fault-injection sites [analyze:CIRCUIT],
    [table5:CIRCUIT] and [table6:CIRCUIT], and on failure is recorded
    in {!failures} while the tables render an explicit [(timed out)] /
    [(crashed: ...)] row or footer instead of aborting the run. No unit
    is re-run within a run. With [--checkpoint DIR] each failure-free
    response is persisted ({!Checkpoint.store}) under its circuit and
    section list; a write that fails (an I/O error, or the
    ["checkpoint:store"] injection site) keeps the computed response
    and is recorded in {!failures} as ["checkpoint CIRCUIT"], so the
    tables still print and the run exits 3. [--resume] renders from the
    stored entries without recomputation and recomputes only the
    circuits that failed or are missing. Without [quiet], one timing
    line is printed per circuit request.

    No option picks a kernel or a simulation strategy: every run counts
    with the C kernel and simulates by stem-region tracing, and their
    references live in [lib/check] ([ndetect check]). *)

module Registry = Ndetect_suite.Registry
module Analysis = Ndetect_core.Analysis
module Supervise = Ndetect_util.Supervise
module Paper_tables = Ndetect_report.Paper_tables

type options = {
  tier : Registry.tier;
  k : int;  (** Procedure 1 test sets for Table 5. *)
  k2 : int;  (** Test sets per definition for Table 6. *)
  seed : int;
  only : string;  (** ["all"] or one of ["table1".."table6"; "figure2"]. *)
  quiet : bool;  (** Suppress per-step timing lines. *)
  csv_dir : string option;
      (** When set, [run_all] also writes table2/3/5/6.csv and
          figure2.csv into this directory. *)
  checkpoint_dir : string option;
      (** When set, persist each finished unit of work here. *)
  resume : bool;
      (** Reload finished units from [checkpoint_dir] instead of
          recomputing them. Requires [checkpoint_dir]. *)
  timeout_per_circuit : float option;
      (** Wall-clock budget (seconds) for each supervised unit. *)
  inject : string option;
      (** Raw fault-injection spec, as accepted by
          {!Supervise.parse_injection_spec} (self-test only). *)
  domains : int option;
      (** Domain count for the parallel Procedure-1 construction
          (default: {!Ndetect_util.Parallel.default_domains}). Output is
          bit-identical for every value, so this is a pure throughput
          knob and is deliberately excluded from the checkpoint
          stamp. *)
  table_cache : string option;
      (** When set, detection tables are loaded from / persisted to this
          directory ({!Table_cache}); a warm run performs no fault
          simulation. Tables are keyed by netlist content, so — like
          [domains] — the cache never changes any result and is excluded
          from the checkpoint stamp. *)
  trace : string option;
      (** When set, every {!Ndetect_util.Telemetry} span of the run is
          streamed to this file as JSONL (schema ["ndetect-trace/1"]).
          Pure observability: never changes any result. *)
  metrics : bool;
      (** Print a telemetry report after [run_all]: per-supervised-unit
          counter deltas, process-wide totals and the aggregated span
          profile. Pure observability, like [trace]. *)
}

val default_options : options
(** Medium tier, [k = 1000], [k2 = 200], [seed = 1], everything; no
    checkpointing, no timeout, no injection, no telemetry. *)

(** The options' lowering onto {!Api.Request}. Callers build an
    [options] value as [{ default_options with ... }]. *)
module Options : sig
  type t = options

  val to_request :
    t ->
    source:Api.Request.source ->
    label:string ->
    (Api.Request.t, string) result
  (** Lower parsed driver options onto the request/response core: the
      options become a thin parser, {!Api.run} does the work. The
      [only] field picks the sections — [table2]/[table3] map to
      [Worst], [table5] to [Average], [table6] to [Average_def2], [all]
      to all three; the example-circuit sections ([table1], [table4],
      [figure2]) have no per-request form and return [Error]. [k],
      [k2], [seed], [domains], [table_cache] and [timeout_per_circuit]
      carry over field for field; the universe is always exhaustive
      (the paper's tables are exact counts). The result passes through
      {!Api.Request.validate}. *)
end

val parse_args_result : string list -> (options, string) result
(** Parse [--tier small|medium|large], [--k N], [--k2 N], [--seed N],
    [--only WHAT], [--quiet], [--csv DIR], [--checkpoint DIR],
    [--resume] (requires [--checkpoint]), [--timeout-per-circuit SECS],
    [--inject SPEC], [--domains N], [--table-cache DIR], [--trace FILE]
    and [--metrics] — reproduce's flags and no others. The bounds on
    [--k], [--k2], [--domains] and [--timeout-per-circuit] are
    {!Api.Request.validate}'s, checked for every [--only]. [Error
    message] names the offending flag (and includes the usage string)
    on malformed or out-of-bounds values, missing values, or unknown
    arguments. *)

val usage : string
(** The usage string appended to [parse_args_result] error messages. *)

type t
(** A driver instance keeping each circuit's response across tables. *)

val create : options -> t
(** Also installs the [inject] plan ({!Supervise.set_injection}) and
    opens the checkpoint directory, stamped with the options' seed,
    tier, [k] and [k2]. Raises [Failure] on options no run can honour
    (a bound {!Api.Request.validate} rejects, a bad [inject] spec, a
    [csv_dir] that is not a directory). *)

val failures : t -> (string * Supervise.failure) list
(** Supervised units that failed so far, in execution order, labelled
    as {!Api.run} labels them (["analyze CIRCUIT"] /
    ["procedure1 CIRCUIT"] / ["procedure1-def2 CIRCUIT"]), plus a
    [Crashed] ["checkpoint CIRCUIT"] entry for each checkpoint write
    that failed. Empty after a fully clean run; {!main} exits 3 when
    non-empty. *)

val unit_metrics : t -> (string * (string * int) list) list
(** With [metrics] set: per circuit request (execution order, labelled
    by circuit), the telemetry counters it moved — the response's
    {!Api.Response.counters}. Empty otherwise. *)

val finish : t -> unit
(** Detach the driver's telemetry sinks: flushes and closes the [trace]
    JSONL file (writing its final counters record) and releases the
    in-memory profile. A trace write that failed (a full disk) is
    recorded in {!failures} as ["trace FILE"]; it never fails a unit.
    Idempotent; [run_all] calls it. Only needed directly when using the
    per-table entry points below. *)

val example_analysis : t -> Analysis.t
(** The Figure 1 worked example (cached, not supervised). *)

val run_table1 : t -> string
val run_table2 : t -> string
val run_table3 : t -> string
val run_figure2 : t -> string
val run_table4 : t -> string
val run_table5 : t -> string
val run_table6 : t -> string

val table2_csv : t -> string
val table3_csv : t -> string
(** CSV forms of tables 2/3 including any failure rows — what [run_all]
    writes under [--csv], exposed for resume-equivalence tests. *)

val run_all : t -> unit
(** Print every selected artifact to stdout, with section headers;
    write CSVs when [csv_dir] is set; summarize failed units on stderr
    last. *)

val main : string list -> int
(** The whole command behind [bin/reproduce] and [ndetect tables]:
    parse the arguments, {!create}, {!run_all}, and return the exit
    code — 0 on a clean run, 2 on a usage error (an unopenable [trace]
    file or unusable [checkpoint_dir] included), 3 when some supervised
    unit, checkpoint write or trace write failed, {!Supervise.sigterm_exit_code} when
    SIGTERM cut the run
    short (finished circuits are already checkpointed). *)
