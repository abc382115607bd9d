(** The request/response core of every analysis entry point.

    One analysis — "this netlist, these sections, these parameters" —
    is a value: {!Request.t} going in, {!Response.t} coming out of
    {!run}. The CLI subcommands build the request directly from their
    typed flags ({!Request.make}), the reproduction driver lowers its
    options per circuit, and the {!Serve} daemon decodes it
    ({!Request.of_json}); all three reject through one
    {!Request.validate} and funnel through the same [run], so a daemon
    answer is byte-identical to the CLI answer for the same request by
    construction: both print {!Response.render} of the same value.

    [run] never raises for an in-band reason. A request that cannot be
    attempted (unparsable netlist, unknown suite circuit) is [Error];
    per-unit analysis failures (timeouts, crashes) come back {e inside}
    an [Ok] response as structured failure rows, exactly like the
    supervised driver reports them. *)

module Netlist = Ndetect_circuit.Netlist
module Detection_table = Ndetect_core.Detection_table
module Analysis = Ndetect_core.Analysis
module Average_case = Ndetect_core.Average_case
module Estimate = Ndetect_estimate.Estimate
module Paper_tables = Ndetect_report.Paper_tables
module Supervise = Ndetect_util.Supervise
module Encode = Ndetect_synth.Encode

module Request : sig
  (** Where the netlist comes from. A [File] is resolved by extension
      like the CLI's circuit argument (.kiss2/.pla/.blif, anything else
      parses as .bench); [Inline_bench] carries .bench text in the
      request itself — the form a remote client uses, since the daemon
      need not share a filesystem with it. *)
  type source =
    | Suite of string  (** Embedded benchmark, by registry name. *)
    | File of string
    | Inline_bench of string

  (** Which analyses to run, in request order. *)
  type section =
    | Worst  (** Worst-case summary (Table 2/3 row). *)
    | Average  (** Procedure 1, Definition 1 (Table 5 row). *)
    | Average_def2  (** Definition 1 vs Definition 2 (Table 6 row). *)

  val section_name : section -> string
  (** ["worst"] / ["average"] / ["average_def2"] — the wire names. *)

  val section_of_name : string -> section option

  (** How the test-vector universe is enumerated. [Exhaustive] is the
      paper's setting — all [2^PI] vectors, exact counts. [Sampled]
      draws a stratified random sample ({!Ndetect_estimate.Sampler})
      and reports confidence intervals instead of exact counts; this is
      the mode that reaches ISCAS-scale PI counts. Sampled requests
      bypass the detection-table cache (the sampled table depends on
      spec and seed, not just the netlist, and is cheap to rebuild). *)
  type universe = Exhaustive | Sampled of Estimate.Spec.t

  type t = {
    label : string;  (** Row/report name for this circuit. *)
    source : source;
    sections : section list;
    universe : universe;
    k : int;  (** Random test sets for [Average]. *)
    k2 : int;  (** Test sets per definition for [Average_def2]. *)
    nmax : int;  (** Hard-fault threshold (the paper uses 10). *)
    seed : int;
    scheme : Encode.scheme;  (** FSM state encoding for KISS2 sources. *)
    domains : int option;  (** Procedure-1 parallelism (None = sequential). *)
    cache_dir : string option;  (** Detection-table cache directory. *)
    deadline : float option;  (** Per-supervised-unit budget, seconds. *)
  }

  val make :
    ?sections:section list ->
    ?universe:universe ->
    ?k:int ->
    ?k2:int ->
    ?nmax:int ->
    ?seed:int ->
    ?scheme:Encode.scheme ->
    ?domains:int ->
    ?cache_dir:string ->
    ?deadline:float ->
    label:string ->
    source ->
    t
  (** Defaults: sections [[Worst]], universe [Exhaustive], k 1000,
      k2 200, nmax 10, seed 1, scheme [Encode.Binary], everything else
      off. Checks nothing: see {!validate}. *)

  val validate : t -> (t, string) result
  (** The request bounds, in one place: [k], [k2] and [nmax] >= 1,
      [domains] in 1 .. {!Ndetect_util.Parallel.max_domains} (64),
      [deadline] > 0, and a sampled universe through
      {!Ndetect_estimate.Estimate.Spec.validate}. [Error] is
      [request field "NAME" ...], naming the first field out of
      bounds, so a front end can map it back to the flag that set
      it. *)

  val to_json : t -> Rpc.json
  (** Canonical encoding (fixed field order), used both on the wire and
      as the daemon's dedup fingerprint: equal requests produce equal
      documents. *)

  val of_json : Rpc.json -> (t, string) result
  (** Inverse of {!to_json}, ending in {!validate}; [Error] names the
      offending field. Unknown fields are ignored (forward
      compatibility), missing optional fields take the {!make}
      defaults. The retired fields ["kernel_backend"] and
      ["sim_strategy"] of older clients are accepted when null or
      naming what always runs (["c"], ["stem"]); any other value is an
      [Error]. Never raises. *)
end

module Response : sig
  (** The rows of one computed section. [None] rows mean the section
      was not computed because a supervised unit failed — the reason is
      in {!t.failures}; [Some []] means it ran and found nothing to
      estimate (no fault needs more than [nmax] detections). *)
  type section_rows =
    | Worst_rows of Paper_tables.table_entry list
    | Est_rows of {
        confidence : float;
        entries : Paper_tables.est_entry list;
      }  (** The [Worst] section of a sampled request: interval rows. *)
    | Average_rows of {
        nmax : int;
        k : int;
        rows : Paper_tables.average_row list option;
      }
    | Def2_rows of {
        nmax : int;
        k2 : int;
        rows :
          (string * int * Average_case.row * Average_case.row) list option;
      }

  type t = {
    label : string;
    sections : (Request.section * section_rows) list;
        (** In request order. *)
    failures : (string * Supervise.failure) list;
        (** Supervised units that timed out / crashed / were skipped,
            in occurrence order — empty for a clean run. *)
    counters : (string * int) list;
        (** {!Ndetect_util.Telemetry.delta} of the process counters
            over this request: what work the answer cost. *)
  }

  val render_section : section_rows -> string
  (** One section's block (header line plus table or placeholder) — the
      text the daemon streams in its per-section [row] frames. *)

  val render : t -> string
  (** The human answer: a [circuit:] header, one paper-table block per
      section, one [(label: reason)] footer line per failure — exactly
      the concatenation of {!render_section} blocks between header and
      footer. Both the CLI and the daemon client print exactly this. *)
end

val source_of_spec : string -> Request.source
(** CLI resolution of a circuit argument: a registry name is [Suite],
    anything else [File] (whose existence {!load_source} checks). *)

val load_source :
  ?scheme:Encode.scheme -> Request.source -> (Netlist.t, string) result
(** Materialize a request's netlist. File readers go through the
    non-raising parse entry points, so a malformed file reports
    filename and line in the [Error]. *)

val table_builder :
  cache_dir:string option ->
  (cancel:Ndetect_util.Cancel.token -> Netlist.t -> Detection_table.t) option
(** The cache-aware builder {!Analysis.analyze} takes: [None] without a
    cache directory (build by fault simulation every time). *)

val run :
  ?build:
    (cancel:Ndetect_util.Cancel.token -> Netlist.t -> Detection_table.t) ->
  Request.t ->
  (Response.t, string) result
(** Execute the request: load the source, run
    each section once as a supervised unit (deadline = [req.deadline],
    injection sites ["analyze:<label>"], ["table5:<label>"],
    ["table6:<label>"]) and snapshot the counter delta. A unit that
    times out or crashes is recorded in the response's [failures]; it is
    never re-run. [build] overrides the table builder derived from the
    request's [cache_dir] — the daemon injects its resident store here.
    [Error] only for requests that cannot be attempted at all — an
    unloadable source. *)
