(** The benchmark registry: every circuit of the paper's Tables 2 and 3 by
    name, mapped to an embedded KISS2 source (for the hand-written
    classics) or to a synthetic machine with the benchmark's published
    (inputs, outputs, states, products) dimensions. *)

type tier =
  | Small  (** Tiny machines; used by the test suite and examples. *)
  | Medium  (** Default benchmark set. *)
  | Large  (** The industrial-sized stand-ins; full-run benches only. *)

type source =
  | Kiss2_text of string
  | Bench_text of string
      (** A combinational netlist in [.bench] format (e.g. ISCAS-85
          circuits), used as-is — no synthesis or restructuring. *)
  | Synthetic of { inputs : int; outputs : int; states : int; products : int }

type entry = { name : string; tier : tier; source : source }

val all : entry list
(** In the order of the paper's Table 2 (grouped by the n at which
    worst-case coverage saturates). *)

val find : string -> entry option

val names : unit -> string list

val of_tier : tier -> entry list
(** Entries of the given tier or cheaper. *)

val tier_name : tier -> string
(** ["small"], ["medium"] or ["large"]. *)

val tier_of_string : string -> tier option
(** Inverse of {!tier_name}, ignoring case. *)

val fsm : entry -> Ndetect_netparse.Kiss2.t
(** Parse or generate the machine. Raises [Invalid_argument] for
    [Bench_text] entries, which have no FSM. *)

val circuit :
  ?scheme:Ndetect_synth.Encode.scheme -> entry -> Ndetect_circuit.Netlist.t
(** Synthesize the combinational logic (binary encoding by default) and
    restructure it into multilevel form with
    {!Ndetect_synth.Multilevel.decompose}, as the paper's benchmark
    netlists are multilevel. *)

val pi_count : entry -> int
(** Primary inputs of the synthesized logic = FSM inputs + state bits
    (binary encoding). *)
