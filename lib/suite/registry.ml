module Kiss2 = Ndetect_netparse.Kiss2
module Encode = Ndetect_synth.Encode
module Fsm_synth = Ndetect_synth.Fsm_synth

type tier = Small | Medium | Large

type source =
  | Kiss2_text of string
  | Bench_text of string
  | Synthetic of { inputs : int; outputs : int; states : int; products : int }

type entry = { name : string; tier : tier; source : source }

let classic name =
  match List.assoc_opt name Classics.all with
  | Some text -> Kiss2_text text
  | None -> invalid_arg ("Registry.classic: " ^ name)

let syn ~i ~o ~s ~p = Synthetic { inputs = i; outputs = o; states = s; products = p }

(* Dimensions follow the published LGSynth'91 tables where the machine is
   part of that suite; the non-MCNC circuits of the paper (dvram, fetch,
   log, rie, s1a) get plausible industrial shapes. See DESIGN.md. *)
(* The canonical ISCAS-85 c17 netlist — tiny, public, and purely
   combinational; a good vehicle for cross-checking against other tools. *)
let c17_bench =
  "INPUT(1)\nINPUT(2)\nINPUT(3)\nINPUT(6)\nINPUT(7)\n"
  ^ "OUTPUT(22)\nOUTPUT(23)\n" ^ "10 = NAND(1, 3)\n" ^ "11 = NAND(3, 6)\n"
  ^ "16 = NAND(2, 11)\n" ^ "19 = NAND(11, 7)\n" ^ "22 = NAND(10, 16)\n"
  ^ "23 = NAND(16, 19)\n"

let all =
  [
    { name = "c17"; tier = Small; source = Bench_text c17_bench };
    { name = "lion"; tier = Small; source = classic "lion" };
    { name = "dk27"; tier = Small; source = syn ~i:1 ~o:2 ~s:7 ~p:14 };
    { name = "ex5"; tier = Small; source = syn ~i:2 ~o:2 ~s:9 ~p:32 };
    { name = "train4"; tier = Small; source = classic "train4" };
    { name = "bbtas"; tier = Small; source = classic "bbtas" };
    { name = "dk15"; tier = Small; source = syn ~i:3 ~o:5 ~s:4 ~p:32 };
    { name = "dk512"; tier = Small; source = syn ~i:1 ~o:3 ~s:15 ~p:30 };
    { name = "dk14"; tier = Small; source = syn ~i:3 ~o:5 ~s:7 ~p:56 };
    { name = "dk17"; tier = Small; source = syn ~i:2 ~o:3 ~s:8 ~p:32 };
    { name = "firstex"; tier = Small; source = syn ~i:2 ~o:3 ~s:6 ~p:14 };
    { name = "lion9"; tier = Small; source = classic "lion9" };
    { name = "mc"; tier = Small; source = classic "mc" };
    { name = "dk16"; tier = Medium; source = syn ~i:2 ~o:3 ~s:27 ~p:108 };
    { name = "modulo12"; tier = Small; source = classic "modulo12" };
    { name = "s8"; tier = Small; source = syn ~i:4 ~o:1 ~s:5 ~p:20 };
    { name = "tav"; tier = Small; source = syn ~i:4 ~o:4 ~s:4 ~p:49 };
    { name = "donfile"; tier = Medium; source = syn ~i:2 ~o:1 ~s:24 ~p:96 };
    { name = "ex7"; tier = Small; source = syn ~i:2 ~o:2 ~s:10 ~p:36 };
    { name = "train11"; tier = Small; source = classic "train11" };
    { name = "beecount"; tier = Small; source = syn ~i:3 ~o:4 ~s:7 ~p:28 };
    { name = "ex2"; tier = Medium; source = syn ~i:2 ~o:2 ~s:19 ~p:72 };
    { name = "ex3"; tier = Small; source = syn ~i:2 ~o:2 ~s:10 ~p:36 };
    { name = "ex6"; tier = Medium; source = syn ~i:5 ~o:8 ~s:8 ~p:34 };
    { name = "mark1"; tier = Medium; source = syn ~i:5 ~o:16 ~s:15 ~p:22 };
    { name = "bbara"; tier = Medium; source = syn ~i:4 ~o:2 ~s:10 ~p:60 };
    { name = "ex4"; tier = Medium; source = syn ~i:6 ~o:9 ~s:14 ~p:21 };
    { name = "keyb"; tier = Large; source = syn ~i:7 ~o:2 ~s:19 ~p:170 };
    { name = "opus"; tier = Medium; source = syn ~i:5 ~o:6 ~s:10 ~p:22 };
    { name = "bbsse"; tier = Large; source = syn ~i:7 ~o:7 ~s:16 ~p:56 };
    { name = "cse"; tier = Large; source = syn ~i:7 ~o:7 ~s:16 ~p:91 };
    { name = "dvram"; tier = Large; source = syn ~i:8 ~o:5 ~s:35 ~p:120 };
    { name = "fetch"; tier = Large; source = syn ~i:9 ~o:5 ~s:26 ~p:80 };
    { name = "log"; tier = Large; source = syn ~i:9 ~o:3 ~s:17 ~p:60 };
    { name = "rie"; tier = Large; source = syn ~i:10 ~o:4 ~s:30 ~p:100 };
    { name = "s1a"; tier = Large; source = syn ~i:8 ~o:6 ~s:20 ~p:107 };
  ]

let find name = List.find_opt (fun e -> String.equal e.name name) all

let names () = List.map (fun e -> e.name) all

let tier_rank = function Small -> 0 | Medium -> 1 | Large -> 2

let tier_name = function
  | Small -> "small"
  | Medium -> "medium"
  | Large -> "large"

let tier_of_string s =
  List.find_opt
    (fun tier -> tier_name tier = String.lowercase_ascii s)
    [ Small; Medium; Large ]

let of_tier tier =
  List.filter (fun e -> tier_rank e.tier <= tier_rank tier) all

let fsm entry =
  match entry.source with
  | Kiss2_text text -> Kiss2.parse text
  | Bench_text _ ->
    invalid_arg ("Registry.fsm: " ^ entry.name ^ " is combinational")
  | Synthetic { inputs; outputs; states; products } ->
    Fsm_gen.generate
      ~seed:(Fsm_gen.seed_of_name entry.name)
      ~inputs ~outputs ~states ~products

let circuit ?(scheme = Encode.Binary) entry =
  match entry.source with
  | Bench_text text -> Ndetect_netparse.Bench_format.parse text
  | Kiss2_text _ | Synthetic _ ->
    let two_level =
      Fsm_synth.synthesize ~name:entry.name ~scheme (fsm entry)
    in
    Ndetect_synth.Multilevel.decompose
      ~seed:(Fsm_gen.seed_of_name entry.name)
      two_level

let pi_count entry =
  match entry.source with
  | Bench_text text ->
    Ndetect_circuit.Netlist.input_count
      (Ndetect_netparse.Bench_format.parse text)
  | Kiss2_text _ | Synthetic _ ->
    let machine = fsm entry in
    machine.Kiss2.input_bits
    + Encode.bit_count Encode.Binary
        ~states:(Array.length machine.Kiss2.state_names)
