module Netlist = Ndetect_circuit.Netlist

type semantics = Wired_and | Wired_or

type t = { a : int; b : int; semantics : semantics }

let equal x y =
  x.a = y.a && x.b = y.b
  &&
  match x.semantics, y.semantics with
  | Wired_and, Wired_and | Wired_or, Wired_or -> true
  | Wired_and, Wired_or | Wired_or, Wired_and -> false

let to_string net f =
  let op = match f.semantics with Wired_and -> "AND" | Wired_or -> "OR" in
  Printf.sprintf "%s(%s,%s)" op (Netlist.name net f.a) (Netlist.name net f.b)

let pp net ppf f = Format.pp_print_string ppf (to_string net f)

let enumerate net semantics =
  let { Bridge.first; second } = Bridge.pairs net in
  Array.init (Array.length first) (fun p ->
      let u = first.(p) and v = second.(p) in
      { a = min u v; b = max u v; semantics })
