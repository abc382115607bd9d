type t = Zero | One | X

let equal a b =
  match a, b with
  | Zero, Zero | One, One | X, X -> true
  | Zero, (One | X) | One, (Zero | X) | X, (Zero | One) -> false

let of_bool b = if b then One else Zero

let to_bool_opt = function Zero -> Some false | One -> Some true | X -> None

let not_ = function Zero -> One | One -> Zero | X -> X

let and_ a b =
  match a, b with
  | Zero, _ | _, Zero -> Zero
  | One, One -> One
  | X, (One | X) | One, X -> X

let or_ a b =
  match a, b with
  | One, _ | _, One -> One
  | Zero, Zero -> Zero
  | X, (Zero | X) | Zero, X -> X

let xor a b =
  match a, b with
  | X, _ | _, X -> X
  | Zero, Zero | One, One -> Zero
  | Zero, One | One, Zero -> One

let refines a b =
  match b with
  | X -> true
  | Zero | One -> equal a b

let common a b =
  match a, b with
  | Zero, Zero -> Zero
  | One, One -> One
  | Zero, (One | X) | One, (Zero | X) | X, (Zero | One | X) -> X

let to_char = function Zero -> '0' | One -> '1' | X -> '-'

let of_char = function
  | '0' -> Zero
  | '1' -> One
  | '-' | 'x' | 'X' -> X
  | c -> invalid_arg (Printf.sprintf "Ternary.of_char: %C" c)

let pp ppf v = Format.fprintf ppf "%c" (to_char v)
