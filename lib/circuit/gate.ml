module Word = Ndetect_logic.Word
module Ternary = Ndetect_logic.Ternary

type kind =
  | Input
  | Const0
  | Const1
  | Buf
  | Not
  | And
  | Nand
  | Or
  | Nor
  | Xor
  | Xnor

let equal_kind (a : kind) (b : kind) = a = b

let to_string = function
  | Input -> "INPUT"
  | Const0 -> "CONST0"
  | Const1 -> "CONST1"
  | Buf -> "BUF"
  | Not -> "NOT"
  | And -> "AND"
  | Nand -> "NAND"
  | Or -> "OR"
  | Nor -> "NOR"
  | Xor -> "XOR"
  | Xnor -> "XNOR"

let of_string s =
  match String.uppercase_ascii s with
  | "INPUT" -> Some Input
  | "CONST0" | "GND" -> Some Const0
  | "CONST1" | "VDD" -> Some Const1
  | "BUF" | "BUFF" -> Some Buf
  | "NOT" | "INV" -> Some Not
  | "AND" -> Some And
  | "NAND" -> Some Nand
  | "OR" -> Some Or
  | "NOR" -> Some Nor
  | "XOR" -> Some Xor
  | "XNOR" -> Some Xnor
  | _ -> None

let arity_ok kind n =
  match kind with
  | Input | Const0 | Const1 -> n = 0
  | Buf | Not -> n = 1
  | And | Nand | Or | Nor | Xor | Xnor -> n >= 2

let bad kind n =
  invalid_arg
    (Printf.sprintf "Gate.eval: %s with %d fanins" (to_string kind) n)

let eval_bool kind (fanins : bool array) =
  let n = Array.length fanins in
  if not (arity_ok kind n) then bad kind n;
  match kind with
  | Input -> invalid_arg "Gate.eval: Input has no function"
  | Const0 -> false
  | Const1 -> true
  | Buf -> fanins.(0)
  | Not -> not fanins.(0)
  | And -> Array.for_all Fun.id fanins
  | Nand -> not (Array.for_all Fun.id fanins)
  | Or -> Array.exists Fun.id fanins
  | Nor -> not (Array.exists Fun.id fanins)
  | Xor -> Array.fold_left ( <> ) false fanins
  | Xnor -> not (Array.fold_left ( <> ) false fanins)

let eval_word kind (fanins : Word.t array) =
  let n = Array.length fanins in
  if not (arity_ok kind n) then bad kind n;
  match kind with
  | Input -> invalid_arg "Gate.eval: Input has no function"
  | Const0 -> Word.zeroes
  | Const1 -> Word.ones
  | Buf -> fanins.(0)
  | Not -> Word.lognot fanins.(0)
  | And -> Array.fold_left ( land ) Word.ones fanins
  | Nand -> Word.lognot (Array.fold_left ( land ) Word.ones fanins)
  | Or -> Array.fold_left ( lor ) Word.zeroes fanins
  | Nor -> Word.lognot (Array.fold_left ( lor ) Word.zeroes fanins)
  | Xor -> Array.fold_left ( lxor ) Word.zeroes fanins
  | Xnor -> Word.lognot (Array.fold_left ( lxor ) Word.zeroes fanins)

let eval_ternary kind (fanins : Ternary.t array) =
  let n = Array.length fanins in
  if not (arity_ok kind n) then bad kind n;
  match kind with
  | Input -> invalid_arg "Gate.eval: Input has no function"
  | Const0 -> Ternary.Zero
  | Const1 -> Ternary.One
  | Buf -> fanins.(0)
  | Not -> Ternary.not_ fanins.(0)
  | And -> Array.fold_left Ternary.and_ Ternary.One fanins
  | Nand -> Ternary.not_ (Array.fold_left Ternary.and_ Ternary.One fanins)
  | Or -> Array.fold_left Ternary.or_ Ternary.Zero fanins
  | Nor -> Ternary.not_ (Array.fold_left Ternary.or_ Ternary.Zero fanins)
  | Xor -> Array.fold_left Ternary.xor Ternary.Zero fanins
  | Xnor -> Ternary.not_ (Array.fold_left Ternary.xor Ternary.Zero fanins)

let controlling_value = function
  | And | Nand -> Some false
  | Or | Nor -> Some true
  | Input | Const0 | Const1 | Buf | Not | Xor | Xnor -> None

let inversion = function
  | Nand | Nor | Xnor | Not -> true
  | Input | Const0 | Const1 | Buf | And | Or | Xor -> false
