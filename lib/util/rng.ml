(* SplitMix64: Steele, Lea & Flood, "Fast splittable pseudorandom number
   generators", OOPSLA 2014. Chosen for its tiny state, solid statistical
   quality at this scale, and trivially reproducible splitting. *)

type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create ~seed = { state = Int64.of_int seed }

let copy t = { state = t.state }

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t =
  let seed64 = next_int64 t in
  { state = seed64 }

(* [split] adds one golden-gamma step to the root's state and takes the
   mixed result as the new state, so the (k+1)-th split of [create ~seed]
   starts at [mix (seed + (k + 1) * gamma)] (mod 2^64). *)
let stream ~seed k =
  if k < 0 then invalid_arg "Rng.stream: negative index";
  {
    state =
      mix
        (Int64.add (Int64.of_int seed)
           (Int64.mul (Int64.of_int (k + 1)) golden_gamma));
  }

let bool t = Int64.compare (Int64.logand (next_int64 t) 1L) 0L <> 0

let float t =
  let bits53 = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float bits53 *. (1.0 /. 9007199254740992.0)

(* Rejection sampling over the top bits keeps the draw exactly uniform for
   any bound, not just powers of two. *)
let int t ~bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let mask =
    let rec grow m = if m >= bound - 1 then m else grow ((m lsl 1) lor 1) in
    grow 1
  in
  let rec draw () =
    let raw = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) land mask in
    if raw < bound then raw else draw ()
  in
  draw ()

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int t ~bound:(Array.length arr))

let shuffle_in_place t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t ~bound:(i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
