(* SplitMix64: Steele, Lea & Flood, "Fast splittable pseudorandom number
   generators", OOPSLA 2014. Chosen for its tiny state, solid statistical
   quality at this scale, and trivially reproducible splitting. *)

(* The 64-bit state lives in 8 bytes, read and written unboxed, so a
   draw that stays inside this module allocates nothing. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  set64 t 0 s;
  t

let create ~seed = of_state (Int64.of_int seed)

let copy = Bytes.copy

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] advance t =
  let s = Int64.add (get64 t 0) golden_gamma in
  set64 t 0 s;
  mix s

let next_int64 t = advance t

let split t = of_state (advance t)

(* [split] adds one golden-gamma step to the root's state and takes the
   mixed result as the new state, so the (k+1)-th split of [create ~seed]
   starts at [mix (seed + (k + 1) * gamma)] (mod 2^64). *)
let stream ~seed k =
  if k < 0 then invalid_arg "Rng.stream: negative index";
  of_state
    (mix
       (Int64.add (Int64.of_int seed)
          (Int64.mul (Int64.of_int (k + 1)) golden_gamma)))

let bool t = Int64.compare (Int64.logand (advance t) 1L) 0L <> 0

let float t =
  let bits53 = Int64.shift_right_logical (advance t) 11 in
  Int64.to_float bits53 *. (1.0 /. 9007199254740992.0)

(* The top 62 bits of the next output, as a non-negative int. *)
let bits62 t = Int64.to_int (Int64.shift_right_logical (advance t) 2)

(* Rejection sampling over the top bits keeps the draw exactly uniform for
   any bound, not just powers of two. *)
let int t ~bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let mask = ref 1 in
  while !mask < bound - 1 do
    mask := (!mask lsl 1) lor 1
  done;
  let raw = ref (bits62 t land !mask) in
  while !raw >= bound do
    raw := bits62 t land !mask
  done;
  !raw

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
