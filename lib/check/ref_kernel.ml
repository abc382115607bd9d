module Bitvec = Ndetect_util.Bitvec
module A1 = Bigarray.Array1

let popcount_word = Ndetect_util.Kernel.popcount_word

let same_len a b =
  if Bitvec.length a <> Bitvec.length b then
    invalid_arg "Ref_kernel: length mismatch"

let count a =
  let acc = ref 0 in
  for w = 0 to Bitvec.word_length a - 1 do
    acc := !acc + popcount_word (Bitvec.unsafe_get_word a w)
  done;
  !acc

let inter_count a b =
  same_len a b;
  let acc = ref 0 in
  for w = 0 to Bitvec.word_length a - 1 do
    acc :=
      !acc
      + popcount_word (Bitvec.unsafe_get_word a w land Bitvec.unsafe_get_word b w)
  done;
  !acc

(* The scan of kernel_stubs.c, row by row: block [b] starts at row
   [b * block_size], inside it word [w] of row [r] sits at
   [base * words + w * k + r], [k] being the block's row count; the
   exit rule is tested before every block. *)
let blocked_scan t ~row_n ~probe_count probe out =
  let rows = Bitvec.Blocked.rows t and bs = Bitvec.Blocked.block_size t in
  let words = Bitvec.Blocked.words_per_row t in
  let data = Bitvec.Blocked.raw t in
  if rows > 0 && Bitvec.length probe <> Bitvec.Blocked.length t then
    invalid_arg "Ref_kernel: length mismatch";
  let row_count base k r =
    let acc = ref 0 in
    for w = 0 to words - 1 do
      acc :=
        !acc
        + popcount_word
            (Bitvec.unsafe_get_word probe w
            land A1.get data ((base * words) + (w * k) + r))
    done;
    !acc
  in
  let rec go block best witness =
    let base = block * bs in
    if base >= rows then (best, witness, block, 0)
    else if best = 1 || row_n.(base) - probe_count + 1 >= best then
      (best, witness, block, 1)
    else begin
      let k = min bs (rows - base) in
      let best = ref best and witness = ref witness in
      for r = 0 to k - 1 do
        let m = row_count base k r in
        if m > 0 && row_n.(base + r) - m + 1 < !best then begin
          best := row_n.(base + r) - m + 1;
          witness := base + r
        end
      done;
      go (block + 1) !best !witness
    end
  in
  let best, witness, blocks, exited = go 0 max_int (-1) in
  out.(0) <- best;
  out.(1) <- witness;
  out.(2) <- blocks;
  out.(3) <- exited

(* The content hash in boxed 64-bit arithmetic, step for step as
   kernel_stubs.c: word [i] feeds lane [i mod 4] through
   [rotl (h xor w * p2, 31) * p1], the word count and the lanes fold by
   xor-multiply, murmur3's fmix64 avalanches, and the low 62 bits are
   the result. *)
let p1 = 0x9E3779B185EBCA87L
let p2 = 0xC2B2AE3D27D4EB4FL
let p3 = 0x165667B19E3779F9L

let round h w =
  let h = Int64.logxor h (Int64.mul w p2) in
  let h =
    Int64.logor (Int64.shift_left h 31) (Int64.shift_right_logical h 33)
  in
  Int64.mul h p1

let fmix64 k =
  let k = Int64.logxor k (Int64.shift_right_logical k 33) in
  let k = Int64.mul k 0xff51afd7ed558ccdL in
  let k = Int64.logxor k (Int64.shift_right_logical k 33) in
  let k = Int64.mul k 0xc4ceb9fe1a85ec53L in
  Int64.logxor k (Int64.shift_right_logical k 33)

let hash_of_words words =
  let lanes = [| p1; p2; p3; Int64.logxor p1 p2 |] in
  Array.iteri
    (fun i w -> lanes.(i land 3) <- round lanes.(i land 3) (Int64.of_int w))
    words;
  let h =
    Array.fold_left
      (fun h lane -> Int64.mul (Int64.logxor h lane) p1)
      (Int64.mul (Int64.of_int (Array.length words)) p3)
      lanes
  in
  Int64.to_int (Int64.logand (fmix64 h) 0x3FFFFFFFFFFFFFFFL)

let inter_hash_into dst a b =
  same_len dst a;
  same_len a b;
  let words =
    Array.init (Bitvec.word_length a) (fun w ->
        Bitvec.unsafe_get_word a w land Bitvec.unsafe_get_word b w)
  in
  Array.iteri (Bitvec.unsafe_set_word dst) words;
  if Array.for_all (( = ) 0) words then -1 else hash_of_words words
