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

let inter_count_upto ~limit a b = min (inter_count a b) limit
let inter_count_many a targets = Array.map (inter_count a) targets

(* Block [b] starts at row [b * block_size]; inside it word [w] of row
   [r] sits at [w * k + r], [k] being the block's row count. *)
let blocked_inter_counts_into t ~block probe dst =
  let k = Bitvec.Blocked.rows_in_block t block in
  let words = Bitvec.Blocked.words_per_row t in
  let base = block * Bitvec.Blocked.block_size t * words in
  let data = Bitvec.Blocked.raw t in
  if Bitvec.word_length probe < words then
    invalid_arg "Ref_kernel: length mismatch";
  for r = 0 to k - 1 do
    let acc = ref 0 in
    for w = 0 to words - 1 do
      acc :=
        !acc
        + popcount_word
            (Bitvec.unsafe_get_word probe w land A1.get data (base + (w * k) + r))
    done;
    dst.(r) <- !acc
  done;
  k
