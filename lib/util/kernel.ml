type buf = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

(* Branch-free SWAR popcount of one 62-bit payload word. Payloads are
   non-negative, so every mask fits in OCaml's 63-bit native int and the
   byte-summing multiply cannot overflow: after the 4-bit step each byte
   holds at most 8, so every byte of the product stays below 63 and the
   total (<= 62) lands in bits 56..62. *)
let popcount_word w =
  let w = w - ((w lsr 1) land 0x1555555555555555) in
  let w = (w land 0x3333333333333333) + ((w lsr 2) land 0x3333333333333333) in
  let w = (w + (w lsr 4)) land 0x0F0F0F0F0F0F0F0F in
  (w * 0x0101010101010101) lsr 56

(* C stubs (lib/util/kernel_stubs.c): __builtin_popcountll, with AVX2
   inner loops when the build probe granted -march=native AND a runtime
   CPUID probe confirms the executing host actually has AVX2 (a binary
   compiled on a newer machine degrades to the scalar path instead of
   dying on SIGILL). All are [@@noalloc] — they only read bigarray data
   pointers and store immediate ints, so no GC interaction. *)
external popcount_words : buf -> int -> int = "ndetect_c_popcount_words"
[@@noalloc]

external inter_count : buf -> buf -> int -> int = "ndetect_c_inter_count"
[@@noalloc]

external blocked_scan :
  buf -> buf -> int array -> int -> int -> int -> int array -> unit
  = "ndetect_c_blocked_scan_byte" "ndetect_c_blocked_scan"
[@@noalloc]

external hash_words : buf -> int -> int = "ndetect_c_hash_words" [@@noalloc]

external inter_hash_into : buf -> buf -> buf -> int -> int
  = "ndetect_c_inter_hash_into"
[@@noalloc]

external equal_words : buf -> buf -> int -> bool = "ndetect_c_equal_words"
[@@noalloc]

let current_name () = "c"

external verify_region : buf -> off:int -> int -> int64 option
  = "ndetect_c_verify_region"
