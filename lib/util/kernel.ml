type buf = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

module type KERNEL = sig
  val name : string
  val description : string
  val popcount_words : buf -> int -> int
  val inter_count : buf -> buf -> int -> int
  val inter_count_upto : buf -> buf -> int -> limit:int -> int
  val inter_count_many : buf -> buf array -> int -> int array -> unit

  val inter_counts_block :
    probe:buf -> data:buf -> k:int -> words:int -> dst:int array -> unit
end

type backend = (module KERNEL)

type ops = {
  name : string;
  description : string;
  popcount_words : buf -> int -> int;
  inter_count : buf -> buf -> int -> int;
  inter_count_upto : buf -> buf -> int -> limit:int -> int;
  inter_count_many : buf -> buf array -> int -> int array -> unit;
  inter_counts_block :
    probe:buf -> data:buf -> k:int -> words:int -> dst:int array -> unit;
}

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

module Swar : KERNEL = struct
  let name = "swar"
  let description = "portable pure-OCaml SWAR popcount (reference)"

  let popcount_words (b : buf) n =
    let acc = ref 0 in
    for i = 0 to n - 1 do
      acc := !acc + popcount_word (Bigarray.Array1.unsafe_get b i)
    done;
    !acc

  let inter_count (a : buf) (b : buf) n =
    let acc = ref 0 in
    for i = 0 to n - 1 do
      acc :=
        !acc
        + popcount_word
            (Bigarray.Array1.unsafe_get a i land Bigarray.Array1.unsafe_get b i)
    done;
    !acc

  let inter_count_upto (a : buf) (b : buf) n ~limit =
    let acc = ref 0 and i = ref 0 in
    while !acc < limit && !i < n do
      acc :=
        !acc
        + popcount_word
            (Bigarray.Array1.unsafe_get a !i
            land Bigarray.Array1.unsafe_get b !i);
      incr i
    done;
    min !acc limit

  let inter_count_many (probe : buf) targets n dst =
    for j = 0 to Array.length targets - 1 do
      Array.unsafe_set dst j (inter_count probe (Array.unsafe_get targets j) n)
    done

  let inter_counts_block ~(probe : buf) ~(data : buf) ~k ~words ~dst =
    Array.fill dst 0 k 0;
    for w = 0 to words - 1 do
      let a = Bigarray.Array1.unsafe_get probe w in
      if a <> 0 then begin
        let base = w * k in
        for r = 0 to k - 1 do
          Array.unsafe_set dst r
            (Array.unsafe_get dst r
            + popcount_word (a land Bigarray.Array1.unsafe_get data (base + r))
            )
        done
      end
    done
end

(* C stubs (lib/util/kernel_stubs.c): __builtin_popcountll, with AVX2
   inner loops when the build probe granted -march=native AND a runtime
   CPUID probe confirms the executing host actually has AVX2 (a binary
   compiled on a newer machine degrades to the scalar path instead of
   dying on SIGILL). All are [@@noalloc] — they only read bigarray data
   pointers and store immediate ints, so no GC interaction. *)
external c_popcount_words : buf -> int -> int = "ndetect_c_popcount_words"
[@@noalloc]

external c_inter_count : buf -> buf -> int -> int = "ndetect_c_inter_count"
[@@noalloc]

external c_inter_count_upto : buf -> buf -> int -> int -> int
  = "ndetect_c_inter_count_upto"
[@@noalloc]

external c_inter_count_many : buf -> buf array -> int -> int array -> unit
  = "ndetect_c_inter_count_many"
[@@noalloc]

external c_inter_counts_block : buf -> buf -> int -> int -> int array -> unit
  = "ndetect_c_inter_counts_block"
[@@noalloc]

external c_description : unit -> string = "ndetect_c_description"

module C : KERNEL = struct
  let name = "c"
  let description = c_description ()
  let popcount_words b n = c_popcount_words b n
  let inter_count a b n = c_inter_count a b n
  let inter_count_upto a b n ~limit = c_inter_count_upto a b n limit
  let inter_count_many probe targets n dst =
    c_inter_count_many probe targets n dst

  let inter_counts_block ~probe ~data ~k ~words ~dst =
    c_inter_counts_block probe data k words dst
end

let swar : backend = (module Swar)
let c : backend = (module C)
let backends = [ ("swar", swar); ("c", c) ]
let default_name = "c"
let env_var = "NDETECT_KERNEL"

let ops_of (module K : KERNEL) =
  {
    name = K.name;
    description = K.description;
    popcount_words = K.popcount_words;
    inter_count = K.inter_count;
    inter_count_upto = K.inter_count_upto;
    inter_count_many = K.inter_count_many;
    inter_counts_block = K.inter_counts_block;
  }

(* Which backend ran is part of a run's observability: gauge value =
   position in [backends] (0 = swar, 1 = c), reported by --metrics and
   the trace counters footer. *)
let g_backend = Telemetry.Gauge.create "kernel.backend"

let state = ref (ops_of c)

let index_of name =
  let rec go i = function
    | [] -> -1
    | (n, _) :: rest -> if String.equal n name then i else go (i + 1) rest
  in
  go 0 backends

let select name =
  match List.assoc_opt name backends with
  | None ->
    Error
      (Printf.sprintf "unknown kernel backend %S (expected %s)" name
         (String.concat ", " (List.map fst backends)))
  | Some b ->
    state := ops_of b;
    Telemetry.Gauge.set g_backend (index_of name);
    Ok ()

let current () = !state
let current_name () = (!state).name
let describe () = Printf.sprintf "%s: %s" (!state).name (!state).description

(* Initial selection: NDETECT_KERNEL when it names a registered backend,
   the hardware default otherwise. An unknown value is deliberately
   ignored (not fatal): a stale environment must not break runs, and the
   driver's --kernel-backend flag still validates strictly. *)
let () =
  let initial =
    match Sys.getenv_opt env_var with
    | Some v when List.mem_assoc v backends -> v
    | Some _ | None -> default_name
  in
  match select initial with Ok () -> () | Error _ -> ()

external verify_region : buf -> off:int -> int -> int64 option
  = "ndetect_c_verify_region"
