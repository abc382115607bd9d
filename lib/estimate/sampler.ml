module Rng = Ndetect_util.Rng

let max_inputs = 61

let debug_bias = ref false

let check_bits universe_bits =
  if universe_bits < 1 || universe_bits > max_inputs then
    invalid_arg
      (Printf.sprintf "Sampler: universe_bits %d outside [1, %d]"
         universe_bits max_inputs)

(* Near-equal split of [total] across [parts]: base size [total/parts],
   the first [total mod parts] parts one larger. Used for both the
   vector intervals and the sample allocation so the two partitions
   stay aligned in shape. *)
let widths ~total ~parts =
  let base = total / parts and extra = total mod parts in
  Array.init parts (fun i -> base + if i < extra then 1 else 0)

let stratum_bounds ~universe_bits ~strata =
  check_bits universe_bits;
  let u = 1 lsl universe_bits in
  if strata < 1 || strata > u then
    invalid_arg
      (Printf.sprintf "Sampler: strata %d outside [1, 2^%d]" strata
         universe_bits);
  let w = widths ~total:u ~parts:strata in
  let bounds = Array.make strata (0, 0) in
  let lo = ref 0 in
  for i = 0 to strata - 1 do
    bounds.(i) <- (!lo, !lo + w.(i));
    lo := !lo + w.(i)
  done;
  bounds

let allocation ~samples ~strata =
  if strata < 1 then invalid_arg "Sampler: strata must be positive";
  if samples < strata then
    invalid_arg
      (Printf.sprintf "Sampler: samples %d < strata %d (each stratum draws \
                       at least once)"
         samples strata)
  else widths ~total:samples ~parts:strata

let draw_range ~universe_bits ~samples ~strata ~seed ~lo ~hi =
  let bounds = stratum_bounds ~universe_bits ~strata in
  let alloc = allocation ~samples ~strata in
  if lo < 0 || hi > strata || lo > hi then
    invalid_arg
      (Printf.sprintf "Sampler: stratum range [%d, %d) outside [0, %d)" lo hi
         strata);
  let total = ref 0 in
  for i = lo to hi - 1 do
    total := !total + alloc.(i)
  done;
  let out = Array.make (max 1 !total) 0 in
  let k = ref 0 in
  for i = lo to hi - 1 do
    (* Stratum i's stream is the (i+1)-th split of [create ~seed], the
       same whichever range of strata this call draws. *)
    let stream = Rng.stream ~seed i in
    let slo, shi = bounds.(i) in
    let width = shi - slo in
    for _ = 1 to alloc.(i) do
      out.(!k) <-
        (if !debug_bias then slo else slo + Rng.int stream ~bound:width);
      incr k
    done
  done;
  Array.sub out 0 !total

let draw ~universe_bits ~samples ~strata ~seed =
  draw_range ~universe_bits ~samples ~strata ~seed ~lo:0 ~hi:strata
