(* Bits are packed 62 payload bits per word; using 62 rather than 63
   keeps the same batch width as the bit-parallel simulator, which
   simplifies cross-checking, and costs almost nothing.

   The backing store is a Bigarray of untagged native ints
   ({!Kernel.buf}) rather than an [int array]: the C kernel
   reads the data pointer directly, [Bigarray.Array1.sub] gives
   zero-copy views, and [Unix.map_file] gives vectors (and whole
   blocked layouts) living in a file — the table cache's v3 mmap path
   builds every detection set as a view into one mapping. Invariant:
   words hold non-negative 62-bit payloads and every bit at or above
   [len] is zero (creation zero-fills; setters mask; external buffers
   are checksum-verified by their producer).

   Bulk counting ops call the C kernel's [@@noalloc] externals
   ({!Kernel}) directly. Everything else (single-bit access, iteration,
   set algebra) is OCaml. *)

module A1 = Bigarray.Array1

let bits_per_word = 62

type buf = Kernel.buf
type t = { len : int; buf : buf }

let word_count len = (len + bits_per_word - 1) / bits_per_word

let alloc_words n =
  (* Array1.create is uninitialized memory; the zero fill is load-bearing
     (padding words above [len] must be zero for the kernels). *)
  let b = A1.create Bigarray.int Bigarray.c_layout (max 1 n) in
  A1.fill b 0;
  b

let create len =
  if len < 0 then invalid_arg "Bitvec.create: negative length";
  { len; buf = alloc_words (word_count len) }

let length t = t.len

let copy t =
  let b = alloc_words (A1.dim t.buf) in
  A1.blit t.buf b;
  { len = t.len; buf = b }

let create_many n len =
  if n < 0 then invalid_arg "Bitvec.create_many: negative count";
  if len < 0 then invalid_arg "Bitvec.create_many: negative length";
  let words = max 1 (word_count len) in
  let pool = alloc_words (n * words) in
  Array.init n (fun i -> { len; buf = A1.sub pool (i * words) words })

let of_view len (buf : buf) =
  if len < 0 then invalid_arg "Bitvec.of_view: negative length";
  if A1.dim buf <> max 1 (word_count len) then
    invalid_arg "Bitvec.of_view: buffer dimension mismatch";
  { len; buf }

let check t i =
  if i < 0 || i >= t.len then invalid_arg "Bitvec: index out of bounds"

let get t i =
  check t i;
  A1.get t.buf (i / bits_per_word) lsr (i mod bits_per_word) land 1 = 1

let set t i =
  check t i;
  let w = i / bits_per_word in
  A1.set t.buf w (A1.get t.buf w lor (1 lsl (i mod bits_per_word)))

let clear t i =
  check t i;
  let w = i / bits_per_word in
  A1.set t.buf w (A1.get t.buf w land lnot (1 lsl (i mod bits_per_word)))

let assign t i b = if b then set t i else clear t i

let word_length t = A1.dim t.buf
let unsafe_get_word t w = A1.unsafe_get t.buf w
let unsafe_set_word t w v = A1.unsafe_set t.buf w v

(* Local SWAR popcount for the word walks that are not bulk counts
   (diff counts, ordered iteration); the bulk counts live in {!Kernel}. *)
let popcount_word = Kernel.popcount_word

(* Count-trailing-zeros of the isolated lowest set bit via a 32-bit De
   Bruijn multiply (OCaml ints are 63-bit, so the classic 64-bit constant
   cannot be used directly; one halving branch keeps everything in
   range). [low] must be a power of two. *)
let ctz_table =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8; 31; 27; 13;
     23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

let ctz_low low =
  if low land 0xFFFFFFFF <> 0 then
    Array.unsafe_get ctz_table ((low * 0x077CB531 land 0xFFFFFFFF) lsr 27)
  else
    32
    + Array.unsafe_get ctz_table
        (((low lsr 32) * 0x077CB531 land 0xFFFFFFFF) lsr 27)

let lowest_bit w = ctz_low (w land -w)

let count t = Kernel.popcount_words t.buf (A1.dim t.buf)

let is_empty t =
  let n = A1.dim t.buf in
  let rec go i = i >= n || (A1.unsafe_get t.buf i = 0 && go (i + 1)) in
  go 0

let same_len a b =
  if a.len <> b.len then invalid_arg "Bitvec: length mismatch"

(* Equal lengths mean equal word counts, so one kernel [memcmp] over
   the payload words decides. *)
let equal a b = a.len = b.len && Kernel.equal_words a.buf b.buf (A1.dim a.buf)

let compare a b =
  let c = Int.compare a.len b.len in
  if c <> 0 then c
  else begin
    let n = A1.dim a.buf in
    let rec go i =
      if i >= n then 0
      else begin
        let c = Int.compare (A1.unsafe_get a.buf i) (A1.unsafe_get b.buf i) in
        if c <> 0 then c else go (i + 1)
      end
    in
    go 0
  end

(* The kernel's content hash over the backing words (their count
   included, the bit length not: {!equal} compares that anyway). *)
let hash t = Kernel.hash_words t.buf (A1.dim t.buf)

let inter_count a b =
  same_len a b;
  Kernel.inter_count a.buf b.buf (A1.dim a.buf)

let map2 op a b =
  same_len a b;
  let n = A1.dim a.buf in
  let dst = alloc_words n in
  for i = 0 to n - 1 do
    A1.unsafe_set dst i (op (A1.unsafe_get a.buf i) (A1.unsafe_get b.buf i))
  done;
  { len = a.len; buf = dst }

let inter a b = map2 ( land ) a b
let union a b = map2 ( lor ) a b
let diff a b = map2 (fun x y -> x land lnot y) a b

let union_in_place a b =
  same_len a b;
  for i = 0 to A1.dim a.buf - 1 do
    A1.unsafe_set a.buf i (A1.unsafe_get a.buf i lor A1.unsafe_get b.buf i)
  done

let inter_hash_into dst a b =
  same_len dst a;
  same_len a b;
  Kernel.inter_hash_into dst.buf a.buf b.buf (A1.dim a.buf)

let intersects a b =
  same_len a b;
  let n = A1.dim a.buf in
  let rec go i =
    i < n && (A1.unsafe_get a.buf i land A1.unsafe_get b.buf i <> 0 || go (i + 1))
  in
  go 0

let subset a b =
  same_len a b;
  let n = A1.dim a.buf in
  let rec go i =
    i >= n
    || (A1.unsafe_get a.buf i land lnot (A1.unsafe_get b.buf i) = 0
       && go (i + 1))
  in
  go 0

let iter_set t f =
  for wi = 0 to A1.dim t.buf - 1 do
    let w = ref (A1.unsafe_get t.buf wi) in
    while !w <> 0 do
      let low = !w land - !w in
      f ((wi * bits_per_word) + ctz_low low);
      w := !w land (!w - 1)
    done
  done

let to_list t =
  let acc = ref [] in
  iter_set t (fun i -> acc := i :: !acc);
  List.rev !acc

let of_list len indices =
  let t = create len in
  List.iter (fun i -> set t i) indices;
  t

let fold_set t ~init ~f =
  let acc = ref init in
  iter_set t (fun i -> acc := f !acc i);
  !acc

exception Found of int

let choose t =
  try
    iter_set t (fun i -> raise (Found i));
    None
  with Found i -> Some i

let nth_diff a b k =
  same_len a b;
  if k < 0 then raise Not_found;
  let remaining = ref k and result = ref (-1) and wi = ref 0 in
  let n = A1.dim a.buf in
  while !result < 0 && !wi < n do
    let w = ref (A1.unsafe_get a.buf !wi land lnot (A1.unsafe_get b.buf !wi)) in
    let c = popcount_word !w in
    if c <= !remaining then remaining := !remaining - c
    else begin
      (* The bit is inside this word: strip low set bits until it is the
         lowest one. *)
      while !remaining > 0 do
        w := !w land (!w - 1);
        decr remaining
      done;
      result := (!wi * bits_per_word) + ctz_low (!w land - !w)
    end;
    incr wi
  done;
  if !result < 0 then raise Not_found else !result

let diff_desc_into a b dst =
  same_len a b;
  let n = Array.length dst and pos = ref 0 in
  for wi = 0 to A1.dim a.buf - 1 do
    let w = ref (A1.unsafe_get a.buf wi land lnot (A1.unsafe_get b.buf wi)) in
    while !w <> 0 do
      if !pos >= n then invalid_arg "Bitvec.diff_desc_into: array too short";
      dst.(n - 1 - !pos) <- (wi * bits_per_word) + lowest_bit !w;
      incr pos;
      w := !w land (!w - 1)
    done
  done;
  if !pos < n then invalid_arg "Bitvec.diff_desc_into: array too long"

let nth_set t k =
  if k < 0 then raise Not_found;
  let remaining = ref k in
  try
    iter_set t (fun i ->
        if !remaining = 0 then raise (Found i) else decr remaining);
    raise Not_found
  with Found i -> i

(* Open addressing with linear probing: slot [i] holds a class id
   ([-1] = empty) and the hash it was added with. A probe compares the
   stored hash first and the words only on a hash match, so equal
   hashes alone never merge two classes. The load stays at most 1/2;
   growing rehashes from the stored hashes. *)
module Index = struct
  type vec = t

  type t = {
    mutable mask : int;
    mutable hashes : int array;
    mutable ids : int array;
    mutable sets : vec array;  (* class id -> representative *)
    mutable classes : int;
    trust : bool;  (* the sabotage: 4-bit hashes, no word check *)
  }

  let placeholder = { len = 0; buf = alloc_words 0 }

  let create ?(debug_trust_hash = false) hint =
    let cap = ref 16 in
    while !cap < 2 * hint do
      cap := 2 * !cap
    done;
    {
      mask = !cap - 1;
      hashes = Array.make !cap 0;
      ids = Array.make !cap (-1);
      sets = Array.make 16 placeholder;
      classes = 0;
      trust = debug_trust_hash;
    }

  let classes t = t.classes
  let to_array t = Array.sub t.sets 0 t.classes

  let rehash t =
    let cap = 2 * (t.mask + 1) in
    let mask = cap - 1 in
    let hashes = Array.make cap 0 and ids = Array.make cap (-1) in
    Array.iteri
      (fun slot id ->
        if id >= 0 then begin
          let h = t.hashes.(slot) in
          let i = ref (h land mask) in
          while ids.(!i) >= 0 do
            i := (!i + 1) land mask
          done;
          hashes.(!i) <- h;
          ids.(!i) <- id
        end)
      t.ids;
    t.mask <- mask;
    t.hashes <- hashes;
    t.ids <- ids

  let insert t slot hash v =
    let c = t.classes in
    if c = Array.length t.sets then begin
      let sets = Array.make (2 * c) placeholder in
      Array.blit t.sets 0 sets 0 c;
      t.sets <- sets
    end;
    t.sets.(c) <- v;
    t.hashes.(slot) <- hash;
    t.ids.(slot) <- c;
    t.classes <- c + 1;
    if 2 * t.classes > t.mask + 1 then rehash t;
    c

  let add ?copy:(copying = false) ?hash:h t v =
    let trust = t.trust in
    let h = match h with Some h -> h | None -> hash v in
    let h = if trust then h land 15 else h in
    let rec probe i =
      let id = Array.unsafe_get t.ids i in
      if id < 0 then insert t i h (if copying then copy v else v)
      else if
        Array.unsafe_get t.hashes i = h
        && (trust || equal (Array.unsafe_get t.sets id) v)
      then id
      else probe ((i + 1) land t.mask)
    in
    probe (h land t.mask)
end

(* Cache-blocked, word-major storage for a family of equal-length vectors:
   rows are grouped into blocks of [block_size], and inside a block word
   [w] of row [r] lives at [data.(off + w * k + r)] where [k] is the
   block's row count. The whole layout is one contiguous buffer (block
   [b] starts at word [b * block_size * words]), so it can be written to
   disk and mapped back verbatim; [subs] holds one zero-copy sub-view
   per block, created once, so the per-block kernel call allocates
   nothing. *)
let len_of (t : t) = t.len
let buf_of (t : t) = t.buf

module Blocked = struct
  type vec = t

  type t = {
    len : int;
    rows : int;
    block_size : int;
    words : int;  (* words per row; 0 iff rows = 0 *)
    data : buf;  (* contiguous, [rows * words] payload words *)
  }

  let rows t = t.rows
  let length t = t.len
  let block_size t = t.block_size
  let raw t = t.data
  let words_per_row t = t.words

  let of_buffer ?(block_size = 8) ~len ~rows data =
    if block_size < 1 then
      invalid_arg "Bitvec.Blocked.of_buffer: block_size < 1";
    if len < 0 || rows < 0 then
      invalid_arg "Bitvec.Blocked.of_buffer: negative dimension";
    let words = if rows = 0 then 0 else max 1 (word_count len) in
    if A1.dim data < rows * words then
      invalid_arg "Bitvec.Blocked.of_buffer: buffer too small";
    { len; rows; block_size; words; data }

  let pack ?(block_size = 8) (vectors : vec array) =
    if block_size < 1 then invalid_arg "Bitvec.Blocked.pack: block_size < 1";
    let rows = Array.length vectors in
    let len = if rows = 0 then 0 else len_of vectors.(0) in
    Array.iter
      (fun v ->
        if len_of v <> len then
          invalid_arg "Bitvec.Blocked.pack: length mismatch")
      vectors;
    let words = if rows = 0 then 0 else A1.dim (buf_of vectors.(0)) in
    let data = alloc_words (rows * words) in
    for b = 0 to ((rows + block_size - 1) / block_size) - 1 do
      let base = b * block_size in
      let k = min block_size (rows - base) in
      let off = base * words in
      for r = 0 to k - 1 do
        let src = buf_of vectors.(base + r) in
        for w = 0 to words - 1 do
          A1.unsafe_set data (off + (w * k) + r) (A1.unsafe_get src w)
        done
      done
    done;
    { len; rows; block_size; words; data }

  let scan t ~row_n ~probe_count probe out =
    if t.rows > 0 && len_of probe <> t.len then
      invalid_arg "Bitvec.Blocked.scan: length mismatch";
    if Array.length row_n <> t.rows then
      invalid_arg "Bitvec.Blocked.scan: row_n length mismatch";
    if Array.length out < 4 then
      invalid_arg "Bitvec.Blocked.scan: out too small";
    Kernel.blocked_scan (buf_of probe) t.data row_n t.block_size t.words
      probe_count out
end

let pp ppf t =
  let first = ref true in
  Format.fprintf ppf "{";
  iter_set t (fun i ->
      if !first then first := false else Format.fprintf ppf "; ";
      Format.fprintf ppf "%d" i);
  Format.fprintf ppf "}"
