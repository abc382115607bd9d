module Rng = Ndetect_util.Rng
module Procedure1 = Ndetect_core.Procedure1

type set_state = {
  members : bool array;
  mutable added : (int * int) list;  (* (vector, iteration), reverse order *)
  def1_counts : int array;
  chains : int list array;  (* reverse order, like the optimized state *)
  chain_lens : int array;
  strict_exhausted : bool array;
}

type outcome = {
  nmax : int;
  detected : int array array;  (* detected.(n-1).(gj) *)
  sets : set_state array;
}

(* T(fi) - Tk as an increasing list, read off the reference bool
   arrays. *)
let unused_of tf members =
  let acc = ref [] in
  for v = Array.length tf - 1 downto 0 do
    if tf.(v) && not members.(v) then acc := v :: !acc
  done;
  !acc

(* Mirrors Procedure1.pick_uniform_diff: one Rng.int draw iff at least
   one unused test exists; nth_diff indexes the difference in increasing
   vector order. *)
let pick_uniform_diff rng tf members =
  match unused_of tf members with
  | [] -> None
  | unused -> Some (List.nth unused (Rng.int rng ~bound:(List.length unused)))

(* Mirrors Procedure1.pick_candidate, including its RNG consumption: up
   to eight rejection samples, each judged before the next is drawn,
   then the unused tests listed in DECREASING vector order (the order
   of Bitvec.diff_desc_into) and permuted by one shuffle_in_place. *)
let pick_candidate rng ~accepts members tf =
  let rec sample attempts =
    if attempts = 0 then None
    else
      match pick_uniform_diff rng tf members with
      | None -> None
      | Some v -> if accepts v then Some v else sample (attempts - 1)
  in
  match sample 8 with
  | Some v -> Some v
  | None ->
    let unused = Array.of_list (List.rev (unused_of tf members)) in
    Rng.shuffle_in_place rng unused;
    let rec scan i =
      if i >= Array.length unused then None
      else if accepts unused.(i) then Some unused.(i)
      else scan (i + 1)
    in
    scan 0

let run rt (cfg : Procedure1.config) =
  if cfg.set_count < 1 || cfg.nmax < 1 then
    invalid_arg "Ref_procedure1.run: bad config";
  let universe = Ref_table.universe rt in
  let f_count = Ref_table.target_count rt in
  let g_count = Ref_table.untargeted_count rt in
  let def2 =
    match cfg.mode with
    | Procedure1.Definition2 ->
      Some
        (Ref_def2.create (Ref_table.net rt)
           (Array.init f_count (Ref_table.target_fault rt)))
    | Procedure1.Definition1 -> None
  in
  (* Same stream discipline as the optimized run: split once per set,
     in set order, from one root. *)
  let root = Rng.create ~seed:cfg.seed in
  let rngs = Array.init cfg.set_count (fun _ -> root) in
  for k = 0 to cfg.set_count - 1 do
    rngs.(k) <- Rng.split root
  done;
  let detected = Array.init cfg.nmax (fun _ -> Array.make g_count 0) in
  let sets =
    Array.init cfg.set_count (fun k ->
        let rng = rngs.(k) in
        let s =
          {
            members = Array.make universe false;
            added = [];
            def1_counts = Array.make f_count 0;
            chains = Array.make f_count [];
            chain_lens = Array.make f_count 0;
            strict_exhausted = Array.make f_count false;
          }
        in
        let first_detected = Array.make g_count 0 in
        let add_test ~iteration v =
          s.members.(v) <- true;
          s.added <- (v, iteration) :: s.added;
          for fi = 0 to f_count - 1 do
            if (Ref_table.target_set rt fi).(v) then begin
              s.def1_counts.(fi) <- s.def1_counts.(fi) + 1;
              (match def2 with
              | Some def2 ->
                if
                  s.chain_lens.(fi) < cfg.nmax
                  && Ref_def2.chain_extend def2 ~fi ~chain:s.chains.(fi) v
                then begin
                  s.chains.(fi) <- v :: s.chains.(fi);
                  s.chain_lens.(fi) <- s.chain_lens.(fi) + 1
                end
              | None -> ())
            end
          done;
          for gj = 0 to g_count - 1 do
            if (Ref_table.untargeted_set rt gj).(v) && first_detected.(gj) = 0
            then first_detected.(gj) <- iteration
          done
        in
        for n = 1 to cfg.nmax do
          for fi = 0 to f_count - 1 do
            let tf = Ref_table.target_set rt fi in
            let def1_step () =
              if s.def1_counts.(fi) < n then
                match pick_uniform_diff rng tf s.members with
                | Some v -> add_test ~iteration:n v
                | None -> ()
            in
            match cfg.mode with
            | Procedure1.Definition1 -> def1_step ()
            | Procedure1.Definition2 ->
              if s.chain_lens.(fi) < n then
                if s.strict_exhausted.(fi) then def1_step ()
                else begin
                  let accepts v =
                    Ref_def2.chain_extend (Option.get def2) ~fi
                      ~chain:s.chains.(fi) v
                  in
                  match pick_candidate rng ~accepts s.members tf with
                  | Some v -> add_test ~iteration:n v
                  | None ->
                    s.strict_exhausted.(fi) <- true;
                    def1_step ()
                end
          done
        done;
        Array.iteri
          (fun gj n ->
            if n > 0 then detected.(n - 1).(gj) <- detected.(n - 1).(gj) + 1)
          first_detected;
        s)
  in
  for n = 1 to cfg.nmax - 1 do
    for gj = 0 to g_count - 1 do
      detected.(n).(gj) <- detected.(n).(gj) + detected.(n - 1).(gj)
    done
  done;
  { nmax = cfg.nmax; detected; sets }

let detected_count o ~n ~gj =
  if n < 1 || n > o.nmax then invalid_arg "Ref_procedure1: n out of range";
  o.detected.(n - 1).(gj)

let test_set o ~k = List.rev_map fst o.sets.(k).added
let detection_count_def1 o ~k ~fi = o.sets.(k).def1_counts.(fi)
let chain_def2 o ~k ~fi = List.rev o.sets.(k).chains.(fi)
