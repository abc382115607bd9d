module Bitvec = Ndetect_util.Bitvec

let unbounded = max_int

let nmin_pair rt ~gj ~fi =
  let m = Ref_table.m rt ~gj ~fi in
  if m = 0 then None else Some (Ref_table.n rt fi - m + 1)

let nmin rt gj =
  let best = ref unbounded in
  for fi = 0 to Ref_table.target_count rt - 1 do
    match nmin_pair rt ~gj ~fi with
    | Some v when v < !best -> best := v
    | Some _ | None -> ()
  done;
  !best

let distribution rt = Array.init (Ref_table.untargeted_count rt) (nmin rt)

let nmin_of_sets ~target_sets ~untargeted_sets =
  Array.map
    (fun g ->
      let best = ref unbounded in
      Array.iter
        (fun f ->
          let n = ref 0 and m = ref 0 in
          for v = 0 to Bitvec.length f - 1 do
            if Bitvec.get f v then begin
              incr n;
              if Bitvec.get g v then incr m
            end
          done;
          if !m > 0 && !n - !m + 1 < !best then best := !n - !m + 1)
        target_sets;
      !best)
    untargeted_sets
