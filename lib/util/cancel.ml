exception Cancelled

type token = {
  flag : bool Atomic.t;
  deadline : float option;  (* absolute Clock.now time *)
  (* Poll counter used to amortize clock reads. Racy updates across
     domains are harmless: a lost increment only shifts when the next
     clock check happens. *)
  mutable ticks : int;
  never : bool;  (* the shared [none] token; cancel is a no-op *)
}

let none =
  { flag = Atomic.make false; deadline = None; ticks = 0; never = true }

let create ?deadline_in () =
  let deadline =
    Option.map
      (fun s ->
        if s <= 0.0 then invalid_arg "Cancel.create: deadline_in must be > 0";
        Clock.now () +. s)
      deadline_in
  in
  { flag = Atomic.make false; deadline; ticks = 0; never = false }

let deadline t = t.deadline

let remaining t =
  Option.map (fun d -> d -. Clock.now ()) t.deadline

let cancel t = if not t.never then Atomic.set t.flag true

let cancelled t = Atomic.get t.flag

(* How many polls between clock reads. *)
let clock_mask = 0xFF

let expire_if_past_deadline t =
  match t.deadline with
  | Some d when Clock.now () > d ->
    Atomic.set t.flag true;
    raise Cancelled
  | Some _ | None -> ()

let check_deadline t =
  if Atomic.get t.flag then raise Cancelled;
  expire_if_past_deadline t

let poll t =
  if Atomic.get t.flag then raise Cancelled;
  match t.deadline with
  | None -> ()
  | Some _ ->
    t.ticks <- t.ticks + 1;
    if t.ticks land clock_mask = 0 then expire_if_past_deadline t
