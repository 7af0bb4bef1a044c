type reason = Deadline | Requested

exception Cancelled of reason

(* state: 0 live, 1 cancel requested, 2 deadline expired.  The first
   transition away from 0 wins and is never overwritten. *)
type t = {
  state : int Atomic.t;
  deadline : float;  (* absolute Timer.now seconds; [infinity] = none *)
  hook : (unit -> unit) Atomic.t;
}

let no_hook () = ()

let create ?deadline_s () =
  let deadline =
    match deadline_s with
    | None -> infinity
    | Some s ->
      if s < 0.0 then invalid_arg "Cancel.create: negative deadline";
      Timer.now () +. s
  in
  { state = Atomic.make 0; deadline; hook = Atomic.make no_hook }

let cancel t = ignore (Atomic.compare_and_set t.state 0 1)

(* Poll the state, folding a passed deadline into it.  [now >= infinity]
   is false, so tokens without a deadline never pay the comparison's
   branch. *)
let poll_state t =
  match Atomic.get t.state with
  | 0 ->
    if Timer.now () >= t.deadline then begin
      ignore (Atomic.compare_and_set t.state 0 2);
      Atomic.get t.state
    end
    else 0
  | s -> s

let is_cancelled t =
  (Atomic.get t.hook) ();
  poll_state t <> 0

let check t =
  (Atomic.get t.hook) ();
  match poll_state t with
  | 0 -> ()
  | 1 -> raise (Cancelled Requested)
  | _ -> raise (Cancelled Deadline)

let reason t =
  match poll_state t with 0 -> None | 1 -> Some Requested | _ -> Some Deadline

let remaining_s t =
  match poll_state t with
  | 0 -> if t.deadline = infinity then infinity else max 0.0 (t.deadline -. Timer.now ())
  | _ -> 0.0

let set_hook t f = Atomic.set t.hook f

let clear_hook t = Atomic.set t.hook no_hook

let check_opt = function Some t -> check t | None -> ()
