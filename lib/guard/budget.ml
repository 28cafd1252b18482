open Sjos_obs

type resource =
  | Wall_clock
  | Statuses_expanded
  | Tuples_materialized of { limit : int; count : int }
  | Cancelled

type t = {
  deadline_ns : int64 option;
  max_expanded : int option;
  max_tuples : int option;
  cancelled : bool Atomic.t;
}

exception Exhausted of { resource : resource; during : string }

let unlimited =
  {
    deadline_ns = None;
    max_expanded = None;
    max_tuples = None;
    cancelled = Atomic.make false;
  }

let make ?deadline_ms ?max_expanded ?max_tuples ?cancelled () =
  match (deadline_ms, max_expanded, max_tuples, cancelled) with
  | None, None, None, None -> unlimited
  | _ ->
      let deadline_ns =
        Option.map
          (fun ms ->
            Int64.add (Clock.now_ns ()) (Int64.of_float (ms *. 1e6)))
          deadline_ms
      in
      {
        deadline_ns;
        max_expanded;
        max_tuples;
        cancelled =
          (match cancelled with Some c -> c | None -> Atomic.make false);
      }

let cancel t =
  if t == unlimited then invalid_arg "Budget.cancel: the unlimited budget";
  Atomic.set t.cancelled true

(* Physical equality only: a budget built with no ceilings but its own
   [cancelled] ref (e.g. the serve path's disconnect-cancellable
   budgets) must never be treated as unlimited, or every poll that the
   executor gates on [is_unlimited] would be skipped and cancellation
   would silently become a no-op. *)
let is_unlimited t = t == unlimited

let poll t =
  if t == unlimited then None
  else if Atomic.get t.cancelled then Some Cancelled
  else
    match t.deadline_ns with
    | Some d when Int64.compare (Clock.now_ns ()) d >= 0 -> Some Wall_clock
    | _ -> None

let exhaust ~during resource = raise (Exhausted { resource; during })

let check t ~during =
  match poll t with Some r -> exhaust ~during r | None -> ()

let check_search t ~during ~expanded =
  if t != unlimited then begin
    (match t.max_expanded with
    | Some m when expanded >= m -> exhaust ~during Statuses_expanded
    | _ -> ());
    check t ~during
  end

let check_tuples t ~during ~count =
  if t != unlimited then
    match t.max_tuples with
    | Some limit when count > limit ->
        exhaust ~during (Tuples_materialized { limit; count })
    | _ -> ()

let resource_name = function
  | Wall_clock -> "wall_clock"
  | Statuses_expanded -> "statuses_expanded"
  | Tuples_materialized _ -> "tuples_materialized"
  | Cancelled -> "cancelled"
