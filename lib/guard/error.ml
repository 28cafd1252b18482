open Sjos_obs

type t =
  | Parse_error of { input : string; message : string }
  | Invalid_request of string
  | Invalid_plan of string
  | Budget_exhausted of { resource : Budget.resource; during : string }
  | Corrupt_input of { source : string; reason : string }
  | Internal of string
  | Overloaded of { reason : string; retry_after_ms : float }

exception Error of t

let fail t = raise (Error t)

let class_name = function
  | Parse_error _ -> "parse_error"
  | Invalid_request _ -> "invalid_request"
  | Invalid_plan _ -> "invalid_plan"
  | Budget_exhausted _ -> "budget_exhausted"
  | Corrupt_input _ -> "corrupt_input"
  | Internal _ -> "internal"
  | Overloaded _ -> "overloaded"

(* Scripts match on these codes, so a code is never reassigned: 6 is
   unused. *)
let classes =
  [
    ("parse_error", 2);
    ("invalid_request", 3);
    ("invalid_plan", 4);
    ("budget_exhausted", 5);
    ("corrupt_input", 7);
    ("internal", 8);
    ("overloaded", 9);
  ]

let exit_code t = List.assoc (class_name t) classes
let all_class_names = List.map fst classes
let exit_code_of_class name = List.assoc_opt name classes

let message = function
  | Parse_error { message; _ } -> message
  | Invalid_request m -> m
  | Invalid_plan m -> m
  | Budget_exhausted { resource; during } ->
      Fmt.str "%s budget exhausted during %s" (Budget.resource_name resource)
        during
      ^
      (match resource with
      | Budget.Tuples_materialized { limit; count } ->
          Fmt.str " (%d tuples produced, limit %d)" count limit
      | _ -> "")
  | Corrupt_input { source; reason } -> Fmt.str "%s: %s" source reason
  | Internal m -> m
  | Overloaded { reason; retry_after_ms } ->
      Fmt.str "%s (retry after ~%.0f ms)" reason retry_after_ms

let of_exn = function
  | Error t -> Some t
  | Budget.Exhausted { resource; during } ->
      Some (Budget_exhausted { resource; during })
  (* Every [invalid_arg] in the engine marks a well-formed call with
     out-of-range inputs (an oversized pattern, a bad node index, a
     non-positive knob) — a caller error, not an engine invariant, so it
     classes as a request error rather than [Internal].  This matches
     the CLI, which has always exited 3 on [Invalid_argument]. *)
  | Invalid_argument msg -> Some (Invalid_request msg)
  | Sjos_storage.Column_store.Io_error { path; reason } ->
      Some (Corrupt_input { source = path; reason })
  | Sjos_xml.Parser.Parse_error { line; col; message } ->
      Some
        (Parse_error
           {
             input = "xml";
             message = Printf.sprintf "line %d, col %d: %s" line col message;
           })
  | _ -> None

let protect f =
  match f () with
  | r -> Ok r
  | exception ((Out_of_memory | Stack_overflow) as e) -> raise e
  | exception e -> (
      match of_exn e with
      | Some t -> Result.Error t
      | None -> Result.Error (Internal (Printexc.to_string e)))

let to_json t =
  let base = [ ("class", Json.Str (class_name t)); ("message", Json.Str (message t)) ] in
  let extra =
    match t with
    | Budget_exhausted { resource; during } ->
        [
          ("resource", Json.Str (Budget.resource_name resource));
          ("during", Json.Str during);
        ]
        @ (match resource with
          | Budget.Tuples_materialized { limit; count } ->
              [ ("limit", Json.Int limit); ("count", Json.Int count) ]
          | _ -> [])
    | Parse_error { input; _ } -> [ ("input", Json.Str input) ]
    | Corrupt_input { source; _ } -> [ ("source", Json.Str source) ]
    | Overloaded { retry_after_ms; _ } ->
        [ ("retry_after_ms", Json.Float retry_after_ms) ]
    | _ -> []
  in
  Json.Obj (base @ extra)
