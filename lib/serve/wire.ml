module Json = Sjos_obs.Json

let max_frame_bytes = 16 * 1024 * 1024

type read_result = Frame of Json.t | Eof | Bad of string

let rec retry_intr f = try f () with Unix.Unix_error (Unix.EINTR, _, _) -> retry_intr f

(* Read exactly [n] bytes; [`Eof got] reports a stream that ended early. *)
let read_exact fd buf n =
  let rec go off =
    if off >= n then `Ok
    else
      let r = retry_intr (fun () -> Unix.read fd buf off (n - off)) in
      if r = 0 then `Eof off else go (off + r)
  in
  go 0

let read_frame fd =
  let hdr = Bytes.create 4 in
  match read_exact fd hdr 4 with
  | `Eof 0 -> Eof
  | `Eof _ -> Bad "connection closed mid-header"
  | `Ok -> (
      let len = Int32.to_int (Bytes.get_int32_be hdr 0) in
      if len < 0 || len > max_frame_bytes then
        Bad (Printf.sprintf "frame length %d out of range 0..%d" len max_frame_bytes)
      else
        let payload = Bytes.create len in
        match read_exact fd payload len with
        | `Eof got ->
            Bad (Printf.sprintf "connection closed %d bytes into a %d-byte frame" got len)
        | `Ok -> (
            match Json.of_string (Bytes.unsafe_to_string payload) with
            | Ok j -> Frame j
            | Error msg -> Bad ("frame payload is not JSON: " ^ msg)))

let write_all fd buf =
  let n = Bytes.length buf in
  let rec go off =
    if off < n then
      let w = retry_intr (fun () -> Unix.write fd buf off (n - off)) in
      go (off + w)
  in
  go 0

let write_payload fd payload =
  let len = String.length payload in
  if len > max_frame_bytes then
    invalid_arg "Wire.write_payload: payload exceeds max_frame_bytes";
  let buf = Bytes.create (4 + len) in
  Bytes.set_int32_be buf 0 (Int32.of_int len);
  Bytes.blit_string payload 0 buf 4 len;
  write_all fd buf

let write_frame fd j = write_payload fd (Json.to_string j)

let wait_readable timeout fd =
  match retry_intr (fun () -> Unix.select [ fd ] [] [] timeout) with
  | [], _, _ -> `Timeout
  | _ -> `Readable

let peer_closed fd =
  match retry_intr (fun () -> Unix.select [ fd ] [] [] 0.0) with
  | [], _, _ -> false
  | _ -> (
      (* readable: either pipelined request bytes or EOF/reset *)
      let b = Bytes.create 1 in
      match retry_intr (fun () -> Unix.recv fd b 0 1 [ Unix.MSG_PEEK ]) with
      | 0 -> true
      | _ -> false
      | exception
          Unix.Unix_error
            ((Unix.ECONNRESET | Unix.EPIPE | Unix.ENOTCONN | Unix.EBADF), _, _)
        ->
          true)

let field j name = Json.member name j
let string_field j name =
  match field j name with Some (Json.Str s) -> Some s | _ -> None

let number_field j name = Option.bind (field j name) Json.number

let int_field j name =
  match field j name with Some (Json.Int n) -> Some n | _ -> None

let bool_field j name =
  match field j name with Some (Json.Bool b) -> Some b | _ -> None
