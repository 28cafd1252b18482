(** The serve protocol's framing layer: length-prefixed JSON over a
    stream socket.

    A frame is a 4-byte big-endian payload length followed by that many
    bytes of UTF-8 JSON ({!Sjos_obs.Json}).  The length prefix makes
    request boundaries explicit — no sniffing for balanced braces — and
    lets the server reject oversized payloads {e before} buffering them
    ({!max_frame_bytes}).

    All reads and writes retry on [EINTR] and loop over partial
    transfers.  Nothing here raises on malformed input: a bad frame
    comes back as {!read_result.Bad} so the caller can answer with a
    structured error and decide whether the stream is still usable. *)

val max_frame_bytes : int
(** Hard ceiling on a frame payload (16 MiB).  A peer announcing more is
    assumed broken or hostile; the connection should be closed. *)

type read_result =
  | Frame of Sjos_obs.Json.t  (** a complete, well-formed request *)
  | Eof  (** orderly close before (or at) a frame boundary *)
  | Bad of string
      (** framing or JSON damage — oversized length, short read inside a
          frame, unparsable payload *)

val read_frame : Unix.file_descr -> read_result
(** Block until one full frame (or EOF / damage) has been read. *)

val write_frame : Unix.file_descr -> Sjos_obs.Json.t -> unit
(** Serialize and send one frame.  Raises [Unix.Unix_error] (e.g.
    [EPIPE]) when the peer is gone — callers at the server boundary
    swallow that; the response has nowhere to go.  Raises
    [Invalid_argument] when the serialized payload exceeds
    {!max_frame_bytes}; the server pre-checks sizes with
    {!write_payload} so that can only happen to misbehaving clients. *)

val write_payload : Unix.file_descr -> string -> unit
(** Send one already-serialized frame payload.  Lets the caller check
    [String.length] against {!max_frame_bytes} first (and substitute a
    structured error response) instead of paying for serialization
    twice or letting [Invalid_argument] escape mid-connection. *)

val wait_readable : float -> Unix.file_descr -> [ `Readable | `Timeout ]
(** [wait_readable timeout fd] — [select] with a timeout in seconds, so
    read loops can poll a shutdown flag between frames. *)

val retry_intr : (unit -> 'a) -> 'a
(** Re-run the thunk until it completes without [EINTR]. *)

val peer_closed : Unix.file_descr -> bool
(** True when the peer has half-closed or reset the connection: the
    socket selects readable and a [MSG_PEEK] recv returns 0 (or fails
    with a connection error).  Pipelined request bytes do {e not} count
    as a close.  Never consumes data and never blocks. *)

val field : Sjos_obs.Json.t -> string -> Sjos_obs.Json.t option
val string_field : Sjos_obs.Json.t -> string -> string option
val number_field : Sjos_obs.Json.t -> string -> float option
val int_field : Sjos_obs.Json.t -> string -> int option
val bool_field : Sjos_obs.Json.t -> string -> bool option
