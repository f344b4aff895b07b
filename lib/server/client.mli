(** Blocking client for the placement server — the library behind
    [place submit], [place watch] and the multi-client tests.

    One connection, one outstanding request at a time: every request is
    stamped with a fresh ["seq"] and the reply matched by its echo (a
    connection-level refusal carries no echo and is taken as the match).
    Event lines arriving between responses are buffered for
    {!next_event} and their ["ev"] numbers tracked.

    Failures are typed: {!Refused} is the server's structured protocol
    error (the request was heard and answered); {!Transport} is
    socket-level trouble.  The operations that are idempotent by job id
    — {!wait}, {!status}, {!job_result}, and the {!next_event} stream —
    transparently {e reconnect and resume} on transport failure:
    re-dial the address, re-subscribe from the last seen event number,
    re-issue the request.  {!submit} never retries (a resubmission would
    duplicate the job). *)

type t

type failure =
  | Refused of Engine.Protocol.error
  | Transport of string

val failure_message : failure -> string

(** [connect addr] dials the server.  [retries] (default 0) re-dials
    with a short backoff — for racing a server that is still binding. *)
val connect : ?retries:int -> Address.t -> (t, string) result

val close : t -> unit

val address : t -> Address.t

(** [request t fields] sends one request object (["cmd"] included in
    [fields]) and returns the response's payload fields (["ok"] and
    ["seq"] stripped).  No reconnection — this is the raw primitive. *)
val request :
  t -> (string * Obs.Json.t) list -> ((string * Obs.Json.t) list, failure) result

val submit : t -> Engine.Job.spec -> (int, failure) result

(** Reconnects and resumes on transport failure (idempotent by id). *)
val status : t -> int -> (string, failure) result

(** [job_result t id] — the terminal report object.  Reconnects. *)
val job_result : t -> int -> (Obs.Json.t, failure) result

(** [wait t id] parks until [id] is terminal; returns its status and the
    embedded result object when the server supplied one.  Reconnects and
    re-issues on transport failure. *)
val wait : t -> int -> (string * Obs.Json.t option, failure) result

val cancel : t -> int -> (bool, failure) result

val jobs : t -> ((int * string) list, failure) result

val metrics : t -> ((string * Obs.Json.t) list, failure) result

val shutdown : t -> (unit, failure) result

(** [subscribe ?from_ev t] turns on event delivery for this connection,
    replaying buffered server events after [from_ev]. *)
val subscribe : ?from_ev:int -> t -> (unit, failure) result

(** [next_event ?timeout_s t] — the next event line (buffered or read),
    [Ok None] on timeout.  On transport failure, reconnects and
    resubscribes from {!last_ev}, so a watcher survives a server
    restart without losing numbered events. *)
val next_event : ?timeout_s:float -> t -> (Obs.Json.t option, failure) result

(** The highest ["ev"] seen on this connection (0 initially). *)
val last_ev : t -> int
