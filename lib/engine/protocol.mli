(** The line-oriented JSON protocol behind [place serve], [place batch]
    and the {!Server} network front end.

    One request per line on the way in, one response per line on the way
    out; both are single JSON objects ({!Obs.Json}), so transcripts are
    plain JSONL.  Scheduler lifecycle transitions are additionally
    emitted as event notification lines (objects with an ["event"]
    field) interleaved between responses — a reader distinguishes the
    two by the presence of ["ok"] (response) vs ["event"].

    {2 Wire format}

    There is one live dialect, safe for {e concurrent} clients
    multiplexed over one scheduler:

    - {b Request correlation.}  Every request may carry a ["seq"] field
      (any JSON value), echoed {e verbatim} in its response — including
      error responses, so a client can always match an answer to the
      question.  Requests without ["seq"] get responses without one.
    - {b Typed errors.}  Failures are
      [{"ok":false,"error":{"code":C,"message":M}}] with a closed set of
      codes (see {!code}); [overloaded] errors additionally carry a
      ["retry_after_ms"] hint.
    - {b Numbered events.}  Event lines carry a monotonic ["ev"] counter
      (1, 2, …) so a reconnecting client can resume its event stream
      from the last number it saw ([subscribe]'s ["from_ev"]).
    - {b Objective submits.}  A submit's ["job"] sets goal, mode, effort
      and flow through its ["objective"] object ({!Objective.of_json});
      a job with top-level ["mode"]/["flow"]/["effort"]/["timing"]
      fields is refused with [bad_spec] ({!Job.spec_of_json}).

    {2 Requests}

    {v
    {"cmd":"submit","job":{…Job.spec…}}      → {"ok":true,"id":N,"status":"queued"}
    {"cmd":"status","id":N}                  → {"ok":true,"id":N,"status":S}
    {"cmd":"result","id":N}                  → {"ok":true,"id":N,"result":{…}}
    {"cmd":"cancel","id":N}                  → {"ok":true,"id":N,"cancelled":B}
    {"cmd":"jobs"}                           → {"ok":true,"jobs":[{"id":N,"status":S}…]}
    {"cmd":"step","turns":N}                 → {"ok":true,"stepped":M}
    {"cmd":"drain"}                          → {"ok":true,"stepped":M}
    {"cmd":"wait","id":N}                    → {"ok":true,"id":N,"status":S}
    {"cmd":"metrics"}                        → {"ok":true,"enabled":B,"metrics":{…}}
    {"cmd":"subscribe","from_ev":N}          → {"ok":true,"subscribed":true}
    {"cmd":"shutdown"}                       → {"ok":true,"shutdown":true}
    v}

    In the synchronous stdio loop ({!serve}) jobs advance only inside
    [step]/[drain]/[wait] and every connection already receives all
    event lines ([subscribe] is an acknowledged no-op).  The network
    server gives the same requests asynchronous semantics: jobs advance
    continuously between polls, [wait]/[drain] responses arrive when
    their condition holds, and event lines only flow to subscribed
    connections.

    Every failure — unknown command, malformed JSON, bad job spec,
    unknown id, result of a non-terminal job, admission shed, shutdown
    refusal — is a structured error response, never a dead
    connection. *)

(** The closed set of failure codes.  [Overloaded] and [Shutting_down]
    originate in the network server's admission control and drain; the
    rest are request-level. *)
type code =
  | Parse  (** malformed JSON, or no usable ["cmd"] field *)
  | Unknown_cmd
  | Bad_spec  (** invalid job spec or request argument *)
  | Unknown_id
  | Not_terminal  (** result of a job that is still running *)
  | Overloaded  (** admission bound hit; retry after the hint *)
  | Shutting_down  (** server is draining; no new work accepted *)

val code_to_string : code -> string

val code_of_string : string -> code option

type error = {
  code : code;
  message : string;
  retry_after_ms : int option;  (** only ever set on [Overloaded] *)
}

(** [err code fmt] builds an error. *)
val err : ?retry_after_ms:int -> code -> string -> error

(** [error_message e] — ["code: message"], for logs and CLI output. *)
val error_message : error -> string

type request =
  | Submit of Job.spec
  | Status of Scheduler.id
  | Result of Scheduler.id
  | Cancel of Scheduler.id
  | Jobs
  | Step of int
  | Drain
  | Wait of Scheduler.id
  | Metrics
  | Subscribe of { from_ev : int option }
  | Shutdown

(** [seq_of_json v] extracts the ["seq"] field of a request object, to
    be echoed verbatim — callers fetch it {e before} parsing so even a
    request that fails to parse still gets its correlation id back. *)
val seq_of_json : Obs.Json.t -> Obs.Json.t option

val request_of_json : Obs.Json.t -> (request, error) result

(** What a request came to: response fields, or a typed refusal.  The
    transport ({!serve}, the network server) renders it with {!render}. *)
type reply = Reply of (string * Obs.Json.t) list | Refuse of error

(** [render ~seq reply] is the response line: [seq] echoed when given,
    errors as their [code]/[message] object. *)
val render : seq:Obs.Json.t option -> reply -> Obs.Json.t

(** [event_to_json ~ev e] is the notification line for a scheduler
    event, numbered [ev]. *)
val event_to_json : ev:int -> Scheduler.event -> Obs.Json.t

(** [metrics_fields sched] — the [metrics] response payload: whether
    the {!Obs.Registry} is recording, the scheduler shape (worker count
    as ["shards"], queued/running jobs, per-worker slice / busy
    counters — [per_shard] is empty with zero workers), plus a
    name → stat object dump of the registry snapshot. *)
val metrics_fields : Scheduler.t -> (string * Obs.Json.t) list

(** [handle sched req] executes one request synchronously and returns
    its reply plus [true] when the request was [Shutdown].  [Submit]
    refuses invalid specs ({!Scheduler.validate_spec}) with [Bad_spec];
    [Wait]/[Drain] step the scheduler until done (the stdio semantics —
    the network server substitutes its own asynchronous handling). *)
val handle : Scheduler.t -> request -> reply * bool

(** [serve ?echo sched ic oc] is the full synchronous loop: read request
    lines from [ic] until EOF or [shutdown], write responses to [oc]
    (flushed per line).  [echo] (e.g. a transcript file) receives a copy
    of every request and response line.  Scheduler events should be
    wired to [oc]/[echo] by the caller via the scheduler's [on_event]
    using {!event_to_json}.  Remaining non-terminal jobs are drained
    before returning, so piped sessions that end after their submits
    still complete their work. *)
val serve :
  ?echo:(string -> unit) -> Scheduler.t -> in_channel -> out_channel -> unit
