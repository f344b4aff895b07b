(** The concurrent network front end over {!Engine.Scheduler}.

    One process, one poll-driven event loop, no threads: the listener
    accepts Unix-domain or TCP connections, frames request lines
    per-connection ({!Frame}), and interleaves {e placement work} with
    {e service} by stepping the scheduler a bounded slice between polls
    — the scheduler's one-transformation turn granularity is exactly
    what makes this non-blocking.  Many clients multiplex onto one
    scheduler; ["seq"] correlation keeps their
    conversations untangled.

    Server semantics differ from the synchronous stdio loop in the ways
    concurrency demands:

    - jobs advance continuously; [step] is acknowledged with
      [stepped = 0] rather than lending the client the loop;
    - [wait] and [drain] are {e asynchronous}: the response is sent when
      the job is terminal (carrying its result, so a draining server
      never strands a waiting client) or the scheduler idle;
    - [submit] passes admission control: at most [max_pending] queued
      jobs, beyond which clients receive a typed [overloaded] error with
      a ["retry_after_ms"] hint — never a dropped connection;
    - event lines flow only to connections that sent [subscribe]
      (replayable from a ring buffer via ["from_ev"]);
    - SIGTERM/SIGINT (or a [shutdown] request) starts a {e graceful
      drain}: no new connections or submissions ([shutting_down]
      errors), in-flight jobs run to completion — or, once
      [drain_grace_s] expires, are cooperatively cancelled, degrading to
      legal best-so-far placements — and every accepted job reaches a
      terminal, reportable state before the process exits 0.

    Throughput, latency, shed and connection counters are recorded under
    ["server/"] in the {!Obs.Registry} and served live by the
    [metrics] command. *)

type config = {
  address : Address.t;
  concurrency : int;  (** jobs interleaved by the scheduler *)
  domains : int option;
      (** lane budget, as in {!Engine.Scheduler.create}: above 1 it
          spawns worker domains, and the poll loop only services
          connections and pumps lifecycle events (the scheduler's notify
          pipe joins the poll set); otherwise the loop steps jobs itself
          between polls *)
  max_pending : int;  (** admission bound on queued jobs *)
  max_conns : int;  (** beyond this, connections are refused politely *)
  request_timeout_s : float;  (** bound on [wait]/[drain] parking *)
  idle_timeout_s : float;
      (** close connections idle this long with nothing outstanding;
          0 disables *)
  drain_grace_s : float;  (** drain budget before in-flight jobs are cancelled *)
  max_line : int;  (** per-connection request line bound (bytes) *)
  transcript : string option;  (** copy every protocol line to this file *)
}

(** [config address] — the defaults: concurrency 2, no lane budget (the
    loop steps jobs itself), admission bound 64 pending jobs, 128 connections, 300 s
    request timeout, idle timeout off, 30 s drain grace. *)
val config : Address.t -> config

(** [run cfg] binds, serves and blocks until a graceful shutdown
    completes.  Returns [Error] when the address cannot be bound.
    Installs SIGTERM/SIGINT handlers for the duration (restored on
    return) and ignores SIGPIPE. *)
val run : config -> (unit, string) result
