(** Placement-job scheduler: one loop, run by worker domains or, with
    zero workers, by the caller.

    Jobs are queued by priority (FIFO within a priority) and up to
    [concurrency] of them run at once.  The loop claims and starts a
    queued job whenever a concurrency slot is free, and otherwise runs
    one {e slice} — a single placement transformation, or the finishing
    pass — of a running job, taken from its own run queue or stolen
    from another.  A job's home queue is fixed by its id
    ([(id - 1) mod queues]); after a slice the job re-queues at the
    tail of its home.  With [n > 0] worker domains there are [n] queues
    and each worker runs the loop on its own; with zero workers there is
    one queue and {!step} runs the loop on the calling domain, where
    re-queueing at the tail is the round-robin.  Either way a job is
    owned by exactly one domain at a time, so its slices execute in
    sequence and stealing changes only {e when} a slice runs, never what
    it computes.

    Every job's trajectory is bitwise-identical to a solo run: its
    slices run in sequence on whichever domain owns it, and every
    numeric kernel runs on that one domain.  Worker domains are the only
    parallelism: they run different jobs at once, never parts of one.

    Lifecycle events are queued and delivered on the coordinator by
    {!pump} (or {!step}/{!drain}/{!cancel}, which pump) — never from a
    worker domain — so an [on_event] handler needs no locking of its
    own; {!submit} delivers [Submitted] synchronously.  {!notify_fd}
    wakes a select-based embedder when worker events are pending.
    {!submit} and {!cancel} must be called from the coordinator domain;
    status getters are safe from anywhere.

    Cancellation, deadlines and checkpoints all take effect at
    transformation boundaries.  A cancelled or deadline-expired job
    degrades gracefully: its best-so-far placement is greedily legalised
    ({!Legalize.Tetris}) and reported with status [Cancelled] — never an
    exception.  A completed job gets the full final-placement pipeline
    ({!Legalize.Abacus}, then {!Legalize.Improve} and {!Legalize.Domino},
    whose deltas are reported).

    Per-job telemetry goes through a private {!Obs.Sink} installed only
    for the duration of that job's slices, so concurrent traces never
    interleave. *)

type t

(** Job handle, unique within a scheduler, assigned at submission
    (1, 2, …). *)
type id = int

type event =
  | Submitted of id
  | Started of id
  | Checkpointed of id * string  (** checkpoint file written *)
  | Finished of id * Job.status  (** terminal status *)

(** Largest [domains] {!create} accepts (64). *)
val max_workers : int

(** [create ()] — [concurrency] is the number of jobs running at once
    (default 1); [on_event] observes lifecycle transitions.  [domains]
    (default 1) above 1 spawns [min concurrency domains] worker domains,
    held until {!stop}, which take no work before the first {!pump}
    (so jobs submitted before it all start before any slice runs); at 1
    there are zero workers and {!step} runs the loop on the caller.
    Raises [Invalid_argument] when [concurrency < 1] or [domains] is
    outside [1..max_workers]. *)
val create :
  ?concurrency:int -> ?domains:int -> ?on_event:(event -> unit) -> unit -> t

(** Number of worker domains (0 when the caller runs the loop). *)
val workers : t -> int

(** [pump t] drains the self-pipe and dispatches queued lifecycle
    events on the calling (coordinator) domain.  Embedders that do not
    call {!step}/{!drain} (e.g. a select loop over a scheduler with
    workers) must pump to see worker-produced events. *)
val pump : t -> unit

(** With workers, a file descriptor that becomes readable when
    lifecycle events await {!pump} — for select-based embedders.  [None]
    with zero workers or after {!stop}. *)
val notify_fd : t -> Unix.file_descr option

(** [stop t] halts and joins the worker domains (each finishes its
    current slice first), delivers any trailing events, and closes the
    notify pipe.  Non-terminal jobs keep their state but make no further
    progress: {!step} returns false from then on.  Idempotent. *)
val stop : t -> unit

(** Per-shard scheduler counters, for the [metrics] surfaces. *)
type shard_metric = {
  shard : int;
  queue_depth : int;  (** jobs queued on this shard right now *)
  m_steals : int;  (** slices this worker stole from other shards *)
  m_slices : int;  (** slices this worker executed *)
  m_busy_s : float;  (** wall time spent executing slices *)
  m_busy_frac : float;  (** busy_s over scheduler uptime *)
  m_max_slice_s : float;  (** slowest single slice *)
}

(** [shard_metrics t] — one entry per worker; [[]] with zero workers. *)
val shard_metrics : t -> shard_metric list

(** [validate_spec spec] is the submit-time admission check: the source
    names a known profile or an existing file, resume/warm checkpoints
    exist, budgets are sane.  Deliberately cheap (existence, not full
    parses) so a front end can refuse a bad spec before queuing it — the
    protocol's [bad_spec] response.  Problems that only show up when the
    job materialises (a file that parses wrong, a checkpoint digest
    mismatch) still surface as a [Failed] status at start. *)
val validate_spec : Job.spec -> (unit, string) result

(** [submit t spec] enqueues a job and returns its id.  The spec is
    validated lazily: source or checkpoint problems surface as a
    [Failed] status when the job would start.  Call {!validate_spec}
    first to reject obviously bad specs synchronously. *)
val submit : t -> Job.spec -> id

(** [cancel t id] requests cooperative cancellation.  A queued job is
    finished as [Cancelled] immediately (no placement was produced, and
    its [Finished] event is delivered before [cancel] returns); a
    running job finishes at its next slice with its best-so-far
    placement, writing a final checkpoint first when configured.
    Returns false when [id] is unknown or already terminal. *)
val cancel : t -> id -> bool

(** [cancel_all t] requests cancellation of every non-terminal job and
    returns how many were cancelled — the graceful-drain path of the
    network server, degrading in-flight work to legal best-so-far
    placements. *)
val cancel_all : t -> int

val status : t -> id -> Job.status option

(** [result t id] — the terminal report, once [terminal (status t id)]. *)
val result : t -> id -> Job.result option

(** [placement t id] — the final {e global} (pre-legalisation) placement
    of a terminal job that produced one; for the ECO path and for tests
    comparing trajectories bitwise. *)
val placement : t -> id -> Netlist.Placement.t option

(** [legalized t id] — the legalised placement behind a terminal job's
    reported metrics (the Tetris best-so-far for cancelled jobs, the full
    pipeline's output for completed ones). *)
val legalized : t -> id -> Netlist.Placement.t option

(** [jobs t] — every submitted job with its current status, in
    submission order. *)
val jobs : t -> (id * Job.status) list

(** [busy t] — some job is still queued or running. *)
val busy : t -> bool

(** [queued t] — jobs accepted but not yet started; the quantity the
    network server's admission bound is measured against. *)
val queued : t -> int

(** [running t] — jobs currently interleaving (including checkpointed
    ones, which keep executing). *)
val running : t -> int

(** [step t] — with zero workers: run the loop once on the caller
    (claim and start every job a free slot allows, then give the next
    running job one slice) and deliver the events it produced; returns
    false when nothing could run.  With workers: pump events and, if
    jobs are still in flight, block until a worker makes progress;
    returns false once no job is queued or running.  Always false after
    {!stop}. *)
val step : t -> bool

(** [drain t] steps until no job is queued or running.  Does not stop
    worker domains — call {!stop} when done with the scheduler. *)
val drain : t -> unit
