(** Serializable placement jobs: what to place, under which budget, and
    what came of it.

    A {!spec} is the unit of work the {!Scheduler} queues; it carries no
    live state, so it round-trips through JSON and can be re-submitted
    verbatim (the resume path of the serve protocol).  A {!result} is
    the terminal report: quality metrics plus the improvement deltas of
    the final-placement passes.

    What to optimise for lives in the job's {!Objective.t}, and only
    there: its JSON form is the spec's ["objective"] object. *)

(** Re-export of {!Objective.mode} — base placer configuration family
    ({!Kraftwerk.Config.standard} / {!Kraftwerk.Config.fast}). *)
type mode = Objective.mode = Standard | Fast

(** Re-export of {!Objective.flow}: [Flat] is the classic single-level
    controller loop; [Multilevel] runs the recursive {!Kraftwerk.Cluster}
    V-cycle (cluster to a coarse netlist, place it, then uncluster and
    refine level by level).  Both are deterministic and
    checkpoint/resume-safe. *)
type flow = Objective.flow = Flat | Multilevel

(** Where the placer's state comes from.

    - [Fresh] — the source's initial placement, ~e = 0 (a normal run).
    - [Resume file] — a {!Checkpoint} of a mid-run state of {e this}
      job: placement, accumulated forces, net weights and iteration
      counter restored bitwise, so the trajectory continues exactly
      where it stopped.
    - [Warm file] — only the {e placement} of a checkpoint, with fresh
      forces: the ECO shape (§5), re-placing an edited circuit on top of
      a converged base placement ({!Kraftwerk.Eco.replace}). *)
type start = Fresh | Resume of string | Warm of string

type spec = {
  source : Source.t;
  objective : Objective.t;
      (** what the job optimises for: goal (wirelength / routability /
          timing), mode-or-effort preset, flow, per-objective knobs *)
  priority : int;  (** higher runs first; FIFO within a priority *)
  deadline : float option;
      (** wall-clock budget in seconds from job start; on expiry the job
          returns its best-so-far placement, greedily legalised, with
          status [Cancelled] — never an error *)
  max_steps : int option;
      (** cap on the {e total} placer iteration counter (so a resumed
          job counts steps done before its checkpoint); [None] defers
          to the mode's [max_iterations] *)
  start : start;
  checkpoint : string option;  (** checkpoint file to maintain *)
  checkpoint_every : int;
      (** transformations between checkpoint writes (when [checkpoint]
          is set); also written on cancellation *)
  trace : string option;  (** per-job telemetry JSONL file *)
}

(** [spec ~source ()] is a standard-mode, area-driven
    ({!Objective.default}), priority-0 job with no deadline, no
    checkpointing and no trace. *)
val spec :
  source:Source.t ->
  ?objective:Objective.t ->
  ?priority:int ->
  ?deadline:float ->
  ?max_steps:int ->
  ?start:start ->
  ?checkpoint:string ->
  ?checkpoint_every:int ->
  ?trace:string ->
  unit ->
  spec

(** [flow spec] — the objective's flow. *)
val flow : spec -> flow

(** [timing spec] — the job adapts net weights to slack each
    transformation ([spec.objective.goal = Timing]). *)
val timing : spec -> bool

(** Job lifecycle.  [Checkpointed] is a running job with a valid
    checkpoint on disk (it keeps executing); the terminal states are
    [Done], [Cancelled] and [Failed]. *)
type status =
  | Queued
  | Running
  | Checkpointed
  | Done
  | Cancelled
  | Failed of string

(** [terminal status] — no further transitions. *)
val terminal : status -> bool

val status_to_string : status -> string

type result = {
  status : status;
  iterations : int;  (** final placer iteration counter *)
  converged : bool;  (** stopped by §4.2, not a budget *)
  hpwl : float;  (** after legalisation *)
  overlap : float;
  legal : bool;
  improve_moves : int;  (** accepted moves of {!Legalize.Improve.run} *)
  improve_delta : float;  (** its HPWL improvement *)
  domino_moves : int;  (** cells moved / windows improved by Domino *)
  domino_delta : float;
  routed_overflow : float option;
      (** {!Route.Grouter} total overflow of the final placement;
          populated for routability-goal jobs, [None] otherwise *)
  routed_max_overflow : float option;
  routed_wirelength : float option;
  deadline_expired : bool;
  wall_s : float;
  checkpoint_written : string option;
}

(** [config_of_spec spec] is the placer configuration the spec's
    objective selects ({!Objective.config}). *)
val config_of_spec : spec -> Kraftwerk.Config.t

val spec_to_json : spec -> Obs.Json.t

(** [spec_of_json v] parses a job spec.  Goal, mode, effort and flow
    come from the ["objective"] object (absent: {!Objective.default});
    a top-level ["mode"], ["flow"], ["effort"] or ["timing"] field is an
    [Error] naming ["objective"], never silently ignored. *)
val spec_of_json : Obs.Json.t -> (spec, string) Stdlib.result

val result_to_json : result -> Obs.Json.t

val result_of_json : Obs.Json.t -> (result, string) Stdlib.result
