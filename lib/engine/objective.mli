(** The typed job objective: {e what} a placement job optimises for,
    under which effort and flow.

    An objective bundles the whole request into one typed record:

    - [goal] — [Wirelength] (the classic area-driven run), [Routability]
      (the same run with the closed congestion loop on:
      {!Kraftwerk.Config.routability}), or [Timing] (timing-driven net
      reweighting each transformation);
    - [mode]/[effort] — the quality-vs-latency base preset (an explicit
      effort wins over the mode);
    - [flow] — flat controller loop or the multilevel V-cycle;
    - per-objective knobs — routability's cadence and feedback gain,
      overriding the preset defaults when set.

    A job spec carries it as its ["objective"] object ({!of_json}); it
    is the only way a job sets goal, mode, effort and flow. *)

type goal = Wirelength | Routability | Timing

(** Base placer configuration family ({!Kraftwerk.Config.standard} /
    {!Kraftwerk.Config.fast}). *)
type mode = Standard | Fast

(** [Flat] is the classic single-level controller loop; [Multilevel]
    runs the recursive {!Kraftwerk.Cluster} V-cycle. *)
type flow = Flat | Multilevel

type t = {
  goal : goal;
  mode : mode;
  effort : int option;
      (** quality-vs-latency preset 1..9 ({!Kraftwerk.Config.effort});
          when set it selects the full placer configuration and the
          [mode] is ignored *)
  flow : flow;
  congest_every : int option;
      (** routability only: iterations between congestion-target
          refreshes, overriding the preset's cadence *)
  congest_strength : float option;
      (** routability only: initial feedback gain of the congestion
          loop *)
}

(** Area-driven, standard mode, flat flow — a spec with no
    ["objective"]. *)
val default : t

val make :
  ?goal:goal ->
  ?mode:mode ->
  ?effort:int ->
  ?flow:flow ->
  ?congest_every:int ->
  ?congest_strength:float ->
  unit ->
  t

val goal_to_string : goal -> string
val goal_of_string : string -> (goal, string) result
val mode_to_string : mode -> string
val mode_of_string : string -> (mode, string) result
val flow_to_string : flow -> string
val flow_of_string : string -> (flow, string) result

(** [timing_driven t] — the job adapts net weights to slack each
    transformation. *)
val timing_driven : t -> bool

(** [routed_validation t] — the job's final placement is validated with
    {!Route.Grouter} and the routed overflow reported in the result. *)
val routed_validation : t -> bool

(** [validate t] checks field ranges and that the congestion knobs are
    only used with the routability goal. *)
val validate : t -> (unit, string) result

(** [config t] is the placer configuration the objective selects: the
    effort preset (or mode fallback), with the congestion loop overlaid
    for the routability goal. *)
val config : t -> Kraftwerk.Config.t

val to_json : t -> Obs.Json.t

val of_json : Obs.Json.t -> (t, string) result
