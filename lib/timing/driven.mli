(** Timing-driven placement (paper §5).

    {b Optimisation mode} is a timing-goal engine job
    ([Engine.Objective.Timing]): the placer runs with {!reweight} as its
    reweight hook, so before every placement transformation a
    longest-path analysis updates net criticalities and multiplies net
    weights, steering critical nets short.

    {b Requirement mode} first converges the plain area-driven placement,
    then applies weight-adapting transformations until the longest path
    meets a given requirement, recording the wire-length/delay trade-off
    curve — because the placement itself is what timing is measured on,
    the requirement is met exactly when the loop stops. *)

(** One point of the trade-off curve. *)
type trace_point = { at_step : int; hpwl : float; delay : float }

(** Result of the requirement mode. *)
type result = {
  placement : Netlist.Placement.t;
  initial_delay : float;  (** longest path before timing optimisation *)
  final_delay : float;
  trace : trace_point list;  (** chronological *)
  met : bool;  (** did we reach the target? *)
}

(** [reweight params crit state] is one criticality step, the body of
    the reweight hook of both modes: a longest-path analysis of
    [state]'s placement, folded into [crit], then [state]'s net weights
    rescaled from it (capped at [params.max_net_weight]).  Returns the
    analysis. *)
val reweight : Params.t -> Criticality.t -> Kraftwerk.Placer.state -> Sta.t

(** [meet_requirement ?params ?max_extra_steps config circuit placement
    ~target] is the two-phase flow: converge area-driven, then adapt
    weights until [target] seconds is met or [max_extra_steps] (default
    60) transformations pass. *)
val meet_requirement :
  ?params:Params.t ->
  ?max_extra_steps:int ->
  Kraftwerk.Config.t ->
  Netlist.Circuit.t ->
  Netlist.Placement.t ->
  target:float ->
  result

(** [exploitation ~unoptimized ~optimized ~lower_bound] is the paper's
    §6.2 quality measure: the achieved reduction of the longest path
    divided by the optimisation potential (unoptimised − lower bound). *)
val exploitation :
  unoptimized:float -> optimized:float -> lower_bound:float -> float
