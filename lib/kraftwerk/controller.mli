(** Convergence controller for the placement loop.

    Tracks the LB/UB HPWL envelope — the lower bound is the wirelength of
    the overlapping quadratic solution, the upper bound the wirelength of
    a cheap legalized snapshot taken every {!Config.legalize_every}
    iterations — and drives the multiplicative penalty schedule that
    scales the density force.  The loop stops once the relative gap
    [(ub - lb) / ub] falls to {!Config.stop_gap} or the envelope stalls
    for {!Config.stop_stall} consecutive probes, or when the paper's
    empty-square criterion ({!Density.Stop}) fires, whichever comes
    first. *)

type reason = Gap | Density | Max_steps

val reason_to_string : reason -> string
val reason_of_string : string -> reason option

(** Minimum relative improvement of the best legalized snapshot for a UB
    probe to reset the stall counter. *)
val stall_tolerance : float

(** State of the closed routability loop ({!Config.congest_every}),
    annealed and checkpointed next to the penalty. *)
type congest = {
  mutable strength : float;
      (** feedback gain the next refresh will apply; anneals from
          {!Config.congest_strength} toward {!Config.congest_max} *)
  mutable since_refresh : int;  (** iterations since the last refresh *)
  mutable refreshes : int;  (** total refreshes so far *)
  mutable est_overflow : float;
      (** estimated total overflow at the last refresh; nan before the
          first *)
  mutable est_max_overflow : float;
  mutable target_area : float;
      (** Σ of the target map after the last refresh *)
  mutable clamped_bins : int;
      (** bins saturated at one bin area by the last refresh *)
}

type t = {
  mutable penalty : float;  (** current density-force multiplier *)
  mutable since_legalize : int;
      (** iterations since the last UB snapshot *)
  mutable lb_known : float;
      (** {!lb} as last evaluated: [0.] before the first transformation;
          stale while [lb_due] is set *)
  mutable lb_due : (unit -> float) option;
      (** the deferred evaluation of the latest quadratic-solution HPWL,
          set by {!defer_lb}; {!lb} runs it once *)
  mutable ub : float;  (** latest legalized HPWL; nan before the first *)
  mutable ub_min : float;
      (** best legalized HPWL that beat the previous best by at least
          {!stall_tolerance}; infinity before the first *)
  mutable gap : float;  (** latest relative gap; nan before the first *)
  mutable gap_min : float;  (** running minimum of [gap] *)
  mutable ub_evals : int;  (** number of UB snapshots taken *)
  mutable stall : int;
      (** consecutive probes without envelope progress *)
  mutable stop_reason : reason option;
      (** first stop criterion that fired, if any *)
  congest : congest;  (** routability-loop state *)
}

(** [create config] is a fresh controller with the penalty at
    {!Config.penalty_initial} and no envelope history. *)
val create : Config.t -> t

(** [copy t] is an independent mutable copy, with a deferred lower
    bound evaluated first. *)
val copy : t -> t

(** [restore ...] rebuilds a controller verbatim from checkpointed
    fields.  The penalty and the congestion gain must round-trip bitwise
    — they are never recomputed from the iteration count. *)
val restore :
  penalty:float ->
  since_legalize:int ->
  lb:float ->
  ub:float ->
  ub_min:float ->
  gap:float ->
  gap_min:float ->
  ub_evals:int ->
  stall:int ->
  stop_reason:reason option ->
  congest:congest ->
  t

(** [fresh_congest config] is the pre-first-refresh loop state. *)
val fresh_congest : Config.t -> congest

(** [restore_congest ...] rebuilds checkpointed routability-loop state
    verbatim. *)
val restore_congest :
  strength:float ->
  since_refresh:int ->
  refreshes:int ->
  est_overflow:float ->
  est_max_overflow:float ->
  target_area:float ->
  clamped_bins:int ->
  congest

(** [lb t] is the lower bound: the HPWL of the quadratic solution the
    latest transformation left, [0.] before the first, or the restored
    value until the next.  A deferred bound ({!defer_lb}) is evaluated
    here, once; read the bound only through this function. *)
val lb : t -> float

(** [observe_lb t hpwl] records the quadratic-solution HPWL of the
    current iteration. *)
val observe_lb : t -> float -> unit

(** [defer_lb t f] records that the current iteration's lower bound is
    [f ()], evaluated on the first {!lb} (or {!copy}).  [f] must read
    the placement the transformation left, and the caller must defer or
    observe again before it moves that placement. *)
val defer_lb : t -> (unit -> float) -> unit

(** [advance_penalty t config] applies one multiplicative step of the
    penalty schedule, saturating at {!Config.penalty_max}. *)
val advance_penalty : t -> Config.t -> unit

(** [legalization_due t config] is true when the iteration now being
    finished should take a UB snapshot. *)
val legalization_due : t -> Config.t -> bool

(** [observe_ub t ~lb ~ub] records a legalized snapshot: updates the
    envelope, resets the cadence counter, folds the relative gap into the
    running minimum and advances (or resets) the stall counter. *)
val observe_ub : t -> lb:float -> ub:float -> unit

(** [tick_legalize t] advances the cadence counter for an iteration that
    took no UB snapshot. *)
val tick_legalize : t -> unit

(** [congest_due t config] is true when the iteration now being run
    should refresh the congestion-target map. *)
val congest_due : t -> Config.t -> bool

(** [observe_congest t ...] records a target-map refresh: resets the
    cadence counter and stores what the refresh observed. *)
val observe_congest :
  t ->
  est_overflow:float ->
  est_max_overflow:float ->
  target_area:float ->
  clamped_bins:int ->
  unit

(** [tick_congest t] advances the cadence counter for an iteration that
    refreshed no targets. *)
val tick_congest : t -> unit

(** [advance_congest t config] applies one multiplicative step of the
    gain schedule, saturating at {!Config.congest_max}. *)
val advance_congest : t -> Config.t -> unit

(** [gap_converged t config ~n_movable ~iteration] is true when the
    envelope criterion is satisfied — at least two UB snapshots taken
    and either the running-minimum gap is at most {!Config.stop_gap}, or
    {!Config.stop_stall} consecutive probes stalled — or, for degenerate
    circuits with fewer than two movable cells, as soon as one
    transformation has run (agreeing with {!Density.Stop.should_stop}). *)
val gap_converged : t -> Config.t -> n_movable:int -> iteration:int -> bool

(** [record_stop t reason] records the first stop criterion that fired;
    later calls are ignored. *)
val record_stop : t -> reason -> unit
