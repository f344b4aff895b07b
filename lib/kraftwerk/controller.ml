type reason = Gap | Density | Max_steps

let reason_to_string = function
  | Gap -> "gap"
  | Density -> "density"
  | Max_steps -> "max_steps"

let reason_of_string = function
  | "gap" -> Some Gap
  | "density" -> Some Density
  | "max_steps" -> Some Max_steps
  | _ -> None

(* A UB probe only counts as envelope progress when it beats the best
   legalized snapshot so far by at least this relative margin; anything
   smaller is oscillation noise and feeds the stall counter instead. *)
let stall_tolerance = 1e-3

(* State of the closed routability loop, annealed and checkpointed next
   to the penalty: [strength] is the feedback gain the next refresh will
   apply, [since_refresh] the cadence counter, and the remaining fields
   report what the last refresh observed (telemetry; restored verbatim so
   a resumed trace continues bitwise). *)
type congest = {
  mutable strength : float;
  mutable since_refresh : int;
  mutable refreshes : int;
  mutable est_overflow : float;  (** nan before the first refresh *)
  mutable est_max_overflow : float;
  mutable target_area : float;
  mutable clamped_bins : int;
}

type t = {
  mutable penalty : float;
  mutable since_legalize : int;
  mutable lb_known : float;
  mutable lb_due : (unit -> float) option;
  mutable ub : float;
  mutable ub_min : float;
  mutable gap : float;
  mutable gap_min : float;
  mutable ub_evals : int;
  mutable stall : int;
  mutable stop_reason : reason option;
  congest : congest;
}

let fresh_congest (config : Config.t) =
  {
    strength = config.Config.congest_strength;
    since_refresh = 0;
    refreshes = 0;
    est_overflow = Float.nan;
    est_max_overflow = Float.nan;
    target_area = 0.;
    clamped_bins = 0;
  }

let create (config : Config.t) =
  {
    penalty = config.Config.penalty_initial;
    since_legalize = 0;
    lb_known = 0.;
    lb_due = None;
    ub = Float.nan;
    ub_min = Float.infinity;
    gap = Float.nan;
    gap_min = Float.infinity;
    ub_evals = 0;
    stall = 0;
    stop_reason = None;
    congest = fresh_congest config;
  }

(* A deferred lower bound is the HPWL of the placement as the last
   transformation left it; the placer replaces the thunk before it moves
   that placement again, so evaluating it at any read gives the bits an
   eager evaluation would have. *)
let lb t =
  match t.lb_due with
  | None -> t.lb_known
  | Some f ->
    t.lb_known <- f ();
    t.lb_due <- None;
    t.lb_known

let copy t =
  ignore (lb t);
  { t with congest = { t.congest with strength = t.congest.strength } }

(* Resuming a checkpoint must reproduce the exact multiplier the
   uninterrupted run would carry: the penalty is restored verbatim, never
   recomputed as [initial *. update ** iterations] (pow and the iterative
   product differ in the last ulp).  The congestion gain obeys the same
   rule. *)
let restore ~penalty ~since_legalize ~lb ~ub ~ub_min ~gap ~gap_min ~ub_evals
    ~stall ~stop_reason ~congest =
  {
    penalty;
    since_legalize;
    lb_known = lb;
    lb_due = None;
    ub;
    ub_min;
    gap;
    gap_min;
    ub_evals;
    stall;
    stop_reason;
    congest;
  }

let restore_congest ~strength ~since_refresh ~refreshes ~est_overflow
    ~est_max_overflow ~target_area ~clamped_bins =
  {
    strength;
    since_refresh;
    refreshes;
    est_overflow;
    est_max_overflow;
    target_area;
    clamped_bins;
  }

let observe_lb t hpwl =
  t.lb_known <- hpwl;
  t.lb_due <- None

let defer_lb t f = t.lb_due <- Some f

let advance_penalty t (config : Config.t) =
  t.penalty <-
    Float.min config.Config.penalty_max
      (t.penalty *. config.Config.penalty_update)

let legalization_due t (config : Config.t) =
  config.Config.legalize_every > 0
  && t.since_legalize + 1 >= config.Config.legalize_every

let observe_ub t ~lb ~ub =
  t.ub <- ub;
  t.since_legalize <- 0;
  t.ub_evals <- t.ub_evals + 1;
  let gap = if ub > 0. then (ub -. lb) /. ub else 0. in
  t.gap <- gap;
  if gap < t.gap_min then t.gap_min <- gap;
  if ub < t.ub_min *. (1. -. stall_tolerance) then begin
    t.ub_min <- ub;
    t.stall <- 0
  end
  else t.stall <- t.stall + 1

let tick_legalize t = t.since_legalize <- t.since_legalize + 1

(* Congestion-loop cadence, mirroring the UB-probe machinery above. *)

let congest_due t (config : Config.t) =
  config.Config.congest_every > 0
  && t.congest.since_refresh + 1 >= config.Config.congest_every

let observe_congest t ~est_overflow ~est_max_overflow ~target_area
    ~clamped_bins =
  let c = t.congest in
  c.since_refresh <- 0;
  c.refreshes <- c.refreshes + 1;
  c.est_overflow <- est_overflow;
  c.est_max_overflow <- est_max_overflow;
  c.target_area <- target_area;
  c.clamped_bins <- clamped_bins

let tick_congest t = t.congest.since_refresh <- t.congest.since_refresh + 1

let advance_congest t (config : Config.t) =
  t.congest.strength <-
    Float.min config.Config.congest_max
      (t.congest.strength *. config.Config.congest_update)

(* The envelope criterion mirrors Density.Stop on degenerate circuits: a
   single movable cell reaches its quadratic optimum in one
   transformation, so the gap is declared closed at iteration 1 instead
   of grinding through the full schedule.

   Otherwise two tests close the envelope, either sufficing:
   - target met: the best relative LB/UB gap dipped under [stop_gap];
   - stalled: [stop_stall] consecutive probes failed to tighten the best
     legalized snapshot by more than [stall_tolerance], i.e. further
     iterations are no longer buying legalized quality. *)
let gap_converged t (config : Config.t) ~n_movable ~iteration =
  if n_movable < 2 then iteration >= 1
  else
    t.ub_evals >= 2
    && ((config.Config.stop_gap > 0. && t.gap_min <= config.Config.stop_gap)
       || (config.Config.stop_stall > 0 && t.stall >= config.Config.stop_stall)
       )

let record_stop t reason =
  match t.stop_reason with
  | Some _ -> ()
  | None -> t.stop_reason <- Some reason
