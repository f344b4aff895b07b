type t = {
  k_param : float;
  max_iterations : int;
  linearize : bool;
  clique_cap : int;
  anchor_weight : float;
  hold_weight : float;
  force_decay : float;
  stop_multiplier : float;
  grid : (int * int) option;
  domains : int option;
  cg_tol : float;
  cg_tol_loose : float;
  grid_scale : float;
  stop_gap : float;
  stop_stall : int;
  legalize_every : int;
  penalty_initial : float;
  penalty_update : float;
  penalty_max : float;
  ml_threshold : int;
  ml_max_levels : int;
  ml_refine_iters : int;
  ml_grid_scale : float;
  ml_seed : int;
  congest_every : int;
  congest_strength : float;
  congest_update : float;
  congest_max : float;
  congest_decay : float;
  congest_pitch : float;
}

let standard =
  {
    k_param = 0.05;
    max_iterations = 250;
    linearize = false;
    clique_cap = 16;
    anchor_weight = 1e-6;
    hold_weight = 1.0;
    force_decay = 0.8;
    stop_multiplier = 2.;
    grid = None;
    domains = None;
    cg_tol = 1e-8;
    cg_tol_loose = 1e-5;
    grid_scale = 1.0;
    stop_gap = 0.08;
    stop_stall = 2;
    legalize_every = 10;
    penalty_initial = 1.0;
    penalty_update = 1.0;
    penalty_max = 1.0;
    ml_threshold = 3000;
    ml_max_levels = 8;
    ml_refine_iters = 60;
    ml_grid_scale = 1.0;
    ml_seed = 1;
    congest_every = 0;
    congest_strength = 0.5;
    congest_update = 1.1;
    congest_max = 2.0;
    congest_decay = 0.5;
    congest_pitch = 1.5;
  }

let fast = { standard with k_param = 0.2; max_iterations = 80 }

(* The routability overlay: switch the congestion loop on without
   touching anything the base preset tuned.  Every [congest_every]
   iterations the placer re-estimates routing overflow and folds it into
   a persistent per-bin target map (Route.Target); the feedback gain
   anneals multiplicatively from [congest_strength] toward [congest_max],
   the same shape as the density-penalty schedule. *)
let routability base = { base with congest_every = 5 }

(* Effort presets, Coloquinte-style: one integer trades quality for
   latency by bundling the CG tolerances, density-grid resolution,
   legalization cadence, stop gap and penalty ramp.  Effort 5 is exactly
   [standard]; lower efforts stop earlier on a looser envelope, higher
   efforts demand a tighter gap from a finer grid. *)
let effort e =
  if e < 1 || e > 9 then
    invalid_arg (Printf.sprintf "Config.effort: %d not in 1..9" e);
  let pick a = a.(e - 1) in
  {
    standard with
    cg_tol = pick [| 1e-6; 1e-7; 1e-7; 1e-8; 1e-8; 1e-9; 1e-9; 1e-10; 1e-10 |];
    cg_tol_loose =
      pick [| 1e-4; 1e-4; 1e-5; 1e-5; 1e-5; 1e-5; 1e-6; 1e-6; 1e-6 |];
    grid_scale = pick [| 0.5; 0.75; 0.75; 1.0; 1.0; 1.0; 1.0; 1.25; 1.25 |];
    legalize_every = pick [| 5; 5; 8; 8; 10; 10; 12; 12; 12 |];
    stop_gap = pick [| 0.2; 0.15; 0.12; 0.10; 0.08; 0.06; 0.05; 0.04; 0.03 |];
    stop_stall = pick [| 1; 1; 2; 2; 2; 3; 3; 4; 5 |];
    (* Low efforts ramp the density penalty past the calibrated weight:
       the circuit over-spreads slightly but the empty-square and
       envelope criteria fire much earlier.  Effort 5 keeps the schedule
       at the calibrated static weight — on well-behaved circuits any
       ramp past 1.0 measurably degrades final legalized quality. *)
    penalty_initial =
      pick [| 1.0; 1.0; 1.0; 1.0; 1.0; 0.95; 0.95; 0.9; 0.9 |];
    penalty_update =
      pick [| 1.05; 1.04; 1.02; 1.01; 1.0; 1.005; 1.005; 1.005; 1.005 |];
    penalty_max = pick [| 1.6; 1.4; 1.2; 1.1; 1.0; 1.0; 1.0; 1.0; 1.0 |];
    max_iterations = pick [| 100; 120; 150; 200; 250; 300; 350; 400; 450 |];
  }

let pp ppf t =
  Format.fprintf ppf
    "K=%g max_iter=%d linearize=%b cap=%d stop=%gx gap=%g stall=%d \
     legalize_every=%d penalty=%g*%g<=%g"
    t.k_param t.max_iterations t.linearize t.clique_cap t.stop_multiplier
    t.stop_gap t.stop_stall t.legalize_every t.penalty_initial
    t.penalty_update t.penalty_max
