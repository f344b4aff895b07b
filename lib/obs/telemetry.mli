(** Placement telemetry records — the schema of the [--trace] JSONL
    stream: one {!iteration} record per placement transformation plus one
    final {!summary} record.

    All scalar metrics are plain numbers so the module stays independent
    of the netlist layer; the placer computes them and fills the record.
    Fields listed in {!volatile_fields} (timings and
    execution-environment facts) legitimately differ between runs of the
    same placement; everything else is deterministic and is compared
    bitwise by the regression tests. *)

type iteration = {
  step : int;  (** 1-based transformation index *)
  hpwl : float;  (** half-perimeter wire length after the solve *)
  quadratic : float;  (** clique-model quadratic wire length (eq. 1) *)
  overflow : float;
      (** density overflow: over-capacity bin area / movable cell area *)
  empty_square_area : float;  (** §4.2 stopping-criterion measure *)
  force_scale : float;  (** the K scaling applied this transformation *)
  max_force : float;  (** max per-cell additional-force increment magnitude *)
  mean_force : float;  (** mean per-cell increment magnitude *)
  displacement : float;  (** total cell movement since the last iteration *)
  cg_iterations_x : int;
  cg_iterations_y : int;
  cg_residual_x : float;  (** final CG residual of the x solve *)
  cg_residual_y : float;
  kernel_cache_hits : int;  (** Poisson kernel-spectrum cache, this iteration *)
  kernel_cache_misses : int;
  assembly_reused : bool;
      (** this transformation reused the cached sparsity pattern (or
          the cached values) instead of recording a new one *)
  pattern_rebuilds : int;
      (** cumulative pattern recordings of the QP assembly so far,
          including the initial one *)
  cg_tolerance : float;
      (** relative CG tolerance the solves used this transformation —
          the adaptive schedule loosens it while overflow is high *)
  domains : int;  (** domain-pool size (volatile) *)
  pool_tasks : int;  (** pool tasks executed this iteration (volatile) *)
  penalty : float;
      (** density-force multiplier the convergence controller applied
          this transformation *)
  lb_hpwl : float;
      (** lower bound of the convergence envelope: HPWL of the
          overlapping quadratic solution *)
  ub_hpwl : float option;
      (** upper bound: HPWL of the legalized snapshot, present only on
          iterations that probed one *)
  gap : float option;
      (** relative envelope gap [(ub - lb) / ub] at this iteration's
          probe *)
  level : int;
      (** V-cycle stage the transformation ran at: 0 is the flat
          (finest) netlist, [depth] the coarsest.  Flat runs always
          emit 0 *)
  congest_strength : float;
      (** annealed feedback gain of the closed routability loop as of
          this transformation; 0 when the loop is off *)
  est_overflow : float option;
      (** estimated total routing overflow at the last target refresh;
          [None] before the first refresh or with the loop off *)
  target_area : float;
      (** Σ of the congestion-target map read as extra demand this
          transformation, in area units *)
  target_clamped : int;
      (** bins saturated at one full bin area by the last refresh — how
          often the per-bin feedback clamp fired *)
  phases : (string * float) list;  (** phase → seconds (volatile) *)
}

type summary = {
  iterations : int;  (** iteration records emitted before this summary *)
  converged : bool;  (** stopped by a criterion, not the iteration bound *)
  final_hpwl : float;  (** after legalisation — the printed metric *)
  final_overlap : float;  (** {!Metrics.Overlap.overlap_ratio} equivalent *)
  wall_time : float;  (** whole-flow seconds (volatile) *)
  stop_reason : string option;
      (** first stop criterion that fired: "gap" | "density" |
          "max_steps" *)
  counters : (string * Stat.t) list;  (** registry snapshot (volatile) *)
}

(** Version stamped into every record as ["schema"] (5); bump on any
    field change.  {!iteration_of_json} and {!summary_of_json} parse this
    schema only: a record of any other schema is an [Error]
    ["unsupported schema version N (this build reads 5)"]. *)
val schema_version : int

(** Fields excluded from determinism comparisons: timings and
    pool-configuration facts. *)
val volatile_fields : string list

(** [strip_volatile json] removes {!volatile_fields} from a record
    object, leaving the deterministic payload. *)
val strip_volatile : Json.t -> Json.t

(** Fields recording process-local cache provenance rather than the
    mathematical trajectory: a resumed run re-records its QP pattern on
    the first transformation where the uninterrupted run reused its
    cached pattern, and the FFT kernel-spectrum cache hits or misses
    depending on which runs shared the process before, so these (and
    only these) legitimately differ across a checkpoint/resume boundary
    or between solo and co-scheduled runs.  The recorded {e values} —
    matrices, placements, forces — are bitwise-identical either way. *)
val provenance_fields : string list

(** [strip_provenance json] removes {!provenance_fields} — applied on
    top of {!strip_volatile} by checkpoint/resume comparisons. *)
val strip_provenance : Json.t -> Json.t

(** [stat_to_json s] — the {e count/total/min/max} object used for
    registry counters in summaries and in the serve protocol's
    [metrics] responses. *)
val stat_to_json : Stat.t -> Json.t

val iteration_to_json : iteration -> Json.t

(** [iteration_of_json v] parses and validates a record — the schema
    check behind "schema-valid JSONL". *)
val iteration_of_json : Json.t -> (iteration, string) result

val summary_to_json : summary -> Json.t

val summary_of_json : Json.t -> (summary, string) result
