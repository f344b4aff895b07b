(** Versioned, atomic snapshots of a mid-run {!Kraftwerk.Cluster.run}.

    A job's run is a V-cycle over a hierarchy of circuits (one level for
    the flat flow), and a checkpoint captures exactly the state that
    makes it restartable: the current level's placement, the
    accumulated additional-force vectors ~e (§2.2 — what holds previous
    spreading in place), the net weights, the level's iteration counter,
    the run's total step count and — for timing-driven runs — the
    per-net criticalities.  The hierarchy itself is a pure function of
    (circuit, config) and is rebuilt on resume.  Restoring all of them
    bitwise makes the resumed trajectory bitwise-identical to the
    uninterrupted run; digests of the config and circuit guard against
    resuming under different semantics.

    Files are one JSON document; floats are written with round-trip
    ([%.17g]) precision so they reload bit-for-bit.  {!save} writes to a
    temporary file in the target directory and renames it into place, so
    a crash mid-write never leaves a truncated checkpoint behind.

    Every file carries ["version"]: {!version}.  {!load} reads that
    version only; any other is an [Error] ["checkpoint: unsupported
    version N (this build reads 5)"].  Every field is required — an
    absent optional array is written as [null]. *)

type t = {
  config_digest : string;
  circuit_digest : string;
  iteration : int;  (** transformations of the current level *)
  steps : int;
      (** transformations of the whole run, at least [iteration] *)
  x : float array;  (** placement, indexed by cell id *)
  y : float array;
  ex : float array;  (** accumulated forces, indexed by QP variable *)
  ey : float array;
  net_weights : float array;
  criticality : float array option;  (** timing-driven runs only *)
  controller : Kraftwerk.Controller.t;
      (** convergence-controller state (penalty, LB/UB envelope).  The
          penalty is saved verbatim — recomputing it from the iteration
          count would differ in the last ulp and break bitwise resume. *)
  ml_level : int;
      (** V-cycle stage this state belongs to; 0 = flat *)
  ml_levels : int;
      (** total stages of the run's hierarchy; 1 for the flat flow *)
  route_target : float array option;
      (** row-major values of the routability loop's congestion-target
          map ({!Route.Target}); [None] when the loop is off.  The grid
          itself is a pure function of (config, circuit) and is rebuilt
          on resume. *)
}

(** The one file version this build writes and reads (5). *)
val version : int

(** [config_digest config] is a stable hex digest over every
    {!Kraftwerk.Config.t} field — two configs with equal digests produce
    the same trajectory from the same state (the [domains] field, which
    nothing reads, is excluded). *)
val config_digest : Kraftwerk.Config.t -> string

val circuit_digest : Netlist.Circuit.t -> string

(** [of_run ?criticality run] snapshots the current stage of a run
    (copies all arrays).  The digests cover the {e base} config and the
    {e flat} circuit — the coarse circuits and per-level configs are
    rebuilt deterministically on resume. *)
val of_run : ?criticality:float array -> Kraftwerk.Cluster.run -> t

(** [save path t] writes atomically (temp file + rename). *)
val save : string -> t -> unit

val load : string -> (t, string) result

(** [restore t config hierarchy] resumes the run the checkpoint was
    taken from on [hierarchy], which the caller rebuilds from the flat
    circuit and [config] as the run's flow builds it
    ({!Kraftwerk.Cluster.unclustered} or
    {!Kraftwerk.Cluster.build_hierarchy}).  It checks the digests, the
    hierarchy's depth against [ml_levels] and every array length against
    the checkpointed level, then restores that level's placer state.  A
    mismatch or a malformed file is an [Error], never an exception; a
    checkpoint of the other flow is refused by the depth check unless
    clustering made no progress, when both flows run the same one-level
    hierarchy. *)
val restore :
  t ->
  Kraftwerk.Config.t ->
  Kraftwerk.Cluster.hierarchy ->
  (Kraftwerk.Cluster.run, string) result

(** [placement t ~num_cells] extracts just the placement (the ECO
    warm-start path — the circuit may differ from the checkpointed one,
    only the cell count must still match). *)
val placement : t -> num_cells:int -> (Netlist.Placement.t, string) result
