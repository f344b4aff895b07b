(** Versioned, atomic snapshots of a mid-run {!Kraftwerk.Placer.state}.

    A checkpoint captures exactly the state that makes a placement
    transformation sequence restartable: the placement, the accumulated
    additional-force vectors ~e (§2.2 — what holds previous spreading in
    place), the net weights, the iteration counter, and — for
    timing-driven runs — the per-net criticalities.  Restoring all of
    them bitwise makes the resumed trajectory bitwise-identical to the
    uninterrupted run; digests of the config and circuit guard against
    resuming under different semantics.

    Files are one JSON document; floats are written with round-trip
    ([%.17g]) precision so they reload bit-for-bit.  {!save} writes to a
    temporary file in the target directory and renames it into place, so
    a crash mid-write never leaves a truncated checkpoint behind.

    Every file carries ["version"]: {!version}.  {!load} reads that
    version only; any other is an [Error] ["checkpoint: unsupported
    version N (this build reads 4)"].  Every field is required — an
    absent optional array is written as [null]. *)

type t = {
  config_digest : string;
  circuit_digest : string;
  iteration : int;
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
      (** multilevel V-cycle stage this state belongs to; 0 = flat *)
  ml_levels : int;
      (** total stages of the V-cycle the state was taken from; 1 for
          flat runs *)
  route_target : float array option;
      (** row-major values of the routability loop's congestion-target
          map ({!Route.Target}); [None] when the loop is off.  The grid
          itself is a pure function of (config, circuit) and is rebuilt
          on resume. *)
}

(** The one file version this build writes and reads (4). *)
val version : int

(** [config_digest config] is a stable hex digest over every
    {!Kraftwerk.Config.t} field — two configs with equal digests produce
    the same trajectory from the same state (the [domains] field, which
    nothing reads, is excluded). *)
val config_digest : Kraftwerk.Config.t -> string

val circuit_digest : Netlist.Circuit.t -> string

(** [of_state ?criticality state] snapshots a placer state (copies all
    arrays).  [ml_level]/[ml_levels] (default 0/1) tag the V-cycle stage
    the state belongs to. *)
val of_state :
  ?criticality:float array ->
  ?ml_level:int ->
  ?ml_levels:int ->
  Kraftwerk.Placer.state ->
  t

(** [of_run ?criticality run] snapshots the current stage of a
    multilevel V-cycle.  The digests cover the {e base} config and the
    {e flat} circuit — the coarse circuit and per-level config are
    rebuilt deterministically on resume. *)
val of_run : ?criticality:float array -> Kraftwerk.Cluster.run -> t

(** [save path t] writes atomically (temp file + rename). *)
val save : string -> t -> unit

val load : string -> (t, string) result

(** [restore t config circuit] rebuilds the placer state, checking the
    digests and every array length first (a malformed file is an
    [Error], never an exception).  Rejects multilevel checkpoints
    ([ml_level > 0] or
    [ml_levels > 1]) — those carry a coarse-circuit state and must go
    through {!restore_multilevel}. *)
val restore :
  t ->
  Kraftwerk.Config.t ->
  Netlist.Circuit.t ->
  (Kraftwerk.Placer.state, string) result

(** [restore_multilevel t config circuit ~fixed_positions] rebuilds an
    in-flight V-cycle: the hierarchy is reconstructed from (circuit,
    config) — it is deterministic — and the checkpointed arrays restore
    the current level's placer state, making the resumed trajectory
    bitwise-identical to the uninterrupted one.  Also accepts flat
    (level-0-of-1) checkpoints taken by a multilevel run whose
    coarsening made no progress. *)
val restore_multilevel :
  t ->
  Kraftwerk.Config.t ->
  Netlist.Circuit.t ->
  fixed_positions:(int * (float * float)) list ->
  (Kraftwerk.Cluster.run, string) result

(** [placement t ~num_cells] extracts just the placement (the ECO
    warm-start path — the circuit may differ from the checkpointed one,
    only the cell count must still match). *)
val placement : t -> num_cells:int -> (Netlist.Placement.t, string) result
