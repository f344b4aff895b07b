(** Netlist clustering and multilevel placement.

    The paper motivates a fast mode for floorplanning ("a placement
    estimation during the floorplanning phase", §6.1).  Clustering takes
    that further, as GORDIAN-class placers did: connectivity-driven
    FirstChoice-style clustering merges tightly connected cells into
    clusters, the cluster netlist is placed with the normal algorithm,
    and the flat netlist is seeded from the cluster placement and
    refined with a few transformations.

    Clusters aggregate area (width = area / row height, height = one
    row height, whatever the area) and inherit the union of their
    members' connectivity; pads, blocks and fixed cells are never
    clustered. *)

type clustering = {
  coarse : Netlist.Circuit.t;  (** the cluster-level circuit *)
  cluster_of : int array;  (** flat cell id → coarse cell id *)
  members : int list array;  (** coarse cell id → flat member ids *)
  coarse_fixed : (int * (float * float)) list;
      (** pinned coordinates for the coarse circuit's fixed cells, given
          the flat fixed positions *)
}

(** [cluster ?seed ?max_cluster_area circuit ~fixed_positions] builds one
    level of clustering: each movable standard cell, in an order shuffled
    by [seed], greedily merges with its most strongly connected
    neighbour's cluster while the merged area stays below
    [max_cluster_area] (default 6× the average cell area).  Connection
    strength is the clique weight [1/k] summed over the nets of [k] pins
    the two cells share; nets of more than 16 pins carry no weight.  A
    tie between equally heavy neighbours goes to the one a [Hashtbl]
    filled with the neighbours in first-seen order (nets ascending, pins
    in order) would enumerate first: the lower bucket
    [Hashtbl.hash j land (nb - 1)], then the later first insertion, with
    [nb] the least [16 * 2^r] holding the cell's [m] neighbours at
    [m <= 2 * nb].  Fixed cells, pads and blocks map to singleton coarse
    cells.  A coarse net is kept for every flat net spanning at least
    two clusters: the driver's cluster first, the others in ascending
    id. *)
val cluster :
  ?seed:int ->
  ?max_cluster_area:float ->
  Netlist.Circuit.t ->
  fixed_positions:(int * (float * float)) list ->
  clustering

(** [expand clustering ~coarse_placement ~flat_placement] seats every
    flat cell at its cluster's position (members of one cluster spread
    in a small deterministic spiral so they do not sit on one exact
    point), writing into [flat_placement] (fixed cells untouched). *)
val expand :
  clustering ->
  coarse_placement:Netlist.Placement.t ->
  flat_placement:Netlist.Placement.t ->
  unit

(** {1 Recursive multilevel V-cycle}

    The one-level flow generalised: cluster repeatedly until the coarse
    netlist has at most {!Config.t.ml_threshold} cells (at least one
    level, at most [ml_max_levels], stopping early when clustering no
    longer shrinks the netlist), place the coarsest circuit with the
    normal controller-driven loop, then uncluster and refine level by
    level under the [ml_refine_iters] budget.  The flat flow is the same
    run on a one-level hierarchy ({!flat}): one stage, the flat circuit,
    under the [max_iterations] budget.

    Trajectories are a pure function of (circuit, config): clustering at
    level [l] seeds its RNG with [ml_seed + l] and every kernel is
    bitwise-deterministic for any domain/shard count, so the hierarchy
    rebuilds identically on resume and a checkpoint only needs the level
    index, the level placer state and the run's step count. *)

(** The full coarsening stack: [circuits.(0)] is the flat circuit,
    [circuits.(depth)] the coarsest. *)
type hierarchy = {
  circuits : Netlist.Circuit.t array;
  clusterings : clustering array;
      (** [clusterings.(l)] maps [circuits.(l)] to [circuits.(l+1)] *)
  level_fixed : (int * (float * float)) list array;
      (** fixed positions per level, read when a coarser level expands
          into the level *)
}

(** Number of coarsening levels (0 for a one-level hierarchy). *)
val depth : hierarchy -> int

(** [build_hierarchy config circuit ~fixed_positions] runs the recursive
    coarsening pass alone — deterministic for a given (circuit, config).
    Its depth is 0 when clustering makes no progress. *)
val build_hierarchy :
  Config.t ->
  Netlist.Circuit.t ->
  fixed_positions:(int * (float * float)) list ->
  hierarchy

(** [unclustered circuit] is the one-level hierarchy of the flat flow:
    [circuit] alone, depth 0. *)
val unclustered : Netlist.Circuit.t -> hierarchy

(** The placer configuration used at [level]: level 0 is [config]
    itself; coarse levels drop an explicit grid pin and compound
    [ml_grid_scale] once per level. *)
val level_config : Config.t -> level:int -> Config.t

(** An in-flight run: the hierarchy, the current stage's placer state
    and the run's step count.  Stages count {e down} from
    [depth hierarchy] (coarsest) to 0 (flat).  Every descent ends with
    one full major collection ([Gc.full_major]): the coarser level's
    placer state has just become garbage, and the live set is small.

    A stage ends on its budget ([max_iterations] at the coarsest stage,
    [ml_refine_iters] below it), recorded in its controller as
    {!Controller.Max_steps}, or on a stop rule of {!Placer.converged},
    whichever holds first; the stop check runs once per transformation
    however often {!step} and {!finished} ask. *)
type run

val total_levels : run -> int

(** The configuration the run was started with (level 0's config). *)
val base_config : run -> Config.t

(** The flat (level-0) circuit of the hierarchy. *)
val flat_circuit : run -> Netlist.Circuit.t

(** Current stage index ([0] = flat). *)
val current_level : run -> int

(** The current stage's placer state (against
    [hierarchy.circuits.(current_level)]); its [iteration] counts the
    transformations of the stage. *)
val current_state : run -> Placer.state

(** Transformations of the whole run, over every stage and, for a
    resumed run, those before its checkpoint. *)
val steps : run -> int

(** [of_hierarchy config hierarchy placement] starts a run at the
    hierarchy's coarsest stage, from a centred placement of that stage's
    circuit.  [placement] seeds the one stage of a one-level hierarchy
    and is otherwise unused. *)
val of_hierarchy : Config.t -> hierarchy -> Netlist.Placement.t -> run

(** [flat config circuit placement] is the flat flow's run:
    [of_hierarchy config (unclustered circuit) placement]. *)
val flat : Config.t -> Netlist.Circuit.t -> Netlist.Placement.t -> run

(** [start config circuit ~fixed_positions placement] builds the
    hierarchy and starts the run on it ({!of_hierarchy}).  When
    clustering makes no progress the hierarchy has one level and the
    run is {!flat}'s. *)
val start :
  Config.t ->
  Netlist.Circuit.t ->
  fixed_positions:(int * (float * float)) list ->
  Netlist.Placement.t ->
  run

(** [step ?hooks run] advances the run by one placement transformation,
    first expanding down a level whenever the current stage is done.
    [hooks] reference flat-level indices and engage only at level 0.
    Returns [false], transforming nothing, once the flat level is
    done. *)
val step : ?hooks:Placer.hooks -> run -> bool

(** True once the flat level is done. *)
val finished : run -> bool

(** [finish run] deterministically expands any remaining levels straight
    down — no further optimisation — and returns the flat placement
    (used by cancelled/degraded engine finishes). *)
val finish : run -> Netlist.Placement.t

(** [resume config hierarchy ~level ~steps state] rebuilds a run
    mid-flight at [level] of [hierarchy], with [state] (a placer state
    on [hierarchy.circuits.(level)] under [level_config config ~level])
    as the stage's state and [steps] transformations already taken.
    @raise Invalid_argument when [level] is outside [0 .. depth]. *)
val resume :
  Config.t -> hierarchy -> level:int -> steps:int -> Placer.state -> run

(** [place_multilevel ?seed config circuit ~fixed_positions placement]
    drives a whole V-cycle to completion and returns the flat placement
    (clamped to the region).  [?seed] overrides [config.ml_seed]. *)
val place_multilevel :
  ?seed:int ->
  Config.t ->
  Netlist.Circuit.t ->
  fixed_positions:(int * (float * float)) list ->
  Netlist.Placement.t ->
  Netlist.Placement.t
