type clustering = {
  coarse : Netlist.Circuit.t;
  cluster_of : int array;
  members : int list array;
  coarse_fixed : (int * (float * float)) list;
}

(* Pairwise connectivity between movable standard cells: clique weight
   1/k summed over shared nets (big nets skipped — they carry little
   clustering signal and cost k²). *)
let build_affinity (c : Netlist.Circuit.t) ~clusterable =
  let adj : (int, float) Hashtbl.t array =
    Array.init (Netlist.Circuit.num_cells c) (fun _ -> Hashtbl.create 4)
  in
  for n = 0 to Netlist.Circuit.num_nets c - 1 do
    let k = Netlist.Circuit.degree c n in
    if k <= 16 then begin
      let cells =
        Netlist.Circuit.net_cells c n |> List.filter (fun id -> clusterable.(id))
      in
      let w = 1. /. float_of_int k in
      let rec pairs = function
        | [] -> ()
        | a :: rest ->
          List.iter
            (fun b ->
              let bump x y =
                let prev = try Hashtbl.find adj.(x) y with Not_found -> 0. in
                Hashtbl.replace adj.(x) y (prev +. w)
              in
              bump a b;
              bump b a)
            rest;
          pairs rest
      in
      pairs cells
    end
  done;
  adj

let cluster ?(seed = 1) ?max_cluster_area (c : Netlist.Circuit.t)
    ~fixed_positions =
  let n = Netlist.Circuit.num_cells c in
  let max_cluster_area =
    match max_cluster_area with
    | Some a -> a
    | None -> 6. *. Netlist.Circuit.average_cell_area c
  in
  let clusterable =
    Array.map
      (fun (cl : Netlist.Cell.t) ->
        Netlist.Cell.movable cl && cl.Netlist.Cell.kind = Netlist.Cell.Standard)
      c.Netlist.Circuit.cells
  in
  let adj = build_affinity c ~clusterable in
  (* FirstChoice: visit cells in shuffled order, merge each into its
     heaviest feasible neighbour's cluster. *)
  let group = Array.init n Fun.id in
  let rec find i = if group.(i) = i then i else find group.(i) in
  let area = Array.map Netlist.Cell.area c.Netlist.Circuit.cells in
  let order =
    Array.of_seq
      (Seq.filter (fun i -> clusterable.(i)) (Seq.init n Fun.id))
  in
  let rng = Numeric.Rng.create seed in
  Numeric.Rng.shuffle rng order;
  Array.iter
    (fun i ->
      let gi = find i in
      let best = ref None and best_w = ref 0. in
      Hashtbl.iter
        (fun j w ->
          let gj = find j in
          if gj <> gi && w > !best_w && area.(gi) +. area.(gj) <= max_cluster_area
          then begin
            best_w := w;
            best := Some gj
          end)
        adj.(i);
      match !best with
      | Some gj ->
        group.(gi) <- gj;
        area.(gj) <- area.(gj) +. area.(gi)
      | None -> ())
    order;
  (* Compact cluster ids, build coarse cells. *)
  let coarse_id = Array.make n (-1) in
  let next = ref 0 in
  let members_rev = ref [] in
  for i = 0 to n - 1 do
    let root = find i in
    if coarse_id.(root) = -1 then begin
      coarse_id.(root) <- !next;
      members_rev := [] :: !members_rev;
      incr next
    end;
    coarse_id.(i) <- coarse_id.(root)
  done;
  let members = Array.make !next [] in
  for i = n - 1 downto 0 do
    members.(coarse_id.(i)) <- i :: members.(coarse_id.(i))
  done;
  let rh = c.Netlist.Circuit.row_height in
  let coarse_cells =
    Array.init !next (fun cid ->
        match members.(cid) with
        | [ single ] ->
          let cl = c.Netlist.Circuit.cells.(single) in
          { cl with Netlist.Cell.id = cid }
        | group_members ->
          let total_area =
            List.fold_left
              (fun acc id -> acc +. Netlist.Cell.area c.Netlist.Circuit.cells.(id))
              0. group_members
          in
          let sequential =
            List.exists
              (fun id -> c.Netlist.Circuit.cells.(id).Netlist.Cell.sequential)
              group_members
          in
          let power =
            List.fold_left
              (fun acc id -> acc +. c.Netlist.Circuit.cells.(id).Netlist.Cell.power)
              0. group_members
          in
          Netlist.Cell.make ~id:cid
            ~name:(Printf.sprintf "cl%d" cid)
            ~width:(total_area /. rh) ~height:rh ~kind:Netlist.Cell.Standard
            ~sequential ~power ())
  in
  (* Coarse nets: flat nets with ≥ 2 distinct clusters. *)
  let coarse_nets = ref [] and coarse_net_count = ref 0 in
  for n = 0 to Netlist.Circuit.num_nets c - 1 do
    let clusters =
      Netlist.Circuit.net_cells c n |> List.map (fun id -> coarse_id.(id))
      |> List.sort_uniq compare
    in
    match clusters with
    | _ :: _ :: _ ->
      (* Preserve driver-first ordering: the driver cell's cluster
         leads. *)
      let driver_cluster =
        coarse_id.(c.Netlist.Circuit.pin_cell.(c.Netlist.Circuit.net_start.(n)))
      in
      let ordered =
        driver_cluster :: List.filter (fun x -> x <> driver_cluster) clusters
      in
      let pins =
        List.map (fun cid -> { Netlist.Net.cell = cid; dx = 0.; dy = 0. }) ordered
        |> Array.of_list
      in
      coarse_nets :=
        Netlist.Net.make ~id:!coarse_net_count
          ~name:c.Netlist.Circuit.net_name.(n) pins
        :: !coarse_nets;
      incr coarse_net_count
    | [] | [ _ ] -> ()
  done;
  let coarse =
    Netlist.Circuit.make
      ~name:(c.Netlist.Circuit.name ^ "+clustered")
      ~cells:coarse_cells
      ~nets:(Array.of_list (List.rev !coarse_nets))
      ~region:c.Netlist.Circuit.region ~row_height:rh
  in
  let coarse_fixed =
    List.map (fun (id, pos) -> (coarse_id.(id), pos)) fixed_positions
  in
  { coarse; cluster_of = coarse_id; members; coarse_fixed }

let expand t ~coarse_placement ~flat_placement =
  let golden = 2.399963 in
  Array.iteri
    (fun cid group_members ->
      let cx = coarse_placement.Netlist.Placement.x.(cid) in
      let cy = coarse_placement.Netlist.Placement.y.(cid) in
      List.iteri
        (fun k id ->
          (* Small deterministic sunflower spread around the cluster
             centre so the refinement starts from distinct points. *)
          let r = 0.8 *. sqrt (float_of_int k) in
          let a = golden *. float_of_int k in
          flat_placement.Netlist.Placement.x.(id) <- cx +. (r *. cos a);
          flat_placement.Netlist.Placement.y.(id) <- cy +. (r *. sin a))
        group_members)
    t.members

(* ------------------------------------------------------------------ *)
(* Recursive multilevel V-cycle                                         *)
(*                                                                      *)
(* The one-level flow above generalises: cluster repeatedly until the   *)
(* coarse netlist drops under [Config.ml_threshold] (or coarsening      *)
(* stops making progress), place the coarsest circuit with the normal   *)
(* controller-driven loop, then uncluster and refine level by level.    *)
(* Everything is a pure function of (circuit, config): clustering at    *)
(* level l seeds its RNG with ml_seed + l, the placer kernels are       *)
(* bitwise-deterministic for any domain count, and expansion is         *)
(* closed-form — so the hierarchy can be rebuilt identically on resume  *)
(* and a checkpoint only needs (level, done-steps, level placer state). *)

type hierarchy = {
  circuits : Netlist.Circuit.t array;
      (* .(0) = flat … .(depth) = coarsest *)
  clusterings : clustering array;
      (* .(l) clusters circuits.(l) into circuits.(l+1); length = depth *)
  level_fixed : (int * (float * float)) list array;
      (* fixed positions per level; length = depth + 1 *)
}

let depth h = Array.length h.clusterings

let build_hierarchy (config : Config.t) (c : Netlist.Circuit.t)
    ~fixed_positions =
  let threshold = Stdlib.max 1 config.Config.ml_threshold in
  let max_levels = Stdlib.max 1 config.Config.ml_max_levels in
  let circuits = ref [ c ] in
  let clusterings = ref [] in
  let fixed = ref [ fixed_positions ] in
  let current = ref c in
  let cur_fixed = ref fixed_positions in
  let level = ref 0 in
  let progress = ref true in
  (* Always coarsen at least once (the historical two-level flow); keep
     going while the level is still above the threshold and clustering
     still shrinks the netlist by a meaningful margin. *)
  while
    !progress && !level < max_levels
    && (!level = 0 || Netlist.Circuit.num_cells !current > threshold)
  do
    let t =
      cluster ~seed:(config.Config.ml_seed + !level) !current
        ~fixed_positions:!cur_fixed
    in
    let fine_n = Netlist.Circuit.num_cells !current in
    let coarse_n = Netlist.Circuit.num_cells t.coarse in
    if coarse_n * 20 >= fine_n * 19 then progress := false
    else begin
      circuits := t.coarse :: !circuits;
      clusterings := t :: !clusterings;
      fixed := t.coarse_fixed :: !fixed;
      current := t.coarse;
      cur_fixed := t.coarse_fixed;
      incr level
    end
  done;
  {
    circuits = Array.of_list (List.rev !circuits);
    clusterings = Array.of_list (List.rev !clusterings);
    level_fixed = Array.of_list (List.rev !fixed);
  }

(* Per-level placer configuration.  Coarse levels drop an explicit grid
   pin (the automatic bins adapt to the coarse cell sizes) and compound
   [ml_grid_scale] once per level. *)
let level_config (config : Config.t) ~level =
  if level = 0 then config
  else
    {
      config with
      Config.grid = None;
      grid_scale =
        config.Config.grid_scale
        *. (config.Config.ml_grid_scale ** float_of_int level);
    }

type run = {
  run_config : Config.t;
  hierarchy : hierarchy;
  mutable level : int;  (* current stage, depth … 0 *)
  mutable state : Placer.state;
  mutable level_steps : int;  (* transformations taken in this stage *)
}

let total_levels r = depth r.hierarchy + 1

let base_config r = r.run_config

let flat_circuit r = r.hierarchy.circuits.(0)

let current_level r = r.level

let current_level_steps r = r.level_steps

let current_state r = r.state

(* The coarsest stage runs the full controller loop; every refinement
   stage below it gets the (much smaller) per-level budget. *)
let level_budget r =
  let d = depth r.hierarchy in
  if r.level = d then r.run_config.Config.max_iterations
  else r.run_config.Config.ml_refine_iters

let init_level config h ~level =
  let circuit = h.circuits.(level) in
  let p0 =
    Netlist.Placement.centered circuit ~fixed_positions:h.level_fixed.(level)
  in
  Placer.init ~telemetry_level:level (level_config config ~level) circuit p0

let start (config : Config.t) (c : Netlist.Circuit.t) ~fixed_positions
    placement =
  let h = build_hierarchy config c ~fixed_positions in
  let d = depth h in
  if d = 0 then
    (* Clustering made no progress: degenerate to the flat flow from the
       caller's placement. *)
    {
      run_config = config;
      hierarchy = h;
      level = 0;
      state = Placer.init config c placement;
      level_steps = 0;
    }
  else
    {
      run_config = config;
      hierarchy = h;
      level = d;
      state = init_level config h ~level:d;
      level_steps = 0;
    }

(* Expand the current level's placement one level down and switch the
   run to the finer circuit. *)
let descend r =
  let l = r.level in
  if l = 0 then invalid_arg "Cluster.descend: already at the flat level";
  let t = r.hierarchy.clusterings.(l - 1) in
  let fine = r.hierarchy.circuits.(l - 1) in
  let fine_p =
    Netlist.Placement.centered fine
      ~fixed_positions:r.hierarchy.level_fixed.(l - 1)
  in
  expand t ~coarse_placement:r.state.Placer.placement ~flat_placement:fine_p;
  (* The sunflower spread can step over the region edge for clusters
     seated against it. *)
  Netlist.Placement.clamp_to_region fine fine_p;
  r.level <- l - 1;
  r.state <-
    Placer.init ~telemetry_level:(l - 1)
      (level_config r.run_config ~level:(l - 1))
      fine fine_p;
  r.level_steps <- 0;
  (* The coarser level's placer state is garbage now, and the live set
     is at its smallest before the finer stage's first transformation.
     Left to the major GC's pace, that garbage is still uncollected
     while the finer stage allocates its own, and the two together set
     the run's peak RSS. *)
  Gc.full_major ()

let level_done r = r.level_steps >= level_budget r || Placer.converged r.state

(* One V-cycle step: a single placement transformation, descending
   first when the current stage is finished.  Hooks reference flat-level
   cell/net indices, so they engage only at level 0.  Returns [false]
   when the flat level has converged (or exhausted its budget). *)
let rec step ?hooks r =
  if level_done r then
    if r.level = 0 then false
    else begin
      descend r;
      step ?hooks r
    end
  else begin
    let hooks = if r.level = 0 then hooks else None in
    ignore (Placer.transform ?hooks r.state);
    r.level_steps <- r.level_steps + 1;
    true
  end

let finished r = r.level = 0 && level_done r

(* Deterministic fast finish for cancelled/degraded runs: expand the
   remaining levels straight down without further optimisation. *)
let finish r =
  while r.level > 0 do
    descend r
  done;
  r.state.Placer.placement

(* Rebuild a run at a checkpointed position: the hierarchy is a pure
   function of (circuit, config), so only the level index, its completed
   step count and the level placer state need restoring.  [restore_state]
   receives the level's circuit and per-level config and returns the
   placer state (built from checkpointed arrays). *)
let resume (config : Config.t) (c : Netlist.Circuit.t) ~fixed_positions ~level
    ~level_steps ~restore_state =
  let h = build_hierarchy config c ~fixed_positions in
  let d = depth h in
  if level < 0 || level > d then
    invalid_arg
      (Printf.sprintf "Cluster.resume: level %d outside 0..%d" level d);
  let state = restore_state h.circuits.(level) (level_config config ~level) in
  { run_config = config; hierarchy = h; level; state; level_steps }

let place_multilevel ?seed config (c : Netlist.Circuit.t) ~fixed_positions
    placement =
  let config =
    match seed with
    | Some s -> { config with Config.ml_seed = s }
    | None -> config
  in
  let r = start config c ~fixed_positions placement in
  while step r do
    ()
  done;
  Netlist.Placement.clamp_to_region c r.state.Placer.placement;
  r.state.Placer.placement
