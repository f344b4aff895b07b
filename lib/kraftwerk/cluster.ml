type clustering = {
  coarse : Netlist.Circuit.t;
  cluster_of : int array;
  members : int list array;
  coarse_fixed : (int * (float * float)) list;
}

(* Pairwise connectivity between movable standard cells, as compressed
   rows: cell [i]'s neighbours are [nbr.(e)] for [e] from [row.(i)] to
   [row.(i+1) - 1], in the order they were first met, and [weight.(e)]
   is the clique weight 1/k summed over shared nets in net order (big
   nets skipped — they carry little clustering signal and cost k²). *)
type affinity = { row : int array; nbr : int array; weight : float array }

let max_affinity_degree = 16

let build_affinity (c : Netlist.Circuit.t) ~clusterable =
  let n = Netlist.Circuit.num_cells c in
  let net_start = c.Netlist.Circuit.net_start
  and pin_cell = c.Netlist.Circuit.pin_cell in
  (* [visit i f] calls [f j k] once per net of at most 16 pins that
     clusterable cells [i] and [j <> i] share: nets in ascending id (a
     cell's repeated pins on one net list the net repeatedly, next to
     each other), and within a net the distinct cells in pin order; [k]
     is the net's pin count.  [net_mark.(j) = visit_id] once [j] is
     seen on the net being visited. *)
  let net_mark = Array.make n (-1) and visit_id = ref 0 in
  let visit i f =
    let nets = c.Netlist.Circuit.cell_nets.(i) in
    for p = 0 to Array.length nets - 1 do
      let net = nets.(p) in
      let s = net_start.(net) and e = net_start.(net + 1) in
      if (p = 0 || nets.(p - 1) <> net) && e - s <= max_affinity_degree then begin
        incr visit_id;
        for q = s to e - 1 do
          let j = pin_cell.(q) in
          if j <> i && clusterable.(j) && net_mark.(j) <> !visit_id then begin
            net_mark.(j) <- !visit_id;
            f j (e - s)
          end
        done
      end
    done
  in
  (* Rows are sized in a counting pass, then filled.  [row_mark.(j) = i]
     once [j] has an entry in [i]'s row, at [slot.(j)] in the filling
     pass. *)
  let row = Array.make (n + 1) 0 in
  let row_mark = Array.make n (-1) in
  for i = 0 to n - 1 do
    let m = ref 0 in
    if clusterable.(i) then
      visit i (fun j _ ->
          if row_mark.(j) <> i then begin
            row_mark.(j) <- i;
            incr m
          end);
    row.(i + 1) <- row.(i) + !m
  done;
  let nbr = Array.make row.(n) 0 and weight = Array.make row.(n) 0. in
  let slot = Array.make n 0 in
  Array.fill row_mark 0 n (-1);
  for i = 0 to n - 1 do
    if clusterable.(i) then begin
      let next = ref row.(i) in
      visit i (fun j k ->
          if row_mark.(j) <> i then begin
            row_mark.(j) <- i;
            slot.(j) <- !next;
            nbr.(!next) <- j;
            incr next
          end;
          let e = slot.(j) in
          weight.(e) <- weight.(e) +. (1. /. float_of_int k))
    end
  done;
  { row; nbr; weight }

(* FirstChoice breaks a tie between equally heavy neighbours the way
   the per-cell [Hashtbl] this replaced enumerated them, so clusterings
   stay what they were: buckets in ascending order, and within a bucket
   the most recently first-inserted neighbour first.  A table that
   started at 16 buckets and holds [m] keys had doubled to the least
   [16 * 2^r] buckets with [m <= 2 * buckets].  [entry_first a ~m e e']
   is true when row entry [e] (neighbour [a.nbr.(e)]) comes before
   [e'] in that order; entries of a row are in first-insertion order. *)
let entry_first a ~m e e' =
  let buckets = ref 16 in
  while m > 2 * !buckets do
    buckets := 2 * !buckets
  done;
  let bucket e = Hashtbl.hash a.nbr.(e) land (!buckets - 1) in
  let b = bucket e and b' = bucket e' in
  b < b' || (b = b' && e > e')

(* Sort [a.(0 .. len-1)] ascending in place. *)
let sort_prefix (a : int array) len =
  if len <= 32 then
    for x = 1 to len - 1 do
      let v = a.(x) in
      let y = ref (x - 1) in
      while !y >= 0 && a.(!y) > v do
        a.(!y + 1) <- a.(!y);
        decr y
      done;
      a.(!y + 1) <- v
    done
  else begin
    let s = Array.sub a 0 len in
    Array.sort Int.compare s;
    Array.blit s 0 a 0 len
  end

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
      let s = adj.row.(i) and m = adj.row.(i + 1) - adj.row.(i) in
      let best = ref (-1) and best_w = ref 0. in
      for e = s to s + m - 1 do
        let w = adj.weight.(e) in
        if w >= !best_w then begin
          let gj = find adj.nbr.(e) in
          if gj <> gi && area.(gi) +. area.(gj) <= max_cluster_area
             && (w > !best_w || (!best >= 0 && entry_first adj ~m e !best))
          then begin
            best_w := w;
            best := e
          end
        end
      done;
      if !best >= 0 then begin
        let gj = find adj.nbr.(!best) in
        group.(gi) <- gj;
        area.(gj) <- area.(gj) +. area.(gi)
      end)
    order;
  (* Compact cluster ids, build coarse cells. *)
  let coarse_id = Array.make n (-1) in
  let next = ref 0 in
  for i = 0 to n - 1 do
    let root = find i in
    if coarse_id.(root) = -1 then begin
      coarse_id.(root) <- !next;
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
  (* Coarse nets: flat nets with ≥ 2 distinct clusters, in flat net
     order.  [net_mark.(cid) = net] once [cid] is in [ids]. *)
  let num_nets = Netlist.Circuit.num_nets c in
  let net_start = c.Netlist.Circuit.net_start
  and pin_cell = c.Netlist.Circuit.pin_cell in
  let max_degree = ref 0 in
  for net = 0 to num_nets - 1 do
    max_degree := Stdlib.max !max_degree (Netlist.Circuit.degree c net)
  done;
  let ids = Array.make !max_degree 0 in
  let net_mark = Array.make !next (-1) in
  let coarse_nets = ref [] and coarse_net_count = ref 0 in
  for net = 0 to num_nets - 1 do
    let k = ref 0 in
    for q = net_start.(net) to net_start.(net + 1) - 1 do
      let cid = coarse_id.(pin_cell.(q)) in
      if net_mark.(cid) <> net then begin
        net_mark.(cid) <- net;
        ids.(!k) <- cid;
        incr k
      end
    done;
    if !k >= 2 then begin
      (* Preserve driver-first ordering: the driver cell's cluster
         leads, the others follow in ascending id. *)
      sort_prefix ids !k;
      let driver = coarse_id.(pin_cell.(net_start.(net))) in
      let pin cid = { Netlist.Net.cell = cid; dx = 0.; dy = 0. } in
      let pins = Array.make !k (pin driver) in
      let p = ref 1 in
      for x = 0 to !k - 1 do
        if ids.(x) <> driver then begin
          pins.(!p) <- pin ids.(x);
          incr p
        end
      done;
      coarse_nets :=
        Netlist.Net.make ~id:!coarse_net_count
          ~name:c.Netlist.Circuit.net_name.(net) pins
        :: !coarse_nets;
      incr coarse_net_count
    end
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
(* and a checkpoint only needs the level, its placer state and the      *)
(* run's step count.  A flat run is a run on a one-level hierarchy.     *)

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

(* The hierarchy of a flat run: the circuit alone.  [level_fixed.(0)]
   is read only when a coarser level expands into level 0, which a
   one-level hierarchy never does. *)
let unclustered (c : Netlist.Circuit.t) =
  { circuits = [| c |]; clusterings = [||]; level_fixed = [| [] |] }

type run = {
  run_config : Config.t;
  hierarchy : hierarchy;
  mutable level : int;  (* current stage, depth … 0 *)
  mutable state : Placer.state;
      (* its [iteration] counts the transformations of this stage *)
  mutable steps : int;  (* transformations of the whole run *)
  mutable verdict : bool option;
      (* [level_done] of the current state, once evaluated *)
}

let total_levels r = depth r.hierarchy + 1

let base_config r = r.run_config

let flat_circuit r = r.hierarchy.circuits.(0)

let current_level r = r.level

let current_state r = r.state

let steps r = r.steps

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

let make config h ~level ~steps state =
  { run_config = config; hierarchy = h; level; state; steps; verdict = None }

let resume (config : Config.t) h ~level ~steps state =
  let d = depth h in
  if level < 0 || level > d then
    invalid_arg
      (Printf.sprintf "Cluster.resume: level %d outside 0..%d" level d);
  make config h ~level ~steps state

let of_hierarchy (config : Config.t) h placement =
  let d = depth h in
  let state =
    if d = 0 then
      (* One level: the flat flow, from the caller's placement. *)
      Placer.init config h.circuits.(0) placement
    else init_level config h ~level:d
  in
  make config h ~level:d ~steps:0 state

let flat config c placement = of_hierarchy config (unclustered c) placement

let start (config : Config.t) (c : Netlist.Circuit.t) ~fixed_positions
    placement =
  of_hierarchy config (build_hierarchy config c ~fixed_positions) placement

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
  r.verdict <- None;
  (* The coarser level's placer state is garbage now, and the live set
     is at its smallest before the finer stage's first transformation.
     Left to the major GC's pace, that garbage is still uncollected
     while the finer stage allocates its own, and the two together set
     the run's peak RSS. *)
  Gc.full_major ()

(* The stage's stop check, evaluated once per state of the stage: its
   budget first (recorded as [Max_steps]), then the placer's stop rules,
   which record their own reason. *)
let level_done r =
  match r.verdict with
  | Some v -> v
  | None ->
    let v =
      if r.state.Placer.iteration >= level_budget r then begin
        Controller.record_stop r.state.Placer.controller Controller.Max_steps;
        true
      end
      else Placer.converged r.state
    in
    r.verdict <- Some v;
    v

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
    r.steps <- r.steps + 1;
    r.verdict <- None;
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
