type t = {
  config_digest : string;
  circuit_digest : string;
  iteration : int;
  steps : int;
  x : float array;
  y : float array;
  ex : float array;
  ey : float array;
  net_weights : float array;
  criticality : float array option;
  controller : Kraftwerk.Controller.t;
  ml_level : int;
  ml_levels : int;
  route_target : float array option;
}

let version = 5

(* ------------------------------------------------------------------ *)
(* Digests                                                              *)

(* A canonical rendering of every config field that affects the
   trajectory.  [domains] is excluded: nothing reads it. *)
let config_fingerprint (c : Kraftwerk.Config.t) =
  let grid =
    match c.Kraftwerk.Config.grid with
    | Some (nx, ny) -> Printf.sprintf "%dx%d" nx ny
    | None -> "auto"
  in
  Printf.sprintf
    "k=%h;max_iter=%d;linearize=%b;cap=%d;anchor=%h;hold=%h;decay=%h;stop=%h;grid=%s;tol=%h;tol_loose=%h;gscale=%h;gap=%h;stall=%d;leg=%d;pen0=%h;penu=%h;penmax=%h;mlt=%d;mll=%d;mlr=%d;mlg=%h;mls=%d;ce=%d;cs=%h;cu=%h;cm=%h;cd=%h;cp=%h"
    c.Kraftwerk.Config.k_param c.Kraftwerk.Config.max_iterations
    c.Kraftwerk.Config.linearize c.Kraftwerk.Config.clique_cap
    c.Kraftwerk.Config.anchor_weight c.Kraftwerk.Config.hold_weight
    c.Kraftwerk.Config.force_decay c.Kraftwerk.Config.stop_multiplier grid
    c.Kraftwerk.Config.cg_tol c.Kraftwerk.Config.cg_tol_loose
    c.Kraftwerk.Config.grid_scale c.Kraftwerk.Config.stop_gap
    c.Kraftwerk.Config.stop_stall c.Kraftwerk.Config.legalize_every
    c.Kraftwerk.Config.penalty_initial c.Kraftwerk.Config.penalty_update
    c.Kraftwerk.Config.penalty_max c.Kraftwerk.Config.ml_threshold
    c.Kraftwerk.Config.ml_max_levels c.Kraftwerk.Config.ml_refine_iters
    c.Kraftwerk.Config.ml_grid_scale c.Kraftwerk.Config.ml_seed
    c.Kraftwerk.Config.congest_every c.Kraftwerk.Config.congest_strength
    c.Kraftwerk.Config.congest_update c.Kraftwerk.Config.congest_max
    c.Kraftwerk.Config.congest_decay c.Kraftwerk.Config.congest_pitch

let config_digest c = Digest.to_hex (Digest.string (config_fingerprint c))

let circuit_digest (c : Netlist.Circuit.t) =
  (* Cells and the pin table are plain records of scalars/arrays; Marshal
     gives a canonical byte rendering of the whole netlist cheaply. *)
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          ( c.Netlist.Circuit.name,
            c.Netlist.Circuit.cells,
            ( c.Netlist.Circuit.net_start,
              c.Netlist.Circuit.pin_cell,
              c.Netlist.Circuit.pin_dx,
              c.Netlist.Circuit.pin_dy,
              c.Netlist.Circuit.net_name ),
            c.Netlist.Circuit.region,
            c.Netlist.Circuit.row_height )
          []))

(* The digests cover the base config and the flat circuit: the level's
   derived config and coarse circuit are both rebuilt from them on
   resume. *)
let of_run ?criticality run =
  let s = Kraftwerk.Cluster.current_state run in
  {
    config_digest = config_digest (Kraftwerk.Cluster.base_config run);
    circuit_digest = circuit_digest (Kraftwerk.Cluster.flat_circuit run);
    iteration = s.Kraftwerk.Placer.iteration;
    steps = Kraftwerk.Cluster.steps run;
    x = Array.copy s.Kraftwerk.Placer.placement.Netlist.Placement.x;
    y = Array.copy s.Kraftwerk.Placer.placement.Netlist.Placement.y;
    ex = Array.copy s.Kraftwerk.Placer.ex;
    ey = Array.copy s.Kraftwerk.Placer.ey;
    net_weights = Array.copy s.Kraftwerk.Placer.net_weights;
    criticality = Option.map Array.copy criticality;
    controller = Kraftwerk.Controller.copy s.Kraftwerk.Placer.controller;
    ml_level = Kraftwerk.Cluster.current_level run;
    ml_levels = Kraftwerk.Cluster.total_levels run;
    route_target =
      Option.map Route.Target.values s.Kraftwerk.Placer.route_target;
  }

(* ------------------------------------------------------------------ *)
(* Serialisation                                                        *)

open Obs.Json

let farray a = Arr (Array.to_list a |> List.map (fun v -> Num v))

(* Non-finite envelope fields (nan before the first UB probe, infinite
   gap_min) have no JSON literal; Null encodes them and the parser maps
   Null back to the matching sentinel. *)
let fin v = if Float.is_finite v then Num v else Null

let congest_to_json (g : Kraftwerk.Controller.congest) =
  Obj
    [
      ("strength", Num g.Kraftwerk.Controller.strength);
      ( "since_refresh",
        Num (float_of_int g.Kraftwerk.Controller.since_refresh) );
      ("refreshes", Num (float_of_int g.Kraftwerk.Controller.refreshes));
      ("est_overflow", fin g.Kraftwerk.Controller.est_overflow);
      ("est_max_overflow", fin g.Kraftwerk.Controller.est_max_overflow);
      ("target_area", Num g.Kraftwerk.Controller.target_area);
      ("clamped_bins", Num (float_of_int g.Kraftwerk.Controller.clamped_bins));
    ]

let controller_to_json (c : Kraftwerk.Controller.t) =
  Obj
    [
      ("penalty", Num c.Kraftwerk.Controller.penalty);
      ( "since_legalize",
        Num (float_of_int c.Kraftwerk.Controller.since_legalize) );
      ("lb", Num (Kraftwerk.Controller.lb c));
      ("ub", fin c.Kraftwerk.Controller.ub);
      ("ub_min", fin c.Kraftwerk.Controller.ub_min);
      ("gap", fin c.Kraftwerk.Controller.gap);
      ("gap_min", fin c.Kraftwerk.Controller.gap_min);
      ("ub_evals", Num (float_of_int c.Kraftwerk.Controller.ub_evals));
      ("stall", Num (float_of_int c.Kraftwerk.Controller.stall));
      ( "stop_reason",
        match c.Kraftwerk.Controller.stop_reason with
        | Some r -> Str (Kraftwerk.Controller.reason_to_string r)
        | None -> Null );
      ("congest", congest_to_json c.Kraftwerk.Controller.congest);
    ]

let to_json t =
  Obj
    [
      ("record", Str "checkpoint");
      ("version", Num (float_of_int version));
      ("config", Str t.config_digest);
      ("circuit", Str t.circuit_digest);
      ("iteration", Num (float_of_int t.iteration));
      ("steps", Num (float_of_int t.steps));
      ("x", farray t.x);
      ("y", farray t.y);
      ("ex", farray t.ex);
      ("ey", farray t.ey);
      ("net_weights", farray t.net_weights);
      ( "criticality",
        match t.criticality with Some a -> farray a | None -> Null );
      ("ml_level", Num (float_of_int t.ml_level));
      ("ml_levels", Num (float_of_int t.ml_levels));
      ("controller", controller_to_json t.controller);
      ( "route_target",
        match t.route_target with Some a -> farray a | None -> Null );
    ]

let ( let* ) = Result.bind

let field v key =
  match member key v with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "checkpoint: missing field %S" key)

let field_str v key =
  match member key v with
  | Some (Str s) -> Ok s
  | _ -> Error (Printf.sprintf "checkpoint: field %S is not a string" key)

let field_int v key =
  match Option.bind (member key v) to_int with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "checkpoint: field %S is not an integer" key)

let field_float v key =
  match member key v with
  | Some (Num n) -> Ok n
  | _ -> Error (Printf.sprintf "checkpoint: field %S is not a number" key)

(* Inverse of [fin]: Null restores the field's non-finite sentinel. *)
let field_fin v key ~default =
  match member key v with
  | Some (Num n) -> Ok n
  | Some Null -> Ok default
  | _ -> Error (Printf.sprintf "checkpoint: field %S is not a number" key)

let congest_of_json c =
  let* g = field c "congest" in
  let* strength = field_float g "strength" in
  let* since_refresh = field_int g "since_refresh" in
  let* refreshes = field_int g "refreshes" in
  let* est_overflow = field_fin g "est_overflow" ~default:Float.nan in
  let* est_max_overflow = field_fin g "est_max_overflow" ~default:Float.nan in
  let* target_area = field_float g "target_area" in
  let* clamped_bins = field_int g "clamped_bins" in
  Ok
    (Kraftwerk.Controller.restore_congest ~strength ~since_refresh ~refreshes
       ~est_overflow ~est_max_overflow ~target_area ~clamped_bins)

let controller_of_json v =
  match member "controller" v with
  | Some c ->
    let* penalty = field_float c "penalty" in
    let* since_legalize = field_int c "since_legalize" in
    let* lb = field_float c "lb" in
    let* ub = field_fin c "ub" ~default:Float.nan in
    let* ub_min = field_fin c "ub_min" ~default:Float.infinity in
    let* gap = field_fin c "gap" ~default:Float.nan in
    let* gap_min = field_fin c "gap_min" ~default:Float.infinity in
    let* ub_evals = field_int c "ub_evals" in
    let* stall = field_int c "stall" in
    let* stop_reason =
      match member "stop_reason" c with
      | Some Null | None -> Ok None
      | Some (Str s) -> (
        match Kraftwerk.Controller.reason_of_string s with
        | Some r -> Ok (Some r)
        | None -> Error (Printf.sprintf "checkpoint: unknown stop reason %S" s))
      | Some _ -> Error "checkpoint: field \"stop_reason\" is not a string"
    in
    let* congest = congest_of_json c in
    Ok
      (Kraftwerk.Controller.restore ~penalty ~since_legalize ~lb ~ub ~ub_min
         ~gap ~gap_min ~ub_evals ~stall ~stop_reason ~congest)
  | None -> Error "checkpoint: missing field \"controller\""

let field_farray v key =
  let* f = field v key in
  match f with
  | Arr items ->
    let a = Array.make (List.length items) 0. in
    let rec fill i = function
      | [] -> Ok a
      | Num n :: rest ->
        a.(i) <- n;
        fill (i + 1) rest
      | _ -> Error (Printf.sprintf "checkpoint: field %S holds a non-number" key)
    in
    fill 0 items
  | _ -> Error (Printf.sprintf "checkpoint: field %S is not an array" key)

(* Null marks an absent optional array (no timing criticality, no
   routability loop); the key itself is always written. *)
let field_farray_opt v key =
  let* f = field v key in
  match f with
  | Null -> Ok None
  | _ -> Result.map Option.some (field_farray v key)

let of_json v =
  let* kind = field_str v "record" in
  let* () =
    if kind = "checkpoint" then Ok ()
    else Error ("checkpoint: not a checkpoint: " ^ kind)
  in
  let* file_version = field_int v "version" in
  let* () =
    if file_version = version then Ok ()
    else
      Error
        (Printf.sprintf
           "checkpoint: unsupported version %d (this build reads %d)"
           file_version version)
  in
  let* config_digest = field_str v "config" in
  let* circuit_digest = field_str v "circuit" in
  let* iteration = field_int v "iteration" in
  let* steps = field_int v "steps" in
  let* x = field_farray v "x" in
  let* y = field_farray v "y" in
  let* ex = field_farray v "ex" in
  let* ey = field_farray v "ey" in
  let* net_weights = field_farray v "net_weights" in
  let* criticality = field_farray_opt v "criticality" in
  let* ml_level = field_int v "ml_level" in
  let* ml_levels = field_int v "ml_levels" in
  let* () =
    if iteration < 0 || steps < iteration then
      Error
        (Printf.sprintf "checkpoint: iteration %d outside 0..steps %d"
           iteration steps)
    else Ok ()
  in
  let* () =
    if ml_levels < 1 || ml_level < 0 || ml_level >= ml_levels then
      Error
        (Printf.sprintf "checkpoint: level %d outside stack of %d" ml_level
           ml_levels)
    else Ok ()
  in
  let* controller = controller_of_json v in
  let* route_target = field_farray_opt v "route_target" in
  if Array.length x <> Array.length y then
    Error "checkpoint: x/y length mismatch"
  else if Array.length ex <> Array.length ey then
    Error "checkpoint: ex/ey length mismatch"
  else
    Ok
      {
        config_digest;
        circuit_digest;
        iteration;
        steps;
        x;
        y;
        ex;
        ey;
        net_weights;
        criticality;
        controller;
        ml_level;
        ml_levels;
        route_target;
      }

let save path t =
  let dir = Filename.dirname path in
  let tmp = Filename.temp_file ~temp_dir:dir (Filename.basename path) ".tmp" in
  let oc = open_out tmp in
  (try
     output_string oc (to_string (to_json t));
     output_char oc '\n';
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> Error ("checkpoint: " ^ msg)
  | contents ->
    let* v =
      Result.map_error (fun e -> "checkpoint: " ^ e) (of_string contents)
    in
    of_json v

(* The target-map grid is a pure function of (config, circuit), so only
   the values are stored; rebuilding validates the length. *)
let route_target_of t config circuit =
  match t.route_target with
  | None -> Ok None
  | Some vs -> (
    let spec = Kraftwerk.Placer.route_spec config circuit in
    match
      Route.Target.restore circuit.Netlist.Circuit.region spec ~values:vs
    with
    | Ok tgt -> Ok (Some tgt)
    | Error msg -> Error ("checkpoint: " ^ msg))

(* Criticalities are per net of the flat circuit, in both flows. *)
let check_criticality t circuit =
  match t.criticality with
  | Some a when Array.length a <> Netlist.Circuit.num_nets circuit ->
    Error
      (Printf.sprintf "checkpoint: criticality has %d nets, circuit has %d"
         (Array.length a)
         (Netlist.Circuit.num_nets circuit))
  | _ -> Ok ()

(* The hierarchy is a pure function of (circuit, config), so the caller
   rebuilds it and only the current level's placer state comes from the
   file.  The x/ex arrays are sized for that level's circuit. *)
let restore t config (h : Kraftwerk.Cluster.hierarchy) =
  let circuit = h.Kraftwerk.Cluster.circuits.(0) in
  let levels = Kraftwerk.Cluster.depth h + 1 in
  if t.config_digest <> config_digest config then
    Error "checkpoint: config mismatch (different placer configuration)"
  else if t.circuit_digest <> circuit_digest circuit then
    Error "checkpoint: circuit mismatch (netlist changed since checkpoint)"
  else if t.ml_levels <> levels then
    Error
      (Printf.sprintf
         "checkpoint: hierarchy depth changed (checkpoint has %d levels, \
          rebuild has %d; resume with the flow that wrote it)"
         t.ml_levels levels)
  else
    let level = t.ml_level in
    let level_circuit = h.Kraftwerk.Cluster.circuits.(level)
    and level_config = Kraftwerk.Cluster.level_config config ~level in
    if Array.length t.x <> Netlist.Circuit.num_cells level_circuit then
      Error
        (Printf.sprintf
           "checkpoint: level %d placement has %d cells, hierarchy level has %d"
           level (Array.length t.x)
           (Netlist.Circuit.num_cells level_circuit))
    else
      let* () = check_criticality t circuit in
      let* route_target = route_target_of t level_config level_circuit in
      match
        Kraftwerk.Placer.restore ~telemetry_level:level level_config
          level_circuit
          ~placement:{ Netlist.Placement.x = t.x; y = t.y }
          ~ex:t.ex ~ey:t.ey ~net_weights:t.net_weights ~controller:t.controller
          ?route_target ~iteration:t.iteration ()
      with
      | state -> Ok (Kraftwerk.Cluster.resume config h ~level ~steps:t.steps state)
      | exception Invalid_argument msg -> Error ("checkpoint: " ^ msg)

let placement t ~num_cells =
  if Array.length t.x <> num_cells then
    Error
      (Printf.sprintf "checkpoint: placement has %d cells, circuit has %d"
         (Array.length t.x) num_cells)
  else
    Ok { Netlist.Placement.x = Array.copy t.x; y = Array.copy t.y }
