type iteration = {
  step : int;
  hpwl : float;
  quadratic : float;
  overflow : float;
  empty_square_area : float;
  force_scale : float;
  max_force : float;
  mean_force : float;
  displacement : float;
  cg_iterations_x : int;
  cg_iterations_y : int;
  cg_residual_x : float;
  cg_residual_y : float;
  kernel_cache_hits : int;
  kernel_cache_misses : int;
  assembly_reused : bool;
  pattern_rebuilds : int;
  cg_tolerance : float;
  penalty : float;
  lb_hpwl : float;
  ub_hpwl : float option;
  gap : float option;
  level : int;
  congest_strength : float;
  est_overflow : float option;
  target_area : float;
  target_clamped : int;
  phases : (string * float) list;
}

type summary = {
  iterations : int;
  converged : bool;
  final_hpwl : float;
  final_overlap : float;
  wall_time : float;
  stop_reason : string option;
  counters : (string * Stat.t) list;
}

(* Schema 6 is the only one parsed; bump it (and the writers) on any
   field change. *)
let schema_version = 6

let volatile_fields = [ "phases"; "wall_time"; "counters" ]

let strip_volatile = function
  | Json.Obj fields ->
    Json.Obj (List.filter (fun (k, _) -> not (List.mem k volatile_fields)) fields)
  | other -> other

let provenance_fields =
  [
    "assembly_reused";
    "pattern_rebuilds";
    "kernel_cache_hits";
    "kernel_cache_misses";
  ]

let strip_provenance = function
  | Json.Obj fields ->
    Json.Obj
      (List.filter (fun (k, _) -> not (List.mem k provenance_fields)) fields)
  | other -> other

(* ------------------------------------------------------------------ *)
(* To JSON                                                             *)

let num v = Json.Num v

let int_ v = Json.Num (float_of_int v)

let iteration_to_json r =
  Json.Obj
    [
      ("record", Json.Str "iteration");
      ("schema", int_ schema_version);
      ("step", int_ r.step);
      ("hpwl", num r.hpwl);
      ("quadratic", num r.quadratic);
      ("overflow", num r.overflow);
      ("empty_square_area", num r.empty_square_area);
      ("force_scale", num r.force_scale);
      ("max_force", num r.max_force);
      ("mean_force", num r.mean_force);
      ("displacement", num r.displacement);
      ("cg_iterations_x", int_ r.cg_iterations_x);
      ("cg_iterations_y", int_ r.cg_iterations_y);
      ("cg_residual_x", num r.cg_residual_x);
      ("cg_residual_y", num r.cg_residual_y);
      ("kernel_cache_hits", int_ r.kernel_cache_hits);
      ("kernel_cache_misses", int_ r.kernel_cache_misses);
      ("assembly_reused", Json.Bool r.assembly_reused);
      ("pattern_rebuilds", int_ r.pattern_rebuilds);
      ("cg_tolerance", num r.cg_tolerance);
      ("penalty", num r.penalty);
      ("lb_hpwl", num r.lb_hpwl);
      ( "ub_hpwl",
        match r.ub_hpwl with Some v -> num v | None -> Json.Null );
      ("gap", match r.gap with Some v -> num v | None -> Json.Null);
      ("level", int_ r.level);
      ("congest_strength", num r.congest_strength);
      ( "est_overflow",
        match r.est_overflow with Some v -> num v | None -> Json.Null );
      ("target_area", num r.target_area);
      ("target_clamped", int_ r.target_clamped);
      ("phases", Json.Obj (List.map (fun (k, v) -> (k, num v)) r.phases));
    ]

let stat_to_json (s : Stat.t) =
  Json.Obj
    [
      ("count", int_ s.Stat.count);
      ("total", num s.Stat.total);
      ("min", if Float.is_finite s.Stat.min then num s.Stat.min else Json.Null);
      ("max", if Float.is_finite s.Stat.max then num s.Stat.max else Json.Null);
    ]

let summary_to_json r =
  Json.Obj
    [
      ("record", Json.Str "summary");
      ("schema", int_ schema_version);
      ("iterations", int_ r.iterations);
      ("converged", Json.Bool r.converged);
      ("final_hpwl", num r.final_hpwl);
      ("final_overlap", num r.final_overlap);
      ("wall_time", num r.wall_time);
      ( "stop_reason",
        match r.stop_reason with Some s -> Json.Str s | None -> Json.Null );
      ("counters", Json.Obj (List.map (fun (k, s) -> (k, stat_to_json s)) r.counters));
    ]

(* ------------------------------------------------------------------ *)
(* From JSON (validation)                                              *)

let field_num obj key =
  match Json.member key obj with
  | Some (Json.Num v) -> Ok v
  | Some _ -> Error (Printf.sprintf "field %S is not a number" key)
  | None -> Error (Printf.sprintf "missing field %S" key)

let field_int obj key =
  Result.bind (field_num obj key) (fun v ->
      match Json.to_int (Json.Num v) with
      | Some i -> Ok i
      | None -> Error (Printf.sprintf "field %S is not an integer" key))

let ( let* ) = Result.bind

let record_kind obj =
  match Json.member "record" obj with
  | Some (Json.Str kind) -> Ok kind
  | Some _ -> Error "field \"record\" is not a string"
  | None -> Error "missing field \"record\""

let check_schema obj =
  let* schema = field_int obj "schema" in
  if schema = schema_version then Ok ()
  else
    Error
      (Printf.sprintf "unsupported schema version %d (this build reads %d)"
         schema schema_version)

let field_opt_num obj key =
  match Json.member key obj with
  | Some (Json.Num v) -> Ok (Some v)
  | Some Json.Null | None -> Ok None
  | Some _ -> Error (Printf.sprintf "field %S is not a number or null" key)

let iteration_of_json obj =
  let* kind = record_kind obj in
  let* () =
    if kind = "iteration" then Ok ()
    else Error ("not an iteration record: " ^ kind)
  in
  let* () = check_schema obj in
  let* step = field_int obj "step" in
  let* hpwl = field_num obj "hpwl" in
  let* quadratic = field_num obj "quadratic" in
  let* overflow = field_num obj "overflow" in
  let* empty_square_area = field_num obj "empty_square_area" in
  let* force_scale = field_num obj "force_scale" in
  let* max_force = field_num obj "max_force" in
  let* mean_force = field_num obj "mean_force" in
  let* displacement = field_num obj "displacement" in
  let* cg_iterations_x = field_int obj "cg_iterations_x" in
  let* cg_iterations_y = field_int obj "cg_iterations_y" in
  let* cg_residual_x = field_num obj "cg_residual_x" in
  let* cg_residual_y = field_num obj "cg_residual_y" in
  let* kernel_cache_hits = field_int obj "kernel_cache_hits" in
  let* kernel_cache_misses = field_int obj "kernel_cache_misses" in
  let* assembly_reused =
    match Json.member "assembly_reused" obj with
    | Some (Json.Bool b) -> Ok b
    | Some _ -> Error "field \"assembly_reused\" is not a bool"
    | None -> Error "missing field \"assembly_reused\""
  in
  let* pattern_rebuilds = field_int obj "pattern_rebuilds" in
  let* cg_tolerance = field_num obj "cg_tolerance" in
  let* penalty = field_num obj "penalty" in
  let* lb_hpwl = field_num obj "lb_hpwl" in
  let* ub_hpwl = field_opt_num obj "ub_hpwl" in
  let* gap = field_opt_num obj "gap" in
  let* level = field_int obj "level" in
  let* congest_strength = field_num obj "congest_strength" in
  let* est_overflow = field_opt_num obj "est_overflow" in
  let* target_area = field_num obj "target_area" in
  let* target_clamped = field_int obj "target_clamped" in
  let* phases =
    match Json.member "phases" obj with
    | Some (Json.Obj fields) ->
      List.fold_left
        (fun acc (k, v) ->
          let* acc = acc in
          match v with
          | Json.Num t -> Ok ((k, t) :: acc)
          | _ -> Error (Printf.sprintf "phase %S is not a number" k))
        (Ok []) fields
      |> Result.map List.rev
    | Some _ -> Error "field \"phases\" is not an object"
    | None -> Error "missing field \"phases\""
  in
  Ok
    {
      step;
      hpwl;
      quadratic;
      overflow;
      empty_square_area;
      force_scale;
      max_force;
      mean_force;
      displacement;
      cg_iterations_x;
      cg_iterations_y;
      cg_residual_x;
      cg_residual_y;
      kernel_cache_hits;
      kernel_cache_misses;
      assembly_reused;
      pattern_rebuilds;
      cg_tolerance;
      penalty;
      lb_hpwl;
      ub_hpwl;
      gap;
      level;
      congest_strength;
      est_overflow;
      target_area;
      target_clamped;
      phases;
    }

let summary_of_json obj =
  let* kind = record_kind obj in
  let* () =
    if kind = "summary" then Ok ()
    else Error ("not a summary record: " ^ kind)
  in
  let* () = check_schema obj in
  let* iterations = field_int obj "iterations" in
  let* converged =
    match Json.member "converged" obj with
    | Some (Json.Bool b) -> Ok b
    | Some _ -> Error "field \"converged\" is not a bool"
    | None -> Error "missing field \"converged\""
  in
  let* final_hpwl = field_num obj "final_hpwl" in
  let* final_overlap = field_num obj "final_overlap" in
  let* wall_time = field_num obj "wall_time" in
  let* stop_reason =
    match Json.member "stop_reason" obj with
    | Some (Json.Str s) -> Ok (Some s)
    | Some Json.Null | None -> Ok None
    | Some _ -> Error "field \"stop_reason\" is not a string or null"
  in
  let* counters =
    match Json.member "counters" obj with
    | Some (Json.Obj fields) ->
      List.fold_left
        (fun acc (k, v) ->
          let* acc = acc in
          let* count = field_int v "count" in
          let* total = field_num v "total" in
          let min_ =
            match Json.member "min" v with
            | Some (Json.Num m) -> m
            | _ -> Float.infinity
          in
          let max_ =
            match Json.member "max" v with
            | Some (Json.Num m) -> m
            | _ -> Float.neg_infinity
          in
          Ok ((k, { Stat.count; total; min = min_; max = max_ }) :: acc))
        (Ok []) fields
      |> Result.map List.rev
    | Some _ -> Error "field \"counters\" is not an object"
    | None -> Ok []
  in
  Ok
    {
      iterations;
      converged;
      final_hpwl;
      final_overlap;
      wall_time;
      stop_reason;
      counters;
    }
