type mode = Objective.mode = Standard | Fast

type flow = Objective.flow = Flat | Multilevel

type start = Fresh | Resume of string | Warm of string

type spec = {
  source : Source.t;
  objective : Objective.t;
  priority : int;
  deadline : float option;
  max_steps : int option;
  start : start;
  checkpoint : string option;
  checkpoint_every : int;
  trace : string option;
}

let spec ~source ?(objective = Objective.default) ?(priority = 0) ?deadline
    ?max_steps ?(start = Fresh) ?checkpoint ?(checkpoint_every = 25)
    ?trace () =
  {
    source;
    objective;
    priority;
    deadline;
    max_steps;
    start;
    checkpoint;
    checkpoint_every;
    trace;
  }

let flow s = s.objective.Objective.flow

let timing s = Objective.timing_driven s.objective

type status =
  | Queued
  | Running
  | Checkpointed
  | Done
  | Cancelled
  | Failed of string

let terminal = function
  | Done | Cancelled | Failed _ -> true
  | Queued | Running | Checkpointed -> false

let status_to_string = function
  | Queued -> "queued"
  | Running -> "running"
  | Checkpointed -> "checkpointed"
  | Done -> "done"
  | Cancelled -> "cancelled"
  | Failed _ -> "failed"

type result = {
  status : status;
  iterations : int;
  converged : bool;
  stop_reason : Kraftwerk.Controller.reason option;
  hpwl : float;
  overlap : float;
  legal : bool;
  improve_moves : int;
  improve_delta : float;
  domino_moves : int;
  domino_delta : float;
  routed_overflow : float option;
  routed_max_overflow : float option;
  routed_wirelength : float option;
  deadline_expired : bool;
  wall_s : float;
  checkpoint_written : string option;
}

let config_of_spec s = Objective.config s.objective

let completed objective c (fin : Legalize.Finish.t) =
  let lp = fin.Legalize.Finish.placement in
  let routed =
    if Objective.routed_validation objective then
      let gspec = Kraftwerk.Placer.route_spec (Objective.config objective) c in
      Result.to_option (Route.Grouter.route c lp gspec)
    else None
  in
  let field f = Option.map f routed in
  {
    status = Done;
    iterations = 0;
    converged = true;
    stop_reason = None;
    hpwl = Metrics.Wirelength.hpwl c lp;
    overlap = Metrics.Overlap.overlap_ratio c lp;
    legal = Legalize.Check.is_legal c lp;
    improve_moves = fin.Legalize.Finish.improve_moves;
    improve_delta = fin.Legalize.Finish.improve_delta;
    domino_moves = fin.Legalize.Finish.domino_moves;
    domino_delta = fin.Legalize.Finish.domino_delta;
    routed_overflow = field (fun r -> r.Route.Grouter.total_overflow);
    routed_max_overflow = field (fun r -> r.Route.Grouter.max_overflow);
    routed_wirelength = field (fun r -> r.Route.Grouter.total_wirelength);
    deadline_expired = false;
    wall_s = 0.;
    checkpoint_written = None;
  }

(* ------------------------------------------------------------------ *)
(* JSON                                                                 *)

open Obs.Json

let num v = Num v

let int_ v = Num (float_of_int v)

let opt f = function Some v -> f v | None -> Null

let spec_to_json s =
  let source_fields = match Source.to_json s.source with Obj f -> f | _ -> [] in
  Obj
    (source_fields
    @ [
        ("objective", Objective.to_json s.objective);
        ("priority", int_ s.priority);
        ("deadline_s", opt num s.deadline);
        ("max_steps", opt int_ s.max_steps);
        ( "resume_from",
          match s.start with Resume f -> Str f | _ -> Null );
        ("warm_start", match s.start with Warm f -> Str f | _ -> Null);
        ("checkpoint", opt (fun f -> Str f) s.checkpoint);
        ("checkpoint_every", int_ s.checkpoint_every);
        ("trace", opt (fun f -> Str f) s.trace);
      ])

let ( let* ) = Result.bind

let field_opt_str v key =
  match member key v with
  | Some (Str s) -> Ok (Some s)
  | Some Null | None -> Ok None
  | Some _ -> Error (Printf.sprintf "job: field %S is not a string" key)

let field_opt_num v key =
  match member key v with
  | Some (Num n) -> Ok (Some n)
  | Some Null | None -> Ok None
  | Some _ -> Error (Printf.sprintf "job: field %S is not a number" key)

let field_opt_int v key =
  let* n = field_opt_num v key in
  match n with
  | None -> Ok None
  | Some n -> (
    match to_int (Num n) with
    | Some i -> Ok (Some i)
    | None -> Error (Printf.sprintf "job: field %S is not an integer" key))

(* Goal, mode, effort and flow live only in the "objective" object; a
   top-level copy is refused rather than silently ignored. *)
let objective_keys = [ "mode"; "flow"; "effort"; "timing" ]

let spec_of_json v =
  let* source = Source.of_json v in
  let* () =
    match List.find_opt (fun k -> member k v <> None) objective_keys with
    | Some k ->
      Error
        (Printf.sprintf
           "job: top-level field %S is not accepted; set it inside \
            \"objective\""
           k)
    | None -> Ok ()
  in
  let* objective =
    match member "objective" v with
    | Some (Obj _ as o) -> Objective.of_json o
    | Some Null | None -> Ok Objective.default
    | Some _ -> Error "job: field \"objective\" is not an object"
  in
  let* priority = field_opt_int v "priority" in
  let* deadline = field_opt_num v "deadline_s" in
  let* max_steps = field_opt_int v "max_steps" in
  let* resume_from = field_opt_str v "resume_from" in
  let* warm_start = field_opt_str v "warm_start" in
  let* start =
    match (resume_from, warm_start) with
    | Some f, None -> Ok (Resume f)
    | None, Some f -> Ok (Warm f)
    | None, None -> Ok Fresh
    | Some _, Some _ -> Error "job: both \"resume_from\" and \"warm_start\""
  in
  let* checkpoint = field_opt_str v "checkpoint" in
  let* checkpoint_every = field_opt_int v "checkpoint_every" in
  let checkpoint_every = Option.value checkpoint_every ~default:25 in
  let* () =
    if checkpoint_every < 1 then Error "job: checkpoint_every must be >= 1"
    else Ok ()
  in
  let* () =
    match deadline with
    | Some d when d < 0. -> Error "job: deadline_s must be >= 0"
    | _ -> Ok ()
  in
  let* trace = field_opt_str v "trace" in
  Ok
    {
      source;
      objective;
      priority = Option.value priority ~default:0;
      deadline;
      max_steps;
      start;
      checkpoint;
      checkpoint_every;
      trace;
    }

let result_to_json r =
  Obj
    [
      ("status", Str (status_to_string r.status));
      ( "failure",
        match r.status with Failed msg -> Str msg | _ -> Null );
      ("iterations", int_ r.iterations);
      ("converged", Bool r.converged);
      ( "stop_reason",
        opt (fun r -> Str (Kraftwerk.Controller.reason_to_string r))
          r.stop_reason );
      ("hpwl", num r.hpwl);
      ("overlap", num r.overlap);
      ("legal", Bool r.legal);
      ("improve_moves", int_ r.improve_moves);
      ("improve_delta_hpwl", num r.improve_delta);
      ("domino_moves", int_ r.domino_moves);
      ("domino_delta_hpwl", num r.domino_delta);
      ("routed_overflow", opt num r.routed_overflow);
      ("routed_max_overflow", opt num r.routed_max_overflow);
      ("routed_wirelength", opt num r.routed_wirelength);
      ("deadline_expired", Bool r.deadline_expired);
      ("wall_s", num r.wall_s);
      ("checkpoint", opt (fun f -> Str f) r.checkpoint_written);
    ]

let field_num v key =
  match member key v with
  | Some (Num n) -> Ok n
  | _ -> Error (Printf.sprintf "result: field %S is not a number" key)

let field_int v key =
  let* n = field_num v key in
  match to_int (Num n) with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "result: field %S is not an integer" key)

let field_bool v key =
  match member key v with
  | Some (Bool b) -> Ok b
  | _ -> Error (Printf.sprintf "result: field %S is not a bool" key)

let result_of_json v =
  let* status =
    match member "status" v with
    | Some (Str "done") -> Ok Done
    | Some (Str "cancelled") -> Ok Cancelled
    | Some (Str "failed") ->
      let* msg = field_opt_str v "failure" in
      Ok (Failed (Option.value msg ~default:""))
    | Some (Str other) -> Error ("result: non-terminal status " ^ other)
    | _ -> Error "result: missing \"status\""
  in
  let* iterations = field_int v "iterations" in
  let* converged = field_bool v "converged" in
  let* stop_reason =
    match member "stop_reason" v with
    | Some (Str s) -> (
      match Kraftwerk.Controller.reason_of_string s with
      | Some r -> Ok (Some r)
      | None -> Error (Printf.sprintf "result: unknown stop_reason %S" s))
    | Some Null | None -> Ok None
    | Some _ -> Error "result: field \"stop_reason\" is not a string"
  in
  let* hpwl = field_num v "hpwl" in
  let* overlap = field_num v "overlap" in
  let* legal = field_bool v "legal" in
  let* improve_moves = field_int v "improve_moves" in
  let* improve_delta = field_num v "improve_delta_hpwl" in
  let* domino_moves = field_int v "domino_moves" in
  let* domino_delta = field_num v "domino_delta_hpwl" in
  (* Results written before the routability objective carry no routed
     metrics. *)
  let* routed_overflow = field_opt_num v "routed_overflow" in
  let* routed_max_overflow = field_opt_num v "routed_max_overflow" in
  let* routed_wirelength = field_opt_num v "routed_wirelength" in
  let* deadline_expired = field_bool v "deadline_expired" in
  let* wall_s = field_num v "wall_s" in
  let* checkpoint_written = field_opt_str v "checkpoint" in
  Ok
    {
      status;
      iterations;
      converged;
      stop_reason;
      hpwl;
      overlap;
      legal;
      improve_moves;
      improve_delta;
      domino_moves;
      domino_delta;
      routed_overflow;
      routed_max_overflow;
      routed_wirelength;
      deadline_expired;
      wall_s;
      checkpoint_written;
    }
