type goal = Wirelength | Routability | Timing

type mode = Standard | Fast

type flow = Flat | Multilevel

type t = {
  goal : goal;
  mode : mode;
  effort : int option;
  flow : flow;
  congest_every : int option;
  congest_strength : float option;
}

let default =
  {
    goal = Wirelength;
    mode = Standard;
    effort = None;
    flow = Flat;
    congest_every = None;
    congest_strength = None;
  }

let make ?(goal = Wirelength) ?(mode = Standard) ?effort ?(flow = Flat)
    ?congest_every ?congest_strength () =
  { goal; mode; effort; flow; congest_every; congest_strength }

let goal_to_string = function
  | Wirelength -> "wirelength"
  | Routability -> "routability"
  | Timing -> "timing"

let goal_of_string = function
  | "wirelength" -> Ok Wirelength
  | "routability" -> Ok Routability
  | "timing" -> Ok Timing
  | other -> Error (Printf.sprintf "objective: unknown goal %S" other)

let mode_to_string = function Standard -> "standard" | Fast -> "fast"

let mode_of_string = function
  | "standard" -> Ok Standard
  | "fast" -> Ok Fast
  | other -> Error (Printf.sprintf "objective: unknown mode %S" other)

let flow_to_string = function Flat -> "flat" | Multilevel -> "multilevel"

let flow_of_string = function
  | "flat" -> Ok Flat
  | "multilevel" -> Ok Multilevel
  | other -> Error (Printf.sprintf "objective: unknown flow %S" other)

let timing_driven t = t.goal = Timing

let routed_validation t = t.goal = Routability

let validate t =
  let ( let* ) = Result.bind in
  let* () =
    match t.effort with
    | Some e when e < 1 || e > 9 -> Error "objective: effort must be in 1..9"
    | _ -> Ok ()
  in
  let* () =
    match t.congest_every with
    | Some n when n < 1 -> Error "objective: congest_every must be >= 1"
    | Some _ when t.goal <> Routability ->
      Error "objective: congest_every requires the routability goal"
    | _ -> Ok ()
  in
  match t.congest_strength with
  | Some s when (not (Float.is_finite s)) || s <= 0. ->
    Error "objective: congest_strength must be positive"
  | Some _ when t.goal <> Routability ->
    Error "objective: congest_strength requires the routability goal"
  | _ -> Ok ()

(* An explicit effort preset wins over the mode; the mode is the
   fallback when no effort is given.  The routability goal overlays the
   congestion loop on either base. *)
let config t =
  let base =
    match t.effort with
    | Some e -> Kraftwerk.Config.effort e
    | None -> (
      match t.mode with
      | Standard -> Kraftwerk.Config.standard
      | Fast -> Kraftwerk.Config.fast)
  in
  match t.goal with
  | Wirelength | Timing -> base
  | Routability ->
    let r = Kraftwerk.Config.routability base in
    let r =
      match t.congest_every with
      | Some n -> { r with Kraftwerk.Config.congest_every = n }
      | None -> r
    in
    (match t.congest_strength with
    | Some s -> { r with Kraftwerk.Config.congest_strength = s }
    | None -> r)

(* ------------------------------------------------------------------ *)
(* JSON                                                                 *)

open Obs.Json

let to_json t =
  Obj
    [
      ("goal", Str (goal_to_string t.goal));
      ("mode", Str (mode_to_string t.mode));
      ( "effort",
        match t.effort with Some e -> Num (float_of_int e) | None -> Null );
      ("flow", Str (flow_to_string t.flow));
      ( "congest_every",
        match t.congest_every with
        | Some n -> Num (float_of_int n)
        | None -> Null );
      ( "congest_strength",
        match t.congest_strength with Some s -> Num s | None -> Null );
    ]

let ( let* ) = Result.bind

let field_opt_int v key =
  match member key v with
  | Some Null | None -> Ok None
  | Some n -> (
    match to_int n with
    | Some i -> Ok (Some i)
    | None ->
      Error (Printf.sprintf "objective: field %S is not an integer" key))

let of_json v =
  let* goal =
    match member "goal" v with
    | Some (Str g) -> goal_of_string g
    | Some Null | None -> Ok Wirelength
    | Some _ -> Error "objective: field \"goal\" is not a string"
  in
  let* mode =
    match member "mode" v with
    | Some (Str m) -> mode_of_string m
    | Some Null | None -> Ok Standard
    | Some _ -> Error "objective: field \"mode\" is not a string"
  in
  let* flow =
    match member "flow" v with
    | Some (Str f) -> flow_of_string f
    | Some Null | None -> Ok Flat
    | Some _ -> Error "objective: field \"flow\" is not a string"
  in
  let* effort = field_opt_int v "effort" in
  let* congest_every = field_opt_int v "congest_every" in
  let* congest_strength =
    match member "congest_strength" v with
    | Some (Num s) -> Ok (Some s)
    | Some Null | None -> Ok None
    | Some _ -> Error "objective: field \"congest_strength\" is not a number"
  in
  let t = { goal; mode; effort; flow; congest_every; congest_strength } in
  let* () = validate t in
  Ok t
