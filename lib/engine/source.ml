type t =
  | Profile of { name : string; scale : float; seed : int }
  | File of string

let ( let* ) = Stdlib.Result.bind

let validate = function
  | Profile { name; scale; _ } ->
    if scale <= 0. || scale > 1. then
      Error (Printf.sprintf "source: scale %g out of (0, 1]" scale)
    else (
      match Circuitgen.Profiles.find name with
      | _ -> Ok ()
      | exception Not_found ->
        Error (Printf.sprintf "source: unknown profile %S" name))
  | File file ->
    if Sys.file_exists file then Ok ()
    else Error (Printf.sprintf "source: no such file %s" file)

let load = function
  | Profile { name; scale; seed } as src ->
    let* () = validate src in
    let prof = Circuitgen.Profiles.find name in
    let params = Circuitgen.Profiles.params ~scale prof ~seed in
    let c, fixed = Circuitgen.Gen.generate params in
    Ok (c, Circuitgen.Gen.initial_placement c fixed)
  | File file when Filename.check_suffix file ".aux" ->
    Result.map_error Netlist.Bookshelf.error_message
      (Netlist.Bookshelf.load_aux file)
  | File file ->
    let* c =
      Result.map_error Netlist.Io.error_message (Netlist.Io.load_circuit file)
    in
    (* The generated format keeps pad-ring coordinates in a sidecar
       file; without one the centered initial placement re-derives
       nothing, so fixed cells sit at (0,0) — same as the CLI. *)
    let side = file ^ ".pos" in
    let* p =
      if Sys.file_exists side then
        Result.map_error Netlist.Io.error_message
          (Netlist.Io.load_placement side
             ~num_cells:(Netlist.Circuit.num_cells c))
      else Ok (Netlist.Placement.create c)
    in
    Ok (c, p)

let describe = function
  | Profile { name; scale; seed } -> Printf.sprintf "%s@%g#%d" name scale seed
  | File file -> Filename.basename file

let to_json = function
  | Profile { name; scale; seed } ->
    Obs.Json.Obj
      [
        ("profile", Obs.Json.Str name);
        ("scale", Obs.Json.Num scale);
        ("seed", Obs.Json.Num (float_of_int seed));
      ]
  | File file -> Obs.Json.Obj [ ("circuit", Obs.Json.Str file) ]

let of_json v =
  match (Obs.Json.member "profile" v, Obs.Json.member "circuit" v) with
  | Some (Obs.Json.Str name), None ->
    let scale =
      match Obs.Json.member "scale" v with
      | Some (Obs.Json.Num s) -> s
      | _ -> 1.0
    in
    let seed =
      Option.value ~default:42
        (Option.bind (Obs.Json.member "seed" v) Obs.Json.to_int)
    in
    if scale <= 0. || scale > 1. then Error "source: scale must be in (0, 1]"
    else Ok (Profile { name; scale; seed })
  | None, Some (Obs.Json.Str file) -> Ok (File file)
  | Some _, Some _ -> Error "source: both \"profile\" and \"circuit\" given"
  | _ -> Error "source: need a \"profile\" or \"circuit\" field"
