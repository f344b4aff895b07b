type error = { file : string; reason : string }

let error_message e = Printf.sprintf "%s: %s" e.file e.reason

(* Internal control flow; converted to [Error] in [load_aux].  Parse
   helpers raise bare [Failure]s (including the numeric conversions'),
   constructors [Invalid_argument]s, and [guard] attributes both to the
   benchmark file being read. *)
exception Bs of error

let fail fmt = Printf.ksprintf failwith fmt

let guard file f =
  try f () with
  | Failure reason | Invalid_argument reason | Sys_error reason ->
    raise (Bs { file; reason })

(* A file's non-blank lines, read in one pass ({!Scan}): whether each is
   a comment ([#] or a [UCLA] header) and its fields, the runs of
   characters other than space and tab. *)
let read_lines file =
  let lines = ref [] in
  let line s _ a b =
    if a < b then begin
      let comment =
        s.[a] = '#' || (b - a >= 4 && Scan.equals s a (a + 4) "UCLA")
      in
      let fields = ref [] and k = ref b in
      while !k > a do
        let e = !k in
        while !k > a && s.[!k - 1] <> ' ' && s.[!k - 1] <> '\t' do
          decr k
        done;
        if !k < e then fields := String.sub s !k (e - !k) :: !fields;
        while !k > a && (s.[!k - 1] = ' ' || s.[!k - 1] = '\t') do
          decr k
        done
      done;
      lines := (comment, !fields) :: !lines
    end
  in
  let ic = open_in file in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> Scan.iter_lines ic line);
  List.rev !lines

(* The fields of every line that is not a comment. *)
let records file =
  List.filter_map
    (fun (comment, fields) -> if comment then None else Some fields)
    (read_lines file)

(* --- .nodes --- *)

type node = { nname : string; w : float; h : float; terminal : bool }

(* A size is never negative; a zero one is a fixed I/O pin written as
   a point, so only a terminal may have it. *)
let node nname w h terminal =
  let size what v =
    let v = Io.finite v in
    if v < 0. then fail "node %s: negative %s %g" nname what v;
    if v = 0. && not terminal then fail "node %s: zero %s on a movable node" nname what;
    v
  in
  let w = size "width" w in
  { nname; w; h = size "height" h; terminal }

let parse_nodes file =
  let nodes = ref [] in
  List.iter
    (function
      | [ "NumNodes"; ":"; _ ] | [ "NumTerminals"; ":"; _ ] -> ()
      | [ name; w; h ] -> nodes := node name w h false :: !nodes
      | [ name; w; h; "terminal" ] -> nodes := node name w h true :: !nodes
      | [] -> ()
      | tok :: _ -> fail "bad .nodes line near %S" tok)
    (records file);
  List.rev !nodes

(* --- .scl --- *)

type row = { y : float; height : float; x_origin : float; x_end : float }

let parse_scl file =
  let rows = ref [] in
  let cur_y = ref None and cur_h = ref None in
  let cur_origin = ref None and cur_sites = ref None and cur_spacing = ref 1. in
  let flush () =
    match (!cur_y, !cur_h, !cur_origin, !cur_sites) with
    | Some y, Some height, Some x_origin, Some sites ->
      rows :=
        { y; height; x_origin; x_end = x_origin +. (sites *. !cur_spacing) }
        :: !rows;
      cur_y := None;
      cur_h := None;
      cur_origin := None;
      cur_sites := None;
      cur_spacing := 1.
    | _ -> ()
  in
  List.iter
    (function
      | "CoreRow" :: _ -> ()
      | [ "Coordinate"; ":"; v ] -> cur_y := Some (Io.finite v)
      | [ "Height"; ":"; v ] -> cur_h := Some (Io.finite v)
      | [ "Sitespacing"; ":"; v ] -> cur_spacing := Io.finite v
      | "SubrowOrigin" :: ":" :: origin :: rest ->
        cur_origin := Some (Io.finite origin);
        (match rest with
        | [ "NumSites"; ":"; n ] -> cur_sites := Some (Io.finite n)
        | _ -> ())
      | [ "NumSites"; ":"; n ] -> cur_sites := Some (Io.finite n)
      | [ "End" ] -> flush ()
      | _ -> ())
    (records file);
  List.rev !rows

(* --- .pl --- *)

let parse_pl file =
  let places = Hashtbl.create 1024 in
  List.iter
    (function
      | name :: x :: y :: _ when name <> "NumNodes" ->
        Hashtbl.replace places name (Io.finite x, Io.finite y)
      | _ -> ())
    (records file);
  places

(* --- .nets --- *)

type raw_net = { net_name : string; raw_pins : (string * bool * float * float) list }
(* (cell name, is_output/driver, dx, dy) *)

let parse_nets file =
  let nets = ref [] in
  let cur_name = ref "" and cur_pins = ref [] and cur_open = ref false in
  let flush () =
    if !cur_open then begin
      nets := { net_name = !cur_name; raw_pins = List.rev !cur_pins } :: !nets;
      cur_open := false;
      cur_pins := []
    end
  in
  List.iter
    (function
      | [ "NumNets"; ":"; _ ] | [ "NumPins"; ":"; _ ] -> ()
      | "NetDegree" :: ":" :: _ :: rest ->
        flush ();
        cur_open := true;
        cur_name :=
          (match rest with name :: _ -> name | [] -> Printf.sprintf "net%d" (List.length !nets))
      | name :: dir :: rest when !cur_open ->
        let dx, dy =
          match rest with
          | [ ":"; dx; dy ] -> (Io.finite dx, Io.finite dy)
          | [] -> (0., 0.)
          | _ -> fail "bad pin line for net %s" !cur_name
        in
        cur_pins := (name, dir = "O", dx, dy) :: !cur_pins
      | [] -> ()
      | tok :: _ -> fail "unexpected token %S" tok)
    (records file);
  flush ();
  List.rev !nets

(* --- .aux --- *)

let parse_aux file =
  let dir = Filename.dirname file in
  let fields =
    match read_lines file with [] -> fail "empty aux" | (_, f) :: _ -> f
  in
  let files = List.filter (fun t -> String.contains t '.') fields in
  let find ext =
    match List.find_opt (fun f -> Filename.check_suffix f ext) files with
    | Some f -> Filename.concat dir f
    | None -> fail "no %s file listed" ext
  in
  (find ".nodes", find ".nets", find ".pl", find ".scl")

let load_aux_exn aux_file =
  let nodes_f, nets_f, pl_f, scl_f =
    guard aux_file (fun () -> parse_aux aux_file)
  in
  let nodes = guard nodes_f (fun () -> parse_nodes nodes_f) in
  let rows = guard scl_f (fun () -> parse_scl scl_f) in
  if rows = [] then raise (Bs { file = scl_f; reason = "no core rows" });
  let row_height =
    match rows with r :: _ -> r.height | [] -> assert false
  in
  let x_lo = List.fold_left (fun a r -> Float.min a r.x_origin) Float.infinity rows in
  let x_hi = List.fold_left (fun a r -> Float.max a r.x_end) Float.neg_infinity rows in
  let y_lo = List.fold_left (fun a r -> Float.min a r.y) Float.infinity rows in
  let y_hi =
    List.fold_left (fun a r -> Float.max a (r.y +. r.height)) Float.neg_infinity rows
  in
  let region = guard scl_f (fun () -> Geometry.Rect.make ~x_lo ~y_lo ~x_hi ~y_hi) in
  let places = guard pl_f (fun () -> parse_pl pl_f) in
  let id_of = Hashtbl.create (List.length nodes) in
  let core_row_area = row_height *. row_height in
  let cells =
    List.mapi
      (fun i n ->
        Hashtbl.replace id_of n.nname i;
        let kind =
          if not n.terminal then
            if n.h > 1.5 *. row_height then Cell.Block else Cell.Standard
          else if n.w *. n.h <= 4. *. core_row_area then Cell.Pad
          else Cell.Block
        in
        (* A zero-size terminal is a point pin; cells need a positive size. *)
        Cell.make ~id:i ~name:n.nname ~width:(Float.max n.w 1e-3)
          ~height:(Float.max n.h 1e-3) ~kind ~fixed:n.terminal ())
      nodes
    |> Array.of_list
  in
  let nets =
    guard nets_f (fun () ->
        let out = ref [] and count = ref 0 in
        List.iter
          (fun rn ->
            (* Driver first; dedupe exactly repeated pins. *)
            let resolve (name, drv, dx, dy) =
              match Hashtbl.find_opt id_of name with
              | Some id -> (id, drv, dx, dy)
              | None ->
                fail "net %s references unknown node %s" rn.net_name name
            in
            let pins = List.map resolve rn.raw_pins in
            let drivers, sinks = List.partition (fun (_, d, _, _) -> d) pins in
            let ordered = drivers @ sinks in
            let seen = Hashtbl.create 8 in
            let uniq =
              List.filter
                (fun (id, _, dx, dy) ->
                  if Hashtbl.mem seen (id, dx, dy) then false
                  else begin
                    Hashtbl.add seen (id, dx, dy) ();
                    true
                  end)
                ordered
            in
            if List.length uniq >= 2 then begin
              let pins =
                List.map (fun (id, _, dx, dy) -> { Net.cell = id; dx; dy }) uniq
                |> Array.of_list
              in
              out := Net.make ~id:!count ~name:rn.net_name pins :: !out;
              incr count
            end)
          (parse_nets nets_f);
        Array.of_list (List.rev !out))
  in
  (* All that [Circuit.make] can still refuse here is the rows' height or area. *)
  let circuit =
    guard scl_f (fun () ->
        Circuit.make
          ~name:(Filename.remove_extension (Filename.basename aux_file))
          ~cells ~nets ~region ~row_height)
  in
  let cx, cy = Geometry.Rect.center region in
  let placement =
    {
      Placement.x = Array.make (Array.length cells) cx;
      y = Array.make (Array.length cells) cy;
    }
  in
  Array.iteri
    (fun i (cl : Cell.t) ->
      match Hashtbl.find_opt places cl.Cell.name with
      | Some (llx, lly) ->
        placement.Placement.x.(i) <- llx +. (cl.Cell.width /. 2.);
        placement.Placement.y.(i) <- lly +. (cl.Cell.height /. 2.)
      | None -> ())
    cells;
  (circuit, placement)

let load_aux aux_file =
  match load_aux_exn aux_file with
  | v -> Ok v
  | exception Bs e -> Error e
  | exception (Failure reason | Invalid_argument reason | Sys_error reason) ->
    Error { file = aux_file; reason }

let save basename (c : Circuit.t) (p : Placement.t) =
  let write file f =
    let oc = open_out file in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)
  in
  let base = Filename.basename basename in
  write (basename ^ ".aux") (fun oc ->
      Printf.fprintf oc "RowBasedPlacement : %s.nodes %s.nets %s.pl %s.scl\n" base
        base base base);
  let terminals =
    Array.fold_left
      (fun acc (cl : Cell.t) -> if cl.Cell.fixed then acc + 1 else acc)
      0 c.Circuit.cells
  in
  write (basename ^ ".nodes") (fun oc ->
      Printf.fprintf oc "UCLA nodes 1.0\n\nNumNodes : %d\nNumTerminals : %d\n"
        (Circuit.num_cells c) terminals;
      Array.iter
        (fun (cl : Cell.t) ->
          Printf.fprintf oc "  %s %g %g%s\n" cl.Cell.name
            cl.Cell.width cl.Cell.height
            (if cl.Cell.fixed then " terminal" else ""))
        c.Circuit.cells);
  write (basename ^ ".nets") (fun oc ->
      Printf.fprintf oc "UCLA nets 1.0\n\nNumNets : %d\nNumPins : %d\n"
        (Circuit.num_nets c) (Circuit.num_pins c);
      Array.iteri
        (fun n name ->
          let s = c.Circuit.net_start.(n) in
          Printf.fprintf oc "NetDegree : %d  %s\n" (Circuit.degree c n) name;
          for k = s to c.Circuit.net_start.(n + 1) - 1 do
            Printf.fprintf oc "  %s %s : %g %g\n"
              c.Circuit.cells.(c.Circuit.pin_cell.(k)).Cell.name
              (if k = s then "O" else "I")
              c.Circuit.pin_dx.(k) c.Circuit.pin_dy.(k)
          done)
        c.Circuit.net_name);
  write (basename ^ ".pl") (fun oc ->
      Printf.fprintf oc "UCLA pl 1.0\n\n";
      Array.iteri
        (fun i (cl : Cell.t) ->
          Printf.fprintf oc "%s %g %g : N%s\n" cl.Cell.name
            (p.Placement.x.(i) -. (cl.Cell.width /. 2.))
            (p.Placement.y.(i) -. (cl.Cell.height /. 2.))
            (if cl.Cell.fixed then " /FIXED" else ""))
        c.Circuit.cells);
  write (basename ^ ".scl") (fun oc ->
      let region = c.Circuit.region in
      let nrows = Circuit.num_rows c in
      Printf.fprintf oc "UCLA scl 1.0\n\nNumRows : %d\n" nrows;
      for r = 0 to nrows - 1 do
        Printf.fprintf oc
          "CoreRow Horizontal\n  Coordinate : %g\n  Height : %g\n  Sitewidth : 1\n  Sitespacing : 1\n  Siteorient : 1\n  Sitesymmetry : 1\n  SubrowOrigin : %g  NumSites : %d\nEnd\n"
          (region.Geometry.Rect.y_lo +. (float_of_int r *. c.Circuit.row_height))
          c.Circuit.row_height region.Geometry.Rect.x_lo
          (int_of_float (Geometry.Rect.width region))
      done)
