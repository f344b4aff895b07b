type config = {
  leaf_limit : int;
  region_anchor : float;
  fm_passes : int;
  balance : float;
  seed : int;
}

let default_config =
  { leaf_limit = 36; region_anchor = 0.8; fm_passes = 4; balance = 0.55; seed = 11 }

type region = { rect : Geometry.Rect.t; members : int array }

(* Restrict the circuit's hypergraph to one region's cells. *)
let local_hypergraph (c : Netlist.Circuit.t) members =
  let local_of = Hashtbl.create (Array.length members) in
  Array.iteri (fun li id -> Hashtbl.replace local_of id li) members;
  let seen = Hashtbl.create 64 in
  let nets = ref [] in
  Array.iter
    (fun id ->
      Array.iter
        (fun net_id ->
          if not (Hashtbl.mem seen net_id) then begin
            Hashtbl.add seen net_id ();
            let locals =
              Netlist.Circuit.net_cells c net_id
              |> List.filter_map (fun cid -> Hashtbl.find_opt local_of cid)
            in
            match locals with
            | _ :: _ :: _ -> nets := Array.of_list locals :: !nets
            | [] | [ _ ] -> ()
          end)
        (Netlist.Circuit.nets_of_cell c id))
    members;
  let areas =
    Array.map (fun id -> Netlist.Cell.area c.Netlist.Circuit.cells.(id)) members
  in
  {
    Fm.num_vertices = Array.length members;
    Fm.areas;
    Fm.nets = Array.of_list !nets;
  }

let split_region cfg (c : Netlist.Circuit.t) (p : Netlist.Placement.t) region =
  let vertical = Geometry.Rect.width region.rect >= Geometry.Rect.height region.rect in
  let coord id =
    if vertical then p.Netlist.Placement.x.(id) else p.Netlist.Placement.y.(id)
  in
  let members = Array.copy region.members in
  Array.sort (fun a b -> Float.compare (coord a) (coord b)) members;
  (* Area-weighted median. *)
  let total =
    Array.fold_left
      (fun acc id -> acc +. Netlist.Cell.area c.Netlist.Circuit.cells.(id))
      0. members
  in
  let sides = Array.make (Array.length members) false in
  let acc = ref 0. in
  Array.iteri
    (fun i id ->
      acc := !acc +. Netlist.Cell.area c.Netlist.Circuit.cells.(id);
      if !acc > total /. 2. then sides.(i) <- true)
    members;
  if cfg.fm_passes > 0 then begin
    let h = local_hypergraph c members in
    ignore
      (Fm.partition ~max_passes:cfg.fm_passes ~balance:cfg.balance h ~sides)
  end;
  let area_of side =
    let a = ref 0. in
    Array.iteri
      (fun i id ->
        if sides.(i) = side then
          a := !a +. Netlist.Cell.area c.Netlist.Circuit.cells.(id))
      members;
    !a
  in
  let a0 = area_of false in
  let frac = if total > 0. then a0 /. total else 0.5 in
  let r = region.rect in
  let r0, r1 =
    if vertical then begin
      let xm = r.Geometry.Rect.x_lo +. (frac *. Geometry.Rect.width r) in
      ( Geometry.Rect.make ~x_lo:r.Geometry.Rect.x_lo ~y_lo:r.Geometry.Rect.y_lo
          ~x_hi:xm ~y_hi:r.Geometry.Rect.y_hi,
        Geometry.Rect.make ~x_lo:xm ~y_lo:r.Geometry.Rect.y_lo
          ~x_hi:r.Geometry.Rect.x_hi ~y_hi:r.Geometry.Rect.y_hi )
    end
    else begin
      let ym = r.Geometry.Rect.y_lo +. (frac *. Geometry.Rect.height r) in
      ( Geometry.Rect.make ~x_lo:r.Geometry.Rect.x_lo ~y_lo:r.Geometry.Rect.y_lo
          ~x_hi:r.Geometry.Rect.x_hi ~y_hi:ym,
        Geometry.Rect.make ~x_lo:r.Geometry.Rect.x_lo ~y_lo:ym
          ~x_hi:r.Geometry.Rect.x_hi ~y_hi:r.Geometry.Rect.y_hi )
    end
  in
  let part side =
    Array.to_list members
    |> List.filteri (fun i _ -> sides.(i) = side)
    |> Array.of_list
  in
  [ { rect = r0; members = part false }; { rect = r1; members = part true } ]

let place ?(config = default_config) (c : Netlist.Circuit.t) placement =
  let p = Netlist.Placement.copy placement in
  let movable =
    Array.to_list c.Netlist.Circuit.cells
    |> List.filter Netlist.Cell.movable
    |> List.map (fun (cl : Netlist.Cell.t) -> cl.Netlist.Cell.id)
    |> Array.of_list
  in
  let targets = Netlist.Placement.copy p in
  let net_weights = Array.make (Netlist.Circuit.num_nets c) 1. in
  let regions =
    ref [ { rect = c.Netlist.Circuit.region; members = movable } ]
  in
  let set_targets () =
    List.iter
      (fun reg ->
        let cx, cy = Geometry.Rect.center reg.rect in
        Array.iter
          (fun id ->
            targets.Netlist.Placement.x.(id) <- cx;
            targets.Netlist.Placement.y.(id) <- cy)
          reg.members)
      !regions
  in
  let solve () =
    let system =
      Qp.System.build c ~placement:p ~net_weights
        ~edge_scale:Qp.Weights.Quadratic ~hold:config.region_anchor
        ~hold_at:targets ()
    in
    let n = Qp.System.num_movable system in
    ignore
      (Qp.System.solve system ~placement:p ~ex:(Array.make n 0.)
         ~ey:(Array.make n 0.));
    Netlist.Placement.clamp_to_region c p
  in
  let levels = ref 0 in
  let progress = ref true in
  set_targets ();
  solve ();
  while !progress do
    let next =
      List.concat_map
        (fun reg ->
          if Array.length reg.members > config.leaf_limit then
            split_region config c p reg
          else [ reg ])
        !regions
    in
    if List.length next = List.length !regions then progress := false
    else begin
      regions := next;
      incr levels;
      set_targets ();
      solve ()
    end
  done;
  (p, !levels)
