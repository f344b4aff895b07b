type element = { cell : int; via_net : int option; arrival : float }

type path = { delay : float; elements : element list }

(* Sta's graph and forward pass, plus for each endpoint the worst
   incoming edge, noted in the forward pass's order. *)
let critical ?(k = 5) (p : Params.t) (c : Netlist.Circuit.t)
    (placement : Netlist.Placement.t) =
  let cells = c.Netlist.Circuit.cells in
  let is_endpoint i = cells.(i).Netlist.Cell.sequential in
  let g = Sta.graph p c placement in
  let arrival = g.Sta.arrival in
  (* Worst incoming edge per endpoint: endpoint cell → (arrival at input,
     driver, net). *)
  let endpoint_worst : (int, float * int * int option) Hashtbl.t =
    Hashtbl.create 64
  in
  let note_endpoint cell v drv net =
    match Hashtbl.find_opt endpoint_worst cell with
    | Some (best, _, _) when best >= v -> ()
    | _ -> Hashtbl.replace endpoint_worst cell (v, drv, net)
  in
  Array.iter
    (fun i ->
      if g.Sta.fanout.(i) = [] then note_endpoint i arrival.(i) i None;
      List.iter
        (fun bi ->
          let b = g.Sta.bundles.(bi) in
          let v = arrival.(i) +. b.Sta.delay in
          Array.iter
            (fun s -> if is_endpoint s then note_endpoint s v i (Some b.Sta.net_id))
            b.Sta.snks)
        g.Sta.fanout.(i))
    g.Sta.order;
  (* Pick the k worst endpoints and trace each back. *)
  let worst =
    Hashtbl.fold (fun cell (v, drv, net) acc -> (v, cell, drv, net) :: acc)
      endpoint_worst []
    |> List.sort (fun (a, _, _, _) (b, _, _, _) -> Float.compare b a)
  in
  let rec take n = function
    | [] -> []
    | x :: rest -> if n = 0 then [] else x :: take (n - 1) rest
  in
  let trace (delay, endpoint, drv, net) =
    (* Walk from the endpoint's driving edge back to a path start. *)
    let rec back cell via acc =
      let acc = { cell; via_net = via; arrival = arrival.(cell) } :: acc in
      if is_endpoint cell then acc
      else
        match g.Sta.pred.(cell) with
        | -1 -> acc
        | bi ->
          let b = g.Sta.bundles.(bi) in
          back b.Sta.drv (Some b.Sta.net_id) acc
    in
    let tail = { cell = endpoint; via_net = net; arrival = delay } in
    let elements =
      if endpoint = drv && net = None then [ tail ]
      else back drv net [ tail ]
    in
    (* via_net markers currently sit on the *source* element of each hop;
       shift them one step forward so each element names the net it
       arrived through (the first element arrives through nothing). *)
    let rec shift carried = function
      | [] -> []
      | (e : element) :: rest -> { e with via_net = carried } :: shift e.via_net rest
    in
    { delay; elements = shift None elements }
  in
  List.map trace (take k worst)

let pp_path (c : Netlist.Circuit.t) ppf path =
  Format.fprintf ppf "path delay %.3f ns@." (path.delay *. 1e9);
  List.iter
    (fun e ->
      let name = c.Netlist.Circuit.cells.(e.cell).Netlist.Cell.name in
      match e.via_net with
      | None -> Format.fprintf ppf "  %-12s            %8.3f ns@." name (e.arrival *. 1e9)
      | Some net ->
        Format.fprintf ppf "  %-12s via %-8s %8.3f ns@." name
          c.Netlist.Circuit.net_name.(net)
          (e.arrival *. 1e9))
    path.elements
