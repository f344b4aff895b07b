type t = {
  max_delay : float;
  arrival : float array;
  net_slack : float array;
  analysed_nets : int;
}

let net_delay (p : Params.t) ~length ~sinks =
  let r = p.Params.resistance_per_length *. length in
  let c = p.Params.capacitance_per_length *. length in
  let loads = float_of_int sinks *. p.Params.pin_load in
  (* Driver charges the whole net; the distributed wire contributes the
     usual half-capacitance Elmore term. *)
  (p.Params.driver_resistance *. (c +. loads)) +. (r *. ((c /. 2.) +. loads))

type bundle = { net_id : int; drv : int; snks : int array; delay : float }

type graph = {
  bundles : bundle array;
  fanout : int list array;
  order : int array;
  arrival : float array;
  pred : int array;
  max_delay : float;
}

(* One bundle per analysed net: its driver, the sink pins on other cells
   in pin order, and the net delay; newest net first. *)
let make_bundles (p : Params.t) (c : Netlist.Circuit.t) ~net_length =
  let start = c.Netlist.Circuit.net_start and cell = c.Netlist.Circuit.pin_cell in
  let acc = ref [] in
  for n = 0 to Netlist.Circuit.num_nets c - 1 do
    let deg = Netlist.Circuit.degree c n in
    if deg >= 2 && deg <= p.Params.max_net_degree then begin
      let drv = cell.(start.(n)) in
      let snks = ref [] in
      for k = start.(n + 1) - 1 downto start.(n) + 1 do
        if cell.(k) <> drv then snks := cell.(k) :: !snks
      done;
      if !snks <> [] then begin
        let snks = Array.of_list !snks in
        let delay =
          net_delay p ~length:(net_length n) ~sinks:(Array.length snks)
        in
        acc := { net_id = n; drv; snks; delay } :: !acc
      end
    end
  done;
  Array.of_list !acc

let graph_with (p : Params.t) (c : Netlist.Circuit.t) ~net_length =
  let n = Netlist.Circuit.num_cells c in
  let cells = c.Netlist.Circuit.cells in
  let is_endpoint i = cells.(i).Netlist.Cell.sequential in
  let bundles = make_bundles p c ~net_length in
  (* Fanout index: bundles driven by each cell. *)
  let fanout = Array.make n [] in
  let indeg = Array.make n 0 in
  Array.iteri
    (fun bi b ->
      fanout.(b.drv) <- bi :: fanout.(b.drv);
      Array.iter
        (fun s -> if not (is_endpoint s) then indeg.(s) <- indeg.(s) + 1)
        b.snks)
    bundles;
  (* Forward pass: Kahn topological order; arrival.(i) is the arrival at
     cell i's output.  Endpoints (sequential cells, pads) restart paths. *)
  let arrival = Array.make n 0. in
  let best_in = Array.make n 0. in
  let pred = Array.make n (-1) in
  let order = Array.make n 0 and order_len = ref 0 in
  let queue = Queue.create () in
  for i = 0 to n - 1 do
    if is_endpoint i || indeg.(i) = 0 then Queue.add i queue
  done;
  let endpoint_arrival = ref 0. in
  while not (Queue.is_empty queue) do
    let i = Queue.pop queue in
    order.(!order_len) <- i;
    incr order_len;
    arrival.(i) <-
      (if is_endpoint i then cells.(i).Netlist.Cell.delay
       else best_in.(i) +. cells.(i).Netlist.Cell.delay);
    if fanout.(i) = [] then
      endpoint_arrival := Float.max !endpoint_arrival arrival.(i);
    List.iter
      (fun bi ->
        let b = bundles.(bi) in
        let v = arrival.(i) +. b.delay in
        Array.iter
          (fun s ->
            if is_endpoint s then
              endpoint_arrival := Float.max !endpoint_arrival v
            else begin
              if v > best_in.(s) then begin
                best_in.(s) <- v;
                pred.(s) <- bi
              end;
              indeg.(s) <- indeg.(s) - 1;
              if indeg.(s) = 0 then Queue.add s queue
            end)
          b.snks)
      fanout.(i)
  done;
  if !order_len <> n then failwith "Sta: combinational cycle detected";
  { bundles; fanout; order; arrival; pred; max_delay = !endpoint_arrival }

let analyse_with (p : Params.t) (c : Netlist.Circuit.t) ~net_length =
  let n = Netlist.Circuit.num_cells c in
  let cells = c.Netlist.Circuit.cells in
  let is_endpoint i = cells.(i).Netlist.Cell.sequential in
  let { bundles; fanout; order; arrival; max_delay; _ } =
    graph_with p c ~net_length
  in
  (* Backward pass: required time at each cell output, then edge slacks. *)
  let req_out = Array.make n max_delay in
  let net_slack =
    Array.make (Netlist.Circuit.num_nets c) Float.infinity
  in
  for k = n - 1 downto 0 do
    let i = order.(k) in
    List.iter
      (fun bi ->
        let b = bundles.(bi) in
        Array.iter
          (fun s ->
            let req_in =
              if is_endpoint s then max_delay
              else req_out.(s) -. cells.(s).Netlist.Cell.delay
            in
            let cand = req_in -. b.delay in
            if cand < req_out.(i) then req_out.(i) <- cand;
            let slack = req_in -. (arrival.(i) +. b.delay) in
            if slack < net_slack.(b.net_id) then net_slack.(b.net_id) <- slack)
          b.snks)
      fanout.(i)
  done;
  { max_delay; arrival; net_slack; analysed_nets = Array.length bundles }

let placed_length c (placement : Netlist.Placement.t) n =
  Metrics.Wirelength.hpwl_net c ~x:placement.Netlist.Placement.x
    ~y:placement.Netlist.Placement.y n

let graph p c placement = graph_with p c ~net_length:(placed_length c placement)

let analyse p c placement =
  analyse_with p c ~net_length:(placed_length c placement)

let lower_bound p c =
  (analyse_with p c ~net_length:(fun _ -> 0.)).max_delay
