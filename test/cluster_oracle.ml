(* The hash-table FirstChoice clustering that [Kraftwerk.Cluster.cluster]
   replaced, kept verbatim as the reference its flat-array rewrite must
   match bit for bit: one [Hashtbl] of neighbour weights per cell,
   enumerated by [Hashtbl.iter] (so a tie between equally heavy
   neighbours goes to the first one that order visits), and coarse nets
   deduplicated through [Circuit.net_cells] and [List.sort_uniq]. *)

type clustering = Kraftwerk.Cluster.clustering = {
  coarse : Netlist.Circuit.t;
  cluster_of : int array;
  members : int list array;
  coarse_fixed : (int * (float * float)) list;
}

(* Pairwise connectivity between movable standard cells: clique weight
   1/k summed over shared nets (big nets skipped — they carry little
   clustering signal and cost k²). *)
let build_affinity (c : Netlist.Circuit.t) ~clusterable =
  let adj : (int, float) Hashtbl.t array =
    Array.init (Netlist.Circuit.num_cells c) (fun _ -> Hashtbl.create 4)
  in
  for n = 0 to Netlist.Circuit.num_nets c - 1 do
    let k = Netlist.Circuit.degree c n in
    if k <= 16 then begin
      let cells =
        Netlist.Circuit.net_cells c n |> List.filter (fun id -> clusterable.(id))
      in
      let w = 1. /. float_of_int k in
      let rec pairs = function
        | [] -> ()
        | a :: rest ->
          List.iter
            (fun b ->
              let bump x y =
                let prev = try Hashtbl.find adj.(x) y with Not_found -> 0. in
                Hashtbl.replace adj.(x) y (prev +. w)
              in
              bump a b;
              bump b a)
            rest;
          pairs rest
      in
      pairs cells
    end
  done;
  adj

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
      let best = ref None and best_w = ref 0. in
      Hashtbl.iter
        (fun j w ->
          let gj = find j in
          if gj <> gi && w > !best_w && area.(gi) +. area.(gj) <= max_cluster_area
          then begin
            best_w := w;
            best := Some gj
          end)
        adj.(i);
      match !best with
      | Some gj ->
        group.(gi) <- gj;
        area.(gj) <- area.(gj) +. area.(gi)
      | None -> ())
    order;
  (* Compact cluster ids, build coarse cells. *)
  let coarse_id = Array.make n (-1) in
  let next = ref 0 in
  let members_rev = ref [] in
  for i = 0 to n - 1 do
    let root = find i in
    if coarse_id.(root) = -1 then begin
      coarse_id.(root) <- !next;
      members_rev := [] :: !members_rev;
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
  (* Coarse nets: flat nets with ≥ 2 distinct clusters. *)
  let coarse_nets = ref [] and coarse_net_count = ref 0 in
  for n = 0 to Netlist.Circuit.num_nets c - 1 do
    let clusters =
      Netlist.Circuit.net_cells c n |> List.map (fun id -> coarse_id.(id))
      |> List.sort_uniq compare
    in
    match clusters with
    | _ :: _ :: _ ->
      (* Preserve driver-first ordering: the driver cell's cluster
         leads. *)
      let driver_cluster =
        coarse_id.(c.Netlist.Circuit.pin_cell.(c.Netlist.Circuit.net_start.(n)))
      in
      let ordered =
        driver_cluster :: List.filter (fun x -> x <> driver_cluster) clusters
      in
      let pins =
        List.map (fun cid -> { Netlist.Net.cell = cid; dx = 0.; dy = 0. }) ordered
        |> Array.of_list
      in
      coarse_nets :=
        Netlist.Net.make ~id:!coarse_net_count
          ~name:c.Netlist.Circuit.net_name.(n) pins
        :: !coarse_nets;
      incr coarse_net_count
    | [] | [ _ ] -> ()
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
