(* Tests for clustering and the multilevel placement flow. *)

let build ?(name = "primary1") ?(scale = 0.5) ?(seed = 81) () =
  let prof = Circuitgen.Profiles.find name in
  let circuit, pads =
    Circuitgen.Gen.generate (Circuitgen.Profiles.params ~scale prof ~seed)
  in
  (circuit, pads, Circuitgen.Gen.initial_placement circuit pads)

let test_cluster_partitions_cells () =
  let circuit, pads, _ = build () in
  let t = Kraftwerk.Cluster.cluster circuit ~fixed_positions:pads in
  let n = Netlist.Circuit.num_cells circuit in
  (* Every flat cell maps to a coarse cell, and members invert the map. *)
  let covered = Array.make n false in
  Array.iteri
    (fun cid group ->
      List.iter
        (fun id ->
          Alcotest.(check int) "cluster_of inverts members" cid
            t.Kraftwerk.Cluster.cluster_of.(id);
          Alcotest.(check bool) "not seen before" false covered.(id);
          covered.(id) <- true)
        group)
    t.Kraftwerk.Cluster.members;
  Array.iter (fun c -> Alcotest.(check bool) "covered" true c) covered

let test_cluster_reduces_size () =
  let circuit, pads, _ = build () in
  let t = Kraftwerk.Cluster.cluster circuit ~fixed_positions:pads in
  let coarse_n = Netlist.Circuit.num_cells t.Kraftwerk.Cluster.coarse in
  Alcotest.(check bool) "meaningfully smaller" true
    (coarse_n < (2 * Netlist.Circuit.num_cells circuit) / 3)

let test_cluster_preserves_area () =
  let circuit, pads, _ = build () in
  let t = Kraftwerk.Cluster.cluster circuit ~fixed_positions:pads in
  Alcotest.(check (float 1.)) "movable area preserved"
    (Netlist.Circuit.movable_area circuit)
    (Netlist.Circuit.movable_area t.Kraftwerk.Cluster.coarse)

let test_cluster_area_cap_respected () =
  let circuit, pads, _ = build () in
  let cap = 4. *. Netlist.Circuit.average_cell_area circuit in
  let t =
    Kraftwerk.Cluster.cluster ~max_cluster_area:cap circuit ~fixed_positions:pads
  in
  Array.iter
    (fun (cl : Netlist.Cell.t) ->
      if Netlist.Cell.movable cl then
        (* Merges check the cap before joining, so a cluster can exceed
           it by at most one member's area. *)
        Alcotest.(check bool) "bounded" true
          (Netlist.Cell.area cl <= 2. *. cap))
    t.Kraftwerk.Cluster.coarse.Netlist.Circuit.cells

let test_cluster_fixed_cells_singleton () =
  let circuit, pads, _ = build () in
  let t = Kraftwerk.Cluster.cluster circuit ~fixed_positions:pads in
  Array.iter
    (fun (cl : Netlist.Cell.t) ->
      if cl.Netlist.Cell.fixed then begin
        let cid = t.Kraftwerk.Cluster.cluster_of.(cl.Netlist.Cell.id) in
        Alcotest.(check int) "singleton" 1
          (List.length t.Kraftwerk.Cluster.members.(cid));
        Alcotest.(check bool) "coarse cell fixed" true
          t.Kraftwerk.Cluster.coarse.Netlist.Circuit.cells.(cid).Netlist.Cell.fixed
      end)
    circuit.Netlist.Circuit.cells

let test_expand_places_members_near_cluster () =
  let circuit, pads, p0 = build () in
  let t = Kraftwerk.Cluster.cluster circuit ~fixed_positions:pads in
  let coarse_p =
    Netlist.Placement.centered t.Kraftwerk.Cluster.coarse
      ~fixed_positions:t.Kraftwerk.Cluster.coarse_fixed
  in
  let flat = Netlist.Placement.copy p0 in
  Kraftwerk.Cluster.expand t ~coarse_placement:coarse_p ~flat_placement:flat;
  Array.iteri
    (fun cid group ->
      let cx = coarse_p.Netlist.Placement.x.(cid) in
      let cy = coarse_p.Netlist.Placement.y.(cid) in
      List.iter
        (fun id ->
          let d =
            sqrt
              (((flat.Netlist.Placement.x.(id) -. cx) ** 2.)
              +. ((flat.Netlist.Placement.y.(id) -. cy) ** 2.))
          in
          Alcotest.(check bool) "near cluster centre" true (d < 10.))
        group)
    t.Kraftwerk.Cluster.members

let test_multilevel_end_to_end () =
  let circuit, pads, p0 = build () in
  let flat_state, _ = Kraftwerk.Placer.run Kraftwerk.Config.standard circuit p0 in
  let flat_wl =
    Metrics.Wirelength.hpwl circuit flat_state.Kraftwerk.Placer.placement
  in
  let ml =
    Kraftwerk.Cluster.place_multilevel Kraftwerk.Config.standard circuit
      ~fixed_positions:pads p0
  in
  let ml_wl = Metrics.Wirelength.hpwl circuit ml in
  Alcotest.(check (float 1e-6)) "in region" 0.
    (Metrics.Overlap.out_of_region_area circuit ml);
  (* Multilevel lands in the same quality regime as flat. *)
  Alcotest.(check bool) "comparable quality" true (ml_wl < 1.5 *. flat_wl)

let test_cluster_deterministic () =
  let circuit, pads, _ = build () in
  let t1 = Kraftwerk.Cluster.cluster ~seed:5 circuit ~fixed_positions:pads in
  let t2 = Kraftwerk.Cluster.cluster ~seed:5 circuit ~fixed_positions:pads in
  Alcotest.(check bool) "same clustering" true
    (t1.Kraftwerk.Cluster.cluster_of = t2.Kraftwerk.Cluster.cluster_of)

(* ------------------------------------------------------------------ *)
(* Recursive V-cycle                                                    *)

let bits = Int64.bits_of_float

let same_placement tag (a : Netlist.Placement.t) (b : Netlist.Placement.t) =
  Array.iteri
    (fun i x ->
      if bits x <> bits b.Netlist.Placement.x.(i) then
        Alcotest.failf "%s: x[%d] differs" tag i)
    a.Netlist.Placement.x;
  Array.iteri
    (fun i y ->
      if bits y <> bits b.Netlist.Placement.y.(i) then
        Alcotest.failf "%s: y[%d] differs" tag i)
    a.Netlist.Placement.y

(* A config whose threshold forces several coarsening levels on the
   test circuit (primary1 at half scale is well under the production
   default of 3000). *)
let deep_config =
  { Kraftwerk.Config.standard with Kraftwerk.Config.ml_threshold = 40 }

let test_hierarchy_deterministic () =
  let circuit, pads, _ = build () in
  let h1 = Kraftwerk.Cluster.build_hierarchy deep_config circuit ~fixed_positions:pads in
  let h2 = Kraftwerk.Cluster.build_hierarchy deep_config circuit ~fixed_positions:pads in
  Alcotest.(check int) "same depth" (Kraftwerk.Cluster.depth h1)
    (Kraftwerk.Cluster.depth h2);
  Alcotest.(check bool) "at least two levels" true
    (Kraftwerk.Cluster.depth h1 >= 2);
  Array.iteri
    (fun l (c1 : Kraftwerk.Cluster.clustering) ->
      Alcotest.(check bool)
        (Printf.sprintf "level %d identical" l)
        true
        (c1.Kraftwerk.Cluster.cluster_of
        = h2.Kraftwerk.Cluster.clusterings.(l).Kraftwerk.Cluster.cluster_of))
    h1.Kraftwerk.Cluster.clusterings

let test_hierarchy_monotone_and_capped () =
  let circuit, pads, _ = build () in
  let h = Kraftwerk.Cluster.build_hierarchy deep_config circuit ~fixed_positions:pads in
  let d = Kraftwerk.Cluster.depth h in
  Alcotest.(check bool) "depth within cap" true
    (d <= deep_config.Kraftwerk.Config.ml_max_levels);
  for l = 0 to d - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "level %d shrinks" l)
      true
      (Netlist.Circuit.num_cells h.Kraftwerk.Cluster.circuits.(l + 1)
      < Netlist.Circuit.num_cells h.Kraftwerk.Cluster.circuits.(l))
  done;
  (* Coarsening only stops above the threshold when the level cap or a
     no-progress pass stopped it first. *)
  let coarsest = Netlist.Circuit.num_cells h.Kraftwerk.Cluster.circuits.(d) in
  Alcotest.(check bool) "coarsest at threshold or capped" true
    (coarsest <= deep_config.Kraftwerk.Config.ml_threshold
    || d = deep_config.Kraftwerk.Config.ml_max_levels)

let test_hierarchy_invariants_all_levels () =
  let circuit, pads, _ = build () in
  let h = Kraftwerk.Cluster.build_hierarchy deep_config circuit ~fixed_positions:pads in
  let flat_area = Netlist.Circuit.movable_area circuit in
  Array.iteri
    (fun l (t : Kraftwerk.Cluster.clustering) ->
      let tag = Printf.sprintf "level %d" l in
      (* Area is conserved through every coarsening level... *)
      Alcotest.(check bool) (tag ^ ": area conserved") true
        (Float.abs
           (Netlist.Circuit.movable_area t.Kraftwerk.Cluster.coarse -. flat_area)
        < 1e-6 *. flat_area);
      (* ...and fixed cells are never clustered, at any level. *)
      Array.iter
        (fun (cl : Netlist.Cell.t) ->
          if cl.Netlist.Cell.fixed then begin
            let cid = t.Kraftwerk.Cluster.cluster_of.(cl.Netlist.Cell.id) in
            Alcotest.(check int) (tag ^ ": fixed stays singleton") 1
              (List.length t.Kraftwerk.Cluster.members.(cid));
            Alcotest.(check bool) (tag ^ ": coarse cell fixed") true
              t.Kraftwerk.Cluster.coarse.Netlist.Circuit.cells.(cid)
                .Netlist.Cell.fixed
          end)
        h.Kraftwerk.Cluster.circuits.(l).Netlist.Circuit.cells)
    h.Kraftwerk.Cluster.clusterings

(* Stepping a run to completion is the same computation as the one-shot
   driver. *)
let test_vcycle_steps_match_place_multilevel () =
  let circuit, pads, p0 = build () in
  let one_shot =
    Kraftwerk.Cluster.place_multilevel deep_config circuit ~fixed_positions:pads
      p0
  in
  let run =
    Kraftwerk.Cluster.start deep_config circuit ~fixed_positions:pads
      (Netlist.Placement.copy p0)
  in
  (* [total_levels] counts stages (depth + 1); the run starts at the
     coarsest stage index, depth. *)
  Alcotest.(check int) "starts at the coarsest level"
    (Kraftwerk.Cluster.total_levels run - 1)
    (Kraftwerk.Cluster.current_level run);
  while Kraftwerk.Cluster.step run do
    ()
  done;
  Alcotest.(check bool) "finished" true (Kraftwerk.Cluster.finished run);
  Alcotest.(check int) "ends at the flat level" 0
    (Kraftwerk.Cluster.current_level run);
  let stepped = Kraftwerk.Cluster.finish run in
  Netlist.Placement.clamp_to_region circuit stepped;
  same_placement "stepped vs one-shot" one_shot stepped

(* [finish] straight from the coarsest level must still seat every flat
   cell inside the region (the degraded-finish path of the engine). *)
let test_finish_straight_down_legal_seating () =
  let circuit, pads, p0 = build () in
  let run =
    Kraftwerk.Cluster.start deep_config circuit ~fixed_positions:pads
      (Netlist.Placement.copy p0)
  in
  (* A handful of coarsest-level steps, then expand without refinement. *)
  for _ = 1 to 3 do
    ignore (Kraftwerk.Cluster.step run)
  done;
  let p = Kraftwerk.Cluster.finish run in
  Netlist.Placement.clamp_to_region circuit p;
  Alcotest.(check (float 1e-6)) "in region" 0.
    (Metrics.Overlap.out_of_region_area circuit p);
  Array.iter
    (fun (cl : Netlist.Cell.t) ->
      let id = cl.Netlist.Cell.id in
      if Float.is_nan p.Netlist.Placement.x.(id)
         || Float.is_nan p.Netlist.Placement.y.(id)
      then Alcotest.failf "cell %d unseated" id)
    circuit.Netlist.Circuit.cells;
  (* Fixed cells keep their pinned coordinates. *)
  List.iter
    (fun (id, (px, py)) ->
      Alcotest.(check (float 1e-9)) "fixed x" px p.Netlist.Placement.x.(id);
      Alcotest.(check (float 1e-9)) "fixed y" py p.Netlist.Placement.y.(id))
    pads

(* The V-cycle run on a worker domain, with that domain's own scratch,
   is bitwise the run on the calling domain. *)
let test_multilevel_bitwise_across_domains () =
  let circuit, pads, p0 = build () in
  let place () =
    Kraftwerk.Cluster.place_multilevel deep_config circuit ~fixed_positions:pads
      (Netlist.Placement.copy p0)
  in
  let reference = place () in
  same_placement "worker domain" reference (Domain.join (Domain.spawn place))

(* A different clustering seed changes the hierarchy (the seed is a real
   input), while the same seed reproduces it. *)
let test_multilevel_seed_sensitivity () =
  let circuit, pads, p0 = build () in
  let place seed =
    Kraftwerk.Cluster.place_multilevel ~seed deep_config circuit
      ~fixed_positions:pads (Netlist.Placement.copy p0)
  in
  let a1 = place 1 and a1' = place 1 in
  same_placement "seed 1 reproducible" a1 a1';
  let a2 = place 2 in
  let differs =
    Array.exists2
      (fun x y -> bits x <> bits y)
      a1.Netlist.Placement.x a2.Netlist.Placement.x
  in
  Alcotest.(check bool) "seed is a real input" true differs

(* Telemetry records from a multilevel run carry the V-cycle stage
   (schema v4 [level]): the emitted sequence only descends, each stage's
   step counter restarts at 1, and the flat stage is always reached. *)
let test_multilevel_telemetry_levels () =
  let circuit, pads, p0 = build () in
  let sink, read = Obs.Sink.collecting () in
  let _ =
    Obs.Sink.with_sink sink (fun () ->
        Kraftwerk.Cluster.place_multilevel deep_config circuit
          ~fixed_positions:pads (Netlist.Placement.copy p0))
  in
  let records, _ = read () in
  Alcotest.(check bool) "records emitted" true (records <> []);
  let levels = List.map (fun r -> r.Obs.Telemetry.level) records in
  let max_level = List.fold_left Stdlib.max 0 levels in
  Alcotest.(check bool) "coarse stages observed" true (max_level >= 1);
  Alcotest.(check bool) "flat stage observed" true (List.mem 0 levels);
  ignore
    (List.fold_left
       (fun (prev_level, prev_step) r ->
         let l = r.Obs.Telemetry.level and s = r.Obs.Telemetry.step in
         Alcotest.(check bool) "levels non-increasing" true (l <= prev_level);
         if l = prev_level then
           Alcotest.(check int) "steps consecutive within a stage"
             (prev_step + 1) s
         else Alcotest.(check int) "step counter restarts per stage" 1 s;
         (l, s))
       (max_level, 0) records)

let suite =
  [
    Alcotest.test_case "partitions cells" `Quick test_cluster_partitions_cells;
    Alcotest.test_case "reduces size" `Quick test_cluster_reduces_size;
    Alcotest.test_case "preserves area" `Quick test_cluster_preserves_area;
    Alcotest.test_case "area cap" `Quick test_cluster_area_cap_respected;
    Alcotest.test_case "fixed singleton" `Quick test_cluster_fixed_cells_singleton;
    Alcotest.test_case "expand near centre" `Quick test_expand_places_members_near_cluster;
    Alcotest.test_case "multilevel e2e" `Slow test_multilevel_end_to_end;
    Alcotest.test_case "deterministic" `Quick test_cluster_deterministic;
    Alcotest.test_case "hierarchy deterministic" `Quick
      test_hierarchy_deterministic;
    Alcotest.test_case "hierarchy monotone and capped" `Quick
      test_hierarchy_monotone_and_capped;
    Alcotest.test_case "hierarchy invariants at all levels" `Quick
      test_hierarchy_invariants_all_levels;
    Alcotest.test_case "stepped V-cycle matches one-shot driver" `Slow
      test_vcycle_steps_match_place_multilevel;
    Alcotest.test_case "finish straight down seats every cell" `Quick
      test_finish_straight_down_legal_seating;
    Alcotest.test_case "V-cycle bitwise across domains: spawned = calling" `Slow
      test_multilevel_bitwise_across_domains;
    Alcotest.test_case "clustering seed is a real input" `Slow
      test_multilevel_seed_sensitivity;
    Alcotest.test_case "telemetry carries the V-cycle stage" `Slow
      test_multilevel_telemetry_levels;
  ]
