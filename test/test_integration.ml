(* End-to-end integration tests: each complete flow on a small circuit,
   exercising the module seams the unit tests cannot. *)

let build ?(name = "fract") ?(seed = 71) () =
  let prof = Circuitgen.Profiles.find name in
  let circuit, pads =
    Circuitgen.Gen.generate (Circuitgen.Profiles.params prof ~seed)
  in
  (circuit, Circuitgen.Gen.initial_placement circuit pads)

let finalize circuit global =
  let rep = Legalize.Abacus.legalize circuit global () in
  let p = rep.Legalize.Abacus.placement in
  ignore (Legalize.Improve.run circuit p);
  p

let test_kraftwerk_full_flow () =
  let circuit, p0 = build () in
  let state, reports = Kraftwerk.Placer.run Kraftwerk.Config.standard circuit p0 in
  let final = finalize circuit state.Kraftwerk.Placer.placement in
  Alcotest.(check bool) "iterated" true (List.length reports > 3);
  Alcotest.(check bool) "legal" true (Legalize.Check.is_legal circuit final);
  (* Legal result should beat the trivially striped arrangement the
     annealer starts from. *)
  let striped, _ =
    Baselines.Annealer.place
      ~config:
        { Baselines.Annealer.quick_config with
          Baselines.Annealer.moves_per_cell = 0;
          Baselines.Annealer.t_steps = 1 }
      circuit p0
  in
  Alcotest.(check bool) "beats striped" true
    (Metrics.Wirelength.hpwl circuit final
    < Metrics.Wirelength.hpwl circuit striped)

let test_all_flows_produce_comparable_legal_results () =
  let circuit, p0 = build () in
  let k =
    let s, _ = Kraftwerk.Placer.run Kraftwerk.Config.standard circuit p0 in
    finalize circuit s.Kraftwerk.Placer.placement
  in
  let g = finalize circuit (fst (Baselines.Gordian.place circuit p0)) in
  let a =
    finalize circuit
      (fst (Baselines.Annealer.place ~config:Baselines.Annealer.quick_config circuit p0))
  in
  List.iter
    (fun (name, p) ->
      Alcotest.(check bool) (name ^ " legal") true (Legalize.Check.is_legal circuit p))
    [ ("kraftwerk", k); ("gordian", g); ("annealer", a) ];
  (* All three should land within a factor 3 of each other. *)
  let wk = Metrics.Wirelength.hpwl circuit k in
  let wg = Metrics.Wirelength.hpwl circuit g in
  let wa = Metrics.Wirelength.hpwl circuit a in
  let lo = Float.min wk (Float.min wg wa) and hi = Float.max wk (Float.max wg wa) in
  Alcotest.(check bool) "same ballpark" true (hi /. lo < 3.)

let test_save_place_load_place_roundtrip () =
  let circuit, p0 = build () in
  let file = Filename.temp_file "integ" ".ckt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Netlist.Io.save_circuit file circuit;
      let circuit' =
        match Netlist.Io.load_circuit file with
        | Ok c -> c
        | Error e -> Alcotest.fail (Netlist.Io.error_message e)
      in
      (* Placing the reloaded circuit from the same initial placement
         gives the identical result (full determinism through IO). *)
      let s1, _ = Kraftwerk.Placer.run Kraftwerk.Config.standard circuit p0 in
      let s2, _ = Kraftwerk.Placer.run Kraftwerk.Config.standard circuit' p0 in
      Alcotest.check (Alcotest.float 1e-9) "same placement" 0.
        (Netlist.Placement.displacement s1.Kraftwerk.Placer.placement
           s2.Kraftwerk.Placer.placement))

let test_timing_driven_end_to_end () =
  let circuit, p0 = build ~name:"struct" () in
  let tp = Timing.Params.default in
  let lb = Timing.Sta.lower_bound tp circuit in
  let r = Timing.Driven.optimize ~params:tp Kraftwerk.Config.standard circuit p0 in
  Alcotest.(check bool) "final ≥ lower bound" true
    (r.Timing.Driven.final_delay >= lb -. 1e-15);
  (* Compare against the plain area-driven placement (the initial
     placement has every cell at the region centre, so its delay is a
     meaningless near-lower-bound number). *)
  let state, _ = Kraftwerk.Placer.run Kraftwerk.Config.standard circuit p0 in
  let plain =
    (Timing.Sta.analyse tp circuit state.Kraftwerk.Placer.placement).Timing.Sta.max_delay
  in
  Alcotest.(check bool) "improved vs area-driven" true
    (r.Timing.Driven.final_delay < plain);
  (* The final placement still legalises. *)
  let final = finalize circuit r.Timing.Driven.placement in
  Alcotest.(check bool) "legal" true (Legalize.Check.is_legal circuit final)

let test_requirement_mode_is_exact () =
  let circuit, p0 = build ~name:"primary1" () in
  let tp = Timing.Params.default in
  let state, _ = Kraftwerk.Placer.run Kraftwerk.Config.standard circuit p0 in
  let base =
    (Timing.Sta.analyse tp circuit state.Kraftwerk.Placer.placement).Timing.Sta.max_delay
  in
  let target = base *. 0.9 in
  let r =
    Timing.Driven.meet_requirement ~params:tp ~max_extra_steps:40
      Kraftwerk.Config.standard circuit p0 ~target
  in
  if r.Timing.Driven.met then
    (* "Met" must be literally true of the returned placement. *)
    Alcotest.(check bool) "verified on placement" true
      ((Timing.Sta.analyse tp circuit r.Timing.Driven.placement).Timing.Sta.max_delay
      <= target +. 1e-15)
  else
    Alcotest.(check bool) "not met ⇒ ran out of steps" true
      (r.Timing.Driven.final_delay > target)

let test_congestion_hook_changes_placement () =
  let circuit, p0 = build () in
  let hooks =
    { Kraftwerk.Placer.no_hooks with
      Kraftwerk.Placer.extra_density =
        Some
          (fun c p ~nx ~ny ->
            match
              Route.Congest.extra_density ~strength:2. c p
                (Route.Grid_spec.make ~nx ~ny ())
            with
            | Ok g -> g
            | Error _ -> None) }
  in
  let plain, _ = Kraftwerk.Placer.run Kraftwerk.Config.standard circuit p0 in
  let driven, _ = Kraftwerk.Placer.run ~hooks Kraftwerk.Config.standard circuit p0 in
  (* The hook feeds back: placements differ (unless there was never any
     overflow, in which case they agree exactly — accept both but check
     the run completed sanely). *)
  let d =
    Netlist.Placement.displacement plain.Kraftwerk.Placer.placement
      driven.Kraftwerk.Placer.placement
  in
  Alcotest.(check bool) "finite" true (Float.is_finite d)

let test_eco_preserves_relative_placement () =
  let circuit, p0 = build ~name:"primary1" () in
  let state, _ = Kraftwerk.Placer.run Kraftwerk.Config.standard circuit p0 in
  let placed = state.Kraftwerk.Placer.placement in
  let rng = Numeric.Rng.create 5 in
  let circuit' = Kraftwerk.Eco.rewire circuit rng ~fraction:0.01 in
  let adapted, _ =
    Kraftwerk.Eco.replace Kraftwerk.Config.standard circuit'
      (Netlist.Placement.copy placed) ~max_steps:6
  in
  (* Check rank correlation of x-order survives: neighbours mostly stay
     neighbours. *)
  let ids =
    Array.to_list circuit.Netlist.Circuit.cells
    |> List.filter Netlist.Cell.movable
    |> List.map (fun (cl : Netlist.Cell.t) -> cl.Netlist.Cell.id)
    |> Array.of_list
  in
  let order_of p =
    let a = Array.copy ids in
    Array.sort
      (fun i j ->
        Float.compare p.Netlist.Placement.x.(i) p.Netlist.Placement.x.(j))
      a;
    a
  in
  let before = order_of placed and after = order_of adapted in
  let rank = Hashtbl.create (Array.length ids) in
  Array.iteri (fun r id -> Hashtbl.replace rank id r) before;
  let total_shift = ref 0 in
  Array.iteri
    (fun r id -> total_shift := !total_shift + abs (r - Hashtbl.find rank id))
    after;
  let mean_shift = float_of_int !total_shift /. float_of_int (Array.length ids) in
  (* Mean rank shift well under 15% of the cell count. *)
  Alcotest.(check bool) "relative order preserved" true
    (mean_shift < 0.15 *. float_of_int (Array.length ids))

(* --- CLI argument validation --- *)

(* Run place.exe with [args]; return its exit code and stderr. *)
let run_place args =
  let exe = Test_server.place_exe () in
  let err_file = Filename.temp_file "place_cli" ".err" in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let err = Unix.openfile err_file [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close null; Unix.close err)
      (fun () ->
        Unix.create_process exe (Array.of_list (exe :: args)) null null err)
  in
  let code =
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED c -> c
    | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) -> -1
  in
  let ic = open_in_bin err_file in
  let stderr = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove err_file;
  (code, stderr)

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* Out-of-range --domains is a Cmdliner usage error (exit 124) that
   names the range, before any command runs: no Invalid_argument
   backtrace for 0, no silent clamp above the pool's maximum. *)
let test_cli_domains_range () =
  let range = Printf.sprintf "1..%d" Numeric.Parallel.max_domains in
  List.iter
    (fun args ->
      let what = String.concat " " args in
      let code, err = run_place args in
      Alcotest.(check int) (what ^ ": usage error") 124 code;
      Alcotest.(check bool) (what ^ ": names the range") true
        (contains err range);
      Alcotest.(check bool) (what ^ ": no backtrace") false
        (contains err "Invalid_argument"))
    [
      [ "run"; "--profile"; "fract"; "--domains"; "0" ];
      [ "run"; "--profile"; "fract"; "--domains"; "500" ];
      [ "serve"; "--domains"; "0" ];
      [ "batch"; "--domains"; "129"; "/dev/null" ];
    ];
  (* A job spec carried by submit/serve/batch is held to the same range. *)
  let spec =
    Engine.Job.spec
      ~source:(Engine.Source.Profile { name = "fract"; scale = 0.5; seed = 1 })
      ~domains:500 ()
  in
  match Engine.Job.spec_of_json (Engine.Job.spec_to_json spec) with
  | Ok _ -> Alcotest.fail "job spec with domains 500 accepted"
  | Error msg ->
    Alcotest.(check bool) "job spec names the range" true (contains msg range)

(* The protocol has one version, the objective one way in and the
   worker count one rule: the removed --proto, --timing and --shards
   flags are Cmdliner usage errors. *)
let test_cli_removed_flags () =
  (* An existing jobs file, so the unknown flag is the only error. *)
  let jobs = Filename.temp_file "place_cli" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove jobs)
    (fun () ->
      List.iter
        (fun args ->
          let code, _ = run_place args in
          Alcotest.(check int)
            (String.concat " " args ^ ": usage error")
            124 code)
        [
          [ "serve"; "--proto"; "v1" ];
          [ "serve"; "--proto"; "v2" ];
          [ "run"; "--profile"; "fract"; "--timing" ];
          [ "submit"; "--to"; "unix:/x"; "--profile"; "fract"; "--timing" ];
          [ "serve"; "--shards"; "0" ];
          [ "batch"; jobs; "--shards"; "2" ];
        ])

let suite =
  [
    Alcotest.test_case "kraftwerk full flow" `Quick test_kraftwerk_full_flow;
    Alcotest.test_case "all flows comparable" `Quick test_all_flows_produce_comparable_legal_results;
    Alcotest.test_case "io + place roundtrip" `Quick test_save_place_load_place_roundtrip;
    Alcotest.test_case "timing driven e2e" `Slow test_timing_driven_end_to_end;
    Alcotest.test_case "requirement exact" `Slow test_requirement_mode_is_exact;
    Alcotest.test_case "congestion hook" `Quick test_congestion_hook_changes_placement;
    Alcotest.test_case "eco relative order" `Slow test_eco_preserves_relative_placement;
    Alcotest.test_case "cli domains range" `Quick test_cli_domains_range;
    Alcotest.test_case "cli removed flags" `Quick test_cli_removed_flags;
  ]
