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

let run_place = Test_server.run_place

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* Out-of-range engine and server limits are Cmdliner usage errors
   (exit 124) that name the range, before any command runs: no
   Invalid_argument from the scheduler, no silent clamp above the
   worker cap, no server running with a negative bound or a NaN
   timeout. *)
let test_cli_domains_range () =
  let workers = Printf.sprintf "1..%d" Engine.Scheduler.max_workers in
  let listen = [ "serve"; "--listen"; "unix:/nonexistent/place.sock" ] in
  List.iter
    (fun (range, args) ->
      let what = String.concat " " args in
      let code, _, err = run_place args in
      (* Cmdliner wraps long messages: compare with the breaks undone. *)
      let err =
        String.split_on_char '\n' err
        |> List.concat_map (String.split_on_char ' ')
        |> List.filter (( <> ) "")
        |> String.concat " "
      in
      Alcotest.(check int) (what ^ ": usage error") 124 code;
      Alcotest.(check bool) (what ^ ": names the range") true
        (contains err range);
      Alcotest.(check bool) (what ^ ": no backtrace") false
        (contains err "Invalid_argument"))
    [
      (workers, [ "serve"; "--domains"; "0" ]);
      (workers, [ "serve"; "--domains"; "65" ]);
      (workers, [ "batch"; "--domains"; "129"; "/dev/null" ]);
      (">= 1", [ "serve"; "--concurrency"; "0" ]);
      (">= 1", [ "batch"; "--concurrency"; "0"; "/dev/null" ]);
      (">= 1", listen @ [ "--max-conns=-1" ]);
      (">= 1", listen @ [ "--max-pending=-1" ]);
      ("finite number >= 0", listen @ [ "--request-timeout=-1" ]);
      ("finite number >= 0", listen @ [ "--request-timeout=inf" ]);
      ("finite number >= 0", listen @ [ "--drain-grace=-5" ]);
      ("finite number >= 0", listen @ [ "--idle-timeout=nan" ]);
    ]

(* The protocol has one version, the objective one way in, the worker
   count one rule and the kernels one domain: the removed --proto,
   --timing, --shards and run --domains flags are Cmdliner usage
   errors. *)
let test_cli_removed_flags () =
  (* An existing jobs file, so the unknown flag is the only error. *)
  let jobs = Filename.temp_file "place_cli" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove jobs)
    (fun () ->
      List.iter
        (fun args ->
          let code, _, _ = run_place args in
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
          [ "run"; "--profile"; "fract"; "--domains"; "1" ];
        ])

(* A bad bench flag value is a usage error (exit 1), as is any flag the
   harness does not take, with no exception escaping. *)
let test_bench_cli_usage () =
  let exe = Test_server.repo_file "bench/main.exe" in
  List.iter
    (fun args ->
      let what = String.concat " " args in
      let code, out, err = run_place ~exe args in
      Alcotest.(check int) (what ^ ": exit 1") 1 code;
      Alcotest.(check bool) (what ^ ": usage line") true (contains out "usage:");
      Alcotest.(check bool) (what ^ ": no exception") false
        (contains err "exception"))
    [
      [ "--scale"; "abc" ];
      [ "--seed"; "1.5" ];
      [ "--table"; "one" ];
      [ "--table"; "9" ];
      [ "--experiment"; "net-model" ];
      (* Names are checked while parsing: table 1 never starts. *)
      [ "--table"; "1"; "--experiment"; "bogus" ];
      [ "--domains"; "1" ];
      [ "--engine" ];
      [ "--serve" ];
      [ "--frobnicate" ];
    ]

(* ------------------------------------------------------------------ *)
(* Quality gates: fresh CLI runs against the committed bench baselines *)

module J = Obs.Json

let json_of what s =
  match J.of_string s with
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what e

let read_json file =
  json_of file (In_channel.with_open_text file In_channel.input_all)

let read_jsonl file =
  In_channel.with_open_text file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (json_of file)

let get key v =
  match J.member key v with
  | Some x -> x
  | None -> Alcotest.failf "missing field %s" key

let num key v =
  match get key v with
  | J.Num x -> x
  | _ -> Alcotest.failf "field %s is not a number" key

let str key v =
  match get key v with
  | J.Str x -> x
  | _ -> Alcotest.failf "field %s is not a string" key

(* [place run ARGS --trace FILE]: the parsed trace records. *)
let traced_run args =
  let trace = Filename.temp_file "gate" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove trace)
    (fun () ->
      let code, _, err =
        run_place (("run" :: args) @ [ "--trace"; trace ])
      in
      if code <> 0 then Alcotest.failf "place run exited %d: %s" code err;
      read_jsonl trace)

(* A flat wirelength run's trace: schema 6, the congestion loop dark,
   level 0, the clique pattern compiled once then refilled, the CG
   tolerance inside its band, and a summary that counts the records. *)
let test_gate_trace () =
  let recs =
    traced_run
      [ "--profile"; "fract"; "--scale"; "0.5"; "--seed"; "42" ]
  in
  Alcotest.(check bool) "non-empty trace" true (recs <> []);
  List.iter (fun r -> Alcotest.(check int) "schema" 6 (int_of_float (num "schema" r))) recs;
  let iters = List.filteri (fun i _ -> i < List.length recs - 1) recs in
  let summary = List.nth recs (List.length recs - 1) in
  List.iteri
    (fun i r ->
      let at fmt = Printf.sprintf ("iteration %d: " ^^ fmt) i in
      Alcotest.(check string) (at "record") "iteration" (str "record" r);
      Alcotest.(check (float 0.)) (at "congest_strength") 0. (num "congest_strength" r);
      Alcotest.(check bool) (at "est_overflow null") true (get "est_overflow" r = J.Null);
      Alcotest.(check (float 0.)) (at "target_area") 0. (num "target_area" r);
      Alcotest.(check (float 0.)) (at "level") 0. (num "level" r);
      Alcotest.(check (float 0.)) (at "pattern_rebuilds") 1. (num "pattern_rebuilds" r);
      Alcotest.(check bool) (at "assembly_reused") (i > 0)
        (get "assembly_reused" r = J.Bool true);
      let tol = num "cg_tolerance" r in
      Alcotest.(check bool) (at "cg_tolerance in [1e-8, 1e-5]") true
        (1e-8 <= tol && tol <= 1e-5))
    iters;
  Alcotest.(check string) "last record" "summary" (str "record" summary);
  Alcotest.(check int) "summary counts the records" (List.length iters)
    (int_of_float (num "iterations" summary))

(* The effort presets on fract against the committed per-effort rows:
   effort 9 stops under the old fixed 250-iteration schedule, a run that
   stopped early names its reason, and the final legalized HPWL stays
   within 1% of the committed baseline. *)
let test_gate_effort () =
  let baseline = get "fract" (get "efforts" (read_json (Test_server.repo_file "BENCH_place.json"))) in
  List.iter
    (fun e ->
      let recs =
        traced_run
          [
            "--profile"; "fract"; "--scale"; "1.0"; "--seed"; "42";
            "--effort"; e;
          ]
      in
      let at what = Printf.sprintf "effort %s: %s" e what in
      let summary = List.nth recs (List.length recs - 1) in
      Alcotest.(check string) (at "summary") "summary" (str "record" summary);
      Alcotest.(check (float 0.)) (at "schema") 6. (num "schema" summary);
      let iters = int_of_float (num "iterations" summary) in
      if e = "9" then
        Alcotest.(check bool) (at "under 250 iterations") true (iters < 250);
      let records =
        List.length (List.filter (fun r -> str "record" r = "iteration") recs)
      in
      if iters < records || get "converged" summary = J.Bool true
      then
        Alcotest.(check bool) (at "names its stop reason") true
          (match J.member "stop_reason" summary with
          | Some (J.Str r) -> r <> ""
          | _ -> false);
      let base = num "final_hpwl_legalized" (get e baseline) in
      let final = num "final_hpwl" summary in
      if not (final <= base *. 1.01) then
        Alcotest.failf "effort %s: final HPWL %g regressed >1%% vs %g" e final
          base)
    [ "1"; "9" ]

(* The routability objective against the committed routability rows:
   every row keeps its columns, the primary1 closed loop buys at least
   15% routed overflow, and a fresh primary1 run stays within 5% of the
   committed routed overflow. *)
let test_gate_routability () =
  let rows = get "routability" (read_json (Test_server.repo_file "BENCH_place.json")) in
  List.iter
    (fun profile ->
      let row = get profile rows in
      List.iter
        (fun col ->
          Alcotest.(check bool) (profile ^ " has " ^ col) true
            (J.member col row <> None))
        [
          "hpwl_wirelength"; "hpwl_routability";
          "routed_overflow_wirelength"; "routed_overflow_routability";
          "routed_max_overflow_wirelength"; "routed_max_overflow_routability";
          "overflow_reduction_pct"; "hpwl_delta_pct";
        ])
    [ "fract"; "primary1" ];
  let p1 = get "primary1" rows in
  let reduction = num "overflow_reduction_pct" p1 in
  if not (reduction >= 15.) then
    Alcotest.failf "primary1 overflow reduction %.1f%% < 15%%" reduction;
  let code, out, err =
    run_place
      [
        "run"; "--profile"; "primary1"; "--scale"; "1.0"; "--seed"; "42";
        "--objective"; "routability";
      ]
  in
  if code <> 0 then Alcotest.failf "place run exited %d: %s" code err;
  let fresh =
    List.find_map
      (fun line ->
        match String.split_on_char ' ' line |> List.filter (( <> ) "") with
        | "routed" :: "ovfl" :: v :: _ -> float_of_string_opt v
        | _ -> None)
      (String.split_on_char '\n' out)
  in
  match fresh with
  | None -> Alcotest.fail "run printed no routed overflow"
  | Some fresh ->
    let base = num "routed_overflow_routability" p1 in
    if not (fresh <= (base *. 1.05) +. 1e-9) then
      Alcotest.failf "primary1 routed overflow %g regressed >5%% vs %g" fresh
        base

(* The committed mega-scaling bench: every mega profile has a completed
   multilevel V-cycle row, and some row reached a million cells. *)
let test_gate_mega_rows () =
  let rows =
    match get "rows" (read_json (Test_server.repo_file "BENCH_mega.json")) with
    | J.Arr rows -> rows
    | _ -> Alcotest.fail "rows is not an array"
  in
  let profiles = List.sort_uniq compare (List.map (str "profile") rows) in
  (* The last multilevel row of each profile, as a JSON object keyed by
     profile would keep it. *)
  let multilevel =
    List.filter_map
      (fun p ->
        List.rev rows
        |> List.find_opt (fun r -> str "profile" r = p && str "flow" r = "multilevel")
        |> Option.map (fun r -> (p, r)))
      profiles
  in
  List.iter
    (fun p ->
      match List.assoc_opt p multilevel with
      | None -> Alcotest.failf "%s has no multilevel row" p
      | Some r ->
        Alcotest.(check bool) (p ^ ": iterations > 0") true (num "iterations" r > 0.);
        Alcotest.(check bool) (p ^ ": finite hpwl") true
          (match J.member "hpwl" r with
          | Some (J.Num h) -> Float.is_finite h
          | _ -> false);
        Alcotest.(check bool) (p ^ ": levels >= 2") true (num "levels" r >= 2.))
    profiles;
  Alcotest.(check bool) "some row reaches 1M cells" true
    (List.exists (fun (_, r) -> num "cells" r >= 1e6) multilevel)

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
    Alcotest.test_case "bench cli usage" `Quick test_bench_cli_usage;
  ]

(* The committed kernel bench records the host's core count, one SpMV
   row (every kernel runs on one domain) and a finite time per kernel. *)
let test_gate_kernel_rows () =
  let bench = read_json (Test_server.repo_file "BENCH_kernels.json") in
  let cores = num "cores" bench in
  Alcotest.(check bool) "cores is a positive integer" true
    (cores >= 1. && Float.is_integer cores);
  Alcotest.(check bool) "no pool size" true (J.member "domains" bench = None);
  let kernels =
    match get "kernels_ns" bench with
    | J.Obj fields -> fields
    | _ -> Alcotest.fail "kernels_ns is not an object"
  in
  List.iter
    (fun (name, v) ->
      match v with
      | J.Num ns when Float.is_finite ns && ns > 0. -> ()
      | _ -> Alcotest.failf "%s: not a positive finite time" name)
    kernels;
  Alcotest.(check bool) "spmv-primary1 row" true
    (List.mem_assoc "kernels/spmv-primary1" kernels);
  Alcotest.(check (list string)) "no pooled SpMV rows" []
    (List.filter
       (fun name -> contains name "spmv-seq" || contains name "spmv-pool")
       (List.map fst kernels));
  Alcotest.(check bool) "no pool speedup" true
    (J.member "spmv_pool" (get "speedups" bench) = None)

let gates =
  [
    Alcotest.test_case "trace smoke" `Quick test_gate_trace;
    Alcotest.test_case "effort matrix" `Quick test_gate_effort;
    Alcotest.test_case "routability" `Quick test_gate_routability;
    Alcotest.test_case "BENCH_mega.json rows" `Quick test_gate_mega_rows;
    Alcotest.test_case "BENCH_kernels.json rows" `Quick test_gate_kernel_rows;
  ]
