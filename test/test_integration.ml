(* End-to-end integration tests: each complete flow on a small circuit,
   exercising the module seams the unit tests cannot. *)

let build ?(name = "fract") ?(seed = 71) () =
  let prof = Circuitgen.Profiles.find name in
  let circuit, pads =
    Circuitgen.Gen.generate (Circuitgen.Profiles.params prof ~seed)
  in
  (circuit, Circuitgen.Gen.initial_placement circuit pads)

let finalize circuit global =
  (Legalize.Finish.run circuit global).Legalize.Finish.placement

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

(* A timing-goal job on struct: the longest path of its global
   placement stays above the lower bound and beats the wirelength job's
   (the initial placement has every cell at the region centre, so its
   delay is a meaningless near-lower-bound number), and its final
   placement is legal. *)
let test_timing_driven_end_to_end () =
  let source = Engine.Source.Profile { name = "struct"; scale = 1.; seed = 71 } in
  let circuit, _ =
    match Engine.Source.load source with
    | Ok cp -> cp
    | Error msg -> Alcotest.fail msg
  in
  let tp = Timing.Params.default in
  let lb = Timing.Sta.lower_bound tp circuit in
  let run goal =
    let objective = Engine.Objective.make ~goal () in
    match Engine.Scheduler.run_job (Engine.Job.spec ~source ~objective ()) with
    | r, Some f -> (r, f)
    | _, None -> Alcotest.fail "the job produced no placement"
  in
  let delay_of (f : Engine.Scheduler.final) =
    (Timing.Sta.analyse tp circuit f.Engine.Scheduler.global).Timing.Sta.max_delay
  in
  let r, driven = run Engine.Objective.Timing in
  let final_delay = delay_of driven in
  Alcotest.(check bool) "final ≥ lower bound" true (final_delay >= lb -. 1e-15);
  let _, plain = run Engine.Objective.Wirelength in
  Alcotest.(check bool) "improved vs area-driven" true
    (final_delay < delay_of plain);
  Alcotest.(check bool) "legal" true
    (r.Engine.Job.legal
    && Legalize.Check.is_legal circuit driven.Engine.Scheduler.legal)

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

(* The placer's extra-density hook feeds back: a heat map read as extra
   demand moves the cells off the plain run's placement. *)
let test_heat_hook_changes_placement () =
  let circuit, p0 = build () in
  let hooks =
    { Kraftwerk.Placer.no_hooks with
      Kraftwerk.Placer.extra_density =
        Some
          (fun c p ~nx ~ny -> Route.Heat.extra_density ~strength:1. c p ~nx ~ny) }
  in
  let plain, _ = Kraftwerk.Placer.run Kraftwerk.Config.standard circuit p0 in
  let driven, _ = Kraftwerk.Placer.run ~hooks Kraftwerk.Config.standard circuit p0 in
  let d =
    Netlist.Placement.displacement plain.Kraftwerk.Placer.placement
      driven.Kraftwerk.Placer.placement
  in
  Alcotest.(check bool) (Printf.sprintf "displacement %g > 0" d) true
    (Float.is_finite d && d > 0.)

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
      ("in (0, 1]", [ "generate"; "--profile"; "fract"; "--scale"; "0" ]);
      ("in (0, 1]", [ "run"; "--profile"; "fract"; "--scale"; "1.5" ]);
      ("in (0, 1]", [ "run"; "--profile"; "fract"; "--scale"; "nan" ]);
      ( "in (0, 1]",
        [ "submit"; "--to"; "unix:/x"; "--profile"; "fract"; "--scale=-1" ] );
    ]

(* The protocol has one version, the objective one way in, the worker
   count one rule, the kernels one domain and the step log one place
   (the trace): the removed --proto, --timing, --shards, run --domains
   and run -v/--verbose flags are Cmdliner usage errors. *)
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
          [ "run"; "--profile"; "fract"; "-v" ];
          [ "run"; "--profile"; "fract"; "--verbose" ];
        ])

(* The report lines [place run --profile fract --seed 42 ARGS] prints,
   minus the timing-dependent [cpu] line. *)
let run_report args =
  let args = [ "run"; "--profile"; "fract"; "--seed"; "42" ] @ args in
  let code, out, err = run_place args in
  if code <> 0 then
    Alcotest.failf "%s exited %d: %s" (String.concat " " args) code err;
  String.split_on_char '\n' out

(* [place run]'s printed results on fract, seed 42, for the four shapes
   of a Kraftwerk run, pinned to the values the CLI printed when it ran
   its own copy of the job pipeline: running it as an engine job must
   not move them. *)
let test_cli_run_pins () =
  List.iter
    (fun (args, expected) ->
      let lines = run_report args in
      List.iter
        (fun line ->
          Alcotest.(check bool)
            (Printf.sprintf "[%s] prints %S" (String.concat " " args) line)
            true (List.mem line lines))
        expected)
    [
      ( [],
        [
          "improve      27 moves, hpwl -588.75";
          "domino       65 moves, hpwl -1182.16";
          "hpwl         11875.1"; "overlap      0.0000"; "legal        true";
        ] );
      ( [ "--flow"; "multilevel"; "--mode"; "fast" ],
        [
          "improve      40 moves, hpwl -775.727";
          "domino       64 moves, hpwl -1446.15";
          "hpwl         13575"; "overlap      0.0000"; "legal        true";
        ] );
      ( [ "--objective"; "timing" ],
        [
          "improve      45 moves, hpwl -1458.28";
          "domino       76 moves, hpwl -1650.59";
          "hpwl         13763.2"; "overlap      0.0000"; "legal        true";
        ] );
      ( [ "--objective"; "routability" ],
        [
          "improve      36 moves, hpwl -741.142";
          "domino       58 moves, hpwl -1008.62";
          "hpwl         12585.5"; "overlap      0.0000"; "legal        true";
          "routed ovfl  0 (max 0)"; "routed wl    21329.7";
        ] );
    ]

(* [place run] and [place batch] place one spec the same way: the
   multilevel flow keeps the timing goal's net reweighting. *)
let test_cli_run_equals_batch () =
  let jobs = Filename.temp_file "place_cli" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove jobs)
    (fun () ->
      Out_channel.with_open_text jobs (fun oc ->
          output_string oc
            {|{"profile":"fract","scale":1,"seed":42,"objective":{"goal":"timing","flow":"multilevel"}}|};
          output_char oc '\n');
      let code, out, err = run_place [ "batch"; jobs ] in
      if code <> 0 then Alcotest.failf "batch exited %d: %s" code err;
      let batch_hpwl =
        match Obs.Json.of_string (String.trim out) with
        | Ok v -> (
          match Option.bind (Obs.Json.member "result" v) (Obs.Json.member "hpwl") with
          | Some (Obs.Json.Num h) -> h
          | _ -> Alcotest.failf "no result hpwl in %s" out)
        | Error e -> Alcotest.failf "bad batch line %s: %s" out e
      in
      let lines =
        run_report [ "--flow"; "multilevel"; "--objective"; "timing" ]
      in
      Alcotest.(check bool) "run prints the batch job's hpwl" true
        (List.mem (Printf.sprintf "hpwl         %.6g" batch_hpwl) lines))

(* A malformed circuit file is one operational error line naming the
   file and line, exit 2, for an engine flow and a baseline flow. *)
let test_cli_malformed_circuit () =
  let ckt = Filename.temp_file "malformed" ".ckt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove ckt)
    (fun () ->
      Out_channel.with_open_text ckt (fun oc ->
          output_string oc
            "circuit x\nregion 0 0 100 100\nrowheight 16\n\
             cell a 8 16 standard 0 0 1e-10 1e-05\n\
             cell b 8 16 standard 0 0 1e-10 1e-05\nnet n 0:0:0\n");
      List.iter
        (fun flow ->
          let code, _, err = run_place [ "run"; "--circuit"; ckt; "--flow"; flow ] in
          let what = "--flow " ^ flow in
          Alcotest.(check int) (what ^ ": exit 2") 2 code;
          match String.split_on_char '\n' err with
          | [ line; "" ] ->
            let prefix = Printf.sprintf "place: %s:6: " ckt in
            Alcotest.(check string) (what ^ ": names file and line") prefix
              (String.sub line 0 (min (String.length line) (String.length prefix)))
          | _ -> Alcotest.failf "%s: expected one stderr line, got %S" what err)
        [ "kraftwerk"; "multilevel"; "gordian" ])

(* A circuit whose region is lower than one row is refused when it is
   read, for an engine flow and a baseline flow alike: one typed line
   naming the file, exit 2, never a legality check indexing a row that
   does not exist. *)
let test_cli_circuit_without_rows () =
  let ckt = Filename.temp_file "norow" ".ckt" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun f -> if Sys.file_exists f then Sys.remove f)
        [ ckt; ckt ^ ".pos" ])
    (fun () ->
      let code, _, err =
        run_place
          [ "generate"; "--profile"; "fract"; "--scale"; "0.5"; "-o"; ckt ]
      in
      if code <> 0 then Alcotest.failf "generate exited %d: %s" code err;
      let text =
        In_channel.with_open_text ckt In_channel.input_all
        |> String.split_on_char '\n'
        |> List.map (fun line ->
               if String.starts_with ~prefix:"rowheight " line then
                 "rowheight 1e6"
               else line)
        |> String.concat "\n"
      in
      Out_channel.with_open_text ckt (fun oc -> output_string oc text);
      List.iter
        (fun flow ->
          let code, _, err =
            run_place [ "run"; "--circuit"; ckt; "--flow"; flow ]
          in
          let what = "--flow " ^ flow in
          Alcotest.(check int) (what ^ ": exit 2") 2 code;
          Alcotest.(check string) (what ^ ": one typed line")
            (Printf.sprintf "place: %s: Circuit.of_pins: region holds no row\n"
               ckt)
            err)
        [ "kraftwerk"; "multilevel"; "gordian" ])

(* A trace file that cannot be opened fails the job with one typed
   line, not an OCaml exception's constructor text. *)
let test_cli_unopenable_trace () =
  let trace = "/nonexistent/x.jsonl" in
  let code, _, err = run_place [ "run"; "--profile"; "fract"; "--trace"; trace ] in
  Alcotest.(check int) "exit 2" 2 code;
  Alcotest.(check string) "one typed line"
    (Printf.sprintf "place: trace: cannot open %s: No such file or directory\n" trace)
    err

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
      (* Jobs take a profile's scale in (0, 1] only. *)
      [ "--scale"; "2" ];
      [ "--scale"; "0" ];
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

(* The lines of the section [header] starts in [out], up to the next
   blank line. *)
let section out header =
  let rec skip = function
    | [] -> Alcotest.failf "no section %S" header
    | line :: rest when String.starts_with ~prefix:header line -> take [] rest
    | _ :: rest -> skip rest
  and take acc = function
    | [] | "" :: _ -> List.rev acc
    | line :: rest -> take (line :: acc) rest
  in
  skip (String.split_on_char '\n' out)

(* The experiments whose rows run as engine jobs, end to end at scale
   0.1 in a fresh directory, where BENCH_place.json is written: exit 0,
   each experiment's header and rows, and the written file's columns.
   Tables 1 and 3 are left out: their annealing baseline takes seconds
   even at this scale. *)
let test_bench_engine_experiments () =
  let exe = Test_server.repo_file "bench/main.exe" in
  let exe =
    if Filename.is_relative exe then Filename.concat (Sys.getcwd ()) exe
    else exe
  in
  let dir = Filename.temp_dir "bench_smoke" "" in
  let json = Filename.concat dir "BENCH_place.json" in
  let cwd = Sys.getcwd () in
  Fun.protect
    ~finally:(fun () ->
      Sys.chdir cwd;
      if Sys.file_exists json then Sys.remove json;
      Sys.rmdir dir)
    (fun () ->
      Sys.chdir dir;
      let code, out, err =
        run_place ~exe
          [
            "--experiment"; "fast-mode"; "--experiment"; "congestion";
            "--experiment"; "multilevel"; "--experiment"; "tradeoff";
            "--place"; "--scale"; "0.1";
          ]
      in
      if code <> 0 then Alcotest.failf "bench exited %d: %s" code err;
      let rows_start header names =
        let lines = section out header in
        List.iter
          (fun name ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: row %s" header name)
              true
              (List.exists
                 (fun l -> String.starts_with ~prefix:(name ^ " ") l)
                 lines))
          names
      in
      rows_start "E5: fast mode"
        [ "fract"; "primary1"; "struct"; "primary2"; "biomed"; "average" ];
      rows_start "E9: congestion-driven" [ "plain:"; "congestion-driven:" ];
      rows_start "A5: multilevel" [ "primary1"; "struct"; "biomed" ];
      let e6 = section out "E6: timing/area" in
      Alcotest.(check bool) "E6: requirement line" true
        (List.exists (fun l -> contains l "met=") e6);
      Alcotest.(check bool) "E6: trade-off rows" true
        (List.exists
           (fun l ->
             match String.split_on_char ' ' l |> List.filter (( <> ) "") with
             | step :: _ -> int_of_string_opt step <> None
             | [] -> false)
           e6);
      let place = section out "Placement bench" in
      List.iter
        (fun profile ->
          List.iter
            (fun e ->
              Alcotest.(check bool)
                (Printf.sprintf "%s effort %s row" profile e)
                true
                (List.exists
                   (fun l ->
                     String.starts_with ~prefix:profile l
                     && contains l ("effort " ^ e))
                   place))
            [ "1"; "5"; "9" ];
          Alcotest.(check bool) (profile ^ " routability row") true
            (List.exists
               (fun l ->
                 String.starts_with ~prefix:profile l
                 && contains l "routed overflow")
               place))
        [ "fract"; "primary1" ];
      Alcotest.(check bool) "says where it wrote" true
        (contains out "wrote BENCH_place.json");
      let bench = read_json json in
      Alcotest.(check (float 0.)) "scale" 0.1 (num "scale" bench);
      ignore (str "git" bench);
      ignore (num "cores" bench);
      List.iter
        (fun profile ->
          let efforts = get profile (get "efforts" bench) in
          List.iter
            (fun e ->
              let row = get e efforts in
              List.iter
                (fun col -> ignore (num col row))
                [
                  "iterations"; "max_iterations"; "wall_s";
                  "final_hpwl_global"; "final_hpwl_legalized";
                ];
              Alcotest.(check bool)
                (Printf.sprintf "%s effort %s stop_reason" profile e)
                true
                (match get "stop_reason" row with
                | J.Str ("gap" | "density" | "max_steps") | J.Null -> true
                | _ -> false))
            [ "1"; "5"; "9" ];
          let row = get profile (get "routability" bench) in
          List.iter
            (fun col -> ignore (num col row))
            [
              "hpwl_wirelength"; "hpwl_routability";
              "routed_overflow_wirelength"; "routed_overflow_routability";
              "routed_max_overflow_wirelength";
              "routed_max_overflow_routability"; "overflow_reduction_pct";
              "hpwl_delta_pct";
            ])
        [ "fract"; "primary1" ])

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
    Alcotest.test_case "heat hook changes placement" `Quick test_heat_hook_changes_placement;
    Alcotest.test_case "eco relative order" `Slow test_eco_preserves_relative_placement;
    Alcotest.test_case "cli domains range" `Quick test_cli_domains_range;
    Alcotest.test_case "cli removed flags" `Quick test_cli_removed_flags;
    Alcotest.test_case "cli run pins" `Quick test_cli_run_pins;
    Alcotest.test_case "cli run equals batch" `Quick test_cli_run_equals_batch;
    Alcotest.test_case "cli malformed circuit" `Quick test_cli_malformed_circuit;
    Alcotest.test_case "cli unopenable trace" `Quick test_cli_unopenable_trace;
    Alcotest.test_case "bench cli usage" `Quick test_bench_cli_usage;
    Alcotest.test_case "cli circuit without rows" `Quick
      test_cli_circuit_without_rows;
    Alcotest.test_case "bench engine experiments smoke" `Quick
      test_bench_engine_experiments;
  ]

(* The committed kernel bench records the host's core count, one SpMV
   row (every kernel runs on one domain), the .ckt text row, the
   coarsening row and a finite time per kernel. *)
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
  Alcotest.(check bool) "float-text-primary1 row" true
    (List.mem_assoc "kernels/float-text-primary1" kernels);
  Alcotest.(check bool) "cluster-hierarchy-primary1 row" true
    (List.mem_assoc "kernels/cluster-hierarchy-primary1" kernels);
  Alcotest.(check bool) "finishing-primary1 row" true
    (List.mem_assoc "kernels/finishing-primary1" kernels);
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
