(* Experiment harness: regenerates every table of the paper's evaluation
   and the in-text studies, plus bechamel micro-benchmarks of the
   numerical kernels.

     dune exec bench/main.exe                 # everything (takes a while)
     dune exec bench/main.exe -- --table 1    # one table
     dune exec bench/main.exe -- --experiment eco
     dune exec bench/main.exe -- --scale 0.25 # shrink circuits for speed
     dune exec bench/main.exe -- --micro      # bechamel kernels only

   Our rows in Tables 1-4, E5, E6, E9, A5 and --place are engine jobs,
   as [place run] places.  The experiment ids (E1..E10, A1..A3) are
   indexed in DESIGN.md; the paper-vs-measured discussion lives in
   EXPERIMENTS.md. *)

let scale = ref 1.0

let seed = ref 42

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Stamp machine-readable outputs with the git revision so perf
   trajectories are attributable to a commit. *)
let git_revision () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let line = try String.trim (input_line ic) with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> line
    | _ -> "unknown"
  with _ -> "unknown"

(* ------------------------------------------------------------------ *)
(* Shared flow pieces                                                  *)

let source name = Engine.Source.Profile { name; scale = !scale; seed = !seed }

(* A profile's circuit and initial placement, as a job on it loads
   them. *)
let build_profile name =
  match Engine.Source.load (source name) with
  | Ok cp -> cp
  | Error msg -> failwith msg

(* A Kraftwerk flow on a profile is one engine job, run as [place run]
   runs it: the job's result and the placements of its [Finished]
   event (the global one, and the legal one behind the result's
   metrics). *)
let job ?(objective = Engine.Objective.default) name =
  match
    Engine.Scheduler.run_job (Engine.Job.spec ~source:(source name) ~objective ())
  with
  | ({ Engine.Job.status = Engine.Job.Done; _ } as r), Some f -> (r, f)
  | { Engine.Job.status = Engine.Job.Failed msg; _ }, _ ->
    failwith (name ^ ": " ^ msg)
  | _ -> failwith (name ^ ": the job ended without a placement")

(* Annealer budgets shrink on the biggest circuits so the harness stays
   laptop-scale; the CPU column reports what was actually spent. *)
let annealer_config circuit =
  let n = Netlist.Circuit.num_movable circuit in
  let base = Baselines.Annealer.default_config in
  if n > 18_000 then { base with Baselines.Annealer.moves_per_cell = 4 }
  else if n > 9_000 then { base with Baselines.Annealer.moves_per_cell = 6 }
  else base

type flow_result = { wl : float; cpu : float }

(* Every CPU column times global plus final placement: ours is the
   job's wall time, a baseline is timed around its global placer and
   [Legalize.Finish.run], as [place run] times it. *)
let run_kraftwerk ?objective name =
  let r, _ = job ?objective name in
  { wl = r.Engine.Job.hpwl; cpu = r.Engine.Job.wall_s }

let run_baseline circuit global =
  let fin, cpu = time (fun () -> Legalize.Finish.run circuit (global ())) in
  { wl = Metrics.Wirelength.hpwl circuit fin.Legalize.Finish.placement; cpu }

let run_gordian circuit p0 =
  run_baseline circuit (fun () -> fst (Baselines.Gordian.place circuit p0))

let run_annealer circuit p0 =
  let config = annealer_config circuit in
  run_baseline circuit (fun () -> fst (Baselines.Annealer.place ~config circuit p0))

(* ------------------------------------------------------------------ *)
(* Tables 1 and 2: wire length and CPU across the nine circuits        *)

type t1_row = {
  name : string;
  cells : int;
  nets : int;
  rows : int;
  annealer : flow_result;
  gordian : flow_result;
  ours : flow_result;
}

let table1_rows = ref ([] : t1_row list)

let compute_table1 () =
  if !table1_rows = [] then
    table1_rows :=
      List.map
        (fun (prof : Circuitgen.Profiles.t) ->
          let name = prof.Circuitgen.Profiles.profile_name in
          let circuit, p0 = build_profile name in
          Printf.eprintf "[table1] %s (%d cells)...\n%!" name
            (Netlist.Circuit.num_cells circuit);
          {
            name;
            cells = Netlist.Circuit.num_cells circuit;
            nets = Netlist.Circuit.num_nets circuit;
            rows = Netlist.Circuit.num_rows circuit;
            annealer = run_annealer circuit p0;
            gordian = run_gordian circuit p0;
            ours = run_kraftwerk name;
          })
        Circuitgen.Profiles.mcnc;
  !table1_rows

let table1 () =
  let rows = compute_table1 () in
  print_endline "";
  print_endline
    "Table 1: wire length (HPWL, length units) and CPU (s) — legalised results";
  Printf.printf "%-11s %7s %7s %5s | %12s %8s | %12s %8s | %12s %8s\n" "circuit"
    "#cells" "#nets" "#rows" "SA wl" "SA cpu" "Gordian wl" "Go cpu" "Ours wl"
    "Ours cpu";
  List.iter
    (fun r ->
      Printf.printf "%-11s %7d %7d %5d | %12.4g %8.1f | %12.4g %8.1f | %12.4g %8.1f\n"
        r.name r.cells r.nets r.rows r.annealer.wl r.annealer.cpu r.gordian.wl
        r.gordian.cpu r.ours.wl r.ours.cpu)
    rows

let table2 () =
  let rows = compute_table1 () in
  print_endline "";
  print_endline
    "Table 2: wire-length improvement of our approach (positive = ours better)";
  Printf.printf "%-11s | %12s %9s | %12s %9s\n" "circuit" "vs SA %" "rel CPU"
    "vs Gordian %" "rel CPU";
  let acc_sa = ref 0. and acc_go = ref 0. and n = ref 0 in
  List.iter
    (fun r ->
      let imp_sa = 100. *. (r.annealer.wl -. r.ours.wl) /. r.annealer.wl in
      let imp_go = 100. *. (r.gordian.wl -. r.ours.wl) /. r.gordian.wl in
      acc_sa := !acc_sa +. imp_sa;
      acc_go := !acc_go +. imp_go;
      incr n;
      Printf.printf "%-11s | %12.1f %9.2f | %12.1f %9.2f\n" r.name imp_sa
        (r.ours.cpu /. Float.max r.annealer.cpu 1e-9)
        imp_go
        (r.ours.cpu /. Float.max r.gordian.cpu 1e-9))
    rows;
  Printf.printf "%-11s | %12.1f %9s | %12.1f %9s\n" "average"
    (!acc_sa /. float_of_int !n) "" (!acc_go /. float_of_int !n) "";
  (* Shape comparison against the paper's published ratios: the absolute
     wire lengths are not comparable (synthetic circuits), but the
     ours/baseline ratio is. *)
  print_endline "";
  print_endline
    "Paper-vs-measured shape: wire-length ratio ours/baseline (< 1 = ours wins)";
  Printf.printf "%-11s | %10s %10s | %10s %10s\n" "circuit" "paper o/TW"
    "meas o/SA" "paper o/Go" "meas o/Go";
  List.iter
    (fun r ->
      let prof = Circuitgen.Profiles.find r.name in
      let paper = prof.Circuitgen.Profiles.paper in
      let fmt_ratio num den =
        match (num, den) with
        | Some a, Some b when b > 0. -> Printf.sprintf "%10.2f" (a /. b)
        | _ -> Printf.sprintf "%10s" "-"
      in
      Printf.printf "%-11s | %s %10.2f | %s %10.2f\n" r.name
        (fmt_ratio paper.Circuitgen.Profiles.wl_ours
           paper.Circuitgen.Profiles.wl_timberwolf)
        (r.ours.wl /. r.annealer.wl)
        (fmt_ratio paper.Circuitgen.Profiles.wl_ours
           paper.Circuitgen.Profiles.wl_gordian)
        (r.ours.wl /. r.gordian.wl))
    rows

(* ------------------------------------------------------------------ *)
(* Tables 3 and 4: timing                                              *)

let timing_circuits = [ "fract"; "struct"; "biomed"; "avq.small"; "avq.large" ]

type t3_row = {
  tname : string;
  lower : float;
  sa_without : float;
  sa_with : float;
  sa_cpu : float;
  ours_without : float;
  ours_with : float;
  ours_cpu : float;
}

let table34_rows = ref ([] : t3_row list)

let compute_table34 () =
  if !table34_rows = [] then
    table34_rows :=
      List.map
        (fun name ->
          let circuit, p0 = build_profile name in
          Printf.eprintf "[table3/4] %s...\n%!" name;
          let tp = Timing.Params.default in
          let lower = Timing.Sta.lower_bound tp circuit in
          (* Ours: a wirelength job without, a timing-goal job with;
             each delay is measured on the job's global placement. *)
          let delay_of (f : Engine.Scheduler.final) =
            (Timing.Sta.analyse tp circuit f.Engine.Scheduler.global)
              .Timing.Sta.max_delay
          in
          let plain, plain_final = job name in
          let driven, driven_final =
            job
              ~objective:(Engine.Objective.make ~goal:Engine.Objective.Timing ())
              name
          in
          (* Timing-driven annealing baseline, timed with the final
             placer as ours is. *)
          let config = annealer_config circuit in
          let sa, sa_cpu =
            time (fun () ->
                let r = Baselines.Timing_sa.place ~config ~params:tp circuit p0 in
                ignore (Legalize.Finish.run circuit r.Baselines.Timing_sa.placement);
                r)
          in
          {
            tname = name;
            lower;
            sa_without = sa.Baselines.Timing_sa.initial_delay;
            sa_with = sa.Baselines.Timing_sa.final_delay;
            sa_cpu;
            ours_without = delay_of plain_final;
            ours_with = delay_of driven_final;
            ours_cpu = plain.Engine.Job.wall_s +. driven.Engine.Job.wall_s;
          })
        timing_circuits;
  !table34_rows

let table3 () =
  let rows = compute_table34 () in
  print_endline "";
  print_endline "Table 3: longest path (ns) without / with timing optimisation";
  Printf.printf "%-11s | %9s %9s %8s | %9s %9s %8s\n" "circuit" "SA w/o"
    "SA with" "SA cpu" "Ours w/o" "Ours with" "Ours cpu";
  List.iter
    (fun r ->
      Printf.printf "%-11s | %9.2f %9.2f %8.1f | %9.2f %9.2f %8.1f\n" r.tname
        (r.sa_without *. 1e9) (r.sa_with *. 1e9) r.sa_cpu
        (r.ours_without *. 1e9) (r.ours_with *. 1e9) r.ours_cpu)
    rows

let table4 () =
  let rows = compute_table34 () in
  print_endline "";
  print_endline
    "Table 4: exploitation of the optimisation potential (higher = better)";
  Printf.printf "%-11s | %10s | %8s %8s | %8s %8s\n" "circuit" "lower ns"
    "SA expl" "rel CPU" "Ours" "rel CPU";
  let acc_sa = ref 0. and acc_ours = ref 0. and n = ref 0 in
  List.iter
    (fun r ->
      let e_sa =
        Timing.Driven.exploitation ~unoptimized:r.sa_without
          ~optimized:r.sa_with ~lower_bound:r.lower
      in
      let e_ours =
        Timing.Driven.exploitation ~unoptimized:r.ours_without
          ~optimized:r.ours_with ~lower_bound:r.lower
      in
      acc_sa := !acc_sa +. e_sa;
      acc_ours := !acc_ours +. e_ours;
      incr n;
      Printf.printf "%-11s | %10.2f | %7.0f%% %8.2f | %7.0f%% %8.2f\n" r.tname
        (r.lower *. 1e9) (100. *. e_sa)
        (r.sa_cpu /. Float.max r.ours_cpu 1e-9)
        (100. *. e_ours) 1.0)
    rows;
  Printf.printf "%-11s | %10s | %7.0f%% %8s | %7.0f%% %8s\n" "average" ""
    (100. *. !acc_sa /. float_of_int !n)
    "" (100. *. !acc_ours /. float_of_int !n) ""

(* ------------------------------------------------------------------ *)
(* E5: fast mode vs standard mode                                      *)

let fast_mode () =
  print_endline "";
  print_endline "E5: fast mode (K = 0.2) vs standard mode (K = 0.05), §6.1";
  Printf.printf "%-11s | %12s %8s | %12s %8s | %8s %8s\n" "circuit" "std wl"
    "std cpu" "fast wl" "fast cpu" "wl +%" "speedup";
  let acc_wl = ref 0. and acc_sp = ref 0. and n = ref 0 in
  List.iter
    (fun name ->
      let std = run_kraftwerk name in
      let fast =
        run_kraftwerk
          ~objective:(Engine.Objective.make ~mode:Engine.Objective.Fast ())
          name
      in
      let dwl = 100. *. (fast.wl -. std.wl) /. std.wl in
      let sp = std.cpu /. Float.max fast.cpu 1e-9 in
      acc_wl := !acc_wl +. dwl;
      acc_sp := !acc_sp +. sp;
      incr n;
      Printf.printf "%-11s | %12.4g %8.1f | %12.4g %8.1f | %+7.1f%% %7.1fx\n"
        name std.wl std.cpu fast.wl fast.cpu dwl sp)
    [ "fract"; "primary1"; "struct"; "primary2"; "biomed" ];
  Printf.printf "%-11s | %12s %8s | %12s %8s | %+7.1f%% %7.1fx\n" "average" ""
    "" "" ""
    (!acc_wl /. float_of_int !n)
    (!acc_sp /. float_of_int !n)

(* ------------------------------------------------------------------ *)
(* E6: timing-requirement trade-off curve                              *)

let tradeoff () =
  print_endline "";
  print_endline
    "E6: timing/area trade-off — two-phase requirement mode on biomed (§5)";
  let circuit, p0 = build_profile "biomed" in
  let tp = Timing.Params.default in
  let lower = Timing.Sta.lower_bound tp circuit in
  (* First find the area-converged delay (a wirelength job's global
     placement), then require 45 % of the optimisation potential —
     inside what E3/E4 show is achievable. *)
  let _, probe = job "biomed" in
  let converged =
    (Timing.Sta.analyse tp circuit probe.Engine.Scheduler.global)
      .Timing.Sta.max_delay
  in
  let target = converged -. (0.45 *. (converged -. lower)) in
  let r =
    Timing.Driven.meet_requirement ~params:tp ~max_extra_steps:40
      Kraftwerk.Config.standard circuit p0 ~target
  in
  Printf.printf "lower bound %.2f ns; area-converged %.2f ns; target %.2f ns; met=%b\n"
    (lower *. 1e9)
    (r.Timing.Driven.initial_delay *. 1e9)
    (target *. 1e9) r.Timing.Driven.met;
  Printf.printf "%6s %14s %10s\n" "step" "hpwl" "delay ns";
  List.iter
    (fun (pt : Timing.Driven.trace_point) ->
      Printf.printf "%6d %14.4g %10.2f\n" pt.Timing.Driven.at_step
        pt.Timing.Driven.hpwl
        (pt.Timing.Driven.delay *. 1e9))
    r.Timing.Driven.trace

(* ------------------------------------------------------------------ *)
(* E7: ECO stability                                                   *)

let eco () =
  print_endline "";
  print_endline "E7: ECO — netlist perturbation and incremental re-placement (§5)";
  let circuit, p0 = build_profile "biomed" in
  let state, _ = Kraftwerk.Placer.run Kraftwerk.Config.standard circuit p0 in
  let placed = state.Kraftwerk.Placer.placement in
  let rng = Numeric.Rng.create 123 in
  let circuit' = Kraftwerk.Eco.rewire circuit rng ~fraction:0.02 in
  let circuit' =
    Kraftwerk.Eco.resize circuit' rng ~fraction:0.05 ~scale_range:(1.2, 1.6)
  in
  let adapted, reports =
    Kraftwerk.Eco.replace Kraftwerk.Config.standard circuit'
      (Netlist.Placement.copy placed) ~max_steps:12
  in
  let region = circuit.Netlist.Circuit.region in
  let diag =
    sqrt
      (((Geometry.Rect.width region) ** 2.)
      +. ((Geometry.Rect.height region) ** 2.))
  in
  let n_mov = Netlist.Circuit.num_movable circuit in
  let mean_disp =
    Netlist.Placement.displacement placed adapted /. float_of_int n_mov
  in
  Printf.printf
    "2%% nets rewired + 5%% gates resized; %d transformations\n"
    (List.length reports);
  Printf.printf "mean displacement %.2f units (%.2f%% of die diagonal), max %.1f\n"
    mean_disp
    (100. *. mean_disp /. diag)
    (Netlist.Placement.max_displacement placed adapted);
  Printf.printf "hpwl before %.4g, after %.4g\n"
    (Metrics.Wirelength.hpwl circuit placed)
    (Metrics.Wirelength.hpwl circuit' adapted)

(* ------------------------------------------------------------------ *)
(* E8: mixed block/cell floorplanning                                  *)

let floorplan () =
  print_endline "";
  print_endline "E8: mixed block/cell floorplanning (§5)";
  Printf.printf "%-11s %7s %7s | %12s %12s %9s %6s\n" "circuit" "#cells"
    "#blocks" "global wl" "final wl" "blk disp" "legal";
  List.iter
    (fun (name, blocks) ->
      let prof = Circuitgen.Profiles.find name in
      let params =
        { (Circuitgen.Profiles.params ~scale:!scale prof ~seed:!seed) with
          Circuitgen.Gen.num_blocks = blocks }
      in
      let circuit, pads = Circuitgen.Gen.generate params in
      let p0 = Circuitgen.Gen.initial_placement circuit pads in
      let r =
        match Floorplan.Mixed.place Kraftwerk.Config.standard circuit p0 with
        | Ok r -> r
        | Error msg -> failwith msg
      in
      let rects = Floorplan.Mixed.block_rects circuit r.Floorplan.Mixed.placement in
      let block_overlaps = ref 0 in
      List.iteri
        (fun i (_, a) ->
          List.iteri
            (fun j (_, b) ->
              if j > i && Geometry.Rect.overlap_area a b > 1e-6 then
                incr block_overlaps)
            rects)
        rects;
      Printf.printf "%-11s %7d %7d | %12.4g %12.4g %9.1f %6b\n" name
        (Netlist.Circuit.num_cells circuit)
        blocks r.Floorplan.Mixed.hpwl_global r.Floorplan.Mixed.hpwl_final
        r.Floorplan.Mixed.block_displacement
        (!block_overlaps = 0
        && Legalize.Check.is_legal circuit r.Floorplan.Mixed.placement))
    [ ("primary1", 8); ("struct", 10); ("biomed", 14) ]

(* ------------------------------------------------------------------ *)
(* E9/E10: congestion- and heat-driven placement                       *)

let congestion () =
  print_endline "";
  print_endline "E9: congestion-driven placement (§5)";
  let circuit, _ = build_profile "industry2" in
  let run goal =
    let objective = Engine.Objective.make ~goal () in
    let _, final = job ~objective "industry2" in
    let p = final.Engine.Scheduler.global in
    (* The estimator drives the loop; the actual coarse global router
       validates the global placement — both on the same grid spec. *)
    let spec =
      Kraftwerk.Placer.route_spec (Engine.Objective.config objective) circuit
    in
    let est =
      match Route.Congest.estimate circuit p spec with
      | Ok e -> e.Route.Congest.total_overflow
      | Error _ -> Float.nan
    in
    let rt, rwl =
      match Route.Grouter.route circuit p spec with
      | Ok r -> (r.Route.Grouter.total_overflow, r.Route.Grouter.total_wirelength)
      | Error _ -> (Float.nan, Float.nan)
    in
    (Metrics.Wirelength.hpwl circuit p, est, rt, rwl)
  in
  let wl0, est0, rt0, rwl0 = run Engine.Objective.Wirelength in
  let wl1, est1, rt1, rwl1 = run Engine.Objective.Routability in
  Printf.printf
    "plain:             hpwl %.4g  est overflow %.4g  routed overflow %.4g  routed wl %.4g\n"
    wl0 est0 rt0 rwl0;
  Printf.printf
    "congestion-driven: hpwl %.4g  est overflow %.4g (%+.1f%%)  routed overflow %.4g (%+.1f%%)  routed wl %.4g\n"
    wl1 est1
    (100. *. (est1 -. est0) /. Float.max est0 1e-9)
    rt1
    (100. *. (rt1 -. rt0) /. Float.max rt0 1e-9)
    rwl1

let heat () =
  print_endline "";
  print_endline "E10: heat-driven placement (§5)";
  let circuit, p0 = build_profile "biomed" in
  let nx, ny = Density.Density_map.auto_bins circuit in
  let run hooks =
    let state, _ = Kraftwerk.Placer.run ?hooks Kraftwerk.Config.standard circuit p0 in
    let p = state.Kraftwerk.Placer.placement in
    (Metrics.Wirelength.hpwl circuit p,
     (Route.Heat.analyse circuit p ~nx ~ny).Route.Heat.peak)
  in
  let wl0, pk0 = run None in
  let hooks =
    { Kraftwerk.Placer.no_hooks with
      Kraftwerk.Placer.extra_density =
        Some (fun c p ~nx ~ny -> Route.Heat.extra_density ~strength:1.0 c p ~nx ~ny) }
  in
  let wl1, pk1 = run (Some hooks) in
  Printf.printf "plain:       hpwl %.4g  peak heat %.4g\n" wl0 pk0;
  Printf.printf "heat-driven: hpwl %.4g  peak heat %.4g (%+.1f%%)\n" wl1 pk1
    (100. *. (pk1 -. pk0) /. Float.max pk0 1e-30)

(* ------------------------------------------------------------------ *)
(* A2: linearisation ablation                                          *)

let linearization () =
  print_endline "";
  print_endline
    "A2: net-weight linearisation ablation — quadratic vs GORDIAN-L scaling";
  Printf.printf "%-11s | %12s %6s | %12s %6s\n" "circuit" "quad wl" "steps"
    "linear wl" "steps";
  List.iter
    (fun name ->
      let circuit, p0 = build_profile name in
      let run cfg =
        let state, reports = Kraftwerk.Placer.run cfg circuit p0 in
        ( Metrics.Wirelength.hpwl circuit
            (Legalize.Finish.run circuit state.Kraftwerk.Placer.placement)
              .Legalize.Finish.placement,
          List.length reports )
      in
      let qwl, qs = run Kraftwerk.Config.standard in
      let lwl, ls =
        run { Kraftwerk.Config.standard with Kraftwerk.Config.linearize = true }
      in
      Printf.printf "%-11s | %12.4g %6d | %12.4g %6d\n" name qwl qs lwl ls)
    [ "fract"; "primary1"; "struct" ]

(* ------------------------------------------------------------------ *)
(* A4: final-placer ablation                                           *)

let final_placer () =
  print_endline "";
  print_endline
    "A4: final-placement ablation — Abacus alone, +improve, +Domino flow/reorder";
  Printf.printf "%-11s | %12s %12s %12s %12s\n" "circuit" "abacus" "+improve"
    "+domino" "tetris ref";
  List.iter
    (fun name ->
      let circuit, p0 = build_profile name in
      let state, _ = Kraftwerk.Placer.run Kraftwerk.Config.standard circuit p0 in
      let global = state.Kraftwerk.Placer.placement in
      let abacus = (Legalize.Abacus.legalize circuit global ()).Legalize.Abacus.placement in
      let w_abacus = Metrics.Wirelength.hpwl circuit abacus in
      let improved = Netlist.Placement.copy abacus in
      ignore (Legalize.Improve.run circuit improved);
      let w_improved = Metrics.Wirelength.hpwl circuit improved in
      ignore (Legalize.Domino.run circuit improved);
      let w_domino = Metrics.Wirelength.hpwl circuit improved in
      let w_tetris =
        match Legalize.Tetris.legalize circuit global () with
        | Ok rep -> Metrics.Wirelength.hpwl circuit rep.Legalize.Tetris.placement
        | Error e -> Format.kasprintf failwith "tetris: %a" Legalize.Tetris.pp_error e
      in
      Printf.printf "%-11s | %12.4g %12.4g %12.4g %12.4g\n" name w_abacus
        w_improved w_domino w_tetris)
    [ "fract"; "primary1"; "struct" ]

(* ------------------------------------------------------------------ *)
(* A5: multilevel (clustered) placement extension                      *)

let multilevel () =
  print_endline "";
  print_endline
    "A5: multilevel extension — cluster, place coarse, expand, refine";
  Printf.printf "%-11s | %12s %8s | %12s %8s | %8s\n" "circuit" "flat wl"
    "cpu" "multilevel wl" "cpu" "wl Δ%";
  List.iter
    (fun name ->
      let flat = run_kraftwerk name in
      let ml =
        run_kraftwerk
          ~objective:
            (Engine.Objective.make ~flow:Engine.Objective.Multilevel ())
          name
      in
      Printf.printf "%-11s | %12.4g %8.1f | %12.4g %8.1f | %+7.1f%%\n" name
        flat.wl flat.cpu ml.wl ml.cpu
        (100. *. (ml.wl -. flat.wl) /. flat.wl))
    [ "primary1"; "struct"; "biomed" ]

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks (A1, A3 and kernel costs)                 *)

(* The host's core count, recorded beside every committed timing so
   that numbers are compared like with like; every kernel runs on one
   domain whatever it is. *)
let cores () = Domain.recommended_domain_count ()

(* Machine-readable kernel timings, so later PRs inherit a perf
   trajectory.  Written next to wherever the bench runs. *)
let write_kernels_json path rows =
  let oc = open_out path in
  Printf.fprintf oc
    "{\n  \"git\": %S,\n  \"cores\": %d,\n  \"scale\": %g,\n  \"kernels_ns\": {\n"
    (git_revision ()) (cores ()) !scale;
  let n = List.length rows in
  List.iteri
    (fun i (name, est) ->
      Printf.fprintf oc "    %S: %.1f%s\n" name est
        (if i < n - 1 then "," else ""))
    rows;
  Printf.fprintf oc "  },\n  \"speedups\": {\n";
  let ratio num den =
    match (List.assoc_opt num rows, List.assoc_opt den rows) with
    | Some a, Some b when b > 0. && Float.is_finite a -> a /. b
    | _ -> Float.nan
  in
  let speedups =
    [
      ( "fft_kernel_cache",
        ratio "kernels/poisson-fft-48-cold" "kernels/poisson-fft-48-warm" );
      ( "qp_refill",
        ratio "kernels/qp-assemble-primary1" "kernels/qp-refill-primary1" );
    ]
  in
  let ns = List.length speedups in
  List.iteri
    (fun i (name, v) ->
      let s = if Float.is_nan v then "null" else Printf.sprintf "%.3f" v in
      Printf.fprintf oc "    %S: %s%s\n" name s (if i < ns - 1 then "," else ""))
    speedups;
  Printf.fprintf oc "  }\n}\n";
  close_out oc;
  Printf.printf "wrote %s\n" path

let micro_run () =
  print_endline "";
  print_endline "Micro-benchmarks (bechamel): numerical kernels";
  Printf.printf "host: %d core(s)\n" (cores ());
  let open Bechamel in
  let density_grid n =
    let rng = Numeric.Rng.create 5 in
    Array.init (n * n) (fun _ -> Numeric.Rng.uniform rng (-1.) 1.)
  in
  let g24 = density_grid 24 in
  let g48 = density_grid 48 in
  let circuit, p0 = build_profile "primary1" in
  let state, _ = Kraftwerk.Placer.run Kraftwerk.Config.standard circuit p0 in
  let placed = state.Kraftwerk.Placer.placement in
  let weights = Array.make (Netlist.Circuit.num_nets circuit) 1. in
  let system =
    Qp.System.build circuit ~placement:placed ~net_weights:weights
      ~edge_scale:Qp.Weights.Quadratic ()
  in
  let n_mov = Qp.System.num_movable system in
  (* SpMV on the real placement matrix, and cold vs warm FFT force
     field (kernel-spectrum cache): the before/after pair behind
     BENCH_kernels.json's fft_kernel_cache speedup. *)
  let spmv_m = Qp.System.matrix system in
  let spmv_x =
    Array.init (Numeric.Sparse.dim spmv_m) (fun i ->
        Float.of_int ((i mod 97) - 48) /. 97.)
  in
  let spmv_y = Array.make (Numeric.Sparse.dim spmv_m) 0. in
  let tests =
    [
      Test.make ~name:"spmv-primary1"
        (Staged.stage (fun () -> Numeric.Sparse.mul spmv_m spmv_x spmv_y));
      Test.make ~name:"poisson-fft-48-cold"
        (Staged.stage (fun () ->
             Numeric.Poisson.clear_kernel_cache ();
             Numeric.Poisson.fft_force_field ~rows:48 ~cols:48 ~hx:1. ~hy:1. g48));
      Test.make ~name:"poisson-fft-48-warm"
        (Staged.stage (fun () ->
             (* First call of the run warms the cache; steady state hits it. *)
             Numeric.Poisson.fft_force_field ~rows:48 ~cols:48 ~hx:1. ~hy:1. g48));
      Test.make ~name:"poisson-direct-24"
        (Staged.stage (fun () ->
             Numeric.Poisson.direct_force_field ~rows:24 ~cols:24 ~hx:1. ~hy:1. g24));
      Test.make ~name:"poisson-fft-24"
        (Staged.stage (fun () ->
             Numeric.Poisson.fft_force_field ~rows:24 ~cols:24 ~hx:1. ~hy:1. g24));
      Test.make ~name:"poisson-fft-48"
        (Staged.stage (fun () ->
             Numeric.Poisson.fft_force_field ~rows:48 ~cols:48 ~hx:1. ~hy:1. g48));
      Test.make ~name:"poisson-sor-24"
        (Staged.stage (fun () ->
             Numeric.Poisson.sor_potential ~rows:24 ~cols:24 ~hx:1. ~hy:1.
               ~max_iter:500 g24));
      Test.make ~name:"qp-assemble-primary1"
        (Staged.stage (fun () ->
             Qp.System.build circuit ~placement:placed ~net_weights:weights
               ~edge_scale:Qp.Weights.Quadratic ()));
      Test.make ~name:"qp-refill-primary1"
        (Staged.stage
           (let asm = Qp.System.assembly circuit () in
            (* First rebuild compiles the pattern; the measured steady
               state scatters the values straight into its slots.  Two
               net-weight vectors of one structure alternate, so no call
               is a value-cache hit. *)
            let alternate = Array.map (fun w -> w *. 1.5) weights in
            let flip = ref false in
            ignore
              (Qp.System.rebuild asm ~placement:placed ~net_weights:weights
                 ~edge_scale:Qp.Weights.Quadratic ());
            fun () ->
              flip := not !flip;
              Qp.System.rebuild asm ~placement:placed
                ~net_weights:(if !flip then alternate else weights)
                ~edge_scale:Qp.Weights.Quadratic ()));
      Test.make ~name:"qp-solve-primary1"
        (Staged.stage (fun () ->
             Qp.System.solve system
               ~placement:(Netlist.Placement.copy placed)
               ~ex:(Array.make n_mov 0.) ~ey:(Array.make n_mov 0.)));
      Test.make ~name:"kraftwerk-transform-primary1"
        (Staged.stage
           (* One steady-state global iteration: assembly, density forces,
              solve and splat through the state's reused buffers.  UB
              probes are off, so every measured call is the same work. *)
           (let config =
              { Kraftwerk.Config.standard with Kraftwerk.Config.legalize_every = 0 }
            in
            let state = Kraftwerk.Placer.init config circuit p0 in
            for _ = 1 to 5 do
              ignore (Kraftwerk.Placer.transform state)
            done;
            fun () -> Kraftwerk.Placer.transform state));
      Test.make ~name:"cluster-hierarchy-primary1"
        (Staged.stage
           (* The V-cycle's coarsening pass alone: affinity rows,
              FirstChoice and the coarse circuit, three levels deep at
              threshold 40. *)
           (let config =
              { Kraftwerk.Config.standard with Kraftwerk.Config.ml_threshold = 40 }
            in
            let fixed_positions =
              Array.to_list circuit.Netlist.Circuit.cells
              |> List.filter_map (fun (cl : Netlist.Cell.t) ->
                     let id = cl.Netlist.Cell.id in
                     if cl.Netlist.Cell.fixed then
                       Some
                         (id, (p0.Netlist.Placement.x.(id), p0.Netlist.Placement.y.(id)))
                     else None)
            in
            fun () ->
              Kraftwerk.Cluster.build_hierarchy config circuit ~fixed_positions));
      Test.make ~name:"finishing-primary1"
        (Staged.stage
           (* The final placer after Abacus: Improve then Domino on a
              fresh copy of the legal placement each run. *)
           (let legal =
              (Legalize.Abacus.legalize circuit placed ()).Legalize.Abacus.placement
            in
            fun () ->
              let p = Netlist.Placement.copy legal in
              ignore (Legalize.Improve.run circuit p);
              Legalize.Domino.run circuit p));
      Test.make ~name:"density-map-primary1"
        (Staged.stage (fun () ->
             let nx, ny = Density.Density_map.auto_bins circuit in
             Density.Density_map.balance
               (Density.Density_map.demand circuit placed ~nx ~ny)));
      Test.make ~name:"sta-primary1"
        (Staged.stage (fun () ->
             Timing.Sta.analyse Timing.Params.default circuit placed));
      Test.make ~name:"hpwl-primary1"
        (Staged.stage (fun () -> Metrics.Wirelength.hpwl circuit placed));
      Test.make ~name:"float-text-primary1"
        (Staged.stage
           (* primary1's .ckt text into a buffer with room: mostly the
              %.17g text of its sizes, delays, powers and pin offsets. *)
           (let buf = Buffer.create (1 lsl 20) in
            fun () ->
              Buffer.clear buf;
              Netlist.Io.add_circuit buf circuit));
      Test.make ~name:"netlist-load-primary1"
        (Staged.stage
           (* What a served job pays to read its input: primary1's .ckt
              and its .pos sidecar, as Io writes them. *)
           (let file = Filename.temp_file "bench_load" ".ckt" in
            let pos = file ^ ".pos" in
            at_exit (fun () -> List.iter Sys.remove [ file; pos ]);
            Netlist.Io.save_circuit file circuit;
            Netlist.Io.save_placement pos placed;
            let cells = Netlist.Circuit.num_cells circuit in
            fun () ->
              ( Netlist.Io.load_circuit file,
                Netlist.Io.load_placement pos ~num_cells:cells )));
      Test.make ~name:"assignment-16x16"
        (Staged.stage
           (let rng = Numeric.Rng.create 9 in
            let costs =
              Array.init 16 (fun _ ->
                  Array.init 16 (fun _ -> Numeric.Rng.uniform rng 0. 100.))
            in
            fun () -> Numeric.Mincostflow.assignment ~costs));
      Test.make ~name:"grouter-primary1"
        (Staged.stage (fun () ->
             let nx, ny = Density.Density_map.auto_bins circuit in
             Route.Grouter.route circuit placed (Route.Grid_spec.make ~nx ~ny ())));
      Test.make ~name:"congest-estimate-primary1"
        (Staged.stage (fun () ->
             let nx, ny = Density.Density_map.auto_bins circuit in
             Route.Congest.estimate circuit placed (Route.Grid_spec.make ~nx ~ny ())));
    ]
  in
  let test = Test.make_grouped ~name:"kernels" tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let raw = Benchmark.all cfg instances test in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      match Analyze.OLS.estimates ols_result with
      | Some [ est ] -> rows := (name, est) :: !rows
      | Some _ | None -> rows := (name, Float.nan) :: !rows)
    results;
  (* Large-grid Poisson rows.  A single 512² call costs over a hundred
     milliseconds — past bechamel's quota — so these rows come from a
     plain monotonic loop instead; the first call warms the kernel
     spectra and workspaces and is excluded from the measurement. *)
  List.iter
    (fun n ->
      let g = density_grid n in
      let reps = if n >= 256 then 3 else 6 in
      let solve () =
        ignore (Numeric.Poisson.fft_force_field ~rows:n ~cols:n ~hx:1. ~hy:1. g)
      in
      solve ();
      let t0 = Unix.gettimeofday () in
      for _ = 1 to reps do
        solve ()
      done;
      let ns = (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int reps in
      rows := (Printf.sprintf "kernels/poisson-real-%d" n, ns) :: !rows)
    [ 96; 128; 256; 512 ];
  List.iter
    (fun (name, est) ->
      if Float.is_nan est then Printf.printf "%-34s (no estimate)\n" name
      else Printf.printf "%-34s %14.0f ns/run\n" name est)
    (List.sort compare !rows);
  write_kernels_json "BENCH_kernels.json" (List.sort compare !rows);
  let failed =
    List.filter_map
      (fun (name, est) -> if Float.is_nan est then Some name else None)
      !rows
  in
  if failed <> [] then begin
    Printf.eprintf "micro: no estimate for: %s\n" (String.concat ", " failed);
    exit 1
  end

(* A kernel that raises (or yields no estimate) must fail the harness
   visibly — CI treats BENCH_kernels.json as trustworthy only when the
   run exits 0. *)
let micro () =
  try micro_run ()
  with e ->
    Printf.eprintf "micro: kernel benchmark failed: %s\n" (Printexc.to_string e);
    exit 1

(* ------------------------------------------------------------------ *)
(* Effort and routability rows → BENCH_place.json                      *)

let place_bench_profiles = [ "fract"; "primary1" ]

(* Per-effort convergence rows: iterations-to-converge, the stop
   criterion that fired (the job's stop reason) and the final placer's
   (Legalize.Finish) HPWL the integration suite's effort gate checks
   regressions against.  Each row is also printed. *)
let effort_entries name circuit =
  List.map
    (fun e ->
      let objective = Engine.Objective.make ~effort:e () in
      let r, final = job ~objective name in
      let reason =
        Option.map Kraftwerk.Controller.reason_to_string r.Engine.Job.stop_reason
      in
      Printf.printf "%-11s effort %d  %4d iterations  final %12.4g  (%s)\n" name
        e r.Engine.Job.iterations r.Engine.Job.hpwl
        (Option.value reason ~default:"budget");
      let num v = Obs.Json.Num v in
      ( string_of_int e,
        Obs.Json.Obj
          [
            ("iterations", num (float_of_int r.Engine.Job.iterations));
            ( "max_iterations",
              num
                (float_of_int
                   (Engine.Objective.config objective)
                     .Kraftwerk.Config.max_iterations) );
            ("wall_s", num r.Engine.Job.wall_s);
            ( "stop_reason",
              match reason with
              | Some r -> Obs.Json.Str r
              | None -> Obs.Json.Null );
            ( "final_hpwl_global",
              num (Metrics.Wirelength.hpwl circuit final.Engine.Scheduler.global) );
            ("final_hpwl_legalized", num r.Engine.Job.hpwl);
          ] ))
    [ 1; 5; 9 ]

(* Routability closed-loop rows: wirelength vs routability objective at
   equal effort, both legalized and validated with the actual global
   router on the same grid spec (the routability job validates its own
   result).  The integration suite gates the routed overflow of these
   rows like it gates HPWL.  The row is also printed. *)
let routability_entries name circuit =
  let wl, wl_final = job name in
  let rt, _ =
    job
      ~objective:(Engine.Objective.make ~goal:Engine.Objective.Routability ())
      name
  in
  let wl_ovfl, wl_max =
    match
      Route.Grouter.route circuit wl_final.Engine.Scheduler.legal
        (Kraftwerk.Placer.route_spec Kraftwerk.Config.standard circuit)
    with
    | Ok r -> (r.Route.Grouter.total_overflow, r.Route.Grouter.max_overflow)
    | Error _ -> (Float.nan, Float.nan)
  in
  let routed v = Option.value v ~default:Float.nan in
  let rt_ovfl = routed rt.Engine.Job.routed_overflow
  and rt_max = routed rt.Engine.Job.routed_max_overflow in
  let wl_hpwl = wl.Engine.Job.hpwl and rt_hpwl = rt.Engine.Job.hpwl in
  let reduction = 100. *. (wl_ovfl -. rt_ovfl) /. Float.max wl_ovfl 1e-9 in
  let delta = 100. *. (rt_hpwl -. wl_hpwl) /. wl_hpwl in
  Printf.printf
    "%-11s routed overflow %8.4g -> %8.4g (-%.1f%%)  hpwl %+.2f%%\n" name
    wl_ovfl rt_ovfl reduction delta;
  let num v = Obs.Json.Num v in
  Obs.Json.Obj
    [
      ("hpwl_wirelength", num wl_hpwl);
      ("hpwl_routability", num rt_hpwl);
      ("routed_overflow_wirelength", num wl_ovfl);
      ("routed_overflow_routability", num rt_ovfl);
      ("routed_max_overflow_wirelength", num wl_max);
      ("routed_max_overflow_routability", num rt_max);
      ("overflow_reduction_pct", num reduction);
      ("hpwl_delta_pct", num delta);
    ]

let place_bench () =
  print_endline "";
  print_endline "Placement bench: effort matrix and routability rows";
  let built = List.map (fun name -> (name, build_profile name)) place_bench_profiles in
  let efforts =
    List.map
      (fun (name, (circuit, _)) ->
        Printf.eprintf "[place-bench] %s effort matrix...\n%!" name;
        (name, Obs.Json.Obj (effort_entries name circuit)))
      built
  in
  let routability =
    List.map
      (fun (name, (circuit, _)) ->
        Printf.eprintf "[place-bench] %s routability...\n%!" name;
        (name, routability_entries name circuit))
      built
  in
  let doc =
    Obs.Json.Obj
      [
        ("git", Obs.Json.Str (git_revision ()));
        ("cores", Obs.Json.Num (float_of_int (cores ())));
        ("scale", Obs.Json.Num !scale);
        ("efforts", Obs.Json.Obj efforts);
        ("routability", Obs.Json.Obj routability);
      ]
  in
  let oc = open_out "BENCH_place.json" in
  output_string oc (Obs.Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  print_endline "wrote BENCH_place.json"

(* ------------------------------------------------------------------ *)
(* Mega scaling suite (production-scale circuits) → BENCH_mega.json    *)

(* Peak resident set (VmHWM) in MB.  The high-water mark is process
   global and monotone, so the suite runs circuits smallest-first and
   each row's snapshot bounds everything up to and including it. *)
let peak_rss_mb () =
  try
    let ic = open_in "/proc/self/status" in
    let rec scan () =
      match input_line ic with
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        close_in ic;
        Scanf.sscanf
          (String.sub line 6 (String.length line - 6))
          " %d kB"
          (fun kb -> float_of_int kb /. 1024.)
      | _ -> scan ()
      | exception End_of_file ->
        close_in ic;
        Float.nan
    in
    scan ()
  with _ -> Float.nan

(* Explicit density grids per profile: [Density_map.auto_bins] clamps at
   128 bins per axis, which is too coarse past a few hundred thousand
   cells, so the scaling suite pins the grid and records it per row. *)
let mega_grid cells =
  if cells >= 750_000 then (384, 384)
  else if cells >= 400_000 then (256, 256)
  else if cells >= 200_000 then (192, 192)
  else (128, 128)

type mega_row = {
  mg_profile : string;
  mg_cells : int;
  mg_nets : int;
  mg_flow : string;  (* "flat" | "multilevel" *)
  mg_grid : int * int;
  mg_levels : int;  (* coarsening levels; 0 for the flat flow *)
  mg_iterations : int;
  mg_ms_per_iter : float;
  mg_total_ms : float;
  mg_hpwl : float;  (* nan for flat probes (not run to convergence) *)
  mg_peak_rss_mb : float;
}

let write_mega_json path rows =
  let num v =
    if Float.is_nan v then Obs.Json.Null else Obs.Json.Num v
  in
  let row r =
    let nx, ny = r.mg_grid in
    Obs.Json.Obj
      [
        ("profile", Obs.Json.Str r.mg_profile);
        ("cells", Obs.Json.Num (float_of_int r.mg_cells));
        ("nets", Obs.Json.Num (float_of_int r.mg_nets));
        ("flow", Obs.Json.Str r.mg_flow);
        ( "grid",
          Obs.Json.Arr
            [ Obs.Json.Num (float_of_int nx); Obs.Json.Num (float_of_int ny) ]
        );
        ("levels", Obs.Json.Num (float_of_int r.mg_levels));
        ("iterations", Obs.Json.Num (float_of_int r.mg_iterations));
        ("ms_per_iter", num r.mg_ms_per_iter);
        ("total_ms", num r.mg_total_ms);
        ("hpwl", num r.mg_hpwl);
        ("peak_rss_mb", num r.mg_peak_rss_mb);
      ]
  in
  let doc =
    Obs.Json.Obj
      [
        ("git", Obs.Json.Str (git_revision ()));
        ("cores", Obs.Json.Num (float_of_int (cores ())));
        ("scale", Obs.Json.Num !scale);
        ("seed", Obs.Json.Num (float_of_int !seed));
        ( "note",
          Obs.Json.Str
            "flat rows time a fixed number of transformations from the \
             initial state (per-iteration cost probe); multilevel rows run \
             the V-cycle to completion" );
        ("rows", Obs.Json.Arr (List.map row rows));
      ]
  in
  let oc = open_out path in
  output_string oc (Obs.Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n%!" path

(* The scaling suite behind the multilevel V-cycle: for each mega
   profile, probe the flat flow's per-iteration cost (a handful of
   transformations — full flat convergence at 10⁶ cells is the problem
   the V-cycle exists to avoid) and run the multilevel flow end to end,
   recording ms/iteration, final wire length and peak RSS.

   Not part of the default everything-run: generating and placing the
   million-cell circuit takes minutes, so CI and humans opt in with
   [--mega] (optionally with [--scale] to shrink for smoke tests). *)
let mega_bench () =
  print_endline "";
  Printf.printf "Mega scaling suite (scale %g, %d core(s))\n" !scale (cores ());
  Printf.printf "%-9s | %9s | %-10s | %7s | %6s | %10s | %9s | %8s\n"
    "profile" "cells" "flow" "grid" "iters" "ms/iter" "hpwl" "rss MB";
  let rows = ref [] in
  let emit r =
    let nx, _ = r.mg_grid in
    Printf.printf "%-9s | %9d | %-10s | %4dx%-3d | %6d | %10.1f | %9.3g | %8.0f\n%!"
      r.mg_profile r.mg_cells r.mg_flow nx nx r.mg_iterations r.mg_ms_per_iter
      r.mg_hpwl r.mg_peak_rss_mb;
    rows := r :: !rows
  in
  List.iter
    (fun (prof : Circuitgen.Profiles.t) ->
      let name = prof.Circuitgen.Profiles.profile_name in
      let params = Circuitgen.Profiles.params ~scale:!scale prof ~seed:!seed in
      let circuit, pads = Circuitgen.Gen.generate params in
      let p0 = Circuitgen.Gen.initial_placement circuit pads in
      let cells = Netlist.Circuit.num_cells circuit in
      let nets = Netlist.Circuit.num_nets circuit in
      let grid = mega_grid cells in
      let config =
        { Kraftwerk.Config.standard with Kraftwerk.Config.grid = Some grid }
      in
      Printf.eprintf "[mega] %s: %d cells, %d nets\n%!" name cells nets;
      (* Flat flow: per-iteration cost over a few transformations. *)
      let flat_iters = if cells > 300_000 then 2 else 3 in
      let state = Kraftwerk.Placer.init config circuit (Netlist.Placement.copy p0) in
      let (), flat_ms =
        time (fun () ->
            for _ = 1 to flat_iters do
              ignore (Kraftwerk.Placer.transform state)
            done)
      in
      let flat_ms = flat_ms *. 1000. in
      emit
        {
          mg_profile = name;
          mg_cells = cells;
          mg_nets = nets;
          mg_flow = "flat";
          mg_grid = grid;
          mg_levels = 0;
          mg_iterations = flat_iters;
          mg_ms_per_iter = flat_ms /. float_of_int flat_iters;
          mg_total_ms = flat_ms;
          mg_hpwl = Float.nan;
          mg_peak_rss_mb = peak_rss_mb ();
        };
      (* Multilevel flow: the full V-cycle, counting steps across all
         levels (per-level placer counters reset at each descent). *)
      let run =
        Kraftwerk.Cluster.start config circuit ~fixed_positions:pads
          (Netlist.Placement.copy p0)
      in
      let steps = ref 0 in
      let (), ml_ms =
        time (fun () ->
            let continue = ref (not (Kraftwerk.Cluster.finished run)) in
            while !continue do
              continue := Kraftwerk.Cluster.step run;
              incr steps
            done)
      in
      let ml_ms = ml_ms *. 1000. in
      let placement = Kraftwerk.Cluster.finish run in
      Netlist.Placement.clamp_to_region circuit placement;
      emit
        {
          mg_profile = name;
          mg_cells = cells;
          mg_nets = nets;
          mg_flow = "multilevel";
          mg_grid = grid;
          mg_levels = Kraftwerk.Cluster.total_levels run;
          mg_iterations = !steps;
          mg_ms_per_iter =
            (if !steps > 0 then ml_ms /. float_of_int !steps else Float.nan);
          mg_total_ms = ml_ms;
          mg_hpwl = Metrics.Wirelength.hpwl circuit placement;
          mg_peak_rss_mb = peak_rss_mb ();
        })
    Circuitgen.Profiles.mega;
  write_mega_json "BENCH_mega.json" (List.rev !rows);
  (* The suite is only healthy when every profile completed its V-cycle. *)
  let ml_rows =
    List.filter (fun r -> r.mg_flow = "multilevel") !rows
  in
  if
    List.length ml_rows <> List.length Circuitgen.Profiles.mega
    || List.exists (fun r -> r.mg_iterations = 0 || Float.is_nan r.mg_hpwl) ml_rows
  then begin
    Printf.eprintf "mega bench: missing or empty multilevel rows\n";
    exit 1
  end

(* ------------------------------------------------------------------ *)

let tables = [ (1, table1); (2, table2); (3, table3); (4, table4) ]

let experiments =
  [ ("fast-mode", fast_mode); ("tradeoff", tradeoff); ("eco", eco);
    ("floorplan", floorplan); ("congestion", congestion); ("heat", heat);
    ("linearization", linearization); ("final-placer", final_placer);
    ("multilevel", multilevel) ]

let usage () =
  Printf.printf
    "usage: main.exe [--table %s] [--experiment %s] [--micro] [--place] \
     [--mega] [--scale S] [--seed N]\n"
    (String.concat "|" (List.map (fun (n, _) -> string_of_int n) tables))
    (String.concat "|" (List.map fst experiments));
  exit 1

(* A flag's value, or the usage line when it does not parse or fails
   [ok]. *)
let value parse ?(ok = fun _ -> true) v =
  match parse v with Some x when ok x -> x | _ -> usage ()

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let want_tables = ref [] and want_experiments = ref [] in
  let want_micro = ref false and want_place = ref false in
  let want_mega = ref false in
  let rec parse = function
    | [] -> ()
    | "--scale" :: v :: rest ->
      (* Jobs take a profile's scale in (0, 1] only. *)
      scale := value float_of_string_opt ~ok:(fun s -> s > 0. && s <= 1.) v;
      parse rest
    | "--seed" :: v :: rest ->
      seed := value int_of_string_opt v;
      parse rest
    | "--table" :: v :: rest ->
      want_tables :=
        value int_of_string_opt ~ok:(fun t -> List.mem_assoc t tables) v
        :: !want_tables;
      parse rest
    | "--experiment" :: v :: rest ->
      want_experiments :=
        value Option.some ~ok:(fun e -> List.mem_assoc e experiments) v
        :: !want_experiments;
      parse rest
    | "--micro" :: rest ->
      want_micro := true;
      parse rest
    | "--place" :: rest ->
      want_place := true;
      parse rest
    | "--mega" :: rest ->
      want_mega := true;
      parse rest
    | _ -> usage ()
  in
  parse args;
  (* Names were checked while parsing: a bad one stops before any run. *)
  let run_table t = List.assoc t tables () in
  let run_experiment e = List.assoc e experiments () in
  if
    !want_tables = [] && !want_experiments = [] && not !want_micro
    && not !want_place && not !want_mega
  then begin
    (* Default: everything. *)
    Printf.printf "Kraftwerk reproduction — full experiment run (scale %.2f)\n" !scale;
    List.iter (fun (_, run) -> run ()) tables;
    List.iter (fun (_, run) -> run ()) experiments;
    place_bench ();
    micro ()
  end
  else begin
    List.iter run_table (List.rev !want_tables);
    List.iter run_experiment (List.rev !want_experiments);
    if !want_place then place_bench ();
    if !want_mega then mega_bench ();
    if !want_micro then micro ()
  end
