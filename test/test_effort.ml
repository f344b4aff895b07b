(* LB/UB envelope regression across effort presets.

   For fract and primary1 (pinned seed 42, a single domain) at efforts
   1, 5 and 9, the convergence controller's envelope telemetry is held
   to:

   - every legalization point carries a coherent (lb, ub, gap) triple
     with lb <= ub,
   - the final legalized HPWL lands inside the recorded envelope
     [min lb, min ub] — the full Abacus/Improve/Domino pipeline must do
     at least as well as the best cheap Tetris snapshot,
   - the running-minimum gap is non-increasing and the last quartile of
     probes is at least as tight as the first (the envelope tightened),
   - effort 9 never finishes with a worse final legalized HPWL than
     effort 1, and no run exceeds its preset's iteration budget. *)

type run = {
  records : Obs.Telemetry.iteration list;
  iterations : int;
  max_iterations : int;
  final_legalized : float;
  stop_reason : Kraftwerk.Controller.reason option;
}

let profiles = [ "fract"; "primary1" ]

let efforts = [ 1; 5; 9 ]

let finalize circuit global =
  let rep = Legalize.Abacus.legalize circuit global () in
  let p = rep.Legalize.Abacus.placement in
  ignore (Legalize.Improve.run circuit p);
  ignore (Legalize.Domino.run circuit p);
  p

let run_one profile effort =
  let prof = Circuitgen.Profiles.find profile in
  let circuit, pads =
    Circuitgen.Gen.generate (Circuitgen.Profiles.params ~scale:1.0 prof ~seed:42)
  in
  let p0 = Circuitgen.Gen.initial_placement circuit pads in
  let config = Kraftwerk.Config.effort effort in
  Numeric.Poisson.clear_kernel_cache ();
  Obs.Registry.set_enabled true;
  Obs.Registry.reset ();
  let sink, read = Obs.Sink.collecting () in
  let state, reports =
    Obs.Sink.with_sink sink (fun () -> Kraftwerk.Placer.run config circuit p0)
  in
  Obs.Registry.set_enabled false;
  let records, _ = read () in
  let final =
    Metrics.Wirelength.hpwl circuit
      (finalize circuit state.Kraftwerk.Placer.placement)
  in
  {
    records;
    iterations = List.length reports;
    max_iterations = config.Kraftwerk.Config.max_iterations;
    final_legalized = final;
    stop_reason = Kraftwerk.Placer.stop_reason state;
  }

let the_runs : (string * int, run) Hashtbl.t Lazy.t =
  lazy
    (let tbl = Hashtbl.create 8 in
     List.iter
       (fun profile ->
         List.iter
           (fun effort ->
             Hashtbl.replace tbl (profile, effort) (run_one profile effort))
           efforts)
       profiles;
     tbl)

let get profile effort = Hashtbl.find (Lazy.force the_runs) (profile, effort)

let probes r =
  List.filter_map
    (fun (it : Obs.Telemetry.iteration) ->
      match (it.Obs.Telemetry.ub_hpwl, it.Obs.Telemetry.gap) with
      | Some ub, Some gap -> Some (it.Obs.Telemetry.lb_hpwl, ub, gap)
      | None, None -> None
      | _ -> Alcotest.fail "ub and gap must be present together")
    r.records

let each_run f =
  List.iter
    (fun profile ->
      List.iter (fun effort -> f profile effort (get profile effort)) efforts)
    profiles

let test_envelope_well_ordered () =
  each_run (fun profile effort r ->
      let ps = probes r in
      Alcotest.(check bool)
        (Printf.sprintf "%s e%d: at least two probes (%d)" profile effort
           (List.length ps))
        true
        (List.length ps >= 2);
      List.iter
        (fun (lb, ub, gap) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s e%d: 0 < lb <= ub" profile effort)
            true
            (lb > 0. && lb <= ub);
          Alcotest.(check bool)
            (Printf.sprintf "%s e%d: gap consistent" profile effort)
            true
            (Float.abs (gap -. ((ub -. lb) /. ub)) < 1e-12))
        ps)

let test_final_inside_envelope () =
  each_run (fun profile effort r ->
      let ps = probes r in
      let min_lb =
        List.fold_left (fun acc (lb, _, _) -> Float.min acc lb) Float.infinity
          ps
      in
      let min_ub =
        List.fold_left (fun acc (_, ub, _) -> Float.min acc ub) Float.infinity
          ps
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s e%d: final %.1f within envelope [%.1f, %.1f]"
           profile effort r.final_legalized min_lb min_ub)
        true
        (min_lb <= r.final_legalized && r.final_legalized <= min_ub))

let test_gap_tightens () =
  each_run (fun profile effort r ->
      let gaps = List.map (fun (_, _, g) -> g) (probes r) in
      (* Running minimum is non-increasing by construction; recomputing
         it from the emitted raw gaps also validates those values. *)
      let _ =
        List.fold_left
          (fun acc g ->
            let m = Float.min acc g in
            Alcotest.(check bool)
              (Printf.sprintf "%s e%d: running min monotone" profile effort)
              true (m <= acc);
            m)
          Float.infinity gaps
      in
      let n = List.length gaps in
      let q = max 1 (n / 4) in
      let head = List.filteri (fun i _ -> i < q) gaps in
      let tail = List.filteri (fun i _ -> i >= n - q) gaps in
      let min_l = List.fold_left Float.min Float.infinity in
      Alcotest.(check bool)
        (Printf.sprintf
           "%s e%d: last quartile (%.4f) at least as tight as first (%.4f)"
           profile effort (min_l tail) (min_l head))
        true
        (min_l tail <= min_l head))

let test_effort_ordering () =
  List.iter
    (fun profile ->
      let lo = get profile 1 and hi = get profile 9 in
      Alcotest.(check bool)
        (Printf.sprintf "%s: effort 9 (%.1f) no worse than effort 1 (%.1f)"
           profile hi.final_legalized lo.final_legalized)
        true
        (hi.final_legalized <= lo.final_legalized))
    profiles

let test_budgets_respected () =
  each_run (fun profile effort r ->
      Alcotest.(check bool)
        (Printf.sprintf "%s e%d: %d iterations within budget %d" profile
           effort r.iterations r.max_iterations)
        true
        (r.iterations <= r.max_iterations);
      if r.iterations < r.max_iterations then
        Alcotest.(check bool)
          (Printf.sprintf "%s e%d: early stop carries a reason" profile effort)
          true (r.stop_reason <> None))

let suite =
  [
    Alcotest.test_case "envelope well-ordered at every probe" `Slow
      test_envelope_well_ordered;
    Alcotest.test_case "final legalized HPWL inside the envelope" `Slow
      test_final_inside_envelope;
    Alcotest.test_case "gap tightens over the run" `Slow test_gap_tightens;
    Alcotest.test_case "effort 9 at least as good as effort 1" `Slow
      test_effort_ordering;
    Alcotest.test_case "iteration budgets respected" `Slow
      test_budgets_respected;
  ]
