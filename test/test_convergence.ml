(* Trace-driven convergence regression harness.

   One deterministic circuitgen run (fract, seed 42, scale 1.0, a single
   domain) is placed with the standard Kraftwerk flow under a telemetry
   sink, and the recorded trajectory is held to pinned invariants:

   - density overflow trends down past the knee of the schedule,
   - the final global HPWL and overlap land inside pinned bounds,
   - the iteration count stays inside a pinned window,
   - every emitted record is schema-valid JSONL and survives a
     write/parse round trip.

   The bounds were measured on the reference implementation: overflow
   0.948 at the first transformation falling to ~0.55, final global
   HPWL ~7000, 150 transformations (the convergence controller's
   envelope criterion fires at the 15th UB probe; the §4.2 empty-square
   criterion does not fire on this profile).  They are generous enough
   to survive benign numeric drift but tight enough that a placer whose
   density-force update is stubbed out — overflow stuck near 0.95, HPWL
   collapsed towards the unconstrained optimum (~2250) — fails. *)

type run = {
  circuit : Netlist.Circuit.t;
  state : Kraftwerk.Placer.state;
  records : Obs.Telemetry.iteration list;
  summary : Obs.Telemetry.summary option;
  jsonl_lines : string list;
}

let max_iterations = Kraftwerk.Config.standard.Kraftwerk.Config.max_iterations

let the_run : run Lazy.t =
  lazy
    (let prof = Circuitgen.Profiles.find "fract" in
     let circuit, pads =
       Circuitgen.Gen.generate
         (Circuitgen.Profiles.params ~scale:1.0 prof ~seed:42)
     in
     let p0 = Circuitgen.Gen.initial_placement circuit pads in
     let config = Kraftwerk.Config.standard in
     Numeric.Poisson.clear_kernel_cache ();
     Obs.Registry.set_enabled true;
     Obs.Registry.reset ();
     let file = Filename.temp_file "kraftwerk_conv" ".jsonl" in
     let oc = open_out file in
     let js = Obs.Sink.jsonl oc in
     let coll, read = Obs.Sink.collecting () in
     (* Tee: the in-memory records drive the trajectory checks, the
        JSONL file exercises the same path as the CLI's --trace. *)
     let tee =
       {
         Obs.Sink.on_iteration =
           (fun r ->
             js.Obs.Sink.on_iteration r;
             coll.Obs.Sink.on_iteration r);
         on_summary =
           (fun s ->
             js.Obs.Sink.on_summary s;
             coll.Obs.Sink.on_summary s);
       }
     in
     let state =
       Obs.Sink.with_sink tee (fun () ->
           let state, reports = Kraftwerk.Placer.run config circuit p0 in
           let p = state.Kraftwerk.Placer.placement in
           Obs.Sink.summary
             {
               Obs.Telemetry.iterations = List.length reports;
               converged =
                 List.length reports < config.Kraftwerk.Config.max_iterations;
               final_hpwl = Metrics.Wirelength.hpwl circuit p;
               final_overlap = Metrics.Overlap.overlap_ratio circuit p;
               wall_time = 0.;
               stop_reason =
                 Option.map Kraftwerk.Controller.reason_to_string
                   (Kraftwerk.Placer.stop_reason state);
               counters = Obs.Registry.snapshot ();
             };
           state)
     in
     close_out oc;
     Obs.Registry.set_enabled false;
     let ic = open_in file in
     let lines = ref [] in
     (try
        while true do
          lines := input_line ic :: !lines
        done
      with End_of_file -> ());
     close_in ic;
     Sys.remove file;
     let records, summary = read () in
     { circuit; state; records; summary; jsonl_lines = List.rev !lines })

let overflows r = List.map (fun it -> it.Obs.Telemetry.overflow) r.records

let mean = function
  | [] -> 0.
  | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

let take k l = List.filteri (fun i _ -> i < k) l

let last k l = take k (List.rev l) |> List.rev

let test_iteration_window () =
  let r = Lazy.force the_run in
  let n = List.length r.records in
  Alcotest.(check bool)
    (Printf.sprintf "iteration count %d within [100, %d]" n max_iterations)
    true
    (n >= 100 && n <= max_iterations);
  Alcotest.(check (list int)) "steps are 1..n"
    (List.init n (fun i -> i + 1))
    (List.map (fun it -> it.Obs.Telemetry.step) r.records)

let test_overflow_trends_down () =
  let r = Lazy.force the_run in
  let ov = overflows r in
  let early = mean (take 20 ov) and late = mean (last 20 ov) in
  let final = List.nth ov (List.length ov - 1) in
  Alcotest.(check bool)
    (Printf.sprintf "starts congested (early mean %.3f > 0.7)" early)
    true (early > 0.7);
  Alcotest.(check bool)
    (Printf.sprintf "trends down (late mean %.3f < 0.75 x early %.3f)" late
       early)
    true
    (late < 0.75 *. early);
  (* Absolute bound: a stubbed density force keeps overflow ~0.95. *)
  Alcotest.(check bool)
    (Printf.sprintf "final overflow %.3f below 0.65" final)
    true (final < 0.65);
  List.iter
    (fun o ->
      Alcotest.(check bool) "overflow in [0, 2]" true (o >= 0. && o <= 2.))
    ov

let test_final_metrics_bounds () =
  let r = Lazy.force the_run in
  let final = List.nth r.records (List.length r.records - 1) in
  let hpwl = final.Obs.Telemetry.hpwl in
  let overlap =
    Metrics.Overlap.overlap_ratio r.circuit r.state.Kraftwerk.Placer.placement
  in
  (* Reference: HPWL 6886.6 and overlap 1.07 on the measured run; with
     the density force stubbed (k = 0) they are 2415 and 24.6, so both
     bounds discriminate. *)
  Alcotest.(check bool)
    (Printf.sprintf "global hpwl %.1f within [4500, 10000]" hpwl)
    true
    (hpwl >= 4500. && hpwl <= 10000.);
  Alcotest.(check bool)
    (Printf.sprintf "global overlap %.3f below 2.0" overlap)
    true (overlap < 2.0);
  (* The trace must record exactly what a recomputation gives. *)
  let recomputed =
    Metrics.Wirelength.hpwl r.circuit r.state.Kraftwerk.Placer.placement
  in
  Alcotest.(check bool) "trace hpwl matches recomputation bitwise" true
    (Int64.bits_of_float hpwl = Int64.bits_of_float recomputed)

let test_placement_settles () =
  let r = Lazy.force the_run in
  let disp = List.map (fun it -> it.Obs.Telemetry.displacement) r.records in
  let early = mean (take 20 disp) and late = mean (last 20 disp) in
  Alcotest.(check bool)
    (Printf.sprintf "cells settle (late disp %.2f << early %.2f)" late early)
    true
    (early > 0. && late < 0.2 *. early)

let test_solver_telemetry_sane () =
  let r = Lazy.force the_run in
  List.iteri
    (fun i it ->
      let tag = Printf.sprintf "iteration %d" (i + 1) in
      Alcotest.(check bool) (tag ^ ": cg did work") true
        (it.Obs.Telemetry.cg_iterations_x > 0
        && it.Obs.Telemetry.cg_iterations_y > 0);
      Alcotest.(check bool) (tag ^ ": finite metrics") true
        (Float.is_finite it.Obs.Telemetry.hpwl
        && Float.is_finite it.Obs.Telemetry.quadratic
        && Float.is_finite it.Obs.Telemetry.max_force
        (* max >= mean up to one rounding step of the sum/n division:
           when all magnitudes coincide the mean can land an ulp high. *)
        && it.Obs.Telemetry.max_force
           >= it.Obs.Telemetry.mean_force *. (1. -. 1e-12)
        && it.Obs.Telemetry.mean_force >= 0.))
    r.records;
  (* The kernel spectrum is built eagerly by [Placer.init] (the prewarm
     that kills the historical first-iteration cold spike) and cached:
     no transformation ever misses, every one hits. *)
  (match r.records with
  | [] -> Alcotest.fail "no records"
  | records ->
    List.iter
      (fun it ->
        Alcotest.(check int) "iterations never miss the prewarmed cache" 0
          it.Obs.Telemetry.kernel_cache_misses)
      records)

let test_assembly_caching_telemetry () =
  let r = Lazy.force the_run in
  let cfg = Kraftwerk.Config.standard in
  (match r.records with
  | [] -> Alcotest.fail "no records"
  | first :: rest ->
    (* The clique-model pattern is compiled exactly once; every later
       transformation must take the refill path. *)
    Alcotest.(check bool) "first transformation compiles" false
      first.Obs.Telemetry.assembly_reused;
    Alcotest.(check int) "one symbolic compile" 1
      first.Obs.Telemetry.pattern_rebuilds;
    List.iteri
      (fun i it ->
        let tag = Printf.sprintf "iteration %d" (i + 2) in
        Alcotest.(check bool) (tag ^ ": assembly reused") true
          it.Obs.Telemetry.assembly_reused;
        Alcotest.(check int) (tag ^ ": no further compiles") 1
          it.Obs.Telemetry.pattern_rebuilds)
      rest);
  (* The adaptive CG tolerance stays inside the configured band and
     tightens as the overflow falls. *)
  List.iter
    (fun it ->
      Alcotest.(check bool) "tolerance within configured band" true
        (it.Obs.Telemetry.cg_tolerance >= cfg.Kraftwerk.Config.cg_tol
        && it.Obs.Telemetry.cg_tolerance <= cfg.Kraftwerk.Config.cg_tol_loose))
    r.records;
  let tols = List.map (fun it -> it.Obs.Telemetry.cg_tolerance) r.records in
  let early = mean (take 20 tols) and late = mean (last 20 tols) in
  Alcotest.(check bool)
    (Printf.sprintf "tolerance tightens (late %.2e < early %.2e)" late early)
    true (late < early)

(* The controller invariant: a run never exceeds its budget, and when it
   stops early the summary says why. *)
let test_early_stop_reason_recorded () =
  let r = Lazy.force the_run in
  let n = List.length r.records in
  Alcotest.(check bool)
    (Printf.sprintf "iterations_run %d <= max_steps %d" n max_iterations)
    true (n <= max_iterations);
  match r.summary with
  | None -> Alcotest.fail "collecting sink saw no summary"
  | Some s ->
    Alcotest.(check int) "summary agrees on the count" n
      s.Obs.Telemetry.iterations;
    if n < max_iterations then begin
      Alcotest.(check bool) "early stop marked converged" true
        s.Obs.Telemetry.converged;
      match s.Obs.Telemetry.stop_reason with
      | None -> Alcotest.fail "early stop without a recorded reason"
      | Some reason ->
        Alcotest.(check bool)
          (Printf.sprintf "reason %S is a known criterion" reason)
          true
          (Kraftwerk.Controller.reason_of_string reason <> None)
    end
    else
      (* At the budget the reason, if any, must be max_steps. *)
      match s.Obs.Telemetry.stop_reason with
      | Some reason -> Alcotest.(check string) "budget reason" "max_steps" reason
      | None -> ()

(* Envelope telemetry: the standard config probes a legalized UB every
   legalize_every iterations; those records must carry a coherent
   (lb, ub, gap) triple and the neutral default schedule keeps the
   penalty at exactly 1. *)
let test_envelope_telemetry () =
  let r = Lazy.force the_run in
  let cfg = Kraftwerk.Config.standard in
  let probes =
    List.filter (fun it -> it.Obs.Telemetry.ub_hpwl <> None) r.records
  in
  Alcotest.(check bool)
    (Printf.sprintf "at least two UB probes (%d)" (List.length probes))
    true
    (List.length probes >= 2);
  List.iter
    (fun it ->
      Alcotest.(check bool) "penalty is the calibrated static weight" true
        (it.Obs.Telemetry.penalty = 1.0);
      Alcotest.(check bool) "lb is the recorded quadratic hpwl" true
        (Int64.bits_of_float it.Obs.Telemetry.lb_hpwl
        = Int64.bits_of_float it.Obs.Telemetry.hpwl);
      match (it.Obs.Telemetry.ub_hpwl, it.Obs.Telemetry.gap) with
      | None, None -> ()
      | Some ub, Some gap ->
        Alcotest.(check bool) "lb <= ub at every probe" true
          (it.Obs.Telemetry.lb_hpwl <= ub);
        Alcotest.(check bool) "gap consistent with the pair" true
          (Float.abs (gap -. ((ub -. it.Obs.Telemetry.lb_hpwl) /. ub))
          < 1e-12);
        Alcotest.(check bool) "probe lands on the cadence" true
          (it.Obs.Telemetry.step mod cfg.Kraftwerk.Config.legalize_every = 0)
      | _ -> Alcotest.fail "ub and gap must be present together")
    r.records

let test_records_schema_valid () =
  let r = Lazy.force the_run in
  List.iter
    (fun it ->
      let j = Obs.Telemetry.iteration_to_json it in
      (match Obs.Json.member "schema" j with
      | Some (Obs.Json.Num v) ->
        Alcotest.(check int) "schema version"
          Obs.Telemetry.schema_version (int_of_float v)
      | _ -> Alcotest.fail "record without schema field");
      let s = Obs.Json.to_string j in
      match Obs.Json.of_string s with
      | Error e -> Alcotest.failf "record does not parse: %s" e
      | Ok v -> (
        match Obs.Telemetry.iteration_of_json v with
        | Error e -> Alcotest.failf "record does not validate: %s" e
        | Ok it' ->
          if it' <> it then
            Alcotest.failf "record %d does not round-trip"
              it.Obs.Telemetry.step))
    r.records

let test_jsonl_stream_shape () =
  let r = Lazy.force the_run in
  let n = List.length r.records in
  Alcotest.(check int) "one line per record plus summary" (n + 1)
    (List.length r.jsonl_lines);
  let parsed =
    List.map
      (fun line ->
        match Obs.Json.of_string line with
        | Ok v -> v
        | Error e -> Alcotest.failf "unparsable trace line: %s" e)
      r.jsonl_lines
  in
  let tags =
    List.map
      (fun v ->
        match Obs.Json.member "record" v with
        | Some (Obs.Json.Str s) -> s
        | _ -> Alcotest.fail "trace line without record tag")
      parsed
  in
  Alcotest.(check (list string)) "iterations then one summary"
    (List.init (n + 1) (fun i -> if i < n then "iteration" else "summary"))
    tags;
  (* The written summary parses back to what the collecting sink saw. *)
  let summary_json = List.nth parsed n in
  match (Obs.Telemetry.summary_of_json summary_json, r.summary) with
  | Ok s, Some expected ->
    Alcotest.(check int) "summary iteration count" n s.Obs.Telemetry.iterations;
    Alcotest.(check bool) "summary hpwl matches" true
      (Int64.bits_of_float s.Obs.Telemetry.final_hpwl
      = Int64.bits_of_float expected.Obs.Telemetry.final_hpwl);
    Alcotest.(check bool) "summary converged flag matches" true
      (s.Obs.Telemetry.converged = expected.Obs.Telemetry.converged)
  | Error e, _ -> Alcotest.failf "summary does not validate: %s" e
  | _, None -> Alcotest.fail "collecting sink saw no summary"

let suite =
  [
    Alcotest.test_case "iteration count within pinned window" `Slow
      test_iteration_window;
    Alcotest.test_case "density overflow trends down" `Slow
      test_overflow_trends_down;
    Alcotest.test_case "final hpwl and overlap within pinned bounds" `Slow
      test_final_metrics_bounds;
    Alcotest.test_case "placement settles" `Slow test_placement_settles;
    Alcotest.test_case "solver telemetry sane" `Slow test_solver_telemetry_sane;
    Alcotest.test_case "assembly caching telemetry" `Slow
      test_assembly_caching_telemetry;
    Alcotest.test_case "early stop bounded and reason recorded" `Slow
      test_early_stop_reason_recorded;
    Alcotest.test_case "envelope telemetry coherent" `Slow
      test_envelope_telemetry;
    Alcotest.test_case "every record is schema-valid" `Slow
      test_records_schema_valid;
    Alcotest.test_case "jsonl stream shape and summary" `Slow
      test_jsonl_stream_shape;
  ]
