(* Timing-driven placement (paper §5): optimise the longest path with
   iterative net weighting (a timing-goal placement job), then meet an
   explicit timing requirement exactly with the two-phase flow, printing
   the trade-off curve.

     dune exec examples/timing_driven.exe *)

let () =
  let source = Engine.Source.Profile { name = "struct"; scale = 1.; seed = 7 } in
  let circuit, initial = Result.get_ok (Engine.Source.load source) in
  let tp = Timing.Params.default in

  let lower = Timing.Sta.lower_bound tp circuit in
  Printf.printf "lower bound (all nets at zero length): %.2f ns\n" (lower *. 1e9);

  (* A placement job's global placement, the one timing is measured on:
     the timing goal reweights nets by criticality before every
     transformation. *)
  let place goal =
    let objective = Engine.Objective.make ~goal () in
    match Engine.Scheduler.run_job (Engine.Job.spec ~source ~objective ()) with
    | _, Some final -> final.Engine.Scheduler.global
    | r, None -> failwith (Engine.Job.status_to_string r.Engine.Job.status)
  in
  let delay_of p = (Timing.Sta.analyse tp circuit p).Timing.Sta.max_delay in

  (* Plain area-driven placement as the reference. *)
  let plain = place Engine.Objective.Wirelength in
  let plain_delay = delay_of plain in
  Printf.printf "area-driven:  longest path %.2f ns, hpwl %.4g\n"
    (plain_delay *. 1e9)
    (Metrics.Wirelength.hpwl circuit plain);

  (* Continuous timing optimisation. *)
  let opt = place Engine.Objective.Timing in
  let opt_delay = delay_of opt in
  let expl =
    Timing.Driven.exploitation ~unoptimized:plain_delay ~optimized:opt_delay
      ~lower_bound:lower
  in
  Printf.printf
    "timing-driven: longest path %.2f ns, hpwl %.4g — %.0f%% of the optimisation potential\n"
    (opt_delay *. 1e9)
    (Metrics.Wirelength.hpwl circuit opt)
    (100. *. expl);

  (* Two-phase requirement mode: pick a target between the two results
     and meet it exactly, recording the wire-length/delay trade-off. *)
  let target = (plain_delay +. opt_delay) /. 2. in
  let req =
    Timing.Driven.meet_requirement ~params:tp Kraftwerk.Config.standard circuit
      initial ~target
  in
  Printf.printf "requirement %.2f ns: met=%b, achieved %.2f ns\n" (target *. 1e9)
    req.Timing.Driven.met
    (req.Timing.Driven.final_delay *. 1e9);
  (* The three worst paths of the optimised placement. *)
  Printf.printf "critical paths after optimisation:\n";
  List.iter
    (fun path -> Format.printf "%a" (Timing.Paths.pp_path circuit) path)
    (Timing.Paths.critical ~k:2 tp circuit opt);
  Printf.printf "trade-off curve (step, hpwl, delay):\n";
  List.iter
    (fun (pt : Timing.Driven.trace_point) ->
      Printf.printf "  %3d  %12.4g  %.2f ns\n" pt.Timing.Driven.at_step
        pt.Timing.Driven.hpwl
        (pt.Timing.Driven.delay *. 1e9))
    req.Timing.Driven.trace
