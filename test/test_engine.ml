(* Job-engine tests: checkpoint fidelity, scheduler semantics, protocol.

   The load-bearing property is bitwise restartability: a job resumed
   from a checkpoint must follow exactly the trajectory the
   uninterrupted run follows — same placement bits, same telemetry
   tail — on the calling domain or on any worker domain.  The scheduler
   tests additionally pin the cooperative semantics: interleaving
   preserves solo trajectories, deadlines and cancellation degrade to a
   legal placement instead of raising, and the ECO warm-start path is
   the same computation as calling Kraftwerk.Eco.replace directly. *)

let bits = Int64.bits_of_float

let same_float_array tag a b =
  Alcotest.(check int) (tag ^ ": length") (Array.length a) (Array.length b);
  Array.iteri
    (fun i x ->
      if bits x <> bits b.(i) then
        Alcotest.failf "%s: element %d differs: %h vs %h" tag i x b.(i))
    a

let same_placement tag (a : Netlist.Placement.t) (b : Netlist.Placement.t) =
  same_float_array (tag ^ ".x") a.Netlist.Placement.x b.Netlist.Placement.x;
  same_float_array (tag ^ ".y") a.Netlist.Placement.y b.Netlist.Placement.y

let ok_or_fail = function Ok v -> v | Error msg -> Alcotest.fail msg

(* The fast-mode objective most engine jobs run under. *)
let fast ?goal ?effort ?flow () =
  Engine.Objective.make ?goal ~mode:Engine.Objective.Fast ?effort ?flow ()

let source ?(seed = 7) () =
  Engine.Source.Profile { name = "fract"; scale = 0.5; seed }

let temp suffix = Filename.temp_file "engine_test" suffix

let read_lines file =
  let ic = open_in file in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !lines

(* Deterministic payload of a trace's iteration records: volatile fields
   (timings) and cache-provenance fields (a resumed run
   re-records where the uninterrupted run reused its pattern)
   stripped. *)
let iteration_payloads file =
  read_lines file
  |> List.filter_map (fun line ->
         match Obs.Json.of_string line with
         | Error e -> Alcotest.failf "unparsable trace line: %s" e
         | Ok v -> (
           match Obs.Json.member "record" v with
           | Some (Obs.Json.Str "iteration") ->
             Some
               (Obs.Json.to_string
                  (Obs.Telemetry.strip_provenance
                     (Obs.Telemetry.strip_volatile v)))
           | _ -> None))

let last k l = List.filteri (fun i _ -> i >= List.length l - k) l

(* ------------------------------------------------------------------ *)
(* Checkpoint                                                          *)

let test_checkpoint_round_trip () =
  let circuit, p0 = ok_or_fail (Engine.Source.load (source ())) in
  let config = Kraftwerk.Config.fast in
  let state = Kraftwerk.Placer.init config circuit p0 in
  ignore (Kraftwerk.Placer.continue_run state ~max_steps:4);
  let cp = Engine.Checkpoint.of_state state in
  let file = temp ".json" in
  Engine.Checkpoint.save file cp;
  let cp' = ok_or_fail (Engine.Checkpoint.load file) in
  Sys.remove file;
  Alcotest.(check int) "iteration" state.Kraftwerk.Placer.iteration
    cp'.Engine.Checkpoint.iteration;
  same_float_array "x" cp.Engine.Checkpoint.x cp'.Engine.Checkpoint.x;
  same_float_array "y" cp.Engine.Checkpoint.y cp'.Engine.Checkpoint.y;
  same_float_array "ex" cp.Engine.Checkpoint.ex cp'.Engine.Checkpoint.ex;
  same_float_array "ey" cp.Engine.Checkpoint.ey cp'.Engine.Checkpoint.ey;
  same_float_array "net_weights" cp.Engine.Checkpoint.net_weights
    cp'.Engine.Checkpoint.net_weights;
  let restored = ok_or_fail (Engine.Checkpoint.restore cp' config circuit) in
  same_placement "restored placement" state.Kraftwerk.Placer.placement
    restored.Kraftwerk.Placer.placement;
  same_float_array "restored ex" state.Kraftwerk.Placer.ex
    restored.Kraftwerk.Placer.ex;
  same_float_array "restored ey" state.Kraftwerk.Placer.ey
    restored.Kraftwerk.Placer.ey

let test_checkpoint_digest_guards () =
  let circuit, p0 = ok_or_fail (Engine.Source.load (source ())) in
  let config = Kraftwerk.Config.fast in
  let state = Kraftwerk.Placer.init config circuit p0 in
  ignore (Kraftwerk.Placer.continue_run state ~max_steps:2);
  let cp = Engine.Checkpoint.of_state state in
  (* A different trajectory-relevant config field must be rejected... *)
  let bad = { config with Kraftwerk.Config.k_param = 0.123 } in
  (match Engine.Checkpoint.restore cp bad circuit with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "restore accepted a different config");
  (* ...a different circuit must be rejected... *)
  let rng = Numeric.Rng.create 5 in
  let rewired = Kraftwerk.Eco.rewire circuit rng ~fraction:0.5 in
  (match Engine.Checkpoint.restore cp config rewired with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "restore accepted a different circuit");
  (* ...but the inert [Config.domains] field is not part of the
     semantics (results are the same bits on any domain). *)
  let pinned = { config with Kraftwerk.Config.domains = Some 2 } in
  ignore (ok_or_fail (Engine.Checkpoint.restore cp pinned circuit))

(* The config digests of the presets, pinned: a checkpoint resumes only
   while the fingerprint renders every field as it did when the
   checkpoint was written (the net model as the literal [model=clique],
   the Poisson evaluator as [solver=fft]). *)
let test_checkpoint_digest_pins () =
  List.iter
    (fun (name, config, digest) ->
      Alcotest.(check string) name digest (Engine.Checkpoint.config_digest config))
    [
      ("standard", Kraftwerk.Config.standard, "db2091fd799365f5f6bc5afa4289957c");
      ("fast", Kraftwerk.Config.fast, "4960d63116d694c399449b57f30b5f71");
      ("effort 9", Kraftwerk.Config.effort 9, "5aa2fc59d773d3f8e63024dd872e8708");
    ]

(* The core property (§2.2: the accumulated ~e vectors make mid-run
   state restartable): cutting a run at a checkpoint and restoring
   yields bitwise the placement and forces of the uninterrupted run. *)
let test_resume_bitwise () =
  let circuit, p0 = ok_or_fail (Engine.Source.load (source ())) in
  let total = 10 and cut = 4 in
  let config = Kraftwerk.Config.fast in
  let reference = Kraftwerk.Placer.init config circuit p0 in
  ignore (Kraftwerk.Placer.continue_run reference ~max_steps:total);
  let first = Kraftwerk.Placer.init config circuit p0 in
  ignore (Kraftwerk.Placer.continue_run first ~max_steps:cut);
  let file = temp ".json" in
  Engine.Checkpoint.save file (Engine.Checkpoint.of_state first);
  let cp = ok_or_fail (Engine.Checkpoint.load file) in
  Sys.remove file;
  let resumed = ok_or_fail (Engine.Checkpoint.restore cp config circuit) in
  ignore (Kraftwerk.Placer.continue_run resumed ~max_steps:(total - cut));
  Alcotest.(check int) "iteration" reference.Kraftwerk.Placer.iteration
    resumed.Kraftwerk.Placer.iteration;
  same_placement "placement" reference.Kraftwerk.Placer.placement
    resumed.Kraftwerk.Placer.placement;
  same_float_array "ex" reference.Kraftwerk.Placer.ex resumed.Kraftwerk.Placer.ex;
  same_float_array "ey" reference.Kraftwerk.Placer.ey resumed.Kraftwerk.Placer.ey

let same_controller tag (a : Kraftwerk.Controller.t)
    (b : Kraftwerk.Controller.t) =
  let fbit name x y =
    if bits x <> bits y then
      Alcotest.failf "%s: controller %s differs: %h vs %h" tag name x y
  in
  fbit "penalty" a.Kraftwerk.Controller.penalty b.Kraftwerk.Controller.penalty;
  fbit "lb" a.Kraftwerk.Controller.lb b.Kraftwerk.Controller.lb;
  fbit "ub" a.Kraftwerk.Controller.ub b.Kraftwerk.Controller.ub;
  fbit "ub_min" a.Kraftwerk.Controller.ub_min b.Kraftwerk.Controller.ub_min;
  fbit "gap" a.Kraftwerk.Controller.gap b.Kraftwerk.Controller.gap;
  fbit "gap_min" a.Kraftwerk.Controller.gap_min b.Kraftwerk.Controller.gap_min;
  Alcotest.(check int)
    (tag ^ ": since_legalize")
    a.Kraftwerk.Controller.since_legalize
    b.Kraftwerk.Controller.since_legalize;
  Alcotest.(check int)
    (tag ^ ": ub_evals")
    a.Kraftwerk.Controller.ub_evals b.Kraftwerk.Controller.ub_evals;
  Alcotest.(check int)
    (tag ^ ": stall")
    a.Kraftwerk.Controller.stall b.Kraftwerk.Controller.stall;
  Alcotest.(check bool) (tag ^ ": stop_reason") true
    (a.Kraftwerk.Controller.stop_reason = b.Kraftwerk.Controller.stop_reason)

(* Same cut-and-restore property with the controller actively steering:
   probes every 3 iterations put LB/UB history on both sides of the cut,
   and the penalty ramp is caught mid-flight (past its initial value,
   below its cap) so a restore that recomputed the schedule instead of
   restoring it verbatim would diverge.  The stop criteria are disabled
   so the schedule itself is what's under test. *)
let test_resume_bitwise_controller_active () =
  let circuit, p0 = ok_or_fail (Engine.Source.load (source ())) in
  let total = 12 and cut = 5 in
  let tag = "controller" in
  let config =
    {
      Kraftwerk.Config.fast with
      Kraftwerk.Config.legalize_every = 3;
      penalty_initial = 0.9;
      penalty_update = 1.05;
      penalty_max = 1.2;
      stop_gap = 0.;
      stop_stall = 0;
    }
  in
  let reference = Kraftwerk.Placer.init config circuit p0 in
  ignore (Kraftwerk.Placer.continue_run reference ~max_steps:total);
  let first = Kraftwerk.Placer.init config circuit p0 in
  ignore (Kraftwerk.Placer.continue_run first ~max_steps:cut);
  (* The cut must land mid-schedule: envelope history already
     recorded, penalty strictly between its initial value and cap. *)
  let fc = first.Kraftwerk.Placer.controller in
  Alcotest.(check bool)
    (tag ^ ": probe taken before the cut")
    true
    (fc.Kraftwerk.Controller.ub_evals >= 1);
  Alcotest.(check bool)
    (tag ^ ": penalty mid-ramp at the cut")
    true
    (fc.Kraftwerk.Controller.penalty > 0.9
    && fc.Kraftwerk.Controller.penalty < 1.2);
  let file = temp ".json" in
  Engine.Checkpoint.save file (Engine.Checkpoint.of_state first);
  let cp = ok_or_fail (Engine.Checkpoint.load file) in
  Sys.remove file;
  let resumed = ok_or_fail (Engine.Checkpoint.restore cp config circuit) in
  same_controller (tag ^ ": at the cut") fc
    resumed.Kraftwerk.Placer.controller;
  ignore (Kraftwerk.Placer.continue_run resumed ~max_steps:(total - cut));
  Alcotest.(check int)
    (tag ^ ": iteration")
    reference.Kraftwerk.Placer.iteration
    resumed.Kraftwerk.Placer.iteration;
  same_placement
    (tag ^ ": placement")
    reference.Kraftwerk.Placer.placement
    resumed.Kraftwerk.Placer.placement;
  same_float_array (tag ^ ": ex") reference.Kraftwerk.Placer.ex
    resumed.Kraftwerk.Placer.ex;
  same_float_array (tag ^ ": ey") reference.Kraftwerk.Placer.ey
    resumed.Kraftwerk.Placer.ey;
  Alcotest.(check bool)
    (tag ^ ": envelope probed after the cut")
    true
    (reference.Kraftwerk.Placer.controller.Kraftwerk.Controller.ub_evals
    >= 2);
  same_controller (tag ^ ": at the end")
    reference.Kraftwerk.Placer.controller
    resumed.Kraftwerk.Placer.controller

(* ------------------------------------------------------------------ *)
(* Scheduler                                                           *)

let submit_and_drain sched spec =
  let id = Engine.Scheduler.submit sched spec in
  Engine.Scheduler.drain sched;
  id

let job_result sched id =
  match Engine.Scheduler.result sched id with
  | Some r -> r
  | None -> Alcotest.failf "job %d has no result" id

let job_placement sched id =
  match Engine.Scheduler.placement sched id with
  | Some p -> p
  | None -> Alcotest.failf "job %d has no placement" id

(* Same property through the engine: a job finished at its checkpoint,
   resumed, must report bitwise what the uninterrupted job reports —
   including the telemetry tail of the trace. *)
let test_engine_resume_matches_uninterrupted () =
  let ck = temp ".json" and tb = temp ".jsonl" and tc = temp ".jsonl" in
  let src = source () in
  let sched = Engine.Scheduler.create () in
  let a =
    submit_and_drain sched
      (Engine.Job.spec ~source:src ~objective:(fast ()) ~max_steps:5
         ~checkpoint:ck ())
  in
  Alcotest.(check string) "prefix job done" "done"
    (Engine.Job.status_to_string (job_result sched a).Engine.Job.status);
  let b =
    submit_and_drain sched
      (Engine.Job.spec ~source:src ~objective:(fast ()) ~max_steps:10
         ~start:(Engine.Job.Resume ck) ~trace:tb ())
  in
  let c =
    submit_and_drain sched
      (Engine.Job.spec ~source:src ~objective:(fast ()) ~max_steps:10
         ~trace:tc ())
  in
  let rb = job_result sched b and rc = job_result sched c in
  Alcotest.(check int) "same total iterations" rc.Engine.Job.iterations
    rb.Engine.Job.iterations;
  same_placement "global placement" (job_placement sched c)
    (job_placement sched b);
  Alcotest.(check bool) "legalised hpwl bitwise equal" true
    (bits rb.Engine.Job.hpwl = bits rc.Engine.Job.hpwl);
  Alcotest.(check bool) "improvement deltas bitwise equal" true
    (bits rb.Engine.Job.improve_delta = bits rc.Engine.Job.improve_delta
    && bits rb.Engine.Job.domino_delta = bits rc.Engine.Job.domino_delta
    && rb.Engine.Job.improve_moves = rc.Engine.Job.improve_moves
    && rb.Engine.Job.domino_moves = rc.Engine.Job.domino_moves);
  (* The resumed trace is exactly the tail of the uninterrupted one. *)
  let ib = iteration_payloads tb and ic = iteration_payloads tc in
  Alcotest.(check bool) "resumed trace is shorter" true
    (List.length ib < List.length ic);
  Alcotest.(check (list string)) "telemetry tail matches"
    (last (List.length ib) ic)
    ib;
  List.iter Sys.remove [ ck; tb; tc ]

(* Timing-driven jobs checkpoint their per-net criticalities too. *)
let test_engine_resume_timing_driven () =
  let ck = temp ".json" in
  let src = source ~seed:11 () in
  let sched = Engine.Scheduler.create () in
  let _ =
    submit_and_drain sched
      (Engine.Job.spec ~source:src
         ~objective:(fast ~goal:Engine.Objective.Timing ())
         ~max_steps:4 ~checkpoint:ck ())
  in
  let b =
    submit_and_drain sched
      (Engine.Job.spec ~source:src
         ~objective:(fast ~goal:Engine.Objective.Timing ())
         ~max_steps:8 ~start:(Engine.Job.Resume ck) ())
  in
  let c =
    submit_and_drain sched
      (Engine.Job.spec ~source:src
         ~objective:(fast ~goal:Engine.Objective.Timing ())
         ~max_steps:8 ())
  in
  same_placement "timing-driven placement" (job_placement sched c)
    (job_placement sched b);
  Sys.remove ck

let test_deadline_degrades_to_legal () =
  let circuit, _ = ok_or_fail (Engine.Source.load (source ())) in
  let sched = Engine.Scheduler.create () in
  let id =
    submit_and_drain sched
      (Engine.Job.spec ~source:(source ()) ~objective:(fast ()) ~deadline:0.0
         ())
  in
  let r = job_result sched id in
  Alcotest.(check string) "status cancelled" "cancelled"
    (Engine.Job.status_to_string r.Engine.Job.status);
  Alcotest.(check bool) "deadline expired" true r.Engine.Job.deadline_expired;
  Alcotest.(check bool) "reported legal" true r.Engine.Job.legal;
  match Engine.Scheduler.legalized sched id with
  | None -> Alcotest.fail "no legalised placement"
  | Some lp ->
    Alcotest.(check bool) "passes Legalize.Check" true
      (Legalize.Check.is_legal circuit lp)

(* Mid-run cancellation: best-so-far legal placement, a final checkpoint
   when configured, and the checkpoint resumes to the uninterrupted
   result. *)
let test_cancel_checkpoint_resume () =
  let ck = temp ".json" in
  let circuit, _ = ok_or_fail (Engine.Source.load (source ())) in
  let sched = Engine.Scheduler.create () in
  let a =
    Engine.Scheduler.submit sched
      (Engine.Job.spec ~source:(source ()) ~objective:(fast ()) ~max_steps:10
         ~checkpoint:ck ~checkpoint_every:100 ())
  in
  for _ = 1 to 6 do
    ignore (Engine.Scheduler.step sched)
  done;
  Alcotest.(check bool) "cancel accepted" true (Engine.Scheduler.cancel sched a);
  Engine.Scheduler.drain sched;
  let ra = job_result sched a in
  Alcotest.(check string) "status cancelled" "cancelled"
    (Engine.Job.status_to_string ra.Engine.Job.status);
  Alcotest.(check bool) "not via deadline" false ra.Engine.Job.deadline_expired;
  Alcotest.(check bool) "best-so-far is legal" true ra.Engine.Job.legal;
  (match Engine.Scheduler.legalized sched a with
  | Some lp ->
    Alcotest.(check bool) "passes Legalize.Check" true
      (Legalize.Check.is_legal circuit lp)
  | None -> Alcotest.fail "no legalised placement");
  Alcotest.(check (option string)) "final checkpoint written" (Some ck)
    ra.Engine.Job.checkpoint_written;
  let b =
    submit_and_drain sched
      (Engine.Job.spec ~source:(source ()) ~objective:(fast ()) ~max_steps:10
         ~start:(Engine.Job.Resume ck) ())
  in
  let c =
    submit_and_drain sched
      (Engine.Job.spec ~source:(source ()) ~objective:(fast ()) ~max_steps:10
         ())
  in
  same_placement "resumed-after-cancel placement" (job_placement sched c)
    (job_placement sched b);
  Sys.remove ck

(* ECO through the engine: a Warm start on an edited circuit is the same
   computation as Kraftwerk.Eco.replace on the base placement. *)
let test_eco_job_matches_direct_replace () =
  let src = source ~seed:3 () in
  let circuit, p0 = ok_or_fail (Engine.Source.load src) in
  let config = Kraftwerk.Config.fast in
  let base, _ = Kraftwerk.Placer.run config circuit p0 in
  let ck = temp ".json" in
  Engine.Checkpoint.save ck (Engine.Checkpoint.of_state base);
  let rng = Numeric.Rng.create 99 in
  let rewired = Kraftwerk.Eco.rewire circuit rng ~fraction:0.2 in
  let ckt = temp ".ckt" in
  Netlist.Io.save_circuit ckt rewired;
  (* Both sides use the circuit as reloaded from disk, like a serve
     client would submit it. *)
  let c2, _ = ok_or_fail (Engine.Source.load (Engine.Source.File ckt)) in
  let direct, _ =
    Kraftwerk.Eco.replace config c2 base.Kraftwerk.Placer.placement
      ~max_steps:6
  in
  let sched = Engine.Scheduler.create () in
  let id =
    submit_and_drain sched
      (Engine.Job.spec ~source:(Engine.Source.File ckt) ~objective:(fast ())
         ~start:(Engine.Job.Warm ck) ~max_steps:6 ())
  in
  let r = job_result sched id in
  Alcotest.(check string) "eco job done" "done"
    (Engine.Job.status_to_string r.Engine.Job.status);
  same_placement "eco placement" direct (job_placement sched id);
  List.iter Sys.remove [ ck; ckt ]

(* Interleaving K jobs must not perturb any of their trajectories. *)
let test_concurrent_interleaving_preserves_trajectories () =
  let spec seed =
    Engine.Job.spec ~source:(source ~seed ()) ~objective:(fast ())
      ~max_steps:8 ()
  in
  let seeds = [ 1; 2; 3 ] in
  let solo =
    List.map
      (fun seed ->
        let sched = Engine.Scheduler.create () in
        let id = submit_and_drain sched (spec seed) in
        job_placement sched id)
      seeds
  in
  let events = ref [] in
  let sched =
    Engine.Scheduler.create ~concurrency:3 ~domains:4
      ~on_event:(fun e -> events := e :: !events)
      ()
  in
  let ids = List.map (fun seed -> Engine.Scheduler.submit sched (spec seed)) seeds in
  Engine.Scheduler.drain sched;
  (* All three genuinely ran interleaved: every start precedes the first
     finish. *)
  let started_before_finish =
    let rec count acc = function
      | Engine.Scheduler.Finished _ :: _ -> acc
      | Engine.Scheduler.Started _ :: rest -> count (acc + 1) rest
      | _ :: rest -> count acc rest
      | [] -> acc
    in
    count 0 (List.rev !events)
  in
  Alcotest.(check int) "all jobs started before any finished" 3
    started_before_finish;
  List.iteri
    (fun i (seed, id) ->
      ignore i;
      same_placement
        (Printf.sprintf "seed %d" seed)
        (List.nth solo (i + 0))
        (job_placement sched id))
    (List.combine seeds ids)

(* ------------------------------------------------------------------ *)
(* Sharded scheduler                                                    *)

(* The sharding contract: for any worker count — the coordinator alone
   (domains 1), 2 or 4 workers — every job's result is bitwise the solo
   run's: placement, legalised metrics and telemetry trace alike.  Load
   is deliberately imbalanced (the two workers holding only short jobs
   go idle early and must steal the long jobs queued on shards 0/1). *)
let test_sharded_matches_solo () =
  let steps = [| 12; 12; 2; 2; 12; 12 |] in
  let spec ?trace seed =
    Engine.Job.spec
      ~source:(source ~seed ())
      ~objective:(fast ())
      ~max_steps:steps.(seed - 1)
      ?trace ()
  in
  let seeds = [ 1; 2; 3; 4; 5; 6 ] in
  let solo_traces = List.map (fun _ -> temp ".jsonl") seeds in
  let solo =
    List.map2
      (fun seed trace ->
        let sched = Engine.Scheduler.create () in
        let id = submit_and_drain sched (spec ~trace seed) in
        (job_placement sched id, job_result sched id))
      seeds solo_traces
  in
  List.iter
    (fun domains ->
      let tag fmt = Printf.ksprintf (fun s -> s) fmt in
      let traces = List.map (fun _ -> temp ".jsonl") seeds in
      let events = ref [] in
      let sched =
        Engine.Scheduler.create ~concurrency:6 ~domains
          ~on_event:(fun e -> events := e :: !events)
          ()
      in
      let ids =
        List.map2
          (fun seed trace -> Engine.Scheduler.submit sched (spec ~trace seed))
          seeds traces
      in
      Engine.Scheduler.drain sched;
      let metrics = Engine.Scheduler.shard_metrics sched in
      Engine.Scheduler.stop sched;
      Alcotest.(check int)
        (tag "domains=%d: metric per worker" domains)
        (if domains = 1 then 0 else domains)
        (List.length metrics);
      (* Lifecycle events arrive on the coordinator, in per-job order. *)
      let evs = List.rev !events in
      List.iter
        (fun id ->
          let pos p =
            let rec find i = function
              | [] -> Alcotest.failf "domains=%d: job %d lost an event" domains id
              | e :: rest -> if p e then i else find (i + 1) rest
            in
            find 0 evs
          in
          let sub = pos (fun e -> e = Engine.Scheduler.Submitted id) in
          let st = pos (fun e -> e = Engine.Scheduler.Started id) in
          let fin =
            pos (function
              | Engine.Scheduler.Finished (i, _) -> i = id
              | _ -> false)
          in
          Alcotest.(check bool)
            (tag "domains=%d: job %d event order" domains id)
            true
            (sub < st && st < fin))
        ids;
      List.iteri
        (fun i (seed, id) ->
          let solo_p, solo_r = List.nth solo i in
          let r = job_result sched id in
          same_placement
            (tag "domains=%d seed=%d: placement" domains seed)
            solo_p (job_placement sched id);
          Alcotest.(check bool)
            (tag "domains=%d seed=%d: legalised metrics bitwise" domains seed)
            true
            (bits r.Engine.Job.hpwl = bits solo_r.Engine.Job.hpwl
            && bits r.Engine.Job.overlap = bits solo_r.Engine.Job.overlap
            && r.Engine.Job.iterations = solo_r.Engine.Job.iterations);
          Alcotest.(check (list string))
            (tag "domains=%d seed=%d: telemetry trace" domains seed)
            (iteration_payloads (List.nth solo_traces i))
            (iteration_payloads (List.nth traces i)))
        (List.combine seeds ids);
      List.iter Sys.remove traces)
    [ 1; 2; 4 ];
  List.iter Sys.remove solo_traces

(* Stealing, forced structurally: jobs 1 and 3 are long and both home on
   shard 0 ((id-1) mod 2), job 2 is a one-step throwaway freeing shard
   1's worker almost immediately.  From then on shard 0's queue holds a
   runnable job at essentially all times (two live jobs, one executor),
   so the idle worker's first wake-up scan steals a slice.  The stolen
   slices must not perturb either trajectory.  Whether a steal happens
   still depends on the OS scheduling the workers (2 runs in 300 stole
   nothing on a 2-core host), so the scenario is retried up to 10
   times; every attempt is checked bitwise, and one attempt must have
   stolen. *)
let test_forced_stealing_bitwise () =
  let long seed =
    Engine.Job.spec ~source:(source ~seed ()) ~objective:(fast ())
      ~max_steps:12 ()
  in
  let solo =
    List.map
      (fun seed ->
        let sched = Engine.Scheduler.create () in
        let id = submit_and_drain sched (long seed) in
        job_placement sched id)
      [ 21; 22 ]
  in
  let rec attempt n =
    let sched = Engine.Scheduler.create ~concurrency:3 ~domains:2 () in
    let a = Engine.Scheduler.submit sched (long 21) in
    let _ =
      Engine.Scheduler.submit sched
        (Engine.Job.spec ~source:(source ~seed:23 ()) ~objective:(fast ())
           ~max_steps:1 ())
    in
    let b = Engine.Scheduler.submit sched (long 22) in
    Engine.Scheduler.drain sched;
    let metrics = Engine.Scheduler.shard_metrics sched in
    Engine.Scheduler.stop sched;
    same_placement "stolen job a" (List.nth solo 0) (job_placement sched a);
    same_placement "stolen job b" (List.nth solo 1) (job_placement sched b);
    let total_steals =
      List.fold_left (fun acc m -> acc + m.Engine.Scheduler.m_steals) 0 metrics
    in
    if total_steals = 0 && n < 10 then attempt (n + 1) else total_steals
  in
  Alcotest.(check bool) "stealing actually happened" true (attempt 1 > 0)

(* True when some iteration record in [file] carries a UB probe. *)
let trace_has_probe file =
  List.exists
    (fun line ->
      match Obs.Json.of_string line with
      | Error _ -> false
      | Ok v -> (
        match (Obs.Json.member "record" v, Obs.Json.member "ub_hpwl" v) with
        | Some (Obs.Json.Str "iteration"), Some (Obs.Json.Num _) -> true
        | _ -> false))
    (read_lines file)

(* Kill-and-resume with an effort preset steering the run, through the
   sharded scheduler: an effort-1 job cut at its checkpoint and resumed
   must replay bitwise on the coordinator and on 2 and 4 workers —
   placement, legalised metrics and the LB/UB telemetry tail alike.
   The cut at 7 straddles the effort-1 probe cadence (every 5
   iterations), so the resumed trace must carry live envelope probes of
   its own. *)
let test_sharded_resume_with_effort () =
  let src = source () in
  let spec ?start ?checkpoint ?trace ~max_steps () =
    Engine.Job.spec ~source:src ~objective:(fast ~effort:1 ()) ~max_steps
      ?start ?checkpoint ?trace ()
  in
  let t0 = temp ".jsonl" in
  let solo_sched = Engine.Scheduler.create () in
  let s = submit_and_drain solo_sched (spec ~max_steps:14 ~trace:t0 ()) in
  let solo_p = job_placement solo_sched s
  and solo_r = job_result solo_sched s in
  let solo_payloads = iteration_payloads t0 in
  List.iter
    (fun domains ->
      let tag fmt = Printf.ksprintf (fun s -> s) fmt in
      let ck = temp ".json" and tr = temp ".jsonl" in
      let sched =
        Engine.Scheduler.create ~concurrency:4 ~domains ()
      in
      let a = submit_and_drain sched (spec ~max_steps:7 ~checkpoint:ck ()) in
      Alcotest.(check string)
        (tag "domains=%d: prefix job done" domains)
        "done"
        (Engine.Job.status_to_string (job_result sched a).Engine.Job.status);
      let b =
        submit_and_drain sched
          (spec ~max_steps:14 ~start:(Engine.Job.Resume ck) ~trace:tr ())
      in
      let rb = job_result sched b in
      Engine.Scheduler.stop sched;
      Alcotest.(check int)
        (tag "domains=%d: same total iterations" domains)
        solo_r.Engine.Job.iterations rb.Engine.Job.iterations;
      same_placement
        (tag "domains=%d: global placement" domains)
        solo_p (job_placement sched b);
      Alcotest.(check bool)
        (tag "domains=%d: legalised hpwl bitwise" domains)
        true
        (bits rb.Engine.Job.hpwl = bits solo_r.Engine.Job.hpwl);
      let ib = iteration_payloads tr in
      Alcotest.(check bool)
        (tag "domains=%d: resumed trace is shorter" domains)
        true
        (List.length ib < List.length solo_payloads);
      Alcotest.(check (list string))
        (tag "domains=%d: LB/UB telemetry tail matches" domains)
        (last (List.length ib) solo_payloads)
        ib;
      Alcotest.(check bool)
        (tag "domains=%d: resumed tail carries a UB probe" domains)
        true (trace_has_probe tr);
      List.iter Sys.remove [ ck; tr ])
    [ 1; 2; 4 ];
  Sys.remove t0

(* Cancellation and deadlines keep their degraded-but-legal semantics
   when slices run on worker domains. *)
let test_sharded_cancel_deadline_legal () =
  (* The cancelled job must still be running when the cancel lands after
     its fourth slice: uncancelled, primary1 at effort 9 runs 312
     transformations of about 2 ms each. *)
  let long_source = Engine.Source.Profile { name = "primary1"; scale = 1.0; seed = 7 } in
  let circuit, _ = ok_or_fail (Engine.Source.load long_source) in
  let circuit5, _ = ok_or_fail (Engine.Source.load (source ~seed:5 ())) in
  let sched = Engine.Scheduler.create ~concurrency:2 ~domains:2 () in
  let a =
    Engine.Scheduler.submit sched
      (Engine.Job.spec ~source:long_source ~objective:(fast ~effort:9 ())
         ~max_steps:500 ())
  in
  let d =
    Engine.Scheduler.submit sched
      (Engine.Job.spec ~source:(source ~seed:5 ()) ~objective:(fast ())
         ~deadline:0.0 ())
  in
  (* Let the long job make real progress before cancelling it. *)
  let slices () =
    List.fold_left
      (fun acc m -> acc + m.Engine.Scheduler.m_slices)
      0
      (Engine.Scheduler.shard_metrics sched)
  in
  while slices () < 4 && Engine.Scheduler.busy sched do
    ignore (Engine.Scheduler.step sched)
  done;
  Alcotest.(check bool) "cancel accepted" true (Engine.Scheduler.cancel sched a);
  Engine.Scheduler.drain sched;
  Engine.Scheduler.stop sched;
  let ra = job_result sched a and rd = job_result sched d in
  Alcotest.(check string) "cancelled status" "cancelled"
    (Engine.Job.status_to_string ra.Engine.Job.status);
  Alcotest.(check bool) "cancel not via deadline" false
    ra.Engine.Job.deadline_expired;
  Alcotest.(check string) "deadline status" "cancelled"
    (Engine.Job.status_to_string rd.Engine.Job.status);
  Alcotest.(check bool) "deadline expired" true rd.Engine.Job.deadline_expired;
  List.iter
    (fun (tag, c, id, r) ->
      Alcotest.(check bool) (tag ^ " reported legal") true r.Engine.Job.legal;
      match Engine.Scheduler.legalized sched id with
      | Some lp ->
        Alcotest.(check bool)
          (tag ^ " passes Legalize.Check")
          true
          (Legalize.Check.is_legal c lp)
      | None -> Alcotest.failf "%s: no legalised placement" tag)
    [ ("cancelled", circuit, a, ra); ("deadline", circuit5, d, rd) ]

(* ------------------------------------------------------------------ *)
(* Multilevel flow through the engine                                  *)

(* fract's coarse circuit is so small the §4.2 density criterion is
   already satisfied at init, which would make the coarse stage a no-op;
   primary1 at this scale gives every stage real work (the coarse stage
   runs ~20 transformations before descending). *)
let ml_source () = Engine.Source.Profile { name = "primary1"; scale = 0.4; seed = 7 }

let fixed_positions_of (circuit : Netlist.Circuit.t) (p : Netlist.Placement.t) =
  Array.to_list circuit.Netlist.Circuit.cells
  |> List.filter_map (fun (cl : Netlist.Cell.t) ->
         if cl.Netlist.Cell.fixed then
           let id = cl.Netlist.Cell.id in
           Some (id, (p.Netlist.Placement.x.(id), p.Netlist.Placement.y.(id)))
         else None)

(* A multilevel job through the scheduler is the same computation as
   driving the V-cycle directly. *)
let test_multilevel_job_matches_direct () =
  let src = ml_source () in
  let circuit, p0 = ok_or_fail (Engine.Source.load src) in
  let config = Kraftwerk.Config.fast in
  let direct =
    Kraftwerk.Cluster.place_multilevel config circuit
      ~fixed_positions:(fixed_positions_of circuit p0)
      (Netlist.Placement.copy p0)
  in
  let sched = Engine.Scheduler.create () in
  let id =
    submit_and_drain sched
      (Engine.Job.spec ~source:src
         ~objective:(fast ~flow:Engine.Job.Multilevel ())
         ())
  in
  let r = job_result sched id in
  Alcotest.(check string) "multilevel job done" "done"
    (Engine.Job.status_to_string r.Engine.Job.status);
  Alcotest.(check bool) "took iterations" true (r.Engine.Job.iterations > 0);
  same_placement "multilevel global placement" direct (job_placement sched id)

(* Multilevel checkpoints carry the stage coordinates and only restore
   through the multilevel path. *)
let test_multilevel_checkpoint_guards () =
  let src = ml_source () in
  let circuit, p0 = ok_or_fail (Engine.Source.load src) in
  let config = Kraftwerk.Config.fast in
  let fixed = fixed_positions_of circuit p0 in
  let run =
    Kraftwerk.Cluster.start config circuit ~fixed_positions:fixed
      (Netlist.Placement.copy p0)
  in
  for _ = 1 to 5 do
    ignore (Kraftwerk.Cluster.step run)
  done;
  let cp = Engine.Checkpoint.of_run run in
  Alcotest.(check bool) "mid-level cut" true
    (cp.Engine.Checkpoint.ml_level > 0 && cp.Engine.Checkpoint.ml_levels > 1);
  (* The flat restore path must refuse a coarse-stage checkpoint... *)
  (match Engine.Checkpoint.restore cp config circuit with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "flat restore accepted a multilevel checkpoint");
  (* ...while the multilevel path rebuilds the very same stage. *)
  let file = temp ".json" in
  Engine.Checkpoint.save file cp;
  let cp' = ok_or_fail (Engine.Checkpoint.load file) in
  Sys.remove file;
  let resumed =
    ok_or_fail
      (Engine.Checkpoint.restore_multilevel cp' config circuit
         ~fixed_positions:fixed)
  in
  Alcotest.(check int) "same level"
    (Kraftwerk.Cluster.current_level run)
    (Kraftwerk.Cluster.current_level resumed);
  same_placement "same stage placement"
    (Kraftwerk.Cluster.current_state run).Kraftwerk.Placer.placement
    (Kraftwerk.Cluster.current_state resumed).Kraftwerk.Placer.placement;
  (* Continuing both to completion stays bitwise-identical. *)
  while Kraftwerk.Cluster.step run do
    ()
  done;
  while Kraftwerk.Cluster.step resumed do
    ()
  done;
  same_placement "continued to completion"
    (Kraftwerk.Cluster.finish run)
    (Kraftwerk.Cluster.finish resumed)

(* The headline restartability property, multilevel edition: a V-cycle
   job cut at a checkpoint — first mid-coarsest-stage, then mid-refine —
   and resumed must land bitwise on the uninterrupted job's placement,
   on the coordinator and on 2 and 4 workers. *)
let test_multilevel_resume_bitwise_shards () =
  let src = ml_source () in
  let mspec ?start ?checkpoint ?max_steps () =
    Engine.Job.spec ~source:src
      ~objective:(fast ~flow:Engine.Job.Multilevel ())
      ?start ?checkpoint ?max_steps ()
  in
  let solo_sched = Engine.Scheduler.create () in
  let s = submit_and_drain solo_sched (mspec ()) in
  let solo_p = job_placement solo_sched s in
  let solo_r = job_result solo_sched s in
  Alcotest.(check bool) "solo ran long enough to cut twice" true
    (solo_r.Engine.Job.iterations > 10);
  List.iter
    (fun domains ->
      let tag fmt = Printf.ksprintf (fun s -> s) fmt in
      List.iter
        (fun (cut_name, cut) ->
          let ck = temp ".json" in
          let sched =
            Engine.Scheduler.create ~concurrency:4 ~domains ()
          in
          let a = submit_and_drain sched (mspec ~checkpoint:ck ~max_steps:cut ()) in
          Alcotest.(check string)
            (tag "domains=%d %s: prefix done" domains cut_name)
            "done"
            (Engine.Job.status_to_string (job_result sched a).Engine.Job.status);
          let cp = ok_or_fail (Engine.Checkpoint.load ck) in
          Alcotest.(check bool)
            (tag "domains=%d %s: checkpoint is multilevel" domains cut_name)
            true
            (cp.Engine.Checkpoint.ml_levels > 1);
          let b = submit_and_drain sched (mspec ~start:(Engine.Job.Resume ck) ()) in
          let rb = job_result sched b in
          Engine.Scheduler.stop sched;
          Alcotest.(check string)
            (tag "domains=%d %s: resumed done" domains cut_name)
            "done"
            (Engine.Job.status_to_string rb.Engine.Job.status);
          same_placement
            (tag "domains=%d %s: placement" domains cut_name)
            solo_p (job_placement sched b);
          Alcotest.(check bool)
            (tag "domains=%d %s: legalised hpwl bitwise" domains cut_name)
            true
            (bits rb.Engine.Job.hpwl = bits solo_r.Engine.Job.hpwl);
          Sys.remove ck)
        [
          ("coarse cut", 5);
          ("refine cut", solo_r.Engine.Job.iterations - 3);
        ])
    [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Routability loop through the engine                                 *)

(* The routability loop's persistent congestion-target map is job state:
   a routability job cut mid-loop and resumed must land bitwise on the
   uninterrupted trajectory — placement, legalised HPWL and routed
   overflow — on the coordinator and on 2 and 4 workers. *)
let test_congestion_resume_bitwise_shards () =
  let src = source ~seed:3 () in
  let obj =
    Engine.Objective.make ~goal:Engine.Objective.Routability
      ~mode:Engine.Objective.Fast ~congest_every:2 ()
  in
  let cspec ?start ?checkpoint ?max_steps () =
    Engine.Job.spec ~source:src ~objective:obj ?start ?checkpoint ?max_steps ()
  in
  let solo = Engine.Scheduler.create () in
  let s = submit_and_drain solo (cspec ~max_steps:12 ()) in
  let solo_p = job_placement solo s in
  let solo_r = job_result solo s in
  Alcotest.(check string) "solo done" "done"
    (Engine.Job.status_to_string solo_r.Engine.Job.status);
  Alcotest.(check bool) "solo routed overflow measured" true
    (solo_r.Engine.Job.routed_overflow <> None);
  List.iter
    (fun domains ->
      let tag fmt = Printf.ksprintf (fun s -> s) fmt in
      let ck = temp ".json" in
      let sched =
        Engine.Scheduler.create ~concurrency:4 ~domains ()
      in
      let a = submit_and_drain sched (cspec ~checkpoint:ck ~max_steps:5 ()) in
      Alcotest.(check string)
        (tag "domains=%d: prefix done" domains)
        "done"
        (Engine.Job.status_to_string (job_result sched a).Engine.Job.status);
      (* The cut falls after a congestion refresh: the checkpoint must
         carry the accumulated target map verbatim. *)
      let cp = ok_or_fail (Engine.Checkpoint.load ck) in
      (match cp.Engine.Checkpoint.route_target with
      | Some t ->
        Alcotest.(check bool)
          (tag "domains=%d: target map saved" domains)
          true
          (Array.length t > 0)
      | None ->
        Alcotest.failf "domains=%d: checkpoint without congestion state" domains);
      let b =
        submit_and_drain sched
          (cspec ~start:(Engine.Job.Resume ck) ~max_steps:12 ())
      in
      let rb = job_result sched b in
      Engine.Scheduler.stop sched;
      same_placement (tag "domains=%d: placement" domains) solo_p
        (job_placement sched b);
      Alcotest.(check bool)
        (tag "domains=%d: legalised hpwl bitwise" domains)
        true
        (bits rb.Engine.Job.hpwl = bits solo_r.Engine.Job.hpwl);
      (Alcotest.(check bool) (tag "domains=%d: routed overflow bitwise" domains))
        true
        (match (rb.Engine.Job.routed_overflow, solo_r.Engine.Job.routed_overflow) with
        | Some x, Some y -> bits x = bits y
        | None, None -> true
        | _ -> false);
      Sys.remove ck)
    [ 1; 2; 4 ]

let ok_or_fail_route = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Route.Grid_spec.error_message e)

(* At equal effort, asking for routability must actually buy routability:
   on primary1 the routed overflow of the routability objective stays
   strictly below the wirelength objective's. *)
let test_routability_reduces_routed_overflow () =
  let src = Engine.Source.Profile { name = "primary1"; scale = 1.0; seed = 7 } in
  let run goal =
    let sched = Engine.Scheduler.create () in
    let id =
      submit_and_drain sched
        (Engine.Job.spec ~source:src ~objective:(Engine.Objective.make ~goal ())
           ())
    in
    let r = job_result sched id in
    Alcotest.(check string)
      (Engine.Objective.goal_to_string goal ^ " done")
      "done"
      (Engine.Job.status_to_string r.Engine.Job.status);
    let circuit, p0 = ok_or_fail (Engine.Source.load src) in
    ignore p0;
    let lp =
      match Engine.Scheduler.legalized sched id with
      | Some lp -> lp
      | None -> Alcotest.fail "no legalised placement"
    in
    let spec =
      Kraftwerk.Placer.route_spec
        (Engine.Objective.config (Engine.Objective.make ~goal ()))
        circuit
    in
    let routed = ok_or_fail_route (Route.Grouter.route circuit lp spec) in
    (r, routed.Route.Grouter.total_overflow)
  in
  let rw, wl_ovfl = run Engine.Objective.Wirelength in
  let rr, rt_ovfl = run Engine.Objective.Routability in
  Alcotest.(check bool) "wirelength objective skips routing" true
    (rw.Engine.Job.routed_overflow = None);
  (match rr.Engine.Job.routed_overflow with
  | None -> Alcotest.fail "routability result without routed overflow"
  | Some o ->
    Alcotest.(check bool) "result overflow consistent" true (Float.is_finite o));
  Alcotest.(check bool)
    (Printf.sprintf "routed overflow reduced >= 15%% (%.4g -> %.4g)" wl_ovfl
       rt_ovfl)
    true
    (rt_ovfl <= 0.85 *. wl_ovfl)

(* ------------------------------------------------------------------ *)
(* Checkpoint robustness                                                *)

let read_file file = In_channel.with_open_bin file In_channel.input_all

let write_file file text =
  Out_channel.with_open_bin file (fun oc -> output_string oc text)

let load_text text =
  let file = temp ".json" in
  write_file file text;
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () -> Engine.Checkpoint.load file)

(* [edit_field key f json] rewrites one top-level field of a checkpoint. *)
let edit_field key f = function
  | Obs.Json.Obj fields ->
    Obs.Json.Obj
      (List.map (fun (k, v) -> if k = key then (k, f v) else (k, v)) fields)
  | _ -> Alcotest.fail "checkpoint json is not an object"

let shorter = function
  | Obs.Json.Arr (_ :: rest) -> Obs.Json.Arr rest
  | v -> Alcotest.failf "expected a non-empty array: %s" (Obs.Json.to_string v)

let longer = function
  | Obs.Json.Arr items -> Obs.Json.Arr (Obs.Json.Num 0.5 :: items)
  | v -> Alcotest.failf "expected an array, got %s" (Obs.Json.to_string v)

(* Real v4 checkpoints of short fast routability runs, flat and mid
   V-cycle, carrying every optional array (criticality, route_target).
   Returns the file text and the restore path that must be used. *)
let robustness_fixtures () =
  let config = Kraftwerk.Config.routability Kraftwerk.Config.fast in
  let flat =
    let circuit, p0 = ok_or_fail (Engine.Source.load (source ())) in
    let state = Kraftwerk.Placer.init config circuit p0 in
    ignore (Kraftwerk.Placer.continue_run state ~max_steps:4);
    let criticality = Array.make (Netlist.Circuit.num_nets circuit) 0.25 in
    ( "flat",
      Engine.Checkpoint.of_state ~criticality state,
      fun cp ->
        Result.map ignore (Engine.Checkpoint.restore cp config circuit) )
  in
  let multi =
    let circuit, p0 = ok_or_fail (Engine.Source.load (ml_source ())) in
    let fixed = fixed_positions_of circuit p0 in
    let run =
      Kraftwerk.Cluster.start config circuit ~fixed_positions:fixed
        (Netlist.Placement.copy p0)
    in
    for _ = 1 to 5 do
      ignore (Kraftwerk.Cluster.step run)
    done;
    let criticality = Array.make (Netlist.Circuit.num_nets circuit) 0.25 in
    ( "multilevel",
      Engine.Checkpoint.of_run ~criticality run,
      fun cp ->
        Result.map ignore
          (Engine.Checkpoint.restore_multilevel cp config circuit
             ~fixed_positions:fixed) )
  in
  List.map
    (fun (tag, cp, restore) ->
      Alcotest.(check bool) (tag ^ ": carries route_target") true
        (cp.Engine.Checkpoint.route_target <> None);
      let file = temp ".json" in
      Engine.Checkpoint.save file cp;
      let text = read_file file in
      Sys.remove file;
      (* The untouched file loads and restores: the corruptions below
         are what make it fail. *)
      (match Result.bind (load_text text) restore with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: intact checkpoint rejected: %s" tag e);
      (tag, text, restore))
    [ flat; multi ]

let expect_error tag restore text =
  match Result.bind (load_text text) restore with
  | Ok () -> Alcotest.failf "%s: accepted" tag
  | Error _ -> ()
  | exception e -> Alcotest.failf "%s: raised %s" tag (Printexc.to_string e)

(* Truncated files and wrong-length arrays are typed [Error]s from
   load/restore, never exceptions. *)
let test_checkpoint_robustness () =
  List.iter
    (fun (tag, text, restore) ->
      let json = ok_or_fail (Obs.Json.of_string text) in
      let body = String.length (String.trim text) in
      List.iter
        (fun k ->
          let cut = k * (body - 1) / 40 in
          expect_error
            (Printf.sprintf "%s cut at byte %d of %d" tag cut body)
            restore (String.sub text 0 cut))
        (List.init 41 Fun.id);
      List.iter
        (fun (what, edits) ->
          let edited =
            List.fold_left (fun j (k, f) -> edit_field k f j) json edits
          in
          expect_error (tag ^ ": " ^ what) restore (Obs.Json.to_string edited))
        [
          ("short ex", [ ("ex", shorter) ]);
          ("short ex and ey", [ ("ex", shorter); ("ey", shorter) ]);
          ("long ex and ey", [ ("ex", longer); ("ey", longer) ]);
          ("short net_weights", [ ("net_weights", shorter) ]);
          ("long net_weights", [ ("net_weights", longer) ]);
          ("short criticality", [ ("criticality", shorter) ]);
          ("long criticality", [ ("criticality", longer) ]);
          ("short route_target", [ ("route_target", shorter) ]);
          ("long route_target", [ ("route_target", longer) ]);
          ("short x and y", [ ("x", shorter); ("y", shorter) ]);
          ("no ml_level", [ ("ml_level", fun _ -> Obs.Json.Null) ]);
          ("iteration past 2^53", [ ("iteration", fun _ -> Obs.Json.Num 1e19) ]);
        ])
    (robustness_fixtures ())

(* One live version: the current file stamped "version":3 is refused by
   load with a typed message, and a job resuming from it ends Failed. *)
let test_checkpoint_other_versions_rejected () =
  let circuit, p0 = ok_or_fail (Engine.Source.load (source ())) in
  let state = Kraftwerk.Placer.init Kraftwerk.Config.fast circuit p0 in
  ignore (Kraftwerk.Placer.continue_run state ~max_steps:3);
  let file = temp ".json" in
  Engine.Checkpoint.save file (Engine.Checkpoint.of_state state);
  let json = ok_or_fail (Obs.Json.of_string (read_file file)) in
  List.iter
    (fun v ->
      let stamp _ = Obs.Json.Num (float_of_int v) in
      write_file file
        (Obs.Json.to_string (edit_field "version" stamp json));
      (match Engine.Checkpoint.load file with
      | Ok _ -> Alcotest.failf "version %d checkpoint loaded" v
      | Error e ->
        Alcotest.(check string) "typed message"
          (Printf.sprintf
             "checkpoint: unsupported version %d (this build reads 4)" v)
          e);
      let sched = Engine.Scheduler.create () in
      let id =
        submit_and_drain sched
          (Engine.Job.spec ~source:(source ()) ~objective:(fast ())
             ~start:(Engine.Job.Resume file) ())
      in
      match (job_result sched id).Engine.Job.status with
      | Engine.Job.Failed _ -> ()
      | s ->
        Alcotest.failf "job resuming a version %d checkpoint ended %s" v
          (Engine.Job.status_to_string s))
    [ 2; 3; 5 ];
  Sys.remove file

(* ------------------------------------------------------------------ *)
(* Serialisation and protocol                                          *)

let test_spec_json_round_trip () =
  let full =
    Engine.Job.spec ~source:(source ())
      ~objective:
        (fast ~goal:Engine.Objective.Timing ~effort:4
           ~flow:Engine.Job.Multilevel ())
      ~priority:3 ~deadline:1.5 ~max_steps:9
      ~start:(Engine.Job.Resume "ck.json")
      ~checkpoint:"out.json" ~checkpoint_every:7 ~trace:"t.jsonl" ()
  in
  let minimal = Engine.Job.spec ~source:(Engine.Source.File "a.ckt") () in
  List.iter
    (fun s ->
      match Engine.Job.spec_of_json (Engine.Job.spec_to_json s) with
      | Error e -> Alcotest.failf "spec does not round-trip: %s" e
      | Ok s' ->
        Alcotest.(check bool) "spec round-trips structurally" true (s = s'))
    [ full; minimal ]

(* A "domains" key from an older client is ignored like any unknown
   key: a job's kernels run on one domain whatever it asks for. *)
let test_spec_ignores_domains () =
  let minimal = Engine.Job.spec ~source:(Engine.Source.File "a.ckt") () in
  List.iter
    (fun d ->
      match
        Engine.Job.spec_of_json
          (Obs.Json.Obj
             [ ("circuit", Obs.Json.Str "a.ckt"); ("domains", Obs.Json.Num d) ])
      with
      | Ok s ->
        Alcotest.(check bool) (Printf.sprintf "domains %g ignored" d) true
          (s = minimal)
      | Error e -> Alcotest.failf "spec with domains %g rejected: %s" d e)
    [ 1.; 2.; 500. ]

(* [domains] is the worker count: min(concurrency, domains) worker
   domains above 1, the caller alone at 1; outside 1..max_workers, or
   with no concurrency slot, creation is refused. *)
let test_scheduler_workers_range () =
  List.iter
    (fun (concurrency, domains, expected) ->
      let sched = Engine.Scheduler.create ~concurrency ?domains () in
      let workers = Engine.Scheduler.workers sched in
      Engine.Scheduler.stop sched;
      Alcotest.(check int)
        (Printf.sprintf "concurrency %d, domains %s" concurrency
           (match domains with Some d -> string_of_int d | None -> "default"))
        expected workers)
    [
      (3, None, 0);
      (3, Some 1, 0);
      (3, Some 2, 2);
      (2, Some Engine.Scheduler.max_workers, 2);
      (1, Some 4, 1);
    ];
  List.iter
    (fun (concurrency, domains) ->
      match Engine.Scheduler.create ~concurrency ~domains () with
      | exception Invalid_argument _ -> ()
      | sched ->
        Engine.Scheduler.stop sched;
        Alcotest.failf "created with concurrency %d, domains %d" concurrency
          domains)
    [ (1, 0); (1, Engine.Scheduler.max_workers + 1); (0, 1); (0, 2) ]

let parse_request line =
  match Obs.Json.of_string line with
  | Error e -> Alcotest.failf "bad request JSON: %s" e
  | Ok v -> Engine.Protocol.request_of_json v

let test_protocol_request_parsing () =
  (match
     parse_request
       {|{"cmd":"submit","job":{"profile":"fract","scale":0.5,"seed":7,"objective":{"mode":"fast"}}}|}
   with
  | Ok (Engine.Protocol.Submit _) -> ()
  | Ok _ -> Alcotest.fail "submit parsed to another request"
  | Error e -> Alcotest.failf "submit rejected: %s" (Engine.Protocol.error_message e));
  (match parse_request {|{"cmd":"step"}|} with
  | Ok (Engine.Protocol.Step 1) -> ()
  | _ -> Alcotest.fail "bare step must default to one turn");
  (match parse_request {|{"cmd":"step","turns":5}|} with
  | Ok (Engine.Protocol.Step 5) -> ()
  | _ -> Alcotest.fail "step with turns");
  (match parse_request {|{"cmd":"wait","id":2}|} with
  | Ok (Engine.Protocol.Wait 2) -> ()
  | _ -> Alcotest.fail "wait with id");
  (* Malformed requests come back as errors, never exceptions. *)
  List.iter
    (fun line ->
      match parse_request line with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed request %s" line)
    [
      {|{"cmd":"submit"}|};
      {|{"cmd":"result"}|};
      {|{"cmd":"cancel","id":"one"}|};
      {|{"cmd":"frobnicate"}|};
      {|{"turns":5}|};
    ]

let member_exn name v =
  match Obs.Json.member name v with
  | Some x -> x
  | None -> Alcotest.failf "response without %S field" name

let test_protocol_session () =
  let sched = Engine.Scheduler.create () in
  let handle line =
    match parse_request line with
    | Error e ->
      Alcotest.failf "request rejected: %s" (Engine.Protocol.error_message e)
    | Ok req ->
      let reply, stop = Engine.Protocol.handle sched req in
      (Engine.Protocol.render ~seq:None reply, stop)
  in
  let resp, stop =
    handle
      {|{"cmd":"submit","job":{"profile":"fract","scale":0.5,"seed":7,"objective":{"mode":"fast"},"max_steps":3}}|}
  in
  Alcotest.(check bool) "submit not a shutdown" false stop;
  Alcotest.(check bool) "submit ok" true
    (member_exn "ok" resp = Obs.Json.Bool true);
  Alcotest.(check bool) "submit id 1" true
    (member_exn "id" resp = Obs.Json.Num 1.);
  let resp, _ = handle {|{"cmd":"status","id":1}|} in
  Alcotest.(check bool) "queued before any step" true
    (member_exn "status" resp = Obs.Json.Str "queued");
  let resp, _ = handle {|{"cmd":"result","id":1}|} in
  Alcotest.(check bool) "result refused while non-terminal" true
    (member_exn "ok" resp = Obs.Json.Bool false);
  let resp, _ = handle {|{"cmd":"drain"}|} in
  Alcotest.(check bool) "drain ok" true
    (member_exn "ok" resp = Obs.Json.Bool true);
  let resp, _ = handle {|{"cmd":"result","id":1}|} in
  Alcotest.(check bool) "result ok once terminal" true
    (member_exn "ok" resp = Obs.Json.Bool true);
  (match member_exn "result" resp with
  | Obs.Json.Obj _ as r ->
    Alcotest.(check bool) "terminal status done" true
      (member_exn "status" r = Obs.Json.Str "done");
    (* The result must itself parse as a Job.result. *)
    (match Engine.Job.result_of_json r with
    | Ok jr -> Alcotest.(check int) "iterations" 3 jr.Engine.Job.iterations
    | Error e -> Alcotest.failf "result does not validate: %s" e)
  | _ -> Alcotest.fail "result is not an object");
  let resp, _ = handle {|{"cmd":"result","id":99}|} in
  Alcotest.(check bool) "unknown id is an error" true
    (member_exn "ok" resp = Obs.Json.Bool false);
  let _, stop = handle {|{"cmd":"shutdown"}|} in
  Alcotest.(check bool) "shutdown stops the loop" true stop

(* Claim-first: with two workers and three slots, every queued job is
   claimed before any running job's slice is picked, so all three start
   before the first finishes — as with the coordinator alone. *)
let test_workers_claim_before_slices () =
  let events = ref [] in
  let sched =
    Engine.Scheduler.create ~concurrency:3 ~domains:2
      ~on_event:(fun e -> events := e :: !events)
      ()
  in
  Alcotest.(check int) "two workers" 2 (Engine.Scheduler.workers sched);
  List.iter
    (fun seed ->
      ignore
        (Engine.Scheduler.submit sched
           (Engine.Job.spec ~source:(source ~seed ()) ~objective:(fast ())
              ~max_steps:4 ())))
    [ 31; 32; 33 ];
  Engine.Scheduler.drain sched;
  Engine.Scheduler.stop sched;
  let rec started_before_finish acc = function
    | Engine.Scheduler.Finished _ :: _ -> acc
    | Engine.Scheduler.Started _ :: rest -> started_before_finish (acc + 1) rest
    | _ :: rest -> started_before_finish acc rest
    | [] -> acc
  in
  Alcotest.(check int) "all jobs started before any finished" 3
    (started_before_finish 0 (List.rev !events))

let suite =
  [
    Alcotest.test_case "checkpoint save/load round-trip" `Quick
      test_checkpoint_round_trip;
    Alcotest.test_case "checkpoint digest guards" `Quick
      test_checkpoint_digest_guards;
    Alcotest.test_case "checkpoint digest pins" `Quick
      test_checkpoint_digest_pins;
    Alcotest.test_case "resume bitwise" `Slow test_resume_bitwise;
    Alcotest.test_case "resume is bitwise with the controller active" `Slow
      test_resume_bitwise_controller_active;
    Alcotest.test_case "engine resume matches uninterrupted run" `Slow
      test_engine_resume_matches_uninterrupted;
    Alcotest.test_case "timing-driven resume carries criticalities" `Slow
      test_engine_resume_timing_driven;
    Alcotest.test_case "impossible deadline degrades to legal placement" `Quick
      test_deadline_degrades_to_legal;
    Alcotest.test_case "cancel writes a resumable checkpoint" `Slow
      test_cancel_checkpoint_resume;
    Alcotest.test_case "eco warm-start job matches direct Eco.replace" `Slow
      test_eco_job_matches_direct_replace;
    Alcotest.test_case "interleaving preserves solo trajectories" `Slow
      test_concurrent_interleaving_preserves_trajectories;
    Alcotest.test_case "sharded execution is bitwise solo for 0/2/4 workers"
      `Slow test_sharded_matches_solo;
    Alcotest.test_case "forced stealing leaves trajectories bitwise" `Slow
      test_forced_stealing_bitwise;
    Alcotest.test_case "sharded resume with an effort preset is bitwise" `Slow
      test_sharded_resume_with_effort;
    Alcotest.test_case "sharded cancel and deadline degrade to legal" `Slow
      test_sharded_cancel_deadline_legal;
    Alcotest.test_case "multilevel job matches direct V-cycle" `Slow
      test_multilevel_job_matches_direct;
    Alcotest.test_case "multilevel checkpoint guards and round-trip" `Slow
      test_multilevel_checkpoint_guards;
    Alcotest.test_case "multilevel resume is bitwise for 0/2/4 workers" `Slow
      test_multilevel_resume_bitwise_shards;
    Alcotest.test_case "congestion resume is bitwise for 0/2/4 workers" `Slow
      test_congestion_resume_bitwise_shards;
    Alcotest.test_case "routability objective reduces routed overflow" `Slow
      test_routability_reduces_routed_overflow;
    Alcotest.test_case "checkpoint robustness: cuts and bad lengths" `Slow
      test_checkpoint_robustness;
    Alcotest.test_case "checkpoint versions other than 4 rejected" `Quick
      test_checkpoint_other_versions_rejected;
    Alcotest.test_case "spec json round-trip" `Quick test_spec_json_round_trip;
    Alcotest.test_case "spec ignores a domains key" `Quick
      test_spec_ignores_domains;
    Alcotest.test_case "scheduler worker count and range" `Quick
      test_scheduler_workers_range;
    Alcotest.test_case "protocol request parsing" `Quick
      test_protocol_request_parsing;
    Alcotest.test_case "protocol submit/drain/result session" `Quick
      test_protocol_session;
    Alcotest.test_case "workers claim queued jobs before slices" `Slow
      test_workers_claim_before_slices;
  ]
