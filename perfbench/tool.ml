(* Helper for the serve-path benchmark (run.py):

     tool.exe gen MANIFEST          write each job's circuit as .ckt + .pos
     tool.exe replay MANIFEST OUT   replay the jobs in-process, per layer

   The replay mirrors the job engine's execution path for one job
   (Engine.Scheduler: load, init or cluster build, the transformation
   loop with its stop checks, the finishing pipeline and the routed
   validation) through each layer's public functions, timing each call
   from outside.  Inside a transformation the registry's existing timers
   (placer/assemble, placer/density, ...) split the time further.  The
   final HPWL must equal the served one bit for bit; run.py checks it. *)

module J = Obs.Json

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("tool: " ^ s); exit 2) fmt

let read_json file =
  let ic = open_in_bin file in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match J.of_string s with Ok v -> v | Error e -> die "%s: %s" file e

let field key v =
  match J.member key v with Some x -> x | None -> die "missing field %S" key

let str key v = match field key v with J.Str s -> s | _ -> die "%S: not a string" key
let num key v = match field key v with J.Num n -> n | _ -> die "%S: not a number" key
let arr key v = match field key v with J.Arr l -> l | _ -> die "%S: not a list" key

(* ------------------------------------------------------------------ *)
(* gen                                                                  *)

let gen manifest =
  List.iter
    (fun j ->
      let file = str "file" j in
      let prof =
        try Circuitgen.Profiles.find (str "profile" j)
        with Not_found -> die "unknown profile %s" (str "profile" j)
      in
      let params =
        Circuitgen.Profiles.params ~scale:(num "scale" j) prof
          ~seed:(int_of_float (num "seed" j))
      in
      let c, fixed = Circuitgen.Gen.generate params in
      Netlist.Io.save_circuit file c;
      Netlist.Io.save_placement (file ^ ".pos")
        (Circuitgen.Gen.initial_placement c fixed))
    (arr "jobs" (read_json manifest))

(* ------------------------------------------------------------------ *)
(* Spans                                                                *)

(* Per-job accumulators: wall milliseconds and allocated words by layer
   name.  Top-level spans partition the job; what they leave uncovered
   is the replay's unaccounted time. *)
let ms : (string, float) Hashtbl.t = Hashtbl.create 32
let words : (string, float) Hashtbl.t = Hashtbl.create 32

let add tbl k v =
  Hashtbl.replace tbl k (v +. Option.value (Hashtbl.find_opt tbl k) ~default:0.)

let allocated () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let span name f =
  let w0 = allocated () in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  add ms name (1000. *. (Unix.gettimeofday () -. t0));
  add words name (allocated () -. w0);
  r

let vm_hwm_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f" Fun.id
    | _ -> scan ()
    | exception End_of_file -> 0.
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) scan in
  kb /. 1024.

let registry_ms name = 1000. *. (Obs.Registry.get name).Obs.Stat.total
let registry_total name = (Obs.Registry.get name).Obs.Stat.total
let registry_count name = (Obs.Registry.get name).Obs.Stat.count

(* The engine's timing-goal hook (Engine.Scheduler.timing_hooks), built
   from the same public functions, with the STA call timed. *)
let timing_hooks crit =
  let params = Timing.Params.default in
  {
    Kraftwerk.Placer.no_hooks with
    Kraftwerk.Placer.reweight =
      Some
        (fun (state : Kraftwerk.Placer.state) ->
          span "timing.reweight" (fun () ->
              let sta =
                span "timing.sta" (fun () ->
                    Timing.Sta.analyse params state.Kraftwerk.Placer.circuit
                      state.Kraftwerk.Placer.placement)
              in
              Timing.Criticality.update crit params
                ~net_slack:sta.Timing.Sta.net_slack;
              Timing.Criticality.apply_weights
                ~cap:params.Timing.Params.max_net_weight crit
                state.Kraftwerk.Placer.net_weights));
  }

type exec = Flat of Kraftwerk.Placer.state | Multi of Kraftwerk.Cluster.run

let fixed_positions_of circuit (p : Netlist.Placement.t) =
  Array.to_list circuit.Netlist.Circuit.cells
  |> List.filter_map (fun (cl : Netlist.Cell.t) ->
         if cl.Netlist.Cell.fixed then
           Some
             ( cl.Netlist.Cell.id,
               ( p.Netlist.Placement.x.(cl.Netlist.Cell.id),
                 p.Netlist.Placement.y.(cl.Netlist.Cell.id) ) )
         else None)

let measure_poisson ~rows ~cols ~hx ~hy =
  let density =
    Array.init (rows * cols) (fun i -> Float.of_int ((i * 7919) mod 13) -. 6.)
  in
  let call () =
    ignore (Numeric.Poisson.fft_force_field ~rows ~cols ~hx ~hy density)
  in
  call ();
  let times = ref [] and spent = ref 0. in
  while List.length !times < 5 || (!spent < 0.2 && List.length !times < 200) do
    let t0 = Unix.gettimeofday () in
    call ();
    let dt = Unix.gettimeofday () -. t0 in
    times := dt :: !times;
    spent := !spent +. dt
  done;
  let sorted = Array.of_list (List.sort compare !times) in
  let rec pow2 k n = if k >= n then k else pow2 (2 * k) n in
  let pq = float_of_int (pow2 1 (2 * rows) * pow2 1 (2 * cols)) in
  let lg = Float.log2 pq in
  (* Real forward transform of the padded density (half a complex FFT),
     two kernel products over the half spectrum, one packed complex
     inverse; 5 N log2 N flops per complex FFT of N points. *)
  let flops = (2.5 *. pq *. lg) +. (6. *. pq) +. (5. *. pq *. lg) in
  (* Density in, two force planes out, both kernel half spectra read,
     the padded complex scratch written and read once per transform. *)
  let grid = float_of_int (rows * cols) in
  let bytes = (8. *. grid) +. (16. *. grid) +. (16. *. pq) +. (64. *. pq) in
  J.Obj
    [
      ("rows", J.Num (float_of_int rows));
      ("cols", J.Num (float_of_int cols));
      ("call_ms", J.Num (1000. *. sorted.(Array.length sorted / 2)));
      ("calls_timed", J.Num (float_of_int (Array.length sorted)));
      ("mflop_computed", J.Num (flops /. 1e6));
      ("mbytes_computed", J.Num (bytes /. 1e6));
    ]

(* Median wall time of [Numeric.Poisson.fft_force_field] on the job's
   flat density grid, with its operation count and bytes moved computed
   from the padded transform sizes (not measured); once per grid. *)
let probes : (int * int, J.t) Hashtbl.t = Hashtbl.create 8

let poisson_probe (config : Kraftwerk.Config.t) circuit =
  let spec = Kraftwerk.Placer.route_spec config circuit in
  let cols = spec.Route.Grid_spec.nx and rows = spec.Route.Grid_spec.ny in
  match Hashtbl.find_opt probes (rows, cols) with
  | Some probe -> probe
  | None ->
    let region = circuit.Netlist.Circuit.region in
    let probe =
      measure_poisson ~rows ~cols
        ~hx:(Geometry.Rect.width region /. float_of_int cols)
        ~hy:(Geometry.Rect.height region /. float_of_int rows)
    in
    Hashtbl.replace probes (rows, cols) probe;
    probe

let replay_job spec_json =
  let spec =
    match Engine.Job.spec_of_json spec_json with
    | Ok s -> s
    | Error e -> die "bad spec: %s" e
  in
  Hashtbl.reset ms;
  Hashtbl.reset words;
  Obs.Registry.reset ();
  let rss = ref [] in
  let mark name = rss := (name, vm_hwm_mb ()) :: !rss in
  let t_job = Unix.gettimeofday () in
  let circuit, p0 =
    match span "netlist.load" (fun () -> Engine.Source.load spec.Engine.Job.source) with
    | Ok x -> x
    | Error e -> die "load: %s" e
  in
  (* As in the scheduler: the engine owns the lane pool. *)
  let config =
    { (Engine.Job.config_of_spec spec) with Kraftwerk.Config.domains = None }
  in
  let hooks =
    if Engine.Job.timing spec then
      timing_hooks (Timing.Criticality.create (Netlist.Circuit.num_nets circuit))
    else Kraftwerk.Placer.no_hooks
  in
  let exec, max_steps =
    match Engine.Job.flow spec with
    | Engine.Job.Flat ->
      ( Flat (span "kraftwerk.init" (fun () -> Kraftwerk.Placer.init config circuit p0)),
        config.Kraftwerk.Config.max_iterations )
    | Engine.Job.Multilevel ->
      let fixed = fixed_positions_of circuit p0 in
      ( Multi
          (span "kraftwerk.cluster_build" (fun () ->
               Kraftwerk.Cluster.start config circuit ~fixed_positions:fixed p0)),
        max_int )
  in
  mark "cluster";
  let steps = ref 0 and descents = ref 0 in
  let state () =
    match exec with Flat s -> s | Multi r -> Kraftwerk.Cluster.current_state r
  in
  (* The scheduler's turn: budget and stop checks, then one
     transformation. *)
  let rec loop () =
    let over_budget =
      match exec with
      | Flat s -> s.Kraftwerk.Placer.iteration >= max_steps
      | Multi _ -> !steps >= max_steps
    in
    let done_now =
      span "kraftwerk.stop_check" (fun () ->
          match exec with
          | Flat s -> Kraftwerk.Placer.converged s
          | Multi r -> Kraftwerk.Cluster.finished r)
    in
    if over_budget then
      Kraftwerk.Controller.record_stop (state ()).Kraftwerk.Placer.controller
        Kraftwerk.Controller.Max_steps
    else if not done_now then begin
      span "kraftwerk.transform" (fun () ->
          match exec with
          | Flat s -> ignore (Kraftwerk.Placer.transform ~hooks s)
          | Multi r ->
            let level = Kraftwerk.Cluster.current_level r in
            ignore (Kraftwerk.Cluster.step ~hooks r);
            if Kraftwerk.Cluster.current_level r <> level then incr descents);
      incr steps;
      loop ()
    end
  in
  loop ();
  let global =
    span "kraftwerk.finish" (fun () ->
        match exec with
        | Flat s -> s.Kraftwerk.Placer.placement
        | Multi r ->
          let p = Kraftwerk.Cluster.finish r in
          Netlist.Placement.clamp_to_region circuit p;
          p)
  in
  mark "place";
  let lp =
    span "legalize.abacus" (fun () ->
        (Legalize.Abacus.legalize circuit global ()).Legalize.Abacus.placement)
  in
  let improve_moves, _ = span "legalize.improve" (fun () -> Legalize.Improve.run circuit lp) in
  let domino_moves, _ = span "legalize.domino" (fun () -> Legalize.Domino.run circuit lp) in
  mark "legalize";
  let routed =
    if Engine.Objective.routed_validation spec.Engine.Job.objective then
      let gspec =
        Kraftwerk.Placer.route_spec (Engine.Job.config_of_spec spec) circuit
      in
      match span "route.grouter" (fun () -> Route.Grouter.route circuit lp gspec) with
      | Ok r -> Some r
      | Error e -> die "grouter: %s" (Route.Grid_spec.error_message e)
    else None
  in
  let hpwl, legal =
    span "metrics.final" (fun () ->
        ( Metrics.Wirelength.hpwl circuit lp,
          (ignore (Metrics.Overlap.overlap_ratio circuit lp);
           Legalize.Check.is_legal circuit lp) ))
  in
  let wall_ms = 1000. *. (Unix.gettimeofday () -. t_job) in
  (* Engine-side registry timers inside the transformation span. *)
  let sub =
    [
      ("qp.assemble", registry_ms "placer/assemble");
      ("qp.refill", registry_ms "qp/refill");
      ("density.forces", registry_ms "placer/density");
      ("numeric.cg", registry_ms "placer/solve");
      ("kraftwerk.metrics", registry_ms "placer/metrics");
      ("kraftwerk.ub_probe", registry_ms "placer/legalize");
      ( "kraftwerk.congest",
        registry_ms "placer/congest" +. registry_ms "placer/congest_legalize" );
    ]
  in
  let tbl_json tbl =
    J.Obj
      (Hashtbl.fold (fun k v acc -> (k, J.Num v) :: acc) tbl []
      |> List.sort compare)
  in
  let int_ n = J.Num (float_of_int n) in
  J.Obj
    [
      ("hpwl", J.Num hpwl);
      ("legal", J.Bool legal);
      ("iterations", int_ !steps);
      ("descents", int_ !descents);
      ("wall_ms", J.Num wall_ms);
      ("spans_ms", tbl_json ms);
      ("alloc_words", tbl_json words);
      ("registry_ms", J.Obj (List.map (fun (k, v) -> (k, J.Num v)) sub));
      ("cg_iterations", J.Num (registry_total "cg/iterations"));
      ("density_calls", int_ (registry_count "placer/density"));
      ("improve_moves", int_ improve_moves);
      ("domino_moves", int_ domino_moves);
      ( "routed_overflow",
        match routed with Some r -> J.Num r.Route.Grouter.total_overflow | None -> J.Null );
      ( "failed_nets",
        match routed with Some r -> int_ r.Route.Grouter.failed_nets | None -> J.Null );
      ("rss_mb", J.Obj (List.rev_map (fun (k, v) -> (k, J.Num v)) !rss));
      ("poisson", poisson_probe config circuit);
    ]

(* Warm-up jobs run first and are reported with the rest; run.py skips
   them, as the served run's warm-up pass is untimed too. *)
let replay manifest out =
  Numeric.Parallel.set_num_domains 1;
  Obs.Registry.set_enabled true;
  let results =
    List.map
      (fun j -> J.Obj [ ("key", field "key" j); ("result", replay_job (field "spec" j)) ])
      (arr "jobs" (read_json manifest))
  in
  let oc = open_out_bin out in
  output_string oc (J.to_string (J.Obj [ ("jobs", J.Arr results) ]));
  output_char oc '\n';
  close_out oc

let () =
  match Array.to_list Sys.argv with
  | [ _; "gen"; manifest ] -> gen manifest
  | [ _; "replay"; manifest; out ] -> replay manifest out
  | _ -> die "usage: tool.exe (gen MANIFEST | replay MANIFEST OUT)"
