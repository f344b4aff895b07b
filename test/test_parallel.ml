(* Bitwise determinism across domains.  Every numeric kernel runs on
   the domain that calls it, and served jobs run on the scheduler's
   worker domains: a kernel or a whole placer run must produce the same
   bits on a worker domain as on the calling domain, also while another
   worker runs the same work at the same time (each domain has its own
   scratch planes; the FFT kernel cache is shared). *)

let check_bitwise name a b =
  Alcotest.(check int) (name ^ ": length") (Array.length a) (Array.length b);
  Array.iteri
    (fun i x ->
      if Int64.bits_of_float x <> Int64.bits_of_float b.(i) then
        Alcotest.failf "%s: element %d differs: %h vs %h" name i x b.(i))
    a

(* [f ()] on [n] worker domains started together, results in order. *)
let on_workers n f =
  List.init n (fun _ -> Domain.spawn f) |> List.map Domain.join

(* ------------------------------------------------------------------ *)
(* SpMV                                                                *)

let random_spd_matrix rng n =
  let b = Numeric.Sparse.builder n in
  for i = 0 to n - 1 do
    Numeric.Sparse.add_diag b i (10. +. Numeric.Rng.uniform rng 0. 1.);
    for _ = 0 to 3 do
      let j = Numeric.Rng.int rng n in
      if j <> i then
        Numeric.Sparse.add_sym b i j (Numeric.Rng.uniform rng (-1.) 1.)
    done
  done;
  Numeric.Sparse.finalize b

let test_spmv_bitwise () =
  let n = 777 in
  let rng = Numeric.Rng.create 77 in
  let m = random_spd_matrix rng n in
  let xa = Array.init n (fun i -> Numeric.Rng.uniform rng (-1.) 1. +. float_of_int i) in
  let xb = Array.init n (fun _ -> Numeric.Rng.uniform rng (-1.) 1.) in
  let products () =
    let ya = Array.make n nan and yb = Array.make n nan in
    let za = Array.make n nan and zb = Array.make n nan in
    Numeric.Sparse.mul m xa ya;
    Numeric.Sparse.mul m xb yb;
    Numeric.Sparse.mul2 m xa za xb zb;
    (ya, yb, za, zb)
  in
  let ya, yb, za, zb = products () in
  check_bitwise "mul2 a = mul" ya za;
  check_bitwise "mul2 b = mul" yb zb;
  List.iteri
    (fun w (wa, wb, va, vb) ->
      let tag s = Printf.sprintf "worker %d %s" w s in
      check_bitwise (tag "mul a") ya wa;
      check_bitwise (tag "mul b") yb wb;
      check_bitwise (tag "mul2 a") ya va;
      check_bitwise (tag "mul2 b") yb vb)
    (on_workers 2 products)

(* ------------------------------------------------------------------ *)
(* Force field                                                         *)

(* The FFT force field on two worker domains at once, each building or
   hitting the shared kernel cache, is the calling domain's field. *)
let test_force_field_bitwise () =
  let rng = Numeric.Rng.create 11 in
  List.iter
    (fun (rows, cols) ->
      let density =
        Array.init (rows * cols) (fun _ -> Numeric.Rng.uniform rng (-2.) 2.)
      in
      let field () =
        Numeric.Poisson.fft_force_field ~rows ~cols ~hx:1.5 ~hy:0.75 density
      in
      Numeric.Poisson.clear_kernel_cache ();
      let reference = field () in
      Numeric.Poisson.clear_kernel_cache ();
      List.iteri
        (fun w (cold, warm) ->
          let tag s = Printf.sprintf "%dx%d worker %d %s" rows cols w s in
          check_bitwise (tag "cold fx") reference.Numeric.Poisson.fx
            cold.Numeric.Poisson.fx;
          check_bitwise (tag "cold fy") reference.Numeric.Poisson.fy
            cold.Numeric.Poisson.fy;
          check_bitwise (tag "warm fx") reference.Numeric.Poisson.fx
            warm.Numeric.Poisson.fx;
          check_bitwise (tag "warm fy") reference.Numeric.Poisson.fy
            warm.Numeric.Poisson.fy)
        (on_workers 2 (fun () ->
             let cold = field () in
             (cold, field ()))))
    [ (7, 13); (17, 29) ]

(* ------------------------------------------------------------------ *)
(* Whole-placer determinism                                            *)

let fract () =
  let prof = Circuitgen.Profiles.find "fract" in
  let circuit, pads =
    Circuitgen.Gen.generate (Circuitgen.Profiles.params ~scale:1.0 prof ~seed:21)
  in
  (circuit, Circuitgen.Gen.initial_placement circuit pads)

(* A run on a worker domain, and one there with the inert
   [Config.domains] set, follow the calling domain's trajectory bit for
   bit, two workers at once. *)
let test_placer_trajectory_bitwise () =
  let circuit, p0 = fract () in
  let config =
    { Kraftwerk.Config.standard with Kraftwerk.Config.max_iterations = 15 }
  in
  let run config () =
    let hpwls = ref [] in
    let hooks =
      { Kraftwerk.Placer.no_hooks with
        Kraftwerk.Placer.on_step =
          Some (fun r -> hpwls := Option.get r.Kraftwerk.Placer.hpwl :: !hpwls) }
    in
    let state, _ = Kraftwerk.Placer.run ~hooks config circuit p0 in
    (Array.of_list (List.rev !hpwls), state.Kraftwerk.Placer.placement)
  in
  let traj, p = run config () in
  Alcotest.(check bool) "took steps" true (Array.length traj > 0);
  let pinned = { config with Kraftwerk.Config.domains = Some 4 } in
  List.iter
    (fun (tag, (traj', p')) ->
      check_bitwise (tag ^ ": hpwl trajectory") traj traj';
      check_bitwise (tag ^ ": final x") p.Netlist.Placement.x
        p'.Netlist.Placement.x;
      check_bitwise (tag ^ ": final y") p.Netlist.Placement.y
        p'.Netlist.Placement.y)
    (List.combine [ "worker"; "worker, domains = 4" ]
       (List.map Domain.join
          [ Domain.spawn (run config); Domain.spawn (run pinned) ]))

(* The full telemetry trace, volatile fields stripped, is the calling
   domain's trace on a worker domain: with every cache-provenance field
   from a cold kernel cache, and without them for two workers at once
   (they share the cache, so which of them builds a kernel is timing). *)
let test_telemetry_trace_bitwise () =
  let circuit, p0 = fract () in
  let config =
    { Kraftwerk.Config.standard with Kraftwerk.Config.max_iterations = 10 }
  in
  let trace () =
    let sink, read = Obs.Sink.collecting () in
    Obs.Sink.with_sink sink (fun () ->
        ignore (Kraftwerk.Placer.run config circuit p0));
    let records, _ = read () in
    List.map
      (fun r -> Obs.Telemetry.strip_volatile (Obs.Telemetry.iteration_to_json r))
      records
  in
  let text = List.map Obs.Json.to_string in
  let settled = List.map (fun r -> Obs.Json.to_string (Obs.Telemetry.strip_provenance r)) in
  Numeric.Poisson.clear_kernel_cache ();
  let reference = trace () in
  Alcotest.(check bool) "collected records" true (reference <> []);
  Numeric.Poisson.clear_kernel_cache ();
  let worker = Domain.join (Domain.spawn trace) in
  Alcotest.(check (list string)) "worker trace" (text reference) (text worker);
  List.iteri
    (fun w t ->
      Alcotest.(check (list string))
        (Printf.sprintf "concurrent worker %d trace" w)
        (settled reference) (settled t))
    (on_workers 2 trace)

(* Where a served job's next transformation runs is the scheduler's
   choice, so a placer state must carry its trajectory from domain to
   domain.  A flat run and a small V-cycle take every other
   transformation on a freshly spawned domain and every other on the
   calling one; the HPWL after each transformation and the final
   placement must be the bits of the run that stays on the calling
   domain. *)
let test_state_migration_bitwise () =
  let circuit, p0 = fract () in
  let config =
    { Kraftwerk.Config.fast with Kraftwerk.Config.max_iterations = 12 }
  in
  (* Transformation [i] runs on the calling domain for even [i], on a
     new domain for odd [i] when [migrate]. *)
  let on_domain ~migrate i f =
    if migrate && i mod 2 = 1 then Domain.join (Domain.spawn f) else f ()
  in
  let flat ~migrate =
    let state = Kraftwerk.Placer.init config circuit p0 in
    let rec go i hpwls =
      if i >= 12 || Kraftwerk.Placer.converged state then
        (Array.of_list (List.rev hpwls), state.Kraftwerk.Placer.placement)
      else
        let lb =
          on_domain ~migrate i (fun () ->
              ignore (Kraftwerk.Placer.transform state);
              Kraftwerk.Controller.lb state.Kraftwerk.Placer.controller)
        in
        go (i + 1) (lb :: hpwls)
    in
    go 0 []
  in
  let vcycle ~migrate =
    let config = { config with Kraftwerk.Config.ml_threshold = 40 } in
    let fixed =
      Array.to_list circuit.Netlist.Circuit.cells
      |> List.filter_map (fun (cl : Netlist.Cell.t) ->
             let id = cl.Netlist.Cell.id in
             if cl.Netlist.Cell.fixed then
               Some
                 (id, (p0.Netlist.Placement.x.(id), p0.Netlist.Placement.y.(id)))
             else None)
    in
    let run =
      Kraftwerk.Cluster.start config circuit ~fixed_positions:fixed
        (Netlist.Placement.copy p0)
    in
    Alcotest.(check bool) "the V-cycle has a coarse level" true
      (Kraftwerk.Cluster.total_levels run > 1);
    let rec go i hpwls =
      if not (on_domain ~migrate i (fun () -> Kraftwerk.Cluster.step run)) then
        (Array.of_list (List.rev hpwls), Kraftwerk.Cluster.finish run)
      else
        let s = Kraftwerk.Cluster.current_state run in
        go (i + 1)
          (Metrics.Wirelength.hpwl s.Kraftwerk.Placer.circuit
             s.Kraftwerk.Placer.placement
          :: hpwls)
    in
    go 0 []
  in
  List.iter
    (fun (name, run) ->
      let traj, p = run ~migrate:false in
      let traj', p' = run ~migrate:true in
      Alcotest.(check bool) (name ^ ": took several steps") true
        (Array.length traj > 2);
      check_bitwise (name ^ ": hpwl trajectory") traj traj';
      check_bitwise (name ^ ": final x") p.Netlist.Placement.x
        p'.Netlist.Placement.x;
      check_bitwise (name ^ ": final y") p.Netlist.Placement.y
        p'.Netlist.Placement.y)
    [ ("flat", flat); ("v-cycle", vcycle) ]

let suite =
  [
    Alcotest.test_case "SpMV bitwise across domains" `Quick test_spmv_bitwise;
    Alcotest.test_case "force field bitwise across domains" `Quick
      test_force_field_bitwise;
    Alcotest.test_case "placer trajectory bitwise across domains" `Slow
      test_placer_trajectory_bitwise;
    Alcotest.test_case "telemetry trace bitwise across domains" `Slow
      test_telemetry_trace_bitwise;
    Alcotest.test_case
      "a placer state migrating between domains every transformation stays bitwise"
      `Slow test_state_migration_bitwise;
  ]
