(* Golden trajectory pins for the global placement loop.

   Each pin is an MD5 over the bits of every per-transformation report
   field (the placer's step reports, or the deterministic telemetry
   fields of a traced run) plus the final coordinates of one
   deterministic run.  The placer's density forces, stop check,
   overflow and empty-square measure all derive from the demand splat
   of the current placement, so any change to which placement is
   splatted, or to the order of the additions, moves a pin.  They change
   only with a deliberate behaviour change. *)

let bits = Int64.bits_of_float

let profile ?(scale = 1.0) ?(seed = 42) name =
  let prof = Circuitgen.Profiles.find name in
  let circuit, pads =
    Circuitgen.Gen.generate (Circuitgen.Profiles.params ~scale prof ~seed)
  in
  (circuit, pads, Circuitgen.Gen.initial_placement circuit pads)

(* A digest builder: ints, floats (as bits) and float options append to
   one buffer that is hashed at the end. *)
let add_int b i = Buffer.add_int64_le b (Int64.of_int i)

let add_float b f = Buffer.add_int64_le b (bits f)

let add_opt b = function
  | None -> Buffer.add_char b '\000'
  | Some f ->
    Buffer.add_char b '\001';
    add_float b f

let add_placement b (p : Netlist.Placement.t) =
  Array.iter (add_float b) p.Netlist.Placement.x;
  Array.iter (add_float b) p.Netlist.Placement.y

let add_report b (r : Kraftwerk.Placer.step_report) =
  add_int b r.Kraftwerk.Placer.step;
  add_float b r.Kraftwerk.Placer.hpwl;
  add_float b r.Kraftwerk.Placer.empty_square_area;
  add_float b r.Kraftwerk.Placer.force_scale;
  add_int b r.Kraftwerk.Placer.cg_iterations;
  add_float b r.Kraftwerk.Placer.penalty;
  add_opt b r.Kraftwerk.Placer.ub_hpwl;
  add_opt b r.Kraftwerk.Placer.gap

(* Every deterministic field of a telemetry record (everything but the
   volatile timings and the kernel-cache counters). *)
let add_record b (it : Obs.Telemetry.iteration) =
  let module T = Obs.Telemetry in
  add_int b it.T.step;
  List.iter (add_float b)
    [ it.T.hpwl; it.T.quadratic; it.T.overflow; it.T.empty_square_area;
      it.T.force_scale; it.T.max_force; it.T.mean_force; it.T.displacement;
      it.T.cg_residual_x; it.T.cg_residual_y; it.T.cg_tolerance; it.T.penalty;
      it.T.lb_hpwl; it.T.congest_strength; it.T.target_area ];
  List.iter (add_int b)
    [ it.T.cg_iterations_x; it.T.cg_iterations_y; it.T.level; it.T.target_clamped ];
  List.iter (add_opt b) [ it.T.ub_hpwl; it.T.gap; it.T.est_overflow ]

let digest b = Digest.to_hex (Digest.string (Buffer.contents b))

let reports_digest reports (p : Netlist.Placement.t) =
  let b = Buffer.create 65536 in
  List.iter (add_report b) reports;
  add_placement b p;
  digest b

let flat_run ?(hooks = fun _ -> Kraftwerk.Placer.no_hooks) config name =
  let circuit, _, p0 = profile name in
  let state, reports =
    Kraftwerk.Placer.run ~hooks:(hooks circuit) config circuit p0
  in
  reports_digest reports state.Kraftwerk.Placer.placement

let traced f =
  let sink, read = Obs.Sink.collecting () in
  let result = Obs.Sink.with_sink sink f in
  (result, fst (read ()))

let runs =
  [
    ( "fract wirelength",
      fun () -> flat_run Kraftwerk.Config.standard "fract" );
    (* Fast mode stops on the §4.2 empty-square criterion, so this pin
       also holds which placement the stop check measures. *)
    ( "fract fast wirelength",
      fun () -> flat_run Kraftwerk.Config.fast "fract" );
    ( "primary1 routability",
      fun () ->
        flat_run
          (Kraftwerk.Config.routability Kraftwerk.Config.standard)
          "primary1" );
    ( "primary1 timing",
      fun () ->
        (* The served timing goal: net weights adapt before every
           transformation. *)
        let hooks circuit =
          let crit =
            Timing.Criticality.create (Netlist.Circuit.num_nets circuit)
          in
          { Kraftwerk.Placer.no_hooks with
            Kraftwerk.Placer.reweight =
              Some
                (fun s ->
                  ignore (Timing.Driven.reweight Timing.Params.default crit s)) }
        in
        flat_run ~hooks Kraftwerk.Config.standard "primary1" );
    ( "primary1 multilevel",
      fun () ->
        (* Stepped as the scheduler steps a V-cycle: [finished] before
           every [step], so each level's stop check runs twice. *)
        let circuit, pads, p0 = profile ~scale:0.5 ~seed:81 "primary1" in
        let config =
          { Kraftwerk.Config.fast with Kraftwerk.Config.ml_threshold = 40 }
        in
        let r, records =
          traced (fun () ->
              let r =
                Kraftwerk.Cluster.start config circuit ~fixed_positions:pads p0
              in
              while not (Kraftwerk.Cluster.finished r) do
                ignore (Kraftwerk.Cluster.step r)
              done;
              r)
        in
        let b = Buffer.create 65536 in
        List.iter (add_record b) records;
        add_placement b (Kraftwerk.Cluster.current_state r).Kraftwerk.Placer.placement;
        digest b );
    ( "fract traced overflow",
      fun () ->
        let circuit, _, p0 = profile "fract" in
        let _, records =
          traced (fun () -> Kraftwerk.Placer.run Kraftwerk.Config.standard circuit p0)
        in
        let b = Buffer.create 4096 in
        List.iter
          (fun it ->
            add_float b it.Obs.Telemetry.overflow;
            add_float b it.Obs.Telemetry.empty_square_area)
          records;
        digest b );
  ]

let goldens =
  [
    ("fract wirelength", "1d37670d6149b6765593270336237c3f");
    ("fract fast wirelength", "1219120cdba00374d6984757220d31d8");
    ("primary1 routability", "a4309f088300272996ab7e63ab446424");
    ("primary1 timing", "b3fa7fca741c22bf154c0b11a0ea807f");
    ("primary1 multilevel", "08ba198389e65f7e3b4281a3b089766a");
    ("fract traced overflow", "047f20159c09d3db52e5f7055e53879c");
  ]

let test_golden name run () =
  Alcotest.(check string) name (List.assoc name goldens) (run ())

(* The served inputs: perfbench writes its generated circuits with
   [Io.save_circuit], so these pins hold the bytes every workload
   reads.  They move only with a deliberate generator or format
   change. *)
let circuit_goldens =
  [
    (("primary1", 1.0), "8dd4821728294d2c08258e522dfa2f55");
    (("mega100k", 0.15), "119a744ffde06ff627d250206561fd8e");
  ]

let circuit_digest (name, scale) =
  let circuit, _, _ = profile ~scale ~seed:1 name in
  let file = Filename.temp_file "served" ".ckt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Netlist.Io.save_circuit file circuit;
      Digest.to_hex (Digest.file file))

let test_circuit_golden key () =
  Alcotest.(check string) (fst key) (List.assoc key circuit_goldens)
    (circuit_digest key)

let suite =
  List.map
    (fun (name, run) ->
      Alcotest.test_case ("golden " ^ name) `Slow (test_golden name run))
    runs
  @ List.map
      (fun (((name, scale) as key), _) ->
        Alcotest.test_case
          (Printf.sprintf "served circuit %s@%g" name scale)
          `Slow (test_circuit_golden key))
      circuit_goldens
