(* Tests for Elmore STA, criticality recurrence, and the timing-driven
   flows. *)

let approx = Alcotest.float 1e-12

let pin c = { Netlist.Net.cell = c; dx = 0.; dy = 0. }

let region = Geometry.Rect.make ~x_lo:0. ~y_lo:0. ~x_hi:1000. ~y_hi:1000.

(* FF → a → b → FF chain with known cell delays. *)
let chain_circuit () =
  let mk id name ~seq ~delay =
    Netlist.Cell.make ~id ~name ~width:4. ~height:4. ~sequential:seq ~delay ()
  in
  let cells =
    [|
      mk 0 "ff_in" ~seq:true ~delay:0.1e-9;
      mk 1 "a" ~seq:false ~delay:0.2e-9;
      mk 2 "b" ~seq:false ~delay:0.3e-9;
      mk 3 "ff_out" ~seq:true ~delay:0.1e-9;
    |]
  in
  let nets =
    [|
      Netlist.Net.make ~id:0 ~name:"n0" [| pin 0; pin 1 |];
      Netlist.Net.make ~id:1 ~name:"n1" [| pin 1; pin 2 |];
      Netlist.Net.make ~id:2 ~name:"n2" [| pin 2; pin 3 |];
    |]
  in
  Netlist.Circuit.make ~name:"chain" ~cells ~nets ~region ~row_height:4.

let params = Timing.Params.default

let test_net_delay_monotone_in_length () =
  let d1 = Timing.Sta.net_delay params ~length:100. ~sinks:1 in
  let d2 = Timing.Sta.net_delay params ~length:200. ~sinks:1 in
  Alcotest.(check bool) "longer is slower" true (d2 > d1);
  Alcotest.(check bool) "positive" true (d1 > 0.)

let test_net_delay_zero_length () =
  Alcotest.check approx "zero wire, zero load term"
    (params.Timing.Params.driver_resistance *. params.Timing.Params.pin_load)
    (Timing.Sta.net_delay params ~length:0. ~sinks:1)

let test_chain_longest_path () =
  let c = chain_circuit () in
  (* All cells at the same point: net lengths zero. *)
  let p = Netlist.Placement.create c in
  let sta = Timing.Sta.analyse params c p in
  (* Path: ff_in(0.1) + nd + a(0.2) + nd + b(0.3) + nd → ff_out input,
     where nd is the zero-length net delay (driver resistance × pin
     load). *)
  let nd = Timing.Sta.net_delay params ~length:0. ~sinks:1 in
  Alcotest.check (Alcotest.float 1e-15) "chain delay"
    (0.1e-9 +. 0.2e-9 +. 0.3e-9 +. (3. *. nd))
    sta.Timing.Sta.max_delay

let test_stretching_a_net_increases_delay () =
  let c = chain_circuit () in
  let p = Netlist.Placement.create c in
  let base = (Timing.Sta.analyse params c p).Timing.Sta.max_delay in
  p.Netlist.Placement.x.(2) <- 800.;
  let stretched = (Timing.Sta.analyse params c p).Timing.Sta.max_delay in
  Alcotest.(check bool) "stretched slower" true (stretched > base)

let test_critical_net_has_least_slack () =
  let c = chain_circuit () in
  let p = Netlist.Placement.create c in
  (* Stretch net 1 (a→b): it lies on the only path, slack ≈ 0 for all
     three nets, but stretch only net 1's span. *)
  p.Netlist.Placement.x.(1) <- 0.;
  p.Netlist.Placement.x.(2) <- 900.;
  p.Netlist.Placement.x.(3) <- 900.;
  let sta = Timing.Sta.analyse params c p in
  (* On a single path every net has the same (zero) slack. *)
  Array.iter
    (fun s -> Alcotest.(check bool) "zero slack on critical path" true (Float.abs s < 1e-15))
    sta.Timing.Sta.net_slack

let test_off_path_net_has_positive_slack () =
  let mk id name ~seq ~delay =
    Netlist.Cell.make ~id ~name ~width:4. ~height:4. ~sequential:seq ~delay ()
  in
  let cells =
    [|
      mk 0 "ff" ~seq:true ~delay:0.1e-9;
      mk 1 "slow" ~seq:false ~delay:1.0e-9;
      mk 2 "fast" ~seq:false ~delay:0.1e-9;
      mk 3 "ff2" ~seq:true ~delay:0.1e-9;
    |]
  in
  let nets =
    [|
      Netlist.Net.make ~id:0 ~name:"to_slow" [| pin 0; pin 1 |];
      Netlist.Net.make ~id:1 ~name:"to_fast" [| pin 0; pin 2 |];
      Netlist.Net.make ~id:2 ~name:"slow_out" [| pin 1; pin 3 |];
      Netlist.Net.make ~id:3 ~name:"fast_out" [| pin 2; pin 3 |];
    |]
  in
  let c = Netlist.Circuit.make ~name:"2path" ~cells ~nets ~region ~row_height:4. in
  let p = Netlist.Placement.create c in
  let sta = Timing.Sta.analyse params c p in
  Alcotest.(check bool) "fast branch has slack" true
    (sta.Timing.Sta.net_slack.(1) > 0.5e-9);
  Alcotest.(check bool) "slow branch critical" true
    (Float.abs sta.Timing.Sta.net_slack.(0) < 1e-15)

let test_big_nets_excluded () =
  let cells =
    Array.init 80 (fun i ->
        Netlist.Cell.make ~id:i ~name:(Printf.sprintf "c%d" i) ~width:4.
          ~height:4. ~sequential:(i = 0) ())
  in
  let big = Netlist.Net.make ~id:0 ~name:"big" (Array.init 80 (fun i -> pin i)) in
  let c =
    Netlist.Circuit.make ~name:"big" ~cells ~nets:[| big |] ~region ~row_height:4.
  in
  let sta = Timing.Sta.analyse params c (Netlist.Placement.create c) in
  Alcotest.(check int) "net excluded" 0 sta.Timing.Sta.analysed_nets;
  Alcotest.(check bool) "slack infinite" true
    (sta.Timing.Sta.net_slack.(0) = Float.infinity)

let test_lower_bound_below_any_placement () =
  let prof = Circuitgen.Profiles.find "fract" in
  let c, pads =
    Circuitgen.Gen.generate (Circuitgen.Profiles.params prof ~seed:8)
  in
  let p = Circuitgen.Gen.initial_placement c pads in
  let lb = Timing.Sta.lower_bound params c in
  let placed = (Timing.Sta.analyse params c p).Timing.Sta.max_delay in
  Alcotest.(check bool) "lb ≤ placed" true (lb <= placed +. 1e-18)

let test_cycle_detected () =
  let mk id = Netlist.Cell.make ~id ~name:(string_of_int id) ~width:4. ~height:4. () in
  let cells = [| mk 0; mk 1 |] in
  let nets =
    [|
      Netlist.Net.make ~id:0 ~name:"fwd" [| pin 0; pin 1 |];
      Netlist.Net.make ~id:1 ~name:"bwd" [| pin 1; pin 0 |];
    |]
  in
  let c = Netlist.Circuit.make ~name:"cyc" ~cells ~nets ~region ~row_height:4. in
  Alcotest.(check bool) "raises on cycle" true
    (try
       ignore (Timing.Sta.analyse params c (Netlist.Placement.create c));
       false
     with Failure _ -> true)

(* --- criticality recurrence --- *)

let test_criticality_recurrence () =
  let crit = Timing.Criticality.create 10 in
  (* Net 0 most critical, everything else relaxed. *)
  let slack = Array.make 10 1e-9 in
  slack.(0) <- -1e-9;
  Timing.Criticality.update crit params ~net_slack:slack;
  Alcotest.check approx "first update: (0+1)/2" 0.5 (Timing.Criticality.criticality crit 0);
  Alcotest.check approx "others halved from 0" 0. (Timing.Criticality.criticality crit 1);
  Timing.Criticality.update crit params ~net_slack:slack;
  Alcotest.check approx "second update: (0.5+1)/2" 0.75
    (Timing.Criticality.criticality crit 0)

let test_criticality_decays_when_not_critical () =
  let crit = Timing.Criticality.create 10 in
  let slack = Array.make 10 1e-9 in
  slack.(0) <- -1e-9;
  Timing.Criticality.update crit params ~net_slack:slack;
  (* Now net 5 becomes the critical one. *)
  let slack2 = Array.make 10 1e-9 in
  slack2.(5) <- -2e-9;
  Timing.Criticality.update crit params ~net_slack:slack2;
  Alcotest.check approx "old critical decays" 0.25 (Timing.Criticality.criticality crit 0);
  Alcotest.check approx "new critical rises" 0.5 (Timing.Criticality.criticality crit 5)

let test_excluded_nets_never_critical () =
  let crit = Timing.Criticality.create 4 in
  let slack = [| Float.infinity; 1e-9; Float.infinity; -1e-9 |] in
  Timing.Criticality.update crit params ~net_slack:slack;
  Alcotest.check approx "excluded stays 0" 0. (Timing.Criticality.criticality crit 0);
  Alcotest.(check bool) "worst analysed is critical" true
    (Timing.Criticality.criticality crit 3 > 0.)

let test_apply_weights_and_cap () =
  let crit = Timing.Criticality.create 2 in
  let slack = [| -1e-9; 1e-9 |] in
  Timing.Criticality.update crit params ~net_slack:slack;
  let w = [| 30.; 1. |] in
  Timing.Criticality.apply_weights ~cap:32. crit w;
  Alcotest.check approx "capped" 32. w.(0);
  Alcotest.check approx "unit stays" 1. w.(1)

(* --- driven flows --- *)

(* A timing-goal job's reweighting shortens the longest path of its
   global placement against a wirelength job's on the same circuit. *)
let test_optimize_improves_delay () =
  let source =
    Engine.Source.Profile { name = "primary1"; scale = 0.5; seed = 6 }
  in
  let c, _ =
    match Engine.Source.load source with
    | Ok cp -> cp
    | Error msg -> Alcotest.fail msg
  in
  let delay goal =
    let objective = Engine.Objective.make ~goal () in
    match Engine.Scheduler.run_job (Engine.Job.spec ~source ~objective ()) with
    | _, Some f ->
      (Timing.Sta.analyse params c f.Engine.Scheduler.global).Timing.Sta.max_delay
    | _, None -> Alcotest.fail "the job produced no placement"
  in
  Alcotest.(check bool) "optimized faster than plain" true
    (delay Engine.Objective.Timing < delay Engine.Objective.Wirelength)

let test_meet_requirement_flag () =
  let prof = Circuitgen.Profiles.find "fract" in
  let c, pads =
    Circuitgen.Gen.generate (Circuitgen.Profiles.params prof ~seed:6)
  in
  let p0 = Circuitgen.Gen.initial_placement c pads in
  (* A requirement looser than anything achievable is met with zero
     extra steps. *)
  let r =
    Timing.Driven.meet_requirement Kraftwerk.Config.standard c p0 ~target:1.
  in
  Alcotest.(check bool) "trivially met" true r.Timing.Driven.met;
  (* An impossible (negative) requirement is not met. *)
  let r2 =
    Timing.Driven.meet_requirement ~max_extra_steps:3 Kraftwerk.Config.standard
      c p0 ~target:(-1.)
  in
  Alcotest.(check bool) "impossible not met" false r2.Timing.Driven.met

let test_exploitation_math () =
  Alcotest.check approx "half"
    0.5
    (Timing.Driven.exploitation ~unoptimized:10. ~optimized:7.5 ~lower_bound:5.);
  Alcotest.check approx "degenerate potential" 0.
    (Timing.Driven.exploitation ~unoptimized:5. ~optimized:4. ~lower_bound:5.)

let suite =
  [
    Alcotest.test_case "net delay monotone" `Quick test_net_delay_monotone_in_length;
    Alcotest.test_case "net delay zero length" `Quick test_net_delay_zero_length;
    Alcotest.test_case "chain longest path" `Quick test_chain_longest_path;
    Alcotest.test_case "stretching increases delay" `Quick test_stretching_a_net_increases_delay;
    Alcotest.test_case "critical path slack" `Quick test_critical_net_has_least_slack;
    Alcotest.test_case "off-path slack" `Quick test_off_path_net_has_positive_slack;
    Alcotest.test_case "big nets excluded" `Quick test_big_nets_excluded;
    Alcotest.test_case "lower bound" `Quick test_lower_bound_below_any_placement;
    Alcotest.test_case "cycle detection" `Quick test_cycle_detected;
    Alcotest.test_case "criticality recurrence" `Quick test_criticality_recurrence;
    Alcotest.test_case "criticality decay" `Quick test_criticality_decays_when_not_critical;
    Alcotest.test_case "excluded never critical" `Quick test_excluded_nets_never_critical;
    Alcotest.test_case "weights cap" `Quick test_apply_weights_and_cap;
    Alcotest.test_case "optimize improves" `Slow test_optimize_improves_delay;
    Alcotest.test_case "requirement flag" `Quick test_meet_requirement_flag;
    Alcotest.test_case "exploitation math" `Quick test_exploitation_math;
  ]
