(* The finishing pipeline after Abacus: Legalize.Improve, the Domino
   passes, the min-cost-flow assignment they solve and the per-net HPWL
   they evaluate.

   Golden bit-pins: every move is accepted on a strict HPWL comparison,
   so the pipeline's output depends on the exact bits of every cost it
   sums, the order it visits groups, windows and orderings, and which
   of several tied optimal assignments the solver picks.  These pins
   hold the move counts, the bits of the reported gains and a digest of
   the final coordinates on fixtures with mixed cell widths and a block
   obstacle; they change only with a deliberate behaviour change. *)

let bits = Int64.bits_of_float

let placement_digest (p : Netlist.Placement.t) =
  let b = Buffer.create 65536 in
  let add a = Array.iter (fun v -> Buffer.add_int64_le b (bits v)) a in
  add p.Netlist.Placement.x;
  add p.Netlist.Placement.y;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* A profile placed by the standard flow and legalized by Abacus: the
   input the finishing stages see in a served job. *)
let legal_fixture name =
  let prof = Circuitgen.Profiles.find name in
  let c, pads = Circuitgen.Gen.generate (Circuitgen.Profiles.params prof ~seed:91) in
  let p0 = Circuitgen.Gen.initial_placement c pads in
  let state, _ = Kraftwerk.Placer.run Kraftwerk.Config.standard c p0 in
  let rep = Legalize.Abacus.legalize c state.Kraftwerk.Placer.placement () in
  (c, rep.Legalize.Abacus.placement)

let fixtures = lazy [ ("fract", legal_fixture "fract"); ("primary1", legal_fixture "primary1") ]

(* The 60×32 block across the region centre of test_domino's obstacle
   test; the cells were legalized without it. *)
let centre_obstacle (c : Netlist.Circuit.t) =
  let cx, cy = Geometry.Rect.center c.Netlist.Circuit.region in
  Geometry.Rect.of_center ~cx ~cy ~w:60. ~h:32.

(* Each case runs on a fresh copy of the fixture's legal placement and
   returns the (moves, gain) of every stage it ran. *)
let cases =
  let improve ?obstacles c p = [ Legalize.Improve.run ?obstacles c p ] in
  let domino ?obstacles c p = [ Legalize.Domino.run ?obstacles c p ] in
  [
    ("improve", improve ?obstacles:None);
    ("flow_pass", fun c p -> [ Legalize.Domino.flow_pass c p ]);
    ("reorder_pass", fun c p -> [ Legalize.Domino.reorder_pass c p ]);
    ("domino", domino ?obstacles:None);
    ( "pipeline",
      fun c p ->
        let first = improve c p in
        first @ domino c p );
    ("obstacle improve", fun c p -> improve ~obstacles:[ centre_obstacle c ] c p);
    ( "obstacle reorder_pass",
      fun c p -> [ Legalize.Domino.reorder_pass ~obstacles:[ centre_obstacle c ] c p ] );
    ("obstacle domino", fun c p -> domino ~obstacles:[ centre_obstacle c ] c p);
  ]

type golden = { moves : int list; gains : int64 list; digest : string }

let goldens =
  [
    ( "fract improve",
      { moves = [ 19 ];
        gains = [ 4647317385557548570L ];
        digest = "75025952e9c33e054f3f22146b40d2fd" } );
    ( "fract flow_pass",
      { moves = [ 22 ];
        gains = [ 4642168998016448354L ];
        digest = "9a2c1a09a68bd7570d240ed68e4ef56a" } );
    ( "fract reorder_pass",
      { moves = [ 34 ];
        gains = [ 4650504439980686694L ];
        digest = "ac7e37c08fcc15dacd22ff72e32930f9" } );
    ( "fract domino",
      { moves = [ 81 ];
        gains = [ 4652495484586300176L ];
        digest = "d1aeb083342686a6cf966e1f5e9999be" } );
    ( "fract pipeline",
      { moves = [ 19; 45 ];
        gains = [ 4647317385557548570L; 4650678477767003272L ];
        digest = "5500fd151a04e810068c73ed80eb864f" } );
    ( "fract obstacle improve",
      { moves = [ 19 ];
        gains = [ 4647317385557548570L ];
        digest = "75025952e9c33e054f3f22146b40d2fd" } );
    ( "fract obstacle reorder_pass",
      { moves = [ 32 ];
        gains = [ 4650161035164370730L ];
        digest = "a17474469050e092d1dd40dc997163b0" } );
    ( "fract obstacle domino",
      { moves = [ 79 ];
        gains = [ 4652494170065445248L ];
        digest = "de2327603ce2aecf051e17c4c32c079f" } );
    ( "primary1 improve",
      { moves = [ 124 ];
        gains = [ 4656775337890117874L ];
        digest = "86c6764df00f5e92467035de2b3a3e8e" } );
    ( "primary1 flow_pass",
      { moves = [ 198 ];
        gains = [ 4658054272371859195L ];
        digest = "f1e6a0795b5354f4bf21d415705a91f3" } );
    ( "primary1 reorder_pass",
      { moves = [ 221 ];
        gains = [ 4664839635293122537L ];
        digest = "cdf3b0d13b9fedc5d85e2d3e0bb72b1e" } );
    ( "primary1 domino",
      { moves = [ 558 ];
        gains = [ 4666603558451253028L ];
        digest = "faa1f832c85351334cd026fb986f4995" } );
    ( "primary1 pipeline",
      { moves = [ 124; 521 ];
        gains = [ 4656775337890117874L; 4666123078188362910L ];
        digest = "89c223343a0f970460958d958753867c" } );
    ( "primary1 obstacle improve",
      { moves = [ 124 ];
        gains = [ 4656775337890117874L ];
        digest = "86c6764df00f5e92467035de2b3a3e8e" } );
    ( "primary1 obstacle reorder_pass",
      { moves = [ 215 ];
        gains = [ 4664687462504028327L ];
        digest = "17a19b198f3d205a84cf16bf74780088" } );
    ( "primary1 obstacle domino",
      { moves = [ 548 ];
        gains = [ 4666493919310981875L ];
        digest = "30cf425180601b6e54f3a1801092f7bd" } );
  ]

let test_golden_finishing () =
  List.iter
    (fun (fixture, (c, p)) ->
      List.iter
        (fun (case, stage) ->
          let name = fixture ^ " " ^ case in
          let p = Netlist.Placement.copy p in
          let results = stage c p in
          let g = List.assoc name goldens in
          Alcotest.(check (list int)) (name ^ ": moves") g.moves (List.map fst results);
          Alcotest.(check (list int64))
            (name ^ ": gain bits") g.gains
            (List.map (fun (_, gain) -> bits gain) results);
          Alcotest.(check string) (name ^ ": placement digest") g.digest
            (placement_digest p))
        cases)
    (Lazy.force fixtures)

(* 16×16 costs drawn from 0..3: many optimal assignments tie, so the
   chosen one is fixed only by the solver's tie rule. *)
let tied_costs () =
  let rng = Numeric.Rng.create 5 in
  Array.init 16 (fun _ -> Array.init 16 (fun _ -> float_of_int (Numeric.Rng.int rng 4)))

let golden_assignment = [| 0; 5; 10; 15; 9; 7; 8; 6; 11; 12; 4; 14; 3; 13; 2; 1 |]

let test_golden_assignment () =
  let costs = tied_costs () in
  let choice = Numeric.Mincostflow.assignment ~costs in
  Alcotest.(check (array int)) "tied 16x16 assignment" golden_assignment choice;
  let total a = Array.fold_left ( +. ) 0. (Array.mapi (fun i j -> costs.(i).(j)) a) in
  Alcotest.(check (float 0.)) "optimal: the graph oracle's total"
    (total (Mcf_oracle.assignment ~costs)) (total choice)

(* --- invalid Domino configs ---

   Each out-of-range field once hung ([max_group = 0] looped in the
   chunking), crashed ([window = 0] indexed out of bounds) or ran for
   minutes ([window = 11] enumerates 11! orderings per window); every
   pass now rejects it up front, naming the field. *)

let domino_rejects field config () =
  let c, p = List.assoc "fract" (Lazy.force fixtures) in
  let expect_reject pass_name f =
    match f () with
    | _ -> Alcotest.failf "%s accepted config.%s" pass_name field
    | exception Invalid_argument msg ->
      Alcotest.(check bool)
        (pass_name ^ ": names " ^ field ^ " (" ^ msg ^ ")")
        true
        (String.starts_with ~prefix:("Domino: config." ^ field ^ " ") msg)
  in
  let p = Netlist.Placement.copy p in
  expect_reject "flow_pass" (fun () -> Legalize.Domino.flow_pass ~config c p);
  expect_reject "reorder_pass" (fun () -> Legalize.Domino.reorder_pass ~config c p);
  expect_reject "run" (fun () -> Legalize.Domino.run ~config c p)

let config_cases =
  let open Legalize.Domino in
  let d = default_config in
  [
    ("window 0", "window", { d with window = 0 });
    ("window 9", "window", { d with window = 9 });
    ("window 11", "window", { d with window = 11 });
    ("max_group 0", "max_group", { d with max_group = 0 });
    ("neighborhood_rows 0", "neighborhood_rows", { d with neighborhood_rows = 0 });
    ("neighborhood_cols 0", "neighborhood_cols", { d with neighborhood_cols = 0 });
    ("passes -1", "passes", { d with passes = -1 });
  ]

(* The largest window the permutation table admits still runs. *)
let test_window_8_runs () =
  let c, p = List.assoc "fract" (Lazy.force fixtures) in
  let p = Netlist.Placement.copy p in
  let config = { Legalize.Domino.default_config with Legalize.Domino.window = 8 } in
  let before = Metrics.Wirelength.hpwl c p in
  let _, gain = Legalize.Domino.reorder_pass ~config c p in
  Alcotest.(check bool) "legal" true (Legalize.Check.is_legal c p);
  Alcotest.(check (float 1e-6)) "gain accounted" (before -. Metrics.Wirelength.hpwl c p) gain

(* --- hpwl_net against the bounding box --- *)

let hpwl_outcome f = match f () with v -> Ok (bits v) | exception e -> Error e

(* A net of [k] pins on [k] cells whose coordinates are drawn from
   signed zeros, NaN and ordinary values. *)
let gen_net_coords =
  let coord =
    QCheck.Gen.(
      frequency
        [ (2, return 0.); (2, return (-0.)); (2, return Float.nan); (4, float_range (-50.) 50.) ])
  in
  QCheck.Gen.(
    int_range 2 7 >>= fun k ->
    map (fun l -> Array.of_list l) (list_repeat k (pair coord coord)))

let net_circuit coords =
  let k = Array.length coords in
  let cells =
    Array.init k (fun id ->
        Netlist.Cell.make ~id ~name:(Printf.sprintf "c%d" id) ~width:1. ~height:1. ())
  in
  let pins = Array.init k (fun i -> { Netlist.Net.cell = i; dx = 0.5 *. float_of_int (i mod 2); dy = 0. }) in
  let net = Netlist.Net.make ~id:0 ~name:"n" pins in
  let region = Geometry.Rect.make ~x_lo:0. ~y_lo:0. ~x_hi:100. ~y_hi:100. in
  let c = Netlist.Circuit.make ~name:"h" ~cells ~nets:[| net |] ~region ~row_height:1. in
  (c, 0, Array.map fst coords, Array.map snd coords)

let same_as_bbox coords =
  let c, net, x, y = net_circuit coords in
  let fast = hpwl_outcome (fun () -> Metrics.Wirelength.hpwl_net c ~x ~y net) in
  let boxed =
    hpwl_outcome (fun () ->
        let r = Metrics.Wirelength.bbox_net c ~x ~y net in
        Geometry.Rect.width r +. Geometry.Rect.height r)
  in
  fast = boxed

let prop_hpwl_net_is_bbox =
  QCheck.Test.make ~count:500 ~name:"hpwl_net bit-equals bbox width + height"
    (QCheck.make gen_net_coords) same_as_bbox

let test_hpwl_net_all_nan () =
  let nan = Float.nan in
  List.iter
    (fun coords ->
      Alcotest.(check bool) "same outcome" true (same_as_bbox coords);
      let c, net, x, y = net_circuit coords in
      match Metrics.Wirelength.hpwl_net c ~x ~y net with
      | _ -> Alcotest.fail "hpwl_net accepted a net without comparable coordinates"
      | exception Invalid_argument _ -> ())
    [ [| (nan, nan); (nan, nan) |]; [| (nan, 1.); (nan, 2.) |]; [| (1., nan); (-0., nan); (0., nan) |] ]

(* --- frozen net boxes against the full walk ---

   [Legalize.Nets.hpwl_into] prices a move from boxes frozen before it;
   [Nets_oracle.hpwl] re-walks every pin.  Random netlists of 2-pin and
   wider nets (a cell may carry two pins of one net) over coordinates
   drawn from signed zeros, NaN, a few coincident values and ordinary
   ones; 1, 2, 4 or 20 moving cells take three rounds of new
   coordinates. *)

let gen_coord =
  QCheck.Gen.(
    frequency
      [
        (2, return 0.);
        (2, return (-0.));
        (1, return Float.nan);
        (3, map float_of_int (int_bound 3));
        (4, float_range (-50.) 50.);
      ])

type frozen_case = {
  circuit : Netlist.Circuit.t;
  moving : int list;
  start : Netlist.Placement.t;
  rounds : (float * float) array list;  (** per round, the moving cells' new centres *)
}

let gen_frozen_case =
  let open QCheck.Gen in
  oneofl [ 1; 2; 4; 20 ] >>= fun m ->
  int_range 2 10 >>= fun spare ->
  let ncells = m + spare in
  let pin = triple (int_bound (ncells - 1)) (oneofl [ 0.; -0.; 0.5; -0.5 ]) (oneofl [ 0.; 0.5 ]) in
  let net = frequency [ (3, return 2); (2, int_range 3 6) ] >>= fun k -> list_repeat k pin in
  int_range 4 16 >>= fun nnets ->
  list_repeat nnets net >>= fun nets ->
  list_repeat ncells (pair gen_coord gen_coord) >>= fun coords ->
  shuffle_l (List.init ncells Fun.id) >>= fun order ->
  let moving = List.filteri (fun i _ -> i < m) order in
  list_repeat 3 (map Array.of_list (list_repeat m (pair gen_coord gen_coord))) >>= fun rounds ->
  let cells =
    Array.init ncells (fun id ->
        Netlist.Cell.make ~id ~name:(Printf.sprintf "c%d" id) ~width:1. ~height:1. ())
  in
  (* [Net.make] refuses a repeated (cell, dx, dy): keep the first, and
     give a net left with one pin a second one on the next cell. *)
  let distinct pins =
    let kept =
      List.fold_left
        (fun acc q -> if List.exists (fun r -> compare r q = 0) acc then acc else acc @ [ q ])
        [] pins
    in
    match kept with
    | [ ((cell, _, _) as q) ] -> [ q; ((cell + 1) mod ncells, 0.25, 0.) ]
    | _ -> kept
  in
  let nets =
    Array.of_list
      (List.mapi
         (fun id pins ->
           Netlist.Net.make ~id ~name:(Printf.sprintf "n%d" id)
             (Array.of_list
                (List.map (fun (cell, dx, dy) -> { Netlist.Net.cell; dx; dy }) (distinct pins))))
         nets)
  in
  let region = Geometry.Rect.make ~x_lo:0. ~y_lo:0. ~x_hi:100. ~y_hi:100. in
  let circuit = Netlist.Circuit.make ~name:"frozen" ~cells ~nets ~region ~row_height:1. in
  let start =
    { Netlist.Placement.x = Array.of_list (List.map fst coords);
      y = Array.of_list (List.map snd coords) }
  in
  return { circuit; moving; start; rounds }

let frozen_outcome s p =
  let dst = [| 0. |] in
  hpwl_outcome (fun () ->
      Legalize.Nets.hpwl_into s p dst 0;
      dst.(0))

let frozen_matches_oracle case =
  let p = Netlist.Placement.copy case.start in
  let stamps = Legalize.Nets.stamps case.circuit in
  (* A second set on the same stamps, filled and frozen first: the set
     under test must not see its cells as moving. *)
  let other = Legalize.Nets.set stamps in
  Legalize.Nets.add_cell other 0;
  Legalize.Nets.freeze other p;
  let s = Legalize.Nets.set stamps and o = Nets_oracle.set case.circuit in
  Legalize.Nets.clear s;
  List.iter
    (fun id ->
      Legalize.Nets.add_cell s id;
      Nets_oracle.add_cell o id)
    case.moving;
  Legalize.Nets.freeze s p;
  let same () =
    frozen_outcome s p = hpwl_outcome (fun () -> Nets_oracle.hpwl o p)
  in
  same ()
  && List.for_all
       (fun round ->
         List.iteri
           (fun k id ->
             p.Netlist.Placement.x.(id) <- fst round.(k);
             p.Netlist.Placement.y.(id) <- snd round.(k))
           case.moving;
         same ())
       case.rounds

let prop_frozen_is_full_walk =
  QCheck.Test.make ~count:400 ~name:"frozen net boxes bit-equal the full walk"
    (QCheck.make gen_frozen_case) frozen_matches_oracle

(* A net whose pins are all NaN on one axis has no box: the frozen
   evaluation raises as [hpwl_net] does, whether the NaN pins are
   frozen or moving. *)
let test_frozen_all_nan () =
  let nan = Float.nan in
  let c, net, x, y = net_circuit [| (nan, 1.); (nan, 2.); (nan, 3.) |] in
  let expected = hpwl_outcome (fun () -> Metrics.Wirelength.hpwl_net c ~x ~y net) in
  Alcotest.(check bool) "hpwl_net raises" true (Result.is_error expected);
  let p = { Netlist.Placement.x; y } in
  List.iter
    (fun moving ->
      let s = Legalize.Nets.set (Legalize.Nets.stamps c) in
      List.iter (Legalize.Nets.add_cell s) moving;
      Legalize.Nets.freeze s p;
      Alcotest.(check bool)
        (Printf.sprintf "%d moving: same outcome" (List.length moving))
        true
        (frozen_outcome s p = expected))
    [ [ 0 ]; [ 1; 2 ]; [ 0; 1; 2 ] ]

(* --- near-equal widths ---

   One row holding A (width 2), N (width 1) and B (width 2.0005), packed
   from the left edge; a pad at each end pulls A right and B left.  A
   and B share the width class 2000, and swapping them would push B
   past the region's left edge and into N. *)
let near_equal_widths () =
  let cells =
    [|
      Netlist.Cell.make ~id:0 ~name:"a" ~width:2. ~height:1. ();
      Netlist.Cell.make ~id:1 ~name:"n" ~width:1. ~height:1. ();
      Netlist.Cell.make ~id:2 ~name:"b" ~width:2.0005 ~height:1. ();
      Netlist.Cell.make ~id:3 ~name:"left" ~width:1. ~height:1. ~kind:Netlist.Cell.Pad
        ~fixed:true ();
      Netlist.Cell.make ~id:4 ~name:"right" ~width:1. ~height:1. ~kind:Netlist.Cell.Pad
        ~fixed:true ();
    |]
  in
  let pin cell = { Netlist.Net.cell; dx = 0.; dy = 0. } in
  let nets =
    [|
      Netlist.Net.make ~id:0 ~name:"a_right" [| pin 0; pin 4 |];
      Netlist.Net.make ~id:1 ~name:"b_left" [| pin 2; pin 3 |];
    |]
  in
  let region = Geometry.Rect.make ~x_lo:0. ~y_lo:0. ~x_hi:40. ~y_hi:1. in
  let c = Netlist.Circuit.make ~name:"near" ~cells ~nets ~region ~row_height:1. in
  let p =
    { Netlist.Placement.x = [| 1.; 2.5; 3. +. (2.0005 /. 2.); 0.; 40. |];
      y = [| 0.5; 0.5; 0.5; 0.5; 0.5 |] }
  in
  Alcotest.(check bool) "legal start" true (Legalize.Check.is_legal c p);
  (c, p)

let test_near_equal_widths () =
  let c, p0 = near_equal_widths () in
  List.iter
    (fun (name, stage) ->
      let p = Netlist.Placement.copy p0 in
      ignore (stage c p);
      let violations =
        List.map
          (Format.asprintf "%a" Legalize.Check.pp_violation)
          (Legalize.Check.check c p ())
      in
      Alcotest.(check (list string)) (name ^ ": legal") [] violations)
    [
      ("Improve.run", fun c p -> Legalize.Improve.run c p);
      ("Domino.flow_pass", fun c p -> Legalize.Domino.flow_pass c p);
      ("Domino.run", fun c p -> Legalize.Domino.run c p);
    ]

(* --- allocation pins ---

   [Gc.minor_words] is exact, but arrays above 256 words go straight to
   the major heap and are not counted: these pins hold the small
   per-step allocations (boxed floats, tuples, options, closures) to
   zero, as test_poisson does for the FFT. *)

(* The 16×16 tied assignment.  In a fresh workspace the solver
   allocates its six O(n) buffers and its result, nothing per round:
   132 words (401 for the successive-shortest-paths solver it
   replaced).  Once the workspace has grown, [assign] allocates only
   the result's n + 1 words. *)
let test_assignment_allocation () =
  let costs = tied_costs () in
  let n = Array.length costs in
  let minor f =
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (f ()));
    Gc.minor_words () -. before
  in
  ignore (Numeric.Mincostflow.assignment ~costs);
  let fresh = minor (fun () -> Numeric.Mincostflow.assignment ~costs) in
  Alcotest.(check bool)
    (Printf.sprintf "fresh workspace: <= 10 (n+1) words (%.0f)" fresh)
    true
    (fresh <= 10. *. float_of_int (n + 1));
  let ws = Numeric.Mincostflow.workspace () in
  ignore (Numeric.Mincostflow.assign ws ~costs);
  let warm = minor (fun () -> Numeric.Mincostflow.assign ws ~costs) in
  Alcotest.(check bool)
    (Printf.sprintf "warm workspace: only the result, n + 1 words (%.0f)" warm)
    true
    (warm <= float_of_int (n + 1))

let test_hpwl_net_allocation () =
  let c, p = List.assoc "primary1" (Lazy.force fixtures) in
  let x = p.Netlist.Placement.x and y = p.Netlist.Placement.y in
  let nets = Netlist.Circuit.num_nets c in
  ignore (Metrics.Wirelength.hpwl_net c ~x ~y 0);
  let before = Gc.minor_words () in
  for n = 0 to nets - 1 do
    ignore (Sys.opaque_identity (Metrics.Wirelength.hpwl_net c ~x ~y n))
  done;
  let per_net = (Gc.minor_words () -. before) /. float_of_int nets in
  (* Two words: the boxed result (43 with a tuple per pin and a Rect). *)
  Alcotest.(check bool)
    (Printf.sprintf "hpwl_net allocates only its result (%.1f words/net)" per_net)
    true (per_net <= 2.)

(* A warm frozen evaluation: once a set's buffers have grown to its
   largest move, filling and freezing it and pricing each candidate
   allocate nothing ([hpwl_into] writes its sum into an array rather
   than returning a boxed float). *)
let test_frozen_allocation () =
  let c, p = List.assoc "primary1" (Lazy.force fixtures) in
  let p = Netlist.Placement.copy p in
  let x = p.Netlist.Placement.x in
  let s = Legalize.Nets.set (Legalize.Nets.stamps c) in
  let n = 20 in
  let ids = Array.init n (fun k -> 7 * k) and dst = Array.make n 0. in
  let move () =
    Legalize.Nets.clear s;
    for k = 0 to n - 1 do
      Legalize.Nets.add_cell s ids.(k)
    done;
    Legalize.Nets.freeze s p;
    for k = 0 to n - 1 do
      let x0 = x.(ids.(k)) in
      x.(ids.(k)) <- x0 +. 1.;
      Legalize.Nets.hpwl_into s p dst k;
      x.(ids.(k)) <- x0
    done
  in
  move ();
  let before = Gc.minor_words () in
  move ();
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.)) "freeze + 20 candidates: no words" 0. words

(* Improve.run then Domino.run on the primary1 fixture: 29252840 minor
   words with list net sets, tuple-keyed heaps and fresh permutation
   lists; 375614 with the flat net view, which boxed every candidate's
   cost and built per-pass lists; 138017 with frozen boxes, costs
   written into arrays and flat groups.  The pin allows 150000. *)
let test_finishing_allocation () =
  let c, p = List.assoc "primary1" (Lazy.force fixtures) in
  let p = Netlist.Placement.copy p in
  let before = Gc.minor_words () in
  ignore (Legalize.Improve.run c p);
  ignore (Legalize.Domino.run c p);
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "Improve + Domino allocate <= 150000 words (%.0f)" words)
    true (words <= 150000.)

let suite =
  [
    Alcotest.test_case "golden finishing pins" `Quick test_golden_finishing;
    Alcotest.test_case "golden tied assignment" `Quick test_golden_assignment;
  ]
  @ List.map
      (fun (name, field, config) ->
        Alcotest.test_case ("domino rejects " ^ name) `Quick (domino_rejects field config))
      config_cases
  @ [
      Alcotest.test_case "domino window 8 runs" `Quick test_window_8_runs;
      QCheck_alcotest.to_alcotest prop_hpwl_net_is_bbox;
      Alcotest.test_case "hpwl_net all-NaN raises like bbox" `Quick test_hpwl_net_all_nan;
      QCheck_alcotest.to_alcotest prop_frozen_is_full_walk;
      Alcotest.test_case "frozen all-NaN raises like hpwl_net" `Quick test_frozen_all_nan;
      Alcotest.test_case "near-equal widths stay legal" `Quick test_near_equal_widths;
      Alcotest.test_case "assignment allocation" `Quick test_assignment_allocation;
      Alcotest.test_case "hpwl_net allocation" `Quick test_hpwl_net_allocation;
      Alcotest.test_case "frozen evaluation allocation" `Quick test_frozen_allocation;
      Alcotest.test_case "finishing allocation" `Quick test_finishing_allocation;
    ]
