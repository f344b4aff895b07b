(* Tests for the Obs observability layer: Stat merge algebra, clock and
   timer behaviour, the metric registry, the JSON writer/parser pair and
   the telemetry sinks.  The merge and round-trip laws are checked as
   QCheck properties over random values, per the paper-repro test plan:
   the trace format must survive a write/parse cycle bit-for-bit so the
   convergence-regression suite can compare traces textually. *)

(* --- generators ------------------------------------------------------ *)

(* Finite floats with awkward mantissas and exponents; NaN/∞ are encoded
   as null in JSON and are exercised separately. *)
let finite_float_gen =
  QCheck.Gen.(
    map2
      (fun m e -> Float.ldexp (float_of_int m) e)
      (int_range (-1_000_000_000) 1_000_000_000)
      (int_range (-30) 30))

let finite_float =
  QCheck.make ~print:(Printf.sprintf "%.17g") finite_float_gen

let float_list = QCheck.(list_of_size (Gen.int_bound 8) finite_float)

let stat_of = List.fold_left Obs.Stat.observe Obs.Stat.zero

(* count/min/max merge exactly; total only up to FP reassociation. *)
let same_exact (a : Obs.Stat.t) (b : Obs.Stat.t) =
  a.Obs.Stat.count = b.Obs.Stat.count
  && a.Obs.Stat.min = b.Obs.Stat.min
  && a.Obs.Stat.max = b.Obs.Stat.max

let close a b =
  a = b || Float.abs (a -. b) <= 1e-9 *. (1. +. Float.abs a +. Float.abs b)

(* --- Stat merge algebra ---------------------------------------------- *)

let prop_merge_associative =
  QCheck.Test.make ~count:300 ~name:"Stat.merge associative"
    QCheck.(triple float_list float_list float_list)
    (fun (a, b, c) ->
      let sa = stat_of a and sb = stat_of b and sc = stat_of c in
      let l = Obs.Stat.merge (Obs.Stat.merge sa sb) sc in
      let r = Obs.Stat.merge sa (Obs.Stat.merge sb sc) in
      same_exact l r && close l.Obs.Stat.total r.Obs.Stat.total)

let prop_merge_commutative =
  QCheck.Test.make ~count:300 ~name:"Stat.merge commutative"
    QCheck.(pair float_list float_list)
    (fun (a, b) ->
      let sa = stat_of a and sb = stat_of b in
      let l = Obs.Stat.merge sa sb and r = Obs.Stat.merge sb sa in
      (* IEEE addition is commutative, so even total matches exactly. *)
      same_exact l r && l.Obs.Stat.total = r.Obs.Stat.total)

let prop_merge_zero_identity =
  QCheck.Test.make ~count:300 ~name:"Stat.merge zero identity" float_list
    (fun a ->
      let s = stat_of a in
      let l = Obs.Stat.merge Obs.Stat.zero s in
      let r = Obs.Stat.merge s Obs.Stat.zero in
      same_exact l s && same_exact r s
      && l.Obs.Stat.total = s.Obs.Stat.total
      && r.Obs.Stat.total = s.Obs.Stat.total)

let prop_merge_matches_concat =
  QCheck.Test.make ~count:300
    ~name:"Stat.merge of two streams = Stat of the concatenation"
    QCheck.(pair float_list float_list)
    (fun (a, b) ->
      let merged = Obs.Stat.merge (stat_of a) (stat_of b) in
      let folded = stat_of (a @ b) in
      same_exact merged folded
      && close merged.Obs.Stat.total folded.Obs.Stat.total)

let test_stat_basics () =
  Alcotest.(check bool) "zero is zero" true (Obs.Stat.is_zero Obs.Stat.zero);
  Alcotest.(check (float 0.)) "mean of zero" 0. (Obs.Stat.mean Obs.Stat.zero);
  let s = Obs.Stat.of_value 3.5 in
  Alcotest.(check int) "count" 1 s.Obs.Stat.count;
  Alcotest.(check (float 0.)) "mean" 3.5 (Obs.Stat.mean s);
  Alcotest.(check (float 0.)) "min" 3.5 s.Obs.Stat.min;
  Alcotest.(check (float 0.)) "max" 3.5 s.Obs.Stat.max;
  let s2 = Obs.Stat.observe s (-1.) in
  Alcotest.(check (float 0.)) "min updates" (-1.) s2.Obs.Stat.min;
  Alcotest.(check (float 0.)) "max keeps" 3.5 s2.Obs.Stat.max

(* --- clock and timer -------------------------------------------------- *)

let test_clock_monotone () =
  let t0 = Obs.Clock.now () in
  for _ = 1 to 1000 do
    Alcotest.(check bool) "elapsed never negative" true
      (Obs.Clock.elapsed_since t0 >= 0.)
  done;
  (* A reference point in the future must clamp to zero, not go
     negative — this is what keeps timings monotone across clock
     steps. *)
  Alcotest.(check (float 0.)) "future reference clamps" 0.
    (Obs.Clock.elapsed_since (Obs.Clock.now () +. 3600.))

let with_registry f =
  Obs.Registry.set_enabled true;
  Obs.Registry.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Registry.reset ();
      Obs.Registry.set_enabled false)
    f

let test_timer_accumulates () =
  with_registry (fun () ->
      for i = 1 to 5 do
        let r = Obs.Timer.time "test/phase" (fun () -> i * i) in
        Alcotest.(check int) "passes result through" (i * i) r
      done;
      let s = Obs.Registry.get "test/phase" in
      Alcotest.(check int) "one observation per call" 5 s.Obs.Stat.count;
      Alcotest.(check bool) "elapsed times non-negative" true
        (s.Obs.Stat.min >= 0. && s.Obs.Stat.total >= s.Obs.Stat.max))

let test_timer_records_on_exception () =
  with_registry (fun () ->
      (try Obs.Timer.time "test/fail" (fun () -> failwith "boom")
       with Failure _ -> ());
      Alcotest.(check int) "failing phase still timed" 1
        (Obs.Registry.get "test/fail").Obs.Stat.count)

(* --- registry --------------------------------------------------------- *)

let test_registry_disabled_is_noop () =
  Obs.Registry.set_enabled false;
  Obs.Registry.reset ();
  Obs.Registry.observe "off/x" 1.;
  Obs.Registry.incr "off/x";
  ignore (Obs.Timer.time "off/t" (fun () -> 42));
  Alcotest.(check bool) "observe dropped" true
    (Obs.Stat.is_zero (Obs.Registry.get "off/x"));
  Alcotest.(check bool) "timer dropped" true
    (Obs.Stat.is_zero (Obs.Registry.get "off/t"));
  Alcotest.(check int) "snapshot empty" 0
    (List.length (Obs.Registry.snapshot ()))

let test_registry_counters () =
  with_registry (fun () ->
      Obs.Registry.incr "cg/solves";
      Obs.Registry.incr "cg/solves";
      Obs.Registry.incr ~by:3. "cg/solves";
      let s = Obs.Registry.get "cg/solves" in
      Alcotest.(check int) "bumps" 3 s.Obs.Stat.count;
      Alcotest.(check (float 0.)) "total" 5. s.Obs.Stat.total;
      Obs.Registry.reset ();
      Alcotest.(check bool) "reset drops" true
        (Obs.Stat.is_zero (Obs.Registry.get "cg/solves")))

let test_registry_rollup () =
  with_registry (fun () ->
      Obs.Registry.observe "placer/assemble" 1.;
      Obs.Registry.observe "placer/solve" 2.;
      Obs.Registry.observe "placer/solve" 3.;
      Obs.Registry.observe "other" 10.;
      let rolled = Obs.Registry.rollup () in
      match List.assoc_opt "placer" rolled with
      | None -> Alcotest.fail "no rollup entry for placer"
      | Some s ->
        Alcotest.(check int) "children merged" 3 s.Obs.Stat.count;
        Alcotest.(check (float 0.)) "totals summed" 6. s.Obs.Stat.total;
        Alcotest.(check (float 0.)) "min across children" 1. s.Obs.Stat.min;
        Alcotest.(check bool) "leaves kept" true
          (List.mem_assoc "placer/solve" rolled))

(* --- JSON writer/parser ---------------------------------------------- *)

let rec json_sized k =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        return Obs.Json.Null;
        map (fun b -> Obs.Json.Bool b) bool;
        map (fun f -> Obs.Json.Num f) finite_float_gen;
        map (fun s -> Obs.Json.Str s) (string_size ~gen:printable (int_bound 12));
      ]
  in
  if k = 0 then leaf
  else
    frequency
      [
        (3, leaf);
        ( 1,
          map (fun l -> Obs.Json.Arr l)
            (list_size (int_bound 4) (json_sized (k / 2))) );
        ( 1,
          map (fun l -> Obs.Json.Obj l)
            (list_size (int_bound 4)
               (pair (string_size ~gen:printable (int_bound 8))
                  (json_sized (k / 2)))) );
      ]

let json_arb =
  QCheck.make ~print:Obs.Json.to_string QCheck.Gen.(sized json_sized)

let prop_json_roundtrip =
  QCheck.Test.make ~count:500 ~name:"Json.of_string inverts Json.to_string"
    json_arb
    (fun v ->
      match Obs.Json.of_string (Obs.Json.to_string v) with
      | Ok v' -> v' = v
      | Error _ -> false)

let prop_number_roundtrip_bitwise =
  QCheck.Test.make ~count:1000 ~name:"numbers round-trip bit-for-bit"
    finite_float
    (fun f ->
      match Obs.Json.of_string (Obs.Json.to_string (Obs.Json.Num f)) with
      | Ok (Obs.Json.Num f') ->
        Int64.bits_of_float f' = Int64.bits_of_float f
      | _ -> false)

(* Integers are read back only while every integer is a float: past
   2^53 (or fractional, or not a number) [to_int] refuses rather than
   wrapping through [int_of_float]. *)
let test_json_to_int_range () =
  let two53 = 9007199254740992. in
  List.iter
    (fun (v, expected) ->
      Alcotest.(check (option int)) (Obs.Json.to_string v) expected
        (Obs.Json.to_int v))
    [
      (Obs.Json.Num 0., Some 0);
      (Obs.Json.Num (-7.), Some (-7));
      (Obs.Json.Num two53, Some 9007199254740992);
      (Obs.Json.Num (-.two53), Some (-9007199254740992));
      (Obs.Json.Num (two53 +. 2.), None);
      (Obs.Json.Num 4.7e18, None);
      (Obs.Json.Num 1e19, None);
      (Obs.Json.Num (-1e19), None);
      (Obs.Json.Num 1.5, None);
      (Obs.Json.Str "3", None);
      (Obs.Json.Null, None);
    ]

(* A number past max_float is refused, not read as an infinity that the
   writer would print back as null. *)
let test_json_number_out_of_range () =
  List.iter
    (fun text ->
      match Obs.Json.of_string text with
      | Ok v -> Alcotest.failf "%s read as %s" text (Obs.Json.to_string v)
      | Error e ->
        Alcotest.(check bool) (text ^ ": " ^ e) true
          (String.starts_with ~prefix:"number out of range" e))
    [ "[1e999, -1e999]"; "[-1e999]"; "1.8e308"; {|{"x":[0.5,1e400]}|} ];
  Alcotest.(check bool) "max_float reads" true
    (Obs.Json.of_string "1.7976931348623157e308"
    = Ok (Obs.Json.Num Float.max_float));
  Alcotest.(check bool) "underflow reads as zero" true
    (Obs.Json.of_string "1e-999" = Ok (Obs.Json.Num 0.))

let test_json_corner_cases () =
  let ok s = Result.is_ok (Obs.Json.of_string s) in
  Alcotest.(check bool) "escaped string" true
    (Obs.Json.of_string {|"a\"b\\c\nA"|} = Ok (Obs.Json.Str "a\"b\\c\nA"));
  Alcotest.(check bool) "nan writes as null" true
    (Obs.Json.to_string (Obs.Json.Num Float.nan) = "null");
  Alcotest.(check bool) "inf writes as null" true
    (Obs.Json.to_string (Obs.Json.Num Float.infinity) = "null");
  Alcotest.(check bool) "trailing garbage rejected" false (ok "1 2");
  Alcotest.(check bool) "bare word rejected" false (ok "nope");
  Alcotest.(check bool) "unterminated string rejected" false (ok {|"abc|});
  Alcotest.(check bool) "surrogate escape rejected" false (ok {|"\ud800"|});
  Alcotest.(check bool) "empty object" true (ok "{}");
  Alcotest.(check bool) "whitespace tolerated" true (ok " { \"a\" : [ 1 , 2 ] } ");
  Alcotest.(check (option string)) "member lookup" (Some "v")
    (match Obs.Json.member "k" (Obs.Json.Obj [ ("k", Obs.Json.Str "v") ]) with
    | Some (Obs.Json.Str s) -> Some s
    | _ -> None)

(* --- telemetry records ------------------------------------------------ *)

let sample_iteration step =
  {
    Obs.Telemetry.step;
    hpwl = 123.5 +. float_of_int step;
    quadratic = 77.25;
    overflow = 0.5;
    empty_square_area = 64.;
    force_scale = 0.125;
    max_force = 3.;
    mean_force = 1.5;
    displacement = 10.;
    cg_iterations_x = 7;
    cg_iterations_y = 9;
    cg_residual_x = 1e-7;
    cg_residual_y = 2e-7;
    kernel_cache_hits = 1;
    kernel_cache_misses = 0;
    assembly_reused = true;
    pattern_rebuilds = 1;
    cg_tolerance = 1e-6;
    penalty = 1.1;
    lb_hpwl = 123.5 +. float_of_int step;
    ub_hpwl = (if step mod 2 = 0 then Some (140. +. float_of_int step) else None);
    gap = (if step mod 2 = 0 then Some 0.07 else None);
    level = step mod 3;
    congest_strength = (if step mod 2 = 0 then 0.5 else 0.);
    est_overflow = (if step mod 2 = 0 then Some 12.5 else None);
    target_area = float_of_int step *. 2.;
    target_clamped = step mod 4;
    phases = [ ("assemble", 0.001); ("solve", 0.002) ];
  }

let sample_summary =
  {
    Obs.Telemetry.iterations = 42;
    converged = true;
    final_hpwl = 6886.5;
    final_overlap = 0.001;
    wall_time = 1.5;
    stop_reason = Some "gap";
    counters = [ ("cg/iterations", Obs.Stat.of_value 16.) ];
  }

let prop_iteration_roundtrip =
  QCheck.Test.make ~count:300
    ~name:"iteration records round-trip through JSONL text"
    QCheck.(
      pair
        (array_of_size (Gen.return 5) small_nat)
        (array_of_size (Gen.return 13) finite_float))
    (fun (is, fs) ->
      let probed = is.(0) mod 2 = 0 in
      let r =
        {
          Obs.Telemetry.step = 1 + is.(0);
          hpwl = fs.(0);
          quadratic = fs.(1);
          overflow = fs.(2);
          empty_square_area = fs.(3);
          force_scale = fs.(4);
          max_force = fs.(5);
          mean_force = fs.(6);
          displacement = fs.(7);
          cg_iterations_x = is.(1);
          cg_iterations_y = is.(2);
          cg_residual_x = fs.(8);
          cg_residual_y = fs.(9);
          kernel_cache_hits = is.(3);
          kernel_cache_misses = is.(4);
          assembly_reused = is.(4) mod 2 = 0;
          pattern_rebuilds = is.(3);
          cg_tolerance = Float.abs fs.(9);
          penalty = Float.abs fs.(11);
          lb_hpwl = fs.(0);
          ub_hpwl = (if probed then Some fs.(12) else None);
          gap = (if probed then Some fs.(10) else None);
          level = is.(1) mod 4;
          congest_strength = Float.abs fs.(11);
          est_overflow = (if probed then Some (Float.abs fs.(12)) else None);
          target_area = Float.abs fs.(10);
          target_clamped = is.(2) mod 5;
          phases = [ ("assemble", Float.abs fs.(10)) ];
        }
      in
      let s = Obs.Json.to_string (Obs.Telemetry.iteration_to_json r) in
      match Obs.Json.of_string s with
      | Error _ -> false
      | Ok v -> (
        match Obs.Telemetry.iteration_of_json v with
        | Error _ -> false
        | Ok r' -> r' = r))

let test_summary_roundtrip () =
  let s = Obs.Json.to_string (Obs.Telemetry.summary_to_json sample_summary) in
  match Obs.Json.of_string s with
  | Error e -> Alcotest.failf "summary does not parse: %s" e
  | Ok v -> (
    match Obs.Telemetry.summary_of_json v with
    | Error e -> Alcotest.failf "summary does not validate: %s" e
    | Ok s' ->
      Alcotest.(check bool) "summary round-trips" true (s' = sample_summary))

let test_iteration_validation_rejects () =
  let bad_record =
    match Obs.Telemetry.iteration_to_json (sample_iteration 1) with
    | Obs.Json.Obj fields ->
      Obs.Json.Obj
        (List.map
           (fun (k, v) ->
             if k = "record" then (k, Obs.Json.Str "banana") else (k, v))
           fields)
    | _ -> assert false
  in
  Alcotest.(check bool) "wrong record tag rejected" true
    (Result.is_error (Obs.Telemetry.iteration_of_json bad_record));
  Alcotest.(check bool) "non-object rejected" true
    (Result.is_error (Obs.Telemetry.iteration_of_json (Obs.Json.Num 1.)))

let v2_only_fields = [ "assembly_reused"; "pattern_rebuilds"; "cg_tolerance" ]

let v3_only_fields = [ "penalty"; "lb_hpwl"; "ub_hpwl"; "gap" ]

let v4_only_fields = [ "level" ]

let v5_only_fields =
  [ "congest_strength"; "est_overflow"; "target_area"; "target_clamped" ]

(* Schema 5 records also carried the kernel pool's size and task count,
   which schema 6 dropped. *)
let with_pool_fields = function
  | Obs.Json.Obj fields ->
    Obs.Json.Obj
      (fields @ [ ("domains", Obs.Json.Num 2.); ("pool_tasks", Obs.Json.Num 12.) ])
  | _ -> Alcotest.fail "iteration json is not an object"

let downgrade_to schema drop = function
  | Obs.Json.Obj fields ->
    Obs.Json.Obj
      (List.filter_map
         (fun (k, v) ->
           if List.mem k drop then None
           else if k = "schema" then Some (k, Obs.Json.Num schema)
           else Some (k, v))
         fields)
  | _ -> Alcotest.fail "iteration json is not an object"

let with_schema v = function
  | Obs.Json.Obj fields ->
    Obs.Json.Obj
      (List.map
         (fun (k, x) -> if k = "schema" then (k, Obs.Json.Num v) else (k, x))
         fields)
  | _ -> Alcotest.fail "record json is not an object"

let without field = function
  | Obs.Json.Obj fields ->
    Obs.Json.Obj (List.filter (fun (k, _) -> k <> field) fields)
  | _ -> Alcotest.fail "record json is not an object"

let test_iteration_schema_rejected () =
  let current = Obs.Telemetry.iteration_to_json (sample_iteration 4) in
  let rejected what v =
    Alcotest.(check bool) what true
      (Result.is_error (Obs.Telemetry.iteration_of_json v))
  in
  (* Records as the schema 1-5 placers wrote them (each lacks the fields
     later schemas added), and the current fields under an old or a
     future number: only schema 6 parses. *)
  rejected "schema 1 record"
    (downgrade_to 1.
       (v2_only_fields @ v3_only_fields @ v4_only_fields @ v5_only_fields)
       current);
  rejected "schema 2 record"
    (downgrade_to 2.
       (v3_only_fields @ v4_only_fields @ v5_only_fields)
       current);
  rejected "schema 3 record"
    (downgrade_to 3. (v4_only_fields @ v5_only_fields) current);
  rejected "schema 4 record" (downgrade_to 4. v5_only_fields current);
  rejected "schema 4 with every field" (with_schema 4. current);
  rejected "schema 5 record" (with_schema 5. (with_pool_fields current));
  rejected "schema 5 with every field" (with_schema 5. current);
  rejected "schema 7" (with_schema 7. current);
  rejected "no schema" (without "schema" current);
  Alcotest.(check bool) "typed message" true
    (Obs.Telemetry.iteration_of_json (with_schema 5. (with_pool_fields current))
    = Error "unsupported schema version 5 (this build reads 6)");
  (* A current-schema record missing a field is a validation error
     (ub_hpwl/gap/est_overflow excepted: absence means "not probed"). *)
  List.iter
    (fun field ->
      rejected (Printf.sprintf "current schema without %s" field)
        (without field current))
    (v2_only_fields
    @ [ "penalty"; "lb_hpwl"; "level" ]
    @ [ "congest_strength"; "target_area"; "target_clamped" ])

let test_summary_schema_rejected () =
  let current = Obs.Telemetry.summary_to_json sample_summary in
  (match Obs.Telemetry.summary_of_json current with
  | Ok s -> Alcotest.(check int) "schema 6 parses" 42 s.Obs.Telemetry.iterations
  | Error e -> Alcotest.failf "schema 6 summary rejected: %s" e);
  List.iter
    (fun (what, v) ->
      Alcotest.(check bool) what true
        (Result.is_error (Obs.Telemetry.summary_of_json v)))
    [
      ("schema 2 summary", with_schema 2. (without "stop_reason" current));
      ("schema 4 summary", with_schema 4. current);
      ("schema 5 summary", with_schema 5. current);
      ("schema 7 summary", with_schema 7. current);
      ("summary without schema", without "schema" current);
    ]

let test_strip_volatile () =
  let j = Obs.Telemetry.iteration_to_json (sample_iteration 3) in
  let stripped = Obs.Telemetry.strip_volatile j in
  List.iter
    (fun f ->
      Alcotest.(check bool) (f ^ " stripped") true
        (Obs.Json.member f stripped = None))
    Obs.Telemetry.volatile_fields;
  Alcotest.(check bool) "payload kept" true
    (Obs.Json.member "hpwl" stripped <> None
    && Obs.Json.member "step" stripped <> None)

(* Schema 6 dropped the kernel pool's size and task count: a record
   carries neither. *)
let test_iteration_no_pool_fields () =
  let j = Obs.Telemetry.iteration_to_json (sample_iteration 2) in
  Alcotest.(check bool) "schema 6" true
    (Obs.Json.member "schema" j = Some (Obs.Json.Num 6.));
  List.iter
    (fun f ->
      Alcotest.(check bool) (f ^ " absent") true (Obs.Json.member f j = None))
    [ "domains"; "pool_tasks" ]

(* --- sinks ------------------------------------------------------------ *)

let test_sink_collecting () =
  Obs.Sink.clear ();
  Alcotest.(check bool) "inactive by default" false (Obs.Sink.active ());
  let sink, read = Obs.Sink.collecting () in
  Obs.Sink.with_sink sink (fun () ->
      Alcotest.(check bool) "active inside with_sink" true (Obs.Sink.active ());
      Obs.Sink.iteration (sample_iteration 1);
      Obs.Sink.iteration (sample_iteration 2);
      Obs.Sink.summary sample_summary);
  Alcotest.(check bool) "restored after with_sink" false (Obs.Sink.active ());
  let records, summary = read () in
  Alcotest.(check (list int)) "records in emission order" [ 1; 2 ]
    (List.map (fun r -> r.Obs.Telemetry.step) records);
  Alcotest.(check bool) "summary captured" true (summary <> None);
  (* With no sink installed, records are dropped, not queued. *)
  Obs.Sink.iteration (sample_iteration 3);
  let records', _ = read () in
  Alcotest.(check int) "no sink, no record" 2 (List.length records')

let test_sink_jsonl () =
  let file = Filename.temp_file "obs_jsonl" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists file then Sys.remove file)
    (fun () ->
      let oc = open_out file in
      let sink = Obs.Sink.jsonl oc in
      sink.Obs.Sink.on_iteration (sample_iteration 1);
      sink.Obs.Sink.on_summary sample_summary;
      close_out oc;
      let ic = open_in file in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> ());
      close_in ic;
      let lines = List.rev !lines in
      Alcotest.(check int) "one line per record" 2 (List.length lines);
      let tag line =
        match Obs.Json.of_string line with
        | Error e -> Alcotest.failf "unparsable line %S: %s" line e
        | Ok v -> (
          match Obs.Json.member "record" v with
          | Some (Obs.Json.Str s) -> s
          | _ -> Alcotest.failf "line without record tag: %s" line)
      in
      Alcotest.(check (list string)) "tags" [ "iteration"; "summary" ]
        (List.map tag lines))

let suite =
  [
    Alcotest.test_case "stat basics" `Quick test_stat_basics;
    QCheck_alcotest.to_alcotest prop_merge_associative;
    QCheck_alcotest.to_alcotest prop_merge_commutative;
    QCheck_alcotest.to_alcotest prop_merge_zero_identity;
    QCheck_alcotest.to_alcotest prop_merge_matches_concat;
    Alcotest.test_case "clock monotone" `Quick test_clock_monotone;
    Alcotest.test_case "timer accumulates" `Quick test_timer_accumulates;
    Alcotest.test_case "timer records on exception" `Quick
      test_timer_records_on_exception;
    Alcotest.test_case "registry disabled is a no-op" `Quick
      test_registry_disabled_is_noop;
    Alcotest.test_case "registry counters" `Quick test_registry_counters;
    Alcotest.test_case "registry rollup" `Quick test_registry_rollup;
    QCheck_alcotest.to_alcotest prop_json_roundtrip;
    QCheck_alcotest.to_alcotest prop_number_roundtrip_bitwise;
    Alcotest.test_case "json corner cases" `Quick test_json_corner_cases;
    Alcotest.test_case "json number out of range" `Quick
      test_json_number_out_of_range;
    Alcotest.test_case "json to_int range" `Quick test_json_to_int_range;
    QCheck_alcotest.to_alcotest prop_iteration_roundtrip;
    Alcotest.test_case "summary round-trip" `Quick test_summary_roundtrip;
    Alcotest.test_case "iteration validation rejects" `Quick
      test_iteration_validation_rejects;
    Alcotest.test_case "iteration schema other than 6 rejected" `Quick
      test_iteration_schema_rejected;
    Alcotest.test_case "summary other schema rejected" `Quick
      test_summary_schema_rejected;
    Alcotest.test_case "strip_volatile" `Quick test_strip_volatile;
    Alcotest.test_case "iteration records carry no pool fields" `Quick
      test_iteration_no_pool_fields;
    Alcotest.test_case "collecting sink" `Quick test_sink_collecting;
    Alcotest.test_case "jsonl sink" `Quick test_sink_jsonl;
  ]
