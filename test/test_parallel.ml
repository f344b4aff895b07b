(* Tests for the Numeric.Parallel domain pool and for the bitwise
   determinism of every kernel routed through it: the same inputs must
   produce bit-for-bit identical outputs whether the pool has 1, 2 or 4
   domains, and the pooled paths must match the historical sequential
   code exactly. *)

let check_bitwise name a b =
  Alcotest.(check int) (name ^ ": length") (Array.length a) (Array.length b);
  Array.iteri
    (fun i x ->
      if Int64.bits_of_float x <> Int64.bits_of_float b.(i) then
        Alcotest.failf "%s: element %d differs: %h vs %h" name i x b.(i))
    a

(* Every test leaves the pool at size 1 so the rest of the suite keeps
   the historical sequential behaviour. *)
let with_domains n f =
  Numeric.Parallel.set_num_domains n;
  Fun.protect ~finally:(fun () -> Numeric.Parallel.set_num_domains 1) f

let domain_counts = [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Pool combinators                                                    *)

let test_parallel_range_covers_range () =
  List.iter
    (fun d ->
      with_domains d (fun () ->
          List.iter
            (fun n ->
              let hits = Array.make n 0 in
              Numeric.Parallel.parallel_range ~chunk:7 ~lo:0 ~hi:n (fun a b ->
                  for i = a to b - 1 do
                    hits.(i) <- hits.(i) + 1
                  done);
              Array.iteri
                (fun i h ->
                  if h <> 1 then
                    Alcotest.failf "d=%d n=%d: index %d visited %d times" d n
                      i h)
                hits)
            [ 0; 1; 6; 7; 8; 100; 1023 ];
          (* A task's exception reaches the caller, and the pool survives
             it. *)
          Alcotest.check_raises "chunk raises" (Failure "boom") (fun () ->
              Numeric.Parallel.parallel_range ~chunk:7 ~lo:0 ~hi:100
                (fun a b -> if a <= 14 && 14 < b then failwith "boom"));
          let hits = Array.make 100 0 in
          Numeric.Parallel.parallel_range ~chunk:7 ~lo:0 ~hi:100 (fun a b ->
              for i = a to b - 1 do
                hits.(i) <- hits.(i) + 1
              done);
          Alcotest.(check bool) "alive after exn" true
            (Array.for_all (( = ) 1) hits)))
    domain_counts

let test_set_num_domains_validates () =
  Alcotest.check_raises "zero rejected"
    (Invalid_argument "Parallel.set_num_domains: need at least one domain")
    (fun () -> Numeric.Parallel.set_num_domains 0)

let test_env_variable () =
  let saved = Sys.getenv_opt "KRAFTWERK_DOMAINS" in
  Fun.protect
    ~finally:(fun () ->
      (match saved with
      | Some v -> Unix.putenv "KRAFTWERK_DOMAINS" v
      | None -> Unix.putenv "KRAFTWERK_DOMAINS" "");
      Numeric.Parallel.set_num_domains 1)
    (fun () ->
      Unix.putenv "KRAFTWERK_DOMAINS" "3";
      Numeric.Parallel.reset ();
      Alcotest.(check int) "env respected" 3 (Numeric.Parallel.num_domains ());
      Unix.putenv "KRAFTWERK_DOMAINS" "1";
      Numeric.Parallel.reset ();
      Alcotest.(check int) "env=1 sequential" 1
        (Numeric.Parallel.num_domains ()))

(* ------------------------------------------------------------------ *)
(* SpMV determinism                                                    *)

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
  let rng = Numeric.Rng.create 77 in
  (* 777 rows clears the SpMV parallel threshold (512). *)
  let m = random_spd_matrix rng 777 in
  let x = Array.init 777 (fun i -> Numeric.Rng.uniform rng (-1.) 1. +. float_of_int i) in
  let y_ref = Array.make 777 0. in
  Numeric.Sparse.mul_seq m x y_ref;
  List.iter
    (fun d ->
      with_domains d (fun () ->
          let y = Array.make 777 nan in
          Numeric.Sparse.mul m x y;
          check_bitwise (Printf.sprintf "spmv d=%d" d) y_ref y))
    domain_counts

(* ------------------------------------------------------------------ *)
(* Force-field determinism                                             *)

(* The FFT force field of a cold and a warm kernel cache must be the
   domains=1 bits on every pool size, with exactly one kernel build. *)
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
      let reference = with_domains 1 field in
      List.iter
        (fun d ->
          with_domains d (fun () ->
              Numeric.Poisson.clear_kernel_cache ();
              let cold = field () in
              let warm = field () in
              let tag s =
                Printf.sprintf "%dx%d d=%d %s" rows cols d s
              in
              check_bitwise (tag "cold fx") reference.Numeric.Poisson.fx
                cold.Numeric.Poisson.fx;
              check_bitwise (tag "cold fy") reference.Numeric.Poisson.fy
                cold.Numeric.Poisson.fy;
              check_bitwise (tag "warm fx") reference.Numeric.Poisson.fx
                warm.Numeric.Poisson.fx;
              check_bitwise (tag "warm fy") reference.Numeric.Poisson.fy
                warm.Numeric.Poisson.fy;
              let hits, misses = Numeric.Poisson.kernel_cache_stats () in
              Alcotest.(check (pair int int))
                (tag "cache stats") (1, 1) (hits, misses)))
        domain_counts)
    [ (7, 13); (17, 29) ]

(* ------------------------------------------------------------------ *)
(* Whole-placer determinism                                            *)

let test_placer_trajectory_bitwise () =
  let prof = Circuitgen.Profiles.find "fract" in
  let circuit, pads =
    Circuitgen.Gen.generate (Circuitgen.Profiles.params ~scale:1.0 prof ~seed:21)
  in
  let p0 = Circuitgen.Gen.initial_placement circuit pads in
  let config =
    { Kraftwerk.Config.standard with Kraftwerk.Config.max_iterations = 15 }
  in
  let run domains =
    let state, reports =
      Kraftwerk.Placer.run
        { config with Kraftwerk.Config.domains = Some domains }
        circuit p0
    in
    ( Array.of_list (List.map (fun r -> r.Kraftwerk.Placer.hpwl) reports),
      state.Kraftwerk.Placer.placement )
  in
  Fun.protect
    ~finally:(fun () -> Numeric.Parallel.set_num_domains 1)
    (fun () ->
      let traj1, p1 = run 1 in
      let traj4, p4 = run 4 in
      Alcotest.(check bool) "took steps" true (Array.length traj1 > 0);
      check_bitwise "hpwl trajectory" traj1 traj4;
      check_bitwise "final x" p1.Netlist.Placement.x p4.Netlist.Placement.x;
      check_bitwise "final y" p1.Netlist.Placement.y p4.Netlist.Placement.y)

(* The full telemetry trace — not just the HPWL trajectory — must be
   bitwise identical for any pool size once the volatile fields
   (timings, pool facts) are stripped: every recorded metric comes out
   of kernels that are deterministic across domain counts. *)
let test_telemetry_trace_bitwise () =
  let prof = Circuitgen.Profiles.find "fract" in
  let circuit, pads =
    Circuitgen.Gen.generate (Circuitgen.Profiles.params ~scale:1.0 prof ~seed:21)
  in
  let p0 = Circuitgen.Gen.initial_placement circuit pads in
  let config =
    { Kraftwerk.Config.standard with Kraftwerk.Config.max_iterations = 10 }
  in
  let run domains =
    (* The kernel-spectrum cache persists across runs in one process;
       clear it so cache hit/miss records match between runs too. *)
    Numeric.Poisson.clear_kernel_cache ();
    let sink, read = Obs.Sink.collecting () in
    Obs.Sink.with_sink sink (fun () ->
        ignore
          (Kraftwerk.Placer.run
             { config with Kraftwerk.Config.domains = Some domains }
             circuit p0));
    let records, _ = read () in
    List.map
      (fun r ->
        Obs.Json.to_string
          (Obs.Telemetry.strip_volatile (Obs.Telemetry.iteration_to_json r)))
      records
  in
  Fun.protect
    ~finally:(fun () -> Numeric.Parallel.set_num_domains 1)
    (fun () ->
      let reference = run 1 in
      Alcotest.(check bool) "collected records" true (reference <> []);
      List.iter
        (fun d ->
          Alcotest.(check (list string))
            (Printf.sprintf "telemetry trace d=%d" d)
            reference (run d))
        [ 2; 4 ])

let suite =
  [
    Alcotest.test_case "parallel_range covers range" `Quick
      test_parallel_range_covers_range;
    Alcotest.test_case "set_num_domains validates" `Quick
      test_set_num_domains_validates;
    Alcotest.test_case "KRAFTWERK_DOMAINS env" `Quick test_env_variable;
    Alcotest.test_case "SpMV bitwise across domains" `Quick test_spmv_bitwise;
    Alcotest.test_case "force field bitwise across domains" `Quick
      test_force_field_bitwise;
    Alcotest.test_case "placer trajectory bitwise across domains" `Slow
      test_placer_trajectory_bitwise;
    Alcotest.test_case "telemetry trace bitwise across domains" `Slow
      test_telemetry_trace_bitwise;
  ]
