(* Aggregated test runner: one Alcotest suite per library module. *)

let () =
  Alcotest.run "kraftwerk-repro"
    [
      ("numeric.sparse", Test_sparse.suite);
      ("numeric.cg", Test_cg.suite);
      ("numeric.fft", Test_fft.suite);
      ("numeric.poisson", Test_poisson.suite);
      ("numeric.rng", Test_rng.suite);
      ("numeric.parallel", Test_parallel.suite);
      ("geometry.rect", Test_rect.suite);
      ("geometry.grid2", Test_grid2.suite);
      ("numtext", Test_numtext.suite);
      ("netlist", Test_netlist.suite);
      ("netlist.io", Test_io.suite);
      ("netlist.bookshelf", Test_bookshelf.suite);
      ("circuitgen", Test_gen.suite);
      ("metrics", Test_metrics.suite);
      ("qp", Test_qp.suite);
      ("density", Test_density.suite);
      ("kraftwerk", Test_placer.suite);
      ("kraftwerk.cluster", Test_cluster.suite);
      ("timing", Test_timing.suite);
      ("timing.paths", Test_paths.suite);
      ("legalize", Test_legalize.suite);
      ("legalize.domino", Test_domino.suite);
      ("legalize.finishing", Test_finishing.suite);
      ("baselines", Test_baselines.suite);
      ("route", Test_route.suite);
      ("route.grouter", Test_grouter.suite);
      ("floorplan", Test_floorplan.suite);
      ("floorplan.flexible", Test_flexible.suite);
      ("obs", Test_obs.suite);
      ("engine", Test_engine.suite);
      ("server", Test_server.suite);
      ("convergence", Test_convergence.suite);
      ("trajectory", Test_trajectory.suite);
      ("effort", Test_effort.suite);
      ("integration", Test_integration.suite);
      ("integration.gates", Test_integration.gates);
      ("properties", Test_properties.suite);
      ("validation", Test_validation.suite);
    ]
