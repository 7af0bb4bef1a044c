let () =
  Alcotest.run "joinproj"
    [
      ("util", Test_util.suite);
      ("parallel", Test_parallel.suite);
      ("matrix", Test_matrix.suite);
      ("tile", Test_tile.suite);
      ("relation", Test_relation.suite);
      ("wcoj", Test_wcoj.suite);
      ("core", Test_core.suite);
      ("optimizer", Test_optimizer.suite);
      ("star", Test_star.suite);
      ("ssj", Test_ssj.suite);
      ("scj", Test_scj.suite);
      ("bsi", Test_bsi.suite);
      ("workload", Test_workload.suite);
      ("baselines", Test_baselines.suite);
      ("integration", Test_integration.suite);
      ("edge", Test_edge.suite);
      ("query", Test_query.suite);
      ("planner", Test_planner.suite);
      ("factorized", Test_factorized.suite);
      ("io", Test_io.suite);
      ("dynamic", Test_dynamic.suite);
      ("obs", Test_obs.suite);
      ("metrics", Test_metrics.suite);
      ("adaptive", Test_adaptive.suite);
      ("service", Test_service.suite);
      ("cache", Test_cache.suite);
      ("lint", Test_lint.suite);
      ("properties", Test_properties.suite);
    ]
