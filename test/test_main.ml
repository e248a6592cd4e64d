let () =
  Alcotest.run "whyprov"
    [
      Test_util.suite;
      Test_metrics.suite;
      Test_sat.suite;
      Test_preprocess.suite;
      Test_drat.suite;
      Test_datalog.suite;
      Test_flatrel.suite;
      Test_engine.suite;
      Test_provenance.suite;
      Test_reductions.suite;
      Test_workloads.suite;
      Test_analysis.suite;
      Test_explain.suite;
      Test_properties.suite;
      Test_semiring.suite;
      Test_cardinality.suite;
      Test_fo_variants.suite;
      Test_witness.suite;
      Test_trace.suite;
      Test_circuit.suite;
      Test_batch.suite;
      Test_tracing.suite;
      Test_harden.suite;
      Test_profile.suite;
    ]
