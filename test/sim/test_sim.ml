(* Alcotest sizes its name column by the longest suite label, so
   renaming that label changes how every long test name prints. *)
let () =
  Alcotest.run "sim"
    [
      ("time", Test_time.suite);
      ("eventq", Test_eventq.suite);
      ("wheel-and-heap", Test_wheel.suite);
      ("engine", Test_engine.suite);
      ("sync", Test_sync.suite);
      ("stats-trace", Test_stats_trace.suite);
      ("properties", Test_props.suite);
    ]
