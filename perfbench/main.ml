(* The benchmark: one workload per process.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 sets the workload up five times (the median is setup_s),
   then runs timed batches for S seconds and reports the end-to-end
   metrics.  --trace 1 runs the per-layer measurements instead: counts
   from an untraced batch, alternating untraced/traced runs for the
   tracing overhead, and the layer kernels.  Every batch checks its
   outputs; the last stdout line is the JSON result.  Run it through
   run.py, which builds it first (see README.md). *)

let end_to_end =
  [
    ("calls_per_s", "1/s");
    ("setup_s", "s");
    ("peak_heap_mb", "MB");
    ("alloc_words_per_call", "words");
    ("promoted_words_per_call", "words");
  ]

(* Every per-layer metric; a workload that does not exercise a layer
   reports 0 for it. *)
let per_layer =
  [
    ("sim.events_per_call", "count");
    ("sim.host_ns_per_event", "ns");
    ("sim.flat_ns_per_event.d64", "ns");
    ("sim.flat_ns_per_event.d4096", "ns");
    ("sim.closure_alloc_words_per_event", "words");
    ("hw.link_frames_per_call", "count");
    ("hw.link_bytes_per_call", "bytes");
    ("hw.interrupts_per_call", "count");
    ("hw.cpu0_util", "frac");
    ("nub.wakeups_per_call", "count");
    ("nub.pool_exhaustions", "count");
    ("nub.rx_dropped", "count");
    ("rpc.retransmissions_per_call", "count");
    ("rpc.duplicates_per_call", "count");
    ("rpc.busy_rejects", "count");
    ("rpc.frames_build_ns.1514B", "ns");
    ("rpc.frames_parse_ns.74B", "ns");
    ("rpc.frames_parse_ns.1514B", "ns");
    ("rpc.marshal_encode_ns.1440B", "ns");
    ("rpc.marshal_decode_ns.1440B", "ns");
    ("wire.checksum_ns.74B", "ns");
    ("wire.checksum_ns.1514B", "ns");
    ("fleet.cluster_create_ms", "ms");
    ("fleet.switch_forwarded_per_call", "count");
    ("fleet.egress_drops_per_call", "count");
    ("fleet.render_ms", "ms");
    ("obs.journal_records_per_call", "count");
    ("obs.histogram_observe_ns", "ns");
    ("obs.snapshot_ms", "ms");
    ("obs.spans_per_call", "count");
    ("obs.trace_overhead_frac", "ratio");
    ("obs.trace_alloc_words_per_event", "words");
    ("gc.pause_frac", "frac");
    ("gc.minor_collections_per_kcall", "count");
    ("gc.major_collections_per_kcall", "count");
    ("realnet.null_p50_us", "us");
    ("realnet.null_p99_us", "us");
    ("realnet.maxarg_p50_us", "us");
    ("realnet.maxarg_p99_us", "us");
    ("realnet.tx_frames_per_call", "count");
    ("realnet.server_rejected", "count");
    ("model.sim_p50_us", "us");
    ("model.sim_p99_us", "us");
    ("model.sim_elapsed_s", "s");
    ("error_rate", "frac");
  ]

let setups = 5
let digests_file = Filename.concat "perfbench" "digests.txt"

(* Recorded digests: lines "workload seed hex". *)
let recorded_digest ~workload ~seed =
  match open_in digests_file with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec find () =
          match input_line ic with
          | exception End_of_file -> None
          | line -> (
            match String.split_on_char ' ' (String.trim line) with
            | [ w; s; d ] when w = workload && int_of_string_opt s = Some seed -> Some d
            | _ -> find ())
        in
        find ())

(* Shortest decimal that reads back as the same float. *)
let json_float f =
  if not (Float.is_finite f) then "0"
  else
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let result_line ~correct ~attempted ~failed metrics =
  let metric (name, unit, v) = Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_float v) unit in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed
    (String.concat ", " (List.map metric metrics))

let run_e2e (w : Workloads.t) ~seconds =
  let setup_s = Measure.median_time ~reps:setups w.Workloads.setup in
  Gc.full_major ();
  let t0 = Measure.now_ns () in
  let first = w.Workloads.batch () in
  (* The heap high-water mark after set-up and one batch: later batches
     of a deterministic workload only add fragmentation noise to it. *)
  let peak_heap_mb = w.Workloads.peak_heap_mb () in
  let rec go acc =
    let b = w.Workloads.batch () in
    let acc = b :: acc in
    if Measure.seconds_since t0 >= seconds || b.Workloads.errors <> [] then List.rev acc else go acc
  in
  let batches = if first.Workloads.errors <> [] then [ first ] else go [ first ] in
  let sum f = List.fold_left (fun acc b -> acc +. f b) 0. batches in
  let attempted = List.fold_left (fun acc b -> acc + b.Workloads.calls) 0 batches in
  let failed = List.fold_left (fun acc b -> acc + b.Workloads.failed) 0 batches in
  let completed = float_of_int (attempted - failed) in
  Printf.printf "batches: %d, %d calls each\n" (List.length batches)
    (List.hd batches).Workloads.calls;
  let metrics =
    [
      (* The lower quartile of the per-batch rates: on a shared host the
         fastest batches come in bursts whose share varies from run to
         run, which moves the median but not the lower quartile. *)
      ( "calls_per_s",
        Measure.percentile
          (Measure.sorted
             (List.map
                (fun b ->
                  float_of_int (b.Workloads.calls - b.Workloads.failed) /. b.Workloads.wall_s)
                batches))
          0.25 );
      ("setup_s", setup_s);
      ("peak_heap_mb", peak_heap_mb);
      ("alloc_words_per_call", sum (fun b -> b.Workloads.alloc_words) /. completed);
      ("promoted_words_per_call", sum (fun b -> b.Workloads.promoted_words) /. completed);
    ]
  in
  (metrics, attempted, failed, List.concat_map (fun b -> b.Workloads.errors) batches)

let frame_ops frames =
  let at size = try List.assoc size frames with Not_found -> 0. in
  [
    ("wire.checksum_ns.74B", at 74);
    ("wire.checksum_ns.1514B", at 1514);
    ("rpc.frames_build_ns.1514B", at 1514);
    ("rpc.frames_parse_ns.74B", at 74);
    ("rpc.frames_parse_ns.1514B", at 1514);
  ]

let run_layers (w : Workloads.t) ~seed ~seconds =
  w.Workloads.setup ();
  let l = w.Workloads.layers ~seconds in
  let kernels = Kernels.run ~seed in
  (* Each frame kernel beside the number of frames of its size the
     workload sends per call (each is built once and parsed once). *)
  List.iter
    (fun (name, per_call) ->
      Printf.printf "kernel %-28s %10.1f ns x %6.2f frames/call = %8.2f us/call\n" name
        (List.assoc name kernels) per_call
        (List.assoc name kernels *. per_call /. 1e3))
    (frame_ops l.Workloads.l_frames);
  let metrics = l.Workloads.l_metrics @ kernels in
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name per_layer) then failwith ("unlisted per-layer metric " ^ name))
    metrics;
  let attempted = max 1 l.Workloads.l_attempted in
  let error_rate = float_of_int l.Workloads.l_failed /. float_of_int attempted in
  ( List.map
      (fun (name, _) ->
        if name = "error_rate" then (name, error_rate)
        else (name, Option.value ~default:0. (List.assoc_opt name metrics)))
      per_layer,
    attempted,
    l.Workloads.l_failed,
    l.Workloads.l_errors )

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME " ^ String.concat " | " Workloads.names);
      ("--seed", Arg.Set_int seed, "N workload seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measured seconds (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or per-layer metrics (1)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let recorded = recorded_digest ~workload:!workload ~seed:!seed in
  match Workloads.make !workload ~seed:!seed ~recorded with
  | None ->
    prerr_endline ("unknown workload " ^ !workload ^ "; one of: " ^ String.concat ", " Workloads.names);
    exit 2
  | Some _ when !trace <> 0 && !trace <> 1 ->
    prerr_endline "--trace takes 0 or 1";
    exit 2
  | Some w ->
    Printf.printf "workload %s seed %d seconds %g trace %d ocaml %s\n%!" !workload !seed !seconds
      !trace Sys.ocaml_version;
    let units = if !trace = 0 then end_to_end else per_layer in
    let metrics, attempted, failed, errors =
      match
        Fun.protect ~finally:w.Workloads.finish (fun () ->
            if !trace = 0 then run_e2e w ~seconds:!seconds
            else run_layers w ~seed:!seed ~seconds:!seconds)
      with
      | r -> r
      | exception e -> ([], 1, 1, [ Printexc.to_string e ])
    in
    (match (w.Workloads.digest (), recorded) with
    | Some d, None -> Printf.printf "digest %s %d %s (no recorded digest for this seed)\n" !workload !seed d
    | Some d, Some r ->
      Printf.printf "digest %s %d %s (%s)\n" !workload !seed d
        (if d = r then "matches the recorded one" else "DIFFERS from the recorded " ^ r)
    | None, _ -> ());
    List.iter (fun e -> Printf.printf "CHECK FAILED: %s\n" e) errors;
    let metrics = List.map (fun (name, v) -> (name, List.assoc name units, v)) metrics in
    List.iter (fun (name, unit, v) -> Printf.printf "%-36s %16.6g %s\n" name v unit) metrics;
    let correct = errors = [] && metrics <> [] in
    print_endline (result_line ~correct ~attempted ~failed metrics);
    exit (if correct then 0 else 1)
