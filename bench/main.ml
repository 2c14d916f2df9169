(* The benchmark harness.

   Default mode regenerates every table of the paper's evaluation
   (Tables I-XII, the §4.2 improvement estimates, and the §5
   experiments) by running the simulator at full call counts, printing
   each as paper-vs-measured.

   [--quick] uses reduced call counts (same tables, more noise).
   [--only ID] runs a single experiment (see [--list]).
   [--jobs N] regenerates independent experiments on N domains
   (default: the machine's recommended domain count); [--jobs 1] is the
   exact serial path with byte-identical output.
   [--microbench] additionally runs Bechamel microbenchmarks of the
   genuinely computational kernels (checksums, marshalling, header
   codecs, one simulated Null() call), measured in real wall-clock
   time, plus an engine throughput probe (events/sec, allocated
   bytes/event) and a fleet-scenario throughput probe (a 4-node incast
   in one engine).
   [--json FILE] (implies --microbench) persists the microbenchmark
   numbers as JSON — the checked-in BENCH_9.json baseline. *)

let say fmt = Printf.printf (fmt ^^ "\n%!")

let run_experiment ~transport ~quick (e : Experiments.Registry.entry) =
  say "";
  say "### %s — %s" e.Experiments.Registry.id e.Experiments.Registry.title;
  let t0 = Unix.gettimeofday () in
  let tables = e.Experiments.Registry.run ~transport ~quick ~metrics:false in
  List.iter (fun t -> print_string (Report.Table.render t)) tables;
  say "  (computed in %.1fs of wall-clock)" (Unix.gettimeofday () -. t0)

(* The parallel path renders off the main domain and prints afterwards,
   in registry order — the tables come out identical to the serial
   sweep, only the wall-clock annotations (inherently run-to-run noise)
   can differ. *)
let render_experiment ~transport ~quick (e : Experiments.Registry.entry) =
  let t0 = Unix.gettimeofday () in
  let tables = e.Experiments.Registry.run ~transport ~quick ~metrics:false in
  let body = String.concat "" (List.map Report.Table.render tables) in
  (body, Unix.gettimeofday () -. t0)

let run_experiments ~transport ~quick ~jobs entries =
  if jobs <= 1 then List.iter (run_experiment ~transport ~quick) entries
  else
    let rendered = Par.Pool.map_list ~jobs (render_experiment ~transport ~quick) entries in
    List.iter2
      (fun (e : Experiments.Registry.entry) (body, dt) ->
        say "";
        say "### %s — %s" e.Experiments.Registry.id e.Experiments.Registry.title;
        print_string body;
        say "  (computed in %.1fs of wall-clock)" dt)
      entries rendered

(* {1 Bechamel microbenchmarks of the real computational kernels} *)

let microbench_tests () =
  let open Bechamel in
  let packet n =
    let b = Bytes.create n in
    for i = 0 to n - 1 do
      Bytes.set b i (Char.chr ((i * 31) land 0xff))
    done;
    b
  in
  let p74 = packet 74 and p1514 = packet 1514 in
  let checksum b =
    Staged.stage (fun () -> Wire.Checksum.checksum b ~pos:0 ~len:(Bytes.length b))
  in
  let proc =
    Rpc.Idl.proc "bench"
      [
        Rpc.Idl.arg "n" Rpc.Idl.T_int;
        Rpc.Idl.arg ~mode:Rpc.Idl.Var_in "data" (Rpc.Idl.T_var_bytes 1440);
      ]
  in
  let values = [ Rpc.Marshal.V_int 42l; Rpc.Marshal.V_bytes (packet 1400) ] in
  let encoded =
    let w = Wire.Bytebuf.Writer.create 2048 in
    Rpc.Marshal.encode_args w Rpc.Marshal.In_call_packet proc values;
    Wire.Bytebuf.Writer.contents w
  in
  let timing = Hw.Timing.create Hw.Config.default in
  let ep st ip = { Rpc.Frames.mac = Net.Mac.of_station st; ip = Net.Ipv4.Addr.of_string ip } in
  let hdr =
    {
      Rpc.Proto.ptype = Rpc.Proto.Call;
      please_ack = false;
      no_frag_ack = false;
      secured = false;
      activity =
        {
          Rpc.Proto.Activity.caller_ip = Net.Ipv4.Addr.of_string "16.0.0.1";
          caller_space = 1;
          thread = 1;
        };
      seq = 1;
      server_space = 1;
      interface_id = 7l;
      proc_idx = 0;
      frag_idx = 0;
      frag_count = 1;
      data_len = 0;
      checksum = 0;
    }
  in
  let frame =
    Rpc.Frames.build timing ~src:(ep 1 "16.0.0.1") ~dst:(ep 2 "16.0.0.2") ~hdr
      ~payload:(packet 1400) ~payload_pos:0 ~payload_len:1400
  in
  Test.make_grouped ~name:"kernels"
    [
      Test.make ~name:"checksum-74B" (checksum p74);
      Test.make ~name:"checksum-1514B" (checksum p1514);
      Test.make ~name:"marshal-encode-1404B"
        (Staged.stage (fun () ->
             let w = Wire.Bytebuf.Writer.create 2048 in
             Rpc.Marshal.encode_args w Rpc.Marshal.In_call_packet proc values));
      Test.make ~name:"marshal-decode-1404B"
        (Staged.stage (fun () ->
             Rpc.Marshal.decode_args
               (Wire.Bytebuf.Reader.of_bytes encoded)
               Rpc.Marshal.In_call_packet proc));
      Test.make ~name:"frame-build-1514B"
        (Staged.stage (fun () ->
             Rpc.Frames.build timing ~src:(ep 1 "16.0.0.1") ~dst:(ep 2 "16.0.0.2") ~hdr
               ~payload:(packet 1400) ~payload_pos:0 ~payload_len:1400));
      Test.make ~name:"frame-parse-1514B"
        (Staged.stage (fun () -> Rpc.Frames.parse timing frame));
      Test.make ~name:"simulated-null-rpc"
        (Staged.stage (fun () ->
             let w = Workload.World.create ~idle_load:false () in
             ignore (Workload.Driver.measure_single_call w ~proc:Workload.Driver.Null ())));
    ]

(* Engine throughput: 64 interleaved event chains, half a million
   events, measured in real time and real allocation through the
   closure-free flat path ([register_handler] + [schedule_fn]).  A
   warmup burst populates the node freelist first, so the measured
   window is the steady state — which allocates nothing at all:
   [Gc.allocated_bytes] counts every word the mutator allocates, and
   the schedule/pop/dispatch cycle touches only recycled nodes. *)
let measure_engine_throughput () =
  let chains = 64 and steps = 8192 in
  let eng = Sim.Engine.create () in
  let fn_ref = ref (-1) in
  let fn =
    Sim.Engine.register_handler eng (fun remaining _ ->
        if remaining > 0 then
          Sim.Engine.schedule_fn eng ~after:(Sim.Time.ns 100) ~fn:!fn_ref ~a:(remaining - 1) ~b:0)
  in
  fn_ref := fn;
  for _ = 1 to chains do
    Sim.Engine.schedule_fn eng ~after:Sim.Time.zero_span ~fn ~a:256 ~b:0
  done;
  Sim.Engine.run eng;
  (* Best of three timed batches (each re-seeds the same chains on the
     same warmed engine): the batch is ~100 ms, short enough for one
     preemption to cost 10% of the reading. *)
  let sample () =
    let warm_events = Sim.Engine.events_executed eng in
    for _ = 1 to chains do
      Sim.Engine.schedule_fn eng ~after:Sim.Time.zero_span ~fn ~a:steps ~b:0
    done;
    let a0 = Gc.allocated_bytes () in
    let t0 = Unix.gettimeofday () in
    Sim.Engine.run eng;
    let dt = Unix.gettimeofday () -. t0 in
    let alloc = Gc.allocated_bytes () -. a0 in
    let events = Sim.Engine.events_executed eng - warm_events in
    (float_of_int events /. dt, alloc /. float_of_int events)
  in
  let best ((e1, _) as a) ((e2, _) as b) = if e2 > e1 then b else a in
  best (sample ()) (best (sample ()) (sample ()))

(* The same chains through the closure API — the cost a caller pays for
   not registering a handler: a closure plus the [Some] wrapper of
   [~after] per event.  Kept as a benchmark so the gap (and any
   regression of the cold path) stays visible. *)
let measure_engine_closure_alloc () =
  let chains = 64 and steps = 4096 in
  let eng = Sim.Engine.create () in
  let rec tick remaining () =
    if remaining > 0 then Sim.Engine.schedule eng ~after:(Sim.Time.ns 100) (tick (remaining - 1))
  in
  for _ = 1 to chains do
    Sim.Engine.schedule eng (tick 256)
  done;
  Sim.Engine.run eng;
  let warm_events = Sim.Engine.events_executed eng in
  for _ = 1 to chains do
    Sim.Engine.schedule eng (tick steps)
  done;
  let a0 = Gc.allocated_bytes () in
  Sim.Engine.run eng;
  let alloc = Gc.allocated_bytes () -. a0 in
  let events = Sim.Engine.events_executed eng - warm_events in
  alloc /. float_of_int events

(* Fleet throughput: a fixed 4-node 200-call incast scenario — many
   machines, a switch, generators and per-node pools all live in one
   engine — measured in real time and real allocation.  Events/sec here
   is the number that says whether fleet-scale studies are affordable;
   the simulated calls/sec is deterministic and doubles as a drift
   canary.  A whole run is only ~10 ms of wall-clock, so one sample is
   at the mercy of a single scheduler hiccup: an untimed warmup run
   first, then the best of three timed runs (each run is a fresh,
   deterministic cluster, so they are true repeats). *)
let measure_fleet_throughput () =
  let spec =
    {
      Fleet.Scenario.default with
      Fleet.Scenario.s_clients = 16;
      s_calls = 200;
      s_kind = Fleet.Scenario.Incast;
    }
  in
  let sample () =
    let a0 = Gc.allocated_bytes () in
    let t0 = Unix.gettimeofday () in
    let report, _ = Fleet.Scenario.run spec in
    let dt = Unix.gettimeofday () -. t0 in
    let alloc = Gc.allocated_bytes () -. a0 in
    let events = report.Fleet.Scenario.r_events in
    ( float_of_int events /. dt,
      events,
      report.Fleet.Scenario.r_rate_per_sec,
      alloc /. float_of_int events )
  in
  ignore (sample ());
  let best a b =
    let e1, _, _, _ = a and e2, _, _, _ = b in
    if e2 > e1 then b else a
  in
  best (sample ()) (best (sample ()) (sample ()))

(* Tracing overhead: the same sequential Null-RPC workload with span
   recording disabled vs. enabled — in real time and real allocation.
   The spans-off run is the cost everyone pays (it must stay
   indistinguishable from a build without tracing: every recording
   entry point short-circuits on one flag); the spans-on run is what
   [firefly breakdown] pays for a fully-attributed window.

   Both arms execute the identical event mix (same world, same calls,
   same seed); an untimed warmup world runs first and each arm is
   measured three times with the best taken, so one cold-start or a
   GC hiccup in either arm cannot invert the comparison — which is
   exactly how an earlier baseline recorded tracing as a speedup. *)
let measure_tracing_overhead () =
  let calls = 200 in
  let run ~traced =
    let w = Workload.World.create ~idle_load:false () in
    let tr = Sim.Engine.trace w.Workload.World.eng in
    Sim.Trace.set_enabled tr traced;
    let a0 = Gc.allocated_bytes () in
    let t0 = Unix.gettimeofday () in
    ignore (Workload.Driver.run w ~threads:1 ~calls ~proc:Workload.Driver.Null ());
    let dt = Unix.gettimeofday () -. t0 in
    let alloc = Gc.allocated_bytes () -. a0 in
    let events = Sim.Engine.events_executed w.Workload.World.eng in
    (float_of_int events /. dt, alloc /. float_of_int events, Sim.Trace.length tr)
  in
  ignore (run ~traced:false);
  ignore (run ~traced:true);
  let best a b =
    let e1, _, _ = a and e2, _, _ = b in
    if e2 > e1 then b else a
  in
  let rec sample n acc_off acc_on =
    if n = 0 then (acc_off, acc_on)
    else sample (n - 1) (best acc_off (run ~traced:false)) (best acc_on (run ~traced:true))
  in
  let off, on = sample 2 (run ~traced:false) (run ~traced:true) in
  (off, on)

(* Real loopback round trips over the socket backend — wall-clock
   kernels that only exist when the environment has working sockets. *)
let run_socket_bench () =
  say "";
  say "### loopback-socket round trips (real wall-clock)";
  if not (Realnet.Udp_socket.available ()) then
    say "  loopback UDP sockets unavailable: skipped"
  else begin
    let intf = Workload.Test_interface.interface in
    match Realnet.Udp_socket.start_server ~intf ~impls:(Realnet.Crossval.test_impls ()) () with
    | Error e -> say "  cannot start loopback server (%s): skipped" e
    | Ok server ->
      Fun.protect ~finally:(fun () -> Realnet.Udp_socket.stop_server server) @@ fun () ->
      (match
         Realnet.Udp_socket.connect ~port:(Realnet.Udp_socket.server_port server) ~intf ()
       with
      | Error e -> say "  cannot connect (%s): skipped" e
      | Ok c ->
        Fun.protect ~finally:(fun () -> Realnet.Udp_socket.close c) @@ fun () ->
        let time_us ~iters f =
          let t0 = Unix.gettimeofday () in
          for _ = 1 to iters do
            f ()
          done;
          (Unix.gettimeofday () -. t0) /. float_of_int iters *. 1e6
        in
        let iters = 500 in
        for _ = 1 to 10 do
          ignore (Realnet.Udp_socket.call c ~proc_idx:Workload.Test_interface.null_idx ~args:[])
        done;
        let null_us =
          time_us ~iters (fun () ->
              ignore
                (Realnet.Udp_socket.call c ~proc_idx:Workload.Test_interface.null_idx ~args:[]))
        in
        let arg = Workload.Test_interface.pattern Workload.Test_interface.buffer_bytes in
        let maxarg_us =
          time_us ~iters (fun () ->
              ignore
                (Realnet.Udp_socket.call c ~proc_idx:Workload.Test_interface.max_arg_idx
                   ~args:[ Rpc.Marshal.V_bytes arg ]))
        in
        say "  %-32s %12.1f us/call" "socket-null-rpc" null_us;
        say "  %-32s %12.1f us/call" "socket-maxarg-rpc" maxarg_us)
  end

let collect_microbench () =
  let open Bechamel in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] (microbench_tests ()) in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name v acc -> (name, v) :: acc) results [] in
  List.filter_map
    (fun (name, v) ->
      match Analyze.OLS.estimates v with
      | Some [ est ] -> Some (name, est)
      | _ -> None)
    (List.sort compare rows)

type micro_results = {
  mr_kernels : (string * float) list;
  mr_engine_eps : float;  (* flat path *)
  mr_engine_ape : float;  (* alloc bytes/event, flat path — 0 in steady state *)
  mr_closure_ape : float;  (* legacy closure path alloc bytes/event *)
  mr_off : float * float;  (* spans-off events/sec, alloc/event *)
  mr_on : float * float * int;  (* spans-on events/sec, alloc/event, spans *)
  mr_fleet : float * int * float * float;  (* eps, events, sim calls/s, alloc/event *)
}

let run_microbench () =
  say "";
  say "### microbenchmarks (real wall-clock, Bechamel OLS ns/iter)";
  let kernels = collect_microbench () in
  List.iter (fun (name, est) -> say "  %-32s %12.1f ns/iter" name est) kernels;
  let engine_eps, engine_ape = measure_engine_throughput () in
  say "  %-32s %12.0f events/sec" "engine-throughput" engine_eps;
  say "  %-32s %12.1f bytes alloc/event" "engine-allocation" engine_ape;
  let closure_ape = measure_engine_closure_alloc () in
  say "  %-32s %12.1f bytes alloc/event" "engine-closure-path" closure_ape;
  let (off_eps, off_ape, _), (on_eps, on_ape, on_spans) = measure_tracing_overhead () in
  say "  %-32s %12.0f events/sec  %8.1f bytes alloc/event" "workload-spans-off" off_eps off_ape;
  say "  %-32s %12.0f events/sec  %8.1f bytes alloc/event  (%d spans)" "workload-spans-on"
    on_eps on_ape on_spans;
  say "  %-32s %11.1f%% events/sec, %+.1f bytes alloc/event" "tracing-overhead"
    (100. *. ((off_eps /. on_eps) -. 1.))
    (on_ape -. off_ape);
  let fleet_eps, fleet_events, fleet_rate, fleet_ape = measure_fleet_throughput () in
  say "  %-32s %12.0f events/sec  (%d events, %.0f simulated calls/sec, %.1f bytes alloc/event)"
    "fleet-incast-4x200" fleet_eps fleet_events fleet_rate fleet_ape;
  {
    mr_kernels = kernels;
    mr_engine_eps = engine_eps;
    mr_engine_ape = engine_ape;
    mr_closure_ape = closure_ape;
    mr_off = (off_eps, off_ape);
    mr_on = (on_eps, on_ape, on_spans);
    mr_fleet = (fleet_eps, fleet_events, fleet_rate, fleet_ape);
  }

let json_of_results ~quick r =
  let open Obs.Json in
  let null_rpc =
    match List.assoc_opt "kernels/simulated-null-rpc" r.mr_kernels with
    | Some ns -> Num ns
    | None -> Null
  in
  let off_eps, off_ape = r.mr_off in
  let on_eps, on_ape, on_spans = r.mr_on in
  let fleet_eps, fleet_events, fleet_rate, fleet_ape = r.mr_fleet in
  Obj
    [
      ("schema", Str "firefly-bench/5");
      ("quick", Bool quick);
      ("kernels_ns_per_iter", Obj (List.map (fun (n, v) -> (n, Num v)) r.mr_kernels));
      ("simulated_null_rpc_ns", null_rpc);
      ("engine_events_per_sec", Num r.mr_engine_eps);
      ("engine_alloc_bytes_per_event", Num r.mr_engine_ape);
      ("engine_closure_alloc_bytes_per_event", Num r.mr_closure_ape);
      ( "tracing_overhead",
        Obj
          [
            ("spans_off_events_per_sec", Num off_eps);
            ("spans_off_alloc_bytes_per_event", Num off_ape);
            ("spans_on_events_per_sec", Num on_eps);
            ("spans_on_alloc_bytes_per_event", Num on_ape);
            ("spans_recorded", Num (float_of_int on_spans));
            ("slowdown_frac", Num ((off_eps /. on_eps) -. 1.));
          ] );
      ( "fleet_incast",
        Obj
          [
            ("events_per_sec", Num fleet_eps);
            ("events", Num (float_of_int fleet_events));
            ("sim_calls_per_sec", Num fleet_rate);
            ("alloc_bytes_per_event", Num fleet_ape);
          ] );
    ]

let write_json ~file ~quick results =
  let oc = open_out file in
  output_string oc (Obs.Json.to_string (json_of_results ~quick results));
  output_char oc '\n';
  close_out oc;
  say "  (microbenchmark JSON written to %s)" file

(* {1 Performance-regression guard}

   [--baseline FILE] compares this run's engine and fleet numbers
   against a checked-in baseline JSON (BENCH_10.json): more than 20%
   throughput loss, or any alloc-bytes-per-event increase (beyond a 1
   byte measurement tolerance), fails the run.  Throughput gains and
   alloc improvements pass silently — the guard is a ratchet, not a
   pin. *)
let check_baseline ~file r =
  let contents =
    let ic = open_in file in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match Obs.Json.parse contents with
  | Error e -> failwith (Printf.sprintf "baseline %s: unparseable (%s)" file e)
  | Ok doc ->
    let num path j =
      let rec walk j = function
        | [] -> Obs.Json.num j
        | k :: rest -> Option.bind (Obs.Json.member k j) (fun v -> walk v rest)
      in
      walk j path
    in
    let failures = ref [] in
    let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
    let check_throughput name baseline current =
      match baseline with
      | None -> ()
      | Some b when b > 0. ->
        let floor = 0.8 *. b in
        if current < floor then
          fail "%s: %.0f events/sec < 80%% of baseline %.0f" name current b
      | Some _ -> ()
    in
    let check_alloc name baseline current =
      match baseline with
      | None -> ()
      | Some b ->
        if current > b +. 1.0 then
          fail "%s: %.1f bytes alloc/event > baseline %.1f" name current b
    in
    let fleet_eps, _, _, _ = r.mr_fleet in
    check_throughput "engine_events_per_sec" (num [ "engine_events_per_sec" ] doc) r.mr_engine_eps;
    check_throughput "fleet_incast.events_per_sec"
      (num [ "fleet_incast"; "events_per_sec" ] doc)
      fleet_eps;
    check_alloc "engine_alloc_bytes_per_event"
      (num [ "engine_alloc_bytes_per_event" ] doc)
      r.mr_engine_ape;
    (match !failures with
    | [] -> say "  (baseline %s: within regression bounds)" file
    | fs ->
      List.iter (fun m -> say "  baseline REGRESSION — %s" m) (List.rev fs);
      Stdlib.exit 1)

let () =
  let quick = ref false in
  let micro = ref false in
  let only = ref [] in
  let list_only = ref false in
  let jobs = ref (Par.Pool.default_jobs ()) in
  let json = ref None in
  let baseline = ref None in
  let transport = ref "sim" in
  let args =
    [
      ("--quick", Arg.Set quick, "reduced call counts");
      ( "--transport",
        Arg.Symbol
          ([ "sim"; "local"; "socket" ], fun s -> transport := s),
        " bind-time transport for transport-sensitive tables (sim = simulated Ethernet, \
         local = same-machine shared memory); socket additionally times real loopback-UDP \
         round trips" );
      ("--microbench", Arg.Set micro, "also run Bechamel kernel microbenchmarks");
      ("--only", Arg.String (fun s -> only := s :: !only), "ID run a single experiment");
      ("--list", Arg.Set list_only, "list experiment ids");
      ( "--jobs",
        Arg.Set_int jobs,
        "N worker domains for table regeneration (default: recommended domain count; 1 = serial)"
      );
      ( "--json",
        Arg.String (fun s -> json := Some s),
        "FILE write microbenchmark results to FILE as JSON (implies --microbench)" );
      ( "--baseline",
        Arg.String (fun s -> baseline := Some s),
        "FILE fail (exit 1) on >20% engine/fleet throughput loss or any alloc-per-event \
         increase vs the baseline JSON (implies --microbench)" );
    ]
  in
  Arg.parse args (fun _ -> ()) "firefly-rpc benchmark harness";
  if !json <> None || !baseline <> None then micro := true;
  if !list_only then
    List.iter
      (fun e -> say "%-14s %s" e.Experiments.Registry.id e.Experiments.Registry.title)
      Experiments.Registry.all
  else begin
    say "Firefly RPC reproduction — regenerating the paper's tables%s"
      (if !quick then " (quick mode)" else "");
    let entries =
      match !only with
      | [] -> Experiments.Registry.all
      | ids ->
        List.filter_map
          (fun id ->
            match Experiments.Registry.find id with
            | Some e -> Some e
            | None ->
              say "unknown experiment %S (try --list)" id;
              None)
          (List.rev ids)
    in
    let registry_transport : Experiments.Registry.transport =
      match !transport with "local" -> `Local | _ -> `Auto
    in
    run_experiments ~transport:registry_transport ~quick:!quick ~jobs:!jobs entries;
    if !transport = "socket" then run_socket_bench ();
    if !micro then begin
      let results = run_microbench () in
      (match !json with
      | Some file -> write_json ~file ~quick:!quick results
      | None -> ());
      match !baseline with
      | Some file -> check_baseline ~file results
      | None -> ()
    end
  end
