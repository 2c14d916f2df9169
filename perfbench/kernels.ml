(* Layer kernels: each one times a single public function of one layer
   on inputs shaped like what the workloads put through it — 74-byte
   frames (every Null call and every acknowledgement), 1514-byte frames
   (GetData(6000) result fragments, MaxArg(1440) calls), 1440-byte
   MaxArg arguments, and event queues as shallow as the paper world's
   and as deep as a 64-node fleet's.  Payload bytes and event delays
   come from the workload seed. *)

module Time = Sim.Time
module Engine = Sim.Engine

(* Median over [reps] repetitions of the per-operation cost, each
   repetition looping long enough (about [rep_s]) to swamp clock
   granularity. *)
let ns_per_op ?(reps = 7) ?(rep_s = 0.004) f =
  let loop n =
    let (), dt =
      Measure.timed (fun () ->
          for _ = 1 to n do
            f ()
          done)
    in
    dt
  in
  let rec calibrate n = if loop n >= rep_s || n >= 1 lsl 24 then n else calibrate (2 * n) in
  let n = calibrate 1 in
  Measure.median (List.init reps (fun _ -> loop n *. 1e9 /. float_of_int n))

let random_bytes rng n = Bytes.init n (fun _ -> Char.chr (Sim.Rng.int rng 256))

let header =
  {
    Rpc.Proto.ptype = Rpc.Proto.Call;
    please_ack = false;
    no_frag_ack = false;
    secured = false;
    activity =
      {
        Rpc.Proto.Activity.caller_ip = Realnet.Udp_socket.caller_endpoint.Rpc.Frames.ip;
        caller_space = 1;
        thread = 1;
      };
    seq = 1;
    server_space = 1;
    interface_id = 7l;
    proc_idx = Workload.Test_interface.max_arg_idx;
    frag_idx = 0;
    frag_count = 1;
    data_len = 0;
    checksum = 0;
  }

let build timing payload =
  Rpc.Frames.build timing ~src:Realnet.Udp_socket.caller_endpoint
    ~dst:Realnet.Udp_socket.server_endpoint ~hdr:header ~payload ~payload_pos:0
    ~payload_len:(Bytes.length payload)

(* Host ns per event of the closure-free scheduling path with [depth]
   event chains pending at once: each fired event schedules its
   successor a seeded 50..149 ns later. *)
let engine_ns_per_event rng ~depth =
  let delays = Array.init 256 (fun _ -> Time.ns (50 + Sim.Rng.int rng 100)) in
  let eng = Engine.create () in
  let fn = ref (-1) in
  fn :=
    Engine.register_handler eng (fun remaining chain ->
        if remaining > 0 then
          Engine.schedule_fn eng
            ~after:delays.((remaining + chain) land 255)
            ~fn:!fn ~a:(remaining - 1) ~b:chain);
  let round steps =
    for chain = 0 to depth - 1 do
      Engine.schedule_fn eng ~after:Time.zero_span ~fn:!fn ~a:steps ~b:chain
    done;
    let e0 = Engine.events_executed eng in
    let (), dt = Measure.timed (fun () -> Engine.run eng) in
    dt *. 1e9 /. float_of_int (Engine.events_executed eng - e0)
  in
  ignore (round 4);
  let steps = max 4 (262_144 / depth) in
  Measure.median (List.init 5 (fun _ -> round steps))

(* Words allocated per event when callers schedule closures instead of
   registered handlers — the cold path's price. *)
let closure_alloc_words_per_event () =
  let eng = Engine.create () in
  let rec tick remaining () =
    if remaining > 0 then Engine.schedule eng ~after:(Time.ns 100) (tick (remaining - 1))
  in
  let round steps =
    for _ = 1 to 64 do
      Engine.schedule eng (tick steps)
    done;
    Engine.run eng
  in
  round 64;
  let e0 = Engine.events_executed eng in
  let w0 = Gc.minor_words () in
  round 4096;
  (Gc.minor_words () -. w0) /. float_of_int (Engine.events_executed eng - e0)

let run ~seed =
  let rng = Sim.Rng.create ~seed in
  let timing = Realnet.Udp_socket.timing () in
  let p74 = build timing Bytes.empty in
  let p1514 = build timing (random_bytes rng Workload.Test_interface.buffer_bytes) in
  assert (Bytes.length p74 = 74 && Bytes.length p1514 = 1514);
  let arg = random_bytes rng Workload.Test_interface.buffer_bytes in
  let proc = Workload.Test_interface.interface.Rpc.Idl.procs.(Workload.Test_interface.max_arg_idx) in
  let values = [ Rpc.Marshal.V_bytes arg ] in
  let encoded =
    let w = Wire.Bytebuf.Writer.create 2048 in
    Rpc.Marshal.encode_args w Rpc.Marshal.In_call_packet proc values;
    Wire.Bytebuf.Writer.contents w
  in
  let packet = Bytes.create 1514 in
  let checksum b () = ignore (Sys.opaque_identity (Wire.Checksum.checksum b ~pos:0 ~len:(Bytes.length b))) in
  let parse b () = ignore (Sys.opaque_identity (Rpc.Frames.parse timing b)) in
  let hist = Obs.Metrics.Histogram.create () in
  let samples = Array.init 1024 (fun _ -> Float.exp (Sim.Rng.float rng 9.)) in
  let next = ref 0 in
  [
    ("wire.checksum_ns.74B", ns_per_op (checksum p74));
    ("wire.checksum_ns.1514B", ns_per_op (checksum p1514));
    ( "rpc.frames_build_ns.1514B",
      ns_per_op (fun () -> ignore (Sys.opaque_identity (build timing arg))) );
    ("rpc.frames_parse_ns.74B", ns_per_op (parse p74));
    ("rpc.frames_parse_ns.1514B", ns_per_op (parse p1514));
    ( "rpc.marshal_encode_ns.1440B",
      ns_per_op (fun () ->
          Rpc.Marshal.encode_args
            (Wire.Bytebuf.Writer.over packet ~pos:0)
            Rpc.Marshal.In_call_packet proc values) );
    ( "rpc.marshal_decode_ns.1440B",
      ns_per_op (fun () ->
          ignore
            (Sys.opaque_identity
               (Rpc.Marshal.decode_args (Wire.Bytebuf.Reader.of_bytes encoded)
                  Rpc.Marshal.In_call_packet proc))) );
    ("sim.flat_ns_per_event.d64", engine_ns_per_event rng ~depth:64);
    ("sim.flat_ns_per_event.d4096", engine_ns_per_event rng ~depth:4096);
    ("sim.closure_alloc_words_per_event", closure_alloc_words_per_event ());
    ( "obs.histogram_observe_ns",
      ns_per_op (fun () ->
          Obs.Metrics.Histogram.observe hist samples.(!next land 1023);
          incr next) );
  ]
