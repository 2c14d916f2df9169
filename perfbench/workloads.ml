(* The four workloads.  Each is driven from outside through the
   library's public entry points and measured in units of work called
   batches; every batch checks its own outputs.

   - paper-bulk: the paper's two-Firefly world, 2 caller threads,
     GetData(6000) — bulk results crossing the wire as 1514-byte
     fragments, so the byte layers work hard over a shallow event queue.
   - fleet-uniform-64: 64 nodes, 4 closed-loop Null() clients each —
     a deep event queue, 64 nodes of state and a large heap.
   - fleet-incast-64: 252 closed-loop Null() clients on 63 nodes calling
     node 0 — retransmit timers that fire, switch egress drops and
     duplicate suppression, paths no other workload runs.
   - socket-loopback: real UDP over 127.0.0.1, a client in this process
     against a server in a forked child, alternating Null() and
     MaxArg(1440). *)

module Time = Sim.Time
module Engine = Sim.Engine
module Snapshot = Obs.Metrics.Snapshot

(* Per-batch host-time limit: normal batches take at most a few seconds;
   one that runs past this has collapsed and counts as failed. *)
let batch_limit_s = 30.

(* Spans retained by a traced paper-world run; the rest are counted as
   dropped, so memory stays bounded while the span count stays exact. *)
let span_capacity = 100_000

type batch = {
  calls : int;  (** attempted *)
  failed : int;
  wall_s : float;
  alloc_words : float;
  promoted_words : float;
  errors : string list;
}

type layers = {
  l_metrics : (string * float) list;
  l_attempted : int;
  l_failed : int;
  l_errors : string list;
  l_frames : (int * float) list;  (** frame size in bytes, frames sent per call *)
}

type t = {
  setup : unit -> unit;
      (** construction plus warm-up; leaves the workload ready for
          [batch] *)
  batch : unit -> batch;
  layers : seconds:float -> layers;
  digest : unit -> string option;  (** the last simulated batch's output digest *)
  peak_heap_mb : unit -> float;  (** OCaml top heap, summed over the workload's processes *)
  finish : unit -> unit;
}

(* {1 Shared plumbing} *)

let measured ?(collect = true) f =
  if collect then Gc.full_major ();
  let g0 = Measure.gc_now () in
  let r, wall = Measure.timed f in
  (r, wall, g0, Measure.gc_now ())

let batch_of ~calls ~failed ~errors (wall, g0, g1) =
  {
    calls;
    failed;
    wall_s = wall;
    alloc_words = Measure.allocated g0 g1;
    promoted_words = Measure.promoted g0 g1;
    errors;
  }

let failure_text = function
  | Measure.Time_limit -> Printf.sprintf "ran past the %g s host-time limit" batch_limit_s
  | e -> Printexc.to_string e

let guarded f =
  match Measure.within ~seconds:batch_limit_s f with
  | r -> Ok r
  | exception e -> Error (failure_text e)

(* The digest every batch of a run must reproduce: the one recorded for
   this seed when there is one, else the first batch's.  Returns the
   check and the last digest seen. *)
let digest_checker ~recorded =
  let expected = ref recorded and last = ref None in
  let check d =
    last := Some d;
    match !expected with
    | None ->
      expected := Some d;
      []
    | Some e when e = d -> []
    | Some e -> [ Printf.sprintf "simulated digest %s differs from recorded %s" d e ]
  in
  (check, fun () -> !last)

(* Each set-up runs its warm-up on a seed of its own, derived from the
   workload seed, so the heap high-water mark read after set-up covers
   several differently seeded runs instead of one. *)
let setup_seed seed k = seed + (1_000_003 * k)

let per x calls = if calls = 0 then 0. else x /. float_of_int calls
let per_i x calls = per (float_of_int x) calls

let sum_rows (snap : Snapshot.t) keep =
  List.fold_left
    (fun acc (r : Snapshot.row) ->
      if keep r.Snapshot.name then
        match r.Snapshot.value with
        | Snapshot.Count n -> acc + n
        | Snapshot.Dist d -> acc + d.count
        | _ -> acc
      else acc)
    0 snap.Snapshot.rows

let named n name = name = n

(* The runtime's per-address-space counters, "rpc.s<space>.<what>". *)
let rpc_counter what name =
  String.starts_with ~prefix:"rpc." name && String.ends_with ~suffix:("." ^ what) name

let bump tbl k = Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))

(* [sizes] counts a sample of frames by size; scales it to [frames]
   sent in total, per call. *)
let frames_per_call sizes ~frames ~calls =
  let sampled = Hashtbl.fold (fun _ n acc -> acc + n) sizes 0 in
  Hashtbl.fold (fun size n acc -> (size, per_i frames calls *. per_i n sampled) :: acc) sizes []
  |> List.sort compare

(* Frames by size per call, from the controller transmit count and the
   size mix of the Packet_tx records still in the journal ring. *)
let frame_mix journal ~frames ~calls =
  let sizes = Hashtbl.create 4 in
  List.iter
    (fun (e : Obs.Journal.entry) ->
      match e.Obs.Journal.ev with Obs.Journal.Packet_tx { bytes } -> bump sizes bytes | _ -> ())
    (Obs.Journal.entries journal);
  frames_per_call sizes ~frames ~calls

let failed_layers calls e =
  { l_metrics = []; l_attempted = calls; l_failed = calls; l_errors = [ e ]; l_frames = [] }

(* GC pauses and collections over a measured stretch of [calls] calls. *)
let gc_layers ~calls ~wall ~(g0 : Measure.gc) ~(g1 : Measure.gc) ~paused =
  [
    ("gc.pause_frac", paused /. wall);
    ("gc.minor_collections_per_kcall", 1000. *. per_i (g1.minors - g0.minors) calls);
    ("gc.major_collections_per_kcall", 1000. *. per_i (g1.majors - g0.majors) calls);
  ]

(* The layer counts every simulated workload shares, read from the
   run's metrics registry and journal. *)
let sim_layers ~(obs : Obs.Ctx.t) ~at ~calls ~events ~wall ~g0 ~g1 ~paused =
  let snap = Snapshot.take obs.Obs.Ctx.metrics ~at in
  let frames = sum_rows snap (named "deqna.tx_frames") in
  let mix = frame_mix obs.Obs.Ctx.journal ~frames ~calls in
  let snapshot_ms = 1e3 *. Measure.median_time ~reps:5 (fun () -> Snapshot.take obs.Obs.Ctx.metrics ~at) in
  ( [
      ("sim.events_per_call", per_i events calls);
      ("sim.host_ns_per_event", per (wall *. 1e9) events);
      ("hw.link_frames_per_call", per_i frames calls);
      ( "hw.link_bytes_per_call",
        List.fold_left (fun acc (size, n) -> acc +. (float_of_int size *. n)) 0. mix );
      ("hw.interrupts_per_call", per_i (sum_rows snap (named "driver.interrupts")) calls);
      ("nub.wakeups_per_call", per_i (sum_rows snap (named "wakeup_latency_us")) calls);
      ("nub.pool_exhaustions", float_of_int (sum_rows snap (named "bufpool.exhaustions")));
      ( "nub.rx_dropped",
        float_of_int
          (sum_rows snap (fun n ->
               n = "driver.rx_dropped" || n = "deqna.rx_no_buffer" || n = "deqna.rx_overruns")) );
      ("rpc.retransmissions_per_call", per_i (sum_rows snap (rpc_counter "retransmissions")) calls);
      ("rpc.duplicates_per_call", per_i (sum_rows snap (rpc_counter "duplicates")) calls);
      ("rpc.busy_rejects", float_of_int (sum_rows snap (rpc_counter "busy_rejects")));
      ("obs.journal_records_per_call", per_i (Obs.Journal.total obs.Obs.Ctx.journal) calls);
      ("obs.snapshot_ms", snapshot_ms);
    ]
    @ gc_layers ~calls ~wall ~g0 ~g1 ~paused,
    mix )

(* What one run of a traced/untraced pair reports. *)
type twin = {
  t_calls : int;
  t_failed : int;
  t_events : int;
  t_spans : int;
  t_digest : string;
  t_errors : string list;
}

let failed_twin calls e =
  { t_calls = calls; t_failed = calls; t_events = 0; t_spans = 0; t_digest = ""; t_errors = [ e ] }

(* Alternates untraced and traced runs of [run] until [seconds] pass
   (at least one pair): the wall-time ratio, the span count and the
   tracing's extra allocation per event, plus a check that tracing left
   the simulated outputs unchanged. *)
let trace_pairs ~seconds run =
  let t0 = Measure.now_ns () in
  let ratios = ref [] and spans = ref [] and words = ref [] in
  let attempted = ref 0 and failed = ref 0 and errors = ref [] in
  let rec go () =
    let u, wu, a0, a1 = measured (fun () -> run ~trace:false) in
    let t, wt, b0, b1 = measured (fun () -> run ~trace:true) in
    let same = u.t_digest = t.t_digest in
    ratios := (wt /. wu) :: !ratios;
    spans := per_i t.t_spans t.t_calls :: !spans;
    words := per (Measure.allocated b0 b1 -. Measure.allocated a0 a1) t.t_events :: !words;
    attempted := !attempted + u.t_calls + t.t_calls;
    failed := !failed + u.t_failed + t.t_failed + if same then 0 else t.t_calls;
    errors :=
      !errors @ u.t_errors @ t.t_errors
      @
      if same then []
      else [ Printf.sprintf "tracing changed the simulated digest (%s -> %s)" u.t_digest t.t_digest ];
    if Measure.seconds_since t0 < seconds then go ()
  in
  go ();
  ( [
      ("obs.trace_overhead_frac", Measure.median !ratios);
      ("obs.spans_per_call", Measure.median !spans);
      ("obs.trace_alloc_words_per_event", Measure.median !words);
    ],
    !attempted,
    !failed,
    !errors )

(* {1 paper-bulk} *)

module Paper = struct
  let calls = 500
  let warmup_calls = 300
  let proc = Workload.Driver.Get_data 6000

  let digest (o : Workload.Driver.outcome) ~events =
    let b = Buffer.create 16384 in
    Printf.bprintf b "%d %d %d %d %.9f %.9f\n" o.calls (Time.to_ns o.elapsed)
      o.retransmissions events o.caller_busy_cpus o.server_busy_cpus;
    Array.iter (fun l -> Printf.bprintf b "%d\n" (Time.to_ns l)) o.latencies;
    Digest.to_hex (Digest.string (Buffer.contents b))

  (* One closed-loop run of [n] calls on a fresh world; [Ok] only if
     every call completed ([Workload.Driver.run] validates each
     result's bytes). *)
  let drive w n =
    guarded (fun () ->
        let o = Workload.Driver.run w ~threads:2 ~calls:n ~proc () in
        if Array.length o.Workload.Driver.latencies <> n then
          failwith
            (Printf.sprintf "%d of %d calls completed" (Array.length o.Workload.Driver.latencies) n);
        o)

  let world ?(trace = false) seed =
    let w = Workload.World.create ~seed () in
    if trace then begin
      let tr = Engine.trace w.Workload.World.eng in
      Sim.Trace.set_capacity tr (Some span_capacity);
      Sim.Trace.set_enabled tr true
    end;
    w

  let make ~seed ~recorded =
    let check, last_digest = digest_checker ~recorded in
    let setups = ref 0 in
    let setup () =
      incr setups;
      match drive (world (setup_seed seed !setups)) warmup_calls with
      | Ok _ -> ()
      | Error e -> failwith ("paper-bulk warm-up: " ^ e)
    in
    let batch () =
      let w = world seed in
      let r, wall, g0, g1 = measured (fun () -> drive w calls) in
      let failed, errors =
        match r with
        | Ok o ->
          let errs = check (digest o ~events:(Engine.events_executed w.Workload.World.eng)) in
          ((if errs = [] then 0 else calls), errs)
        | Error e -> (calls, [ e ])
      in
      batch_of ~calls ~failed ~errors (wall, g0, g1)
    in
    let layers ~seconds =
      let pauses = Measure.start_pauses () in
      let w = world seed in
      let p0 = Measure.paused_seconds pauses in
      let r, wall, g0, g1 = measured (fun () -> drive w calls) in
      let paused = Measure.paused_seconds pauses -. p0 in
      match r with
      | Error e ->
        failed_layers calls e
      | Ok o ->
        let eng = w.Workload.World.eng in
        let events = Engine.events_executed eng in
        let errs = check (digest o ~events) in
        let shared, mix =
          sim_layers ~obs:w.Workload.World.obs ~at:(Engine.now eng) ~calls ~events ~wall ~g0 ~g1
            ~paused
        in
        let run ~trace =
          let w = world ~trace seed in
          match drive w calls with
          | Ok o ->
            let eng = w.Workload.World.eng in
            let tr = Engine.trace eng in
            let events = Engine.events_executed eng in
            {
              t_calls = calls;
              t_failed = 0;
              t_events = events;
              t_spans = Sim.Trace.length tr + Sim.Trace.dropped tr;
              t_digest = digest o ~events;
              t_errors = [];
            }
          | Error e -> failed_twin calls e
        in
        let traced, t_attempted, t_failed, t_errs = trace_pairs ~seconds run in
        let us q = Time.to_us (Workload.Driver.percentile o q) in
        {
          l_metrics =
            shared @ traced
            @ [
                ( "hw.cpu0_util",
                  Hw.Cpu_set.cpu0_utilization
                    (Nub.Machine.cpus w.Workload.World.server)
                    ~upto:(Engine.now eng) );
                ("model.sim_p50_us", us 0.50);
                ("model.sim_p99_us", us 0.99);
                ("model.sim_elapsed_s", Time.to_sec o.Workload.Driver.elapsed);
              ];
          l_attempted = calls + t_attempted;
          l_failed = (if errs = [] then 0 else calls) + t_failed;
          l_errors = errs @ t_errs;
          l_frames = mix;
        }
    in
    { setup; batch; layers; digest = last_digest; peak_heap_mb = Measure.peak_heap_mb; finish = ignore }
end

(* {1 fleet-uniform-64 and fleet-incast-64} *)

module Fleet_w = struct
  module S = Fleet.Scenario

  let spec kind ~seed ~calls =
    {
      S.default with
      S.s_nodes = 64;
      s_clients = (match kind with S.Incast -> 252 | _ -> 256);
      s_calls = calls;
      s_kind = kind;
      s_seed = seed;
    }

  (* Full batches, and the smaller runs used for warm-up and for the
     traced/untraced pairs (a traced full batch would hold ~10^6 spans). *)
  let full_calls = function S.Incast -> 12_000 | _ -> 64 * 300
  let small_calls = function S.Incast -> 1_200 | _ -> 64 * 30

  let digest r = Digest.to_hex (Digest.string (S.render r))

  (* A run, its failed-call count and its invariant violations. *)
  let run ?trace spec =
    match guarded (fun () -> S.run ?trace spec) with
    | Error e -> Error e
    | Ok (r, a) ->
      let errs = match S.check r with Ok () -> [] | Error es -> es in
      Ok (r, a, r.S.r_failed, errs)

  let make kind ~seed ~recorded =
    let check, last_digest = digest_checker ~recorded in
    let full = spec kind ~seed ~calls:(full_calls kind) in
    let small = spec kind ~seed ~calls:(small_calls kind) in
    let setups = ref 0 in
    let setup () =
      incr setups;
      match run { small with S.s_seed = setup_seed seed !setups } with
      | Ok (_, _, 0, []) -> ()
      | Ok (_, _, f, es) ->
        failwith (Printf.sprintf "fleet warm-up: %d failed; %s" f (String.concat "; " es))
      | Error e -> failwith ("fleet warm-up: " ^ e)
    in
    let batch () =
      let calls = full.S.s_calls in
      let r, wall, g0, g1 = measured (fun () -> run full) in
      let failed, errors =
        match r with
        | Ok (r, _, failed, errs) ->
          let derrs = check (digest r) in
          ((if derrs = [] then failed else calls), errs @ derrs)
        | Error e -> (calls, [ e ])
      in
      batch_of ~calls ~failed ~errors (wall, g0, g1)
    in
    let layers ~seconds =
      let calls = full.S.s_calls in
      let pauses = Measure.start_pauses () in
      let p0 = Measure.paused_seconds pauses in
      let r, wall, g0, g1 = measured (fun () -> run full) in
      let paused = Measure.paused_seconds pauses -. p0 in
      match r with
      | Error e ->
        failed_layers calls e
      | Ok (r, a, failed, errs) ->
        let derrs = check (digest r) in
        let at = Time.add Time.zero (Time.us_f r.S.r_elapsed_us) in
        let shared, mix =
          sim_layers ~obs:a.S.a_obs ~at ~calls ~events:r.S.r_events ~wall ~g0 ~g1 ~paused
        in
        let create_ms =
          1e3 *. Measure.median_time ~reps:3 (fun () -> Fleet.Cluster.create ~seed ~nodes:64 ())
        in
        let render_ms = 1e3 *. Measure.median_time ~reps:5 (fun () -> S.render r) in
        let pair ~trace =
          let n = small.S.s_calls in
          match run ~trace small with
          | Ok (r, a, f, es) ->
            {
              t_calls = n;
              t_failed = f;
              t_events = r.S.r_events;
              t_spans = List.length a.S.a_spans;
              t_digest = digest r;
              t_errors = es;
            }
          | Error e -> failed_twin n e
        in
        let traced, t_attempted, t_failed, t_errs = trace_pairs ~seconds pair in
        {
          l_metrics =
            shared @ traced
            @ [
                ( "hw.cpu0_util",
                  List.fold_left (fun acc n -> Float.max acc n.S.nr_cpu0_util) 0. r.S.r_nodes );
                ("fleet.cluster_create_ms", create_ms);
                ("fleet.switch_forwarded_per_call", per_i r.S.r_switch_forwarded calls);
                ("fleet.egress_drops_per_call", per_i r.S.r_incast_drops calls);
                ("fleet.render_ms", render_ms);
                ("model.sim_p50_us", r.S.r_fleet_p50_us);
                ("model.sim_p99_us", r.S.r_fleet_p99_us);
                ("model.sim_elapsed_s", r.S.r_elapsed_us /. 1e6);
              ];
          l_attempted = calls + t_attempted;
          l_failed = (if derrs = [] then failed else calls) + t_failed;
          l_errors = errs @ derrs @ t_errs;
          l_frames = mix;
        }
    in
    { setup; batch; layers; digest = last_digest; peak_heap_mb = Measure.peak_heap_mb; finish = ignore }
end

(* {1 socket-loopback}

   The server runs in a child process forked for each set-up; this
   process never starts a system thread.  With the server thread in the
   same process, the client and server threads handed OCaml's runtime
   lock to each other on every datagram, and under OCaml 5.1.1 a run
   now and then aborted with "Fatal error: allocation failure during
   minor GC".  In the child, the main thread sleeps on the request pipe
   while the server thread works, so the lock changes hands about once
   per batch.  The child answers counter requests over the pipe, and
   the client side checks them after every batch. *)

module Socket_w = struct
  module U = Realnet.Udp_socket
  module Ti = Workload.Test_interface

  let pairs_per_batch = 100
  let warmup_pairs = 2000
  let payload_count = 16

  (* Seeded MaxArg arguments.  The first byte of each is its index, so
     the server can tell which one a call carried and compare every
     byte with it. *)
  let payloads ~seed =
    let rng = Sim.Rng.create ~seed in
    Array.init payload_count (fun k ->
        let b = Kernels.random_bytes rng Ti.buffer_bytes in
        Bytes.set b 0 (Char.chr k);
        b)

  (* {2 The server process} *)

  type server = {
    pid : int;
    requests : out_channel;  (** 'q' asks for the counters; 'x' or EOF stops the server *)
    replies : in_channel;
    port : int;
  }

  (* What the child reports on request: its MaxArg checks, the server's
     rejected datagrams, and its own GC counters. *)
  type counters = { valid : int; corrupt : int; rejected : int; gc : Measure.gc; top_heap_words : float }

  let print_counters valid corrupt rejected =
    let g = Measure.gc_now () in
    Printf.sprintf "%d %d %d %.17g %.17g %.17g %d %d %d\n" valid corrupt rejected g.Measure.minor
      g.Measure.promoted g.Measure.major g.Measure.minors g.Measure.majors
      (Gc.quick_stat ()).Gc.top_heap_words

  let scan_counters line =
    Scanf.sscanf line "%d %d %d %f %f %f %d %d %d"
      (fun valid corrupt rejected minor promoted major minors majors top ->
        {
          valid;
          corrupt;
          rejected;
          gc = { Measure.minor; promoted; major; minors; majors };
          top_heap_words = float_of_int top;
        })

  (* The child: starts the server, reports its port, then answers
     counter requests until it is told to stop or the parent's end of
     the pipe closes.  Never returns. *)
  let serve args ~requests ~replies =
    let valid = Atomic.make 0 and corrupt = Atomic.make 0 in
    let impls = Realnet.Crossval.test_impls () in
    impls.(Ti.null_idx) <- (fun _ -> []);
    impls.(Ti.max_arg_idx) <-
      (fun a ->
        (match a with
        | [ Rpc.Marshal.V_bytes b ]
          when Bytes.length b > 0 && Bytes.equal b args.(Char.code (Bytes.get b 0) mod payload_count)
          ->
          Atomic.incr valid
        | _ -> Atomic.incr corrupt);
        []);
    let say s =
      output_string replies s;
      flush replies
    in
    (try
       match U.start_server ~intf:Ti.interface ~impls () with
       | Error e -> say ("error " ^ e ^ "\n")
       | Ok server ->
         Fun.protect
           ~finally:(fun () -> U.stop_server server)
           (fun () ->
             say (Printf.sprintf "port %d\n" (U.server_port server));
             let rec loop () =
               match input_char requests with
               | 'q' ->
                 say (print_counters (Atomic.get valid) (Atomic.get corrupt) (U.server_rejected server));
                 loop ()
               | _ | (exception End_of_file) -> ()
             in
             loop ())
     with _ -> ());
    Unix._exit 0

  let rec wait pid =
    match Unix.waitpid [] pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait pid
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()

  let stop s =
    (try
       output_char s.requests 'x';
       flush s.requests
     with Sys_error _ -> ());
    close_out_noerr s.requests;
    close_in_noerr s.replies;
    wait s.pid

  let start args =
    (* A dead child must show as a failed write here, not kill us. *)
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    flush_all ();
    let req_r, req_w = Unix.pipe ~cloexec:true () in
    let rep_r, rep_w = Unix.pipe ~cloexec:true () in
    match Unix.fork () with
    | 0 ->
      Unix.close req_w;
      Unix.close rep_r;
      serve args ~requests:(Unix.in_channel_of_descr req_r)
        ~replies:(Unix.out_channel_of_descr rep_w)
    | pid -> (
      Unix.close req_r;
      Unix.close rep_w;
      let s =
        {
          pid;
          requests = Unix.out_channel_of_descr req_w;
          replies = Unix.in_channel_of_descr rep_r;
          port = 0;
        }
      in
      match String.split_on_char ' ' (input_line s.replies) with
      | [ "port"; p ] -> Ok { s with port = int_of_string p }
      | line ->
        stop s;
        Error ("server process: " ^ String.concat " " line)
      | exception End_of_file ->
        stop s;
        Error "server process exited before reporting its port")

  let counters s =
    output_char s.requests 'q';
    flush s.requests;
    scan_counters (input_line s.replies)

  (* {2 The client side} *)

  type conn = {
    server : server;
    client : U.client;
    captured : U.client;  (** same server, with the capture hook attached *)
    args : Bytes.t array;
    mutable tx_frames : int;
    wire_sizes : (int, int) Hashtbl.t;  (** frames sent or received by [captured], by size *)
    mutable maxarg_ok : int;  (** MaxArg calls that returned normally since the last check *)
    mutable valid_seen : int;  (** the server's count of intact MaxArg arguments then *)
    mutable child_gc : Measure.gc;  (** the child's GC counters then *)
    mutable child_top_heap_words : float;
  }

  let connect args =
    let ( let* ) = Result.bind in
    if not (U.available ()) then Error "loopback UDP sockets are unavailable"
    else
      let* server = start args in
      let sizes = Hashtbl.create 4 in
      let conn = ref None in
      let capture ~dir b =
        match !conn with
        | Some c ->
          if dir = `Tx then c.tx_frames <- c.tx_frames + 1;
          bump sizes (Bytes.length b)
        | None -> ()
      in
      let port = server.port in
      match
        ( U.connect ~thread:1 ~port ~intf:Ti.interface (),
          U.connect ~capture ~thread:2 ~port ~intf:Ti.interface () )
      with
      | Ok client, Ok captured ->
        let c =
          {
            server;
            client;
            captured;
            args;
            tx_frames = 0;
            wire_sizes = sizes;
            maxarg_ok = 0;
            valid_seen = 0;
            child_gc = Measure.gc_zero;
            child_top_heap_words = 0.;
          }
        in
        conn := Some c;
        Ok c
      | r1, r2 ->
        let close_ok = function Ok cl -> U.close cl | Error _ -> () in
        close_ok r1;
        close_ok r2;
        stop server;
        Error (match (r1, r2) with Error e, _ | _, Error e -> e | _ -> "connect failed")

  let close c =
    U.close c.client;
    U.close c.captured;
    stop c.server

  (* Every MaxArg call that returned normally since the last check must
     have reached the server intact; the ones that did not count as
     failed.  The server must have rejected no datagram.  Also returns
     the child's GC counters from the last check and from this one. *)
  let check c =
    let { valid; corrupt; rejected; gc; top_heap_words } = counters c.server in
    let missing = max 0 (c.maxarg_ok - (valid - c.valid_seen)) in
    let child_gc0 = c.child_gc in
    c.maxarg_ok <- 0;
    c.valid_seen <- valid;
    c.child_gc <- gc;
    c.child_top_heap_words <- top_heap_words;
    let errors =
      (if missing > 0 then
         [ Printf.sprintf "%d MaxArg calls returned without their argument arriving intact" missing ]
       else [])
      @ (if corrupt > 0 then [ Printf.sprintf "server received %d corrupted MaxArg arguments" corrupt ]
         else [])
      @ if rejected > 0 then [ Printf.sprintf "server rejected %d datagrams" rejected ] else []
    in
    (missing, rejected, errors, (child_gc0, gc))

  (* One call; [lat] receives its round trip in ns.  [k] < 0 is a
     Null(), otherwise MaxArg with the k-th seeded argument. *)
  let call c client ~k ~lat =
    let proc_idx, args =
      if k < 0 then (Ti.null_idx, []) else (Ti.max_arg_idx, [ Rpc.Marshal.V_bytes c.args.(k) ])
    in
    let t0 = Measure.now_ns () in
    let ok =
      match U.call client ~proc_idx ~args with
      | [] -> true
      | _ -> false
      | exception U.Call_failed _ -> false
    in
    lat (Int64.to_float (Int64.sub (Measure.now_ns ()) t0));
    if ok && k >= 0 then c.maxarg_ok <- c.maxarg_ok + 1;
    ok

  (* [n] Null/MaxArg pairs; returns the failed-call count.  The first
     failed call ends the run and the calls not made count as failed,
     so a dead server costs one call's retransmission budget, not [2n]
     of them. *)
  let pairs c client n ~null_lat ~maxarg_lat =
    let rec go i =
      if i = n then 0
      else if not (call c client ~k:(-1) ~lat:null_lat) then 2 * (n - i)
      else if not (call c client ~k:(i mod payload_count) ~lat:maxarg_lat) then (2 * (n - i)) - 1
      else go (i + 1)
    in
    go 0

  let no_lat (_ : float) = ()

  let make ~seed =
    let args = payloads ~seed in
    let conn = ref None in
    let finish () =
      Option.iter close !conn;
      conn := None
    in
    let current () = match !conn with Some c -> c | None -> failwith "socket-loopback: not set up" in
    let setup () =
      finish ();
      match connect args with
      | Error e -> failwith ("socket-loopback: " ^ e)
      | Ok c -> (
        conn := Some c;
        let f = pairs c c.client warmup_pairs ~null_lat:no_lat ~maxarg_lat:no_lat in
        match check c with
        | 0, _, [], _ when f = 0 -> ()
        | m, _, errs, _ ->
          failwith
            (String.concat "; "
               (Printf.sprintf "socket-loopback warm-up: %d calls failed" (f + m) :: errs)))
    in
    let batch () =
      let c = current () in
      let failed, wall, g0, g1 =
        measured ~collect:false (fun () ->
            pairs c c.client pairs_per_batch ~null_lat:no_lat ~maxarg_lat:no_lat)
      in
      let missing, _, errors, (c0, c1) = check c in
      batch_of ~calls:(2 * pairs_per_batch) ~failed:(failed + missing) ~errors
        (wall, Measure.add_gc g0 c0, Measure.add_gc g1 c1)
    in
    let layers ~seconds =
      let c = current () in
      let _, _, _, (_, c0) = check c in
      let pauses = Measure.start_pauses () in
      (* Half the time: per-call latencies on the plain client. *)
      let null_l = ref [] and maxarg_l = ref [] in
      let push r x = r := (x /. 1e3) :: !r in
      let p0 = Measure.paused_seconds pauses in
      let g0 = Measure.gc_now () in
      let t0 = Measure.now_ns () in
      let failed = ref 0 and calls = ref 0 in
      while Measure.seconds_since t0 < seconds /. 2. do
        failed :=
          !failed
          + pairs c c.client pairs_per_batch ~null_lat:(push null_l) ~maxarg_lat:(push maxarg_l);
        calls := !calls + (2 * pairs_per_batch)
      done;
      let wall = Measure.seconds_since t0 in
      let g1 = Measure.gc_now () in
      let paused = Measure.paused_seconds pauses -. p0 in
      let m1, _, _, (_, c1) = check c in
      (* The other half: the same batches with and without the capture
         hook attached. *)
      let t1 = Measure.now_ns () in
      let ratios = ref [] and t_calls = ref 0 and tx0 = c.tx_frames in
      while Measure.seconds_since t1 < seconds /. 2. || !ratios = [] do
        let run client =
          snd
            (Measure.timed (fun () ->
                 failed :=
                   !failed + pairs c client pairs_per_batch ~null_lat:no_lat ~maxarg_lat:no_lat))
        in
        let plain = run c.client in
        let traced = run c.captured in
        ratios := (traced /. plain) :: !ratios;
        t_calls := !t_calls + (2 * pairs_per_batch)
      done;
      let m2, rejected, errors, _ = check c in
      let pct l q = Measure.percentile (Measure.sorted !l) q in
      let tx = c.tx_frames - tx0 in
      {
        l_metrics =
          [
            ("obs.trace_overhead_frac", Measure.median !ratios);
            ("realnet.null_p50_us", pct null_l 0.50);
            ("realnet.null_p99_us", pct null_l 0.99);
            ("realnet.maxarg_p50_us", pct maxarg_l 0.50);
            ("realnet.maxarg_p99_us", pct maxarg_l 0.99);
            ("realnet.tx_frames_per_call", per_i tx !t_calls);
            ("realnet.server_rejected", float_of_int rejected);
          ]
          @ gc_layers ~calls:!calls ~wall ~g0:(Measure.add_gc g0 c0) ~g1:(Measure.add_gc g1 c1)
              ~paused;
        l_attempted = !calls + (2 * !t_calls);
        l_failed = !failed + m1 + m2;
        l_errors = errors;
        l_frames =
          frames_per_call c.wire_sizes
            ~frames:(Hashtbl.fold (fun _ n acc -> acc + n) c.wire_sizes 0)
            ~calls:!t_calls;
      }
    in
    let peak_heap_mb () =
      Measure.peak_heap_mb ()
      +. match !conn with Some c -> Measure.words_mb c.child_top_heap_words | None -> 0.
    in
    { setup; batch; layers; digest = (fun () -> None); peak_heap_mb; finish }
end

let names = [ "paper-bulk"; "fleet-uniform-64"; "fleet-incast-64"; "socket-loopback" ]

let make name ~seed ~recorded =
  match name with
  | "paper-bulk" -> Some (Paper.make ~seed ~recorded)
  | "fleet-uniform-64" -> Some (Fleet_w.make Fleet.Scenario.Uniform ~seed ~recorded)
  | "fleet-incast-64" -> Some (Fleet_w.make Fleet.Scenario.Incast ~seed ~recorded)
  | "socket-loopback" -> Some (Socket_w.make ~seed)
  | _ -> None
