module Engine = Sim.Engine
module Time = Sim.Time
module Cpu_set = Hw.Cpu_set
module Timing = Hw.Timing
module Machine = Nub.Machine
module Activity = Proto.Activity
module W = Wire.Bytebuf.Writer
module R = Wire.Bytebuf.Reader
module V = Wire.Bytebuf.View

type impl = Cpu_set.ctx -> Marshal.value list -> Marshal.value list

type export_rec = {
  ex_intf : Idl.interface;
  ex_impls : impl array;
  ex_auth : Secure.key option;
}

(* Per-(calling thread) state kept by a server: the duplicate-
   suppression sequence number and the retained result packets for
   retransmission (§3.2: "in the case of a server thread it is the last
   result packet"). *)
type server_act = {
  mutable sa_last_seq : int;  (** highest completed call *)
  mutable sa_working : bool;
  mutable sa_cur_seq : int;
  mutable sa_retained : (Proto.header * V.t) list;
  mutable sa_reply_to : Frames.endpoint option;
  mutable sa_retained_bufs : int;
  mutable sa_generation : int;  (** bumps cancel pending retain GC *)
}

type local_call = {
  lc_intf_id : int32;
  lc_proc : int;
  lc_payload : Bytes.t;
  mutable lc_reply : (Bytes.t, string) result option;
  lc_done : Nub.Waiter.t;
}

type local_worker = { lw_waiter : Nub.Waiter.t; lw_inbox : local_call Queue.t }

type t = {
  rt_node : Node.t;
  rt_space : int;
  rt_exports : (int32, export_rec) Hashtbl.t;
  rt_acts : (Activity.t, server_act) Hashtbl.t;
  rt_pending_slow : Node.delivery Queue.t;
  rt_local_pool : local_worker Queue.t;
  rt_local_pending : local_call Queue.t;
  (* Scratch buffer for marshalling payloads: stubs encode into this
     reusable buffer and copy out exactly the bytes written, instead of
     allocating a worst-case-bound buffer per call.  Safe without a
     lock: encoding performs no engine effects, so simulated threads
     never interleave inside it. *)
  mutable rt_scratch : Bytes.t;
  mutable rt_next_thread : int;
  mutable rt_exec_probe : (Activity.t -> int -> unit) option;
  c_calls : Sim.Stats.Counter.t;
  c_served : Sim.Stats.Counter.t;
  c_retrans : Sim.Stats.Counter.t;
  c_dups : Sim.Stats.Counter.t;
  c_busy : Sim.Stats.Counter.t;
}

let node t = t.rt_node
let machine t = Node.machine t.rt_node
let space t = t.rt_space
let timing t = Node.timing t.rt_node
let engine t = Machine.engine (machine t)
let retain_gc_after = Time.sec 5

let create nd ~space =
  let t =
    {
      rt_node = nd;
      rt_space = space;
      rt_exports = Hashtbl.create 8;
      rt_acts = Hashtbl.create 32;
      rt_pending_slow = Queue.create ();
      rt_local_pool = Queue.create ();
      rt_local_pending = Queue.create ();
      rt_scratch = Bytes.create 2048;
      rt_next_thread = 1;
      rt_exec_probe = None;
      c_calls = Sim.Stats.Counter.create ();
      c_served = Sim.Stats.Counter.create ();
      c_retrans = Sim.Stats.Counter.create ();
      c_dups = Sim.Stats.Counter.create ();
      c_busy = Sim.Stats.Counter.create ();
    }
  in
  (* Packets the datalink demultiplexer could not hand to a parked
     worker queue here; a worker drains the backlog before re-parking. *)
  Node.set_slow_sink nd ~space (fun delivery -> Queue.push delivery t.rt_pending_slow);
  let reg = (Machine.obs (machine t)).Obs.Ctx.metrics in
  let site = Machine.name (machine t) in
  let metric what = Printf.sprintf "rpc.s%d.%s" space what in
  Obs.Metrics.Registry.register_counter reg ~site ~name:(metric "calls") t.c_calls;
  Obs.Metrics.Registry.register_counter reg ~site ~name:(metric "served") t.c_served;
  Obs.Metrics.Registry.register_counter reg ~site ~name:(metric "retransmissions") t.c_retrans;
  Obs.Metrics.Registry.register_counter reg ~site ~name:(metric "duplicates") t.c_dups;
  Obs.Metrics.Registry.register_counter reg ~site ~name:(metric "busy_rejects") t.c_busy;
  t

let journal t ev =
  let m = machine t in
  Obs.Ctx.record (Machine.obs m) ~at:(Engine.now (Machine.engine m)) ~site:(Machine.name m) ev

(* {1 Clients} *)

type client = { cl_rt : t; cl_act : Activity.t; mutable cl_seq : int }

let new_client t =
  let thread = t.rt_next_thread in
  t.rt_next_thread <- thread + 1;
  {
    cl_rt = t;
    cl_act = { Activity.caller_ip = Machine.ip (machine t); caller_space = t.rt_space; thread };
    cl_seq = 0;
  }

let client_activity c = c.cl_act

(* {1 Common helpers} *)

let cat_rt = "runtime"
let charge_rt ctx ~label span = Cpu_set.charge ctx ~cat:cat_rt ~label span

(* Blocking packet-buffer allocation: the fast path assumes buffers are
   free; under exhaustion a thread polls until one returns.  Time spent
   polling is buffer-pool queueing delay, recorded against the waiting
   call. *)
let alloc_bufs t ctx n =
  let pool = Machine.pool (machine t) in
  for _ = 1 to n do
    if not (Nub.Bufpool.try_alloc pool) then begin
      let eng = engine t in
      let start_at = Engine.now eng in
      while not (Nub.Bufpool.try_alloc pool) do
        Cpu_set.yield_cpu ctx (fun () -> Engine.delay eng (Time.us 100))
      done;
      Sim.Trace.add ~track:"pool" ~kind:Sim.Trace.Queue ~call:(Cpu_set.trace_call ctx)
        (Engine.trace eng) ~cat:"queue" ~label:"Wait for packet buffer"
        ~site:(Machine.name (machine t)) ~start_at ~stop_at:(Engine.now eng)
    end
  done

let free_bufs t n =
  let pool = Machine.pool (machine t) in
  for _ = 1 to n do
    Nub.Bufpool.free pool
  done

let payload_bound p =
  List.fold_left (fun acc a -> acc + Idl.wire_size_bound a.Idl.ty) 0 p.Idl.args

let encode_payload t p dir values bound =
  let bound = max bound 16 in
  if Bytes.length t.rt_scratch < bound then
    t.rt_scratch <- Bytes.create (max bound (2 * Bytes.length t.rt_scratch));
  let w = W.over t.rt_scratch ~pos:0 in
  Marshal.encode_args w dir p values;
  W.contents w

(* {1 Server dispatch (shared by both transports)}

   Returns the (possibly sealed) result payload and whether it is
   sealed.  [secured]/[seq] describe the incoming call for the §7
   authenticated-call hooks: a keyed export rejects unsealed remote
   calls, verifies and deciphers sealed ones, and seals its results
   under the same key.  [trusted] is set by the same-machine transport,
   where the shared-memory path is inside the trust boundary. *)

let charge_security t ctx ~bytes =
  charge_rt ctx ~label:"Security transform" (Secure.cost (timing t) ~bytes)

let dispatch t ctx ~intf_id ~proc_idx ~payload ~secured ~seq ~trusted :
    (Bytes.t * bool, string) result =
  let tmg = timing t in
  match Hashtbl.find_opt t.rt_exports intf_id with
  | None -> Error (Printf.sprintf "no interface %ld exported from space %d" intf_id t.rt_space)
  | Some ex ->
    if proc_idx < 0 || proc_idx >= Array.length ex.ex_intf.Idl.procs then
      Error (Printf.sprintf "bad procedure index %d" proc_idx)
    else begin
      let unsealed =
        match ex.ex_auth, secured with
        | None, false -> Ok payload
        | None, true -> Error "secured call to an unkeyed interface"
        | Some _, false ->
          if trusted then Ok payload else Error "authentication required"
        | Some key, true -> (
          charge_security t ctx ~bytes:(V.length payload);
          (* Unsealing necessarily materialises the ciphertext; the
             common unsecured path stays zero-copy. *)
          match Secure.unseal key ~seq (V.to_bytes payload) with
          | Ok plain -> Ok (V.of_bytes plain)
          | Error e -> Error e)
      in
      match unsealed with
      | Error e -> Error e
      | Ok payload -> (
        let p = ex.ex_intf.Idl.procs.(proc_idx) in
        match
          try Ok (Marshal.decode_args (R.of_view payload) Marshal.In_call_packet p)
          with Rpc_error.Rpc e -> Error (Rpc_error.to_string e)
        with
        | Error e -> Error e
        | Ok in_values -> (
          Marshal.charge_args tmg ctx Marshal.Server_side Marshal.In_call_packet p in_values;
          charge_rt ctx ~label:"Server stub (call & return)" (Timing.server_stub tmg);
          match
            (* A buggy implementation must not take the worker thread
               down: any exception becomes an error reply to the caller. *)
            try Ok (ex.ex_impls.(proc_idx) ctx in_values) with
            | Rpc_error.Rpc e -> Error (Rpc_error.to_string e)
            | Stack_overflow | Out_of_memory -> Error "server resource exhaustion"
            | e -> Error ("implementation raised: " ^ Printexc.to_string e)
          with
          | Error e -> Error e
          | Ok outs -> (
            try
              let full = Marshal.merge_outs p in_values outs in
              let result = encode_payload t p Marshal.In_result_packet full (payload_bound p) in
              (* VAR OUT results are written in place by the server
                 procedure — no server-side copy (§2.2); Value/Text
                 server marshalling costs are charged here. *)
              Marshal.charge_args tmg ctx Marshal.Server_side Marshal.In_result_packet p full;
              Sim.Stats.Counter.incr t.c_served;
              match ex.ex_auth with
              | Some key when secured ->
                charge_security t ctx ~bytes:(Bytes.length result);
                Ok (Secure.seal key ~seq result, true)
              | Some _ | None -> Ok (result, false)
            with Rpc_error.Rpc e -> Error (Rpc_error.to_string e))))
    end

(* {1 Bindings} *)

type backoff = { multiplier : float; max_interval : Time.span }

type call_options = {
  retransmit_after : Time.span;
  max_retries : int;
  backoff : backoff option;
}

let default_options t =
  {
    retransmit_after = (Machine.config (machine t)).Hw.Config.retransmit_after;
    max_retries = 10;
    backoff = None;
  }

(* The retransmission interval sequence of [opts]: fixed at
   [retransmit_after] by default (the paper's 600 ms), or growing by
   [multiplier] per silent period up to [max_interval] when backoff is
   enabled. *)
let next_interval opts cur =
  match opts.backoff with
  | None -> opts.retransmit_after
  | Some b ->
    if b.multiplier < 1. then invalid_arg "Runtime: backoff multiplier must be >= 1";
    let grown = Time.span_scale b.multiplier cur in
    if Time.span_compare grown b.max_interval > 0 then b.max_interval else grown

type ether_binding = {
  be_dst : Frames.endpoint;
  be_space : int;
  be_intf : Idl.interface;
  be_id : int32;
  be_opts : call_options;
  be_auth : Secure.key option;
}

(* A DECNet session: one connection, established lazily, calls
   serialized on it (the custom packet-exchange protocol exists exactly
   because this general-purpose path is heavier, §3.1). *)
type decnet_binding = {
  dn_ep : Decnet.endpoint;
  dn_peer : Net.Mac.t;
  dn_space : int;
  dn_intf : Idl.interface;
  dn_id : int32;
  dn_lock : Sim.Mutex.t;
  mutable dn_conn : Decnet.conn option;
  mutable dn_next_call : int;
}

type local_binding = { bl_server : t; bl_intf : Idl.interface }

(* The transport implementation modules live below, after the call
   machinery each one wraps; [bind_ether]/[bind_local]/[bind_decnet]
   pack them into {!binding}s there. *)

(* {1 The shared Starter prologue}

   Every transport starts a call the same way: bounds-check the
   procedure, count the call, open a causal trace for it (everything the
   calling thread charges until the result returns — and, via frame
   registration and wakeup propagation, everything the server and both
   controllers do on its behalf — attributes to this id; a no-op id of
   [Sim.Trace.no_call] flows through when tracing is off), and charge
   the calling stub.  The transport-specific Starter/Transporter/Ender
   body runs under that trace id. *)

let start_call client ctx intf ~proc_idx body =
  let t = client.cl_rt in
  let tmg = timing t in
  if proc_idx < 0 || proc_idx >= Array.length intf.Idl.procs then
    Rpc_error.fail (Rpc_error.Bad_procedure proc_idx);
  let p = intf.Idl.procs.(proc_idx) in
  Sim.Stats.Counter.incr t.c_calls;
  let prev_call = Cpu_set.trace_call ctx in
  Cpu_set.set_trace_call ctx (Sim.Trace.new_call (Engine.trace (engine t)));
  Fun.protect ~finally:(fun () -> Cpu_set.set_trace_call ctx prev_call) @@ fun () ->
  charge_rt ctx ~label:"Calling stub (call & return)" (Timing.calling_stub tmg);
  body t tmg p

(* {1 The Ethernet transport — caller side} *)

let max_payload t = Timing.max_payload_bytes (timing t)

let fragment_count t len =
  let m = max_payload t in
  if len = 0 then 1 else (len + m - 1) / m

let header ?(please_ack = false) ?(no_frag_ack = false) ?(secured = false) ~act ~seq
    ~space:server_space ~intf_id ~proc_idx ~frag_idx ~frag_count ptype =
  {
    Proto.ptype;
    please_ack;
    no_frag_ack;
    secured;
    activity = act;
    seq;
    server_space;
    interface_id = intf_id;
    proc_idx;
    frag_idx;
    frag_count;
    data_len = 0;
    checksum = 0;
  }

exception Give_up of string

(* Wait on [entry], feeding deliveries to [handle]; when
   [retransmit_after] elapses without progress, run [on_timeout] (a
   retransmission), giving up after [max_retries] such periods.
   [handle] returns [`Done v], [`Continue] (irrelevant packet), or
   [`Progress] (the peer is alive: reset the deadline and the retry
   counter).

   The retransmission deadline is wall-clock, NOT reset by irrelevant
   deliveries: if it were, a peer spamming unrelated packets (e.g. its
   own retransmissions) would suppress ours forever — a livelock the
   protocol property tests caught. *)
let await t ctx entry ~opts ~on_timeout ~handle =
  let eng = engine t in
  let retries = ref 0 in
  let interval = ref opts.retransmit_after in
  let deadline = ref (Time.add (Engine.now eng) !interval) in
  let rec loop () =
    match Node.Entry.inbox_pop entry with
    | Some d -> (
      match handle d with
      | `Done v -> v
      | `Continue -> loop ()
      | `Progress ->
        retries := 0;
        interval := opts.retransmit_after;
        deadline := Time.add (Engine.now eng) !interval;
        loop ())
    | None ->
      let now = Engine.now eng in
      if Time.(now < !deadline) then begin
        (match
           Node.wait_timeout t.rt_node entry ctx ~timeout:(Time.diff !deadline now)
         with
        | `Ok | `Timeout -> ());
        loop ()
      end
      else begin
        incr retries;
        if !retries > opts.max_retries then raise (Give_up "no response from server")
        else begin
          Sim.Stats.Counter.incr t.c_retrans;
          on_timeout ();
          interval := next_interval opts !interval;
          deadline := Time.add (Engine.now eng) !interval;
          loop ()
        end
      end
  in
  loop ()

let calls_made t = Sim.Stats.Counter.value t.c_calls

let call_ether client ctx (b : ether_binding) ~proc_idx ~args =
  start_call client ctx b.be_intf ~proc_idx @@ fun t tmg p ->
  (* Starter: obtain a packet buffer with a partially filled header. *)
  charge_rt ctx ~label:"Starter" (Timing.starter tmg);
  client.cl_seq <- client.cl_seq + 1;
  let seq = client.cl_seq in
  let payload = encode_payload t p Marshal.In_call_packet args (payload_bound p) in
  Marshal.charge_args tmg ctx Marshal.Caller_side Marshal.In_call_packet p args;
  (* Authenticated binding: seal the whole call payload before
     fragmentation (§7's security hooks). *)
  let payload, secured =
    match b.be_auth with
    | None -> (payload, false)
    | Some key ->
      charge_security t ctx ~bytes:(Bytes.length payload);
      (Secure.seal key ~seq payload, true)
  in
  let len = Bytes.length payload in
  let frags = fragment_count t len in
  let act = client.cl_act in
  let entry = Node.new_entry t.rt_node in
  Node.register_caller t.rt_node act entry;
  (* Every exit — result, clean failure, or an unexpected exception in
     the unmarshalling path — must unregister the call and return the
     packet buffers, or the activity wedges and the pool leaks. *)
  Fun.protect ~finally:(fun () -> Node.unregister_caller t.rt_node act) @@ fun () ->
  alloc_bufs t ctx frags;
  Fun.protect ~finally:(fun () -> free_bufs t frags) @@ fun () ->
  (* Transporter: send the call packet(s), wait for the result. *)
  charge_rt ctx ~label:"Transporter (send call pkt)" (Timing.transporter_send tmg);
  let hdr_for ?please_ack ptype frag_idx =
    header ?please_ack ~secured ~act ~seq ~space:b.be_space ~intf_id:b.be_id ~proc_idx ~frag_idx
      ~frag_count:frags ptype
  in
  let send_frag ?please_ack i =
    let m = max_payload t in
    let pos = i * m in
    let flen = if len = 0 then 0 else min m (len - pos) in
    Node.send t.rt_node ~ctx ~dst:b.be_dst
      ~hdr:(hdr_for ?please_ack Proto.Call i)
      ~payload ~payload_pos:pos ~payload_len:flen;
    (* The caller's send path through trap return and scheduler is
       longer on a uniprocessor (§5, calibrated against Table X). *)
    charge_rt ctx ~label:"Uniprocessor send path" (Timing.uniproc_caller_send_extra tmg)
  in
  try
    (* Fragments of a multi-packet call go stop-and-wait: each but the
       last is acknowledged before the next is sent. *)
    for i = 0 to frags - 1 do
      send_frag i;
      if i = 0 then begin
        (* Registering the outstanding call overlaps transmission on a
           multiprocessor: charged after the send (§3.1.3). *)
        charge_rt ctx ~label:"Register call" (Timing.register_call tmg);
        charge_rt ctx ~label:"Multiprocessor fix" (Timing.multiproc_fix_cost tmg)
      end;
      if i < frags - 1 then
        await t ctx entry ~opts:b.be_opts
          ~on_timeout:(fun () ->
            journal t (Obs.Journal.Retransmit { seq });
            send_frag ~please_ack:true i)
          ~handle:(fun d ->
            let h = d.Node.d_hdr in
            match h.Proto.ptype with
            | Proto.Ack when h.Proto.seq = seq && h.Proto.frag_idx = i -> `Done ()
            | Proto.Busy when h.Proto.seq = seq -> `Progress
            | Proto.Error_reply when h.Proto.seq = seq ->
              raise (Give_up ("server: " ^ V.to_string d.Node.d_payload))
            | _ -> `Continue)
    done;
    (* Await the result, acknowledging all but its last fragment. *)
    let result_frags : (int, V.t) Hashtbl.t = Hashtbl.create 4 in
    let result_secured = ref false in
    let result_count = ref None in
    let complete () =
      match !result_count with
      | Some n -> Hashtbl.length result_frags = n
      | None -> false
    in
    await t ctx entry ~opts:b.be_opts
      ~on_timeout:(fun () ->
        journal t (Obs.Journal.Retransmit { seq });
        send_frag ~please_ack:true (frags - 1))
      ~handle:(fun d ->
        let h = d.Node.d_hdr in
        if h.Proto.seq <> seq then `Continue
        else
          match h.Proto.ptype with
          | Proto.Busy | Proto.Ack -> `Progress
          | Proto.Error_reply ->
            raise (Give_up ("server: " ^ V.to_string d.Node.d_payload))
          | Proto.Result
            when h.Proto.frag_count < 1
                 || h.Proto.frag_idx < 0
                 || h.Proto.frag_idx >= h.Proto.frag_count
                 || (match !result_count with
                    | Some n -> h.Proto.frag_count <> n
                    | None -> false) ->
            (* A fragment whose index is out of range, or whose claimed
               fragment count disagrees with the fragments already
               received (a corrupted or forged retransmission), must not
               poison the reassembly: drop it and keep waiting for a
               consistent retransmission. *)
            `Continue
          | Proto.Result ->
            result_count := Some h.Proto.frag_count;
            if h.Proto.secured then result_secured := true;
            if not (Hashtbl.mem result_frags h.Proto.frag_idx) then
              Hashtbl.replace result_frags h.Proto.frag_idx d.Node.d_payload;
            (* Streamed fragments (no_frag_ack) are not acknowledged;
               stop-and-wait fragments ack all but the last, with the
               result's own fragment numbering. *)
            if (not h.Proto.no_frag_ack) && h.Proto.frag_idx < h.Proto.frag_count - 1 then begin
              let ack =
                { h with Proto.ptype = Proto.Ack; please_ack = false; data_len = 0 }
              in
              journal t (Obs.Journal.Ack { seq });
              Node.send t.rt_node ~ctx ~dst:b.be_dst ~hdr:ack ~payload:Bytes.empty
                ~payload_pos:0 ~payload_len:0
            end;
            if complete () then `Done () else `Progress
          | Proto.Call -> `Continue);
    (* Reassemble and unmarshal the result. *)
    charge_rt ctx ~label:"Transporter (receive result pkt)" (Timing.transporter_recv tmg);
    let n = Option.get !result_count in
    let missing () = Rpc_error.fail (Rpc_error.Protocol_violation "missing result fragment") in
    (* Single-fragment results — the common case — are decoded straight
       out of the frame; only multi-fragment results are concatenated. *)
    let result_payload =
      if n = 1 then (match Hashtbl.find_opt result_frags 0 with Some v -> v | None -> missing ())
      else
        V.concat
          (List.init n (fun i ->
               match Hashtbl.find_opt result_frags i with Some v -> v | None -> missing ()))
    in
    let result_payload =
      match b.be_auth, !result_secured with
      | None, false -> result_payload
      | None, true ->
        Rpc_error.fail (Rpc_error.Protocol_violation "secured result on an unkeyed binding")
      | Some _, false ->
        Rpc_error.fail (Rpc_error.Protocol_violation "server returned an unsecured result")
      | Some key, true -> (
        charge_security t ctx ~bytes:(V.length result_payload);
        match Secure.unseal key ~seq (V.to_bytes result_payload) with
        | Ok plain -> V.of_bytes plain
        | Error e -> Rpc_error.fail (Rpc_error.Call_failed e))
    in
    let full = Marshal.decode_args (R.of_view result_payload) Marshal.In_result_packet p in
    Marshal.charge_args tmg ctx Marshal.Caller_side Marshal.In_result_packet p full;
    (* Ender: return the result packet to the free pool. *)
    charge_rt ctx ~label:"Ender" (Timing.ender tmg);
    Marshal.extract_outs p full
  with Give_up msg -> Rpc_error.fail (Rpc_error.Call_failed msg)

(* {1 The Ethernet transport — server side} *)

let find_act t act_id =
  match Hashtbl.find_opt t.rt_acts act_id with
  | Some a -> a
  | None ->
    let a =
      {
        sa_last_seq = 0;
        sa_working = false;
        sa_cur_seq = 0;
        sa_retained = [];
        sa_reply_to = None;
        sa_retained_bufs = 0;
        sa_generation = 0;
      }
    in
    Hashtbl.replace t.rt_acts act_id a;
    a

let free_retained t sa =
  free_bufs t sa.sa_retained_bufs;
  sa.sa_retained <- [];
  sa.sa_retained_bufs <- 0

(* A retained result not reclaimed by the activity's next call is freed
   after a few seconds, bounding pool usage from departed callers. *)
let schedule_retain_gc t sa =
  sa.sa_generation <- sa.sa_generation + 1;
  let gen = sa.sa_generation in
  Engine.schedule (engine t) ~after:retain_gc_after (fun () ->
      if sa.sa_generation = gen && not sa.sa_working then free_retained t sa)

let send_to t ctx ~dst ~hdr ~payload =
  Node.send t.rt_node ~ctx ~dst ~hdr ~payload ~payload_pos:0
    ~payload_len:(Bytes.length payload)

(* Send a view without materialising it: the frame builder copies
   straight out of the viewed window. *)
let send_view t ctx ~dst ~hdr v =
  Node.send t.rt_node ~ctx ~dst ~hdr ~payload:(V.buffer v) ~payload_pos:(V.offset v)
    ~payload_len:(V.length v)

let resend_retained t ctx sa =
  (* Count the duplicate and journal a retransmission only when result
     packets actually go back out: with no reply endpoint, or with the
     retained packets already reclaimed by the GC, nothing is sent. *)
  match sa.sa_reply_to with
  | Some dst when sa.sa_retained <> [] ->
    Sim.Stats.Counter.incr t.c_dups;
    journal t (Obs.Journal.Retransmit { seq = sa.sa_last_seq });
    List.iter (fun (hdr, payload) -> send_view t ctx ~dst ~hdr payload) sa.sa_retained
  | Some _ | None -> ()

(* Collect the remaining fragments of a multi-packet call, sending a
   stop-and-wait ack for each but the last.  Returns the assembled
   payload, or None if the caller went silent. *)
let collect_call_fragments t ctx entry ~opts ~(first : Node.delivery) =
  let h0 = first.Node.d_hdr in
  let n = h0.Proto.frag_count in
  if n < 1 then None (* malformed first fragment: drop the call *)
  else if n = 1 then Some first.Node.d_payload
  else begin
    let act_id = h0.Proto.activity in
    let seq = h0.Proto.seq in
    let dst = first.Node.d_src in
    let frags = Hashtbl.create 4 in
    let ack i =
      journal t (Obs.Journal.Ack { seq });
      send_to t ctx ~dst
        ~hdr:
          (header ~act:act_id ~seq ~space:h0.Proto.server_space
             ~intf_id:h0.Proto.interface_id ~proc_idx:h0.Proto.proc_idx ~frag_idx:i
             ~frag_count:n Proto.Ack)
        ~payload:Bytes.empty
    in
    let store (d : Node.delivery) =
      let h = d.Node.d_hdr in
      (* Trust nothing from the wire: the fragment must belong to this
         call, agree with the first fragment's count, and carry an
         in-range index.  An out-of-range index stored blindly once let
         [Hashtbl.length] reach [n] with fragment [i < n] missing, so
         reassembly raised an uncaught [Not_found], killed the worker
         and leaked the fragment sink. *)
      if
        h.Proto.ptype = Proto.Call
        && h.Proto.seq = seq
        && h.Proto.frag_count = n
        && h.Proto.frag_idx >= 0
        && h.Proto.frag_idx < n
      then begin
        if not (Hashtbl.mem frags h.Proto.frag_idx) then
          Hashtbl.replace frags h.Proto.frag_idx d.Node.d_payload;
        (* (Re-)ack every fragment but the last, covering lost acks. *)
        if h.Proto.frag_idx < n - 1 then ack h.Proto.frag_idx;
        true
      end
      else false
    in
    ignore (store first);
    Node.register_fragment_sink t.rt_node act_id entry;
    (* The sink must come down on every exit, including an exception in
       the ack path, or later fragments wedge a parked worker. *)
    Fun.protect ~finally:(fun () -> Node.unregister_fragment_sink t.rt_node act_id) @@ fun () ->
    let eng = engine t in
    let timeouts = ref 0 in
    let deadline = ref (Time.add (Engine.now eng) opts.retransmit_after) in
    let result = ref None in
    (try
       while Hashtbl.length frags < n do
         match Node.Entry.inbox_pop entry with
         | Some d ->
           if store d then begin
             timeouts := 0;
             deadline := Time.add (Engine.now eng) opts.retransmit_after
           end
         | None ->
           let now = Engine.now eng in
           if Time.(now < !deadline) then
             ignore (Node.wait_timeout t.rt_node entry ctx ~timeout:(Time.diff !deadline now))
           else begin
             incr timeouts;
             deadline := Time.add (Engine.now eng) opts.retransmit_after;
             if !timeouts > opts.max_retries then raise Exit
           end
       done;
       let frag i =
         match Hashtbl.find_opt frags i with
         | Some payload -> payload
         | None -> raise Exit (* unreachable once indexes are validated *)
       in
       result := Some (V.concat (List.init n frag))
     with Exit -> ());
    !result
  end

(* Send the result (or error reply) fragments, stop-and-wait on acks for
   all but the last, then retain them for duplicate suppression. *)
let send_result t ctx entry ~opts ~(sa : server_act) ~dst ~(h0 : Proto.header)
    ~(outcome : (Bytes.t * bool, string) result) =
  let tmg = timing t in
  let streaming = (Machine.config (machine t)).Hw.Config.streaming_results in
  let ptype, payload, secured =
    match outcome with
    | Ok (payload, secured) -> (Proto.Result, payload, secured)
    | Error msg -> (Proto.Error_reply, Bytes.of_string msg, false)
  in
  let len = Bytes.length payload in
  let frags = fragment_count t len in
  alloc_bufs t ctx frags;
  charge_rt ctx ~label:"Receiver (send result pkt)" (Timing.receiver_send tmg);
  let m = max_payload t in
  let hdr_of i =
    {
      (header ~no_frag_ack:streaming ~secured ~act:h0.Proto.activity ~seq:h0.Proto.seq
         ~space:h0.Proto.server_space ~intf_id:h0.Proto.interface_id
         ~proc_idx:h0.Proto.proc_idx ~frag_idx:i ~frag_count:frags ptype)
      with
      Proto.data_len = (if len = 0 then 0 else min m (len - (i * m)));
    }
  in
  (* Fragments are views into the one result payload — no per-fragment
     copy on either the first send, retransmissions, or retention. *)
  let slice i =
    let pos = i * m in
    let flen = if len = 0 then 0 else min m (len - pos) in
    V.of_bytes payload ~pos ~len:flen
  in
  let act_id = h0.Proto.activity in
  let need_acks = frags > 1 && not streaming in
  if need_acks then Node.register_fragment_sink t.rt_node act_id entry;
  let eng = engine t in
  let abandoned = ref false in
  let retained = ref false in
  (* Whatever happens in the send loop — including an exception from the
     transport — the fragment sink comes down and, unless the packets
     were retained for duplicate suppression, the buffers go back to the
     pool and the activity stops being "working". *)
  Fun.protect
    ~finally:(fun () ->
      if need_acks then Node.unregister_fragment_sink t.rt_node act_id;
      if not !retained then begin
        free_bufs t frags;
        sa.sa_working <- false
      end)
  @@ fun () ->
  for i = 0 to frags - 1 do
    if not !abandoned then begin
      let fragment = slice i in
      send_view t ctx ~dst ~hdr:(hdr_of i) fragment;
      if need_acks && i < frags - 1 then begin
        (* Deadline-based wait: irrelevant deliveries must not push the
           retransmission out (see [await]).  A duplicate of the call
           means the caller has nothing yet — resend immediately. *)
        let timeouts = ref 0 in
        let acked = ref false in
        let deadline = ref (Time.add (Engine.now eng) opts.retransmit_after) in
        let resend () =
          send_view t ctx ~dst ~hdr:(hdr_of i) fragment;
          deadline := Time.add (Engine.now eng) opts.retransmit_after
        in
        while (not !acked) && not !abandoned do
          match Node.Entry.inbox_pop entry with
          | Some d ->
            let h = d.Node.d_hdr in
            if h.Proto.seq = h0.Proto.seq then begin
              match h.Proto.ptype with
              | Proto.Ack when h.Proto.frag_idx = i -> acked := true
              | Proto.Call when h.Proto.please_ack -> resend ()
              | Proto.Ack | Proto.Call | Proto.Result | Proto.Busy | Proto.Error_reply -> ()
            end
          | None ->
            let now = Engine.now eng in
            if Time.(now < !deadline) then
              ignore (Node.wait_timeout t.rt_node entry ctx ~timeout:(Time.diff !deadline now))
            else begin
              incr timeouts;
              if !timeouts > opts.max_retries then abandoned := true else resend ()
            end
        done
      end
    end
  done;
  if not !abandoned then begin
    (* Retain for retransmission; the buffers stay allocated until the
       activity's next call or the retain GC. *)
    sa.sa_retained <- List.init frags (fun i -> (hdr_of i, slice i));
    sa.sa_retained_bufs <- frags;
    sa.sa_reply_to <- Some dst;
    sa.sa_last_seq <- h0.Proto.seq;
    sa.sa_working <- false;
    schedule_retain_gc t sa;
    retained := true
  end

let handle_call t ctx entry (d : Node.delivery) ~opts =
  let tmg = timing t in
  let h = d.Node.d_hdr in
  (* Re-derive the call id from the delivered frame (the payload view
     aliases the frame buffer) rather than trusting whatever wakeup last
     stamped this worker's context — backlog drains and handoffs reuse
     worker threads across calls. *)
  (let tr = Engine.trace (engine t) in
   if Sim.Trace.enabled tr then
     Cpu_set.set_trace_call ctx (Sim.Trace.frame_call tr (V.buffer d.Node.d_payload)));
  charge_rt ctx ~label:"Receiver (receive call pkt)" (Timing.receiver_recv tmg);
  let sa = find_act t h.Proto.activity in
  let seq = h.Proto.seq in
  if seq < sa.sa_last_seq then () (* ancient duplicate: drop *)
  else if seq = sa.sa_last_seq && seq > 0 then resend_retained t ctx sa
  else if sa.sa_working && seq = sa.sa_cur_seq then begin
    (* Duplicate of the call another worker is still executing. *)
    Sim.Stats.Counter.incr t.c_busy;
    if h.Proto.please_ack then
      send_to t ctx ~dst:d.Node.d_src
        ~hdr:
          (header ~act:h.Proto.activity ~seq ~space:h.Proto.server_space
             ~intf_id:h.Proto.interface_id ~proc_idx:h.Proto.proc_idx
             ~frag_idx:h.Proto.frag_idx ~frag_count:h.Proto.frag_count Proto.Busy)
        ~payload:Bytes.empty
  end
  else if h.Proto.frag_idx <> 0 then () (* mid-call fragment with no collector: drop *)
  else begin
    (* A new call: the retained previous result is implicitly
       acknowledged (§3.2). *)
    sa.sa_generation <- sa.sa_generation + 1;
    free_retained t sa;
    sa.sa_working <- true;
    sa.sa_cur_seq <- seq;
    match collect_call_fragments t ctx entry ~opts ~first:d with
    | None -> sa.sa_working <- false (* caller went silent mid-call *)
    | Some payload ->
      (match t.rt_exec_probe with
      | Some probe -> probe h.Proto.activity seq
      | None -> ());
      let outcome =
        dispatch t ctx ~intf_id:h.Proto.interface_id ~proc_idx:h.Proto.proc_idx ~payload
          ~secured:h.Proto.secured ~seq ~trusted:false
      in
      (* Another, newer call from this activity may have superseded us
         while the implementation ran (caller gave up and re-called). *)
      if sa.sa_cur_seq = seq then
        send_result t ctx entry ~opts ~sa ~dst:d.Node.d_src ~h0:h ~outcome
  end

(* The server worker: drain backlog from the slow path first, then park
   in the call table where the interrupt routine can hand us the next
   call directly (§3.1.3's Receiver loop). *)
let worker_loop t ~opts ctx =
  let rec loop () =
    (match Queue.take_opt t.rt_pending_slow with
    | Some d ->
      let entry = Node.new_entry t.rt_node in
      if d.Node.d_hdr.Proto.ptype = Proto.Call then handle_call t ctx entry d ~opts
    | None -> (
      let entry = Node.new_entry t.rt_node in
      Node.join_worker_pool t.rt_node ~space:t.rt_space entry;
      Node.wait t.rt_node entry ctx;
      match Node.Entry.inbox_pop entry with
      | Some d when d.Node.d_hdr.Proto.ptype = Proto.Call -> handle_call t ctx entry d ~opts
      | Some _ | None -> ()));
    loop ()
  in
  loop ()

(* {1 The local (same-machine, shared-memory) transport} *)

let local_worker_loop t ctx =
  let tmg = timing t in
  let me = { lw_waiter = Machine.new_waiter (machine t); lw_inbox = Queue.create () } in
  let handle (lc : local_call) =
    charge_rt ctx ~label:"Receiver (local)" (Timing.local_receiver tmg);
    (* Shared memory on the same machine is inside the trust boundary:
       local calls bypass sealing even to keyed interfaces. *)
    let outcome =
      Result.map fst
        (dispatch t ctx ~intf_id:lc.lc_intf_id ~proc_idx:lc.lc_proc
           ~payload:(V.of_bytes lc.lc_payload) ~secured:false ~seq:0 ~trusted:true)
    in
    lc.lc_reply <- Some outcome;
    charge_rt ctx ~label:"Receiver send (local)" (Timing.local_receiver_send tmg);
    Nub.Waiter.notify lc.lc_done ~waker:ctx
  in
  let rec loop () =
    (match Queue.take_opt t.rt_local_pending with
    | Some lc -> handle lc
    | None -> (
      Queue.push me t.rt_local_pool;
      Nub.Waiter.wait me.lw_waiter ctx;
      match Queue.take_opt me.lw_inbox with
      | Some lc -> handle lc
      | None -> ()));
    loop ()
  in
  loop ()

let call_local client ctx (b : local_binding) ~proc_idx ~args =
  let server = b.bl_server in
  start_call client ctx b.bl_intf ~proc_idx @@ fun t tmg p ->
  charge_rt ctx ~label:"Starter (local)" (Timing.local_starter tmg);
  alloc_bufs t ctx 1;
  (* One pool buffer models the local call packet; it must return to the
     pool even when marshalling or the server's reply raises. *)
  Fun.protect ~finally:(fun () -> free_bufs t 1) @@ fun () ->
  let payload = encode_payload t p Marshal.In_call_packet args (payload_bound p) in
  Marshal.charge_args tmg ctx Marshal.Caller_side Marshal.In_call_packet p args;
  charge_rt ctx ~label:"Transporter send (local)" (Timing.local_transporter_send tmg);
  let lc =
    {
      lc_intf_id = Idl.interface_id b.bl_intf;
      lc_proc = proc_idx;
      lc_payload = payload;
      lc_reply = None;
      lc_done = Machine.new_waiter (machine t);
    }
  in
  (match Queue.take_opt server.rt_local_pool with
  | Some lw ->
    Queue.push lc lw.lw_inbox;
    Nub.Waiter.notify lw.lw_waiter ~waker:ctx
  | None ->
    (* All local workers busy; they drain the pending queue first. *)
    Queue.push lc server.rt_local_pending);
  Nub.Waiter.wait lc.lc_done ctx;
  charge_rt ctx ~label:"Transporter receive (local)" (Timing.local_transporter_recv tmg);
  let outcome = Option.get lc.lc_reply in
  match outcome with
  | Error msg ->
    charge_rt ctx ~label:"Ender (local)" (Timing.local_ender tmg);
    Rpc_error.fail (Rpc_error.Call_failed ("server: " ^ msg))
  | Ok result_payload ->
    let full = Marshal.decode_args (R.of_bytes result_payload) Marshal.In_result_packet p in
    Marshal.charge_args tmg ctx Marshal.Caller_side Marshal.In_result_packet p full;
    charge_rt ctx ~label:"Ender (local)" (Timing.local_ender tmg);
    Marshal.extract_outs p full

(* {1 RPC over DECNet}

   Requests: intf_id(4) proc(2) call_id(4) args-payload.
   Replies:  call_id(4) status(1: 0=ok 1=error) payload. *)

let encode_dn_request ~intf_id ~proc_idx ~call_id payload =
  let w = W.create (10 + Bytes.length payload) in
  W.u32 w intf_id;
  W.u16 w proc_idx;
  W.u32 w (Int32.of_int call_id);
  W.bytes w payload;
  W.contents w

let decode_dn_request msg =
  try
    let r = R.of_bytes msg in
    let intf_id = R.u32 r in
    let proc_idx = R.u16 r in
    let call_id = Int32.to_int (R.u32 r) in
    Ok (intf_id, proc_idx, call_id, R.view r (R.remaining r))
  with Wire.Bytebuf.Overflow _ -> Error "decnet-rpc: truncated request"

let encode_dn_reply ~call_id ~ok payload =
  let w = W.create (5 + Bytes.length payload) in
  W.u32 w (Int32.of_int call_id);
  W.u8 w (if ok then 0 else 1);
  W.bytes w payload;
  W.contents w

let decode_dn_reply msg =
  try
    let r = R.of_bytes msg in
    let call_id = Int32.to_int (R.u32 r) in
    let ok = R.u8 r = 0 in
    Ok (call_id, ok, R.view r (R.remaining r))
  with Wire.Bytebuf.Overflow _ -> Error "decnet-rpc: truncated reply"

(* Server side: one thread per accepted connection, dispatching into
   this runtime's exports.  DECNet carries no sealing, so keyed exports
   reject these calls like any other unauthenticated remote call. *)
let decnet_listen t ep =
  Decnet.listen ep ~space:t.rt_space (fun conn ->
      let mach = machine t in
      Cpu_set.with_cpu (Machine.cpus mach) (fun ctx ->
          let tmg = timing t in
          let rec serve () =
            match Decnet.recv_message conn ctx ~timeout:(Time.sec 60) with
            | None -> if Decnet.is_open conn then Decnet.close conn ctx
            | Some msg ->
              charge_rt ctx ~label:"Receiver (receive call pkt)" (Timing.receiver_recv tmg);
              (match decode_dn_request msg with
              | Error e ->
                ignore e (* malformed request: drop; the session survives *)
              | Ok (intf_id, proc_idx, call_id, payload) ->
                let outcome =
                  Result.map fst
                    (dispatch t ctx ~intf_id ~proc_idx ~payload ~secured:false ~seq:call_id
                       ~trusted:false)
                in
                charge_rt ctx ~label:"Receiver (send result pkt)" (Timing.receiver_send tmg);
                let reply =
                  match outcome with
                  | Ok payload -> encode_dn_reply ~call_id ~ok:true payload
                  | Error e -> encode_dn_reply ~call_id ~ok:false (Bytes.of_string e)
                in
                (try Decnet.send_message conn ctx reply
                 with Rpc_error.Rpc _ -> Decnet.close conn ctx));
              serve ()
          in
          serve ()))

let call_decnet client ctx (b : decnet_binding) ~proc_idx ~args =
  start_call client ctx b.dn_intf ~proc_idx @@ fun t tmg p ->
  charge_rt ctx ~label:"Starter" (Timing.starter tmg);
  let payload = encode_payload t p Marshal.In_call_packet args (payload_bound p) in
  Marshal.charge_args tmg ctx Marshal.Caller_side Marshal.In_call_packet p args;
  charge_rt ctx ~label:"Transporter (send call pkt)" (Timing.transporter_send tmg);
  (* One call at a time on the session. *)
  Cpu_set.yield_cpu ctx (fun () -> Sim.Mutex.lock b.dn_lock);
  Fun.protect
    ~finally:(fun () -> Sim.Mutex.unlock b.dn_lock)
    (fun () ->
      let conn =
        match b.dn_conn with
        | Some c when Decnet.is_open c -> c
        | Some _ | None ->
          let c = Decnet.connect b.dn_ep ctx ~peer:b.dn_peer ~space:b.dn_space () in
          b.dn_conn <- Some c;
          c
      in
      b.dn_next_call <- b.dn_next_call + 1;
      let call_id = b.dn_next_call in
      let fail_transport e =
        b.dn_conn <- None;
        raise e
      in
      try
        Decnet.send_message conn ctx
          (encode_dn_request ~intf_id:b.dn_id ~proc_idx ~call_id payload);
        let rec get_reply () =
          match Decnet.recv_message conn ctx ~timeout:(Time.sec 60) with
          | None -> fail_transport (Rpc_error.Rpc (Rpc_error.Call_failed "decnet: session lost"))
          | Some msg -> (
            match decode_dn_reply msg with
            | Error e -> fail_transport (Rpc_error.Rpc (Rpc_error.Protocol_violation e))
            | Ok (id, _, _) when id <> call_id -> get_reply () (* stale reply *)
            | Ok (_, false, err) ->
              Rpc_error.fail (Rpc_error.Call_failed ("server: " ^ V.to_string err))
            | Ok (_, true, result_payload) ->
              charge_rt ctx ~label:"Transporter (receive result pkt)"
                (Timing.transporter_recv tmg);
              let full =
                Marshal.decode_args (R.of_view result_payload) Marshal.In_result_packet p
              in
              Marshal.charge_args tmg ctx Marshal.Caller_side Marshal.In_result_packet p full;
              charge_rt ctx ~label:"Ender" (Timing.ender tmg);
              Marshal.extract_outs p full)
        in
        get_reply ()
      with Rpc_error.Rpc (Rpc_error.Call_failed _) as e -> fail_transport e)

(* {1 The transport personalities}

   Each in-simulator transport is a module satisfying {!Transport.S}
   over this runtime's [client] and the simulated-CPU context; a
   {!binding} packs one such module with its per-import state.  The
   real-socket backend (library [realnet]) satisfies the same signature
   with its own client/ctx types, outside the simulator. *)

module type SIM_TRANSPORT =
  Transport.S with type client = client and type ctx = Cpu_set.ctx

module Ether_transport = struct
  type binding = ether_binding
  type nonrec client = client
  type ctx = Cpu_set.ctx

  let kind = Transport.Simulated_ether
  let name = "sim-ether"
  let interface b = b.be_intf
  let invoke b client ctx ~proc_idx ~args = call_ether client ctx b ~proc_idx ~args
end

module Local_transport = struct
  type binding = local_binding
  type nonrec client = client
  type ctx = Cpu_set.ctx

  let kind = Transport.Shared_memory
  let name = "local"
  let interface b = b.bl_intf
  let invoke b client ctx ~proc_idx ~args = call_local client ctx b ~proc_idx ~args
end

module Decnet_transport = struct
  type binding = decnet_binding
  type nonrec client = client
  type ctx = Cpu_set.ctx

  let kind = Transport.Session
  let name = "decnet"
  let interface b = b.dn_intf
  let invoke b client ctx ~proc_idx ~args = call_decnet client ctx b ~proc_idx ~args
end

type binding = B : (module SIM_TRANSPORT with type binding = 'b) * 'b -> binding

let bind_ether ?auth t ~dst ~server_space intf ~options =
  ignore t;
  B
    ( (module Ether_transport),
      {
        be_dst = dst;
        be_space = server_space;
        be_intf = intf;
        be_id = Idl.interface_id intf;
        be_opts = options;
        be_auth = auth;
      } )

let bind_local t ~server intf ~options =
  ignore t;
  ignore options;
  B ((module Local_transport), { bl_server = server; bl_intf = intf })

let bind_decnet t ~ep ~peer ~server_space intf =
  B
    ( (module Decnet_transport),
      {
        dn_ep = ep;
        dn_peer = peer;
        dn_space = server_space;
        dn_intf = intf;
        dn_id = Idl.interface_id intf;
        dn_lock = Sim.Mutex.create (engine t);
        dn_conn = None;
        dn_next_call = 0;
      } )

let binding_interface (B ((module T), b)) = T.interface b
let transport_kind (B ((module T), _)) = T.kind
let transport_name (B ((module T), _)) = T.name
let is_local b = transport_kind b = Transport.Shared_memory

(* {1 Export / call} *)

let export ?auth t intf ~impls ~workers =
  let id = Idl.interface_id intf in
  if Hashtbl.mem t.rt_exports id then
    invalid_arg ("Runtime.export: interface already exported: " ^ intf.Idl.intf_name);
  if Array.length impls <> Array.length intf.Idl.procs then
    invalid_arg "Runtime.export: implementation count mismatch";
  if workers < 1 then invalid_arg "Runtime.export: need at least one worker";
  Hashtbl.replace t.rt_exports id { ex_intf = intf; ex_impls = impls; ex_auth = auth };
  let opts = default_options t in
  let mach = machine t in
  for i = 1 to workers do
    Machine.spawn_thread mach
      ~name:(Printf.sprintf "%s-worker%d" intf.Idl.intf_name i)
      (fun () -> Cpu_set.with_cpu (Machine.cpus mach) (fun ctx -> worker_loop t ~opts ctx))
  done;
  Machine.spawn_thread mach
    ~name:(intf.Idl.intf_name ^ "-local-worker")
    (fun () -> Cpu_set.with_cpu (Machine.cpus mach) (fun ctx -> local_worker_loop t ctx))

let is_exported t intf = Hashtbl.mem t.rt_exports (Idl.interface_id intf)

let call (B ((module T), b)) client ctx ~proc_idx ~args = T.invoke b client ctx ~proc_idx ~args

let call_by_name binding client ctx ~proc ~args =
  let intf = binding_interface binding in
  match Idl.find_proc intf proc with
  | idx -> call binding client ctx ~proc_idx:idx ~args
  | exception Not_found ->
    Rpc_error.fail (Rpc_error.Marshal_failure ("no such procedure: " ^ proc))

(* {1 Statistics} *)

let set_execution_probe t probe = t.rt_exec_probe <- probe
let calls_served t = Sim.Stats.Counter.value t.c_served
let retransmissions t = Sim.Stats.Counter.value t.c_retrans
let duplicates_suppressed t = Sim.Stats.Counter.value t.c_dups
let busy_replies t = Sim.Stats.Counter.value t.c_busy
let server_activities t = Hashtbl.length t.rt_acts
