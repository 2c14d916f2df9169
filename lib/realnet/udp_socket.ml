(* The fourth transport: a real Unix UDP socket on the loopback
   interface.

   Every datagram's payload is a complete Ethernet/IPv4/UDP/RPC frame
   produced by [Frames.build] — byte for byte the image the simulator
   puts on its wire (and the image the wire fuzzer mutates) — tunnelled
   through a kernel socket.  The receive side runs the same
   [Frames.parse], software checksum verification included, so the
   loopback path drives the production encoders end to end against a
   real network stack: packet loss, reordering and timing are the
   kernel's, not the simulator's.

   The exchange protocol mirrors the simulated transporter: stop-and-
   wait fragments acknowledged individually, a final fragment answered
   by the result, retransmission with [please_ack] on silence, and
   per-activity duplicate suppression with a cached last result. *)

module V = Wire.Bytebuf.View
module W = Wire.Bytebuf.Writer
module R = Wire.Bytebuf.Reader
module Frames = Rpc.Frames
module Proto = Rpc.Proto
module Idl = Rpc.Idl
module Marshal = Rpc.Marshal

exception Call_failed of string

let timing () = Hw.Timing.create Hw.Config.default

(* The same stations and addresses the simulated world uses, so headers
   (and therefore frames) are directly comparable. *)
let caller_endpoint =
  { Frames.mac = Net.Mac.of_station 1; ip = Net.Ipv4.Addr.of_string "16.0.0.1" }

let server_endpoint =
  { Frames.mac = Net.Mac.of_station 2; ip = Net.Ipv4.Addr.of_string "16.0.0.2" }

let available () =
  match Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 with
  | exception Unix.Unix_error _ -> false
  | sock ->
    let ok =
      match Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0)) with
      | () -> true
      | exception Unix.Unix_error _ -> false
    in
    (try Unix.close sock with Unix.Unix_error _ -> ());
    ok

type impl = Marshal.value list -> Marshal.value list

(* {1 Shared frame plumbing} *)

let payload_bound p =
  List.fold_left (fun acc a -> acc + Idl.wire_size_bound a.Idl.ty) 0 p.Idl.args

let encode_payload p dir values =
  let w = W.create (max 16 (payload_bound p)) in
  Marshal.encode_args w dir p values;
  W.contents w

let fragment_count tmg len =
  let m = Hw.Timing.max_payload_bytes tmg in
  if len = 0 then 1 else (len + m - 1) / m

let header ?(please_ack = false) ~act ~seq ~server_space ~intf_id ~proc_idx ~frag_idx
    ~frag_count ptype =
  {
    Proto.ptype;
    please_ack;
    no_frag_ack = false;
    secured = false;
    activity = act;
    seq;
    server_space;
    interface_id = intf_id;
    proc_idx;
    frag_idx;
    frag_count;
    (* both overwritten by [Frames.build] *)
    data_len = 0;
    checksum = 0;
  }

let send_to sock addr frame =
  ignore (Unix.sendto sock frame 0 (Bytes.length frame) [] addr)

(* A receive that treats the socket timeout as "nothing arrived".  Each
   datagram is copied out of the reused receive buffer into a frame of
   its own, so payload views cut from it stay valid for as long as
   reassembly holds them. *)
let recv_frame sock buf =
  match Unix.recvfrom sock buf 0 (Bytes.length buf) [] with
  | 0, _ -> None
  | n, addr -> Some (Bytes.sub buf 0 n, addr)
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR | ETIMEDOUT), _, _) -> None

(* {1 Server} *)

module Act_tbl = Hashtbl.Make (Proto.Activity)

type act_state = {
  mutable as_seq : int;  (** call being assembled *)
  mutable as_frag_count : int option;
  as_frags : (int, V.t) Hashtbl.t;
  mutable as_done_seq : int;  (** last completed call *)
  mutable as_result : Bytes.t list;  (** its result frames, for duplicates *)
}

type server = {
  s_sock : Unix.file_descr;
  s_port : int;
  s_intf : Idl.interface;
  s_impls : impl array;
  s_tmg : Hw.Timing.t;
  s_stop : bool Atomic.t;
  s_rejected : int Atomic.t;
  mutable s_thread : Thread.t option;
}

let server_port s = s.s_port
let server_rejected s = Atomic.get s.s_rejected

let build_result_frames s ~act ~seq ~server_space ~intf_id ~proc_idx payload =
  let tmg = s.s_tmg in
  let m = Hw.Timing.max_payload_bytes tmg in
  let len = Bytes.length payload in
  let n = fragment_count tmg len in
  List.init n (fun i ->
      let pos = i * m in
      let flen = min m (len - pos) in
      Frames.build tmg ~src:server_endpoint ~dst:caller_endpoint
        ~hdr:
          (header ~act ~seq ~server_space ~intf_id ~proc_idx ~frag_idx:i ~frag_count:n
             Proto.Result)
        ~payload ~payload_pos:pos ~payload_len:flen)

let build_error_frame s ~act ~seq ~server_space ~intf_id ~proc_idx msg =
  let tmg = s.s_tmg in
  let m = Hw.Timing.max_payload_bytes tmg in
  let payload = Bytes.of_string msg in
  let len = min m (Bytes.length payload) in
  Frames.build tmg ~src:server_endpoint ~dst:caller_endpoint
    ~hdr:
      (header ~act ~seq ~server_space ~intf_id ~proc_idx ~frag_idx:0 ~frag_count:1
         Proto.Error_reply)
    ~payload ~payload_pos:0 ~payload_len:len

let dispatch s (h : Proto.header) payload =
  if h.Proto.interface_id <> Idl.interface_id s.s_intf then
    Error (Printf.sprintf "no interface %ld exported" h.Proto.interface_id)
  else if h.Proto.proc_idx < 0 || h.Proto.proc_idx >= Array.length s.s_intf.Idl.procs then
    Error (Printf.sprintf "bad procedure index %d" h.Proto.proc_idx)
  else begin
    let p = s.s_intf.Idl.procs.(h.Proto.proc_idx) in
    match Marshal.decode_args (R.of_view payload) Marshal.In_call_packet p with
    | exception Rpc.Rpc_error.Rpc e -> Error (Rpc.Rpc_error.to_string e)
    | in_values -> (
      match s.s_impls.(h.Proto.proc_idx) in_values with
      | exception Rpc.Rpc_error.Rpc e -> Error (Rpc.Rpc_error.to_string e)
      | exception e -> Error ("implementation raised: " ^ Printexc.to_string e)
      | outs -> (
        try
          let full = Marshal.merge_outs p in_values outs in
          Ok (encode_payload p Marshal.In_result_packet full)
        with Rpc.Rpc_error.Rpc e -> Error (Rpc.Rpc_error.to_string e)))
  end

(* Send result fragments stop-and-wait: after every non-final fragment,
   wait for its ack, retransmitting on silence.  A duplicate of the
   call's final fragment while waiting means the client missed us —
   resend the current fragment. *)
let send_result s addr ~seq frames =
  let n = List.length frames in
  let buf = Bytes.create 4096 in
  List.iteri
    (fun i frame ->
      send_to s.s_sock addr frame;
      if i < n - 1 then begin
        let retries = ref 0 in
        let rec await_ack () =
          if !retries <= 20 && not (Atomic.get s.s_stop) then
            match recv_frame s.s_sock buf with
            | None ->
              incr retries;
              send_to s.s_sock addr frame;
              await_ack ()
            | Some (dat, _) -> (
              match Frames.parse s.s_tmg dat with
              | Error _ ->
                Atomic.incr s.s_rejected;
                await_ack ()
              | Ok { Frames.p_hdr = h; _ } ->
                if h.Proto.ptype = Proto.Ack && h.Proto.seq = seq && h.Proto.frag_idx = i
                then ()
                else begin
                  if h.Proto.ptype = Proto.Call && h.Proto.seq = seq then
                    send_to s.s_sock addr frame;
                  await_ack ()
                end)
        in
        await_ack ()
      end)
    frames

let handle_call s states addr (h : Proto.header) payload_view =
  let st =
    match Act_tbl.find_opt states h.Proto.activity with
    | Some st -> st
    | None ->
      let st =
        {
          as_seq = 0;
          as_frag_count = None;
          as_frags = Hashtbl.create 4;
          as_done_seq = 0;
          as_result = [];
        }
      in
      Act_tbl.add states h.Proto.activity st;
      st
  in
  if h.Proto.seq <= st.as_done_seq then begin
    (* At-most-once: a retransmission of a completed call gets the
       cached result back, never a second execution. *)
    if h.Proto.seq = st.as_done_seq then List.iter (send_to s.s_sock addr) st.as_result
  end
  else begin
    if h.Proto.seq <> st.as_seq then begin
      st.as_seq <- h.Proto.seq;
      st.as_frag_count <- None;
      Hashtbl.reset st.as_frags
    end;
    let consistent =
      h.Proto.frag_count >= 1
      && h.Proto.frag_idx >= 0
      && h.Proto.frag_idx < h.Proto.frag_count
      && (match st.as_frag_count with None -> true | Some n -> n = h.Proto.frag_count)
    in
    if consistent then begin
      st.as_frag_count <- Some h.Proto.frag_count;
      if not (Hashtbl.mem st.as_frags h.Proto.frag_idx) then
        Hashtbl.replace st.as_frags h.Proto.frag_idx payload_view;
      if h.Proto.frag_idx < h.Proto.frag_count - 1 then begin
        let ack =
          Frames.build s.s_tmg ~src:server_endpoint ~dst:caller_endpoint
            ~hdr:
              (header ~act:h.Proto.activity ~seq:h.Proto.seq
                 ~server_space:h.Proto.server_space ~intf_id:h.Proto.interface_id
                 ~proc_idx:h.Proto.proc_idx ~frag_idx:h.Proto.frag_idx
                 ~frag_count:h.Proto.frag_count Proto.Ack)
            ~payload:Bytes.empty ~payload_pos:0 ~payload_len:0
        in
        send_to s.s_sock addr ack
      end;
      if Hashtbl.length st.as_frags = h.Proto.frag_count then begin
        let whole = V.concat (List.init h.Proto.frag_count (Hashtbl.find st.as_frags)) in
        Hashtbl.reset st.as_frags;
        let act = h.Proto.activity
        and seq = h.Proto.seq
        and server_space = h.Proto.server_space
        and intf_id = h.Proto.interface_id
        and proc_idx = h.Proto.proc_idx in
        let frames =
          match dispatch s h whole with
          | Ok result ->
            build_result_frames s ~act ~seq ~server_space ~intf_id ~proc_idx result
          | Error msg -> [ build_error_frame s ~act ~seq ~server_space ~intf_id ~proc_idx msg ]
        in
        st.as_done_seq <- seq;
        st.as_result <- frames;
        send_result s addr ~seq frames
      end
    end
  end

let server_loop s =
  let states = Act_tbl.create 4 in
  let buf = Bytes.create 4096 in
  while not (Atomic.get s.s_stop) do
    match recv_frame s.s_sock buf with
    | None -> ()
    | Some (dat, addr) -> (
      match Frames.parse s.s_tmg dat with
      | Error _ -> Atomic.incr s.s_rejected
      | Ok { Frames.p_hdr = h; p_payload; _ } -> (
        match h.Proto.ptype with
        | Proto.Call -> handle_call s states addr h p_payload
        | Proto.Ack | Proto.Result | Proto.Busy | Proto.Error_reply -> ()))
  done

let start_server ~intf ~impls () =
  if Array.length impls <> Array.length intf.Idl.procs then
    invalid_arg "Udp_socket.start_server: one impl per procedure";
  match Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 with
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | sock -> (
    match
      Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      Unix.setsockopt_float sock Unix.SO_RCVTIMEO 0.02;
      match Unix.getsockname sock with
      | Unix.ADDR_INET (_, port) -> port
      | _ -> failwith "Udp_socket: unexpected socket address family"
    with
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      Error (Unix.error_message e)
    | port ->
      let s =
        {
          s_sock = sock;
          s_port = port;
          s_intf = intf;
          s_impls = impls;
          s_tmg = timing ();
          s_stop = Atomic.make false;
          s_rejected = Atomic.make 0;
          s_thread = None;
        }
      in
      s.s_thread <- Some (Thread.create server_loop s);
      Ok s)

let stop_server s =
  Atomic.set s.s_stop true;
  (match s.s_thread with Some t -> Thread.join t | None -> ());
  try Unix.close s.s_sock with Unix.Unix_error _ -> ()

(* {1 Client} *)

type client = {
  c_sock : Unix.file_descr;
  c_dst : Unix.sockaddr;
  c_tmg : Hw.Timing.t;
  c_intf : Idl.interface;
  c_act : Proto.Activity.t;
  mutable c_seq : int;
  c_server_space : int;
  c_retransmit_after : float;  (** seconds of silence before retrying *)
  c_max_retries : int;
  c_capture : (dir:[ `Tx | `Rx ] -> Bytes.t -> unit) option;
  c_send_filter : (Bytes.t -> bool) option;
  c_buf : Bytes.t;
}

let connect ?capture ?send_filter ?(retransmit_after = 0.05) ?(max_retries = 40)
    ?(thread = 1) ~port ~intf () =
  match Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 with
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | sock -> (
    match Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0)) with
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      Error (Unix.error_message e)
    | () ->
      Ok
        {
          c_sock = sock;
          c_dst = Unix.ADDR_INET (Unix.inet_addr_loopback, port);
          c_tmg = timing ();
          c_intf = intf;
          c_act =
            { Proto.Activity.caller_ip = caller_endpoint.Frames.ip;
              caller_space = 1;
              thread;
            };
          c_seq = 0;
          c_server_space = 1;
          c_retransmit_after = retransmit_after;
          c_max_retries = max_retries;
          c_capture = capture;
          c_send_filter = send_filter;
          c_buf = Bytes.create 4096;
        })

let close c = try Unix.close c.c_sock with Unix.Unix_error _ -> ()

let client_send c frame =
  (match c.c_capture with Some f -> f ~dir:`Tx (Bytes.copy frame) | None -> ());
  let deliver = match c.c_send_filter with Some f -> f frame | None -> true in
  if deliver then ignore (Unix.sendto c.c_sock frame 0 (Bytes.length frame) [] c.c_dst)

let send_raw c bytes = ignore (Unix.sendto c.c_sock bytes 0 (Bytes.length bytes) [] c.c_dst)

let client_recv c =
  match Unix.select [ c.c_sock ] [] [] c.c_retransmit_after with
  | [], _, _ -> None
  | _ -> (
    match Unix.recvfrom c.c_sock c.c_buf 0 (Bytes.length c.c_buf) [] with
    | 0, _ -> None
    | n, _ ->
      let dat = Bytes.sub c.c_buf 0 n in
      (match c.c_capture with Some f -> f ~dir:`Rx dat | None -> ());
      Some dat
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> None)

let call c ~proc_idx ~args =
  let intf = c.c_intf in
  if proc_idx < 0 || proc_idx >= Array.length intf.Idl.procs then
    raise (Call_failed (Printf.sprintf "bad procedure index %d" proc_idx));
  let p = intf.Idl.procs.(proc_idx) in
  c.c_seq <- c.c_seq + 1;
  let seq = c.c_seq in
  let payload = encode_payload p Marshal.In_call_packet args in
  let intf_id = Idl.interface_id intf in
  let m = Hw.Timing.max_payload_bytes c.c_tmg in
  let len = Bytes.length payload in
  let nfrags = fragment_count c.c_tmg len in
  let call_frag ?please_ack i =
    let pos = i * m in
    let flen = min m (len - pos) in
    Frames.build c.c_tmg ~src:caller_endpoint ~dst:server_endpoint
      ~hdr:
        (header ?please_ack ~act:c.c_act ~seq ~server_space:c.c_server_space ~intf_id
           ~proc_idx ~frag_idx:i ~frag_count:nfrags Proto.Call)
      ~payload ~payload_pos:pos ~payload_len:flen
  in
  (* Call fragments, stop-and-wait on all but the last. *)
  for i = 0 to nfrags - 2 do
    client_send c (call_frag i);
    let retries = ref 0 in
    let rec await_ack () =
      match client_recv c with
      | None ->
        incr retries;
        if !retries > c.c_max_retries then
          raise (Call_failed "no acknowledgement for a call fragment");
        client_send c (call_frag ~please_ack:true i);
        await_ack ()
      | Some dat -> (
        match Frames.parse c.c_tmg dat with
        | Error _ -> await_ack ()
        | Ok { Frames.p_hdr = h; _ } ->
          if h.Proto.ptype = Proto.Ack && h.Proto.seq = seq && h.Proto.frag_idx = i then ()
          else await_ack ())
    in
    await_ack ()
  done;
  client_send c (call_frag (nfrags - 1));
  (* Await the result, acknowledging all but its last fragment. *)
  let result_frags : (int, Bytes.t) Hashtbl.t = Hashtbl.create 4 in
  let result_count = ref None in
  let complete () =
    match !result_count with
    | None -> false
    | Some n -> Hashtbl.length result_frags = n
  in
  let retries = ref 0 in
  let ack_result (h : Proto.header) =
    let ack =
      Frames.build c.c_tmg ~src:caller_endpoint ~dst:server_endpoint
        ~hdr:
          (header ~act:c.c_act ~seq ~server_space:c.c_server_space ~intf_id ~proc_idx
             ~frag_idx:h.Proto.frag_idx ~frag_count:h.Proto.frag_count Proto.Ack)
        ~payload:Bytes.empty ~payload_pos:0 ~payload_len:0
    in
    client_send c ack
  in
  while not (complete ()) do
    match client_recv c with
    | None ->
      incr retries;
      if !retries > c.c_max_retries then
        raise (Call_failed "no result: retransmission budget exhausted");
      client_send c (call_frag ~please_ack:true (nfrags - 1))
    | Some dat -> (
      match Frames.parse c.c_tmg dat with
      | Error _ -> ()
      | Ok { Frames.p_hdr = h; p_payload; _ } ->
        if h.Proto.seq = seq then begin
          match h.Proto.ptype with
          | Proto.Busy -> retries := 0
          | Proto.Error_reply -> raise (Call_failed (V.to_string p_payload))
          | Proto.Result ->
            if
              h.Proto.frag_count >= 1
              && h.Proto.frag_idx >= 0
              && h.Proto.frag_idx < h.Proto.frag_count
              && (match !result_count with None -> true | Some n -> n = h.Proto.frag_count)
            then begin
              result_count := Some h.Proto.frag_count;
              if not (Hashtbl.mem result_frags h.Proto.frag_idx) then
                Hashtbl.replace result_frags h.Proto.frag_idx (V.to_bytes p_payload);
              if h.Proto.frag_idx < h.Proto.frag_count - 1 then ack_result h
            end
          | Proto.Call | Proto.Ack -> ()
        end)
  done;
  let n = match !result_count with Some n -> n | None -> assert false in
  let whole = Buffer.create 1500 in
  for i = 0 to n - 1 do
    Buffer.add_bytes whole (Hashtbl.find result_frags i)
  done;
  let full = Marshal.decode_args (R.of_bytes (Buffer.to_bytes whole)) Marshal.In_result_packet p in
  Marshal.extract_outs p full

(* {1 The TRANSPORT instance}

   The proof that {!Rpc.Transport.S} spans real backends: a connected
   loopback client packs into the same signature the simulator's three
   transports satisfy.  [client]/[ctx] are [unit] — a kernel socket
   needs neither a simulated runtime nor a CPU context. *)

module Socket_transport = struct
  type binding = client
  type nonrec client = unit
  type ctx = unit

  let kind = Rpc.Transport.Real_socket
  let name = "udp-socket"
  let interface (b : binding) = b.c_intf
  let invoke (b : binding) () () ~proc_idx ~args = call b ~proc_idx ~args
end
