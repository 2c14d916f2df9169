module Time = Sim.Time

let buffer_bytes = 1440

let get_data_max = 60_000

let interface =
  Rpc.Idl.interface ~name:"Test" ~version:1
    [
      Rpc.Idl.proc "Null" [];
      Rpc.Idl.proc "MaxResult" [ Rpc.Idl.arg ~mode:Rpc.Idl.Var_out "buffer" (Rpc.Idl.T_var_bytes buffer_bytes) ];
      Rpc.Idl.proc "MaxArg" [ Rpc.Idl.arg ~mode:Rpc.Idl.Var_in "buffer" (Rpc.Idl.T_var_bytes buffer_bytes) ];
      Rpc.Idl.proc "GetData"
        [
          Rpc.Idl.arg "len" Rpc.Idl.T_int;
          Rpc.Idl.arg ~mode:Rpc.Idl.Var_out "buffer" (Rpc.Idl.T_var_bytes get_data_max);
        ];
    ]

let null_idx = Rpc.Idl.find_proc interface "Null"
let max_result_idx = Rpc.Idl.find_proc interface "MaxResult"
let max_arg_idx = Rpc.Idl.find_proc interface "MaxArg"
let get_data_idx = Rpc.Idl.find_proc interface "GetData"

(* Byte i of the test pattern is (7 i) mod 256, so the pattern repeats
   every 256 bytes: [pattern] blits one period and [is_pattern] compares
   against it a word at a time.  256 is a multiple of 8, so a word at an
   8-aligned offset never straddles the period.  The period is a literal,
   i.e. static data: built on the heap at start-up, even these 256 bytes
   took a fresh major-heap pool in every process and raised the socket
   benchmark's peak heap by 0.1 MB. *)
let period =
  "\x00\x07\x0e\x15\x1c\x23\x2a\x31\x38\x3f\x46\x4d\x54\x5b\x62\x69\
   \x70\x77\x7e\x85\x8c\x93\x9a\xa1\xa8\xaf\xb6\xbd\xc4\xcb\xd2\xd9\
   \xe0\xe7\xee\xf5\xfc\x03\x0a\x11\x18\x1f\x26\x2d\x34\x3b\x42\x49\
   \x50\x57\x5e\x65\x6c\x73\x7a\x81\x88\x8f\x96\x9d\xa4\xab\xb2\xb9\
   \xc0\xc7\xce\xd5\xdc\xe3\xea\xf1\xf8\xff\x06\x0d\x14\x1b\x22\x29\
   \x30\x37\x3e\x45\x4c\x53\x5a\x61\x68\x6f\x76\x7d\x84\x8b\x92\x99\
   \xa0\xa7\xae\xb5\xbc\xc3\xca\xd1\xd8\xdf\xe6\xed\xf4\xfb\x02\x09\
   \x10\x17\x1e\x25\x2c\x33\x3a\x41\x48\x4f\x56\x5d\x64\x6b\x72\x79\
   \x80\x87\x8e\x95\x9c\xa3\xaa\xb1\xb8\xbf\xc6\xcd\xd4\xdb\xe2\xe9\
   \xf0\xf7\xfe\x05\x0c\x13\x1a\x21\x28\x2f\x36\x3d\x44\x4b\x52\x59\
   \x60\x67\x6e\x75\x7c\x83\x8a\x91\x98\x9f\xa6\xad\xb4\xbb\xc2\xc9\
   \xd0\xd7\xde\xe5\xec\xf3\xfa\x01\x08\x0f\x16\x1d\x24\x2b\x32\x39\
   \x40\x47\x4e\x55\x5c\x63\x6a\x71\x78\x7f\x86\x8d\x94\x9b\xa2\xa9\
   \xb0\xb7\xbe\xc5\xcc\xd3\xda\xe1\xe8\xef\xf6\xfd\x04\x0b\x12\x19\
   \x20\x27\x2e\x35\x3c\x43\x4a\x51\x58\x5f\x66\x6d\x74\x7b\x82\x89\
   \x90\x97\x9e\xa5\xac\xb3\xba\xc1\xc8\xcf\xd6\xdd\xe4\xeb\xf2\xf9"

let pattern n =
  let b = Bytes.create n in
  let pos = ref 0 in
  while !pos < n do
    Bytes.blit_string period 0 b !pos (min 256 (n - !pos));
    pos := !pos + 256
  done;
  b

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external get64u_s : string -> int -> int64 = "%caml_string_get64u"

let is_pattern b =
  let n = Bytes.length b in
  let words = n land lnot 7 in
  let i = ref 0 in
  while !i < words && get64u b !i = get64u_s period (!i land 0xff) do
    i := !i + 8
  done;
  while !i < n && Bytes.get b !i = String.get period (!i land 0xff) do
    incr i
  done;
  !i = n

let charge_body ctx span =
  Hw.Cpu_set.charge ctx ~cat:"runtime" ~label:"Null (the server procedure)" span

let impls timing =
  let body_us = Time.us 10 in
  let null_impl ctx _args =
    charge_body ctx body_us;
    []
  in
  let max_result_impl ctx args =
    charge_body ctx body_us;
    match args with
    | [ Rpc.Marshal.V_bytes b ] ->
      (* The server procedure writes the result directly into the
         result packet buffer (§2.2): same-size pattern, no extra
         charge beyond the body. *)
      ignore (Hw.Timing.config timing);
      [ Rpc.Marshal.V_bytes (pattern (max (Bytes.length b) buffer_bytes)) ]
    | _ -> [ Rpc.Marshal.V_bytes (pattern buffer_bytes) ]
  in
  let max_arg_impl ctx args =
    charge_body ctx body_us;
    (match args with
    | [ Rpc.Marshal.V_bytes b ] ->
      if not (is_pattern b) then
        Rpc.Rpc_error.fail (Rpc.Rpc_error.Marshal_failure "MaxArg: payload corrupted in transit")
    | _ -> ());
    []
  in
  let get_data_impl ctx args =
    charge_body ctx body_us;
    match args with
    | [ Rpc.Marshal.V_int n; Rpc.Marshal.V_bytes _ ] ->
      let n = Int32.to_int n in
      if n < 0 || n > get_data_max then
        Rpc.Rpc_error.fail (Rpc.Rpc_error.Marshal_failure "GetData: length out of range");
      [ Rpc.Marshal.V_bytes (pattern n) ]
    | _ -> Rpc.Rpc_error.fail (Rpc.Rpc_error.Marshal_failure "GetData: bad arguments")
  in
  [| null_impl; max_result_impl; max_arg_impl; get_data_impl |]
