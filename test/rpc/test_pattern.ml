(* The test pattern every GetData/MaxArg payload is checked against:
   [pattern] is built from a one-period table and [is_pattern] compares
   eight bytes at a time, so both are checked here against the closed
   form and against corruption at word boundaries and in the tail. *)

module Ti = Workload.Test_interface

let sizes = [ 0; 1; 7; 8; 255; 256; 257; 1440; 6000; 60000 ]

let test_closed_form () =
  List.iter
    (fun n ->
      let p = Ti.pattern n in
      Alcotest.(check int) (Printf.sprintf "length %d" n) n (Bytes.length p);
      Bytes.iteri
        (fun i c ->
          if Char.code c <> i * 7 land 0xff then
            Alcotest.failf "pattern %d: byte %d is %d" n i (Char.code c))
        p)
    sizes

let test_accepts_pattern () =
  List.iter
    (fun n ->
      Alcotest.(check bool) (Printf.sprintf "is_pattern (pattern %d)" n) true
        (Ti.is_pattern (Ti.pattern n)))
    sizes

let test_rejects_flipped_byte () =
  (* 1443 and 257 end in a partial word, so offset n-1 lies in the
     byte-wise tail; 6000 ends on a word boundary.  Flipping bit 7 of a
     word's last byte hits bit 63 of the 64-bit comparison. *)
  List.iter
    (fun n ->
      List.iter
        (fun off ->
          List.iter
            (fun mask ->
              let b = Ti.pattern n in
              Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor mask));
              if Ti.is_pattern b then
                Alcotest.failf "n=%d: flipping 0x%02x at offset %d went unnoticed" n mask off)
            [ 0x01; 0x80; 0xff ])
        (List.sort_uniq compare (List.filter (fun o -> o < n) [ 0; 7; 8; 255; 256; n - 1 ])))
    [ 257; 1443; 6000; 60000 ]

let test_rejects_zeros () =
  List.iter
    (fun n ->
      Alcotest.(check bool) (Printf.sprintf "zeros %d" n) false (Ti.is_pattern (Bytes.make n '\000')))
    [ 2; 8; 1440; 6000 ]

let suite =
  [
    Alcotest.test_case "pattern matches (7 i) mod 256" `Quick test_closed_form;
    Alcotest.test_case "is_pattern accepts the pattern" `Quick test_accepts_pattern;
    Alcotest.test_case "is_pattern rejects a flipped byte" `Quick test_rejects_flipped_byte;
    Alcotest.test_case "is_pattern rejects all zeros" `Quick test_rejects_zeros;
  ]
