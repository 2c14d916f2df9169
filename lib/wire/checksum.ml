(* 16-bit ones-complement sum, read eight bytes at a time.

   A ones-complement sum does not depend on byte order (RFC 1071
   §2(B)): summing the range as native-endian 16-bit words gives the
   big-endian sum with its two bytes swapped, because swapping the
   bytes of a 16-bit value multiplies it by 256 modulo 0xffff and
   256 * 256 = 1 modulo 0xffff.  So the bulk of the range is summed as
   64-bit native words — each split into two 32-bit halves, which sum
   to the same thing modulo 0xffff as its four 16-bit lanes — folded,
   swapped back on a little-endian host, and the last 0-7 bytes are
   added as big-endian 16-bit words.  The result equals a 2-byte loop's
   bit for bit: both sums agree modulo 0xffff and are zero only when
   every byte is.

   The word accumulator is a plain int folded once: each word adds under
   2^33, so a 63-bit int holds the sum of any range under 4 GiB. *)

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

let fold s =
  let rec go s = if s > 0xffff then go ((s land 0xffff) + (s lsr 16)) else s in
  go s

let swap16 s = ((s land 0xff) lsl 8) lor (s lsr 8)

let sum ?(init = 0) b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then invalid_arg "Checksum.sum: bad range";
  let words = ref 0 in
  let i = ref pos in
  let word_stop = pos + len - 8 in
  while !i <= word_stop do
    let w = get64u b !i in
    words :=
      !words
      + (Int64.to_int w land 0xffff_ffff)
      + Int64.to_int (Int64.shift_right_logical w 32);
    i := !i + 8
  done;
  let s = fold !words in
  let s = ref (init + if Sys.big_endian then s else swap16 s) in
  let stop = pos + len - 1 in
  while !i < stop do
    s := !s + Bytes.get_uint16_be b !i;
    i := !i + 2
  done;
  if len land 1 = 1 then s := !s + (Char.code (Bytes.get b (pos + len - 1)) lsl 8);
  fold !s

let finish s = lnot (fold s) land 0xffff
let checksum ?init b ~pos ~len = finish (sum ?init b ~pos ~len)

let verify ?init b ~pos ~len = fold (sum ?init b ~pos ~len) = 0xffff
