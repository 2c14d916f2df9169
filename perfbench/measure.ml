(* Host-side measurement: a monotonic clock, the GC's allocation
   counters, order statistics, a host-time limit on one unit of work,
   and GC pause accounting read back from OCaml's runtime_events ring. *)

let now_ns () = Monotonic_clock.now ()

let seconds_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-9

let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, seconds_since t0)

(* {1 Allocation} *)

type gc = { minor : float; promoted : float; major : float; minors : int; majors : int }

let gc_now () =
  let minor, promoted, major = Gc.counters () in
  let s = Gc.quick_stat () in
  { minor; promoted; major; minors = s.Gc.minor_collections; majors = s.Gc.major_collections }

(* Words the program allocated between two readings: everything that
   went through the minor heap plus direct major allocations (large
   blocks).  [major] already counts promoted words, so they come off. *)
let allocated a b = b.minor -. a.minor +. (b.major -. a.major) -. (b.promoted -. a.promoted)

let promoted a b = b.promoted -. a.promoted

let gc_zero = { minor = 0.; promoted = 0.; major = 0.; minors = 0; majors = 0 }

(* Two processes' counters taken together. *)
let add_gc a b =
  {
    minor = a.minor +. b.minor;
    promoted = a.promoted +. b.promoted;
    major = a.major +. b.major;
    minors = a.minors + b.minors;
    majors = a.majors + b.majors;
  }

let words_mb w = w *. float_of_int (Sys.word_size / 8) /. 1e6
let peak_heap_mb () = words_mb (float_of_int (Gc.quick_stat ()).Gc.top_heap_words)

(* {1 Order statistics} *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  match sorted xs with
  | [||] -> 0.
  | a ->
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Median wall-clock seconds over [reps] calls of [f]. *)
let median_time ~reps f = median (List.init reps (fun _ -> snd (timed f)))

(* Nearest-rank percentile of an already sorted array. *)
let percentile a q =
  let n = Array.length a in
  if n = 0 then 0.
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

(* {1 Host-time limit}

   A simulated run that collapses (an overloaded open-loop incast, say)
   can run for minutes of host time.  [within ~seconds f] raises
   [Time_limit] out of [f] once [seconds] of wall-clock have passed; the
   simulator re-raises exceptions that escape its processes, so the
   exception reaches the caller, which counts the unit of work as
   failed. *)

exception Time_limit

let within ~seconds f =
  let set v = ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.; it_value = v }) in
  Sys.set_signal Sys.sigalrm (Sys.Signal_handle (fun _ -> raise Time_limit));
  set (Float.max 0.001 seconds);
  match f () with
  | r ->
    set 0.;
    r
  | exception e ->
    set 0.;
    raise e

(* {1 GC pauses}

   The minor collector and major slices stop the mutator; their
   begin/end events in the runtime_events ring give each pause's
   duration.  Nested phases are merged so no interval counts twice. *)

type pause_state = {
  mutable depth : int;
  mutable opened : int64;
  mutable paused_ns : int64;
  mutable lost : int;  (** events overwritten before they were read *)
}

type pauses = {
  cursor : Runtime_events.cursor;
  callbacks : Runtime_events.Callbacks.t;
  st : pause_state;
}

let pausing = function
  | Runtime_events.EV_MINOR | Runtime_events.EV_MAJOR_SLICE -> true
  | _ -> false

let start_pauses () =
  Runtime_events.start ();
  let st = { depth = 0; opened = 0L; paused_ns = 0L; lost = 0 } in
  let ts = Runtime_events.Timestamp.to_int64 in
  let runtime_begin _ t phase =
    if pausing phase then begin
      if st.depth = 0 then st.opened <- ts t;
      st.depth <- st.depth + 1
    end
  in
  let runtime_end _ t phase =
    if pausing phase && st.depth > 0 then begin
      st.depth <- st.depth - 1;
      if st.depth = 0 then st.paused_ns <- Int64.add st.paused_ns (Int64.sub (ts t) st.opened)
    end
  in
  let lost_events _ n = st.lost <- st.lost + n in
  {
    cursor = Runtime_events.create_cursor None;
    callbacks = Runtime_events.Callbacks.create ~runtime_begin ~runtime_end ~lost_events ();
    st;
  }

(* Drains the ring and returns the pause seconds accumulated so far;
   warns when the ring overflowed, since pauses are then undercounted. *)
let paused_seconds p =
  ignore (Runtime_events.read_poll p.cursor p.callbacks None);
  if p.st.lost > 0 then begin
    Printf.printf "warning: runtime_events lost %d events; gc.pause_frac undercounts\n" p.st.lost;
    p.st.lost <- 0
  end;
  Int64.to_float p.st.paused_ns *. 1e-9
