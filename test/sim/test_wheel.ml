(* The timer wheel must be invisible to event order: whatever its
   cascades do, the pop sequence must be the exact (time, tie, seq)
   total order a sorted-list model produces, across random arm, cancel
   and pop interleavings. *)

module Time = Sim.Time
module Engine = Sim.Engine
module Evnode = Sim.Evnode
module Eventq = Sim.Eventq
module Wheel = Sim.Wheel

let time_of_ns n = Time.of_ns_since_start n

let key_compare (t1, tie1, seq1) (t2, tie2, seq2) =
  match Time.compare t1 t2 with
  | 0 -> ( match compare tie1 tie2 with 0 -> compare seq1 seq2 | c -> c)
  | c -> c

let key_of (n : Evnode.t) = (n.Evnode.time, n.Evnode.tie, n.Evnode.seq)

(* {1 Wheel + heap vs direct heap, random arm/cancel/pop interleavings} *)

type wheel_cmd = Arm of int * int | Cancel of int | Pop

(* Drive a heap+wheel pair exactly as the engine does — advance the
   wheel to the queue minimum before every pop, flush the earliest
   timers when the queue runs dry — and compare the pop sequence with a
   sorted-list model of every key armed and not successfully cancelled.
   A node the wheel already flushed into the queue stays there as a
   dead event even if "cancelled" afterwards ([Wheel.cancel] returns
   false), which is precisely the engine's timeout semantics. *)
let prop_wheel_equiv =
  let gen =
    QCheck.Gen.(
      list_size (int_bound 400)
        (frequency
           [
             ( 3,
               map
                 (fun (dt, tie) -> Arm (dt, tie))
                 (pair
                    (oneof
                       [ int_bound 30_000; int_bound 3_000_000; int_bound 400_000_000 ])
                    (int_bound 3)) );
             (2, map (fun k -> Cancel k) (int_bound 64));
             (3, return Pop);
           ]))
  in
  let print cmds =
    String.concat "; "
      (List.map
         (function
           | Arm (dt, tie) -> Printf.sprintf "arm(+%d,%d)" dt tie
           | Cancel k -> Printf.sprintf "cancel(%d)" k
           | Pop -> "pop")
         cmds)
  in
  QCheck.Test.make ~name:"wheel+heap matches direct sorted-list model" ~count:150
    (QCheck.make ~print gen) (fun cmds ->
      let pool = Evnode.create_pool () in
      let q = Eventq.create () in
      let wh = Wheel.create ~pool () in
      let model = ref [] in
      (* Armed nodes the test may still cancel; entries leave when
         cancelled or popped so a recycled node cannot alias. *)
      let candidates = ref [] in
      let clock = ref 0 in
      let seq = ref 0 in
      let sync () =
        if Wheel.size wh > 0 then
          if Eventq.is_empty q then Wheel.flush_earliest wh ~insert:(Eventq.insert q)
          else
            Wheel.advance wh ~upto:(Eventq.min_time q) ~insert:(Eventq.insert q)
      in
      List.for_all
        (fun cmd ->
          match cmd with
          | Arm (dt, tie) ->
            incr seq;
            let t = time_of_ns (!clock + dt) in
            let n = Evnode.alloc pool ~time:t ~tie ~seq:!seq in
            if Wheel.arm wh n then candidates := n :: !candidates
            else Eventq.insert q n;
            model := List.sort key_compare ((t, tie, !seq) :: !model);
            true
          | Cancel k -> (
            match !candidates with
            | [] -> true
            | cs ->
              let n = List.nth cs (k mod List.length cs) in
              let key = key_of n in
              candidates := List.filter (fun c -> c != n) cs;
              if Wheel.cancel wh n then begin
                (* Still armed: the event must vanish from the model. *)
                model := List.filter (fun c -> c <> key) !model;
                true
              end
              else
                (* Already flushed to the queue: stays a (dead) event. *)
                true)
          | Pop -> (
            sync ();
            match !model with
            | [] -> Eventq.is_empty q && Wheel.is_empty wh
            | expect :: rest ->
              model := rest;
              let n = Eventq.pop q in
              let key = key_of n in
              candidates := List.filter (fun c -> c != n) !candidates;
              Evnode.recycle pool n;
              let et, _, _ = expect in
              clock := Time.since_start_ns et;
              key = expect))
        cmds)

(* {1 Engine-level wheel semantics} *)

let us = Time.us

let test_armed_timer_accounting () =
  let eng = Engine.create () in
  let saved = ref None in
  Engine.spawn eng (fun () ->
      ignore
        (Engine.suspend_timeout eng ~timeout:(us 500) (fun w -> saved := Some w)));
  Engine.schedule eng ~after:(us 1) (fun () ->
      Alcotest.(check int) "timer armed on the wheel" 1 (Engine.armed_timers eng));
  Engine.schedule eng ~after:(us 5) (fun () ->
      match !saved with
      | Some w -> ignore (Engine.wake w 1)
      | None -> Alcotest.fail "waker not registered");
  Engine.schedule eng ~after:(us 10) (fun () ->
      Alcotest.(check int) "wake cancelled the timer in O(1)" 0
        (Engine.armed_timers eng));
  Engine.run eng;
  Alcotest.(check int) "nothing left armed" 0 (Engine.armed_timers eng)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_wheel_equiv;
    Alcotest.test_case "armed-timer accounting" `Quick test_armed_timer_accounting;
  ]
