(* The intrusive event queue must pop in exactly (time, tie, seq) order
   — the engine's determinism contract — including under interleaved
   add/pop and heavy node recycling. *)

module Q = Sim.Eventq
module Evnode = Sim.Evnode

let time_of_ns n = Sim.Time.add Sim.Time.zero (Sim.Time.ns n)

let key_compare (t1, tie1, seq1) (t2, tie2, seq2) =
  match Sim.Time.compare t1 t2 with
  | 0 -> ( match compare tie1 tie2 with 0 -> compare seq1 seq2 | c -> c)
  | c -> c

(* The engine's closure-event cycle, driven by hand: take a node off
   the pool, put the closure in it and insert it; pop the minimum,
   recycle the node and hand back its closure (which may re-add, reusing
   the node just recycled). *)
let add q pool ~time ~tie ~seq run =
  let n = Evnode.alloc pool ~time ~tie ~seq in
  n.Evnode.run <- run;
  Q.insert q n

let pop_run q pool =
  let n = Q.pop q in
  let run = n.Evnode.run in
  Evnode.recycle pool n;
  run

(* Pops every remaining event, running each, and returns how many. *)
let drain q pool =
  let n = ref 0 in
  while not (Q.is_empty q) do
    (pop_run q pool) ();
    incr n
  done;
  !n

let add_recording q pool out ~time_ns ~tie ~seq =
  add q pool ~time:(time_of_ns time_ns) ~tie ~seq (fun () ->
      out := (time_ns, tie, seq) :: !out)

let test_sorted_drain () =
  let q = Q.create () and pool = Evnode.create_pool () in
  let out = ref [] in
  let keys =
    [
      (50, 0, 3); (10, 0, 1); (50, 0, 2); (10, 1, 0); (10, 0, 4); (0, 5, 5);
      (50, 2, 6); (0, 5, 7);
    ]
  in
  List.iter (fun (t, tie, seq) -> add_recording q pool out ~time_ns:t ~tie ~seq) keys;
  Alcotest.(check int) "size" (List.length keys) (drain q pool);
  let expect =
    List.sort
      (fun (t1, x1, s1) (t2, x2, s2) ->
        key_compare (time_of_ns t1, x1, s1) (time_of_ns t2, x2, s2))
      keys
  in
  Alcotest.(check (list (triple int int int))) "pops in (time, tie, seq) order"
    expect (List.rev !out)

let test_min_time_tracks () =
  let q = Q.create () and pool = Evnode.create_pool () in
  let out = ref [] in
  add_recording q pool out ~time_ns:30 ~tie:0 ~seq:0;
  add_recording q pool out ~time_ns:10 ~tie:0 ~seq:1;
  Alcotest.(check int) "min after adds" 10
    (Sim.Time.since_start_ns (Q.min_time q));
  (pop_run q pool) ();
  Alcotest.(check int) "min after pop" 30
    (Sim.Time.since_start_ns (Q.min_time q));
  (pop_run q pool) ();
  Alcotest.(check bool) "empty" true (Q.is_empty q)

let test_pop_empty_rejected () =
  let q = Q.create () and pool = Evnode.create_pool () in
  Alcotest.(check bool) "pop on empty raises" true
    (try
       ignore (pop_run q pool : unit -> unit);
       false
     with Invalid_argument _ -> true)

let test_reschedule_from_closure () =
  (* The popped closure re-adds events — the recycled-node path the
     engine exercises on every self-rescheduling chain. *)
  let q = Q.create () and pool = Evnode.create_pool () in
  let seq = ref 0 in
  let popped = ref [] in
  let rec chain remaining time_ns () =
    popped := time_ns :: !popped;
    if remaining > 0 then begin
      incr seq;
      add q pool ~time:(time_of_ns (time_ns + 7)) ~tie:0 ~seq:!seq
        (chain (remaining - 1) (time_ns + 7))
    end
  in
  add q pool ~time:(time_of_ns 0) ~tie:0 ~seq:0 (chain 100 0);
  while not (Q.is_empty q) do
    (pop_run q pool) ()
  done;
  Alcotest.(check int) "all links ran" 101 (List.length !popped);
  Alcotest.(check (list int)) "monotone times"
    (List.init 101 (fun i -> i * 7))
    (List.rev !popped)

(* Model-based property: interleaved adds and pops against a sorted-list
   model.  Commands: [Some (time, tie)] = add (seq assigned in program
   order, so keys are unique), [None] = pop.  After the last command
   the queue must drain to exactly the model's remaining keys, so a
   lost or duplicated node is caught even if no pop reaches it. *)
let prop_model =
  let gen =
    QCheck.Gen.(
      list_size (int_bound 200)
        (oneof
           [
             map (fun (t, tie) -> Some (t, tie)) (pair (int_bound 20) (int_bound 3));
             return None;
           ]))
  in
  let print cmds =
    String.concat "; "
      (List.map
         (function
           | Some (t, tie) -> Printf.sprintf "add(%d,%d)" t tie
           | None -> "pop")
         cmds)
  in
  QCheck.Test.make ~name:"eventq matches sorted-list model" ~count:300
    (QCheck.make ~print gen) (fun cmds ->
      let q = Q.create () and pool = Evnode.create_pool () in
      let model = ref [] in
      let seq = ref 0 in
      let popped = ref None in
      List.for_all
        (fun cmd ->
          match cmd with
          | Some (t, tie) ->
            let key = (time_of_ns t, tie, !seq) in
            incr seq;
            let time, tie, s = key in
            add q pool ~time ~tie ~seq:s (fun () -> popped := Some key);
            model := List.sort key_compare (key :: !model);
            not (Q.is_empty q)
          | None -> (
            match (Q.is_empty q, !model) with
            | true, [] -> true
            | true, _ :: _ | false, [] -> false
            | false, expect :: rest ->
              model := rest;
              let min_ok =
                Sim.Time.equal (Q.min_time q)
                  (let t, _, _ = expect in
                   t)
              in
              popped := None;
              (pop_run q pool) ();
              min_ok && !popped = Some expect))
        cmds
      &&
      let rest = ref [] in
      while not (Q.is_empty q) do
        popped := None;
        (pop_run q pool) ();
        Option.iter (fun k -> rest := k :: !rest) !popped
      done;
      List.rev !rest = !model)

let suite =
  [
    Alcotest.test_case "sorted drain with ties" `Quick test_sorted_drain;
    Alcotest.test_case "min_time tracks the head" `Quick test_min_time_tracks;
    Alcotest.test_case "pop on empty rejected" `Quick test_pop_empty_rejected;
    Alcotest.test_case "reschedule from popped closure" `Quick test_reschedule_from_closure;
    QCheck_alcotest.to_alcotest prop_model;
  ]
