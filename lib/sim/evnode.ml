(* The flat event node shared by both scheduling structures in the
   simulator: the pairing-heap event queue and the retransmit timer
   wheel.

   Historically every scheduled event was a closure, so the busiest path
   in the simulator — schedule, pop, fire, reschedule — allocated a
   closure (and often an [option] wrapper for the delay) per event even
   though the queue node itself was recycled.  The flat node carries the
   ordering key, a small payload (two immediate ints and two GC'd slots)
   and a {e dispatch index} into the owning engine's handler table; a
   steady-state schedule/fire cycle touches nothing but recycled nodes
   and so allocates zero bytes.  Irregular or cold callers still pass a
   closure ([fn = closure_fn], closure in [run]).

   The two link fields are overloaded by the owning structure:

   - pairing heap: [link0] = leftmost child, [link1] = next sibling;
   - timer wheel: [link0] = prev, [link1] = next in the slot's circular
     doubly-linked list (so cancellation is an O(1) unlink);
   - freelist: [link1] = next free node.

   A node moves between structures without copying: the wheel hands an
   expiring timer node straight to the event queue.  A single sentinel
   [null] stands for "no node" everywhere, avoiding an [option] per
   link; nothing ever writes to the sentinel's fields. *)

(* Field order is deliberate: the ordering key and the two links — all
   a heap meld or a wheel unlink ever touches — share the node's first
   cache line; the payload fields live in the second and are read once
   per event at dispatch. *)
type t = {
  mutable time : Time.t;
  mutable tie : int;
  mutable seq : int;
  mutable link0 : t;
  mutable link1 : t;
  mutable fn : int;  (* handler-table index, or [closure_fn] for [run] *)
  mutable i0 : int;
  mutable i1 : int;
  mutable o0 : Obj.t;
  mutable o1 : Obj.t;
  mutable run : unit -> unit;
  mutable home : int;  (* wheel level while armed; meaningless elsewhere *)
  mutable in_wheel : bool;
}

let closure_fn = -1
let no_obj = Obj.repr ()

let rec null =
  {
    time = Time.zero;
    tie = 0;
    seq = 0;
    fn = closure_fn;
    i0 = 0;
    i1 = 0;
    o0 = no_obj;
    o1 = no_obj;
    run = ignore;
    home = 0;
    in_wheel = false;
    link0 = null;
    link1 = null;
  }

let[@inline] is_null n = n == null

(* Sentinel head of a circular doubly-linked wheel slot: links point at
   itself, never recycled, never dispatched. *)
let sentinel () =
  let rec s =
    {
      time = Time.zero;
      tie = 0;
      seq = 0;
      fn = closure_fn;
      i0 = 0;
      i1 = 0;
      o0 = no_obj;
      o1 = no_obj;
      run = ignore;
      home = 0;
      in_wheel = false;
      link0 = s;
      link1 = s;
    }
  in
  s

type pool = { mutable free : t; mutable free_len : int }

(* Bounding the freelist keeps a burst of simultaneous events from
   pinning memory forever; 1024 covers the steady state of every model
   in the repo including a fleet's worth of armed retransmit timers. *)
let max_free = 1024

let create_pool () = { free = null; free_len = 0 }

let alloc pool ~time ~tie ~seq =
  if is_null pool.free then
    {
      time;
      tie;
      seq;
      fn = closure_fn;
      i0 = 0;
      i1 = 0;
      o0 = no_obj;
      o1 = no_obj;
      run = ignore;
      home = 0;
      in_wheel = false;
      link0 = null;
      link1 = null;
    }
  else begin
    (* Free nodes keep [link0] null (recycle invariant), so only the
       freelist chain in [link1] needs clearing. *)
    let n = pool.free in
    pool.free <- n.link1;
    pool.free_len <- pool.free_len - 1;
    n.time <- time;
    n.tie <- tie;
    n.seq <- seq;
    n.link1 <- null;
    n
  end

(* Scrub the GC'd slots before recycling so a parked free node cannot
   keep a closure (and whatever it captured) alive.  The [o0]/[o1]
   scrubs store a literal immediate so the compiler emits a plain store
   (no write-barrier call); [link0] is the caller's job — every path
   that hands a node here (queue pop, wheel unlink) has already cleared
   it — keeping this, the hottest scrub in the engine, at exactly two
   barriered stores ([run] and the freelist push). *)
let[@inline] recycle pool n =
  n.fn <- closure_fn;
  n.o0 <- Obj.repr 0;
  n.o1 <- Obj.repr 0;
  n.run <- ignore;
  n.in_wheel <- false;
  if pool.free_len < max_free then begin
    n.link1 <- pool.free;
    pool.free <- n;
    pool.free_len <- pool.free_len + 1
  end
  else n.link1 <- null

(* The engine's (time, tie, seq) total order: seq is unique across live
   events, so equal keys never happen and pop order is independent of
   queue internals. *)
let[@inline] leq a b =
  let c = Time.compare a.time b.time in
  if c <> 0 then c < 0
  else if a.tie <> b.tie then a.tie < b.tie
  else a.seq <= b.seq
