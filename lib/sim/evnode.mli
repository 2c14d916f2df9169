(** The flat event node shared by the pairing-heap event queue
    ({!Eventq}) and the retransmit timer wheel ({!Wheel}).

    A node carries the engine's [(time, tie, seq)] ordering key, a
    closure-free payload (a handler-table index [fn] plus two immediate
    ints and two GC'd slots), and two intrusive links whose meaning
    depends on the structure currently holding the node.  Nodes are
    recycled through a bounded per-engine {!pool}, so steady-state
    scheduling allocates nothing; cold callers set [fn = closure_fn]
    and put a closure in [run] instead. *)

type t = {
  mutable time : Time.t;
  mutable tie : int;
  mutable seq : int;
  mutable link0 : t;  (** heap child / wheel prev *)
  mutable link1 : t;  (** heap sibling / wheel next / freelist *)
  mutable fn : int;  (** handler-table index, or {!closure_fn} *)
  mutable i0 : int;
  mutable i1 : int;
  mutable o0 : Obj.t;
  mutable o1 : Obj.t;
  mutable run : unit -> unit;  (** dispatched when [fn = closure_fn] *)
  mutable home : int;  (** wheel level while armed *)
  mutable in_wheel : bool;
      (** [true] while linked into a wheel slot — the state in which an
          O(1) cancel unlink is legal *)
}
(** Field order is deliberate: the ordering key and the two links — all
    a heap meld or a wheel unlink ever touches — share the node's first
    cache line; the payload is read once at dispatch. *)

val closure_fn : int
(** The [fn] value meaning "dispatch the [run] closure". *)

val no_obj : Obj.t
(** The scrubbed value of the [o0]/[o1] slots (the unit value). *)

val null : t
(** The shared "no node" sentinel.  Never written to, so it is safe to
    share between engines in different domains. *)

val is_null : t -> bool

val sentinel : unit -> t
(** A fresh self-linked circular-list head for a wheel slot. *)

type pool

val create_pool : unit -> pool

val alloc : pool -> time:Time.t -> tie:int -> seq:int -> t
(** A node off the freelist (or fresh when the list is empty) with the
    key filled in, [fn = closure_fn], payload scrubbed, links null. *)

val recycle : pool -> t -> unit
(** Scrubs the GC'd slots and parks the node on the freelist (bounded;
    excess nodes are dropped for the GC). *)

val leq : t -> t -> bool
(** The engine's [(time, tie, seq)] total order. *)
