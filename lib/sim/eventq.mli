(** The engine's event queue: an intrusive pairing heap whose nodes are
    the shared flat events ({!Evnode}), ordered by [(time, tie, seq)] —
    the key is a total order (the sequence number is unique), so the pop
    sequence, and therefore every simulation output, is independent of
    heap internals.

    The heap never allocates: the caller takes nodes from an
    {!Evnode.pool} and recycles them after dispatch, so steady-state
    scheduling allocates nothing. *)

type t

val create : unit -> t
val is_empty : t -> bool

val insert : t -> Evnode.t -> unit
(** [insert t n] links an already-filled node with null links into the
    heap.  [n.seq] must be unique across live events for the order to
    be total. *)

val min_time : t -> Time.t
(** Time of the next event.  Meaningless when {!is_empty}; callers must
    check first. *)

val pop : t -> Evnode.t
(** Removes and returns the minimum node (links nulled); the caller
    dispatches its payload and recycles it through the pool.
    @raise Invalid_argument when empty. *)
