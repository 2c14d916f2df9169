(* An intrusive pairing heap over the shared flat event nodes
   ({!Evnode}): the heap node IS the event — one record carrying the
   ordering key (time, tie, seq), the closure-free payload, and the
   mutable child/sibling links.  The engine recycles popped nodes
   through its pool's freelist, so a steady-state simulation schedules
   events with no allocation at all.

   [link0] = leftmost child, [link1] = next sibling; the shared
   {!Evnode.null} sentinel stands for the absent link (and the empty
   heap), avoiding an [option] (and its allocation) per link. *)

type node = Evnode.t

let is_null = Evnode.is_null
let null = Evnode.null

type t = { mutable root : node }

let create () = { root = null }
let is_empty t = is_null t.root
let leq = Evnode.leq

(* Meld two roots (neither null, neither with a live sibling link): the
   loser becomes the winner's leftmost child. *)
let[@inline] meld (a : node) (b : node) =
  if leq a b then begin
    b.Evnode.link1 <- a.Evnode.link0;
    a.Evnode.link0 <- b;
    a
  end
  else begin
    a.Evnode.link1 <- b.Evnode.link0;
    b.Evnode.link0 <- a;
    b
  end

let insert t (n : node) =
  (* Callers hand over nodes with clean links (fresh from [Evnode.alloc],
     popped, or unlinked by the wheel), so no re-scrub here: redundant
     pointer stores cost a write-barrier call each on the hottest path. *)
  t.root <- (if is_null t.root then n else meld t.root n)

let min_time t = t.root.Evnode.time
(* Undefined when empty (returns the sentinel's time); callers check
   {!is_empty} first, as the engine's run loops already must. *)

(* Two-pass pairing over a sibling list, iteratively: pass one melds
   adjacent pairs and chains the winners in reverse (reusing the
   sibling links), pass two folds them right-to-left.  No recursion, no
   allocation. *)
let combine_siblings (first : node) =
  if is_null first then null
  else begin
    let acc = ref null in
    let cur = ref first in
    while not (is_null !cur) do
      let a = !cur in
      let b = a.Evnode.link1 in
      if is_null b then begin
        a.Evnode.link1 <- !acc;
        acc := a;
        cur := null
      end
      else begin
        let next = b.Evnode.link1 in
        a.Evnode.link1 <- null;
        b.Evnode.link1 <- null;
        let m = meld a b in
        m.Evnode.link1 <- !acc;
        acc := m;
        cur := next
      end
    done;
    let root = ref !acc in
    let rest = ref !root.Evnode.link1 in
    !root.Evnode.link1 <- null;
    while not (is_null !rest) do
      let n = !rest in
      rest := n.Evnode.link1;
      n.Evnode.link1 <- null;
      root := meld !root n
    done;
    !root
  end

(* Remove and return the minimum node.  The caller dispatches its
   payload and recycles it (the engine copies the payload to locals,
   recycles, then dispatches, so the handler is free to schedule new
   events that reuse the node).
   @raise Invalid_argument when empty. *)
let pop t =
  let n = t.root in
  if is_null n then invalid_arg "Eventq.pop: empty";
  t.root <- combine_siblings n.Evnode.link0;
  n.Evnode.link0 <- null;
  n.Evnode.link1 <- null;
  n
