(* Chase & Lev, "Dynamic circular work-stealing deque" (SPAA 2005), in
   the load/store discipline of Le, Pop, Cohen & Nardelli, "Correct and
   Efficient Work-Stealing for Weak Memory Models" (PPoPP 2013), ported
   to OCaml 5.

   Memory-model argument (OCaml 5 atomics are sequentially consistent,
   which subsumes every fence of the C11 version; what remains to argue
   is the non-atomic buffer slots and buffer replacement):

   - [top] is monotonically non-decreasing: the only writes are
     successful [compare_and_set t.top tp (tp + 1)] in [steal] and in
     the last-element branch of [pop].  Therefore a successful CAS with
     expected value [tp] certifies that [top] held [tp] for the whole
     window between the thief's initial read and the CAS.

   - A slot is recycled (overwritten with a later element) only by
     [push] at index [b] with [b - top > mask] prevented by [grow], so
     while [top = tp] the cell for index [tp] of the current buffer can
     never be reused: recycling index [tp] needs [b >= tp + capacity],
     which [push] forbids until [top > tp].  Hence a thief whose CAS
     succeeds read either the value published for index [tp], or a
     buffer replaced by [grow] — and [grow] copies indices
     [top .. bottom-1] verbatim, so the value for index [tp] is the
     same in every live generation.

   - Publication: the owner writes the slot, then releases it with the
     [Atomic.set] on [bottom] (push) or on [buf] (grow).  A thief
     acquires via [Atomic.get] on the same locations before reading the
     slot, so the slot write happens-before the thief's read: no
     out-of-thin-air or torn values.

   - Buffer replacement: [grow] links the retired buffer from the new
     one ([prev]), so every generation a thief can still hold a
     reference to remains fully reachable and immutable — the owner
     never writes a retired buffer again, and the GC cannot recycle it
     under a racing thief.  ([prev] also makes the retirement explicit
     rather than relying on the thief's own transient reference.)

   - A successful steal/pop must find a populated slot ([Some _]): the
     capacity argument above rules out reads of never-written or
     recycled cells when the CAS certifies [top].  The impossible case
     is kept as a hard failure rather than silently dropping an item. *)

type 'a buffer = {
  mask : int;
  data : 'a option array;
  prev : 'a buffer option;
      (* retired generations, kept reachable; deliberately write-only *)
}
[@@warning "-69"]

(* ------------------------- test-only hooks -------------------------- *)

(* The conformance explorer (Nd_check.Explore) runs the deque on a
   single domain inside effect-based fibers and needs a preemption
   point between the individual loads/stores of each operation, so a
   controlled scheduler can enumerate the interleavings that real
   domains would only hit by timing luck.  [yield] is called at every
   linearization-relevant step with a label naming it; the production
   cost with the hook unset is one immediate-ref load and branch per
   point, on operations that already perform several atomic accesses.

   [drop_retired] re-introduces the pre-hardening bug class: [grow] no
   longer links the retired buffer from its replacement, and the
   retirement is made observable by clearing the old slots — modelling
   the recycling that retention exists to prevent (under retention the
   GC cannot reclaim a generation a racing thief still reads; without
   it, this clear is exactly what a reuse/reclaim would do to the
   thief).  Used by the mutation smoke test to prove the explorer can
   detect this class of bug.  Never enable outside tests.

   The yield hook is per domain: the explorer runs every schedule on
   the domain that installed it, while the other domains of the same
   process (a daemon's pool workers, say) keep running real deques and
   must never call it.  [installed] counts the domains that hold one,
   so with none installed each point is one load and branch. *)
module Hooks = struct
  let installed = Atomic.make 0

  let yield : (string -> unit) option Domain.DLS.key =
    Domain.DLS.new_key (fun () -> None)

  let drop_retired = ref false

  let set_yield f =
    let had = Option.is_some (Domain.DLS.get yield) in
    Domain.DLS.set yield f;
    match (had, f) with
    | false, Some _ -> Atomic.incr installed
    | true, None -> Atomic.decr installed
    | _ -> ()

  let set_drop_retired b = drop_retired := b
end

let[@inline] yield_point what =
  if Atomic.get Hooks.installed > 0 then
    match Domain.DLS.get Hooks.yield with None -> () | Some f -> f what

type 'a t = {
  top : int Atomic.t;
  bottom : int Atomic.t;
  buf : 'a buffer Atomic.t;
}

let make_buffer ?prev cap = { mask = cap - 1; data = Array.make cap None; prev }

let create () =
  {
    top = Atomic.make 0;
    bottom = Atomic.make 0;
    buf = Atomic.make (make_buffer 16);
  }

let buf_get b i = Array.unsafe_get b.data (i land b.mask)

let buf_set b i x = Array.unsafe_set b.data (i land b.mask) x

let[@inline never] lost_item () =
  failwith "Deque: consumed index holds no value (slot recycled under CAS)"

(* a successfully consumed index must hold a value; see header *)
let checked = function Some _ as x -> x | None -> lost_item ()

(* owner only: double the capacity, copying the live window.  The new
   buffer is published with a release store before the element that
   triggered the growth is written, so thieves only ever see fully
   initialized generations. *)
let grow t b top bottom =
  let retain = not !Hooks.drop_retired in
  let nb =
    if retain then make_buffer ~prev:b (2 * (b.mask + 1))
    else make_buffer (2 * (b.mask + 1))
  in
  for i = top to bottom - 1 do
    buf_set nb i (buf_get b i)
  done;
  Atomic.set t.buf nb;
  if not retain then begin
    (* test-only mutation: the retired generation is reclaimed while a
       thief may still hold it — see Hooks above *)
    yield_point "grow.recycle";
    Array.fill b.data 0 (Array.length b.data) None
  end;
  nb

let push t x =
  let b = Atomic.get t.bottom in
  let tp = Atomic.get t.top in
  let buf = Atomic.get t.buf in
  let buf = if b - tp > buf.mask then grow t buf tp b else buf in
  buf_set buf b (Some x);
  yield_point "push.slot";
  (* release: the slot write above becomes visible to any thief that
     subsequently observes bottom = b + 1 *)
  Atomic.set t.bottom (b + 1)

let pop t =
  let b = Atomic.get t.bottom - 1 in
  let buf = Atomic.get t.buf in
  (* reserve the cell before reading top: after this store a thief's
     t < b test excludes index b, so the owner owns the slot unless the
     deque is down to its last element *)
  Atomic.set t.bottom b;
  yield_point "pop.reserve";
  let tp = Atomic.get t.top in
  if b < tp then begin
    (* empty: restore the canonical empty state bottom = top *)
    Atomic.set t.bottom tp;
    None
  end
  else if b > tp then begin
    (* more than one element: the slot is owner-private *)
    let x = buf_get buf b in
    buf_set buf b None;
    (* clear for GC; owner-only slot *)
    checked x
  end
  else begin
    (* last element: race thieves with the same CAS they use *)
    yield_point "pop.last";
    let won = Atomic.compare_and_set t.top tp (tp + 1) in
    let x =
      if won then begin
        let x = buf_get buf b in
        (* dead slot: every thief that still reads it fails its CAS *)
        buf_set buf b None;
        checked x
      end
      else None
    in
    Atomic.set t.bottom (tp + 1);
    x
  end

let steal t =
  let tp = Atomic.get t.top in
  let b = Atomic.get t.bottom in
  if tp >= b then None
  else begin
    (* read the buffer after top/bottom, and the slot before the CAS:
       the CAS then certifies top was [tp] throughout, which (with the
       capacity bound, see header) pins the slot's value *)
    let buf = Atomic.get t.buf in
    yield_point "steal.slot";
    let x = buf_get buf tp in
    yield_point "steal.cas";
    if Atomic.compare_and_set t.top tp (tp + 1) then checked x else None
  end

let size t =
  (* read top first: top only grows, so the difference can transiently
     under-report but never goes negative for a quiescent deque; clamp
     for the racing case where a pop's bottom rollback is mid-flight *)
  let tp = Atomic.get t.top in
  let b = Atomic.get t.bottom in
  max 0 (b - tp)
