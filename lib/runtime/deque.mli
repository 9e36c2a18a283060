(** Chase–Lev work-stealing deque on OCaml 5 atomics.

    Single-owner: only the owner calls {!push} and {!pop} (bottom end);
    any domain may call {!steal} (top end).  Lock-free; the only
    synchronized contention is the owner/thief race on the last element,
    resolved with a compare-and-set on [top].  The buffer grows
    geometrically and never shrinks; retired buffer generations are
    retained (linked from their replacement) so a thief holding an old
    generation never observes a recycled slot — see the memory-model
    argument at the top of [deque.ml], which follows Le, Pop, Cohen &
    Nardelli (PPoPP 2013).  Consumed slots are cleared so the deque
    never pins dead work items against the GC. *)

type 'a t

(** [create ()] — an empty deque (initial capacity 16). *)
val create : unit -> 'a t

(** [push t x] — owner only: push on the bottom. *)
val push : 'a t -> 'a -> unit

(** [pop t] — owner only: pop from the bottom (LIFO). *)
val pop : 'a t -> 'a option

(** [steal t] — any domain: take from the top (FIFO); [None] when the
    deque looks empty or the race was lost. *)
val steal : 'a t -> 'a option

(** [size t] — instantaneous size (approximate under concurrency;
    never negative: [top] is read first and only ever grows). *)
val size : 'a t -> int

(** {2 Test-only hooks}

    Verification seams for the conformance harness ([Nd_check]); never
    set these in production code. *)
module Hooks : sig
  (** [set_yield (Some f)] installs a preemption callback invoked (with
      a label naming the point) between the individual loads/stores of
      {!push}, {!pop}, {!steal} and the internal grow — the explorer
      performs an effect there to hand control back to its scheduler,
      so a single domain can enumerate the interleavings real domains
      only hit by timing.  The hook belongs to the calling domain:
      deques used on other domains never call it, so an exploration
      can run beside real work in the same process.  With no hook
      installed on any domain (the default) each point costs one load
      and branch. *)
  val set_yield : (string -> unit) option -> unit

  (** [set_drop_retired true] re-introduces the pre-hardening bug
      class behind the retired-buffer retention: grow stops linking
      the old generation and makes its retirement observable by
      clearing the old slots (modelling the reclaim that retention
      prevents).  A thief suspended between its buffer read and slot
      read then consumes a cleared slot and trips the hard
      [lost_item] failure.  Exists solely so the mutation smoke test
      can prove the explorer detects this bug class. *)
  val set_drop_retired : bool -> unit
end
