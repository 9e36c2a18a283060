(** The analysis daemon: a socket front-end over the whole offline
    toolchain (lint, ESP race verdicts, space-bounded simulation, fuzz,
    experiment tables), with keyed artifact caches so repeated queries
    are O(lookup).

    Topology (see DESIGN.md section 11): one accept loop; one reader
    thread per connection decoding length-prefixed
    {!Nd_util.Json.Frame}s; every decoded request except [ping],
    [stats] and [shutdown] is submitted as a root fiber to one shared
    {!Nd_runtime.Fiber_exec} pool of [workers] domains, which execute
    it and write the response frame back under the connection's write
    lock (responses may therefore interleave across requests — clients
    match on [id]).  A handler that parks on a promise frees its worker
    for other requests.  At most [max 1 (workers - 1)] [fuzz] and
    [suite] requests run at once; the rest park until one finishes, so
    with two or more workers the other kinds always keep one.  [ping],
    [stats] and [shutdown] are answered inline by the reader thread.

    Per-request latency (decode to response written, queue wait
    included) is recorded in one mutex-guarded {!Nd_util.Histogram}
    per request kind, whichever thread answered it, and snapshotted by
    the [stats] request. *)

type config = {
  addr : Protocol.addr;
  workers : int;
      (** domains in the fiber pool (clamped to [>= 1]); default
          {!Nd_runtime.Executor.default_workers}, which honours
          [NDSIM_WORKERS].  They spawn on the first pooled request. *)
  max_frame : int;  (** reject frames above this many payload bytes *)
  program_cache_cap : int;  (** compiled-workload entries *)
  result_cache_cap : int;  (** entries per result cache *)
  quiet : bool;
}

val default_config : Protocol.addr -> config

(** The standard simulation machine of the CLI: three cache levels
    (64/512/4096 words) under [top] root caches, 16 processors each. *)
val standard_machine : top:int -> Nd_pmh.Pmh.t

(** [run config] — bind, serve until a [shutdown] request (or
    SIGINT/SIGTERM), drain the fiber pool, clean up the socket.  Blocks
    for the server's whole life; returns on clean shutdown.
    @raise Unix.Unix_error when the address cannot be bound. *)
val run : config -> unit
