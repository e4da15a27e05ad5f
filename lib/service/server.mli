(** The [mmap serve] daemon: newline-delimited JSON over a Unix-domain
    socket.

    Architecture (see DESIGN.md §13):

    - one reader {e thread} per accepted connection parses lines and
      classifies them: control ops ([{"op":"stats"}],
      [{"op":"shutdown"}]) are answered inline; mapping requests are
      decoded there too (a malformed one is answered [bad_request]
      inline and takes no queue slot) and pushed onto the bounded job
      queue;
    - the queue is mutex/condvar-bounded ([queue_capacity]); when it is
      full the reader answers [{"status":"error","code":"overloaded"}]
      immediately instead of buffering — clients get explicit
      backpressure, the daemon's memory stays bounded;
    - [workers] OCaml {e domains} pop jobs in FIFO order, one at a
      time, and run {!Engine.handle} (warm-cache lease, mapper), then
      encode the response; each owns one trace sink and one set of
      queue-wait/solve/encode histograms, flushed when the worker
      drains out, so [mmap trace-summary] on the daemon's trace shows
      p50/p99 service latency;
    - responses are written back on the requesting connection under a
      per-connection write mutex (they may interleave across workers —
      match them by [id]);
    - request timeouts are the solver's time-limit path: a request's
      [knobs.time_limit] bounds its ILP search, and an expired budget
      surfaces as a [solver_limit] error response.

    Shutdown ([{"op":"shutdown"}]) is graceful: the ack is written, the
    listener closes, queued jobs drain, workers join (flushing their
    histograms), idle connections are torn down and the socket path is
    unlinked. *)

type options = {
  socket_path : string;
  workers : int;  (** worker domains, default 2 *)
  queue_capacity : int;
      (** pending-request bound, default 16; [0] rejects every request
          that reaches the queue (useful to test backpressure) *)
  cache_capacity : int;  (** warm-cache boards retained, default 64 *)
  default_knobs : Knobs.t;
      (** solver knobs for requests that carry no [knobs] field — the
          daemon's command-line flags *)
  trace : Mm_obs.Trace.t;
      (** worker sinks register here; dump it after {!run} returns *)
  cache_file : string option;
      (** warm-cache persistence path: loaded (if present and valid)
          before accepting, saved on graceful shutdown; a corrupt file
          is logged and ignored (cold start), default [None] *)
}

val options :
  ?workers:int ->
  ?queue_capacity:int ->
  ?cache_capacity:int ->
  ?default_knobs:Knobs.t ->
  ?trace:Mm_obs.Trace.t ->
  ?cache_file:string ->
  string ->
  options

exception Already_running of string
(** Raised by {!run} when the socket path is already served by a live
    daemon (a probe connect was accepted). *)

val run : ?on_ready:(unit -> unit) -> options -> Cache.stats
(** Binds [socket_path], calls [on_ready] once accepting, and blocks
    until a shutdown op arrives. An existing socket file is probed with
    a connect first: a dead (stale) one is unlinked and reclaimed, a
    live one raises {!Already_running}. Returns the final warm-cache
    statistics. Only call the trace's [write_jsonl]/[dump_lines] after
    this returns — worker sinks are single-writer. *)
