module Trace = Mm_obs.Trace
module J = Mm_obs.Json

let src = Logs.Src.create "mm_service" ~doc:"mapping service daemon"

module Log = (val Logs.src_log src : Logs.LOG)

type options = {
  socket_path : string;
  workers : int;
  queue_capacity : int;
  cache_capacity : int;
  default_knobs : Knobs.t;
  trace : Trace.t;
  cache_file : string option;
}

let options ?(workers = 2) ?(queue_capacity = 16) ?(cache_capacity = 64)
    ?(default_knobs = Knobs.default) ?(trace = Trace.disabled) ?cache_file
    socket_path =
  {
    socket_path;
    workers;
    queue_capacity;
    cache_capacity;
    default_knobs;
    trace;
    cache_file;
  }

(* ---- bounded job queue ------------------------------------------------ *)

(* Requests are decoded at admission (the reader thread), not by the
   worker: a malformed request is answered inline without occupying a
   queue slot, and workers spend their time only on solves. *)
type job = {
  req : Request.t;
  queued_ns : int64;
  reply : string -> unit;
}

type queue = {
  mu : Mutex.t;
  not_empty : Condition.t;
  jobs : job Queue.t;
  capacity : int;
  mutable stopped : bool;
}

let queue_create capacity =
  {
    mu = Mutex.create ();
    not_empty = Condition.create ();
    jobs = Queue.create ();
    capacity;
    stopped = false;
  }

(* [false] when the queue is full (or stopping): the caller answers
   [overloaded] inline instead of blocking the connection reader —
   explicit backpressure, never an unbounded buffer. *)
let queue_try_push q job =
  Mutex.lock q.mu;
  let ok = (not q.stopped) && Queue.length q.jobs < q.capacity in
  if ok then begin
    Queue.push job q.jobs;
    Condition.signal q.not_empty
  end;
  Mutex.unlock q.mu;
  ok

(* blocks for work; [None] once stopped and drained *)
let queue_pop q =
  Mutex.lock q.mu;
  let rec wait () =
    if not (Queue.is_empty q.jobs) then Some (Queue.pop q.jobs)
    else if q.stopped then None
    else begin
      Condition.wait q.not_empty q.mu;
      wait ()
    end
  in
  let job = wait () in
  Mutex.unlock q.mu;
  job

let queue_stop q =
  Mutex.lock q.mu;
  q.stopped <- true;
  Condition.broadcast q.not_empty;
  Mutex.unlock q.mu

let queue_depth q =
  Mutex.lock q.mu;
  let n = Queue.length q.jobs in
  Mutex.unlock q.mu;
  n

(* ---- request-level latency histograms --------------------------------- *)

(* One set per worker (histograms are single-writer, like trace sinks):
   queue wait from admission to dequeue, solve through {!Engine.handle},
   encode of the response line. Flushed to the worker's sink when it
   drains out, which is what [mmap trace-summary] turns into p50/p99
   service latency. *)
type timing = {
  queue_wait : Trace.hist;
  solve : Trace.hist;
  encode : Trace.hist;
}

let timing () =
  {
    queue_wait = Trace.hist_create ();
    solve = Trace.hist_create ();
    encode = Trace.hist_create ();
  }

let emit_timing snk tm =
  Trace.emit_hist snk "queue_wait" tm.queue_wait;
  Trace.emit_hist snk "solve" tm.solve;
  Trace.emit_hist snk "encode" tm.encode

(* ---- the daemon ------------------------------------------------------- *)

type conn = { fd : Unix.file_descr; thread : Thread.t }

exception Already_running of string

(* A socket file left behind by a crashed daemon would make [bind] fail
   with EADDRINUSE forever; unlinking unconditionally would steal the
   path from a live daemon. Disambiguate with a probe connect: a live
   daemon accepts it (refuse to start), a dead path is refused (reclaim
   it). *)
let claim_socket_path path =
  if Sys.file_exists path then begin
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let alive =
      match Unix.connect fd (Unix.ADDR_UNIX path) with
      | () -> true
      | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) ->
          false
      | exception e ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          raise e
    in
    (try Unix.close fd with Unix.Unix_error _ -> ());
    if alive then raise (Already_running path);
    Log.info (fun m -> m "reclaiming stale socket %s" path);
    try Unix.unlink path with Unix.Unix_error _ -> ()
  end

let run ?(on_ready = fun () -> ()) (o : options) =
  if Sys.os_type = "Unix" then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* probe before spawning worker domains so a refused start leaves
     nothing to tear down *)
  claim_socket_path o.socket_path;
  let engine = Engine.create ~cache_capacity:o.cache_capacity () in
  (match o.cache_file with
  | Some path when Sys.file_exists path -> (
      match Cache.load (Engine.cache engine) path with
      | Ok n -> Log.info (fun m -> m "warm cache: loaded %d entries from %s" n path)
      | Error e ->
          (* corrupt or stale file: cold start, never a refused boot *)
          Log.warn (fun m -> m "warm cache: ignoring %s (%s)" path e))
  | _ -> ());
  let q = queue_create o.queue_capacity in
  let stopping = ref false in
  let stop_mu = Mutex.create () in
  (* worker sinks are registered here, before any domain spawns, so
     slot numbers are deterministic (worker i gets slot i + 1) *)
  let nworkers = max 1 o.workers in
  let sinks = Array.init nworkers (fun _ -> Trace.register o.trace) in
  let workers =
    Array.init nworkers (fun i ->
        Domain.spawn (fun () ->
            let snk = sinks.(i) in
            let tm = timing () in
            let rec loop () =
              match queue_pop q with
              | None -> emit_timing snk tm
              | Some job ->
                  let t0 = Trace.now_ns () in
                  Trace.hist_add tm.queue_wait (Int64.sub t0 job.queued_ns);
                  let resp =
                    Trace.span snk "request" (fun () ->
                        Engine.handle engine ~snk job.req)
                  in
                  let t1 = Trace.now_ns () in
                  Trace.hist_add tm.solve (Int64.sub t1 t0);
                  let line = J.to_string (Request.response_to_json resp) in
                  Trace.hist_add tm.encode (Int64.sub (Trace.now_ns ()) t1);
                  job.reply line;
                  loop ()
            in
            loop ()))
  in
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind listen_fd (Unix.ADDR_UNIX o.socket_path);
     Unix.listen listen_fd 16
   with e ->
     (* lost a race for the path (or bind failed outright): drain the
        already-spawned workers before propagating *)
     (try Unix.close listen_fd with Unix.Unix_error _ -> ());
     queue_stop q;
     Array.iter Domain.join workers;
     raise e);
  let conns = ref [] in
  let conns_mu = Mutex.create () in
  let begin_stop () =
    Mutex.lock stop_mu;
    let first = not !stopping in
    stopping := true;
    Mutex.unlock stop_mu;
    if first then begin
      queue_stop q;
      (* neither [close] nor [shutdown] reliably interrupts a thread
         blocked in [accept] on an AF_UNIX listener (Linux), so nudge
         the accept loop awake with a throwaway self-connection; it
         re-checks [stopping] and exits *)
      try
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        (try Unix.connect fd (Unix.ADDR_UNIX o.socket_path)
         with Unix.Unix_error _ -> ());
        Unix.close fd
      with Unix.Unix_error _ -> ()
    end
  in
  let error_line ?(id = "") code message =
    J.to_string
      (Request.response_to_json
         (Request.Error_response { id; code; message }))
  in
  let stats_line id =
    J.to_string
      (J.Obj
         [
           ("id", J.Str id);
           ("status", J.Str "ok");
           ("op", J.Str "stats");
           ("cache", Cache.stats_to_json (Engine.cache_stats engine));
           ("queue_depth", J.Num (float_of_int (queue_depth q)));
           ("workers", J.Num (float_of_int nworkers));
         ])
  in
  let serve_conn fd =
    let ic = Unix.in_channel_of_descr fd in
    let oc = Unix.out_channel_of_descr fd in
    let wmu = Mutex.create () in
    let reply line =
      Mutex.lock wmu;
      (try
         output_string oc line;
         output_char oc '\n';
         flush oc
       with Sys_error _ | Unix.Unix_error _ -> ());
      Mutex.unlock wmu
    in
    let handle_line line =
      if String.trim line = "" then ()
      else
        match J.of_string line with
        | Error msg ->
            reply (error_line Request.Bad_request ("request: " ^ msg))
        | Ok json -> (
            let id =
              Option.value
                (Option.bind (J.member "id" json) J.to_str)
                ~default:""
            in
            match Option.bind (J.member "op" json) J.to_str with
            | Some "stats" -> reply (stats_line id)
            | Some "shutdown" ->
                reply
                  (J.to_string
                     (J.Obj
                        [
                          ("id", J.Str id);
                          ("status", J.Str "ok");
                          ("op", J.Str "shutdown");
                        ]));
                begin_stop ()
            | Some op ->
                reply
                  (error_line ~id Request.Bad_request
                     (Printf.sprintf "unknown op %S" op))
            | None -> (
                match Request.of_json ~default:o.default_knobs json with
                | Error msg ->
                    reply (error_line ~id Request.Bad_request msg)
                | Ok req ->
                    let job = { req; queued_ns = Trace.now_ns (); reply } in
                    if not (queue_try_push q job) then
                      reply
                        (error_line ~id Request.Overloaded
                           "request queue full, retry later")))
    in
    (try
       let rec read_loop () =
         match input_line ic with
         | line ->
             handle_line line;
             read_loop ()
         | exception (End_of_file | Sys_error _) -> ()
       in
       read_loop ()
     with Unix.Unix_error _ -> ());
    try Unix.close fd with Unix.Unix_error _ -> ()
  in
  Log.info (fun m ->
      m "listening on %s (%d workers, queue %d, cache %d)" o.socket_path
        nworkers o.queue_capacity o.cache_capacity);
  on_ready ();
  (try
     while not !stopping do
       let fd, _ = Unix.accept listen_fd in
       let thread = Thread.create serve_conn fd in
       Mutex.lock conns_mu;
       conns := { fd; thread } :: !conns;
       Mutex.unlock conns_mu
     done
   with Unix.Unix_error _ -> ());
  begin_stop ();
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  Array.iter Domain.join workers;
  (* workers are drained: every lease is back, so the snapshot is
     complete *)
  (match o.cache_file with
  | Some path -> (
      match Cache.save (Engine.cache engine) path with
      | Ok n -> Log.info (fun m -> m "warm cache: saved %d entries to %s" n path)
      | Error e -> Log.warn (fun m -> m "warm cache: save to %s failed: %s" path e))
  | None -> ());
  (* wake readers blocked on idle connections, then wait them out *)
  Mutex.lock conns_mu;
  let cs = !conns in
  Mutex.unlock conns_mu;
  List.iter
    (fun c ->
      try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    cs;
  List.iter (fun c -> Thread.join c.thread) cs;
  (try Unix.unlink o.socket_path with Unix.Unix_error _ -> ());
  Log.info (fun m -> m "stopped");
  Engine.cache_stats engine
