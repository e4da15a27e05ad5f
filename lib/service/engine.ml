module Trace = Mm_obs.Trace

type t = { cache : Cache.t }

let create ?(cache_capacity = 64) () =
  { cache = Cache.create ~capacity:cache_capacity }

let cache t = t.cache
let cache_stats t = Cache.stats t.cache

let code_of_error = function
  | Mm_mapping.Mapper.Unmappable _ -> Request.Unmappable
  | Mm_mapping.Mapper.Retries_exhausted _ -> Request.Retries_exhausted
  | Mm_mapping.Mapper.Solver_limit -> Request.Solver_limit

let solve (lease : Cache.lease) (req : Request.t) =
  let warm_solves = Mm_lp.Solver.warm_solves lease.Cache.warm in
  (* the mapper runs with tracing disabled: the solver's own sinks are
     per-solve and the service records request-level spans itself, so
     worker domains never share the trace's root sink *)
  let options =
    Mm_mapping.Mapper.options
      ~solver_options:(Knobs.to_solver_options req.Request.knobs)
      ()
  in
  let result =
    try
      Ok
        (Mm_mapping.Mapper.run ~method_:req.Request.method_ ~options
           ~warm:lease.Cache.warm req.Request.board req.Request.design)
    with exn -> Error (Printexc.to_string exn)
  in
  match result with
  | Ok (Ok outcome) ->
      let report =
        Mm_mapping.Report.to_json
          (Mm_mapping.Report.of_outcome req.Request.board req.Request.design
             outcome)
      in
      Request.Ok_response
        { id = req.Request.id; cache_hit = lease.Cache.hit; warm_solves; report }
  | Ok (Error e) ->
      Request.Error_response
        {
          id = req.Request.id;
          code = code_of_error e;
          message = Mm_mapping.Mapper.error_to_string e;
        }
  | Error msg ->
      Request.Error_response
        { id = req.Request.id; code = Request.Server_error; message = msg }

let handle t ?(snk = Trace.null) (req : Request.t) =
  let key = Request.fingerprint req in
  let lease = Cache.acquire t.cache key in
  Trace.count snk (if lease.Cache.hit then "cache_hit" else "cache_miss") 1;
  Fun.protect
    ~finally:(fun () -> Cache.release t.cache lease)
    (fun () -> solve lease req)
