(** The service's request processor, socket-free: lease warm state, run
    the mapper, classify the outcome. {!Server} workers drive this over
    the Unix socket after decoding each request at admission; tests and
    the bench harness drive it directly (the [serve_warm_ab] cell
    measures warm-vs-cold through the same path the daemon uses).
    Thread- and domain-safe: all shared state lives in the {!Cache}. *)

type t

val create : ?cache_capacity:int -> unit -> t
(** Default capacity 64 boards; [0] disables warm-start caching. *)

val cache : t -> Cache.t
(** The engine's warm cache — exposed so the server can persist it
    across restarts ({!Cache.save} / {!Cache.load}). *)

val cache_stats : t -> Cache.stats

val handle : t -> ?snk:Mm_obs.Trace.sink -> Request.t -> Request.response
(** Process one decoded request: acquire a warm-cache lease
    ({!Request.fingerprint} key), run {!Mm_mapping.Mapper.run} with the
    leased state and the request's knobs (tracing disabled inside the
    mapper — the solver's root sink is single-writer and the service is
    not), release the lease, classify the outcome. Records a
    [cache_hit]/[cache_miss] counter on [snk]. Never raises: mapper
    exceptions become [Server_error] responses. *)
