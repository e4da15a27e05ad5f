open Mm_service
module J = Mm_obs.Json

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 0x5eed; 2026 |])
    (QCheck.Test.make ~count ~name gen prop)

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* --- generators ------------------------------------------------------------ *)

let knobs_gen =
  QCheck.Gen.(
    let* parallelism = int_range 0 4 in
    let* cuts = bool in
    let* heuristics = bool in
    let* time_limit =
      oneof [ return None; map (fun f -> Some f) (float_range 0.125 8.0) ]
    in
    return
      (Knobs.make ~parallelism ~cuts ~heuristics ?time_limit ()))

let knobs_arb = QCheck.make ~print:(fun k -> J.to_string (Knobs.to_json k)) knobs_gen

let instance_of_seed seed =
  let rng = Mm_util.Prng.create seed in
  let board = Mm_workload.Gen.random_board rng in
  let design = Mm_workload.Gen.random_design rng ~segments:3 board in
  (board, design)

let request_gen =
  QCheck.Gen.(
    let* seed = int_range 1 10_000 in
    let* id = string_size ~gen:(char_range 'a' 'z') (int_range 0 8) in
    let* method_ =
      oneofl [ Mm_mapping.Mapper.Global_detailed; Mm_mapping.Mapper.Complete_flat ]
    in
    let* knobs = knobs_gen in
    let board, design = instance_of_seed seed in
    return (Request.make ~id ~method_ ~knobs board design))

let request_arb =
  QCheck.make ~print:(fun r -> J.to_string (Request.to_json r)) request_gen

let response_gen =
  QCheck.Gen.(
    let id_gen = string_size ~gen:(char_range 'a' 'z') (int_range 0 8) in
    oneof
      [
        (let* id = id_gen in
         let* cache_hit = bool in
         let* warm_solves = int_range 0 50 in
         let* objective = float_range 0.0 1e6 in
         return
           (Request.Ok_response
              {
                id;
                cache_hit;
                warm_solves;
                report = J.Obj [ ("objective", J.Num objective) ];
              }));
        (let* id = id_gen in
         let* code =
           oneofl
             Request.
               [
                 Bad_request; Overloaded; Unmappable; Retries_exhausted;
                 Solver_limit; Server_error;
               ]
         in
         let* message = string_size ~gen:printable (int_range 0 30) in
         return (Request.Error_response { id; code; message }));
      ])

let response_arb =
  QCheck.make
    ~print:(fun r -> J.to_string (Request.response_to_json r))
    response_gen

(* --- codec round-trips ------------------------------------------------------ *)

let prop_knobs_roundtrip =
  qtest "Knobs.of_json (to_json k) = Ok k" knobs_arb (fun k ->
      match Knobs.of_json (Knobs.to_json k) with
      | Ok k' -> k' = k
      | Error e -> QCheck.Test.fail_reportf "decode error: %s" e)

let prop_knobs_fingerprint_ignores_time_limit =
  qtest "fingerprint_string drops the time limit" knobs_arb (fun k ->
      let k' = { k with Knobs.time_limit = Some 42.0 } in
      Knobs.fingerprint_string k = Knobs.fingerprint_string k')

(* a pure decode: an out-of-range value never reaches a solve, which
   would build one simplex instance per requested worker *)
let test_knobs_bound_parallelism () =
  let decode n =
    Knobs.of_json (J.Obj [ ("parallelism", J.Num (float_of_int n)) ])
  in
  List.iter
    (fun n ->
      match decode n with
      | Ok _ -> Alcotest.failf "parallelism %d accepted" n
      | Error e ->
          Alcotest.(check bool)
            (Printf.sprintf "parallelism %d named in %S" n e)
            true
            (contains e "parallelism"))
    [ 1_000_000; -1; Knobs.max_parallelism + 1 ];
  List.iter
    (fun n ->
      match decode n with
      | Ok k -> Alcotest.(check int) "decoded" n k.Knobs.parallelism
      | Error e -> Alcotest.failf "parallelism %d rejected: %s" n e)
    [ 0; Knobs.max_parallelism ]

let prop_request_roundtrip =
  qtest ~count:40 "Request.of_json (to_json r) round-trips" request_arb
    (fun r ->
      match Request.of_json (Request.to_json r) with
      | Error e -> QCheck.Test.fail_reportf "decode error: %s" e
      | Ok r' ->
          r'.Request.id = r.Request.id
          && r'.Request.method_ = r.Request.method_
          && r'.Request.knobs = r.Request.knobs
          && Mm_io.Board_file.to_string r'.Request.board
             = Mm_io.Board_file.to_string r.Request.board
          && Mm_io.Design_file.to_string r'.Request.design
             = Mm_io.Design_file.to_string r.Request.design)

let prop_request_fingerprint_canonical =
  (* the fingerprint must not care about input formatting: re-parsing
     the canonical text yields the same key *)
  qtest ~count:40 "fingerprint survives a text round-trip" request_arb
    (fun r ->
      let board =
        Result.get_ok
          (Mm_io.Board_file.parse (Mm_io.Board_file.to_string r.Request.board))
      in
      let design =
        Result.get_ok
          (Mm_io.Design_file.parse
             (Mm_io.Design_file.to_string r.Request.design))
      in
      let r' =
        Request.make ~id:"other-id" ~method_:r.Request.method_
          ~knobs:r.Request.knobs board design
      in
      Request.fingerprint r' = Request.fingerprint r)

let prop_fingerprint_tracks_knob_fingerprint =
  (* two requests for the same board, design and method share a
     warm-cache key iff their knobs agree on every fingerprinted field —
     any solver-visible difference must separate them *)
  qtest ~count:60 "fingerprint separates exactly on knob fingerprint"
    (QCheck.pair request_arb knobs_arb) (fun (r, k2) ->
      let r2 = { r with Request.knobs = k2 } in
      let same_fp =
        Knobs.fingerprint_string r.Request.knobs = Knobs.fingerprint_string k2
      in
      (Request.fingerprint r = Request.fingerprint r2) = same_fp)

let prop_fingerprint_ignores_time_limit =
  qtest ~count:40 "time limit never separates a fingerprint" request_arb
    (fun r ->
      let r2 =
        {
          r with
          Request.knobs = { r.Request.knobs with Knobs.time_limit = Some 42.0 };
        }
      in
      Request.fingerprint r = Request.fingerprint r2)

let prop_response_roundtrip =
  qtest "response_of_json (response_to_json r) = Ok r" response_arb (fun r ->
      match Request.response_of_json (Request.response_to_json r) with
      | Ok r' -> r' = r
      | Error e -> QCheck.Test.fail_reportf "decode error: %s" e)

let prop_wire_line_roundtrip =
  qtest ~count:40 "requests survive the printed wire line" request_arb
    (fun r ->
      let line = J.to_string (Request.to_json r) in
      match J.of_string line with
      | Error e -> QCheck.Test.fail_reportf "json parse: %s" e
      | Ok json -> (
          match Request.of_json json with
          | Ok r' -> Request.fingerprint r' = Request.fingerprint r
          | Error e -> QCheck.Test.fail_reportf "decode: %s" e))

(* --- Report.to_json --------------------------------------------------------- *)

let small_instance () =
  Mm_workload.Gen.instance
    { Mm_workload.Gen.segments = 4; banks = 4; ports = 6; configs = 5; seed = 7 }

let solved_report () =
  let board, design = small_instance () in
  match Mm_mapping.Mapper.run board design with
  | Error e -> Alcotest.failf "mapper: %s" (Mm_mapping.Mapper.error_to_string e)
  | Ok o -> (board, design, o, Mm_mapping.Report.of_outcome board design o)

let test_report_json_shape () =
  let _, design, o, report = solved_report () in
  let json = Mm_mapping.Report.to_json report in
  let str path = Option.bind (J.member path json) J.to_str in
  let num path = Option.bind (J.member path json) J.to_float in
  Alcotest.(check (option string)) "method" (Some "global") (str "method");
  Alcotest.(check (option string)) "status" (Some "optimal") (str "status");
  Alcotest.(check (option (float 1e-6)))
    "objective" (Some o.Mm_mapping.Mapper.objective) (num "objective");
  (match J.member "attempts" json with
  | Some (J.List attempts) ->
      Alcotest.(check int)
        "one attempt entry per mapper attempt"
        (List.length o.Mm_mapping.Mapper.attempts)
        (List.length attempts)
  | _ -> Alcotest.fail "attempts array missing");
  (match J.member "assignment" json with
  | Some (J.List rows) ->
      Alcotest.(check int)
        "assignment covers every segment"
        (Array.length design.Mm_design.Design.segments)
        (List.length rows)
  | _ -> Alcotest.fail "assignment array missing");
  match J.member "lp" json with
  | Some lp ->
      Alcotest.(check bool)
        "lp.nodes present" true
        (Option.is_some (J.member "nodes" lp))
  | None -> Alcotest.fail "lp object missing"

let test_report_json_parses_back () =
  let _, _, _, report = solved_report () in
  let line = J.to_string (Mm_mapping.Report.to_json report) in
  match J.of_string line with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "report JSON does not re-parse: %s" e

let test_mapper_attempts_recorded () =
  let board, design = small_instance () in
  match Mm_mapping.Mapper.run board design with
  | Error e -> Alcotest.failf "mapper: %s" (Mm_mapping.Mapper.error_to_string e)
  | Ok o ->
      Alcotest.(check int)
        "attempts = retries + 1"
        (o.Mm_mapping.Mapper.retries + 1)
        (List.length o.Mm_mapping.Mapper.attempts);
      let last =
        List.nth o.Mm_mapping.Mapper.attempts
          (List.length o.Mm_mapping.Mapper.attempts - 1)
      in
      Alcotest.(check (option string))
        "winning attempt has no detailed failure" None
        last.Mm_mapping.Mapper.detailed_failure;
      List.iteri
        (fun i (a : Mm_mapping.Mapper.attempt) ->
          Alcotest.(check int) "attempt indices are chronological" i
            a.Mm_mapping.Mapper.index)
        o.Mm_mapping.Mapper.attempts

let test_fingerprint_separates_designs () =
  (* warm state trained on one design is not valid for another on the
     same board *)
  let board, design = small_instance () in
  let rng = Mm_util.Prng.create 99 in
  let design2 = Mm_workload.Gen.random_design rng ~segments:5 board in
  let r1 = Request.make ~id:"a" board design in
  let r2 = Request.make ~id:"b" board design2 in
  if
    Mm_io.Design_file.to_string design <> Mm_io.Design_file.to_string design2
  then
    Alcotest.(check bool)
      "distinct designs get distinct fingerprints" true
      (Request.fingerprint r1 <> Request.fingerprint r2)

(* --- cache ------------------------------------------------------------------ *)

let test_cache_lease_semantics () =
  let c = Cache.create ~capacity:2 in
  let l1 = Cache.acquire c "k1" in
  Alcotest.(check bool) "first acquire misses" false l1.Cache.hit;
  (* concurrent same-key acquire must not share the leased state *)
  let l1' = Cache.acquire c "k1" in
  Alcotest.(check bool) "racing acquire misses" false l1'.Cache.hit;
  Cache.release c l1;
  Cache.release c l1';
  let l2 = Cache.acquire c "k1" in
  Alcotest.(check bool) "re-acquire after release hits" true l2.Cache.hit;
  Cache.release c l2;
  let s = Cache.stats c in
  Alcotest.(check int) "hits" 1 s.Cache.hits;
  Alcotest.(check int) "misses" 2 s.Cache.misses;
  Alcotest.(check int) "entries" 1 s.Cache.entries

let test_cache_lru_eviction () =
  let c = Cache.create ~capacity:2 in
  let touch k = Cache.release c (Cache.acquire c k) in
  touch "a";
  touch "b";
  touch "a";
  (* "b" is now least recently used *)
  touch "c";
  Alcotest.(check int) "one eviction counted" 1 (Cache.stats c).Cache.evictions;
  let la = Cache.acquire c "a" in
  Alcotest.(check bool) "recently-used survives" true la.Cache.hit;
  Cache.release c la;
  let lb = Cache.acquire c "b" in
  Alcotest.(check bool) "LRU entry was evicted" false lb.Cache.hit;
  Cache.release c lb

let test_cache_capacity_zero () =
  let c = Cache.create ~capacity:0 in
  let touch k = Cache.release c (Cache.acquire c k) in
  touch "a";
  touch "a";
  let s = Cache.stats c in
  Alcotest.(check int) "never hits" 0 s.Cache.hits;
  Alcotest.(check int) "nothing retained" 0 s.Cache.entries

(* --- engine ----------------------------------------------------------------- *)

let test_engine_warm_cache_hits () =
  let board, design = small_instance () in
  let engine = Engine.create () in
  let req = Request.make ~id:"r" board design in
  let once () =
    match Engine.handle engine req with
    | Request.Ok_response { cache_hit; warm_solves; report; _ } ->
        (cache_hit, warm_solves, report)
    | Request.Error_response { message; _ } ->
        Alcotest.failf "engine error: %s" message
  in
  let hit1, solves1, report1 = once () in
  Alcotest.(check bool) "first solve is a miss" false hit1;
  Alcotest.(check int) "fresh state has no training" 0 solves1;
  let hit2, solves2, report2 = once () in
  Alcotest.(check bool) "second solve hits" true hit2;
  Alcotest.(check bool) "trained by the first solve" true (solves2 > 0);
  (* identical objectives warm and cold: warm starts must not change
     the optimum *)
  let obj report =
    match Option.bind (J.member "objective" report) J.to_float with
    | Some x -> x
    | None -> Alcotest.fail "no objective in report"
  in
  Alcotest.(check (float 1e-6)) "same objective" (obj report1) (obj report2);
  let warm =
    match J.member "lp" report2 with
    | Some lp -> J.member "warm_applied" lp
    | None -> None
  in
  match warm with
  | Some (J.List (_ :: _)) -> ()
  | _ -> Alcotest.fail "warm solve did not record warm_applied"

let test_engine_time_limit () =
  (* an unreachably small budget must surface as solver_limit, the
     service's request-timeout path *)
  let board, design =
    Mm_workload.Gen.instance
      {
        Mm_workload.Gen.segments = 10; banks = 8; ports = 14; configs = 10;
        seed = 11;
      }
  in
  let engine = Engine.create () in
  let knobs = Knobs.make ~time_limit:1e-9 ~heuristics:false () in
  let req = Request.make ~id:"t" ~knobs board design in
  match Engine.handle engine req with
  | Request.Error_response { code = Request.Solver_limit; _ } -> ()
  | Request.Error_response { code; message; _ } ->
      Alcotest.failf "expected solver_limit, got %s: %s"
        (Request.error_code_to_string code)
        message
  | Request.Ok_response _ ->
      (* tiny instances may still solve within the first time check;
         accept but require the report to exist *)
      ()

(* --- server ----------------------------------------------------------------- *)

let with_server ?(workers = 2) ?(queue_capacity = 16) ?cache_file f =
  let dir = Filename.temp_file "mm_service_test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let socket = Filename.concat dir "mm.sock" in
  let opts = Server.options ~workers ~queue_capacity ?cache_file socket in
  let ready_mu = Mutex.create () in
  let ready_cv = Condition.create () in
  let ready = ref false in
  let on_ready () =
    Mutex.lock ready_mu;
    ready := true;
    Condition.signal ready_cv;
    Mutex.unlock ready_mu
  in
  let stats = ref None in
  let srv = Thread.create (fun () -> stats := Some (Server.run ~on_ready opts)) () in
  Mutex.lock ready_mu;
  while not !ready do
    Condition.wait ready_cv ready_mu
  done;
  Mutex.unlock ready_mu;
  Fun.protect
    ~finally:(fun () ->
      ignore (Client.request ~socket {|{"id":"fin","op":"shutdown"}|});
      Thread.join srv;
      (try Sys.remove socket with Sys_error _ -> ());
      (try Unix.rmdir dir with Unix.Unix_error _ -> ()))
    (fun () -> f socket)
  |> fun r -> (r, !stats)

let decode_response line =
  match J.of_string line with
  | Error e -> Alcotest.failf "response is not JSON: %s (%s)" e line
  | Ok json -> (
      match Request.response_of_json json with
      | Ok r -> r
      | Error e -> Alcotest.failf "response does not decode: %s (%s)" e line)

let test_server_concurrent_clients () =
  let board, design = small_instance () in
  let nclients = 4 in
  let per_client = 2 in
  let (), stats =
    with_server (fun socket ->
        let results = Array.make nclients (Error "never ran") in
        let client i =
          let lines =
            List.init per_client (fun j ->
                let id = Printf.sprintf "c%d-%d" i j in
                J.to_string
                  (Request.to_json (Request.make ~id board design)))
          in
          results.(i) <- Client.roundtrip ~socket lines
        in
        let threads = List.init nclients (fun i -> Thread.create client i) in
        List.iter Thread.join threads;
        let replies =
          Array.to_list results
          |> List.concat_map (function
               | Ok lines -> lines
               | Error e -> Alcotest.failf "client failed: %s" e)
        in
        Alcotest.(check int)
          "every request answered"
          (nclients * per_client)
          (List.length replies);
        List.iter
          (fun line ->
            match decode_response line with
            | Request.Ok_response r ->
                Alcotest.(check bool) "id echoed" true (String.length r.id > 0)
            | Request.Error_response { code; message; _ } ->
                Alcotest.failf "unexpected error %s: %s"
                  (Request.error_code_to_string code)
                  message)
          replies)
  in
  match stats with
  | None -> Alcotest.fail "server did not return stats"
  | Some s ->
      Alcotest.(check int)
        "every request hit the cache path"
        (nclients * per_client)
        (s.Cache.hits + s.Cache.misses);
      (* all clients solve the same instance: once one solve has
         trained the entry, the rest hit *)
      Alcotest.(check bool) "warm cache was reused" true (s.Cache.hits > 0)

let test_server_backpressure () =
  let board, design = small_instance () in
  let (), _ =
    with_server ~queue_capacity:0 (fun socket ->
        let line =
          J.to_string (Request.to_json (Request.make ~id:"bp" board design))
        in
        match Client.request ~socket line with
        | Error e -> Alcotest.failf "client: %s" e
        | Ok reply -> (
            match decode_response reply with
            | Request.Error_response { id; code = Request.Overloaded; _ } ->
                Alcotest.(check string) "id echoed" "bp" id
            | Request.Error_response { code; _ } ->
                Alcotest.failf "expected overloaded, got %s"
                  (Request.error_code_to_string code)
            | Request.Ok_response _ ->
                Alcotest.fail "zero-capacity queue accepted a request"))
  in
  ()

let test_server_reclaims_stale_socket () =
  (* a socket file left by a crashed daemon (bound but no listener
     behind it) must be reclaimed, not refused with EADDRINUSE *)
  let dir = Filename.temp_file "mm_service_stale" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let socket = Filename.concat dir "mm.sock" in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX socket);
  Unix.close fd;
  (* the dead path is still on disk *)
  Alcotest.(check bool) "stale file exists" true (Sys.file_exists socket);
  let opts = Server.options ~workers:1 socket in
  let ready_mu = Mutex.create () in
  let ready_cv = Condition.create () in
  let ready = ref false in
  let on_ready () =
    Mutex.lock ready_mu;
    ready := true;
    Condition.signal ready_cv;
    Mutex.unlock ready_mu
  in
  let srv = Thread.create (fun () -> ignore (Server.run ~on_ready opts)) () in
  Mutex.lock ready_mu;
  while not !ready do
    Condition.wait ready_cv ready_mu
  done;
  Mutex.unlock ready_mu;
  ignore (Client.request ~socket {|{"id":"fin","op":"shutdown"}|});
  Thread.join srv;
  (try Sys.remove socket with Sys_error _ -> ());
  (try Unix.rmdir dir with Unix.Unix_error _ -> ())

let test_server_refuses_live_socket () =
  (* a second daemon pointed at a live daemon's socket must raise
     Already_running instead of stealing the path *)
  let (), _ =
    with_server (fun socket ->
        (match Server.run (Server.options ~workers:1 socket) with
        | _ -> Alcotest.fail "second server bound a live socket"
        | exception Server.Already_running p ->
            Alcotest.(check string) "path reported" socket p);
        (* the probe must not have unlinked the live daemon's socket *)
        Alcotest.(check bool) "socket still present" true
          (Sys.file_exists socket))
  in
  ()

let test_server_control_ops () =
  let (), _ =
    with_server (fun socket ->
        (match Client.request ~socket {|{"id":"s","op":"stats"}|} with
        | Error e -> Alcotest.failf "stats: %s" e
        | Ok reply -> (
            match J.of_string reply with
            | Error e -> Alcotest.failf "stats reply not JSON: %s" e
            | Ok json ->
                Alcotest.(check (option string))
                  "stats id" (Some "s")
                  (Option.bind (J.member "id" json) J.to_str);
                Alcotest.(check bool)
                  "has cache object" true
                  (Option.is_some (J.member "cache" json))));
        (match Client.request ~socket {|{"id":"u","op":"reticulate"}|} with
        | Error e -> Alcotest.failf "unknown op: %s" e
        | Ok reply -> (
            match decode_response reply with
            | Request.Error_response { code = Request.Bad_request; _ } -> ()
            | _ -> Alcotest.fail "unknown op must be bad_request"));
        match Client.request ~socket "not json at all" with
        | Error e -> Alcotest.failf "garbage line: %s" e
        | Ok reply -> (
            match decode_response reply with
            | Request.Error_response { code = Request.Bad_request; _ } -> ()
            | _ -> Alcotest.fail "garbage must be bad_request"))
  in
  ()

let test_server_bad_request_echoes_id () =
  (* a request that fails to decode is answered at admission and still
     carries the client's id *)
  let (), _ =
    with_server (fun socket ->
        match Client.request ~socket {|{"id":"x"}|} with
        | Error e -> Alcotest.failf "undecodable request: %s" e
        | Ok reply -> (
            match decode_response reply with
            | Request.Error_response { id; code; _ } ->
                Alcotest.(check string) "echoes id" "x" id;
                Alcotest.(check string)
                  "bad_request" "bad_request"
                  (Request.error_code_to_string code)
            | Request.Ok_response _ ->
                Alcotest.fail "a boardless request must be bad_request"))
  in
  ()

let test_server_rejects_unknown_knobs () =
  (* a client still sending a removed field ([pricing], [lu_kernel],
     [cut_rounds], [max_cuts_per_round]) or a misspelled one must get a
     bad_request naming it instead of being silently served the default
     configuration *)
  let board, design = small_instance () in
  let line knobs =
    match Request.to_json (Request.make ~id:"k" board design) with
    | J.Obj kvs ->
        J.to_string
          (J.Obj
             (List.map
                (fun (f, v) -> if f = "knobs" then (f, knobs) else (f, v))
                kvs))
    | _ -> Alcotest.fail "request does not encode as an object"
  in
  let (), _ =
    with_server (fun socket ->
        List.iter
          (fun (field, value) ->
            match Client.request ~socket (line (J.Obj [ (field, value) ])) with
            | Error e -> Alcotest.failf "%s: %s" field e
            | Ok reply -> (
                match decode_response reply with
                | Request.Error_response
                    { code = Request.Bad_request; message; _ } ->
                    Alcotest.(check bool)
                      (field ^ " named in the error") true
                      (contains message field)
                | _ -> Alcotest.failf "%s must be bad_request" field))
          [
            ("pricing", J.Str "devex");
            ("lu_kernel", J.Str "dense");
            ("paralelism", J.Num 2.0);
            ("cut_rounds", J.Num 3.0);
            ("max_cuts_per_round", J.Num 50.0);
          ];
        match Client.request ~socket (line (Knobs.to_json Knobs.default)) with
        | Error e -> Alcotest.failf "follow-up request: %s" e
        | Ok reply -> (
            match decode_response reply with
            | Request.Ok_response _ -> ()
            | Request.Error_response { message; _ } ->
                Alcotest.failf "server stopped answering: %s" message))
  in
  ()

(* --- warm-cache persistence -------------------------------------------------- *)

let with_temp_file f =
  let file = Filename.temp_file "mm_cache" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () -> f file)

let test_cache_persistence_roundtrip () =
  with_temp_file (fun file ->
      let board, design = small_instance () in
      let req = Request.make ~id:"p" board design in
      let e1 = Engine.create () in
      let obj1 =
        match Engine.handle e1 req with
        | Request.Ok_response { report; _ } ->
            Option.bind (J.member "objective" report) J.to_float
        | Request.Error_response { message; _ } ->
            Alcotest.failf "training solve failed: %s" message
      in
      (match Cache.save (Engine.cache e1) file with
      | Ok n -> Alcotest.(check bool) "saved an entry" true (n >= 1)
      | Error e -> Alcotest.failf "save: %s" e);
      (* a second process: fresh engine, reload the file *)
      let e2 = Engine.create () in
      (match Cache.load (Engine.cache e2) file with
      | Ok n -> Alcotest.(check bool) "loaded an entry" true (n >= 1)
      | Error e -> Alcotest.failf "load: %s" e);
      match Engine.handle e2 req with
      | Request.Ok_response { cache_hit; warm_solves; report; _ } ->
          Alcotest.(check bool) "first post-restart solve hits" true cache_hit;
          Alcotest.(check bool) "training survived" true (warm_solves > 0);
          Alcotest.(check (option (float 1e-6)))
            "same objective as before the restart" obj1
            (Option.bind (J.member "objective" report) J.to_float);
          (* the reloaded basis/pseudocosts must actually apply *)
          let warm_applied =
            Option.bind (J.member "lp" report) (J.member "warm_applied")
          in
          (match warm_applied with
          | Some (J.List (_ :: _)) -> ()
          | _ -> Alcotest.fail "reloaded state was not applied")
      | Request.Error_response { message; _ } ->
          Alcotest.failf "post-restart solve failed: %s" message)

let test_cache_persistence_rejects_corrupt () =
  let check_rejected label text =
    with_temp_file (fun file ->
        Out_channel.with_open_text file (fun oc -> output_string oc text);
        let c = Cache.create ~capacity:4 in
        (match Cache.load c file with
        | Error _ -> ()
        | Ok n -> Alcotest.failf "%s: load accepted %d entries" label n);
        Alcotest.(check int)
          (label ^ ": nothing installed")
          0 (Cache.stats c).Cache.entries;
        (* cold start still works after the rejected load *)
        let l = Cache.acquire c "k" in
        Alcotest.(check bool) (label ^ ": cold acquire") false l.Cache.hit;
        Cache.release c l)
  in
  check_rejected "garbage" "not json {{{";
  check_rejected "wrong version" {|{"version":99,"entries":[]}|};
  check_rejected "missing entries" {|{"version":3}|};
  check_rejected "invalid warm state"
    {|{"version":3,"entries":[{"key":"k","warm":{"solves":-1,"orig_cols":0,"orig_rows":0,"basis":null,"pseudocosts":null}}]}|};
  (* warm bases that describe no basis: 2 columns + 1 row, so "003"
     with b = [2] is the one consistent shape (loaded below) *)
  let with_basis b status =
    Printf.sprintf
      {|{"version":3,"entries":[{"key":"k","warm":{"solves":1,"orig_cols":2,"orig_rows":1,"basis":{"b":%s,"status":"%s","cols":2,"rows":1},"pseudocosts":null}}]}|}
      b status
  in
  check_rejected "basic variable out of range" (with_basis "[3]" "003");
  check_rejected "negative basic variable" (with_basis "[-1]" "003");
  check_rejected "extra variable marked basic" (with_basis "[2]" "303");
  check_rejected "basis listed twice" (with_basis "[2,2]" "0033");
  check_rejected "basis wider than its rows" (with_basis "[2]" "0003");
  with_temp_file (fun file ->
      Out_channel.with_open_text file (fun oc ->
          output_string oc (with_basis "[2]" "003"));
      match Cache.load (Cache.create ~capacity:4) file with
      | Ok n -> Alcotest.(check int) "a consistent basis loads" 1 n
      | Error e -> Alcotest.failf "consistent basis rejected: %s" e);
  (* a well-formed snapshot of the previous format: its keys were
     fingerprinted with fields that no longer exist *)
  let entries =
    {|"entries":[{"key":"k","warm":{"solves":1,"orig_cols":0,"orig_rows":0,"basis":null,"pseudocosts":null}}]|}
  in
  check_rejected "version 2 snapshot" ({|{"version":2,|} ^ entries ^ "}");
  (* the same entries under the current version do load: the version
     alone turned the snapshot away *)
  with_temp_file (fun file ->
      Out_channel.with_open_text file (fun oc ->
          output_string oc ({|{"version":3,|} ^ entries ^ "}"));
      match Cache.load (Cache.create ~capacity:4) file with
      | Ok n -> Alcotest.(check int) "version 3 entries load" 1 n
      | Error e -> Alcotest.failf "version 3 snapshot rejected: %s" e)

let test_cache_save_load_file_roundtrip () =
  (* save of a loaded cache reproduces the same entries *)
  with_temp_file (fun file ->
      let board, design = small_instance () in
      let e1 = Engine.create () in
      ignore (Engine.handle e1 (Request.make ~id:"x" board design));
      (match Cache.save (Engine.cache e1) file with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "save: %s" e);
      let c2 = Cache.create ~capacity:8 in
      let n1 =
        match Cache.load c2 file with
        | Ok n -> n
        | Error e -> Alcotest.failf "load: %s" e
      in
      with_temp_file (fun file2 ->
          (match Cache.save c2 file2 with
          | Ok n2 -> Alcotest.(check int) "entry count survives" n1 n2
          | Error e -> Alcotest.failf "re-save: %s" e);
          let c3 = Cache.create ~capacity:8 in
          match Cache.load c3 file2 with
          | Ok n3 -> Alcotest.(check int) "re-load count" n1 n3
          | Error e -> Alcotest.failf "re-load: %s" e))

(* --- server FIFO burst / client retry ----------------------------------------- *)

let test_server_fifo_burst () =
  (* one worker drains a pipelined burst in arrival order: every
     request is answered, at one objective, and each takes exactly one
     cache lease *)
  let board, design = small_instance () in
  let n = 6 in
  let (objs, stats), _ =
    with_server ~workers:1 (fun socket ->
        let lines =
          List.init n (fun i ->
              J.to_string
                (Request.to_json
                   (Request.make ~id:(Printf.sprintf "b%d" i) board design)))
        in
        match Client.roundtrip ~socket lines with
        | Error e -> Alcotest.failf "client: %s" e
        | Ok replies ->
            Alcotest.(check int) "every burst request answered" n
              (List.length replies);
            let objs =
              List.map
                (fun line ->
                  match decode_response line with
                  | Request.Ok_response { report; _ } -> (
                      match
                        Option.bind (J.member "objective" report) J.to_float
                      with
                      | Some o -> o
                      | None -> Alcotest.fail "response without objective")
                  | Request.Error_response { code; message; _ } ->
                      Alcotest.failf "burst request failed (%s): %s"
                        (Request.error_code_to_string code)
                        message)
                replies
            in
            let stats =
              match Client.request ~socket {|{"id":"s","op":"stats"}|} with
              | Error e -> Alcotest.failf "stats: %s" e
              | Ok reply -> (
                  match J.of_string reply with
                  | Error e -> Alcotest.failf "stats reply not JSON: %s" e
                  | Ok json -> json)
            in
            (objs, stats))
  in
  (match objs with
  | o :: rest ->
      List.iter
        (fun o' -> Alcotest.(check (float 1e-6)) "objectives identical" o o')
        rest
  | [] -> Alcotest.fail "no responses");
  let cache_num k =
    match
      Option.bind (J.member "cache" stats) (fun c ->
          Option.bind (J.member k c) J.to_int)
    with
    | Some v -> v
    | None -> Alcotest.failf "stats cache.%s missing" k
  in
  Alcotest.(check int)
    "one lease per request" n
    (cache_num "hits" + cache_num "misses");
  Alcotest.(check bool)
    "no batching object" true
    (Option.is_none (J.member "batching" stats))

let test_client_retry_overloaded () =
  let board, design = small_instance () in
  let (), _ =
    with_server ~queue_capacity:0 (fun socket ->
        let line =
          J.to_string (Request.to_json (Request.make ~id:"rt" board design))
        in
        let result, attempts =
          Client.request_retry ~retries:2 ~backoff:1e-3 ~socket line
        in
        Alcotest.(check int) "all attempts spent" 3 attempts;
        match result with
        | Error e -> Alcotest.failf "transport error: %s" e
        | Ok reply -> (
            match decode_response reply with
            | Request.Error_response { code = Request.Overloaded; _ } -> ()
            | _ -> Alcotest.fail "still expected overloaded"))
  in
  ()

let test_client_retry_not_needed () =
  let board, design = small_instance () in
  let (), _ =
    with_server (fun socket ->
        let line =
          J.to_string (Request.to_json (Request.make ~id:"ok" board design))
        in
        let result, attempts =
          Client.request_retry ~retries:3 ~backoff:1e-3 ~socket line
        in
        Alcotest.(check int) "no retry on success" 1 attempts;
        match result with
        | Error e -> Alcotest.failf "transport error: %s" e
        | Ok reply -> (
            match decode_response reply with
            | Request.Ok_response _ -> ()
            | Request.Error_response { message; _ } ->
                Alcotest.failf "unexpected error: %s" message))
  in
  ()

let () =
  Alcotest.run "mm_service"
    [
      ( "codecs",
        [
          prop_knobs_roundtrip;
          prop_knobs_fingerprint_ignores_time_limit;
          Alcotest.test_case "knobs bound parallelism" `Quick
            test_knobs_bound_parallelism;
          prop_request_roundtrip;
          prop_request_fingerprint_canonical;
          prop_fingerprint_tracks_knob_fingerprint;
          prop_fingerprint_ignores_time_limit;
          Alcotest.test_case "distinct designs get distinct fingerprints"
            `Quick test_fingerprint_separates_designs;
          prop_response_roundtrip;
          prop_wire_line_roundtrip;
        ] );
      ( "report",
        [
          Alcotest.test_case "json shape" `Quick test_report_json_shape;
          Alcotest.test_case "json re-parses" `Quick test_report_json_parses_back;
          Alcotest.test_case "mapper attempts" `Quick
            test_mapper_attempts_recorded;
        ] );
      ( "cache",
        [
          Alcotest.test_case "lease semantics" `Quick test_cache_lease_semantics;
          Alcotest.test_case "lru eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "capacity zero" `Quick test_cache_capacity_zero;
        ] );
      ( "engine",
        [
          Alcotest.test_case "warm cache hits" `Quick
            test_engine_warm_cache_hits;
          Alcotest.test_case "time limit" `Quick test_engine_time_limit;
        ] );
      ( "server",
        [
          Alcotest.test_case "concurrent clients" `Quick
            test_server_concurrent_clients;
          Alcotest.test_case "backpressure" `Quick test_server_backpressure;
          Alcotest.test_case "reclaims stale socket" `Quick
            test_server_reclaims_stale_socket;
          Alcotest.test_case "refuses live socket" `Quick
            test_server_refuses_live_socket;
          Alcotest.test_case "control ops" `Quick test_server_control_ops;
          Alcotest.test_case "bad request echoes id" `Quick
            test_server_bad_request_echoes_id;
          Alcotest.test_case "rejects unknown knob fields" `Quick
            test_server_rejects_unknown_knobs;
          Alcotest.test_case "fifo burst" `Quick test_server_fifo_burst;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "save/load round-trip" `Quick
            test_cache_persistence_roundtrip;
          Alcotest.test_case "corrupt file cold-starts" `Quick
            test_cache_persistence_rejects_corrupt;
          Alcotest.test_case "file round-trip counts" `Quick
            test_cache_save_load_file_roundtrip;
        ] );
      ( "client",
        [
          Alcotest.test_case "retry on overloaded" `Quick
            test_client_retry_overloaded;
          Alcotest.test_case "no retry on success" `Quick
            test_client_retry_not_needed;
        ] );
    ]
