(* serve-open: an [mmap serve] daemon at its defaults, driven over one
   connection by an open-loop load generator (one sender thread, one
   receiver thread) at a fixed rate. Hot requests repeat the nine
   Table-3 points and hit warm leases; one request in four is cold, a
   fresh design each. *)

open Common
module M = Mm_mapping
module Gen = Mm_workload.Gen
module J = Mm_obs.Json
module Svc = Mm_service
module Prng = Mm_util.Prng
module Trace = Mm_obs.Trace

(* Requests per second: a third or less of what the two workers
   sustain on this mix even when the host runs at half speed, so
   queues stay short and the generator measures latency, not
   overload. *)
let rate = 7.

(* Requests go out in blocks: each hot point once and [block_cold]
   fresh designs, shuffled within the block, so every stretch of the
   run carries the same mix and load. One request in four is cold; a
   50 s run at [rate] sends 87 fresh fingerprints, which with the nine
   hot keys is more than the 64-entry warm cache holds, so it evicts. *)
let block_cold = 3
let block = List.length Mm_workload.Table3.points + block_cold

(* The measured schedule is cut into [windows] stretches of whole
   blocks, each with the same mix. The host's speed drifts by up to 2x
   in spells of seconds to minutes, so each latency percentile is the
   lowest of the stretches' own: the run's fastest spell, as the solve
   workloads report each point's fastest solve. *)
let windows = 6

(* Fresh designs are drawn on the boards of these Table-3 points; at
   the generator's default fill every draw there is mappable and
   global solves stay in the tens of milliseconds. *)
let cold_points = [| 2; 4 |]
let latency_limit_ms = 1000.

(* Validity of the generator: a run whose sender fell behind its
   schedule, or that ended with more requests in flight than the
   daemon's queue holds, measured overload, not latency. *)
let max_lag_ms = 50.
let max_backlog = 16

(* Daemon spawns timed for set-up: the serving one, and an idle one
   spawned half of the rest before the load and half after, so none
   competes with the measured requests and their median spans the
   run. *)
let setup_spawns = 9

type request = { line : string; hot : int option (* Table-3 point *) }

(* The request sequence, drawn from the workload seed, and its due
   times in seconds from the start. *)
let schedule seed seconds =
  let rng = Prng.create (Prng.hash2 seed 0x5e7e) in
  let points = Array.of_list Mm_workload.Table3.points in
  let spec i = points.(i).Mm_workload.Table3.spec in
  let hot = Array.map (fun p -> Gen.instance p.Mm_workload.Table3.spec) points in
  (* whole blocks, at least one; only the order within each block and
     the cold designs vary with the seed *)
  let nblocks = max 1 (int_of_float (rate *. seconds) / block) in
  let kinds =
    Array.concat
      (List.init nblocks (fun _ ->
           let b =
             Array.init block (fun i ->
                 if i < Array.length points then Some i else None)
           in
           Prng.shuffle rng b;
           b))
  in
  let n = Array.length kinds in
  let line id board design =
    J.to_string
      (Svc.Request.to_json
         (Svc.Request.make ~id ~method_:M.Mapper.Global_detailed board design))
  in
  let ncold = ref 0 in
  let reqs =
    Array.mapi
      (fun i kind ->
        let id = string_of_int i in
        match kind with
        | Some p ->
            let board, design = hot.(p) in
            { line = line id board design; hot = Some p }
        | None ->
            let k = !ncold in
            incr ncold;
            let s = spec cold_points.(k mod Array.length cold_points) in
            let board = Gen.board_of_spec s in
            let fresh = { s with Gen.seed = Prng.hash_list [ seed; k; 0xc01d ] } in
            { line = line id board (Gen.design_of_spec fresh board); hot = None })
      kinds
  in
  (* evenly spaced sends: a fixed rate whatever the responses do *)
  let due = Array.init n (fun i -> float_of_int i /. rate) in
  let warm = Array.mapi (fun p (b, d) -> line ("warm-" ^ string_of_int p) b d) hot in
  (reqs, due, !ncold, warm)

(* ---- the daemon -------------------------------------------------------- *)

type daemon = { pid : int; socket : string }

let rec wait_ready d deadline =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let up =
    match Unix.connect fd (Unix.ADDR_UNIX d.socket) with
    | () -> true
    | exception Unix.Unix_error _ -> false
  in
  Unix.close fd;
  if up then ()
  else if now () > deadline then failwith "mmap serve did not come up"
  else
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ ->
        Unix.sleepf 0.001;
        wait_ready d deadline
    | _ -> failwith "mmap serve exited during start-up"

(* Spawn the daemon; the time until its socket accepts is set-up.
   [name] keeps the socket and log of concurrent daemons apart. *)
let spawn run ?(name = "serve") ?trace_file () =
  let socket = Filename.concat run.workdir (name ^ ".sock") in
  let log =
    Unix.openfile
      (Filename.concat run.workdir (name ^ ".log"))
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
      0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let args =
    [ run.mmap; "serve"; "--socket"; socket ]
    @ match trace_file with Some f -> [ "--trace"; f ] | None -> []
  in
  let t0 = now () in
  let pid = Unix.create_process run.mmap (Array.of_list args) null log log in
  Unix.close null;
  Unix.close log;
  let d = { pid; socket } in
  wait_ready d (t0 +. 60.);
  (d, now () -. t0)

let op d line =
  match Svc.Client.request ~socket:d.socket line with
  | Ok resp -> J.of_string resp
  | Error e -> Error e

let shutdown d =
  ignore (op d {|{"op":"shutdown","id":"bench"}|});
  ignore (Unix.waitpid [] d.pid)

(* [f] on a freshly spawned daemon (with its start-up time), which is
   shut down afterwards, or killed if [f] raises. *)
let with_daemon run ?name ?trace_file f =
  let d, ready_s = spawn run ?name ?trace_file () in
  match f d ready_s with
  | r ->
      shutdown d;
      r
  | exception e ->
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] d.pid);
      raise e

(* ---- the load generator ------------------------------------------------ *)

type outcome = {
  latency_ms : float array;  (** from due time; nan when unanswered *)
  responses : (int * Svc.Request.response) list;
  lag_ms_max : float;
  backlog : int;
  span_s : float;  (** first due time to last response *)
}

(* One closed-loop request per hot point before the schedule, so the
   measured requests find the cache warm and the daemon's heap grown. *)
let warm_up d warm = Array.iter (fun line -> ignore (op d line)) warm

let drive d reqs due =
  let n = Array.length reqs in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX d.socket);
  let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
  let got = ref [] and count = Atomic.make 0 in
  let sent = Array.make n nan in
  let start = now () +. 0.05 in
  (* the receiver only timestamps lines; decoding waits for the end so
     it cannot delay the sender *)
  let receiver =
    Thread.create
      (fun () ->
        let rec loop () =
          if Atomic.get count < n then
            match input_line ic with
            | line ->
                got := (now (), line) :: !got;
                Atomic.incr count;
                loop ()
            | exception (End_of_file | Sys_error _) -> ()
        in
        loop ())
      ()
  in
  let sender =
    Thread.create
      (fun () ->
        Array.iteri
          (fun i r ->
            let wait = start +. due.(i) -. now () in
            if wait > 0. then Thread.delay wait;
            output_string oc r.line;
            output_char oc '\n';
            flush oc;
            sent.(i) <- now ())
          reqs)
      ()
  in
  Thread.join sender;
  let deadline = now () +. 60. in
  while Atomic.get count < n && now () < deadline do
    Thread.delay 0.01
  done;
  (* unblock a receiver still waiting for lost responses *)
  (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  Thread.join receiver;
  Unix.close fd;
  let latency_ms = Array.make n nan in
  let last_send = sent.(n - 1) in
  let backlog = ref (n - Atomic.get count) and last_recv = ref start in
  let responses =
    List.filter_map
      (fun (t, line) ->
        match Result.bind (J.of_string line) Svc.Request.response_of_json with
        | Error _ -> None
        | Ok resp -> (
            match int_of_string_opt (Svc.Request.response_id resp) with
            | Some i when i >= 0 && i < n ->
                latency_ms.(i) <- 1e3 *. (t -. (start +. due.(i)));
                if t > last_send then incr backlog;
                last_recv := Float.max !last_recv t;
                Some (i, resp)
            | _ -> None))
      !got
  in
  let lag = Array.mapi (fun i s -> 1e3 *. (s -. (start +. due.(i)))) sent in
  {
    latency_ms;
    responses;
    lag_ms_max = Array.fold_left Float.max 0. lag;
    backlog = !backlog;
    span_s = !last_recv -. start;
  }

let report_num report path =
  Option.bind
    (List.fold_left (fun j k -> Option.bind j (J.member k)) (Some report) path)
    J.to_float

(* Every request must be answered [ok] with a proved-optimal report;
   hot ones must also reach their point's pinned objective. *)
let check_responses tally label reqs (o : outcome) =
  let by_id = Hashtbl.create (Array.length reqs) in
  List.iter (fun (i, r) -> Hashtbl.replace by_id i r) o.responses;
  Array.iteri
    (fun i r ->
      let what = Printf.sprintf "%s request %d" label i in
      match Hashtbl.find_opt by_id i with
      | None -> ignore (record_op tally what [ ("answered", false) ])
      | Some (Svc.Request.Error_response { code; message; _ }) ->
          ignore
            (record_op tally what
               [ (Svc.Request.error_code_to_string code ^ ": " ^ message, false) ])
      | Some (Svc.Request.Ok_response { report; _ }) ->
          let status = Option.bind (J.member "status" report) J.to_str in
          let objective_ok =
            match (r.hot, report_num report [ "objective" ]) with
            | None, _ -> true
            | Some p, Some obj -> obj_eq obj Solve_bench.table3_reference.(p)
            | Some _, None -> false
          in
          ignore
            (record_op tally what
               [
                 ("proved optimal", status = Some "optimal");
                 ("reference objective", objective_ok);
               ]))
    reqs

let valid (o : outcome) = o.lag_ms_max <= max_lag_ms && o.backlog <= max_backlog

let check_generator tally label (o : outcome) =
  Printf.printf "loadgen %s: lag max %.3f ms, backlog %d at schedule end\n%!" label
    o.lag_ms_max o.backlog;
  if not (valid o) then
    Printf.printf "loadgen %s: INVALID run (generator behind or backlog grew)\n%!" label;
  ignore
    (record_op tally (label ^ " load generator")
       [ ("kept its schedule with a bounded backlog", valid o) ])

let answered (o : outcome) =
  List.filter Float.is_finite (Array.to_list o.latency_ms)

(* [stat] of the answered latencies of each stretch, the lowest. *)
let fastest_window (o : outcome) stat =
  let nb = Array.length o.latency_ms / block in
  let k = max 1 (min windows nb) in
  List.fold_left Float.min infinity
    (List.init k (fun w ->
         let lo = w * nb / k * block and hi = (w + 1) * nb / k * block in
         stat
           (List.filter Float.is_finite
              (Array.to_list (Array.sub o.latency_ms lo (hi - lo))))))

(* The smallest value of a report field per hot point, summed over the
   points: fixed instances, so the figure does not move with the seed's
   cold draws, and the fastest of each point's solves, as the host's
   speed drifts. *)
let hot_point_sum reqs (o : outcome) path =
  let per = Array.make (Array.length Solve_bench.table3_reference) [] in
  List.iter
    (function
      | i, Svc.Request.Ok_response { report; _ } -> (
          match (reqs.(i).hot, report_num report path) with
          | Some p, Some v -> per.(p) <- v :: per.(p)
          | _ -> ())
      | _ -> ())
    o.responses;
  Array.fold_left
    (fun acc vs -> if vs = [] then acc else acc +. List.fold_left Float.min infinity vs)
    0. per

(* ---- traced run helpers ------------------------------------------------ *)

(* Percentile of a merged log2 histogram from the daemon's trace: the
   upper bound of the first bucket reaching the quantile, like
   [mmap trace-summary]. *)
let hist_percentile_ms events name q =
  let buckets = Hashtbl.create 16 in
  List.iter
    (fun (e : Mm_obs.Summary.event) ->
      if e.Mm_obs.Summary.kind = "hist" && e.Mm_obs.Summary.name = name then
        List.iter
          (fun (ub, c) ->
            Hashtbl.replace buckets ub
              (c + Option.value (Hashtbl.find_opt buckets ub) ~default:0))
          e.Mm_obs.Summary.buckets)
    events;
  let bs = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) buckets []) in
  let total = List.fold_left (fun a (_, c) -> a + c) 0 bs in
  let need = Float.ceil (q *. float_of_int total) in
  let rec go acc = function
    | [] -> 0.
    | (ub, c) :: rest ->
        let acc = acc + c in
        if float_of_int acc >= need then 1e3 *. ub else go acc rest
  in
  if total = 0 then 0. else go 0 bs

(* Mean pivots on warm hits over mean pivots on misses, per hot point,
   summed over the points that saw both. *)
let warm_pivot_ratio reqs (o : outcome) =
  let npoints = Array.length Solve_bench.table3_reference in
  let hit = Array.make npoints [] and miss = Array.make npoints [] in
  List.iter
    (function
      | i, Svc.Request.Ok_response { cache_hit; report; _ } -> (
          match (reqs.(i).hot, report_num report [ "lp"; "pivots" ]) with
          | Some p, Some piv ->
              if cache_hit then hit.(p) <- piv :: hit.(p)
              else miss.(p) <- piv :: miss.(p)
          | _ -> ())
      | _ -> ())
    o.responses;
  let mean l = sum l /. float_of_int (List.length l) in
  let h = ref 0. and m = ref 0. in
  Array.iteri
    (fun p hs ->
      if hs <> [] && miss.(p) <> [] then begin
        h := !h +. mean hs;
        m := !m +. mean miss.(p)
      end)
    hit;
  ratio !h !m

(* Replay a prefix of the request sequence in-process through the calls
   Engine.handle makes, in its order, with the mapper traced; each
   request is then also timed through Engine.handle itself (on a second
   cache that sees the same sequence), right after, so host speed
   drifts hit both alike. *)
let replay tally l reqs budget_s =
  let cache = Svc.Cache.create ~capacity:64 in
  let engine = Svc.Engine.create () in
  let start = now () in
  let count = ref 0 in
  while !count < Array.length reqs && now () -. start < budget_s do
    let r = reqs.(!count) in
    incr count;
    let t0 = now () in
    let req =
      match Result.bind (J.of_string r.line) (fun j -> Svc.Request.of_json j) with
      | Ok req -> req
      | Error e -> failwith ("replay decode: " ^ e)
    in
    let t1 = now () in
    let lease = Svc.Cache.acquire cache (Svc.Request.fingerprint req) in
    let t2 = now () in
    let tr = Trace.create () in
    let options =
      M.Mapper.options
        ~solver_options:(Svc.Knobs.to_solver_options req.Svc.Request.knobs)
        ~trace:tr ()
    in
    let result =
      M.Mapper.run ~method_:req.Svc.Request.method_ ~options
        ~warm:lease.Svc.Cache.warm req.Svc.Request.board req.Svc.Request.design
    in
    let t3 = now () in
    Svc.Cache.release cache lease;
    let t4 = now () in
    match result with
    | Error e ->
        ignore
          (record_op tally "replayed request" [ (M.Mapper.error_to_string e, false) ])
    | Ok o ->
        let b = req.Svc.Request.board and d = req.Svc.Request.design in
        let report = M.Report.to_json (M.Report.of_outcome b d o) in
        let t5 = now () in
        let resp =
          Svc.Request.Ok_response
            {
              id = req.Svc.Request.id;
              cache_hit = lease.Svc.Cache.hit;
              warm_solves = 0;
              report;
            }
        in
        ignore (J.to_string (Svc.Request.response_to_json resp));
        let t6 = now () in
        let _, handle_s = timed (fun () -> Svc.Engine.handle engine req) in
        ignore
          (record_op tally "replayed request"
             [
               ( "reference objective",
                 match r.hot with
                 | None -> true
                 | Some p -> obj_eq o.M.Mapper.objective Solve_bench.table3_reference.(p) );
             ]);
        let events = Layers.events_of tr in
        Layers.add_mapper l events o;
        Solve_bench.add_formulation_build l req.Svc.Request.method_ b d o;
        let lease_s = t2 -. t1 +. (t4 -. t3) in
        (* Engine.handle covers lease, mapper and report, not the codec *)
        Layers.add_request l ~decode:(t1 -. t0) ~lease:lease_s
          ~report:(t5 -. t4) ~encode:(t6 -. t5)
          ~unattributed:
            (handle_s -. lease_s -. Layers.phase events "ilp"
            -. o.M.Mapper.detailed_seconds -. (t5 -. t4))
          ()
  done;
  !count

(* ---- the workload ------------------------------------------------------ *)

let serve_open run =
  let tally = tally () and m = metrics () in
  let reqs, due, ncold, warm = schedule run.seed run.seconds in
  print_record run
    [
      ("rate_rps", J.Num rate);
      ("requests", J.Num (float_of_int (Array.length reqs)));
      ("cold_requests", J.Num (float_of_int ncold));
      ("cold_share", J.Num (ratio (float_of_int ncold) (float_of_int (Array.length reqs))));
      ("method", J.Str "global");
      ("workers", J.Num 2.);
      ("latency_limit_ms", J.Num latency_limit_ms);
      ("warm_up_requests", J.Num (float_of_int (Array.length warm)));
      ("setup_spawns", J.Num (float_of_int setup_spawns));
      ("latency_windows", J.Num (float_of_int windows));
    ];
  if not run.trace then begin
    let idle k =
      List.init k (fun _ -> with_daemon run ~name:"setup" (fun _ dt -> dt))
    in
    let before = idle (setup_spawns / 2) in
    let o, rss, dt =
      with_daemon run (fun d dt ->
          warm_up d warm;
          let o = drive d reqs due in
          (o, peak_rss_mb ~pid:(string_of_int d.pid) (), dt))
    in
    let after = idle (setup_spawns - 1 - (setup_spawns / 2)) in
    let setup_s = median ((dt :: before) @ after) in
    check_responses tally "served" reqs o;
    check_generator tally "served" o;
    let good =
      List.length
        (List.filter
           (fun (i, r) ->
             match r with
             | Svc.Request.Ok_response _ -> o.latency_ms.(i) <= latency_limit_ms
             | _ -> false)
           o.responses)
    in
    let field = hot_point_sum reqs o in
    add m "setup_s" setup_s "s";
    add m "solve_s" (field [ "timing"; "total_seconds" ]) "s";
    add m "nodes_per_s"
      (ratio (field [ "lp"; "nodes" ]) (field [ "timing"; "ilp_seconds" ]))
      "1/s";
    add m "req_p50_ms" (fastest_window o median) "ms";
    add m "req_p99_ms" (fastest_window o (fun xs -> percentile xs 0.99)) "ms";
    add m "goodput_rps" (ratio (float_of_int good) o.span_s) "req/s";
    add m "peak_rss_mb" rss "MB"
  end
  else begin
    let plain = with_daemon run (fun d _ -> drive d reqs due) in
    check_responses tally "untraced" reqs plain;
    check_generator tally "untraced" plain;
    let trace_file = Filename.concat run.workdir "serve-trace.jsonl" in
    let o, stats =
      with_daemon run ~trace_file (fun d _ ->
          let o = drive d reqs due in
          (o, op d {|{"op":"stats","id":"stats"}|}))
    in
    check_responses tally "traced" reqs o;
    check_generator tally "traced" o;
    let l = Layers.create () in
    let cache k =
      match stats with
      | Ok j -> Option.bind (Option.bind (J.member "cache" j) (J.member k)) J.to_float
      | Error _ -> None
    in
    let hits = Option.value (cache "hits") ~default:0.
    and misses = Option.value (cache "misses") ~default:0. in
    Layers.set l "cache.hit_ratio" (ratio hits (hits +. misses));
    Layers.set l "cache.evictions" (Option.value (cache "evictions") ~default:0.);
    let events =
      match Mm_obs.Summary.read_file trace_file with
      | Ok evs -> evs
      | Error e -> failwith ("daemon trace: " ^ e)
    in
    Layers.set l "server.queue_wait_ms.p50" (hist_percentile_ms events "queue_wait" 0.5);
    Layers.set l "server.queue_wait_ms.p99" (hist_percentile_ms events "queue_wait" 0.99);
    Layers.set l "engine.solve_ms.p50" (hist_percentile_ms events "solve" 0.5);
    Layers.set l "engine.solve_ms.p99" (hist_percentile_ms events "solve" 0.99);
    Layers.set l "server.overloaded"
      (float_of_int
         (List.length
            (List.filter
               (function
                 | _, Svc.Request.Error_response { code = Svc.Request.Overloaded; _ } ->
                     true
                 | _ -> false)
               o.responses)));
    Layers.set l "engine.warm_pivot_ratio" (warm_pivot_ratio reqs o);
    Layers.set l "loadgen.lag_ms.max" o.lag_ms_max;
    Layers.set l "loadgen.backlog" (float_of_int o.backlog);
    Layers.set l "trace.overhead_frac"
      ((median (answered o) /. median (answered plain)) -. 1.);
    let replayed = replay tally l reqs (run.seconds /. 3.) in
    Printf.printf "replayed %d requests in-process\n%!" replayed;
    Layers.emit m l
  end;
  (tally, m)
