type entry = {
  warm : Mm_lp.Solver.warm;
  mutable leased : bool;
  mutable last_used : int;
}

type t = {
  capacity : int;
  tbl : (string, entry) Hashtbl.t;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mu : Mutex.t;
}

type stats = { hits : int; misses : int; evictions : int; entries : int }

let create ~capacity =
  {
    capacity = max 0 capacity;
    tbl = Hashtbl.create 16;
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    mu = Mutex.create ();
  }

type lease = { key : string; warm : Mm_lp.Solver.warm; hit : bool }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let acquire t key =
  locked t (fun () ->
      t.tick <- t.tick + 1;
      match Hashtbl.find_opt t.tbl key with
      | Some e when not e.leased ->
          e.leased <- true;
          e.last_used <- t.tick;
          t.hits <- t.hits + 1;
          { key; warm = e.warm; hit = true }
      | _ ->
          (* absent, or leased by a concurrent request for the same
             board — either way this request trains a fresh state and
             counts as a miss (warm state is single-writer) *)
          t.misses <- t.misses + 1;
          { key; warm = Mm_lp.Solver.warm (); hit = false })

(* smallest last_used among unleased entries; leased entries are pinned *)
let evict_victim t =
  Hashtbl.fold
    (fun k e acc ->
      if e.leased then acc
      else
        match acc with
        | Some (_, best) when best.last_used <= e.last_used -> acc
        | _ -> Some (k, e))
    t.tbl None

let release t (l : lease) =
  locked t (fun () ->
      t.tick <- t.tick + 1;
      match Hashtbl.find_opt t.tbl l.key with
      | Some e when l.hit ->
          e.leased <- false;
          e.last_used <- t.tick
      | Some _ ->
          (* a fresh (miss) lease raced another insert for the same
             key; keep the installed entry, drop this one *)
          ()
      | None ->
          if t.capacity > 0 && not l.hit then begin
            if Hashtbl.length t.tbl >= t.capacity then begin
              match evict_victim t with
              | Some (k, _) ->
                  Hashtbl.remove t.tbl k;
                  t.evictions <- t.evictions + 1
              | None -> () (* every entry leased: allow a brief overshoot *)
            end;
            Hashtbl.replace t.tbl l.key
              { warm = l.warm; leased = false; last_used = t.tick }
          end)

(* ---- cross-process persistence ---------------------------------------- *)

(* Version 2: request fingerprints no longer carry the pricing and LU
   kernel fields, so a version-1 snapshot only holds keys that can never
   hit again. *)
let file_version = 2

let save t path =
  let module J = Mm_obs.Json in
  let entries =
    locked t (fun () ->
        Hashtbl.fold
          (fun key e acc ->
            (* a leased entry is mid-solve; its warm state is being
               mutated by the borrower and cannot be snapshotted *)
            if e.leased then acc
            else (key, e.last_used, Mm_lp.Solver.warm_to_json e.warm) :: acc)
          t.tbl [])
  in
  (* least recently used first, so a reload replays the LRU order *)
  let entries = List.sort (fun (_, a, _) (_, b, _) -> compare a b) entries in
  let json =
    J.Obj
      [
        ("version", J.Num (float_of_int file_version));
        ( "entries",
          J.List
            (List.map
               (fun (key, _, w) -> J.Obj [ ("key", J.Str key); ("warm", w) ])
               entries) );
      ]
  in
  match
    let tmp = path ^ ".tmp" in
    let oc = open_out tmp in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        output_string oc (J.to_string json);
        output_char oc '\n');
    Sys.rename tmp path
  with
  | () -> Ok (List.length entries)
  | exception Sys_error e -> Error e

let load t path =
  let module J = Mm_obs.Json in
  let ( let* ) = Result.bind in
  let decoded =
    match In_channel.with_open_text path In_channel.input_all with
    | exception Sys_error e -> Error e
    | text ->
        let* json =
          Result.map_error
            (fun e -> "cache file is not JSON: " ^ e)
            (J.of_string text)
        in
        let* () =
          match Option.bind (J.member "version" json) J.to_int with
          | Some v when v = file_version -> Ok ()
          | Some v -> Error (Printf.sprintf "unsupported cache version %d" v)
          | None -> Error "cache file has no version field"
        in
        let* entries =
          match J.member "entries" json with
          | Some (J.List es) -> Ok es
          | _ -> Error "cache file has no entries array"
        in
        (* decode everything before installing anything: a corrupt
           entry rejects the whole file (cold start), never a
           half-loaded cache *)
        List.fold_left
          (fun acc entry ->
            let* acc = acc in
            let* key =
              match Option.bind (J.member "key" entry) J.to_str with
              | Some k -> Ok k
              | None -> Error "cache entry without key"
            in
            let* warm =
              match J.member "warm" entry with
              | Some w -> Mm_lp.Solver.warm_of_json w
              | None -> Error "cache entry without warm state"
            in
            Ok ((key, warm) :: acc))
          (Ok []) entries
        |> Result.map List.rev
  in
  match decoded with
  | Error _ as e -> e
  | Ok entries ->
      (* keep at most [capacity], preferring the most recently used
         (the tail of the saved LRU order) *)
      let entries =
        let excess = List.length entries - t.capacity in
        if excess > 0 then List.filteri (fun i _ -> i >= excess) entries
        else entries
      in
      locked t (fun () ->
          List.iter
            (fun (key, warm) ->
              t.tick <- t.tick + 1;
              Hashtbl.replace t.tbl key
                { warm; leased = false; last_used = t.tick })
            entries);
      Ok (List.length entries)

let stats t =
  locked t (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        entries = Hashtbl.length t.tbl;
      })

let stats_to_json (s : stats) =
  let module J = Mm_obs.Json in
  J.Obj
    [
      ("hits", J.Num (float_of_int s.hits));
      ("misses", J.Num (float_of_int s.misses));
      ("evictions", J.Num (float_of_int s.evictions));
      ("entries", J.Num (float_of_int s.entries));
    ]
