let src = Logs.Src.create "mm_lp.cuts" ~doc:"cut pool"

module Log = (val Logs.src_log src : Logs.LOG)

(* The root loop's limits: separation rounds, and cuts accepted per
   separation call (root round or node). Constants, not settings: no
   caller has needed other values. *)
let rounds = 3
let max_per_round = 50

(* A cut's dedup identity: its sorted index support, and its normal
   form and [key_of] key, both built only when first needed. *)
type ident = {
  support : int array;
  norm : float array Lazy.t;
  key : string Lazy.t;
}

module Support = Hashtbl.Make (struct
  type t = int array

  let equal (a : t) b = a = b
  let hash s = Array.fold_left (fun h j -> (h * 31) + j) 17 s land max_int
end)

(* One accepted cut: its row name carries the family prefix and a
   per-pool counter ("cover:12"), so traces never collide across
   rounds or nodes. *)
type entry = {
  cut : Separator.cut;
  name : string;
  ident : ident;
  mutable age : int;  (* consecutive root LP solves spent loose *)
}

type t = {
  max_age : int;
  separators : Separator.t list;
  base : Problem.t;
  seen : ident list Support.t;  (* live accepted cuts by support *)
  counters : (string, int ref) Hashtbl.t;  (* per-family naming counter *)
  accepted : (string, int ref) Hashtbl.t;  (* per-family accepted total *)
  mutable root_entries : entry list;  (* LP row order, after [base]'s rows *)
  mutable ndropped : int;
  lock : Mutex.t;
  ncount : int Atomic.t;  (* activated node-cut rows, appended after root *)
  mutable node_rows_rev : (string * (int * float) list * float * float) list;
}

let create ~max_age ~separators base =
  {
    max_age;
    separators;
    base;
    seen = Support.create 64;
    counters = Hashtbl.create 8;
    accepted = Hashtbl.create 8;
    root_entries = [];
    ndropped = 0;
    lock = Mutex.create ();
    ncount = Atomic.make 0;
    node_rows_rev = [];
  }

let bump tbl fam n =
  match Hashtbl.find_opt tbl fam with
  | Some r -> r := !r + n
  | None -> Hashtbl.replace tbl fam (ref n)

let fresh_name t (c : Separator.cut) =
  let r =
    match Hashtbl.find_opt t.counters c.Separator.family with
    | Some r -> r
    | None ->
        let r = ref 0 in
        Hashtbl.replace t.counters c.Separator.family r;
        r
  in
  let name = Printf.sprintf "%s:%d" c.Separator.family !r in
  incr r;
  name

(* Deduplication normal form: terms sorted by variable and scaled by
   the L∞ norm, bounds scaled alike — cuts identical up to positive
   scaling normalize equal. [norm] holds the scaled coefficients in
   support order, then the scaled lb and ub. *)
let normalize (c : Separator.cut) =
  let terms =
    List.sort (fun (a, _) (b, _) -> compare (a : int) b) c.Separator.terms
  in
  let scale =
    List.fold_left (fun m (_, a) -> Float.max m (Float.abs a)) 0.0 terms
  in
  let scale = if scale = 0.0 then 1.0 else scale in
  Array.of_list
    (List.map (fun (_, a) -> a /. scale) terms
    @ [ c.Separator.lb /. scale; c.Separator.ub /. scale ])

(* Deduplication key: the normal form printed to 9 significant digits,
   so cuts equal up to rounding noise hash equal. *)
let key_of support norm =
  let n = Array.length support in
  let buf = Buffer.create 64 in
  Array.iteri
    (fun i j -> Buffer.add_string buf (Printf.sprintf "%d:%.9g;" j norm.(i)))
    support;
  Buffer.add_string buf
    (Printf.sprintf "|%.9g;%.9g" norm.(n) norm.(n + 1));
  Buffer.contents buf

(* Two cuts with equal keys have equal sorted index sequences (the key
   spells every index out in order), so a cut whose support no live
   cut shares is fresh without normalizing or printing anything; only
   cuts on one support are compared. *)
let ident_of (c : Separator.cut) =
  let support = Array.of_list (List.map fst c.Separator.terms) in
  (* GMI rows come out by increasing index already: check, don't sort *)
  let ascending = ref true in
  for i = 1 to Array.length support - 1 do
    if support.(i - 1) > support.(i) then ascending := false
  done;
  if not !ascending then Array.stable_sort Int.compare support;
  let norm = lazy (normalize c) in
  { support; norm; key = lazy (key_of support (Lazy.force norm)) }

(* Key equality of two cuts on one support, printing as little as
   possible: bit-identical normal forms print identically, and since
   %.9g prints two floats alike only when both round to one 9-digit
   decimal (so they lie at most 1e-8 of the larger magnitude apart), a
   wider gap in any slot proves the keys differ. Only the cases in
   between print and compare the keys. *)
let same_key a b =
  let na = Lazy.force a.norm and nb = Lazy.force b.norm in
  let bits = Int64.bits_of_float in
  let apart u v =
    Float.abs (u -. v) > 2e-8 *. Float.max (Float.abs u) (Float.abs v)
  in
  Array.for_all2 (fun u v -> Int64.equal (bits u) (bits v)) na nb
  || (not (Array.exists2 apart na nb))
     && String.equal (Lazy.force a.key) (Lazy.force b.key)

let seen t id =
  match Support.find_opt t.seen id.support with
  | None -> false
  | Some ids -> List.exists (same_key id) ids

let remember t id =
  let ids = Option.value (Support.find_opt t.seen id.support) ~default:[] in
  Support.replace t.seen id.support (id :: ids)

let forget t id =
  match List.filter (fun o -> o != id) (Support.find t.seen id.support) with
  | [] -> Support.remove t.seen id.support
  | ids -> Support.replace t.seen id.support ids

(* Violation scoring: raw violation over the L∞ norm of the row, so
   families with different coefficient scales rank comparably. Cover
   cuts have unit norm, which keeps the historical pure-cover ordering
   bit for bit. *)
let score x (c : Separator.cut) =
  let amax =
    List.fold_left
      (fun m (_, a) -> Float.max m (Float.abs a))
      1e-12 c.Separator.terms
  in
  Separator.violation c x /. amax

(* Rank candidates by score, drop known duplicates (and intra-batch
   ones), cap at [max_per_round], stamp names, and mark accepted. Each
   score is computed once; the sort is stable, so ties keep candidate
   order. The caller must hold [t.lock] when other domains may be
   active. *)
let select t x cand =
  let sorted =
    List.map (fun c -> (score x c, c)) cand
    |> List.sort (fun (sa, _) (sb, _) -> Float.compare sb sa)
  in
  let accepted = ref [] and count = ref 0 in
  List.iter
    (fun (_, c) ->
      if !count < max_per_round then begin
        let ident = ident_of c in
        if not (seen t ident) then begin
          remember t ident;
          bump t.accepted c.Separator.family 1;
          accepted :=
            { cut = c; name = fresh_name t c; ident; age = 0 } :: !accepted;
          incr count
        end
      end)
    sorted;
  List.rev !accepted

let row_of e =
  (e.name, e.cut.Separator.terms, e.cut.Separator.lb, e.cut.Separator.ub)

let by_family t =
  Hashtbl.fold (fun fam r acc -> (fam, !r) :: acc) t.accepted []
  |> List.sort compare

let dropped t = t.ndropped

(* --- root loop ----------------------------------------------------------- *)

type root_stats = {
  added : int;
  dropped : int;
  by_family : (string * int) list;
  lp : Simplex.stats;
  lp_time : float;
  root_basis : Simplex.basis option;
  last_basis : Simplex.basis option;
}

let count_families snk t =
  List.iter
    (fun (fam, n) -> if n > 0 then Mm_obs.Trace.count snk ("cuts_" ^ fam) n)
    (by_family t)

(* Activity-based aging: after each root LP solve, a cut row sitting
   strictly inside its bounds gets older; a binding one rejuvenates.
   Entries loose for [max_age] consecutive solves are dropped from the
   LP when the loop ends (their keys are forgotten, so a separator may
   legitimately rediscover them later at a node). *)
let age_update t x =
  List.iter
    (fun e ->
      let act = Separator.activity e.cut.Separator.terms x in
      let slack =
        Float.min
          (if Float.is_finite e.cut.Separator.ub then e.cut.Separator.ub -. act
           else infinity)
          (if Float.is_finite e.cut.Separator.lb then act -. e.cut.Separator.lb
           else infinity)
      in
      if slack > 1e-7 then e.age <- e.age + 1 else e.age <- 0)
    t.root_entries

let prune t p =
  let keep, drop =
    List.partition (fun e -> e.age < t.max_age) t.root_entries
  in
  if drop = [] then p
  else begin
    List.iter
      (fun e ->
        forget t e.ident;
        bump t.accepted e.cut.Separator.family (-1))
      drop;
    t.ndropped <- t.ndropped + List.length drop;
    t.root_entries <- keep;
    Log.debug (fun m -> m "dropped %d inactive cut(s)" (List.length drop));
    Problem.extend_rows t.base (List.map row_of keep)
  end

(* The warm-started root separation loop (moved here from Solver):
   round 0 solves from scratch, every later round rebuilds the simplex
   state with [Simplex.create_from] so the previous optimal basis
   carries over with the new cut rows basic on their slacks, and
   re-optimizes with the dual method. A round that accepts no cut ends
   the loop immediately (traced as [cut_noop_round]); the last allowed
   round's cuts are kept without a further re-solve since they still
   strengthen the branch-and-bound relaxations. *)
let root_loop ?basis ?deadline ~snk t =
  let lp_stats = ref Simplex.empty_stats and lp_time = ref 0.0 in
  let finish sx =
    lp_stats := Simplex.merge_stats !lp_stats (Simplex.stats sx);
    Simplex.flush_trace sx
  in
  let added = ref 0 in
  (* the pre-cut optimum's basis, snapshot for warm-starting a later
     solve of the same base problem (the service cache's "last-good
     basis"): it is valid on [t.base] regardless of which cuts this or
     a future run accepts *)
  let root_basis = ref None in
  (* the last optimum of the loop, on a row prefix of the returned
     problem: the warm start of the diving heuristic's first solve *)
  let last_basis = ref None in
  let rec loop p sx round =
    let t0 = Unix.gettimeofday () in
    let r = Simplex.solve ?deadline ~prefer_dual:(round > 0) sx in
    lp_time := !lp_time +. (Unix.gettimeofday () -. t0);
    match r with
    | Simplex.Optimal ->
        let snap = Simplex.basis_snapshot sx in
        if round = 0 then root_basis := Some snap;
        last_basis := Some snap;
        let x = Simplex.primal sx in
        age_update t x;
        if Problem.integer_violation p x <= 1e-6 then begin
          finish sx;
          p
        end
        else begin
          let accepted =
            Mm_obs.Trace.span snk "separate" (fun () ->
                let ctx = { Separator.p; x; sx = Some sx } in
                List.concat_map
                  (fun s -> Separator.separate s ctx)
                  t.separators
                |> select t x)
          in
          if accepted = [] then begin
            Mm_obs.Trace.count snk "cut_noop_round" 1;
            finish sx;
            p
          end
          else begin
            Log.debug (fun m ->
                m "cut round %d: %d cut(s)" round (List.length accepted));
            let p' = Problem.extend_rows p (List.map row_of accepted) in
            added := !added + List.length accepted;
            t.root_entries <- t.root_entries @ accepted;
            if round + 1 >= rounds then begin
              finish sx;
              p'
            end
            else begin
              finish sx;
              loop p' (Simplex.create_from sx p') (round + 1)
            end
          end
        end
    | _ ->
        last_basis := None;
        finish sx;
        p
  in
  let final =
    if t.separators = [] then t.base
    else begin
      let sx0 = Simplex.create t.base in
      (* warm restart: a basis cached from a previous solve of the same
         base problem replaces the slack basis before the first solve *)
      (match basis with
      | Some b -> Simplex.restore_basis sx0 b
      | None -> ());
      Simplex.set_trace sx0 snk;
      loop t.base sx0 0
    end
  in
  let pruned = prune t final in
  (* dropped rows break the row-prefix relation with the snapshot *)
  if pruned != final then last_basis := None;
  let final = pruned in
  if (!lp_stats).Simplex.pivots > 0 then
    Mm_obs.Trace.count snk "cut_pivots" (!lp_stats).Simplex.pivots;
  count_families snk t;
  ( final,
    {
      added = !added;
      dropped = t.ndropped;
      by_family = by_family t;
      lp = !lp_stats;
      lp_time = !lp_time;
      root_basis = !root_basis;
      last_basis = !last_basis;
    } )

let root_cuts t = List.map (fun e -> e.cut) t.root_entries

(* A warm resume: the carried cuts become root entries exactly as the
   loop that found them left them — remembered for dedup, counted per
   family, named afresh — with no separation and no LP solve. *)
let resume ~snk t cuts =
  let accepted =
    List.map
      (fun (c : Separator.cut) ->
        let ident = ident_of c in
        remember t ident;
        bump t.accepted c.Separator.family 1;
        { cut = c; name = fresh_name t c; ident; age = 0 })
      cuts
  in
  t.root_entries <- accepted;
  count_families snk t;
  ( Problem.extend_rows t.base (List.map row_of accepted),
    {
      added = List.length accepted;
      dropped = 0;
      by_family = by_family t;
      lp = Simplex.empty_stats;
      lp_time = 0.0;
      root_basis = None;
      last_basis = None;
    } )

(* --- node-side API (thread-safe) ----------------------------------------- *)

let node_count t = Atomic.get t.ncount

let rows_from t k =
  Mutex.lock t.lock;
  let total = Atomic.get t.ncount in
  let take = total - k in
  let rows =
    if take <= 0 then []
    else begin
      let rec first n = function
        | [] -> []
        | r :: rest -> if n = 0 then [] else r :: first (n - 1) rest
      in
      List.rev (first take t.node_rows_rev)
    end
  in
  Mutex.unlock t.lock;
  rows

(* Separate at a branch-and-bound node: only bound-free families run
   (tableau families would bake the node's tightened bounds into a cut
   that is not globally valid). Freshly accepted cuts are appended to
   the shared activation list; every worker appends the same global
   row sequence to its own LP, so basis snapshots stay exchangeable.
   Returns the new activation count. *)
let node_separate t p x =
  let seps = List.filter Separator.bound_free t.separators in
  if seps = [] then Atomic.get t.ncount
  else begin
    let ctx = { Separator.p; x; sx = None } in
    let cand = List.concat_map (fun s -> Separator.separate s ctx) seps in
    if cand = [] then Atomic.get t.ncount
    else begin
      Mutex.lock t.lock;
      let accepted = select t x cand in
      if accepted <> [] then begin
        t.node_rows_rev <-
          List.rev_append (List.map row_of accepted) t.node_rows_rev;
        Atomic.set t.ncount (Atomic.get t.ncount + List.length accepted)
      end;
      let count = Atomic.get t.ncount in
      Mutex.unlock t.lock;
      count
    end
  end
