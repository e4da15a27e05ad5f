(* The cover, lifted-cover and selection code of [Mm_lp.Separator] and
   [Mm_lp.Cut_pool] as it stood before the exact row pre-tests, the
   single-score ranking and the lazy dedup keys, kept verbatim as a
   test oracle: the differential properties run both versions on the
   same rows and points and require identical cut lists and identical
   acceptances. Every row here pays the full normalize, sort and
   lifting path, and every comparison recomputes a score, which is
   exactly why it was replaced. *)

open Mm_lp

type cut = Separator.cut = {
  family : string;
  terms : (int * float) list;
  lb : float;
  ub : float;
}

(* Normalize an all-binary row with finite upper bound to
   sum a'_j y_j <= b' with a'_j > 0 and y_j in {x_j, 1 - x_j}.
   Items carry (variable, weight, complemented, current y value). *)
let knapsack_items p x r =
  let b = p.Problem.row_ub.(r) in
  if not (Float.is_finite b) || Problem.row_nnz p r < 2 then None
  else begin
    let all_binary = ref true in
    Problem.row_iter p r (fun j _ ->
        if p.Problem.kind.(j) <> Problem.Binary then all_binary := false);
    if not !all_binary then None
    else begin
      let b' = ref b in
      let rev_items = ref [] in
      Problem.row_iter p r (fun j a ->
          if a > 0.0 then rev_items := (j, a, false, x.(j)) :: !rev_items
          else if a < 0.0 then begin
            b' := !b' -. a;
            rev_items := (j, -.a, true, 1.0 -. x.(j)) :: !rev_items
          end);
      if !b' < 0.0 then None else Some (List.rev !rev_items, !b')
    end
  end

(* Greedy cover: add items by decreasing fractional value until the
   weight exceeds b. Returns the cover (reversed greedy order) or None
   when the whole row cannot cover. *)
let greedy_cover items b =
  let sorted =
    List.sort (fun (_, _, _, xa) (_, _, _, xb) -> compare xb xa) items
  in
  let rec take acc w = function
    | [] -> (acc, w)
    | (j, a, compl, xv) :: rest ->
        if w > b then (acc, w)
        else take ((j, a, compl, xv) :: acc) (w +. a) rest
  in
  let cover, w = take [] 0.0 sorted in
  if w <= b +. 1e-9 then None else Some cover

(* Translate a cover-style inequality  sum coef_j y_j <= rhs  back to
   the x variables: complemented items flip sign and shift the bound. *)
let to_x_space ~family cover_terms rhs =
  let ub = ref rhs and terms = ref [] in
  List.iter
    (fun (j, coef, compl) ->
      if compl then begin
        terms := (j, -.coef) :: !terms;
        ub := !ub -. coef
      end
      else terms := (j, coef) :: !terms)
    cover_terms;
  { family; terms = List.rev !terms; lb = neg_infinity; ub = !ub }

let cover_from_row p x r =
  match knapsack_items p x r with
  | None -> None
  | Some (items, b) -> (
      match greedy_cover items b with
      | None -> None
      | Some cover ->
          let size = List.length cover in
          let lhs_value =
            List.fold_left (fun acc (_, _, _, xv) -> acc +. xv) 0.0 cover
          in
          let rhs = float_of_int (size - 1) in
          if lhs_value <= rhs +. Separator.viol_tol then None
          else
            Some
              (to_x_space ~family:"cover"
                 (List.map (fun (j, _, compl, _) -> (j, 1.0, compl)) cover)
                 rhs))

module Cover = struct
  (* Emitted most-recent-row-first (prepend order): with the pool's
     stable violation sort this reproduces the historical Cuts.separate
     ordering pivot for pivot. *)
  let separate (ctx : Separator.ctx) =
    let cuts = ref [] in
    for r = 0 to ctx.p.Problem.nrows - 1 do
      match cover_from_row ctx.p ctx.x r with
      | Some c -> cuts := c :: !cuts
      | None -> ()
    done;
    !cuts
end

(* --- sequence-lifted covers ---------------------------------------------- *)

(* Exact sequential lifting of the cover inequality sum_C y <= |C| - 1.
   Non-cover items are lifted one at a time by decreasing weight; the
   lifting coefficient of item j is  rhs - z_j  where z_j is the best
   profit of already-lifted items within the capacity left once y_j = 1.
   z_j is computed by a min-weight-per-profit knapsack DP — profits are
   small integers (at most rhs) even though weights are floats. *)
module Lifted_cover = struct
  let name = "lcover"

  let lift_row p x r =
    match knapsack_items p x r with
    | None -> None
    | Some (items, b) -> (
        match greedy_cover items b with
        | None -> None
        | Some cover ->
            let rhs = List.length cover - 1 in
            if rhs < 1 then None
            else begin
              let in_cover = Hashtbl.create 16 in
              List.iter (fun (j, _, _, _) -> Hashtbl.replace in_cover j ()) cover;
              let outside =
                items
                |> List.filter (fun (j, _, _, _) -> not (Hashtbl.mem in_cover j))
                |> List.sort (fun (_, a, _, _) (_, b, _, _) -> compare b a)
              in
              (* the DP item set: (weight, profit), growing as lifting
                 proceeds; starts as the cover items with profit 1 *)
              let dp_items =
                ref (List.map (fun (_, a, _, _) -> (a, 1)) cover)
              in
              let best_profit capacity =
                if capacity < 0.0 then -1 (* y_j cannot be 1 at all *)
                else begin
                  let minw = Array.make (rhs + 1) infinity in
                  minw.(0) <- 0.0;
                  List.iter
                    (fun (w, q) ->
                      for v = rhs downto 1 do
                        let v' = max 0 (v - q) in
                        if minw.(v') +. w < minw.(v) then
                          minw.(v) <- minw.(v') +. w
                      done)
                    !dp_items;
                  let z = ref 0 in
                  for v = 1 to rhs do
                    if minw.(v) <= capacity +. 1e-9 then z := v
                  done;
                  !z
                end
              in
              let lifted = ref [] in
              List.iter
                (fun (j, a, compl, xv) ->
                  let z = best_profit (b -. a) in
                  let pi = if z < 0 then 0 else rhs - z in
                  if pi >= 1 then begin
                    lifted := (j, float_of_int pi, compl, xv) :: !lifted;
                    dp_items := (a, pi) :: !dp_items
                  end)
                outside;
              if !lifted = [] then None (* degenerates to the plain cover *)
              else begin
                let frhs = float_of_int rhs in
                let lhs =
                  List.fold_left (fun acc (_, _, _, xv) -> acc +. xv) 0.0 cover
                  +. List.fold_left
                       (fun acc (_, pi, _, xv) -> acc +. (pi *. xv))
                       0.0 !lifted
                in
                if lhs <= frhs +. Separator.viol_tol then None
                else
                  Some
                    (to_x_space ~family:name
                       (List.map (fun (j, _, compl, _) -> (j, 1.0, compl)) cover
                       @ List.map
                           (fun (j, pi, compl, _) -> (j, pi, compl))
                           (List.rev !lifted))
                       frhs)
              end
            end)

  let separate (ctx : Separator.ctx) =
    let cuts = ref [] in
    for r = 0 to ctx.p.Problem.nrows - 1 do
      match lift_row ctx.p ctx.x r with
      | Some c -> cuts := c :: !cuts
      | None -> ()
    done;
    !cuts
end

(* Deduplication key: terms sorted by variable and scaled by the L∞
   norm, bounds scaled alike — cuts identical up to positive scaling
   hash equal. *)
let key_of (c : cut) =
  let terms = List.sort (fun (a, _) (b, _) -> compare (a : int) b) c.terms in
  let scale =
    List.fold_left (fun m (_, a) -> Float.max m (Float.abs a)) 0.0 terms
  in
  let scale = if scale = 0.0 then 1.0 else scale in
  let buf = Buffer.create 64 in
  List.iter
    (fun (j, a) -> Buffer.add_string buf (Printf.sprintf "%d:%.9g;" j (a /. scale)))
    terms;
  Buffer.add_string buf
    (Printf.sprintf "|%.9g;%.9g" (c.lb /. scale) (c.ub /. scale));
  Buffer.contents buf

(* Violation scoring: raw violation over the L∞ norm of the row, so
   families with different coefficient scales rank comparably. Cover
   cuts have unit norm, which keeps the historical pure-cover ordering
   bit for bit. *)
let score x (c : cut) =
  let amax =
    List.fold_left (fun m (_, a) -> Float.max m (Float.abs a)) 1e-12 c.terms
  in
  Separator.violation c x /. amax

(* Reference acceptance: rank by score (recomputed per comparison),
   drop cuts whose key was seen, cap at [max_per_round]. [seen] is the
   caller's key set, carried across calls like the pool's. *)
let select ~max_per_round seen x cand =
  let sorted = List.sort (fun a b -> compare (score x b) (score x a)) cand in
  let accepted = ref [] and count = ref 0 in
  List.iter
    (fun c ->
      if !count < max_per_round then begin
        let key = key_of c in
        if not (Hashtbl.mem seen key) then begin
          Hashtbl.replace seen key ();
          accepted := c :: !accepted;
          incr count
        end
      end)
    sorted;
  List.rev !accepted
