let src = Logs.Src.create "mm_lp.heur" ~doc:"primal heuristics"

module Log = (val Logs.src_log src : Logs.LOG)

(* GUB-aware diving and rounding. The paper's formulations carry one
   generalized-upper-bound equality per segment — sum_t Z[d,t] = 1 over
   binaries (the `uniq_%d` uniqueness rows) — so an incumbent is a
   choice of exactly one variable per GUB set. Rounding picks the
   largest fractional variable of each set; diving fixes one whole set
   per re-solve, which terminates in O(segments) warm dual LPs. *)

type result = {
  incumbent : (float array * float) option;
      (* feasible point and its objective in the internal minimization
         sense (obj_const included) *)
  dives : int;
  lp : Simplex.stats;
  lp_time : float;
  root_basis : Simplex.basis option;
      (* the first optimum, before any dive fixing: the tree's root *)
}

let internal_obj (p : Problem.t) x =
  let acc = ref p.Problem.obj_const in
  for j = 0 to p.Problem.ncols - 1 do
    acc := !acc +. (p.Problem.obj.(j) *. x.(j))
  done;
  !acc

(* Equality rows  sum_j x_j = 1  over >= 2 binaries with unit
   coefficients: the GUB structure the diving order exploits. *)
let gub_rows (p : Problem.t) =
  let rows = ref [] in
  for r = p.Problem.nrows - 1 downto 0 do
    if
      p.Problem.row_lb.(r) = 1.0
      && p.Problem.row_ub.(r) = 1.0
      && Problem.row_nnz p r >= 2
    then begin
      let ok = ref true in
      Problem.row_iter p r (fun j a ->
          if a <> 1.0 || p.Problem.kind.(j) <> Problem.Binary then ok := false);
      if !ok then rows := r :: !rows
    end
  done;
  !rows

let int_vars (p : Problem.t) =
  List.filter
    (fun j ->
      match p.Problem.kind.(j) with
      | Problem.Integer | Problem.Binary -> true
      | Problem.Continuous -> false)
    (Mm_util.Ints.range p.Problem.ncols)

(* GUB-aware rounding of a fractional point: one winner (largest value,
   lowest index on ties) per GUB row, remaining integer variables to
   the nearest in-bounds integer, continuous variables kept. *)
let round_point p ~gubs ~ints x =
  let n = p.Problem.ncols in
  let r = Array.copy x in
  let decided = Array.make n false in
  let ok = ref true in
  List.iter
    (fun row ->
      if !ok then begin
        (* honor a winner already forced by an earlier (overlapping) row *)
        let winner = ref (-1) and best = ref neg_infinity in
        Problem.row_iter p row (fun j _ ->
            if decided.(j) && r.(j) = 1.0 && !winner < 0 then winner := j);
        if !winner < 0 then
          Problem.row_iter p row (fun j _ ->
              if (not decided.(j)) && x.(j) > !best then begin
                winner := j;
                best := x.(j)
              end);
        if !winner < 0 then ok := false
        else
          Problem.row_iter p row (fun j _ ->
              if (not decided.(j)) || r.(j) <> 1.0 || j = !winner then begin
                r.(j) <- (if j = !winner then 1.0 else 0.0);
                decided.(j) <- true
              end)
      end)
    gubs;
  if not !ok then None
  else begin
    List.iter
      (fun j ->
        if not decided.(j) then begin
          let v = Float.round r.(j) in
          let v = Float.max p.Problem.col_lb.(j) (Float.min p.Problem.col_ub.(j) v) in
          r.(j) <- v
        end)
      ints;
    if Problem.max_violation p r <= 1e-7 then Some r else None
  end

let none =
  {
    incumbent = None;
    dives = 0;
    lp = Simplex.empty_stats;
    lp_time = 0.0;
    root_basis = None;
  }

let run ?basis ?deadline ~snk (p : Problem.t) =
  if Problem.num_integer p = 0 then none
  else begin
    let gubs = gub_rows p in
    let ints = int_vars p in
    let sx = Simplex.create p in
    Option.iter (Simplex.restore_basis sx) basis;
    Simplex.set_trace sx snk;
    let lp_time = ref 0.0 in
    let timed_solve ~prefer_dual () =
      let t0 = Unix.gettimeofday () in
      let r = Simplex.solve ?deadline ~prefer_dual sx in
      lp_time := !lp_time +. (Unix.gettimeofday () -. t0);
      r
    in
    let best = ref None in
    let consider x =
      match round_point p ~gubs ~ints x with
      | None -> ()
      | Some r -> (
          let obj = internal_obj p r in
          match !best with
          | Some (_, b) when b <= obj -> ()
          | _ -> best := Some (r, obj))
    in
    let dives = ref 0 in
    let max_dives = List.length gubs + List.length ints + 4 in
    let unfixed = ref gubs in
    let root_basis = ref None in
    (* a cut-loop optimum is dual feasible on the cut-extended rows, so
       the dual re-optimizes it; a cold start runs the primal *)
    (match timed_solve ~prefer_dual:(basis <> None) () with
    | Simplex.Optimal ->
        root_basis := Some (Simplex.basis_snapshot sx);
        let continue_ = ref true in
        while !continue_ do
          let x = Simplex.primal sx in
          consider x;
          if Problem.integer_violation p x <= 1e-6 then continue_ := false
          else begin
            (* pick the most nearly decided fractional GUB row *)
            let target = ref None and target_val = ref neg_infinity in
            List.iter
              (fun row ->
                let mx = ref neg_infinity and frac = ref false in
                Problem.row_iter p row (fun j _ ->
                    if x.(j) > !mx then mx := x.(j);
                    let d = x.(j) -. Float.round x.(j) in
                    if Float.abs d > 1e-6 then frac := true);
                if !frac && !mx > !target_val then begin
                  target := Some row;
                  target_val := !mx
                end)
              !unfixed;
            (match !target with
            | Some row ->
                unfixed := List.filter (fun r -> r <> row) !unfixed;
                let winner = ref (-1) and bestv = ref neg_infinity in
                Problem.row_iter p row (fun j _ ->
                    if x.(j) > !bestv then begin
                      winner := j;
                      bestv := x.(j)
                    end);
                Problem.row_iter p row (fun j _ ->
                    if j = !winner then Simplex.set_bounds sx j 1.0 1.0
                    else Simplex.set_bounds sx j 0.0 0.0)
            | None -> (
                (* no fractional GUB left: dive on the most fractional
                   integer variable toward its nearest integer *)
                let pick = ref (-1) and pf = ref 0.0 in
                List.iter
                  (fun j ->
                    let f = x.(j) -. Float.floor x.(j) in
                    let d = 0.5 -. Float.abs (f -. 0.5) in
                    if d > !pf +. 1e-9 then begin
                      pick := j;
                      pf := d
                    end)
                  ints;
                match !pick with
                | -1 -> continue_ := false
                | j ->
                    let v = Float.round x.(j) in
                    Simplex.set_bounds sx j v v));
            if !continue_ then begin
              incr dives;
              if !dives > max_dives then continue_ := false
              else
                match timed_solve ~prefer_dual:true () with
                | Simplex.Optimal -> ()
                | _ -> continue_ := false
            end
          end
        done
    | _ -> ());
    Simplex.flush_trace sx;
    (match !best with
    | Some (_, obj) ->
        Mm_obs.Trace.point snk "heuristic_incumbent" obj;
        Log.debug (fun m -> m "GUB dive incumbent %g after %d dives" obj !dives)
    | None -> ());
    {
      incumbent = !best;
      dives = !dives;
      lp = Simplex.stats sx;
      lp_time = !lp_time;
      root_basis = !root_basis;
    }
  end
