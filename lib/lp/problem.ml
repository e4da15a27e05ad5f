type var_kind = Continuous | Integer | Binary

type t = {
  ncols : int;
  nrows : int;
  obj : float array;
  obj_const : float;
  maximize_input : bool;
  col_lb : float array;
  col_ub : float array;
  kind : var_kind array;
  row_lb : float array;
  row_ub : float array;
  cols : (int array * float array) array;
  rows : (int array * float array) array;
  col_names : string array;
  row_names : string array;
}

let col_iter p j f =
  let idx, v = p.cols.(j) in
  for k = 0 to Array.length idx - 1 do
    f idx.(k) v.(k)
  done

let row_iter p r f =
  let idx, v = p.rows.(r) in
  for k = 0 to Array.length idx - 1 do
    f idx.(k) v.(k)
  done

let col_nnz p j = Array.length (fst p.cols.(j))
let row_nnz p r = Array.length (fst p.rows.(r))

let nnz p =
  Array.fold_left (fun acc (idx, _) -> acc + Array.length idx) 0 p.cols

let num_integer p =
  let n = ref 0 in
  Array.iter (function Integer | Binary -> incr n | Continuous -> ()) p.kind;
  !n

let row_activity p x r =
  let idx, v = p.rows.(r) in
  let acc = ref 0.0 in
  for k = 0 to Array.length idx - 1 do
    acc := !acc +. (v.(k) *. x.(idx.(k)))
  done;
  !acc

let integer_columns p =
  List.filter
    (fun j ->
      match p.kind.(j) with Integer | Binary -> true | Continuous -> false)
    (Mm_util.Ints.range p.ncols)

let internal_objective p x =
  let acc = ref p.obj_const in
  for j = 0 to p.ncols - 1 do
    acc := !acc +. (p.obj.(j) *. x.(j))
  done;
  !acc

let objective_value p x =
  let v = internal_objective p x in
  if p.maximize_input then -.v else v

let max_violation p x =
  let viol = ref 0.0 in
  let clip v lo hi =
    if v < lo then lo -. v else if v > hi then v -. hi else 0.0
  in
  for j = 0 to p.ncols - 1 do
    viol := Float.max !viol (clip x.(j) p.col_lb.(j) p.col_ub.(j))
  done;
  for r = 0 to p.nrows - 1 do
    viol := Float.max !viol (clip (row_activity p x r) p.row_lb.(r) p.row_ub.(r))
  done;
  !viol

let integer_violation p x =
  let viol = ref 0.0 in
  for j = 0 to p.ncols - 1 do
    match p.kind.(j) with
    | Continuous -> ()
    | Integer | Binary ->
        let f = Float.abs (x.(j) -. Float.round x.(j)) in
        viol := Float.max !viol f
  done;
  !viol

let is_feasible ?(tol = 1e-6) p x =
  max_violation p x <= tol && integer_violation p x <= tol

let validate p =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  (* [what] and [i] name the vector only in an error: a clean pass
     formats nothing *)
  let check_sorted what i (idx, v) limit =
    if Array.length idx <> Array.length v then
      err "%s %d: index/value mismatch" what i
    else
      let ok = ref (Ok ()) in
      for k = 0 to Array.length idx - 1 do
        if idx.(k) < 0 || idx.(k) >= limit then
          ok := err "%s %d: index out of range" what i;
        if k > 0 && idx.(k) <= idx.(k - 1) then
          ok := err "%s %d: unsorted indices" what i;
        if not (Float.is_finite v.(k)) then
          ok := err "%s %d: non-finite coefficient" what i
      done;
      !ok
  in
  let rec first_error = function
    | [] -> Ok ()
    | f :: rest -> ( match f () with Ok () -> first_error rest | e -> e)
  in
  first_error
    [
      (fun () ->
        if
          Array.length p.obj = p.ncols
          && Array.length p.col_lb = p.ncols
          && Array.length p.col_ub = p.ncols
          && Array.length p.kind = p.ncols
          && Array.length p.cols = p.ncols
          && Array.length p.col_names = p.ncols
          && Array.length p.row_lb = p.nrows
          && Array.length p.row_ub = p.nrows
          && Array.length p.rows = p.nrows
          && Array.length p.row_names = p.nrows
        then Ok ()
        else err "dimension mismatch");
      (fun () ->
        let bad = ref (Ok ()) in
        for j = 0 to p.ncols - 1 do
          if p.col_lb.(j) > p.col_ub.(j) then
            bad := err "column %s: lb > ub" p.col_names.(j)
        done;
        !bad);
      (fun () ->
        let bad = ref (Ok ()) in
        for r = 0 to p.nrows - 1 do
          if p.row_lb.(r) > p.row_ub.(r) then
            bad := err "row %s: lb > ub" p.row_names.(r)
        done;
        !bad);
      (fun () ->
        let bad = ref (Ok ()) in
        Array.iteri
          (fun j col ->
            match check_sorted "col" j col p.nrows with
            | Ok () -> ()
            | e -> bad := e)
          p.cols;
        !bad);
      (fun () ->
        let bad = ref (Ok ()) in
        Array.iteri
          (fun r row ->
            match check_sorted "row" r row p.ncols with
            | Ok () -> ()
            | e -> bad := e)
          p.rows;
        !bad);
    ]

(* The new rows have the largest indices, so each of their entries goes
   at the end of its column: only the columns they touch are copied, and
   every other column array is shared with [p], as the bounds are. *)
let extend_rows p extra =
  let extra =
    List.map
      (fun (name, terms, lo, hi) ->
        let terms = List.sort (fun (a, _) (b, _) -> compare a b) terms in
        let terms = List.filter (fun (_, c) -> c <> 0.0) terms in
        ( name,
          (Array.of_list (List.map fst terms), Array.of_list (List.map snd terms)),
          lo,
          hi ))
      extra
  in
  let append a f = Array.append a (Array.of_list (List.map f extra)) in
  (* [added.(j)] counts column [j]'s new entries, then becomes the
     position its next one is written at *)
  let added = Array.make p.ncols 0 in
  List.iter
    (fun (_, (idx, _), _, _) -> Array.iter (fun j -> added.(j) <- added.(j) + 1) idx)
    extra;
  let cols =
    Array.mapi
      (fun j ((idx, v) as col) ->
        if added.(j) = 0 then col
        else
          let len = Array.length idx in
          let idx' = Array.make (len + added.(j)) 0 in
          let v' = Array.make (len + added.(j)) 0.0 in
          Array.blit idx 0 idx' 0 len;
          Array.blit v 0 v' 0 len;
          added.(j) <- len;
          (idx', v'))
      p.cols
  in
  List.iteri
    (fun i (_, (idx, v), _, _) ->
      Array.iteri
        (fun s j ->
          let cidx, cval = cols.(j) in
          cidx.(added.(j)) <- p.nrows + i;
          cval.(added.(j)) <- v.(s);
          added.(j) <- added.(j) + 1)
        idx)
    extra;
  {
    p with
    nrows = p.nrows + List.length extra;
    rows = append p.rows (fun (_, row, _, _) -> row);
    row_lb = append p.row_lb (fun (_, _, lo, _) -> lo);
    row_ub = append p.row_ub (fun (_, _, _, hi) -> hi);
    row_names = append p.row_names (fun (name, _, _, _) -> name);
    cols;
  }

let pp_stats fmt p =
  Format.fprintf fmt "%d cols (%d integer), %d rows, %d nonzeros" p.ncols
    (num_integer p) p.nrows (nnz p)
