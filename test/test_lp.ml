open Mm_lp

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 0x5eed; 2026 |])
    (QCheck.Test.make ~count ~name gen prop)

(* --- Expr ---------------------------------------------------------------- *)

let test_expr_combinators () =
  let e = Expr.(add (var 0) (add (var ~coeff:2.0 1) (const 3.0))) in
  Alcotest.(check (float 0.0)) "coeff 0" 1.0 (Expr.coeff e 0);
  Alcotest.(check (float 0.0)) "coeff 1" 2.0 (Expr.coeff e 1);
  Alcotest.(check (float 0.0)) "coeff 2" 0.0 (Expr.coeff e 2);
  Alcotest.(check (float 0.0)) "const" 3.0 (Expr.constant e);
  let e2 = Expr.sub e e in
  Alcotest.(check int) "self-sub cancels" 0 (Expr.num_terms e2);
  let e3 = Expr.scale 2.0 e in
  Alcotest.(check (float 0.0)) "scaled" 4.0 (Expr.coeff e3 1);
  Alcotest.(check (float 0.0)) "scaled const" 6.0 (Expr.constant e3)

(* [Expr.sum] must equal folding [Expr.add] over its operands bit for
   bit: the formulation builders' coefficients (and the pinned MPS
   digests) depend on the order of the additions. Decimal coefficients
   round differently under a different order; opposite ones cancel
   partial sums to zero mid-fold. *)
let prop_expr_sum_is_fold_add =
  let coeffs = [| 0.1; 0.2; 0.3; -0.1; -0.3; 0.7; 1e16; -1e16; 1.0; -1.0 |] in
  let gen =
    QCheck.Gen.(
      list_size (int_range 0 8)
        (pair (float_range (-3.0) 3.0)
           (list_size (int_range 0 6)
              (pair (int_range 0 9) (int_range 0 (Array.length coeffs - 1))))))
  in
  qtest ~count:300 "sum is a left fold of add, bit for bit"
    (QCheck.make gen) (fun spec ->
      let es =
        List.map
          (fun (k, ts) ->
            List.fold_left
              (fun e (i, c) -> Expr.add e (Expr.var ~coeff:coeffs.(c) i))
              (Expr.const k) ts)
          spec
      in
      let bits e =
        ( Int64.bits_of_float (Expr.constant e),
          List.map
            (fun (i, c) -> (i, Int64.bits_of_float c))
            (Expr.terms e) )
      in
      bits (Expr.sum es) = bits (List.fold_left Expr.add Expr.zero es))

(* The array-backed [Expr] against the map-based version it replaced
   ([Ref_expr]): random programs of every combinator must give the same
   terms, constant and per-variable coefficients, bit for bit. Operands
   arrive unsorted and with duplicates, opposite coefficients cancel
   exactly, and scaling by a tiny factor underflows a coefficient to a
   stored zero. *)
type expr_prog =
  | P_var of int * float
  | P_const of float
  | P_add of expr_prog * expr_prog
  | P_sub of expr_prog * expr_prog
  | P_neg of expr_prog
  | P_scale of float * expr_prog
  | P_sum of expr_prog list

module type EXPR_OPS = sig
  type t

  val const : float -> t
  val var : ?coeff:float -> int -> t
  val add : t -> t -> t
  val sub : t -> t -> t
  val scale : float -> t -> t
  val neg : t -> t
  val sum : t list -> t
  val constant : t -> float
  val coeff : t -> int -> float
  val terms : t -> (int * float) list
  val num_terms : t -> int
end

module Expr_bits (E : EXPR_OPS) = struct
  let rec run = function
    | P_var (i, c) -> E.var ~coeff:c i
    | P_const c -> E.const c
    | P_add (a, b) -> E.add (run a) (run b)
    | P_sub (a, b) -> E.sub (run a) (run b)
    | P_neg a -> E.neg (run a)
    | P_scale (k, a) -> E.scale k (run a)
    | P_sum ps -> E.sum (List.map run ps)

  let bits prog =
    let e = run prog and b = Int64.bits_of_float in
    ( b (E.constant e),
      List.map (fun (i, c) -> (i, b c)) (E.terms e),
      List.init 10 (fun i -> b (E.coeff e i)),
      E.num_terms e )
end

module New_bits = Expr_bits (Expr)
module Ref_bits = Expr_bits (Ref_expr)

let prop_expr_matches_map_reference =
  let coeffs =
    [| 0.1; 0.2; 0.3; -0.1; -0.3; 0.7; 1e16; -1e16; 1.0; -1.0; 0.0; -0.0; 1e-200; -1e-200 |]
  in
  let factors = [| 2.0; -1.0; 0.5; 0.1; 1e-200; 0.0; -0.0 |] in
  let pick a = QCheck.Gen.(map (fun k -> a.(k)) (int_range 0 (Array.length a - 1))) in
  let gen =
    QCheck.Gen.(
      sized_size (int_range 0 4)
      @@ fix (fun self n ->
             let leaf =
               frequency
                 [
                   (4, map2 (fun i c -> P_var (i, c)) (int_range 0 9) (pick coeffs));
                   (1, map (fun c -> P_const c) (pick coeffs));
                 ]
             in
             if n = 0 then leaf
             else
               let sub = self (n - 1) in
               frequency
                 [
                   (2, leaf);
                   (2, map2 (fun a b -> P_add (a, b)) sub sub);
                   (1, map2 (fun a b -> P_sub (a, b)) sub sub);
                   (1, map (fun a -> P_neg a) sub);
                   (1, map2 (fun k a -> P_scale (k, a)) (pick factors) sub);
                   (2, map (fun ps -> P_sum ps) (list_size (int_range 0 6) sub));
                 ]))
  in
  let rec print = function
    | P_var (i, c) -> Printf.sprintf "var(%d,%h)" i c
    | P_const c -> Printf.sprintf "const(%h)" c
    | P_add (a, b) -> Printf.sprintf "add(%s,%s)" (print a) (print b)
    | P_sub (a, b) -> Printf.sprintf "sub(%s,%s)" (print a) (print b)
    | P_neg a -> Printf.sprintf "neg(%s)" (print a)
    | P_scale (k, a) -> Printf.sprintf "scale(%h,%s)" k (print a)
    | P_sum ps -> Printf.sprintf "sum[%s]" (String.concat ";" (List.map print ps))
  in
  qtest ~count:2000 "array Expr matches the map reference, bit for bit"
    (QCheck.make ~print gen) (fun prog -> New_bits.bits prog = Ref_bits.bits prog)

(* --- Model / Problem ------------------------------------------------------ *)

let test_model_build () =
  let m = Model.create () in
  let x = Model.add_var m ~name:"x" ~lb:1.0 ~ub:4.0 Problem.Continuous in
  let y = Model.binary m ~name:"y" () in
  Model.add_le m Expr.(add (var x) (var y)) 4.0;
  Model.add_eq m Expr.(add (var x) (const 1.0)) 3.0;
  let p = Model.to_problem m in
  Alcotest.(check int) "cols" 2 p.Problem.ncols;
  Alcotest.(check int) "rows" 2 p.Problem.nrows;
  (match Problem.validate p with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* constant folded into rhs *)
  Alcotest.(check (float 0.0)) "rhs adjusted" 2.0 p.Problem.row_ub.(1);
  Alcotest.(check (float 0.0)) "binary ub" 1.0 p.Problem.col_ub.(y)

let test_problem_feasibility () =
  let m = Model.create () in
  let x = Model.add_var m ~ub:10.0 Problem.Integer in
  Model.add_le m (Expr.var x) 5.0;
  let p = Model.to_problem m in
  Alcotest.(check bool) "feasible point" true (Problem.is_feasible p [| 3.0 |]);
  Alcotest.(check bool) "violates row" false (Problem.is_feasible p [| 7.0 |]);
  Alcotest.(check bool) "violates integrality" false
    (Problem.is_feasible p [| 2.5 |])

let test_problem_extend_rows () =
  let m = Model.create () in
  let x = Model.binary m () and y = Model.binary m () in
  Model.add_le m Expr.(add (var x) (var y)) 2.0;
  let p = Model.to_problem m in
  let p2 =
    Problem.extend_rows p [ ("cut", [ (x, 1.0); (y, 1.0) ], neg_infinity, 1.0) ]
  in
  Alcotest.(check int) "rows" 2 p2.Problem.nrows;
  (match Problem.validate p2 with Ok () -> () | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "cut active" false (Problem.is_feasible p2 [| 1.0; 1.0 |])

(* --- Simplex -------------------------------------------------------------- *)

let solve_lp m =
  let p = Model.to_problem m in
  let s = Simplex.create p in
  (p, s, Simplex.solve s)

(* [create] validates the index arrays its unchecked kernels read *)
let test_simplex_create_rejects_bad_indices () =
  let m = Model.create () in
  let x = Model.binary m () and y = Model.binary m () in
  Model.add_le m Expr.(add (var x) (var y)) 5.0;
  Model.add_ge m Expr.(sub (var x) (var y)) (-1.0);
  let p = Model.to_problem m in
  ignore (Simplex.create p);
  let rejects what p =
    match Simplex.create p with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "Simplex.create accepted %s" what
  in
  let with_col j c =
    let cols = Array.copy p.Problem.cols in
    cols.(j) <- c;
    { p with Problem.cols }
  in
  let with_row r c =
    let rows = Array.copy p.Problem.rows in
    rows.(r) <- c;
    { p with Problem.rows }
  in
  rejects "a row index past the last row"
    (with_col 0 ([| 0; 2 |], [| 1.0; 1.0 |]));
  rejects "a negative row index" (with_col 1 ([| -1; 1 |], [| 1.0; -1.0 |]));
  rejects "unsorted row indices" (with_col 0 ([| 1; 0 |], [| 1.0; 1.0 |]));
  rejects "a column index past the last column"
    (with_row 0 ([| 0; 2 |], [| 1.0; 1.0 |]));
  rejects "unsorted column indices" (with_row 1 ([| 1; 0 |], [| -1.0; 1.0 |]));
  rejects "indices without values" (with_col 0 ([| 0; 1 |], [| 1.0 |]))

let test_simplex_known_optimum () =
  (* classic: max 3x+2y st x+y<=4, x+3y<=6 -> (4,0), obj 12 *)
  let m = Model.create () in
  let x = Model.add_var m Problem.Continuous in
  let y = Model.add_var m Problem.Continuous in
  Model.add_le m Expr.(add (var x) (var y)) 4.0;
  Model.add_le m Expr.(add (var x) (scale 3.0 (var y))) 6.0;
  Model.set_objective m Model.Maximize Expr.(add (scale 3.0 (var x)) (scale 2.0 (var y)));
  let p, s, r = solve_lp m in
  Alcotest.(check bool) "optimal" true (r = Simplex.Optimal);
  Alcotest.(check (float 1e-6)) "objective" 12.0
    (Problem.objective_value p (Simplex.primal s))

let test_simplex_infeasible () =
  let m = Model.create () in
  let x = Model.add_var m Problem.Continuous in
  Model.add_le m (Expr.var x) 1.0;
  Model.add_ge m (Expr.var x) 2.0;
  let _, _, r = solve_lp m in
  Alcotest.(check bool) "infeasible" true (r = Simplex.Infeasible)

let test_simplex_unbounded () =
  let m = Model.create () in
  let x = Model.add_var m ~obj:(-1.0) Problem.Continuous in
  Model.add_ge m (Expr.var x) 0.0;
  let _, _, r = solve_lp m in
  Alcotest.(check bool) "unbounded" true (r = Simplex.Unbounded)

let test_simplex_equality_range () =
  (* x+y=5, 1<=x-y<=2, min x -> x=3 *)
  let m = Model.create () in
  let x = Model.add_var m ~obj:1.0 Problem.Continuous in
  let y = Model.add_var m Problem.Continuous in
  Model.add_eq m Expr.(add (var x) (var y)) 5.0;
  Model.add_range m 1.0 Expr.(sub (var x) (var y)) 2.0;
  let p, s, r = solve_lp m in
  Alcotest.(check bool) "optimal" true (r = Simplex.Optimal);
  Alcotest.(check (float 1e-6)) "objective" 3.0
    (Problem.objective_value p (Simplex.primal s))

let test_simplex_degenerate () =
  (* many redundant constraints through the same vertex *)
  let m = Model.create () in
  let x = Model.add_var m ~obj:(-1.0) ~ub:10.0 Problem.Continuous in
  let y = Model.add_var m ~obj:(-1.0) ~ub:10.0 Problem.Continuous in
  for _ = 1 to 20 do
    Model.add_le m Expr.(add (var x) (var y)) 10.0
  done;
  Model.add_le m Expr.(sub (var x) (var y)) 0.0;
  let p, s, r = solve_lp m in
  Alcotest.(check bool) "optimal" true (r = Simplex.Optimal);
  Alcotest.(check (float 1e-6)) "objective" (-10.0)
    (Problem.objective_value p (Simplex.primal s))

let test_simplex_free_variable () =
  (* free variable: min x st x >= -7 via row *)
  let m = Model.create () in
  let x = Model.add_var m ~lb:neg_infinity ~obj:1.0 Problem.Continuous in
  Model.add_ge m (Expr.var x) (-7.0);
  let p, s, r = solve_lp m in
  Alcotest.(check bool) "optimal" true (r = Simplex.Optimal);
  Alcotest.(check (float 1e-6)) "objective" (-7.0)
    (Problem.objective_value p (Simplex.primal s))

let test_simplex_warm_restart () =
  let m = Model.create () in
  let x = Model.add_var m ~ub:5.0 ~obj:(-1.0) Problem.Continuous in
  let y = Model.add_var m ~ub:5.0 ~obj:(-1.0) Problem.Continuous in
  Model.add_le m Expr.(add (var x) (var y)) 6.0;
  let p = Model.to_problem m in
  let s = Simplex.create p in
  Alcotest.(check bool) "first" true (Simplex.solve s = Simplex.Optimal);
  Alcotest.(check (float 1e-6)) "obj1" (-6.0) (Simplex.objective s);
  (* tighten x and re-solve from the same basis *)
  Simplex.set_bounds s x 0.0 1.0;
  Alcotest.(check bool) "second" true (Simplex.solve s = Simplex.Optimal);
  Alcotest.(check (float 1e-6)) "obj2" (-6.0) (Simplex.objective s);
  Simplex.set_bounds s y 0.0 1.0;
  Alcotest.(check bool) "third" true (Simplex.solve s = Simplex.Optimal);
  Alcotest.(check (float 1e-6)) "obj3" (-2.0) (Simplex.objective s)


let test_simplex_basis_snapshot () =
  let m = Model.create () in
  let x = Model.add_var m ~ub:5.0 ~obj:(-1.0) Problem.Continuous in
  let y = Model.add_var m ~ub:5.0 ~obj:(-2.0) Problem.Continuous in
  Model.add_le m Expr.(add (var x) (var y)) 7.0;
  let p = Model.to_problem m in
  let s = Simplex.create p in
  Alcotest.(check bool) "solve" true (Simplex.solve s = Simplex.Optimal);
  let snap = Simplex.basis_snapshot s in
  let saved_bounds = Simplex.save_bounds s in
  let obj1 = Simplex.objective s in
  (* perturb and restore *)
  Simplex.set_bounds s x 0.0 1.0;
  Alcotest.(check bool) "resolve" true (Simplex.solve s = Simplex.Optimal);
  Alcotest.(check bool) "objective changed" true
    (Float.abs (Simplex.objective s -. obj1) > 1e-9);
  Simplex.restore_bounds s saved_bounds;
  Simplex.restore_basis s snap;
  Alcotest.(check bool) "resolve from snapshot" true (Simplex.solve s = Simplex.Optimal);
  Alcotest.(check (float 1e-9)) "objective restored" obj1 (Simplex.objective s)

let test_simplex_duals_signs () =
  (* min x st x >= 3 (row): dual of the >= row must be nonnegative-ish
     in our convention; at least the duals must price the optimum *)
  let m = Model.create () in
  let x = Model.add_var m ~obj:1.0 Problem.Continuous in
  Model.add_ge m (Expr.var x) 3.0;
  let p = Model.to_problem m in
  let s = Simplex.create p in
  Alcotest.(check bool) "optimal" true (Simplex.solve s = Simplex.Optimal);
  let d = Simplex.reduced_costs s in
  (* x is basic at 3, its reduced cost must vanish *)
  Alcotest.(check (float 1e-7)) "basic reduced cost" 0.0 d.(x);
  Alcotest.(check int) "one dual" 1 (Array.length (Simplex.duals s))

let test_fixed_variable_lp () =
  let m = Model.create () in
  let x = Model.add_var m ~lb:2.0 ~ub:2.0 ~obj:5.0 Problem.Continuous in
  let y = Model.add_var m ~ub:4.0 ~obj:1.0 Problem.Continuous in
  Model.add_ge m Expr.(add (var x) (var y)) 3.0;
  let p = Model.to_problem m in
  let s = Simplex.create p in
  Alcotest.(check bool) "optimal" true (Simplex.solve s = Simplex.Optimal);
  Alcotest.(check (float 1e-6)) "objective" 11.0
    (Problem.objective_value p (Simplex.primal s))

(* Random LPs: the simplex solution must be feasible, and the sign
   conditions on reduced costs certify optimality (weak duality). *)
let random_lp_gen =
  QCheck.make
    QCheck.Gen.(
      let* n = int_range 1 6 in
      let* mrows = int_range 1 5 in
      let* seed = int_range 0 1_000_000 in
      return (n, mrows, seed))

let build_random_lp (n, mrows, seed) =
  let rng = Mm_util.Prng.create seed in
  let m = Model.create () in
  let vars =
    Array.init n (fun _ ->
        Model.add_var m
          ~ub:(float_of_int (Mm_util.Prng.int_in rng 1 20))
          ~obj:(float_of_int (Mm_util.Prng.int_in rng (-9) 9))
          Problem.Continuous)
  in
  for _ = 1 to mrows do
    let e =
      Expr.sum
        (List.map
           (fun j ->
             Expr.var ~coeff:(float_of_int (Mm_util.Prng.int_in rng (-5) 5)) vars.(j))
           (Mm_util.Ints.range n))
    in
    Model.add_le m e (float_of_int (Mm_util.Prng.int_in rng 0 30))
  done;
  Model.to_problem m

let prop_simplex_feasible_and_certified =
  qtest ~count:300 "random LP: solution feasible, reduced costs certify"
    random_lp_gen (fun params ->
      let p = build_random_lp params in
      let s = Simplex.create p in
      match Simplex.solve s with
      | Simplex.Optimal ->
          let x = Simplex.primal s in
          let feas = Problem.max_violation p x <= 1e-6 in
          let d = Simplex.reduced_costs s in
          let certified = ref true in
          Array.iteri
            (fun j dj ->
              (* at lower bound, reduced cost must be >= 0; at upper <= 0 *)
              let lb = p.Problem.col_lb.(j) and ub = p.Problem.col_ub.(j) in
              if Float.abs (x.(j) -. lb) < 1e-7 && Float.abs (x.(j) -. ub) > 1e-7
              then (if dj < -1e-5 then certified := false)
              else if
                Float.abs (x.(j) -. ub) < 1e-7 && Float.abs (x.(j) -. lb) > 1e-7
              then (if dj > 1e-5 then certified := false))
            d;
          feas && !certified
      | Simplex.Unbounded | Simplex.Infeasible -> true
      | Simplex.Iteration_limit -> false)


(* Wider random LPs for exercising the sparse LU/eta engine: enough
   rows that the factorization actually refactors and accumulates
   eta files, unlike the tiny LPs above. *)
let random_lp_wide_gen =
  QCheck.make
    QCheck.Gen.(
      let* n = int_range 2 16 in
      let* mrows = int_range 2 12 in
      let* seed = int_range 0 1_000_000 in
      return (n, mrows, seed))

(* Fresh reduced costs certify the final basis: every nonbasic variable
   is sign-feasible for its status within [tols.opt]. Structural
   reduced costs come from [reduced_costs]; a slack's column is -e_r,
   so its reduced cost is the row dual. *)
let nonbasic_sign_feasible s (p : Problem.t) =
  let tol = Simplex.tols.Simplex.opt in
  let rc = Simplex.reduced_costs s and y = Simplex.duals s in
  let ok v d =
    let lb, ub = Simplex.var_bounds_all s v in
    match Simplex.var_status s v with
    | Simplex.Basic -> true
    | Simplex.At_lower -> ub <= lb || d >= -.tol
    | Simplex.At_upper -> ub <= lb || d <= tol
    | Simplex.Free_nonbasic -> Float.abs d <= tol
  in
  let structural = ref true and slacks = ref true in
  Array.iteri (fun j d -> if not (ok j d) then structural := false) rc;
  Array.iteri
    (fun r d -> if not (ok (p.Problem.ncols + r) d) then slacks := false)
    y;
  !structural && !slacks

(* Each arm solves cold, then takes one warm step: the column with the
   largest value (column 0 when there is none) gets its upper bound
   halved towards that value and the same instance re-solves from its
   final basis. Both solves must match a fresh dense oracle on the same
   bounds, and every Optimal must be certified by fresh reduced costs —
   a stale maintained reduced cost that declared optimality early fails
   here. *)
let prop_sparse_matches_dense_oracle =
  qtest ~count:300
    "sparse LU engine agrees with the dense oracle (primal and dual)"
    random_lp_wide_gen (fun params ->
      let p = build_random_lp params in
      let agrees s sr d dr =
        match (sr, dr) with
        | Simplex.Optimal, Dense_simplex.Optimal ->
            let a = Simplex.objective s and b = Dense_simplex.objective d in
            Float.abs (a -. b) <= 1e-6 *. Float.max 1.0 (Float.abs b)
            && nonbasic_sign_feasible s p
        | Simplex.Infeasible, Dense_simplex.Infeasible -> true
        | Simplex.Unbounded, Dense_simplex.Unbounded -> true
        | _ -> false
      in
      let d = Dense_simplex.create p in
      let dr = Dense_simplex.solve d in
      List.for_all
        (fun prefer_dual ->
          let s = Simplex.create p in
          let sr = Simplex.solve ~prefer_dual s in
          agrees s sr d dr
          &&
          let x = Simplex.primal s in
          let j = ref 0 in
          Array.iteri (fun k v -> if v > x.(!j) then j := k) x;
          let j = !j in
          let lb, ub = Simplex.get_bounds s j in
          let ub' = lb +. ((Float.min ub (Float.max x.(j) lb) -. lb) /. 2.0) in
          let ub' = if ub' > lb then ub' else lb +. ((ub -. lb) /. 2.0) in
          Simplex.set_bounds s j lb ub';
          let d' = Dense_simplex.create p in
          Dense_simplex.set_bounds d' j lb ub';
          agrees s (Simplex.solve ~prefer_dual s) d' (Dense_simplex.solve d'))
        [ false; true ])

(* Single-step the solver ([iteration_limit:1] performs exactly one
   iteration per call) and, whenever that iteration was a bound flip,
   check the true objective moved by no more than the largest possible
   flip delta at the pre-step basis: max |reduced cost| x bound gap over
   nonbasic candidates (structural columns via [reduced_costs], slacks
   via row duals). Valid in both phases: a flip of column q changes the
   true objective by exactly its true reduced cost times the gap, even
   when phase-1 pricing selected it. *)
let prop_flip_objective_bounded =
  qtest ~count:200 "bound flips move the objective by at most the flip delta"
    random_lp_wide_gen (fun params ->
      let p = build_random_lp params in
      let s = Simplex.create p in
      let ok = ref true in
      let steps = ref 0 in
      let running = ref true in
      while !running && !steps < 400 do
        incr steps;
        let obj0 = Simplex.objective s in
        let flips0 = (Simplex.stats s).Simplex.flips in
        let bound =
          let b = ref 0.0 in
          Array.iteri
            (fun j dj ->
              let gap = p.Problem.col_ub.(j) -. p.Problem.col_lb.(j) in
              if Float.is_finite gap then
                b := Float.max !b (Float.abs dj *. gap))
            (Simplex.reduced_costs s);
          Array.iteri
            (fun r yr ->
              let gap = p.Problem.row_ub.(r) -. p.Problem.row_lb.(r) in
              if Float.is_finite gap then
                b := Float.max !b (Float.abs yr *. gap))
            (Simplex.duals s);
          !b
        in
        match Simplex.solve ~iteration_limit:1 s with
        | Simplex.Iteration_limit ->
            if (Simplex.stats s).Simplex.flips > flips0 then begin
              let delta = Float.abs (Simplex.objective s -. obj0) in
              if delta > bound +. 1e-6 then ok := false
            end
        | _ -> running := false
      done;
      !ok)

let prop_optimal_primal_within_row_bounds =
  qtest ~count:300 "optimal primal satisfies every row's bounds"
    random_lp_wide_gen (fun params ->
      let p = build_random_lp params in
      let s = Simplex.create p in
      match Simplex.solve s with
      | Simplex.Optimal ->
          let x = Simplex.primal s in
          let ok = ref true in
          for r = 0 to p.Problem.nrows - 1 do
            let act = ref 0.0 in
            Problem.row_iter p r (fun j a -> act := !act +. (a *. x.(j)));
            if
              !act < p.Problem.row_lb.(r) -. 1e-6
              || !act > p.Problem.row_ub.(r) +. 1e-6
            then ok := false
          done;
          !ok
      | _ -> true)

let prop_refactorize_preserves_primal =
  qtest ~count:300 "refactorization leaves the primal point unchanged"
    random_lp_wide_gen (fun params ->
      let p = build_random_lp params in
      let s = Simplex.create p in
      match Simplex.solve s with
      | Simplex.Optimal ->
          let x0 = Simplex.primal s and o0 = Simplex.objective s in
          Simplex.refactor s;
          let x1 = Simplex.primal s and o1 = Simplex.objective s in
          let drift = ref 0.0 in
          Array.iteri
            (fun j v -> drift := Float.max !drift (Float.abs (v -. x1.(j))))
            x0;
          !drift <= 1e-7 && Float.abs (o0 -. o1) <= 1e-7 *. Float.max 1.0 (Float.abs o0)
      | _ -> true)

let test_dual_simplex_reoptimize () =
  (* optimal basis + bound tightening = the dual warm-start pattern *)
  let m = Model.create () in
  let x = Model.add_var m ~ub:10.0 ~obj:(-2.0) Problem.Continuous in
  let y = Model.add_var m ~ub:10.0 ~obj:(-1.0) Problem.Continuous in
  Model.add_le m Expr.(add (var x) (var y)) 12.0;
  let p = Model.to_problem m in
  let s = Simplex.create p in
  Alcotest.(check bool) "first solve" true (Simplex.solve s = Simplex.Optimal);
  Alcotest.(check (float 1e-6)) "obj1" (-22.0) (Simplex.objective s);
  (* tighten x: basis stays dual feasible, dual simplex should finish *)
  Simplex.set_bounds s x 0.0 3.0;
  Alcotest.(check bool) "dual resolve" true
    (Simplex.solve ~prefer_dual:true s = Simplex.Optimal);
  Alcotest.(check (float 1e-6)) "obj2" (-15.0) (Simplex.objective s);
  (* make it infeasible: x >= 5 via bound with row x + y <= 12 is fine;
     instead clamp both variables above the row's reach *)
  Simplex.set_bounds s x 8.0 10.0;
  Simplex.set_bounds s y 8.0 10.0;
  Alcotest.(check bool) "dual detects infeasible" true
    (Simplex.solve ~prefer_dual:true s = Simplex.Infeasible)

let prop_dual_matches_primal =
  qtest ~count:200 "dual warm restart agrees with primal from scratch"
    random_lp_gen (fun params ->
      let p = build_random_lp params in
      let s = Simplex.create p in
      match Simplex.solve s with
      | Simplex.Optimal ->
          (* tighten a random variable's upper bound and re-solve twice *)
          let rng = Mm_util.Prng.create 5 in
          let j = Mm_util.Prng.int rng p.Problem.ncols in
          let lb = p.Problem.col_lb.(j) in
          let x = Simplex.primal s in
          let new_ub = Float.max lb (Float.floor (x.(j) /. 2.0)) in
          Simplex.set_bounds s j lb new_ub;
          let dual_result = Simplex.solve ~prefer_dual:true s in
          let fresh = Simplex.create p in
          Simplex.set_bounds fresh j lb new_ub;
          let primal_result = Simplex.solve fresh in
          (match (dual_result, primal_result) with
          | Simplex.Optimal, Simplex.Optimal ->
              Float.abs (Simplex.objective s -. Simplex.objective fresh)
              <= 1e-5 *. Float.max 1.0 (Float.abs (Simplex.objective fresh))
          | Simplex.Infeasible, Simplex.Infeasible -> true
          | Simplex.Unbounded, Simplex.Unbounded -> true
          | _ -> false)
      | _ -> true)

(* --- LU residuals ----------------------------------------------------------- *)

(* Every solve must satisfy its own system on arbitrary bases, including
   post-update eta files and bases drawn with near-singular pivots:
   ||B x - b|| for ftran, ||B^T y - c|| for btran and btran_unit, each
   checked before and after every update as a normwise backward error
   within 1e-9. Entering columns are built as B*w with w.(pos) = 1, so
   alpha(pos) stays ~1 and the update never stalls on the pivot
   tolerance. *)
let lu_basis_gen =
  QCheck.make
    ~print:(fun (m, seed) -> Printf.sprintf "m=%d seed=%d" m seed)
    QCheck.Gen.(pair (int_range 2 28) (int_bound 1_000_000))

let prop_lu_residuals =
  qtest ~count:300 "LU solves satisfy B x = b and B^T y = c to 1e-9"
    lu_basis_gen (fun (m, seed) ->
      let st = Random.State.make [| 0xfac; seed; m |] in
      let frand lo hi = lo +. Random.State.float st (hi -. lo) in
      (* random sparse basis: permuted diagonal (one in eight entries
         near-singular at ~1e-7) plus a few off-diagonal entries *)
      let perm = Array.init m Fun.id in
      for i = m - 1 downto 1 do
        let j = Random.State.int st (i + 1) in
        let t = perm.(i) in
        perm.(i) <- perm.(j);
        perm.(j) <- t
      done;
      let cols =
        Array.init m (fun k ->
            let diag =
              if Random.State.int st 8 = 0 then frand 1e-7 2e-7
              else frand 1.0 4.0
            in
            let entries = ref [ (perm.(k), diag) ] in
            for _ = 1 to Random.State.int st 4 do
              let r = Random.State.int st m in
              if not (List.mem_assoc r !entries) then
                entries := (r, frand (-0.5) 0.5) :: !entries
            done;
            !entries)
      in
      let col k =
        ( Array.of_list (List.map fst cols.(k)),
          Array.of_list (List.map snd cols.(k)) )
      in
      match Lu.factor ~m col with
      | exception Lu.Singular -> true (* a legitimately singular draw *)
      | lu ->
          let ok = ref true in
          (* normwise backward error of one solve: ||resid||_inf within
             1e-9 of ||A||_inf ||x||_inf + ||rhs||_inf, where [rows]
             lists each equation's (coefficient, unknown index) pairs *)
          let inf v =
            Array.fold_left (fun acc e -> Float.max acc (Float.abs e)) 0.0 v
          in
          let check rows rhs x =
            let resid = ref 0.0 and anorm = ref 0.0 in
            Array.iteri
              (fun i terms ->
                let acc = ref (-.rhs.(i)) and rs = ref 0.0 in
                List.iter
                  (fun (a, j) ->
                    acc := !acc +. (a *. x.(j));
                    rs := !rs +. Float.abs a)
                  terms;
                resid := Float.max !resid (Float.abs !acc);
                anorm := Float.max !anorm !rs)
              rows;
            if !resid > 1e-9 *. ((!anorm *. inf x) +. inf rhs) then ok := false
          in
          (* B's rows (for ftran) and columns (for btran) as equations *)
          let b_rows () =
            let rows = Array.make m [] in
            Array.iteri
              (fun k col ->
                List.iter (fun (r, v) -> rows.(r) <- (v, k) :: rows.(r)) col)
              cols;
            rows
          in
          let b_cols () = Array.map (List.map (fun (r, v) -> (v, r))) cols in
          let check_ftran b x = check (b_rows ()) b x in
          let check_btran c y = check (b_cols ()) c y in
          let x = Array.make m 0.0 in
          let check_rhs rhs =
            Lu.ftran lu ~src:rhs ~dst:x;
            check_ftran rhs x;
            Lu.btran lu ~src:rhs ~dst:x;
            check_btran rhs x
          in
          let sparse_rhs () =
            let b = Array.make m 0.0 in
            for _ = 0 to Random.State.int st 3 do
              b.(Random.State.int st m) <- frand (-1.0) 1.0
            done;
            b
          in
          let check_all () =
            check_rhs (sparse_rhs ());
            check_rhs (Array.init m (fun _ -> frand (-1.0) 1.0));
            let pos = Random.State.int st m in
            Lu.btran_unit lu ~pos ~dst:x;
            check_btran (Array.init m (fun k -> if k = pos then 1.0 else 0.0)) x
          in
          (try
             for _round = 1 to 1 + Random.State.int st 5 do
               check_all ();
               (* eta update: entering column B*w with w.(pos) = 1 *)
               let pos = Random.State.int st m in
               let w = Array.make m 0.0 in
               for _ = 1 to Random.State.int st 3 do
                 w.(Random.State.int st m) <- frand (-0.25) 0.25
               done;
               w.(pos) <- 1.0;
               let a = Array.make m 0.0 in
               for k = 0 to m - 1 do
                 if w.(k) <> 0.0 then
                   List.iter
                     (fun (r, v) -> a.(r) <- a.(r) +. (w.(k) *. v))
                     cols.(k)
               done;
               let alpha = Array.make m 0.0 in
               Lu.ftran lu ~src:a ~dst:alpha;
               check_ftran a alpha;
               Lu.update lu ~pos ~alpha;
               let entering = ref [] in
               Array.iteri
                 (fun r v -> if v <> 0.0 then entering := (r, v) :: !entering)
                 a;
               cols.(pos) <- !entering
             done;
             check_all ()
           with Lu.Singular -> ());
          !ok)

(* The solves and [update] index unchecked after checking their
   caller's vectors once per call. *)
let test_lu_rejects_bad_vectors () =
  let m = 3 in
  let lu = Lu.factor ~m (fun k -> ([| k |], [| 2.0 |])) in
  let v n = Array.make n 1.0 in
  let rejects what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | () -> Alcotest.failf "%s accepted" what
  in
  rejects "ftran short src" (fun () -> Lu.ftran lu ~src:(v 2) ~dst:(v m));
  rejects "ftran long dst" (fun () -> Lu.ftran lu ~src:(v m) ~dst:(v 4));
  rejects "btran short src" (fun () -> Lu.btran lu ~src:(v 2) ~dst:(v m));
  rejects "btran short dst" (fun () -> Lu.btran lu ~src:(v m) ~dst:(v 2));
  rejects "btran_unit pos m" (fun () -> Lu.btran_unit lu ~pos:m ~dst:(v m));
  rejects "btran_unit pos -1" (fun () -> Lu.btran_unit lu ~pos:(-1) ~dst:(v m));
  rejects "btran_unit short dst" (fun () -> Lu.btran_unit lu ~pos:0 ~dst:(v 2));
  rejects "update pos m" (fun () -> Lu.update lu ~pos:m ~alpha:(v m));
  rejects "update short alpha" (fun () -> Lu.update lu ~pos:0 ~alpha:(v 2));
  rejects "factor row index m" (fun () ->
      ignore
        (Lu.factor ~m (fun k -> ([| (if k = 1 then m else k) |], [| 2.0 |]))));
  (* the checks reject nothing valid: B = 2I solves exactly *)
  let x = v m in
  Lu.ftran lu ~src:(v m) ~dst:x;
  Alcotest.(check (array (float 0.0))) "ftran of 2I" (Array.make m 0.5) x

(* --- Presolve -------------------------------------------------------------- *)

let test_presolve_fixing () =
  let m = Model.create () in
  let x = Model.add_var m ~lb:3.0 ~ub:3.0 ~obj:2.0 Problem.Continuous in
  let y = Model.add_var m ~ub:5.0 ~obj:1.0 Problem.Continuous in
  Model.add_le m Expr.(add (var x) (var y)) 7.0;
  let p = Model.to_problem m in
  match Presolve.presolve p with
  | Presolve.Reduced (q, recover) ->
      Alcotest.(check bool) "reduced cols" true (q.Problem.ncols < p.Problem.ncols);
      let x' = Array.make q.Problem.ncols 0.0 in
      let full = recover x' in
      Alcotest.(check (float 0.0)) "fixed value recovered" 3.0 full.(x);
      Alcotest.(check (float 0.0)) "free col at lower" 0.0 full.(y)
  | _ -> Alcotest.fail "expected Reduced"

let test_presolve_infeasible () =
  let m = Model.create () in
  let x = Model.binary m () in
  Model.add_ge m (Expr.var x) 2.0;
  match Presolve.presolve (Model.to_problem m) with
  | Presolve.Infeasible -> ()
  | _ -> Alcotest.fail "expected Infeasible"

let test_presolve_unbounded () =
  let m = Model.create () in
  let _x = Model.add_var m ~lb:neg_infinity ~obj:1.0 Problem.Continuous in
  match Presolve.presolve (Model.to_problem m) with
  | Presolve.Unbounded -> ()
  | _ -> Alcotest.fail "expected Unbounded"

let test_presolve_integer_rounding () =
  let m = Model.create () in
  let x = Model.add_var m ~ub:10.0 ~obj:(-1.0) Problem.Integer in
  Model.add_le m (Expr.scale 2.0 (Expr.var x)) 7.0
  (* x <= 3.5 -> x <= 3 after rounding *);
  match Presolve.presolve (Model.to_problem m) with
  | Presolve.Reduced (q, recover) ->
      let r = Branch_bound.solve q in
      (match r.Branch_bound.solution with
      | Some x' ->
          let full = recover x' in
          Alcotest.(check (float 1e-9)) "optimum" 3.0 full.(x)
      | None -> Alcotest.fail "no solution")
  | _ -> Alcotest.fail "expected Reduced"

let prop_presolve_preserves_optimum =
  qtest ~count:200 "presolve preserves LP optimum" random_lp_gen (fun params ->
      let p = build_random_lp params in
      let s1 = Simplex.create p in
      let r1 = Simplex.solve s1 in
      match Presolve.presolve p with
      | Presolve.Infeasible -> r1 = Simplex.Infeasible
      | Presolve.Unbounded -> r1 = Simplex.Unbounded
      | Presolve.Reduced (q, recover) -> (
          let s2 = Simplex.create q in
          let r2 = Simplex.solve s2 in
          match (r1, r2) with
          | Simplex.Optimal, Simplex.Optimal ->
              let o1 = Problem.objective_value p (Simplex.primal s1) in
              let o2 = Problem.objective_value p (recover (Simplex.primal s2)) in
              Float.abs (o1 -. o2) <= 1e-5 *. Float.max 1.0 (Float.abs o1)
          | Simplex.Unbounded, Simplex.Unbounded -> true
          | Simplex.Infeasible, Simplex.Infeasible -> true
          (* presolve may prove unboundedness the simplex sees as optimal-with-empty-problem etc. *)
          | _ -> false))

(* --- Branch and bound ------------------------------------------------------ *)

let brute_force_binary p =
  let n = p.Problem.ncols in
  let best = ref None in
  for mask = 0 to (1 lsl n) - 1 do
    let x = Array.init n (fun j -> if mask land (1 lsl j) <> 0 then 1.0 else 0.0) in
    if Problem.max_violation p x <= 1e-9 then begin
      let o = Problem.objective_value p x in
      match !best with
      | None -> best := Some o
      | Some b ->
          if (p.Problem.maximize_input && o > b) || ((not p.Problem.maximize_input) && o < b)
          then best := Some o
    end
  done;
  !best

let random_bip_gen =
  QCheck.make
    QCheck.Gen.(
      let* n = int_range 1 8 in
      let* mrows = int_range 1 6 in
      let* seed = int_range 0 1_000_000 in
      return (n, mrows, seed))

let build_random_bip (n, mrows, seed) =
  let rng = Mm_util.Prng.create (seed + 77777) in
  let m = Model.create () in
  let vars = Array.init n (fun _ -> Model.binary m ()) in
  for _ = 1 to mrows do
    let e =
      Expr.sum
        (List.map
           (fun j ->
             Expr.var ~coeff:(float_of_int (Mm_util.Prng.int_in rng (-4) 6)) vars.(j))
           (Mm_util.Ints.range n))
    in
    match Mm_util.Prng.int rng 3 with
    | 0 -> Model.add_le m e (float_of_int (Mm_util.Prng.int_in rng (-3) 8))
    | 1 -> Model.add_ge m e (float_of_int (Mm_util.Prng.int_in rng (-3) 8))
    | _ -> Model.add_eq m e (float_of_int (Mm_util.Prng.int_in rng (-3) 8))
  done;
  Model.set_objective m Model.Minimize
    (Expr.sum
       (List.map
          (fun j ->
            Expr.var ~coeff:(float_of_int (Mm_util.Prng.int_in rng (-5) 5)) vars.(j))
          (Mm_util.Ints.range n)));
  Model.to_problem m

let prop_bb_matches_brute_force =
  qtest ~count:250 "B&B matches brute force on binary programs" random_bip_gen
    (fun params ->
      let p = build_random_bip params in
      let r = Branch_bound.solve p in
      match (r.Branch_bound.objective, brute_force_binary p) with
      | None, None -> r.Branch_bound.status = Branch_bound.Infeasible
      | Some o, Some b -> Float.abs (o -. b) <= 1e-6
      | _ -> false)

let prop_solver_facade_matches_brute_force =
  qtest ~count:250 "facade (presolve+cuts) matches brute force" random_bip_gen
    (fun params ->
      let p = build_random_bip params in
      let r = (Solver.solve p).Solver.mip in
      match (r.Branch_bound.objective, brute_force_binary p) with
      | None, None -> true
      | Some o, Some b ->
          Float.abs (o -. b) <= 1e-6
          && (match r.Branch_bound.solution with
             | Some x -> Problem.is_feasible p x
             | None -> false)
      | _ -> false)

let test_bb_respects_node_limit () =
  let m = Model.create () in
  (* an even-sum feasibility problem with many symmetric solutions *)
  let vars = Array.init 16 (fun _ -> Model.binary m ()) in
  Model.add_eq m
    (Expr.sum (Array.to_list (Array.map Expr.var vars)))
    8.0;
  Model.set_objective m Model.Minimize Expr.zero;
  let p = Model.to_problem m in
  let options = Branch_bound.options ~node_limit:1 () in
  let r = Branch_bound.solve ~options p in
  Alcotest.(check bool) "nodes within limit" true (r.Branch_bound.nodes <= 1)

(* Objective columns are branched first: the zero-cost column [y]
   sits at 1/2 in the root LP, more fractional than the objective
   column [x] at 0.43, yet the root must branch on [x]. With a node
   limit of 2 only the root branches and one child is solved, so the
   child's pseudocost observation names the branching column. *)
let test_bb_branches_objective_column_first () =
  let m = Model.create () in
  let x = Model.binary m ~obj:(-1.0) () in
  let y = Model.binary m () in
  Model.add_le m (Expr.var ~coeff:3.0 x) 1.3;
  Model.add_ge m (Expr.var ~coeff:2.0 y) 1.0;
  let p = Model.to_problem m in
  let sx = Simplex.create p in
  Alcotest.(check bool) "root LP optimal" true (Simplex.solve sx = Simplex.Optimal);
  let v = Simplex.primal sx in
  Alcotest.(check (float 1e-9)) "zero-cost column at 1/2" 0.5 v.(y);
  Alcotest.(check (float 1e-9)) "objective column at 1.3/3" (1.3 /. 3.0) v.(x);
  let r = Branch_bound.solve ~options:(Branch_bound.options ~node_limit:2 ()) p in
  let _, up_cnt, _, dn_cnt =
    Branch_bound.pseudocosts_export r.Branch_bound.pseudocosts
  in
  Alcotest.(check int) "two nodes" 2 r.Branch_bound.nodes;
  Alcotest.(check int) "objective column observed" 1 (up_cnt.(x) + dn_cnt.(x));
  Alcotest.(check int) "zero-cost column not observed" 0 (up_cnt.(y) + dn_cnt.(y));
  Alcotest.(check int) "one branch" 1 r.Branch_bound.branches;
  Alcotest.(check int) "on an objective column" 1
    r.Branch_bound.objective_branches

let test_bb_gap_reporting () =
  let m = Model.create () in
  let x = Model.binary m ~obj:1.0 () in
  Model.add_ge m (Expr.var x) 1.0;
  let r = Branch_bound.solve (Model.to_problem m) in
  Alcotest.(check (option (float 1e-9))) "gap zero" (Some 0.0) (Branch_bound.gap r)

(* --- Parallel tree search -------------------------------------------------- *)

let test_node_pool_basic () =
  let pool = Node_pool.create ~workers:2 ~prio:(fun x -> x) () in
  Node_pool.push pool ~worker:0 3.0;
  Node_pool.push pool ~worker:0 1.0;
  Node_pool.push pool ~worker:0 2.0;
  Alcotest.(check int) "queued" 3 (Node_pool.queued pool);
  Alcotest.(check (float 0.0)) "min bound" 1.0 (Node_pool.min_bound pool);
  (match Node_pool.take pool ~worker:0 with
  | Some v -> Alcotest.(check (float 0.0)) "own best first" 1.0 v
  | None -> Alcotest.fail "expected node");
  (* worker 1's deque is empty: it steals the best remaining node *)
  (match Node_pool.take pool ~worker:1 with
  | Some v -> Alcotest.(check (float 0.0)) "stolen best" 2.0 v
  | None -> Alcotest.fail "expected steal");
  Alcotest.(check int) "steal counted" 1 (Node_pool.nodes_stolen pool);
  (* both takes left a node in flight: min bound tracks them *)
  Alcotest.(check (float 0.0)) "in-flight bound" 1.0 (Node_pool.min_bound pool);
  Node_pool.halt pool;
  Alcotest.(check bool) "halted" true (Node_pool.halted pool);
  Alcotest.(check (option (float 0.0)))
    "take after halt" None
    (Node_pool.take pool ~worker:0)

let prop_parallel_matches_serial =
  qtest ~count:100 "parallel B&B proves the serial objective" random_bip_gen
    (fun params ->
      let p = build_random_bip params in
      let solve j =
        Branch_bound.solve ~options:(Branch_bound.options ~parallelism:j ()) p
      in
      let serial = solve 1 in
      List.for_all
        (fun j ->
          let r = solve j in
          r.Branch_bound.par.Branch_bound.domains_used = j
          &&
          match (serial.Branch_bound.objective, r.Branch_bound.objective) with
          | None, None -> r.Branch_bound.status = Branch_bound.Infeasible
          | Some a, Some b -> Float.abs (a -. b) <= 1e-6
          | _ -> false)
        [ 2; 4 ])

let test_parallel_one_is_deterministic () =
  let p = build_random_bip (8, 5, 4242) in
  let solve () =
    Branch_bound.solve ~options:(Branch_bound.options ~parallelism:1 ()) p
  in
  let a = solve () and b = solve () in
  Alcotest.(check int) "same node count" a.Branch_bound.nodes b.Branch_bound.nodes;
  Alcotest.(check int) "same pivots"
    a.Branch_bound.lp_stats.Simplex.pivots
    b.Branch_bound.lp_stats.Simplex.pivots;
  Alcotest.(check (option (float 1e-12)))
    "same objective" a.Branch_bound.objective b.Branch_bound.objective

let test_parallel_stats_accounting () =
  (* a symmetric covering problem with a decently sized tree *)
  let m = Model.create () in
  let vars = Array.init 18 (fun _ -> Model.binary m ()) in
  for k = 0 to 8 do
    Model.add_ge m
      (Expr.sum
         (List.map
            (fun j -> Expr.var vars.(((3 * k) + j) mod 18))
            (Mm_util.Ints.range 5)))
      2.0
  done;
  Model.set_objective m Model.Minimize
    (Expr.sum
       (Array.to_list
          (Array.mapi
             (fun i v -> Expr.var ~coeff:(1.0 +. float_of_int (i mod 3)) v)
             vars)));
  let p = Model.to_problem m in
  let serial = Branch_bound.solve p in
  let par =
    Branch_bound.solve ~options:(Branch_bound.options ~parallelism:3 ()) p
  in
  Alcotest.(check int) "domains" 3 par.Branch_bound.par.Branch_bound.domains_used;
  Alcotest.(check int) "pivot breakdown sums"
    par.Branch_bound.lp_stats.Simplex.pivots
    (Array.fold_left ( + ) 0 par.Branch_bound.par.Branch_bound.domain_pivots);
  match (serial.Branch_bound.objective, par.Branch_bound.objective) with
  | Some a, Some b -> Alcotest.(check (float 1e-6)) "same optimum" a b
  | _ -> Alcotest.fail "expected solutions"


(* --- solver options and senses ------------------------------------------------ *)

let build_random_max_bip (n, mrows, seed) =
  let rng = Mm_util.Prng.create (seed + 424242) in
  let m = Model.create () in
  let vars = Array.init n (fun _ -> Model.binary m ()) in
  for _ = 1 to mrows do
    let e =
      Expr.sum
        (List.map
           (fun j ->
             Expr.var ~coeff:(float_of_int (Mm_util.Prng.int_in rng (-4) 6)) vars.(j))
           (Mm_util.Ints.range n))
    in
    Model.add_le m e (float_of_int (Mm_util.Prng.int_in rng 0 10))
  done;
  Model.set_objective m Model.Maximize
    (Expr.sum
       (List.map
          (fun j ->
            Expr.var ~coeff:(float_of_int (Mm_util.Prng.int_in rng (-5) 5)) vars.(j))
          (Mm_util.Ints.range n)));
  Model.to_problem m

let brute_force_max p =
  let n = p.Problem.ncols in
  let best = ref None in
  for mask = 0 to (1 lsl n) - 1 do
    let x = Array.init n (fun j -> if mask land (1 lsl j) <> 0 then 1.0 else 0.0) in
    if Problem.max_violation p x <= 1e-9 then begin
      let o = Problem.objective_value p x in
      match !best with None -> best := Some o | Some b -> if o > b then best := Some o
    end
  done;
  !best

let prop_bb_maximize =
  qtest ~count:200 "B&B handles maximization problems" random_bip_gen
    (fun params ->
      let p = build_random_max_bip params in
      let r = (Solver.solve p).Solver.mip in
      match (r.Branch_bound.objective, brute_force_max p) with
      | Some o, Some b -> Float.abs (o -. b) <= 1e-6
      | None, None -> true
      | _ -> false)

let test_solver_time_limit_reported () =
  (* a crafted problem with many symmetric solutions and a tiny budget
     still returns a well-formed result *)
  let m = Model.create () in
  let vars = Array.init 30 (fun _ -> Model.binary m ()) in
  for k = 0 to 9 do
    Model.add_eq m
      (Expr.sum
         (List.map (fun j -> Expr.var vars.((k + j) mod 30)) (Mm_util.Ints.range 7)))
      3.0
  done;
  Model.set_objective m Model.Minimize
    (Expr.sum (Array.to_list (Array.map Expr.var vars)));
  let options = Solver.options ~bb:(Branch_bound.options ~time_limit:0.2 ()) () in
  let r = Solver.solve ~options (Model.to_problem m) in
  (* must terminate promptly and report a sane status *)
  Alcotest.(check bool) "terminates in budget" true (r.Solver.mip.Branch_bound.time < 5.0);
  match r.Solver.mip.Branch_bound.status with
  | Branch_bound.Optimal | Branch_bound.Feasible | Branch_bound.Infeasible
  | Branch_bound.Unknown ->
      ()
  | Branch_bound.Unbounded -> Alcotest.fail "not unbounded"

let test_solver_without_presolve_or_cuts () =
  let p = build_random_bip (6, 4, 12345) in
  let base = (Solver.solve p).Solver.mip.Branch_bound.objective in
  let no_pre =
    (Solver.solve ~options:(Solver.options ~presolve:false ()) p)
      .Solver.mip.Branch_bound.objective
  in
  let no_cuts =
    (Solver.solve ~options:(Solver.options ~separators:[] ()) p)
      .Solver.mip.Branch_bound.objective
  in
  let eq a b =
    match (a, b) with
    | Some x, Some y -> Float.abs (x -. y) < 1e-6
    | None, None -> true
    | _ -> false
  in
  Alcotest.(check bool) "presolve off agrees" true (eq base no_pre);
  Alcotest.(check bool) "cuts off agrees" true (eq base no_cuts)

(* presolve settles both models before any LP: [Solver.solve] must
   return the verdict with the user-sense bound (an infeasible minimize
   is bounded by +inf, an unbounded one by -inf, both flipped under
   maximize) *)
(* A persisted warm basis must describe a basis: every listed variable
   in range and distinct, and exactly those marked basic. Global
   Table-3 point 0 has a root basis to persist; a corrupt copy must fail
   to load (at worst it raised out of [Solver.solve], or proved a wrong
   optimum when the status marked extra variables basic). *)
let global_point0 () =
  let board, design =
    Mm_workload.Gen.instance
      (List.hd Mm_workload.Table3.points).Mm_workload.Table3.spec
  in
  match Mm_mapping.Global_ilp.build board design with
  | Ok b -> b.Mm_mapping.Global_ilp.problem
  | Error e -> Alcotest.fail e

let objective (r : Solver.result) = r.Solver.mip.Branch_bound.objective

let test_solver_rejects_corrupt_warm_basis () =
  let module J = Mm_obs.Json in
  let p = global_point0 () in
  let w = Solver.warm () in
  let cold = Solver.solve ~warm:w p in
  Alcotest.(check bool) "training kept a basis" true (Solver.warm_has_basis w);
  let j = Solver.warm_to_json w in
  (match Solver.warm_of_json j with
  | Error e -> Alcotest.failf "clean state rejected: %s" e
  | Ok w' ->
      let r = Solver.solve ~warm:w' p in
      Alcotest.(check (option (float 1e-6)))
        "reloaded basis keeps the optimum" (objective cold) (objective r);
      Alcotest.(check bool) "reloaded basis applied" true
        (List.mem "basis" r.Solver.stats.Solver.warm_applied));
  let basis = Option.get (J.member "basis" j) in
  let b =
    match J.member "b" basis with
    | Some (J.List xs) -> Array.of_list (List.filter_map J.to_int xs)
    | _ -> Alcotest.fail "no basis array"
  in
  let status = Option.get (Option.bind (J.member "status" basis) J.to_str) in
  let corrupt ~b ~status =
    let set = function
      | "b", _ ->
          let num v = J.Num (float_of_int v) in
          ("b", J.List (List.map num (Array.to_list b)))
      | "status", _ -> ("status", J.Str status)
      | kv -> kv
    in
    match (j, basis) with
    | J.Obj kvs, J.Obj bkvs ->
        J.Obj
          (List.map
             (function
               | "basis", _ -> ("basis", J.Obj (List.map set bkvs)) | kv -> kv)
             kvs)
    | _ -> Alcotest.fail "warm state is not an object"
  in
  let rejects what ~b ~status =
    match Solver.warm_of_json (corrupt ~b ~status) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "warm_of_json accepted %s" what
  in
  let with_b k v =
    let b = Array.copy b in
    b.(k) <- v;
    b
  in
  let nonbasic = String.index_from status 0 '0' in
  rejects "a basic variable past the status"
    ~b:(with_b 0 (String.length status))
    ~status;
  rejects "a negative basic variable" ~b:(with_b 0 (-1)) ~status;
  rejects "a basic variable listed twice" ~b:(with_b 1 b.(0)) ~status;
  rejects "an extra variable marked basic" ~b
    ~status:(String.mapi (fun i c -> if i = nonbasic then '3' else c) status);
  rejects "a status one variable short" ~b
    ~status:(String.sub status 0 (String.length status - 1))

(* A warm state belongs to the problem and options that trained it.
   Trained on global Table-3 point 0 and handed a problem of the same
   size, it must be wiped, counted and solved cold. Guarded by
   dimensions only, the objective vector reversed reused the original's
   presolve and reported "optimal" at 205,319 where a cold solve proves
   117,960. *)
let check_warm_mismatch what ?(options = Solver.default_options) q =
  let w = Solver.warm () in
  ignore (Solver.solve ~warm:w (global_point0 ()));
  let cold = Solver.solve ~options q in
  let r = Solver.solve ~options ~warm:w q in
  Alcotest.(check (option (float 1e-6)))
    (what ^ ": cold objective") (objective cold) (objective r);
  Alcotest.(check int)
    (what ^ ": one mismatch") 1 r.Solver.stats.Solver.warm_mismatches;
  Alcotest.(check (list string))
    (what ^ ": nothing warm applied") [] r.Solver.stats.Solver.warm_applied;
  (* the wiped state now belongs to [q]: the next solve of [q] is warm *)
  let again = Solver.solve ~options ~warm:w q in
  Alcotest.(check int)
    (what ^ ": retrained") 0 again.Solver.stats.Solver.warm_mismatches;
  Alcotest.(check (option (float 1e-6)))
    (what ^ ": retrained objective") (objective cold) (objective again)

let test_warm_mismatch_reversed_objective () =
  let p = global_point0 () in
  let n = p.Problem.ncols in
  let q =
    { p with Problem.obj = Array.init n (fun j -> p.Problem.obj.(n - 1 - j)) }
  in
  check_warm_mismatch "reversed objective" q;
  Alcotest.(check (option (float 1e-6)))
    "the reversed optimum" (Some 117_960.0)
    (objective (Solver.solve q))

(* one matrix coefficient: the optimum's first chosen variable gets a 2
   in its uniqueness row, so it can no longer be chosen alone *)
let test_warm_mismatch_one_coefficient () =
  let p = global_point0 () in
  let x = Option.get (Solver.solve p).Solver.mip.Branch_bound.solution in
  let j =
    let rec first j = if x.(j) > 0.5 then j else first (j + 1) in
    first 0
  in
  let r = (fst p.Problem.cols.(j)).(0) in
  let set (idx, v) k =
    let v = Array.copy v in
    Array.iteri (fun i k' -> if k' = k then v.(i) <- 2.0) idx;
    (idx, v)
  in
  let cols = Array.copy p.Problem.cols and rows = Array.copy p.Problem.rows in
  cols.(j) <- set cols.(j) r;
  rows.(r) <- set rows.(r) j;
  let q = { p with Problem.cols; rows } in
  Alcotest.(check bool) "the change moves the optimum" true
    (objective (Solver.solve q) <> objective (Solver.solve p));
  check_warm_mismatch "one coefficient" q

let test_warm_mismatch_other_options () =
  check_warm_mismatch "separators off"
    ~options:(Solver.options ~separators:[] ())
    (global_point0 ())

(* Cuts stay in memory: a state read back from JSON re-separates on its
   first solve (no "cuts") and carries the root from then on. *)
let test_warm_round_trip_reseparates () =
  let p = global_point0 () in
  let cold = Solver.solve p in
  let w = Solver.warm () in
  ignore (Solver.solve ~warm:w p);
  let applied (r : Solver.result) = r.Solver.stats.Solver.warm_applied in
  Alcotest.(check bool) "in-process repeat carries the root" true
    (List.mem "cuts" (applied (Solver.solve ~warm:w p)));
  match Solver.warm_of_json (Solver.warm_to_json w) with
  | Error e -> Alcotest.failf "round trip rejected: %s" e
  | Ok w' ->
      let first = Solver.solve ~warm:w' p in
      Alcotest.(check (option (float 1e-6)))
        "resumed objective" (objective cold) (objective first);
      Alcotest.(check int) "digest survives" 0
        first.Solver.stats.Solver.warm_mismatches;
      Alcotest.(check bool) "first resumed solve re-separates" false
        (List.mem "cuts" (applied first));
      Alcotest.(check bool) "reloaded basis applies" true
        (List.mem "basis" (applied first));
      let second = Solver.solve ~warm:w' p in
      Alcotest.(check (option (float 1e-6)))
        "carried objective" (objective cold) (objective second);
      Alcotest.(check bool) "then carries the root" true
        (List.mem "cuts" (applied second)
        && List.mem "incumbent" (applied second))

(* Cold, twice-warm and foreign-warm solves agree. The foreign state is
   trained on another random program of the same size, which a guard on
   dimensions alone lets through. *)
let prop_warm_agrees_with_cold =
  qtest ~count:150 "cold, twice-warm and foreign-warm solves agree"
    random_bip_gen (fun ((n, mrows, seed) as params) ->
      let p = build_random_bip params in
      let q = build_random_bip (n, mrows, seed + 1) in
      let same a b =
        match (objective a, objective b) with
        | None, None -> true
        | Some a, Some b -> Float.abs (a -. b) <= 1e-6
        | _ -> false
      in
      let cold = Solver.solve p in
      let w = Solver.warm () in
      ignore (Solver.solve ~warm:w p);
      ignore (Solver.solve ~warm:w p);
      let hot = Solver.solve ~warm:w p in
      let foreign = Solver.warm () in
      ignore (Solver.solve ~warm:foreign q);
      let trained = Solver.warm_solves foreign > 0 in
      let r = Solver.solve ~warm:foreign p in
      same cold hot && same cold r
      && (p = q || (not trained) || r.Solver.stats.Solver.warm_mismatches = 1))

let test_solver_presolve_verdicts () =
  let solve sense build =
    let m = Model.create () in
    let x = build m in
    Model.set_objective m sense (Expr.var x);
    (Solver.solve (Model.to_problem m)).Solver.mip
  in
  let binary_at_least_two m =
    let x = Model.binary m () in
    Model.add_ge m (Expr.var x) 2.0;
    x
  in
  let free m =
    Model.add_var m ~lb:neg_infinity ~ub:infinity Problem.Continuous
  in
  List.iter
    (fun (sense, name, infeasible_bound) ->
      let check what status bound (r : Branch_bound.result) =
        Alcotest.(check bool)
          (Printf.sprintf "%s %s status" name what)
          true (r.Branch_bound.status = status);
        Alcotest.(check (float 0.0))
          (Printf.sprintf "%s %s best_bound" name what)
          bound r.Branch_bound.best_bound;
        Alcotest.(check int) (name ^ " no nodes") 0 r.Branch_bound.nodes
      in
      check "infeasible" Branch_bound.Infeasible infeasible_bound
        (solve sense binary_at_least_two);
      check "unbounded" Branch_bound.Unbounded (-.infeasible_bound)
        (solve sense free))
    [
      (Model.Minimize, "minimize", infinity);
      (Model.Maximize, "maximize", neg_infinity);
    ]

let test_time_limit_zero_budget () =
  (* an exhausted budget handed down to the tree search (presolve+cuts
     ate the whole limit) must stop cleanly before the root node, serial
     and parallel alike *)
  let p = build_random_bip (8, 5, 31415) in
  List.iter
    (fun j ->
      let options = Branch_bound.options ~parallelism:j ~time_limit:0.0 () in
      let r = Branch_bound.solve ~options p in
      Alcotest.(check int) (Printf.sprintf "no nodes at j=%d" j) 0
        r.Branch_bound.nodes;
      Alcotest.(check bool) (Printf.sprintf "limit status at j=%d" j) true
        (r.Branch_bound.status = Branch_bound.Unknown);
      Alcotest.(check bool) (Printf.sprintf "no incumbent at j=%d" j) true
        (r.Branch_bound.objective = None);
      Alcotest.(check bool) (Printf.sprintf "trivial root bound at j=%d" j) true
        (r.Branch_bound.best_bound = neg_infinity))
    [ 1; 2 ]

let test_trace_deterministic_serial () =
  (* the determinism contract: at parallelism 1, two traced solves of
     the same problem agree event for event once timestamps, durations
     and histogram buckets are stripped *)
  let p = build_random_bip (8, 5, 777) in
  let run () =
    let tr = Mm_obs.Trace.create () in
    ignore (Solver.solve ~options:(Solver.options ~trace:tr ()) p);
    match Mm_obs.Summary.of_lines (Mm_obs.Trace.dump_lines tr) with
    | Ok evs -> Mm_obs.Summary.normalized evs
    | Error e -> Alcotest.fail e
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "trace nonempty" true (a <> []);
  Alcotest.(check bool) "event-for-event reproducible" true (a = b)

let test_trace_disabled_writes_nothing () =
  let p = build_random_bip (5, 3, 99) in
  ignore (Solver.solve p);
  Alcotest.(check (list string)) "disabled trace has no events" []
    (Mm_obs.Trace.dump_lines Mm_obs.Trace.disabled)

let test_bb_best_bound_sane () =
  let m = Model.create () in
  let x = Model.binary m () and y = Model.binary m () in
  Model.add_le m Expr.(add (scale 2.0 (var x)) (scale 2.0 (var y))) 3.0;
  Model.set_objective m Model.Minimize Expr.(add (scale (-3.0) (var x)) (scale (-2.0) (var y)));
  let r = Branch_bound.solve (Model.to_problem m) in
  match r.Branch_bound.objective with
  | Some o ->
      Alcotest.(check (float 1e-6)) "optimum" (-3.0) o;
      Alcotest.(check bool) "bound <= objective" true (r.Branch_bound.best_bound <= o +. 1e-9)
  | None -> Alcotest.fail "expected solution"

let test_model_var_name () =
  let m = Model.create () in
  let x = Model.add_var m ~name:"alpha" Problem.Continuous in
  let y = Model.binary m () in
  Alcotest.(check string) "named" "alpha" (Model.var_name m x);
  Alcotest.(check string) "default" "x1" (Model.var_name m y);
  Alcotest.(check int) "num vars" 2 (Model.num_vars m)


(* --- mixed-integer and numerically wide problems ------------------------------- *)

let mixed_gen =
  QCheck.make
    QCheck.Gen.(
      let* nint = int_range 1 4 in
      let* ncont = int_range 1 3 in
      let* mrows = int_range 1 4 in
      let* seed = int_range 0 1_000_000 in
      return (nint, ncont, mrows, seed))

let build_mixed (nint, ncont, mrows, seed) =
  let rng = Mm_util.Prng.create (seed + 909090) in
  let m = Model.create () in
  let ints =
    Array.init nint (fun _ ->
        Model.add_var m ~ub:(float_of_int (Mm_util.Prng.int_in rng 1 3))
          ~obj:(float_of_int (Mm_util.Prng.int_in rng (-5) 5))
          Problem.Integer)
  in
  let conts =
    Array.init ncont (fun _ ->
        Model.add_var m ~ub:(float_of_int (Mm_util.Prng.int_in rng 1 10))
          ~obj:(float_of_int (Mm_util.Prng.int_in rng (-5) 5))
          Problem.Continuous)
  in
  for _ = 1 to mrows do
    let e =
      Expr.sum
        (List.map
           (fun v -> Expr.var ~coeff:(float_of_int (Mm_util.Prng.int_in rng (-4) 5)) v)
           (Array.to_list ints @ Array.to_list conts))
    in
    Model.add_le m e (float_of_int (Mm_util.Prng.int_in rng 0 15))
  done;
  (Model.to_problem m, ints, conts)

(* reference: enumerate the integer grid; for each point, fix the
   integer variables and solve the continuous LP *)
let mixed_brute_force (p : Problem.t) ints =
  let best = ref None in
  let ubs = Array.map (fun j -> int_of_float p.Problem.col_ub.(j)) ints in
  let fix = Array.make (Array.length ints) 0 in
  let rec enum k =
    if k = Array.length ints then begin
      let s = Simplex.create p in
      Array.iteri
        (fun i j -> Simplex.set_bounds s j (float_of_int fix.(i)) (float_of_int fix.(i)))
        ints;
      match Simplex.solve s with
      | Simplex.Optimal ->
          let o = Problem.objective_value p (Simplex.primal s) in
          (match !best with None -> best := Some o | Some b -> if o < b then best := Some o)
      | _ -> ()
    end
    else
      for v = 0 to ubs.(k) do
        fix.(k) <- v;
        enum (k + 1)
      done
  in
  enum 0;
  !best

let prop_mixed_matches_grid_enumeration =
  qtest ~count:120 "mixed MIP matches integer-grid + LP enumeration" mixed_gen
    (fun params ->
      let p, ints, _ = build_mixed params in
      let r = (Solver.solve p).Solver.mip in
      match (r.Branch_bound.objective, mixed_brute_force p ints) with
      | Some a, Some b -> Float.abs (a -. b) <= 1e-5 *. Float.max 1.0 (Float.abs b)
      | None, None -> true
      | _ -> false)

let prop_wide_magnitude_coefficients =
  (* capacity-style rows mixing unit and million-scale coefficients *)
  qtest ~count:120 "solver is stable under wide coefficient magnitudes"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Mm_util.Prng.create (seed + 777) in
      let m = Model.create () in
      let n = Mm_util.Prng.int_in rng 2 6 in
      let vars = Array.init n (fun _ -> Model.binary m ()) in
      let big = Array.init n (fun _ -> float_of_int (Mm_util.Prng.int_in rng 100_000 4_000_000)) in
      Model.add_le m
        (Expr.sum
           (List.mapi (fun j v -> Expr.var ~coeff:big.(j) v) (Array.to_list vars)))
        (float_of_int (Mm_util.Prng.int_in rng 500_000 8_000_000));
      Model.add_le m
        (Expr.sum (Array.to_list (Array.map Expr.var vars)))
        (float_of_int (Mm_util.Prng.int_in rng 1 n));
      Model.set_objective m Model.Minimize
        (Expr.sum
           (List.mapi
              (fun j v ->
                Expr.var ~coeff:(float_of_int (Mm_util.Prng.int_in rng (-9) (-1)) *. big.(j) /. 1000.0) v)
              (Array.to_list vars)));
      let p = Model.to_problem m in
      let r = (Solver.solve p).Solver.mip in
      (* brute force over binaries *)
      let best = ref None in
      for mask = 0 to (1 lsl n) - 1 do
        let x = Array.init n (fun j -> if mask land (1 lsl j) <> 0 then 1.0 else 0.0) in
        if Problem.max_violation p x <= 1e-6 then begin
          let o = Problem.objective_value p x in
          match !best with None -> best := Some o | Some b -> if o < b then best := Some o
        end
      done;
      match (r.Branch_bound.objective, !best) with
      | Some a, Some b -> Float.abs (a -. b) <= 1e-4 *. Float.max 1.0 (Float.abs b)
      | None, None -> true
      | _ -> false)

(* --- Cuts ------------------------------------------------------------------ *)

let test_cover_cut_validity () =
  (* knapsack 3x+3y+3z <= 5: any two vars form a cover -> x+y<=1 etc. *)
  let m = Model.create () in
  let x = Model.binary m () and y = Model.binary m () and z = Model.binary m () in
  Model.add_le m
    Expr.(sum [ scale 3.0 (var x); scale 3.0 (var y); scale 3.0 (var z) ])
    5.0;
  let p = Model.to_problem m in
  let frac = [| 0.55; 0.55; 0.55 |] in
  let cuts =
    Separator.separate Separator.cover { Separator.p; x = frac; sx = None }
  in
  Alcotest.(check bool) "found a cut" true (cuts <> []);
  (* every integer-feasible point must satisfy every cut *)
  List.iter
    (fun (c : Separator.cut) ->
      for mask = 0 to 7 do
        let xv = [| float_of_int (mask land 1); float_of_int ((mask lsr 1) land 1); float_of_int ((mask lsr 2) land 1) |] in
        if Problem.max_violation p xv <= 1e-9 then begin
          let lhs = Separator.activity c.Separator.terms xv in
          Alcotest.(check bool) "cut valid" true
            (lhs <= c.Separator.ub +. 1e-9 && lhs >= c.Separator.lb -. 1e-9)
        end
      done)
    cuts

(* every separator family must emit cuts satisfied by every feasible
   integer point — the defining property of a valid cut *)
let prop_cuts_never_cut_integer_points =
  qtest ~count:200 "all cut families valid for all feasible integer points"
    random_bip_gen (fun params ->
      let p = build_random_bip params in
      let s = Simplex.create p in
      match Simplex.solve s with
      | Simplex.Optimal ->
          let frac = Simplex.primal s in
          let ctx = { Separator.p; x = frac; sx = Some s } in
          let cuts =
            List.concat_map
              (fun sep -> Separator.separate sep ctx)
              Separator.default
          in
          let n = p.Problem.ncols in
          let ok = ref true in
          for mask = 0 to (1 lsl n) - 1 do
            let x =
              Array.init n (fun j -> if mask land (1 lsl j) <> 0 then 1.0 else 0.0)
            in
            if Problem.max_violation p x <= 1e-9 then
              List.iter
                (fun (c : Separator.cut) ->
                  let lhs = Separator.activity c.Separator.terms x in
                  if lhs > c.Separator.ub +. 1e-7 || lhs < c.Separator.lb -. 1e-7
                  then ok := false)
                cuts
          done;
          !ok
      | _ -> true)

(* restricting the solver to any single separation family must never
   change the optimum: cuts may only speed the search up *)
let prop_single_family_objective_agreement =
  qtest ~count:150 "each cut family alone preserves the optimum"
    random_bip_gen (fun params ->
      let p = build_random_bip params in
      let oracle = brute_force_binary p in
      List.for_all
        (fun sep ->
          let r =
            (Solver.solve ~options:(Solver.options ~separators:[ sep ] ()) p)
              .Solver.mip
          in
          match (r.Branch_bound.objective, oracle) with
          | None, None -> true
          | Some o, Some b -> Float.abs (o -. b) <= 1e-6
          | _ -> false)
        Separator.default)

let knapsack_triple () =
  let m = Model.create () in
  let x = Model.binary m () and y = Model.binary m () and z = Model.binary m () in
  Model.add_le m
    Expr.(sum [ scale 3.0 (var x); scale 3.0 (var y); scale 3.0 (var z) ])
    5.0;
  Model.set_objective m Model.Maximize Expr.(sum [ var x; var y; var z ]);
  Model.to_problem m

(* a pool with the solver's default families and aging *)
let default_pool p =
  let o = Solver.default_options in
  Cut_pool.create ~max_age:o.Solver.cut_max_age ~separators:o.Solver.separators
    p

let test_cut_pool_dedup_and_naming () =
  let p = knapsack_triple () in
  let pool = default_pool p in
  let frac = [| 0.55; 0.55; 0.55 |] in
  let k1 = Cut_pool.node_separate pool p frac in
  Alcotest.(check bool) "first call accepts cuts" true (k1 > 0);
  (* the same fractional point separates the same cuts: all duplicates *)
  let k2 = Cut_pool.node_separate pool p frac in
  Alcotest.(check int) "duplicates rejected" k1 k2;
  let rows = Cut_pool.rows_from pool 0 in
  Alcotest.(check int) "activation list complete" k1 (List.length rows);
  List.iter
    (fun (name, _, _, _) ->
      let prefixed =
        List.exists
          (fun fam ->
            String.length name > String.length fam
            && String.sub name 0 (String.length fam + 1) = fam ^ ":")
          [ "cover"; "lcover"; "gmi" ]
      in
      Alcotest.(check bool) ("family-prefixed name " ^ name) true prefixed)
    rows;
  let names = List.map (fun (n, _, _, _) -> n) rows in
  Alcotest.(check int) "names unique"
    (List.length names)
    (List.length (List.sort_uniq compare names));
  Alcotest.(check int) "by_family sums to accepted" k1
    (List.fold_left (fun a (_, n) -> a + n) 0 (Cut_pool.by_family pool))

let test_cut_pool_aging_drops_loose_cuts () =
  (* max_age = 0: every cut is loose-born, so the prune at the end of
     the root loop must drop them all and hand back the base problem *)
  let p = knapsack_triple () in
  let pool =
    Cut_pool.create ~max_age:0
      ~separators:Solver.default_options.Solver.separators p
  in
  let q, st =
    Cut_pool.root_loop ~snk:Mm_obs.Trace.null pool
  in
  Alcotest.(check bool) "root loop added cuts" true (st.Cut_pool.added > 0);
  Alcotest.(check int) "all dropped" st.Cut_pool.added st.Cut_pool.dropped;
  Alcotest.(check int) "problem back to base rows" p.Problem.nrows
    q.Problem.nrows;
  Alcotest.(check int) "pool agrees" 0
    (List.fold_left (fun a (_, n) -> a + n) 0 (Cut_pool.by_family pool))

(* --- Separation against the reference implementation ---------------------- *)

(* Random all-binary rows and points aimed at the pre-tests' edges:
   mixed-sign coefficients (complemented items), weights of unit and of
   1e9 magnitude (where the summation order shows in the last bits), x
   values up to 1e-7 outside [0, 1] drawn from a small set so that y
   values tie, and right-hand sides that put the positive-y weight
   exactly on b' (summed in row order or in greedy order, or one ulp
   off). *)
let sep_oracle_gen =
  QCheck.make
    ~print:(fun (n, m, s) -> Printf.sprintf "n=%d rows=%d seed=%d" n m s)
    QCheck.Gen.(
      let* n = int_range 2 10 in
      let* mrows = int_range 1 4 in
      let* seed = int_range 0 1_000_000 in
      return (n, mrows, seed))

(* b' of a row exactly as the separators compute it *)
let complemented_rhs p r b =
  let b' = ref b in
  Problem.row_iter p r (fun _ a -> if a < 0.0 then b' := !b' -. a);
  !b'

(* weight of the row's items with y > 0, in row order or in the
   greedy's decreasing-y order *)
let positive_y_weight ~greedy p x r =
  let items = ref [] in
  Problem.row_iter p r (fun j a ->
      if a > 0.0 then items := (a, x.(j)) :: !items
      else if a < 0.0 then items := (-.a, 1.0 -. x.(j)) :: !items);
  let items = List.rev !items in
  let items =
    if greedy then List.sort (fun (_, ya) (_, yb) -> compare yb ya) items
    else items
  in
  List.fold_left (fun w (a, y) -> if y > 0.0 then w +. a else w) 0.0 items

let build_sep_case (n, mrows, seed) =
  let rng = Mm_util.Prng.create (seed + 4242) in
  let x =
    Array.init n (fun _ ->
        Mm_util.Prng.pick rng
          [
            -1e-7; 0.0; 1e-7; 0.25; 0.5; 0.75; 1.0 -. 1e-7; 1.0; 1.0 +. 1e-7;
            Mm_util.Prng.float rng 1.0;
          ])
  in
  let m = Model.create () in
  let vars = Array.init n (fun _ -> Model.binary m ()) in
  for _ = 1 to mrows do
    let scale = if Mm_util.Prng.int rng 3 = 0 then 1e9 else 1.0 in
    let terms =
      List.filter_map
        (fun j ->
          if Mm_util.Prng.int rng 5 = 0 then None
          else begin
            let mag =
              if Mm_util.Prng.bool rng then
                float_of_int (Mm_util.Prng.int_in rng 1 9)
              else 0.1 +. Mm_util.Prng.float rng 9.9
            in
            let sign = if Mm_util.Prng.int rng 10 < 3 then -1.0 else 1.0 in
            Some (Expr.var ~coeff:(sign *. scale *. mag) vars.(j))
          end)
        (Mm_util.Ints.range n)
    in
    Model.add_le m (Expr.sum terms) 0.0
  done;
  let p = Model.to_problem m in
  let row_ub =
    Array.init p.Problem.nrows (fun r ->
        let total = ref 0.0 and neg = ref 0.0 in
        Problem.row_iter p r (fun _ a ->
            total := !total +. Float.abs a;
            if a < 0.0 then neg := !neg -. a);
        let target =
          match Mm_util.Prng.int rng 5 with
          | 0 -> Mm_util.Prng.float rng 1.2 *. !total
          | 1 -> positive_y_weight ~greedy:false p x r
          | 2 -> positive_y_weight ~greedy:true p x r
          | 3 -> Float.pred (positive_y_weight ~greedy:false p x r)
          | _ -> Float.succ (positive_y_weight ~greedy:true p x r)
        in
        (* b = target - |negatives|, nudged until b' lands on target *)
        let b = ref (target -. !neg) in
        for _ = 1 to 4 do
          b := !b +. (target -. complemented_rhs p r !b)
        done;
        !b)
  in
  ({ p with Problem.row_ub }, x)

let prop_separators_match_reference =
  qtest ~count:2000 "cover, lcover and selection match the reference"
    sep_oracle_gen (fun params ->
      let p, x = build_sep_case params in
      let ctx = { Separator.p; x; sx = None } in
      let cover = Separator.separate Separator.cover ctx
      and lcover = Separator.separate Separator.lifted_cover ctx in
      let ref_cover = Ref_separator.Cover.separate ctx
      and ref_lcover = Ref_separator.Lifted_cover.separate ctx in
      (* the pool's node separation runs both bound-free families and
         accepts through the lazy-key dedup; a second call on the same
         point must find only duplicates *)
      let pool = default_pool p in
      let k1 = Cut_pool.node_separate pool p x in
      let k2 = Cut_pool.node_separate pool p x in
      let accepted =
        List.map
          (fun (_, terms, lb, ub) -> (terms, lb, ub))
          (Cut_pool.rows_from pool 0)
      in
      let seen = Hashtbl.create 16 in
      let ref_accepted =
        Ref_separator.select ~max_per_round:50 seen x (ref_cover @ ref_lcover)
        |> List.map (fun (c : Separator.cut) ->
               (c.Separator.terms, c.Separator.lb, c.Separator.ub))
      in
      cover = ref_cover && lcover = ref_lcover && k1 = k2
      && accepted = ref_accepted)

(* The root rounds of complete Table-3 points 0-4: every round's
   candidates come out of the production families and of the reference
   ones (the GMI family is shared), and what the pool accepts must be
   what the reference selection accepts from the reference candidates,
   round by round. *)
let test_root_rounds_match_reference () =
  List.iter
    (fun i ->
      let pt = List.nth Mm_workload.Table3.points i in
      let board, design = Mm_workload.Gen.instance pt.Mm_workload.Table3.spec in
      let p =
        match
          Mm_mapping.Complete_ilp.F.build
            (Mm_mapping.Formulation.ctx board design)
        with
        | Ok (p, _) -> p
        | Error e -> Alcotest.fail e
      in
      let q =
        match Presolve.presolve p with
        | Presolve.Reduced (q, _) -> q
        | _ -> Alcotest.fail "presolve did not reduce"
      in
      let seen = Hashtbl.create 64 in
      let expected = ref [] and rounds = ref 0 in
      let module Both = struct
        let name = "both"
        let bound_free = false

        let separate ctx =
          let cand =
            List.concat_map (fun s -> Separator.separate s ctx) Separator.default
          in
          let ref_cand =
            Ref_separator.Cover.separate ctx
            @ Ref_separator.Lifted_cover.separate ctx
            @ Separator.separate Separator.gomory ctx
          in
          Alcotest.(check bool)
            (Printf.sprintf "point %d round %d candidates" i !rounds)
            true (cand = ref_cand);
          incr rounds;
          expected :=
            !expected
            @ Ref_separator.select ~max_per_round:50 seen ctx.Separator.x
                ref_cand;
          cand
      end in
      let pool =
        Cut_pool.create ~max_age:Solver.default_options.Solver.cut_max_age
          ~separators:[ (module Both) ] q
      in
      let q', st = Cut_pool.root_loop ~snk:Mm_obs.Trace.null pool in
      Alcotest.(check bool) (Printf.sprintf "point %d separated" i) true (!rounds > 0);
      let rows =
        List.init (q'.Problem.nrows - q.Problem.nrows) (fun k ->
            let r = q.Problem.nrows + k in
            let idx, v = q'.Problem.rows.(r) in
            ( List.combine (Array.to_list idx) (Array.to_list v),
              q'.Problem.row_lb.(r),
              q'.Problem.row_ub.(r) ))
      in
      let expected =
        List.map
          (fun (c : Separator.cut) ->
            ( List.stable_sort
                (fun (a, _) (b, _) -> compare a b)
                c.Separator.terms
              |> List.filter (fun (_, a) -> a <> 0.0),
              c.Separator.lb,
              c.Separator.ub ))
          !expected
      in
      Alcotest.(check int) (Printf.sprintf "point %d accepted" i)
        (List.length expected) st.Cut_pool.added;
      Alcotest.(check bool) (Printf.sprintf "point %d accepted rows" i) true
        (rows = expected))
    [ 0; 1; 2; 3; 4 ]

(* --- Cut pool dedup semantics ---------------------------------------------- *)

let fixed_separator cuts : Separator.t =
  (module struct
    let name = "fixed"
    let bound_free = true
    let separate _ = !cuts
  end)

let le_cut terms ub =
  { Separator.family = "fixed"; terms; lb = neg_infinity; ub }

let test_cut_pool_dedup_semantics () =
  let p = knapsack_triple () in
  let x = [| 0.55; 0.55; 0.55 |] in
  let cuts = ref [] in
  let pool =
    Cut_pool.create ~max_age:Solver.default_options.Solver.cut_max_age
      ~separators:[ fixed_separator cuts ] p
  in
  let offer cs =
    cuts := cs;
    Cut_pool.node_separate pool p x
  in
  let c = le_cut [ (0, 1.0); (1, 0.5) ] 1.0 in
  Alcotest.(check int) "first cut accepted" 1 (offer [ c ]);
  Alcotest.(check int) "positive scaling rejected" 1
    (offer
       [
         le_cut [ (1, 1.0); (0, 2.0) ] 2.0;
         le_cut [ (0, 1e3); (1, 5e2) ] 1e3;
       ]);
  Alcotest.(check int) "difference past the 9th digit rejected" 1
    (offer [ le_cut [ (0, 1.0); (1, 0.5 +. 1e-11) ] 1.0 ]);
  Alcotest.(check int) "same support, different cuts accepted" 3
    (offer
       [
         le_cut [ (0, 1.0); (1, 0.5 +. 1e-6) ] 1.0;
         le_cut [ (0, 1.0); (1, 1.0) ] 1.0;
       ]);
  Alcotest.(check int) "a difference in the 9th digit is a new cut" 4
    (offer [ le_cut [ (0, 1.0); (1, 0.5 +. 1e-9) ] 1.0 ]);
  Alcotest.(check int) "same batch duplicates collapse" 5
    (offer
       [ le_cut [ (2, 1.0); (0, 1.0) ] 1.0; le_cut [ (0, 3.0); (2, 3.0) ] 3.0 ]);
  (* aging: a loose root cut dropped after max_age solves is forgotten,
     so node separation accepts it again; without aging it stays a
     duplicate *)
  let loose = le_cut [ (0, 1.0); (1, 1.0); (2, 1.0) ] 2.9 in
  List.iter
    (fun (max_age, reaccepted) ->
      let cuts = ref [ loose ] in
      let pool =
        Cut_pool.create ~max_age ~separators:[ fixed_separator cuts ] p
      in
      let q, st = Cut_pool.root_loop ~snk:Mm_obs.Trace.null pool in
      Alcotest.(check int) "root accepted the loose cut" 1 st.Cut_pool.added;
      Alcotest.(check int)
        (Printf.sprintf "max_age %d dropped" max_age)
        (if reaccepted then 1 else 0)
        st.Cut_pool.dropped;
      Alcotest.(check int)
        (Printf.sprintf "max_age %d node re-accepts" max_age)
        (if reaccepted then 1 else 0)
        (Cut_pool.node_separate pool q x))
    [ (1, true); (8, false) ]

(* the tableau rows read off the factorization must be valid equations:
   for the homogeneous system  A x - s = 0, every row of  B^-1 [A -I]
   annihilates the current solution vector *)
let prop_tableau_rows_annihilate_solution =
  qtest ~count:150 "tableau rows annihilate the optimal solution"
    random_bip_gen (fun params ->
      let p = build_random_bip params in
      let s = Simplex.create p in
      match Simplex.solve s with
      | Simplex.Optimal ->
          let nt = p.Problem.ncols + Simplex.num_rows s in
          let ok = ref true in
          for pos = 0 to Simplex.num_rows s - 1 do
            let row = Simplex.tableau_row s ~pos in
            let acc = ref (Simplex.var_value s (Simplex.basic_var s pos)) in
            for v = 0 to nt - 1 do
              if row.(v) <> 0.0 then
                acc := !acc +. (row.(v) *. Simplex.var_value s v)
            done;
            if Float.abs !acc > 1e-6 then ok := false
          done;
          !ok
      | _ -> true)

(* --- heuristics ------------------------------------------------------------ *)

(* random GUB assignment instances: one uniqueness row per segment plus
   loose capacity rows — the structure [Heuristics.run] dives on *)
let random_gub_gen =
  QCheck.make
    QCheck.Gen.(
      let* nd = int_range 2 5 in
      let* nt = int_range 2 4 in
      let* seed = int_range 0 1_000_000 in
      return (nd, nt, seed))

let build_random_gub (nd, nt, seed) =
  let rng = Mm_util.Prng.create (seed + 4321) in
  let m = Model.create () in
  let z = Array.init nd (fun _ -> Array.init nt (fun _ -> Model.binary m ())) in
  for d = 0 to nd - 1 do
    Model.add_eq m
      (Expr.sum (List.map (fun t -> Expr.var z.(d).(t)) (Mm_util.Ints.range nt)))
      1.0
  done;
  (* capacity rows; type 0 is big enough for everyone so the instance
     always stays feasible *)
  for t = 1 to nt - 1 do
    Model.add_le m
      (Expr.sum
         (List.map
            (fun d ->
              Expr.var
                ~coeff:(float_of_int (Mm_util.Prng.int_in rng 1 4))
                z.(d).(t))
            (Mm_util.Ints.range nd)))
      (float_of_int (Mm_util.Prng.int_in rng 2 6))
  done;
  Model.set_objective m Model.Minimize
    (Expr.sum
       (List.concat_map
          (fun d ->
            List.map
              (fun t ->
                Expr.var
                  ~coeff:(float_of_int (Mm_util.Prng.int_in rng 1 9))
                  z.(d).(t))
              (Mm_util.Ints.range nt))
          (Mm_util.Ints.range nd)));
  m

let test_heuristics_round_point () =
  let m = build_random_gub (1, 3, 0) in
  let p = Model.to_problem m in
  let gubs = Heuristics.gub_rows p in
  Alcotest.(check int) "one GUB row" 1 (List.length gubs);
  match Heuristics.round_point p ~gubs ~ints:[ 0; 1; 2 ] [| 0.6; 0.3; 0.1 |] with
  | None -> Alcotest.fail "rounding should succeed"
  | Some r ->
      Alcotest.(check (float 0.0)) "winner" 1.0 r.(0);
      Alcotest.(check (float 0.0)) "loser 1" 0.0 r.(1);
      Alcotest.(check (float 0.0)) "loser 2" 0.0 r.(2)

let prop_gub_heuristic_feasible_and_bounded =
  qtest ~count:150 "GUB diving incumbent is feasible, above the optimum"
    random_gub_gen (fun params ->
      let p = Model.to_problem (build_random_gub params) in
      let h = Heuristics.run ~snk:Mm_obs.Trace.null p in
      match h.Heuristics.incumbent with
      | None -> true (* allowed: the heuristic may come up empty *)
      | Some (x, obj) -> (
          Problem.max_violation p x <= 1e-7
          && Problem.integer_violation p x <= 1e-6
          &&
          match brute_force_binary p with
          | Some best -> obj >= best -. 1e-6
          | None -> false))

let prop_gub_heuristic_solver_agreement =
  qtest ~count:100 "full pool+heuristics config matches brute force on GUBs"
    random_gub_gen (fun params ->
      let p = Model.to_problem (build_random_gub params) in
      let r = (Solver.solve p).Solver.mip in
      match (r.Branch_bound.objective, brute_force_binary p) with
      | Some o, Some b ->
          Float.abs (o -. b) <= 1e-6
          && r.Branch_bound.incumbent_source <> Branch_bound.No_incumbent
      | None, None -> true
      | _ -> false)

(* --- node cuts -------------------------------------------------------------- *)

(* force node separation hard (every node, deep window) and make sure
   the tree still proves the right optimum, serially and with workers
   syncing cut rows across domains *)
let prop_node_cuts_preserve_optimum =
  qtest ~count:150 "node-level separation preserves the optimum"
    random_bip_gen (fun params ->
      let p = build_random_bip params in
      let oracle = brute_force_binary p in
      List.for_all
        (fun j ->
          let options =
            Solver.options
              ~bb:
                (Branch_bound.options ~parallelism:j ~node_cut_depth:50
                   ~node_cut_freq:1 ())
              ()
          in
          let r = (Solver.solve ~options p).Solver.mip in
          match (r.Branch_bound.objective, oracle) with
          | None, None -> true
          | Some o, Some b -> Float.abs (o -. b) <= 1e-6
          | _ -> false)
        [ 1; 2 ])

let test_cover_only_reproduces_cover_only () =
  (* the degenerate configuration must behave like the historical
     root-cover-only solver: no lcover/gmi rows, no heuristic incumbent *)
  let p = build_random_bip (8, 5, 31415) in
  let r =
    Solver.solve ~options:(Solver.cover_only Solver.default_options) p
  in
  List.iter
    (fun (fam, n) ->
      if fam <> "cover" then
        Alcotest.(check int) ("no " ^ fam ^ " cuts") 0 n)
    r.Solver.stats.Solver.cuts_by_family;
  Alcotest.(check int) "no node cuts" 0 r.Solver.stats.Solver.node_cuts_added;
  Alcotest.(check int) "no dives" 0 r.Solver.stats.Solver.heuristic_dives;
  Alcotest.(check bool) "no heuristic incumbent" true
    (r.Solver.stats.Solver.heuristic_obj = None);
  match (r.Solver.mip.Branch_bound.objective, brute_force_binary p) with
  | Some o, Some b ->
      Alcotest.(check (float 1e-6)) "objective matches brute force" b o
  | None, None -> ()
  | _ -> Alcotest.fail "status mismatch vs brute force"

(* --- LP format parser --------------------------------------------------------- *)

let test_lp_parse_small () =
  let text =
    "\\ a comment\n\
     Minimize\n obj: 2 x + 3 y\n\
     Subject To\n c1: x + y >= 2\n c2: x - y <= 1\n\
     Bounds\n x <= 4\n -1 <= y <= 5\n\
     Generals\n x\nEnd\n"
  in
  match Lp_format.parse text with
  | Error e -> Alcotest.fail e
  | Ok p ->
      Alcotest.(check int) "cols" 2 p.Problem.ncols;
      Alcotest.(check int) "rows" 2 p.Problem.nrows;
      let r = Branch_bound.solve p in
      (match r.Branch_bound.objective with
      | Some o ->
          (* min 2x+3y st x+y>=2, x-y<=1, x in [0,4] integer, y in [-1,5]:
             x=2,y=0 -> 4? or x=1,y=1 -> 5; x=2,y=0: c1 2>=2 ok c2 2<=1 NO;
             x=1,y=1 -> c2 0<=1 ok -> 5; x=0,y=2 -> 6; x=2,y=1 -> 7;
             y can be 1.5: not integer constraint on y -> x=1, y=1 -> 5?
             y continuous: x=1,y=1 -> 5; x=2,y=1: c2=1<=1 ok obj 7; worse.
             x=1, y=1: c1 tight. x integer, y cont: x=1.5 not allowed.
             Actually x=1,y=1 gives 5; x=0,y=2 gives 6; best is 5? try
             x=1,y=1 exactly. *)
          Alcotest.(check (float 1e-6)) "objective" 5.0 o
      | None -> Alcotest.fail "no solution")

let test_lp_parse_free_and_max () =
  let text =
    "Maximize\n obj: x - y\nSubject To\n c: x + y <= 3\n\
     Bounds\n x <= 2\n y free\nEnd\n"
  in
  match Lp_format.parse text with
  | Error e -> Alcotest.fail e
  | Ok p -> (
      (* max x - y, y free -> unbounded (y -> -inf) *)
      let s = Simplex.create p in
      match Simplex.solve s with
      | Simplex.Unbounded -> ()
      | _ -> Alcotest.fail "expected unbounded")

let test_lp_parse_errors () =
  (match Lp_format.parse "Minimize\n obj: x\nSubject To\n c: x + y\nEnd\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing relop should fail");
  match Lp_format.parse "" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty should fail"

let prop_lp_format_roundtrip =
  qtest ~count:150 "LP-format round trip preserves the MIP optimum"
    random_bip_gen (fun params ->
      let p = build_random_bip params in
      match Lp_format.parse (Lp_format.to_string p) with
      | Error _ -> false
      | Ok q -> (
          let rp = Branch_bound.solve p and rq = Branch_bound.solve q in
          match (rp.Branch_bound.objective, rq.Branch_bound.objective) with
          | Some a, Some b -> Float.abs (a -. b) <= 1e-6
          | None, None -> true
          | _ -> false))

let prop_lp_format_roundtrip_lp =
  qtest ~count:150 "LP-format round trip preserves the LP optimum"
    random_lp_gen (fun params ->
      let p = build_random_lp params in
      match Lp_format.parse (Lp_format.to_string p) with
      | Error _ -> false
      | Ok q -> (
          let sp = Simplex.create p and sq = Simplex.create q in
          match (Simplex.solve sp, Simplex.solve sq) with
          | Simplex.Optimal, Simplex.Optimal ->
              Float.abs (Simplex.objective sp -. Simplex.objective sq)
              <= 1e-6 *. Float.max 1.0 (Float.abs (Simplex.objective sp))
          | a, b -> a = b))

(* --- MPS -------------------------------------------------------------------- *)

let test_mps_writer_sections () =
  let m = Model.create () in
  let x = Model.add_var m ~name:"x" ~lb:1.0 ~ub:4.0 Problem.Integer in
  let y = Model.binary m ~name:"y" () in
  let z = Model.add_var m ~name:"z" ~lb:neg_infinity Problem.Continuous in
  Model.add_le m Expr.(sum [ var x; var y; var z ]) 10.0;
  Model.add_range m 1.0 Expr.(add (var x) (var z)) 3.0;
  Model.set_objective m Model.Minimize Expr.(add (var x) (scale 2.0 (var y)));
  let text = Mps.to_string (Model.to_problem m) in
  let has sub =
    let nh = String.length text and nn = String.length sub in
    let rec scan i = i + nn <= nh && (String.sub text i nn = sub || scan (i + 1)) in
    scan 0
  in
  List.iter
    (fun sec -> Alcotest.(check bool) sec true (has sec))
    [ "ROWS"; "COLUMNS"; "RHS"; "RANGES"; "BOUNDS"; "ENDATA"; "INTORG"; "INTEND" ]

let test_mps_parse_small () =
  let text =
    "NAME t\nROWS\n N obj\n L c1\n G c2\nCOLUMNS\n x obj 1 c1 2\n x c2 1\n\
     \ y obj 3 c1 1\nRHS\n rhs c1 10 c2 1\nBOUNDS\n UP bnd x 5\nENDATA\n"
  in
  match Mps.parse text with
  | Error e -> Alcotest.fail e
  | Ok p ->
      Alcotest.(check int) "cols" 2 p.Problem.ncols;
      Alcotest.(check int) "rows" 2 p.Problem.nrows;
      let s = Simplex.create p in
      Alcotest.(check bool) "solves" true (Simplex.solve s = Simplex.Optimal);
      (* min x + 3y st 2x + y <= 10, x >= 1, x <= 5 -> x = 1, y = 0 *)
      Alcotest.(check (float 1e-6)) "objective" 1.0 (Simplex.objective s);
      (* repeated (row, column) entries add up in the order written:
         (0.1 + 0.2) + 0.3, which differs from 0.3 + 0.2 + 0.1 in the
         last bit; objective entries likewise *)
      let text =
        "NAME t\nROWS\n N obj\n L c1\nCOLUMNS\n x c1 0.1 obj 0.1\n\
         \ x c1 0.2 obj 0.2\n x c1 0.3 obj 0.3\nRHS\n rhs c1 1\nENDATA\n"
      in
      let in_order = 0.1 +. 0.2 +. 0.3 in
      match Mps.parse text with
      | Error e -> Alcotest.fail e
      | Ok q ->
          Alcotest.(check bool) "row entries in file order" true
            (q.Problem.rows.(0) = ([| 0 |], [| in_order |]));
          Alcotest.(check bool) "objective entries in file order" true
            (q.Problem.obj.(0) = in_order)

let test_mps_parse_errors () =
  (match Mps.parse "garbage\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected error");
  match Mps.parse "ROWS\n N obj\nCOLUMNS\nENDATA\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected no-columns error"

let prop_mps_roundtrip_lp_optimum =
  qtest ~count:150 "MPS round trip preserves the LP optimum" random_lp_gen
    (fun params ->
      let p = build_random_lp params in
      match Mps.parse (Mps.to_string p) with
      | Error _ -> false
      | Ok q -> (
          let sp = Simplex.create p and sq = Simplex.create q in
          match (Simplex.solve sp, Simplex.solve sq) with
          | Simplex.Optimal, Simplex.Optimal ->
              Float.abs (Simplex.objective sp -. Simplex.objective sq)
              <= 1e-6 *. Float.max 1.0 (Float.abs (Simplex.objective sp))
          | a, b -> a = b))

let prop_mps_roundtrip_mip_optimum =
  qtest ~count:100 "MPS round trip preserves the MIP optimum" random_bip_gen
    (fun params ->
      let p = build_random_bip params in
      match Mps.parse (Mps.to_string p) with
      | Error _ -> false
      | Ok q -> (
          let rp = Branch_bound.solve p and rq = Branch_bound.solve q in
          match (rp.Branch_bound.objective, rq.Branch_bound.objective) with
          | Some a, Some b -> Float.abs (a -. b) <= 1e-6
          | None, None -> true
          | _ -> false))

let find_col p name =
  let rec scan j =
    if j >= p.Problem.ncols then Alcotest.fail ("no column " ^ name)
    else if p.Problem.col_names.(j) = name then j
    else scan (j + 1)
  in
  scan 0

let test_mps_bound_kinds () =
  (* MI/PL/FR with and without the dummy numeric field many writers
     emit, FX, and BV — the bound kinds beyond plain LO/UP *)
  let text =
    "NAME t\nROWS\n N obj\n L c1\nCOLUMNS\n x obj 1 c1 1\n y obj 1 c1 1\n\
     \ z obj 1 c1 1\n w obj 1 c1 1\n v obj 1 c1 1\nRHS\n rhs c1 10\nBOUNDS\n\
     \ MI bnd x 0\n UP bnd x 4\n PL bnd y 0\n FX bnd z 2.5\n BV bnd w 1\n\
     \ FR bnd v\nENDATA\n"
  in
  match Mps.parse text with
  | Error e -> Alcotest.fail e
  | Ok p ->
      let x = find_col p "x" and y = find_col p "y" in
      let z = find_col p "z" and w = find_col p "w" and v = find_col p "v" in
      Alcotest.(check bool) "MI lower" true (p.Problem.col_lb.(x) = neg_infinity);
      Alcotest.(check (float 0.0)) "MI+UP upper" 4.0 p.Problem.col_ub.(x);
      Alcotest.(check (float 0.0)) "PL keeps default lower" 0.0 p.Problem.col_lb.(y);
      Alcotest.(check bool) "PL upper" true (p.Problem.col_ub.(y) = infinity);
      Alcotest.(check (float 0.0)) "FX lower" 2.5 p.Problem.col_lb.(z);
      Alcotest.(check (float 0.0)) "FX upper" 2.5 p.Problem.col_ub.(z);
      Alcotest.(check bool) "BV with dummy value is binary" true
        (p.Problem.kind.(w) = Problem.Binary);
      Alcotest.(check bool) "FR lower" true (p.Problem.col_lb.(v) = neg_infinity);
      Alcotest.(check bool) "FR upper" true (p.Problem.col_ub.(v) = infinity)

let test_mps_negative_up () =
  (* a negative UP on a column still at its default lower bound of 0
     would make the column empty; the parser must reject it, but accept
     the same bound once an explicit MI lower bound is in place *)
  let bad =
    "ROWS\n N obj\n L c1\nCOLUMNS\n x obj 1 c1 1\nRHS\n rhs c1 4\nBOUNDS\n\
     \ UP bnd x -2\nENDATA\n"
  in
  (match Mps.parse bad with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "negative UP on default lower bound must be rejected");
  let ok =
    "ROWS\n N obj\n L c1\nCOLUMNS\n x obj 1 c1 1\nRHS\n rhs c1 4\nBOUNDS\n\
     \ MI bnd x\n UP bnd x -2\nENDATA\n"
  in
  match Mps.parse ok with
  | Error e -> Alcotest.fail e
  | Ok p ->
      Alcotest.(check bool) "lower -inf" true (p.Problem.col_lb.(0) = neg_infinity);
      Alcotest.(check (float 0.0)) "upper -2" (-2.0) p.Problem.col_ub.(0)

let test_mps_obj_const_rhs () =
  (* an RHS entry on the objective row is the negated constant term;
     the writer emits it and the parser reads it back *)
  let text =
    "ROWS\n N obj\n L c1\nCOLUMNS\n x obj 1 c1 1\nRHS\n rhs obj -7 c1 4\n\
     ENDATA\n"
  in
  (match Mps.parse text with
  | Error e -> Alcotest.fail e
  | Ok p ->
      Alcotest.(check (float 0.0)) "constant read" 7.0 p.Problem.obj_const;
      (* and it survives a write/read cycle *)
      (match Mps.parse (Mps.to_string p) with
      | Error e -> Alcotest.fail e
      | Ok q ->
          Alcotest.(check (float 0.0)) "constant round-trips" 7.0
            q.Problem.obj_const));
  (* a problem without a constant writes no obj RHS entry *)
  let plain =
    "ROWS\n N obj\n L c1\nCOLUMNS\n x obj 1 c1 1\nRHS\n rhs c1 4\nENDATA\n"
  in
  match Mps.parse plain with
  | Error e -> Alcotest.fail e
  | Ok p -> Alcotest.(check (float 0.0)) "no constant" 0.0 p.Problem.obj_const

let test_mps_ranges_semantics () =
  (* RANGES on L, G and E rows (positive and negative range on E): the
     row interval follows the classic MPS convention *)
  let text =
    "ROWS\n N obj\n L lr\n G gr\n E ep\n E en\nCOLUMNS\n\
     \ x obj 1 lr 1 \n x gr 1 ep 1\n x en 1\nRHS\n\
     \ rhs lr 10 gr 2\n rhs ep 5 en 5\nRANGES\n\
     \ rng lr 3 gr 4\n rng ep 2 en -2\nENDATA\n"
  in
  match Mps.parse text with
  | Error e -> Alcotest.fail e
  | Ok p ->
      let row name =
        let rec find r =
          if r >= p.Problem.nrows then Alcotest.failf "row %s missing" name
          else if p.Problem.row_names.(r) = name then r
          else find (r + 1)
        in
        find 0
      in
      let check name lo hi =
        let r = row name in
        Alcotest.(check (float 0.0)) (name ^ " lb") lo p.Problem.row_lb.(r);
        Alcotest.(check (float 0.0)) (name ^ " ub") hi p.Problem.row_ub.(r)
      in
      check "lr" 7.0 10.0;
      (* L: [rhs - |r|, rhs] *)
      check "gr" 2.0 6.0;
      (* G: [rhs, rhs + |r|] *)
      check "ep" 5.0 7.0;
      (* E, r >= 0: [rhs, rhs + r] *)
      check "en" 3.0 5.0
      (* E, r < 0: [rhs + r, rhs] *)

(* Structural MPS round trip: write then parse must reproduce the exact
   problem — bounds of every kind, integrality markers, and range rows —
   not merely one with the same optimum. Coefficients are small integers
   so the textual round trip is exact. *)
let random_structured_gen =
  QCheck.make
    QCheck.Gen.(
      let* n = int_range 1 6 in
      let* mrows = int_range 1 5 in
      let* seed = int_range 0 1_000_000 in
      return (n, mrows, seed))

let build_structured (n, mrows, seed) =
  let rng = Mm_util.Prng.create (seed + 31337) in
  let m = Model.create () in
  let nz () =
    let v = Mm_util.Prng.int_in rng (-3) 3 in
    float_of_int (if v = 0 then 1 else v)
  in
  let vars =
    Array.init n (fun _ ->
        match Mm_util.Prng.int rng 11 with
        | 0 -> Model.add_var m ~obj:(nz ()) Problem.Continuous
        | 1 -> Model.add_var m ~obj:(nz ()) ~lb:(-3.0) ~ub:5.0 Problem.Continuous
        | 2 -> Model.add_var m ~obj:(nz ()) ~ub:4.0 Problem.Continuous
        | 3 -> Model.add_var m ~obj:(nz ()) ~lb:2.0 ~ub:2.0 Problem.Continuous
        | 4 ->
            Model.add_var m ~obj:(nz ()) ~lb:neg_infinity ~ub:7.0
              Problem.Continuous
        | 5 -> Model.add_var m ~obj:(nz ()) ~lb:neg_infinity Problem.Continuous
        | 6 -> Model.binary m ~obj:(nz ()) ()
        | 7 -> Model.add_var m ~obj:(nz ()) ~lb:(-2.0) ~ub:6.0 Problem.Integer
        (* zero objective: combined with row exclusion below this can
           leave a fully empty column, which the writer must keep alive *)
        | 8 -> Model.add_var m ~obj:0.0 ~ub:4.0 Problem.Continuous
        | 9 -> Model.add_var m ~obj:(nz ()) Problem.Integer
        | _ -> Model.add_var m ~obj:(nz ()) ~lb:(-2.0) Problem.Integer)
  in
  for _ = 1 to mrows do
    let e =
      Expr.sum
        (List.filter_map
           (fun j ->
             if Mm_util.Prng.int rng 10 < 7 then
               Some (Expr.var ~coeff:(nz ()) vars.(j))
             else None)
           (Mm_util.Ints.range n))
    in
    let b = float_of_int (Mm_util.Prng.int_in rng (-4) 8) in
    match Mm_util.Prng.int rng 4 with
    | 0 -> Model.add_le m e b
    | 1 -> Model.add_ge m e b
    | 2 -> Model.add_eq m e b
    | _ -> Model.add_range m b e (b +. float_of_int (Mm_util.Prng.int_in rng 1 5))
  done;
  (* objective constant rides the obj-row RHS in MPS *)
  Model.add_objective_term m
    (Expr.const (float_of_int (Mm_util.Prng.int_in rng (-5) 5)));
  Model.to_problem m

let same_structure (p : Problem.t) (q : Problem.t) =
  p.Problem.ncols = q.Problem.ncols
  && p.Problem.nrows = q.Problem.nrows
  && p.Problem.obj = q.Problem.obj
  && p.Problem.obj_const = q.Problem.obj_const
  && p.Problem.col_lb = q.Problem.col_lb
  && p.Problem.col_ub = q.Problem.col_ub
  && p.Problem.kind = q.Problem.kind
  && p.Problem.row_lb = q.Problem.row_lb
  && p.Problem.row_ub = q.Problem.row_ub
  && p.Problem.cols = q.Problem.cols

let prop_mps_roundtrip_structure =
  qtest ~count:300 "MPS write/read preserves the problem structurally"
    random_structured_gen (fun params ->
      let p = build_structured params in
      match Mps.parse (Mps.to_string p) with
      | Error _ -> false
      | Ok q -> same_structure p q)

(* --- LP format -------------------------------------------------------------- *)

let test_lp_format () =
  let m = Model.create () in
  let x = Model.add_var m ~name:"x" ~ub:4.0 Problem.Integer in
  let y = Model.binary m ~name:"y" () in
  Model.add_le m Expr.(add (var x) (scale 2.0 (var y))) 5.0;
  Model.set_objective m Model.Maximize Expr.(add (var x) (var y));
  let s = Lp_format.to_string (Model.to_problem m) in
  let has sub =
    let nh = String.length s and nn = String.length sub in
    let rec scan i = i + nn <= nh && (String.sub s i nn = sub || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "maximize" true (has "Maximize");
  Alcotest.(check bool) "subject to" true (has "Subject To");
  Alcotest.(check bool) "generals" true (has "Generals");
  Alcotest.(check bool) "binaries" true (has "Binaries");
  Alcotest.(check bool) "end" true (has "End")


let test_lp_format_coefficients () =
  let m = Model.create () in
  let x = Model.add_var m ~name:"x" Problem.Continuous in
  Model.add_le m (Expr.var ~coeff:2.5 x) 7.5;
  Model.set_objective m Model.Minimize (Expr.var ~coeff:0.25 x);
  let str = Lp_format.to_string (Model.to_problem m) in
  let has sub =
    let nh = String.length str and nn = String.length sub in
    let rec scan i = i + nn <= nh && (String.sub str i nn = sub || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "row coefficient" true (has "2.5 x");
  Alcotest.(check bool) "rhs" true (has "7.5");
  Alcotest.(check bool) "objective coefficient" true (has "0.25 x")

(* [extend_rows] copies only the columns its new rows touch: the result
   must equal re-transposing all its rows, every other column array must
   be the input's own, and the input must be left as it was. The new
   rows come unsorted, with a zero coefficient and a repeated column. *)
let test_problem_extend_rows_appends () =
  let transpose (p : Problem.t) =
    let cols = Array.make p.Problem.ncols [] in
    for r = p.Problem.nrows - 1 downto 0 do
      let idx, v = p.Problem.rows.(r) in
      for k = Array.length idx - 1 downto 0 do
        cols.(idx.(k)) <- (r, v.(k)) :: cols.(idx.(k))
      done
    done;
    Array.map
      (fun es -> (Array.of_list (List.map fst es), Array.of_list (List.map snd es)))
      cols
  in
  List.iter
    (fun seed ->
      let p = build_random_bip (9, 4, seed) in
      let deep (q : Problem.t) =
        ( Array.map (fun (i, v) -> (Array.copy i, Array.copy v)) q.Problem.cols,
          Array.map (fun (i, v) -> (Array.copy i, Array.copy v)) q.Problem.rows,
          (q.Problem.nrows, Array.copy q.Problem.row_lb, Array.copy q.Problem.row_ub) )
      in
      let before = deep p in
      let extra =
        [
          ("a", [ (7, 2.0); (1, -1.0); (4, 0.0); (1, 3.0) ], neg_infinity, 4.0);
          ("b", [ (3, 1.5); (7, 1.0) ], 1.0, infinity);
          ("empty", [], 0.0, 0.0);
        ]
      in
      let q = Problem.extend_rows p extra in
      Alcotest.(check int) "rows" (p.Problem.nrows + 3) q.Problem.nrows;
      Alcotest.(check bool) "equals a full re-transpose" true
        (q.Problem.cols = transpose q);
      Alcotest.(check bool) "new row sorted, zero dropped" true
        (q.Problem.rows.(p.Problem.nrows) = ([| 1; 1; 7 |], [| -1.0; 3.0; 2.0 |]));
      Array.iteri
        (fun j col ->
          let touched = List.mem j [ 1; 3; 7 ] in
          Alcotest.(check bool)
            (Printf.sprintf "column %d shared iff untouched" j)
            (not touched) (col == p.Problem.cols.(j)))
        q.Problem.cols;
      Alcotest.(check bool) "input unchanged" true (deep p = before))
    [ 1; 2; 3 ]

let () =
  Alcotest.run "mm_lp"
    [
      ( "expr",
        [
          Alcotest.test_case "combinators" `Quick test_expr_combinators;
          prop_expr_sum_is_fold_add;
          prop_expr_matches_map_reference;
        ] );
      ( "model",
        [
          Alcotest.test_case "build" `Quick test_model_build;
          Alcotest.test_case "feasibility" `Quick test_problem_feasibility;
          Alcotest.test_case "extend rows" `Quick test_problem_extend_rows;
          Alcotest.test_case "extend rows appends" `Quick
            test_problem_extend_rows_appends;
        ] );
      ( "simplex",
        [
          Alcotest.test_case "create rejects bad indices" `Quick
            test_simplex_create_rejects_bad_indices;
          Alcotest.test_case "known optimum" `Quick test_simplex_known_optimum;
          Alcotest.test_case "infeasible" `Quick test_simplex_infeasible;
          Alcotest.test_case "unbounded" `Quick test_simplex_unbounded;
          Alcotest.test_case "equality+range" `Quick test_simplex_equality_range;
          Alcotest.test_case "degenerate" `Quick test_simplex_degenerate;
          Alcotest.test_case "free variable" `Quick test_simplex_free_variable;
          Alcotest.test_case "warm restart" `Quick test_simplex_warm_restart;
          Alcotest.test_case "dual reoptimize" `Quick test_dual_simplex_reoptimize;
          Alcotest.test_case "basis snapshot" `Quick test_simplex_basis_snapshot;
          Alcotest.test_case "duals" `Quick test_simplex_duals_signs;
          Alcotest.test_case "fixed variable" `Quick test_fixed_variable_lp;
          prop_simplex_feasible_and_certified;
          prop_dual_matches_primal;
          prop_sparse_matches_dense_oracle;
          prop_flip_objective_bounded;
          prop_optimal_primal_within_row_bounds;
          prop_refactorize_preserves_primal;
        ] );
      ( "lu",
        [
          prop_lu_residuals;
          Alcotest.test_case "rejects bad vectors" `Quick
            test_lu_rejects_bad_vectors;
        ] );
      ( "presolve",
        [
          Alcotest.test_case "fixing" `Quick test_presolve_fixing;
          Alcotest.test_case "infeasible" `Quick test_presolve_infeasible;
          Alcotest.test_case "unbounded" `Quick test_presolve_unbounded;
          Alcotest.test_case "integer rounding" `Quick test_presolve_integer_rounding;
          prop_presolve_preserves_optimum;
        ] );
      ( "branch_bound",
        [
          prop_bb_matches_brute_force;
          prop_solver_facade_matches_brute_force;
          prop_bb_maximize;
          Alcotest.test_case "node limit" `Quick test_bb_respects_node_limit;
          Alcotest.test_case "objective column branched first" `Quick
            test_bb_branches_objective_column_first;
          Alcotest.test_case "gap" `Quick test_bb_gap_reporting;
          Alcotest.test_case "time limit" `Quick test_solver_time_limit_reported;
          Alcotest.test_case "options off" `Quick test_solver_without_presolve_or_cuts;
          Alcotest.test_case "best bound" `Quick test_bb_best_bound_sane;
          Alcotest.test_case "var names" `Quick test_model_var_name;
          prop_mixed_matches_grid_enumeration;
          prop_wide_magnitude_coefficients;
        ] );
      ( "solver",
        [
          Alcotest.test_case "presolve verdicts" `Quick
            test_solver_presolve_verdicts;
          Alcotest.test_case "corrupt warm basis rejected" `Quick
            test_solver_rejects_corrupt_warm_basis;
          Alcotest.test_case "warm mismatch: reversed objective" `Quick
            test_warm_mismatch_reversed_objective;
          Alcotest.test_case "warm mismatch: one coefficient" `Quick
            test_warm_mismatch_one_coefficient;
          Alcotest.test_case "warm mismatch: other options" `Quick
            test_warm_mismatch_other_options;
          Alcotest.test_case "warm round trip re-separates" `Quick
            test_warm_round_trip_reseparates;
          prop_warm_agrees_with_cold;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "node pool" `Quick test_node_pool_basic;
          prop_parallel_matches_serial;
          Alcotest.test_case "parallelism=1 deterministic" `Quick
            test_parallel_one_is_deterministic;
          Alcotest.test_case "parallel stats" `Quick
            test_parallel_stats_accounting;
          Alcotest.test_case "time limit zero" `Quick test_time_limit_zero_budget;
        ] );
      ( "trace",
        [
          Alcotest.test_case "serial determinism" `Quick
            test_trace_deterministic_serial;
          Alcotest.test_case "disabled is silent" `Quick
            test_trace_disabled_writes_nothing;
        ] );
      ( "cuts",
        [
          Alcotest.test_case "cover validity" `Quick test_cover_cut_validity;
          prop_cuts_never_cut_integer_points;
          prop_single_family_objective_agreement;
          Alcotest.test_case "pool dedup and naming" `Quick
            test_cut_pool_dedup_and_naming;
          Alcotest.test_case "pool aging" `Quick
            test_cut_pool_aging_drops_loose_cuts;
          Alcotest.test_case "pool dedup semantics" `Quick
            test_cut_pool_dedup_semantics;
          prop_separators_match_reference;
          Alcotest.test_case "root rounds match reference" `Quick
            test_root_rounds_match_reference;
          prop_tableau_rows_annihilate_solution;
          prop_node_cuts_preserve_optimum;
          Alcotest.test_case "baseline config" `Quick
            test_cover_only_reproduces_cover_only;
        ] );
      ( "heuristics",
        [
          Alcotest.test_case "GUB rounding" `Quick test_heuristics_round_point;
          prop_gub_heuristic_feasible_and_bounded;
          prop_gub_heuristic_solver_agreement;
        ] );
      ( "lp_format",
        [
          Alcotest.test_case "writer" `Quick test_lp_format;
          Alcotest.test_case "coefficients" `Quick test_lp_format_coefficients;
          Alcotest.test_case "parse small" `Quick test_lp_parse_small;
          Alcotest.test_case "parse free/max" `Quick test_lp_parse_free_and_max;
          Alcotest.test_case "parse errors" `Quick test_lp_parse_errors;
          prop_lp_format_roundtrip;
          prop_lp_format_roundtrip_lp;
        ] );
      ( "mps",
        [
          Alcotest.test_case "writer sections" `Quick test_mps_writer_sections;
          Alcotest.test_case "parse small" `Quick test_mps_parse_small;
          Alcotest.test_case "parse errors" `Quick test_mps_parse_errors;
          prop_mps_roundtrip_lp_optimum;
          prop_mps_roundtrip_mip_optimum;
          Alcotest.test_case "bound kinds" `Quick test_mps_bound_kinds;
          Alcotest.test_case "negative UP" `Quick test_mps_negative_up;
          Alcotest.test_case "objective constant RHS" `Quick
            test_mps_obj_const_rhs;
          Alcotest.test_case "ranges semantics" `Quick
            test_mps_ranges_semantics;
          prop_mps_roundtrip_structure;
        ] );
    ]
