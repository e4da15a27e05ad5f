type var = int
type sense = Minimize | Maximize

type con = { c_name : string; c_lo : float; c_hi : float; c_expr : Expr.t }

type vdecl = {
  v_name : string;
  v_lb : float;
  v_ub : float;
  v_obj : float;
  v_kind : Problem.var_kind;
}

(* Variables and constraints live in growable arrays: the first [nvars]
   and [ncons] slots are in use. [add_objective_term] only conses its
   operand onto [obj_terms]; [to_problem] sums them with [obj] in one
   pass, since adding one term at a time copies the whole objective. *)
type t = {
  m_name : string;
  mutable vars : vdecl array;
  mutable nvars : int;
  mutable cons : con array;
  mutable ncons : int;
  mutable obj : Expr.t;
  mutable obj_terms : Expr.t list; (* reversed *)
  mutable sense : sense;
}

let create ?(name = "model") () =
  {
    m_name = name;
    vars = [||];
    nvars = 0;
    cons = [||];
    ncons = 0;
    obj = Expr.zero;
    obj_terms = [];
    sense = Minimize;
  }

(* [a] with room for a slot at [n], [x] filling any new slots *)
let grow a n x =
  if n < Array.length a then a
  else begin
    let b = Array.make (max 16 (2 * n)) x in
    Array.blit a 0 b 0 n;
    b
  end

let add_var t ?name ?(lb = 0.0) ?(ub = infinity) ?(obj = 0.0) kind =
  let idx = t.nvars in
  let lb, ub =
    match kind with Problem.Binary -> (Float.max lb 0.0, Float.min ub 1.0) | _ -> (lb, ub)
  in
  if lb > ub then invalid_arg "Model.add_var: lb > ub";
  let v_name = match name with Some n -> n | None -> Printf.sprintf "x%d" idx in
  let v = { v_name; v_lb = lb; v_ub = ub; v_obj = obj; v_kind = kind } in
  t.vars <- grow t.vars idx v;
  t.vars.(idx) <- v;
  t.nvars <- idx + 1;
  idx

let binary t ?name ?obj () = add_var t ?name ?obj Problem.Binary
let num_vars t = t.nvars

let var_name t v =
  if v < 0 || v >= t.nvars then invalid_arg "Model.var_name";
  t.vars.(v).v_name

(* the constant moves to the bounds; only the terms of [c_expr] are
   read *)
let add_con t name lo hi expr =
  let c_name =
    match name with Some n -> n | None -> Printf.sprintf "c%d" t.ncons
  in
  let k = Expr.constant expr in
  let c = { c_name; c_lo = lo -. k; c_hi = hi -. k; c_expr = expr } in
  t.cons <- grow t.cons t.ncons c;
  t.cons.(t.ncons) <- c;
  t.ncons <- t.ncons + 1

let add_le t ?name expr rhs = add_con t name neg_infinity rhs expr
let add_ge t ?name expr rhs = add_con t name rhs infinity expr
let add_eq t ?name expr rhs = add_con t name rhs rhs expr

let add_range t ?name lo expr hi =
  if lo > hi then invalid_arg "Model.add_range: lo > hi";
  add_con t name lo hi expr

let set_objective t sense expr =
  t.sense <- sense;
  t.obj <- expr;
  t.obj_terms <- []

let add_objective_term t expr = t.obj_terms <- expr :: t.obj_terms

(* [obj] plus the pending terms, as folding [Expr.add] from [obj] would
   give them: the terms of one [Expr.sum], and the constant folded from
   [obj]'s own (the sum starts from 0.0, which would turn a -0.0 there
   into 0.0) *)
let objective t =
  let terms = List.rev t.obj_terms in
  ( Expr.sum (t.obj :: terms),
    List.fold_left (fun acc e -> acc +. Expr.constant e) (Expr.constant t.obj) terms )

let to_problem t =
  let n = t.nvars and m = t.ncons in
  let vars = Array.sub t.vars 0 n and cons = Array.sub t.cons 0 m in
  let flip = if t.sense = Maximize then -1.0 else 1.0 in
  let check what idx =
    Array.iter
      (fun j ->
        if j >= n then
          invalid_arg ("Model.to_problem: " ^ what ^ " uses unknown variable"))
      idx
  in
  let objective, obj_const = objective t in
  let obj = Array.map (fun v -> flip *. v.v_obj) vars in
  let oidx, ov = Expr.to_arrays objective in
  check "objective" oidx;
  Array.iteri (fun k j -> obj.(j) <- obj.(j) +. (flip *. ov.(k))) oidx;
  let rows = Array.map (fun c -> Expr.to_arrays c.c_expr) cons in
  (* one counting transpose: rows in order, so each column's row
     indices come out ascending *)
  let counts = Array.make n 0 in
  Array.iter
    (fun (idx, _) ->
      check "constraint" idx;
      Array.iter (fun j -> counts.(j) <- counts.(j) + 1) idx)
    rows;
  let cols = Array.map (fun c -> (Array.make c 0, Array.make c 0.0)) counts in
  let fill = Array.make n 0 in
  for r = 0 to m - 1 do
    let idx, v = rows.(r) in
    for k = 0 to Array.length idx - 1 do
      let j = idx.(k) in
      let ci, cv = cols.(j) in
      ci.(fill.(j)) <- r;
      cv.(fill.(j)) <- v.(k);
      fill.(j) <- fill.(j) + 1
    done
  done;
  {
    Problem.ncols = n;
    nrows = m;
    obj;
    obj_const = flip *. obj_const;
    maximize_input = t.sense = Maximize;
    col_lb = Array.map (fun v -> v.v_lb) vars;
    col_ub = Array.map (fun v -> v.v_ub) vars;
    kind = Array.map (fun v -> v.v_kind) vars;
    row_lb = Array.map (fun c -> c.c_lo) cons;
    row_ub = Array.map (fun c -> c.c_hi) cons;
    cols;
    rows;
    col_names = Array.map (fun v -> v.v_name) vars;
    row_names = Array.map (fun c -> c.c_name) cons;
  }
