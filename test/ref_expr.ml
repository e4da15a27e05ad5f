(* The map-based [Mm_lp.Expr] as it stood before expressions became
   sorted parallel arrays, kept verbatim as a test oracle: the [expr]
   group of [test_lp] runs random combinator programs through both and
   requires bit-identical terms, constants and coefficients. Every
   [var] allocates a map node and every [sum] goes through lists and a
   map fold, which is why it was replaced. *)

module Imap = Map.Make (Int)

type t = { terms : float Imap.t; const : float }

let prune m = Imap.filter (fun _ c -> c <> 0.0) m
let zero = { terms = Imap.empty; const = 0.0 }
let const c = { terms = Imap.empty; const = c }

let var ?(coeff = 1.0) i =
  if i < 0 then invalid_arg "Expr.var: negative index";
  if coeff = 0.0 then zero else { terms = Imap.singleton i coeff; const = 0.0 }

let merge a b =
  Imap.union (fun _ ca cb -> let c = ca +. cb in if c = 0.0 then None else Some c) a b

let add a b = { terms = merge a.terms b.terms; const = a.const +. b.const }

let scale k e =
  if k = 0.0 then zero
  else { terms = Imap.map (fun c -> k *. c) e.terms; const = k *. e.const }

let neg e = scale (-1.0) e
let sub a b = add a (neg b)

(* One pass instead of a [Map.union] per operand: every term, stably
   sorted by variable, then each variable's coefficients added left to
   right — the additions folding [add] over [es] performs, in its
   order, so every coefficient comes out bit-identical (a partial sum
   that hits zero and restarts from the next term gives the same
   float). *)
let sum es =
  let const = List.fold_left (fun acc e -> acc +. e.const) 0.0 es in
  let terms = List.concat_map (fun e -> Imap.bindings e.terms) es in
  let rec ascending = function
    | (a, _) :: ((b, _) :: _ as rest) -> a < b && ascending rest
    | _ -> true
  in
  let sorted =
    if ascending terms then terms
    else List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) terms
  in
  let rec fold acc = function
    | [] -> acc
    | (i, c) :: rest ->
        let rec total c = function
          | (j, c') :: rest when j = i -> total (c +. c') rest
          | rest -> (c, rest)
        in
        let c, rest = total c rest in
        fold (if c = 0.0 then acc else Imap.add i c acc) rest
  in
  { terms = fold Imap.empty sorted; const }

let add_term e i c =
  if c = 0.0 then e
  else
    {
      e with
      terms =
        Imap.update i
          (function
            | None -> Some c
            | Some c0 -> let c' = c0 +. c in if c' = 0.0 then None else Some c')
          e.terms;
    }

let constant e = e.const
let coeff e i = match Imap.find_opt i e.terms with None -> 0.0 | Some c -> c
let terms e = Imap.bindings (prune e.terms)
let num_terms e = Imap.cardinal (prune e.terms)

let map_vars f e =
  let terms =
    Imap.fold (fun i c acc -> merge acc (Imap.singleton (f i) c)) e.terms Imap.empty
  in
  { e with terms }

let eval assign e =
  Imap.fold (fun i c acc -> acc +. (c *. assign i)) e.terms e.const

let pp name fmt e =
  let first = ref true in
  let emit s = Format.fprintf fmt "%s%s" (if !first then "" else " ") s; first := false in
  Imap.iter
    (fun i c ->
      let sgn = if c >= 0.0 then (if !first then "" else "+ ") else "- " in
      let a = Float.abs c in
      if a = 1.0 then emit (Printf.sprintf "%s%s" sgn (name i))
      else emit (Printf.sprintf "%s%g %s" sgn a (name i)))
    (prune e.terms);
  if e.const <> 0.0 || !first then
    emit
      (if e.const >= 0.0 && not !first then Printf.sprintf "+ %g" e.const
       else Printf.sprintf "%g" e.const)
