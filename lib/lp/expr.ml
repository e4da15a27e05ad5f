(* Sorted parallel arrays plus the constant: [idx] strictly ascending,
   [v.(k)] the coefficient of variable [idx.(k)]. [scale] can underflow
   a coefficient to zero; such a zero stays stored (as the map-based
   version kept it) until [terms] or [to_arrays] prunes it. No function
   writes into an array it did not just allocate, so values share
   arrays freely. *)
type t = { idx : int array; v : float array; const : float }

let zero = { idx = [||]; v = [||]; const = 0.0 }
let const c = { zero with const = c }

let var ?(coeff = 1.0) i =
  if i < 0 then invalid_arg "Expr.var: negative index";
  if coeff = 0.0 then zero else { idx = [| i |]; v = [| coeff |]; const = 0.0 }

(* the first [n] entries of [idx]/[v], which the caller just allocated *)
let prefix idx v n const =
  if n = Array.length idx then { idx; v; const }
  else { idx = Array.sub idx 0 n; v = Array.sub v 0 n; const }

(* a union: shared variables add, and a zero sum drops the variable *)
let add a b =
  let const = a.const +. b.const in
  let la = Array.length a.idx and lb = Array.length b.idx in
  if lb = 0 then { a with const }
  else if la = 0 then { b with const }
  else begin
    let idx = Array.make (la + lb) 0 and v = Array.make (la + lb) 0.0 in
    let n = ref 0 and i = ref 0 and j = ref 0 in
    while !i < la || !j < lb do
      let ka = if !i < la then a.idx.(!i) else max_int in
      let kb = if !j < lb then b.idx.(!j) else max_int in
      if ka < kb then begin
        idx.(!n) <- ka;
        v.(!n) <- a.v.(!i);
        incr n;
        incr i
      end
      else if kb < ka then begin
        idx.(!n) <- kb;
        v.(!n) <- b.v.(!j);
        incr n;
        incr j
      end
      else begin
        let c = a.v.(!i) +. b.v.(!j) in
        if c <> 0.0 then begin
          idx.(!n) <- ka;
          v.(!n) <- c;
          incr n
        end;
        incr i;
        incr j
      end
    done;
    prefix idx v !n const
  end

let scale k e =
  if k = 0.0 then zero
  else { idx = e.idx; v = Array.map (fun c -> k *. c) e.v; const = k *. e.const }

let neg e = scale (-1.0) e
let sub a b = add a (neg b)

(* One pass instead of an [add] per operand: every term, stably sorted
   by variable, then each variable's coefficients added left to right —
   the additions folding [add] over [es] performs, in its order, so
   every coefficient comes out bit-identical (a partial sum that hits
   zero and restarts from the next term gives the same float). *)
let sum es =
  let const = List.fold_left (fun acc e -> acc +. e.const) 0.0 es in
  let total = List.fold_left (fun acc e -> acc + Array.length e.idx) 0 es in
  let idx = Array.make total 0 and v = Array.make total 0.0 in
  ignore
    (List.fold_left
       (fun at e ->
         let l = Array.length e.idx in
         (* a single [var], the formulations' usual operand, is cheaper
            copied than passed to [Array.blit] *)
         if l = 1 then begin
           idx.(at) <- e.idx.(0);
           v.(at) <- e.v.(0)
         end
         else begin
           Array.blit e.idx 0 idx at l;
           Array.blit e.v 0 v at l
         end;
         at + l)
       0 es);
  let rec ascending k = k + 1 >= total || (idx.(k) < idx.(k + 1) && ascending (k + 1)) in
  let idx, v =
    if ascending 0 then (idx, v)
    else begin
      let order = Array.init total Fun.id in
      Array.stable_sort (fun a b -> Int.compare idx.(a) idx.(b)) order;
      (Array.map (fun k -> idx.(k)) order, Array.map (fun k -> v.(k)) order)
    end
  in
  (* fold each run of one variable in place: the write position never
     passes the read position *)
  let n = ref 0 and k = ref 0 in
  while !k < total do
    let i = idx.(!k) in
    let c = ref v.(!k) in
    incr k;
    while !k < total && idx.(!k) = i do
      c := !c +. v.(!k);
      incr k
    done;
    if !c <> 0.0 then begin
      idx.(!n) <- i;
      v.(!n) <- !c;
      incr n
    end
  done;
  prefix idx v !n const

let constant e = e.const

let coeff e i =
  let rec search lo hi =
    if lo >= hi then 0.0
    else
      let mid = (lo + hi) / 2 in
      let k = e.idx.(mid) in
      if k = i then e.v.(mid) else if k < i then search (mid + 1) hi else search lo mid
  in
  search 0 (Array.length e.idx)

let num_terms e =
  let n = ref 0 in
  for k = 0 to Array.length e.v - 1 do
    if e.v.(k) <> 0.0 then incr n
  done;
  !n

let to_arrays e =
  let n = num_terms e in
  if n = Array.length e.v then (e.idx, e.v)
  else begin
    let idx = Array.make n 0 and v = Array.make n 0.0 and k = ref 0 in
    Array.iteri
      (fun s c ->
        if c <> 0.0 then begin
          idx.(!k) <- e.idx.(s);
          v.(!k) <- c;
          incr k
        end)
      e.v;
    (idx, v)
  end

let terms e =
  let idx, v = to_arrays e in
  List.init (Array.length idx) (fun k -> (idx.(k), v.(k)))
