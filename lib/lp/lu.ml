(* Sparse LU with Markowitz pivoting and product-form eta updates.

   The factorization records the elimination steps themselves rather
   than assembling explicit L/U matrices: step k pivots on (perm_row.(k),
   perm_col.(k)) with diagonal udiag.(k); lrow_* holds the column of
   multipliers below the pivot, urow_* the pivot row's trailing entries
   (by basis position). ucol_* is a column-wise copy of U built after
   elimination so btran can substitute through U^T.

   Every solve is a dense sweep over all m steps: ftran runs L forward,
   U backward, then the eta file forward; btran runs the eta file in
   reverse, U^T forward, then L^T backward. DESIGN.md §15 records why
   there is no hypersparse (symbolic reachability) path. *)

exception Singular

type eta = { pos : int; idx : int array; vals : float array; piv : float }

type t = {
  m : int;
  perm_row : int array;
  perm_col : int array;
  lrow_i : int array array;
  lrow_v : float array array;
  udiag : float array;
  urow_c : int array array;
  urow_v : float array array;
  ucol_k : int array array;
  ucol_v : float array array;
  fill : int;
  bnnz : int;
  mutable etas : eta array;
  mutable neta : int;
  mutable ennz : int;
  work : float array; (* row-indexed (ftran) / pos-indexed (btran) scratch *)
}

let rel_tol = 0.01 (* threshold pivoting: accept within 1/100 of column max *)
let abs_tol = 1e-11
let eta_drop = 1e-13

let dummy_eta = { pos = 0; idx = [||]; vals = [||]; piv = 1.0 }

let factor ~m col =
  (* Working matrix, column-wise with exact entries; rows keep an
     adjacency list that may contain stale (deactivated) columns. *)
  let crow = Array.make m [||] and cval = Array.make m [||] in
  let clen = Array.make m 0 in
  let rcnt = Array.make m 0 in
  let rcols = Array.make m [||] in
  let rlen = Array.make m 0 in
  let col_active = Array.make m true and row_active = Array.make m true in
  let bnnz = ref 0 in
  for j = 0 to m - 1 do
    let idx, v = col j in
    let n = Array.length idx in
    if Array.length v <> n then
      invalid_arg "Lu.factor: column index/value mismatch";
    let cr = Array.make (max 4 (2 * n)) 0 in
    let cv = Array.make (max 4 (2 * n)) 0.0 in
    Array.blit idx 0 cr 0 n;
    Array.blit v 0 cv 0 n;
    crow.(j) <- cr;
    cval.(j) <- cv;
    clen.(j) <- n;
    bnnz := !bnnz + n;
    for s = 0 to n - 1 do
      rcnt.(cr.(s)) <- rcnt.(cr.(s)) + 1
    done
  done;
  for i = 0 to m - 1 do
    rcols.(i) <- Array.make (max 4 rcnt.(i)) 0
  done;
  for j = 0 to m - 1 do
    for s = 0 to clen.(j) - 1 do
      let i = crow.(j).(s) in
      rcols.(i).(rlen.(i)) <- j;
      rlen.(i) <- rlen.(i) + 1
    done
  done;
  let push_rcol i c =
    if rlen.(i) = Array.length rcols.(i) then begin
      let b = Array.make (max 8 (2 * rlen.(i))) 0 in
      Array.blit rcols.(i) 0 b 0 rlen.(i);
      rcols.(i) <- b
    end;
    rcols.(i).(rlen.(i)) <- c;
    rlen.(i) <- rlen.(i) + 1
  in
  let push_col c i v =
    if clen.(c) = Array.length crow.(c) then begin
      let br = Array.make (max 8 (2 * clen.(c))) 0 in
      let bv = Array.make (max 8 (2 * clen.(c))) 0.0 in
      Array.blit crow.(c) 0 br 0 clen.(c);
      Array.blit cval.(c) 0 bv 0 clen.(c);
      crow.(c) <- br;
      cval.(c) <- bv
    end;
    crow.(c).(clen.(c)) <- i;
    cval.(c).(clen.(c)) <- v;
    clen.(c) <- clen.(c) + 1
  in
  let compact_rcols i =
    let keep = ref 0 in
    for s = 0 to rlen.(i) - 1 do
      let c = rcols.(i).(s) in
      if col_active.(c) then begin
        rcols.(i).(!keep) <- c;
        incr keep
      end
    done;
    rlen.(i) <- !keep
  in
  let col_sing = ref [] and row_sing = ref [] in
  for j = 0 to m - 1 do
    if clen.(j) = 1 then col_sing := j :: !col_sing
  done;
  for i = 0 to m - 1 do
    if rcnt.(i) = 1 then row_sing := i :: !row_sing
  done;
  let perm_row = Array.make m (-1) and perm_col = Array.make m (-1) in
  let lrow_i = Array.make m [||] and lrow_v = Array.make m [||] in
  let urow_c = Array.make m [||] and urow_v = Array.make m [||] in
  let udiag = Array.make m 0.0 in
  let mult = Array.make m 0.0 in
  let mstamp = Array.make m (-1) in
  let seen = Array.make m (-1) in
  let seen_ctr = ref 0 in
  let fill = ref 0 in
  for k = 0 to m - 1 do
    (* ---- pivot selection ---- *)
    let p = ref (-1) and q = ref (-1) in
    let rec pop_col_sing () =
      match !col_sing with
      | [] -> ()
      | j :: rest ->
          col_sing := rest;
          if col_active.(j) && clen.(j) = 1 then begin
            p := crow.(j).(0);
            q := j
          end
          else pop_col_sing ()
    in
    pop_col_sing ();
    if !p < 0 then begin
      let rec pop_row_sing () =
        match !row_sing with
        | [] -> ()
        | i :: rest ->
            row_sing := rest;
            if row_active.(i) && rcnt.(i) = 1 then begin
              compact_rcols i;
              if rlen.(i) = 1 then begin
                (* threshold check against the pivot column's magnitude *)
                let c = rcols.(i).(0) in
                let v = ref 0.0 and cmx = ref 0.0 in
                for s = 0 to clen.(c) - 1 do
                  let a = Float.abs cval.(c).(s) in
                  if a > !cmx then cmx := a;
                  if crow.(c).(s) = i then v := cval.(c).(s)
                done;
                if Float.abs !v >= rel_tol *. !cmx && Float.abs !v >= abs_tol
                then begin
                  p := i;
                  q := c
                end
                else pop_row_sing ()
              end
              else pop_row_sing ()
            end
            else pop_row_sing ()
      in
      pop_row_sing ()
    end;
    if !p < 0 then begin
      (* Markowitz scan over the remaining bump *)
      let best_mc = ref max_int and best_v = ref 0.0 in
      for j = 0 to m - 1 do
        if col_active.(j) then begin
          let len = clen.(j) in
          let cmx = ref 0.0 in
          for s = 0 to len - 1 do
            let a = Float.abs cval.(j).(s) in
            if a > !cmx then cmx := a
          done;
          if !cmx >= abs_tol then begin
            let thresh = rel_tol *. !cmx in
            for s = 0 to len - 1 do
              let a = Float.abs cval.(j).(s) in
              if a >= thresh && a >= abs_tol then begin
                let i = crow.(j).(s) in
                let mc = (rcnt.(i) - 1) * (len - 1) in
                if mc < !best_mc || (mc = !best_mc && a > !best_v) then begin
                  best_mc := mc;
                  best_v := a;
                  p := i;
                  q := j
                end
              end
            done
          end
        end
      done;
      if !p < 0 then raise Singular
    end;
    let p = !p and q = !q in
    perm_row.(k) <- p;
    perm_col.(k) <- q;
    (* ---- eliminate ---- *)
    let d = ref 0.0 in
    let nl = ref 0 in
    for s = 0 to clen.(q) - 1 do
      if crow.(q).(s) = p then d := cval.(q).(s) else incr nl
    done;
    if Float.abs !d < abs_tol then raise Singular;
    udiag.(k) <- !d;
    let li = Array.make !nl 0 and lv = Array.make !nl 0.0 in
    let w = ref 0 in
    for s = 0 to clen.(q) - 1 do
      let i = crow.(q).(s) in
      if i <> p then begin
        let mlt = cval.(q).(s) /. !d in
        li.(!w) <- i;
        lv.(!w) <- mlt;
        incr w;
        mult.(i) <- mlt;
        mstamp.(i) <- k;
        rcnt.(i) <- rcnt.(i) - 1;
        if rcnt.(i) = 1 then row_sing := i :: !row_sing
      end
    done;
    lrow_i.(k) <- li;
    lrow_v.(k) <- lv;
    col_active.(q) <- false;
    row_active.(p) <- false;
    (* pivot row: move trailing entries into U, update their columns *)
    let urc = ref [] and nur = ref 0 in
    for s = 0 to rlen.(p) - 1 do
      let c = rcols.(p).(s) in
      if col_active.(c) then begin
        let len = clen.(c) in
        let at = ref (-1) in
        for s2 = 0 to len - 1 do
          if crow.(c).(s2) = p then at := s2
        done;
        if !at >= 0 then begin
          let upv = cval.(c).(!at) in
          crow.(c).(!at) <- crow.(c).(len - 1);
          cval.(c).(!at) <- cval.(c).(len - 1);
          clen.(c) <- len - 1;
          urc := (c, upv) :: !urc;
          incr nur;
          if !nl > 0 && upv <> 0.0 then begin
            incr seen_ctr;
            let sc = !seen_ctr in
            for s2 = 0 to clen.(c) - 1 do
              let i = crow.(c).(s2) in
              if mstamp.(i) = k then begin
                cval.(c).(s2) <- cval.(c).(s2) -. (mult.(i) *. upv);
                seen.(i) <- sc
              end
            done;
            for s2 = 0 to !nl - 1 do
              let i = li.(s2) in
              if seen.(i) <> sc then begin
                push_col c i (-.lv.(s2) *. upv);
                rcnt.(i) <- rcnt.(i) + 1;
                push_rcol i c;
                incr fill
              end
            done
          end;
          if clen.(c) = 1 then col_sing := c :: !col_sing
        end
      end
    done;
    let urc_a = Array.make !nur 0 and urv_a = Array.make !nur 0.0 in
    List.iteri
      (fun s (c, v) ->
        urc_a.(s) <- c;
        urv_a.(s) <- v)
      !urc;
    urow_c.(k) <- urc_a;
    urow_v.(k) <- urv_a
  done;
  (* column-wise copy of U for btran *)
  let ucnt = Array.make m 0 in
  for k = 0 to m - 1 do
    Array.iter (fun c -> ucnt.(c) <- ucnt.(c) + 1) urow_c.(k)
  done;
  let ucol_k = Array.init m (fun c -> Array.make ucnt.(c) 0) in
  let ucol_v = Array.init m (fun c -> Array.make ucnt.(c) 0.0) in
  let uf = Array.make m 0 in
  for k = 0 to m - 1 do
    let cs = urow_c.(k) and vs = urow_v.(k) in
    for s = 0 to Array.length cs - 1 do
      let c = cs.(s) in
      ucol_k.(c).(uf.(c)) <- k;
      ucol_v.(c).(uf.(c)) <- vs.(s);
      uf.(c) <- uf.(c) + 1
    done
  done;
  {
    m;
    perm_row;
    perm_col;
    lrow_i;
    lrow_v;
    udiag;
    urow_c;
    urow_v;
    ucol_k;
    ucol_v;
    fill = !fill;
    bnnz = !bnnz;
    etas = Array.make 16 dummy_eta;
    neta = 0;
    ennz = 0;
    work = Array.make m 0.0;
  }

(* ---- triangular and eta passes ---- *)

(* The passes and [update] index without bounds checks. Every index they
   read comes from [factor]'s own permutations and L/U patterns (built
   from checked arrays), from an eta vector [update] built, or is below
   [t.m]; the entry points check the caller's vector lengths and [pos]
   once per call, so each index stays inside an array of length [t.m]. *)

(* forward L sweep on t.work in place *)
let l_pass t =
  let open Unchecked in
  let w = t.work in
  for k = 0 to t.m - 1 do
    let bp = w.(t.perm_row.(k)) in
    if bp <> 0.0 then begin
      let li = t.lrow_i.(k) and lv = t.lrow_v.(k) in
      for s = 0 to Array.length li - 1 do
        w.(li.(s)) <- w.(li.(s)) -. (lv.(s) *. bp)
      done
    end
  done

(* backward U sweep: reads t.work, writes every position of dstv *)
let u_pass t dstv =
  let open Unchecked in
  let w = t.work in
  for k = t.m - 1 downto 0 do
    let cs = t.urow_c.(k) and vs = t.urow_v.(k) in
    let acc = ref w.(t.perm_row.(k)) in
    for s = 0 to Array.length cs - 1 do
      acc := !acc -. (vs.(s) *. dstv.(cs.(s)))
    done;
    dstv.(t.perm_col.(k)) <- !acc /. t.udiag.(k)
  done

(* forward eta sweep on a position-indexed vector in place *)
let eta_pass_ftran t dstv =
  let open Unchecked in
  for e = 0 to t.neta - 1 do
    let eta = t.etas.(e) in
    let idx = eta.idx and vals = eta.vals in
    let xt = dstv.(eta.pos) /. eta.piv in
    if xt <> 0.0 then
      for s = 0 to Array.length idx - 1 do
        dstv.(idx.(s)) <- dstv.(idx.(s)) -. (vals.(s) *. xt)
      done;
    dstv.(eta.pos) <- xt
  done

(* reverse eta sweep on a position-indexed vector in place *)
let eta_pass_btran t c =
  let open Unchecked in
  for e = t.neta - 1 downto 0 do
    let eta = t.etas.(e) in
    let idx = eta.idx and vals = eta.vals in
    let acc = ref c.(eta.pos) in
    for s = 0 to Array.length idx - 1 do
      acc := !acc -. (vals.(s) *. c.(idx.(s)))
    done;
    c.(eta.pos) <- !acc /. eta.piv
  done

(* forward U^T sweep: reads the position-indexed c, writes every row of z *)
let ut_pass t c z =
  let open Unchecked in
  let perm_row = t.perm_row in
  for k = 0 to t.m - 1 do
    let q = t.perm_col.(k) in
    let acc = ref c.(q) in
    let uk = t.ucol_k.(q) and uv = t.ucol_v.(q) in
    for s = 0 to Array.length uk - 1 do
      acc := !acc -. (uv.(s) *. z.(perm_row.(uk.(s))))
    done;
    z.(perm_row.(k)) <- !acc /. t.udiag.(k)
  done

(* backward L^T sweep on the row-indexed z in place *)
let lt_pass t z =
  let open Unchecked in
  for k = t.m - 1 downto 0 do
    let li = t.lrow_i.(k) and lv = t.lrow_v.(k) in
    let p = t.perm_row.(k) in
    let acc = ref z.(p) in
    for s = 0 to Array.length li - 1 do
      acc := !acc -. (lv.(s) *. z.(li.(s)))
    done;
    z.(p) <- !acc
  done

(* ---- solves ---- *)

let check_vec fn t what a =
  if Array.length a <> t.m then
    invalid_arg
      (Printf.sprintf "Lu.%s: %s has length %d, expected %d" fn what
         (Array.length a) t.m)

let check_pos fn t pos =
  if pos < 0 || pos >= t.m then
    invalid_arg (Printf.sprintf "Lu.%s: pos %d outside 0..%d" fn pos (t.m - 1))

let ftran t ~src ~dst =
  check_vec "ftran" t "src" src;
  check_vec "ftran" t "dst" dst;
  Array.blit src 0 t.work 0 t.m;
  l_pass t;
  u_pass t dst;
  eta_pass_ftran t dst

(* btran of the position-indexed operand already loaded into t.work *)
let btran_work t dst =
  eta_pass_btran t t.work;
  ut_pass t t.work dst;
  lt_pass t dst

let btran t ~src ~dst =
  check_vec "btran" t "src" src;
  check_vec "btran" t "dst" dst;
  Array.blit src 0 t.work 0 t.m;
  btran_work t dst

(* Row [pos] of the basis inverse: B^-T e_pos. Dual Devex pricing uses
   the squared norm of this row as the exact reference weight of the
   leaving row, so the solver can detect approximation drift. *)
let btran_unit t ~pos ~dst =
  check_pos "btran_unit" t pos;
  check_vec "btran_unit" t "dst" dst;
  Array.fill t.work 0 t.m 0.0;
  t.work.(pos) <- 1.0;
  btran_work t dst

let update t ~pos ~alpha =
  check_pos "update" t pos;
  check_vec "update" t "alpha" alpha;
  let open Unchecked in
  let piv = alpha.(pos) in
  if Float.abs piv < abs_tol then raise Singular;
  let n = ref 0 in
  for i = 0 to t.m - 1 do
    if i <> pos && Float.abs alpha.(i) > eta_drop then incr n
  done;
  let idx = Array.make !n 0 and vals = Array.make !n 0.0 in
  let w = ref 0 in
  for i = 0 to t.m - 1 do
    if i <> pos && Float.abs alpha.(i) > eta_drop then begin
      idx.(!w) <- i;
      vals.(!w) <- alpha.(i);
      incr w
    end
  done;
  if t.neta = Array.length t.etas then begin
    let b = Array.make (2 * t.neta) dummy_eta in
    Array.blit t.etas 0 b 0 t.neta;
    t.etas <- b
  end;
  t.etas.(t.neta) <- { pos; idx; vals; piv };
  t.neta <- t.neta + 1;
  t.ennz <- t.ennz + !n + 1

let eta_count t = t.neta
let eta_nnz t = t.ennz
let fill_nnz t = t.fill
let basis_nnz t = t.bnnz
