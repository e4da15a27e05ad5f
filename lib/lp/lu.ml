(* Sparse LU with Markowitz pivoting, product-form eta updates, and
   hypersparse triangular solves.

   The factorization records the elimination steps themselves rather
   than assembling explicit L/U matrices: step k pivots on (perm_row.(k),
   perm_col.(k)) with diagonal udiag.(k); lrow_* holds the column of
   multipliers below the pivot, urow_* the pivot row's trailing entries
   (by basis position). ucol_* is a column-wise copy of U built after
   elimination so btran can substitute through U^T.

   The solve kernels come in two flavours. The dense sweeps touch all m
   positions per triangular pass. The hypersparse path (Hall &
   McKinnon-style, default) first runs a symbolic reachability pass
   over the elimination-step dependency graph to predict the result
   pattern, then a numeric pass over predicted nonzeros only. Because
   rows and basis positions are in bijection with elimination steps
   (row_to_step / pos_to_step), every pass reduces to a DFS over steps:

     - ftran L   (forward):  step k feeds the rows in lrow_i.(k),
                             i.e. steps row_to_step.(lrow_i.(k).(s)) > k
     - ftran U   (backward): position perm_col.(j) is read by the steps
                             in ucol_k.(perm_col.(j)), all < j
     - btran U^T (forward):  step j feeds the steps of urow_c.(j), > j
     - btran L^T (backward): row perm_row.(j) is read by the steps in
                             ltrans.(perm_row.(j)), all < j

   The reach set is sorted by step index (the topological order of all
   four passes) and aborted past a density cap, falling back to the
   dense sweep — so worst-case cost matches the dense kernel up to the
   aborted symbolic scan. *)

exception Singular

type kernel = Auto | Sparse | Dense

(* Below this basis dimension [Auto] never attempts a symbolic pass:
   a dense triangular sweep over a few thousand entries is cheap
   enough that the DFS + sort overhead is a net loss. Measured on Gen
   instances (serial LP time, forced kernels): m=1332 sparse is ~3%
   faster, m=2296 ~10% faster, while every Table-3 basis (m <= 1651)
   is 5-20% slower sparse. *)
let auto_floor = 2048

type eta = { pos : int; idx : int array; vals : float array; piv : float }

type t = {
  m : int;
  kernel : kernel;
  perm_row : int array;
  perm_col : int array;
  lrow_i : int array array;
  lrow_v : float array array;
  udiag : float array;
  urow_c : int array array;
  urow_v : float array array;
  ucol_k : int array array;
  ucol_v : float array array;
  row_to_step : int array; (* inverse of perm_row *)
  pos_to_step : int array; (* inverse of perm_col *)
  ltrans : int array array; (* row i -> steps k with i in lrow_i.(k) *)
  fill : int;
  bnnz : int;
  mutable etas : eta array;
  mutable neta : int;
  mutable ennz : int;
  mutable sparse_solves : int;
  mutable dense_fallbacks : int;
  work : float array; (* all-zero between solves *)
  work2 : float array; (* all-zero between solves *)
  smark : int array; (* step marks for symbolic DFS, stamped *)
  pmark : int array; (* row/position marks for pattern growth, stamped *)
  reach1 : int array;
  reach2 : int array;
  dstack : int array;
  plist : int array; (* btran operand pattern scratch *)
  mutable stamp : int;
  mutable sym_aborts : int; (* consecutive reach-cap aborts *)
  mutable sym_cooldown : int; (* sparse attempts to skip after a streak *)
  sv_src : Svec.t; (* scratch for the dense entry points *)
  sv_dst : Svec.t;
  sv_unit : Svec.t;
}

let rel_tol = 0.01 (* threshold pivoting: accept within 1/100 of column max *)
let abs_tol = 1e-11
let eta_drop = 1e-13

let dummy_eta = { pos = 0; idx = [||]; vals = [||]; piv = 1.0 }

let factor ?(kernel = Auto) ~m coliter =
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
    let n = ref 0 in
    coliter j (fun _ _ -> incr n);
    let cr = Array.make (max 4 (2 * !n)) 0 in
    let cv = Array.make (max 4 (2 * !n)) 0.0 in
    let w = ref 0 in
    coliter j (fun i v ->
        cr.(!w) <- i;
        cv.(!w) <- v;
        incr w);
    crow.(j) <- cr;
    cval.(j) <- cv;
    clen.(j) <- !n;
    bnnz := !bnnz + !n;
    for s = 0 to !n - 1 do
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
  (* step bijections + row-wise transpose of L for the hypersparse
     symbolic passes *)
  let row_to_step = Array.make m 0 and pos_to_step = Array.make m 0 in
  for k = 0 to m - 1 do
    row_to_step.(perm_row.(k)) <- k;
    pos_to_step.(perm_col.(k)) <- k
  done;
  let lcnt = Array.make m 0 in
  for k = 0 to m - 1 do
    Array.iter (fun i -> lcnt.(i) <- lcnt.(i) + 1) lrow_i.(k)
  done;
  let ltrans = Array.init m (fun i -> Array.make lcnt.(i) 0) in
  let lf = Array.make m 0 in
  for k = 0 to m - 1 do
    Array.iter
      (fun i ->
        ltrans.(i).(lf.(i)) <- k;
        lf.(i) <- lf.(i) + 1)
      lrow_i.(k)
  done;
  {
    m;
    kernel;
    perm_row;
    perm_col;
    lrow_i;
    lrow_v;
    udiag;
    urow_c;
    urow_v;
    ucol_k;
    ucol_v;
    row_to_step;
    pos_to_step;
    ltrans;
    fill = !fill;
    bnnz = !bnnz;
    etas = Array.make 16 dummy_eta;
    neta = 0;
    ennz = 0;
    sparse_solves = 0;
    dense_fallbacks = 0;
    work = Array.make m 0.0;
    work2 = Array.make m 0.0;
    smark = Array.make m (-1);
    pmark = Array.make m (-1);
    reach1 = Array.make m 0;
    reach2 = Array.make m 0;
    dstack = Array.make m 0;
    plist = Array.make m 0;
    stamp = 0;
    sym_aborts = 0;
    sym_cooldown = 0;
    sv_src = Svec.create m;
    sv_dst = Svec.create m;
    sv_unit = Svec.create m;
  }

(* ---- shared dense passes ---- *)

(* forward L sweep on t.work in place *)
let l_pass_dense t =
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
let u_pass_dense t dstv =
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
let eta_pass_ftran_dense t dstv =
  for e = 0 to t.neta - 1 do
    let eta = t.etas.(e) in
    let xt = dstv.(eta.pos) /. eta.piv in
    if xt <> 0.0 then
      for s = 0 to Array.length eta.idx - 1 do
        dstv.(eta.idx.(s)) <- dstv.(eta.idx.(s)) -. (eta.vals.(s) *. xt)
      done;
    dstv.(eta.pos) <- xt
  done

(* reverse eta sweep on a position-indexed vector in place *)
let eta_pass_btran_dense t c =
  for e = t.neta - 1 downto 0 do
    let eta = t.etas.(e) in
    let acc = ref c.(eta.pos) in
    for s = 0 to Array.length eta.idx - 1 do
      acc := !acc -. (eta.vals.(s) *. c.(eta.idx.(s)))
    done;
    c.(eta.pos) <- !acc /. eta.piv
  done

(* forward U^T sweep: reads the position-indexed c, writes every row of z *)
let ut_pass_dense t c z =
  for k = 0 to t.m - 1 do
    let q = t.perm_col.(k) in
    let acc = ref c.(q) in
    let uk = t.ucol_k.(q) and uv = t.ucol_v.(q) in
    for s = 0 to Array.length uk - 1 do
      acc := !acc -. (uv.(s) *. z.(t.perm_row.(uk.(s))))
    done;
    z.(t.perm_row.(k)) <- !acc /. t.udiag.(k)
  done

(* backward L^T sweep on the row-indexed z in place *)
let lt_pass_dense t z =
  for k = t.m - 1 downto 0 do
    let li = t.lrow_i.(k) and lv = t.lrow_v.(k) in
    let p = t.perm_row.(k) in
    let acc = ref z.(p) in
    for s = 0 to Array.length li - 1 do
      acc := !acc -. (lv.(s) *. z.(li.(s)))
    done;
    z.(p) <- !acc
  done

(* ---- hypersparse machinery ---- *)

let next_stamp t =
  t.stamp <- t.stamp + 1;
  t.stamp

(* attempt the symbolic pass only on operands sparser than ~m/32 (the
   regime where skipping the dense sweep beats the DFS overhead — the
   A/B on Gen instances put break-even between m/32 and m/16); abort
   it (and sweep densely) once the predicted pattern passes ~m/4 *)
let density_gate m nnz = nnz >= 0 && nnz <= (m lsr 5) + 4
let reach_cap m = (m lsr 2) + 16

(* reach-cap hysteresis: an aborted symbolic pass is pure overhead on
   top of the dense sweep it falls back to, and abort streaks are
   strongly clustered (the basis has gone dense for this stretch of
   the solve). After [abort_streak] consecutive aborts, skip the
   symbolic attempt for the next [cooldown] solves, then probe again.
   Kernel-path choice never affects results: fallback and sparse
   produce bit-identical values either way. *)
let abort_streak = 4
let cooldown = 32

let sym_allowed t =
  if t.sym_cooldown > 0 then begin
    t.sym_cooldown <- t.sym_cooldown - 1;
    false
  end
  else true

let note_abort t =
  t.sym_aborts <- t.sym_aborts + 1;
  if t.sym_aborts >= abort_streak then begin
    t.sym_aborts <- 0;
    t.sym_cooldown <- cooldown
  end

let note_sparse t = t.sym_aborts <- 0

(* in-place ascending shell sort of a.(0 .. n-1): reach sets are sorted
   by elimination step, which is the topological order of every pass *)
let sort_prefix a n =
  let gap = ref 1 in
  while !gap < n / 3 do
    gap := (3 * !gap) + 1
  done;
  while !gap >= 1 do
    for i = !gap to n - 1 do
      let v = a.(i) in
      let j = ref i in
      while !j >= !gap && a.(!j - !gap) > v do
        a.(!j) <- a.(!j - !gap);
        j := !j - !gap
      done;
      a.(!j) <- v
    done;
    gap := !gap / 3
  done

(* forward eta sweep that only fires etas whose pivot position is
   nonzero in the operand, growing dst's pattern with the fill *)
let eta_pass_ftran_sparse t (dst : Svec.t) =
  if t.neta > 0 then begin
    let stamp = next_stamp t in
    let pm = t.pmark in
    let dv = dst.Svec.vals and di = dst.Svec.idx in
    for s = 0 to dst.Svec.nnz - 1 do
      pm.(di.(s)) <- stamp
    done;
    for e = 0 to t.neta - 1 do
      let eta = t.etas.(e) in
      let x0 = dv.(eta.pos) in
      if x0 <> 0.0 then begin
        let xt = x0 /. eta.piv in
        for s = 0 to Array.length eta.idx - 1 do
          let i = eta.idx.(s) in
          dv.(i) <- dv.(i) -. (eta.vals.(s) *. xt);
          if pm.(i) <> stamp then begin
            pm.(i) <- stamp;
            di.(dst.Svec.nnz) <- i;
            dst.Svec.nnz <- dst.Svec.nnz + 1
          end
        done;
        dv.(eta.pos) <- xt
      end
    done
  end

(* dense ftran into an svec: blit, sweep, mark dense, restore scratch *)
let ftran_sv_dense t ~(src : Svec.t) ~(dst : Svec.t) =
  Array.blit src.Svec.vals 0 t.work 0 t.m;
  l_pass_dense t;
  u_pass_dense t dst.Svec.vals;
  eta_pass_ftran_dense t dst.Svec.vals;
  Svec.set_dense dst;
  Array.fill t.work 0 t.m 0.0;
  t.dense_fallbacks <- t.dense_fallbacks + 1

let ftran_sv t ~(src : Svec.t) ~(dst : Svec.t) =
  Svec.clear dst;
  let m = t.m in
  if
    t.kernel = Dense
    || (t.kernel = Auto && m < auto_floor)
    || (not (density_gate m src.Svec.nnz))
    || not (sym_allowed t)
  then ftran_sv_dense t ~src ~dst
  else begin
    let cap = reach_cap m in
    let smark = t.smark and stack = t.dstack in
    (* symbolic L: reach1 = steps whose pivot row can go nonzero *)
    let stamp = next_stamp t in
    let sp = ref 0 in
    for s = 0 to src.Svec.nnz - 1 do
      let k = t.row_to_step.(src.Svec.idx.(s)) in
      if smark.(k) <> stamp then begin
        smark.(k) <- stamp;
        stack.(!sp) <- k;
        incr sp
      end
    done;
    let n1 = ref 0 and ok = ref true in
    while !ok && !sp > 0 do
      decr sp;
      let k = stack.(!sp) in
      if !n1 >= cap then ok := false
      else begin
        t.reach1.(!n1) <- k;
        incr n1;
        let li = t.lrow_i.(k) in
        for s = 0 to Array.length li - 1 do
          let k2 = t.row_to_step.(li.(s)) in
          if smark.(k2) <> stamp then begin
            smark.(k2) <- stamp;
            stack.(!sp) <- k2;
            incr sp
          end
        done
      end
    done;
    if !ok then begin
      (* symbolic U: seeded with reach1 (the pattern of the L result),
         following ucol edges back to earlier steps *)
      let stamp = next_stamp t in
      sp := 0;
      for s = 0 to !n1 - 1 do
        let k = t.reach1.(s) in
        smark.(k) <- stamp;
        stack.(s) <- k
      done;
      sp := !n1;
      let n2 = ref 0 in
      while !ok && !sp > 0 do
        decr sp;
        let k = stack.(!sp) in
        if !n2 >= cap then ok := false
        else begin
          t.reach2.(!n2) <- k;
          incr n2;
          let uk = t.ucol_k.(t.perm_col.(k)) in
          for s = 0 to Array.length uk - 1 do
            let k2 = uk.(s) in
            if smark.(k2) <> stamp then begin
              smark.(k2) <- stamp;
              stack.(!sp) <- k2;
              incr sp
            end
          done
        end
      done;
      if !ok then begin
        let n1 = !n1 and n2 = !n2 in
        sort_prefix t.reach1 n1;
        sort_prefix t.reach2 n2;
        (* numeric L, ascending steps, on predicted nonzeros only *)
        let w = t.work in
        for s = 0 to src.Svec.nnz - 1 do
          let i = src.Svec.idx.(s) in
          w.(i) <- src.Svec.vals.(i)
        done;
        for s = 0 to n1 - 1 do
          let k = t.reach1.(s) in
          let bp = w.(t.perm_row.(k)) in
          if bp <> 0.0 then begin
            let li = t.lrow_i.(k) and lv = t.lrow_v.(k) in
            for s2 = 0 to Array.length li - 1 do
              w.(li.(s2)) <- w.(li.(s2)) -. (lv.(s2) *. bp)
            done
          end
        done;
        (* numeric U, descending steps; dst's dense backing is all
           zeros so unreached positions read as exact zeros *)
        let dv = dst.Svec.vals in
        for s = n2 - 1 downto 0 do
          let k = t.reach2.(s) in
          let cs = t.urow_c.(k) and vs = t.urow_v.(k) in
          let acc = ref w.(t.perm_row.(k)) in
          for s2 = 0 to Array.length cs - 1 do
            acc := !acc -. (vs.(s2) *. dv.(cs.(s2)))
          done;
          dv.(t.perm_col.(k)) <- !acc /. t.udiag.(k)
        done;
        for s = 0 to n2 - 1 do
          dst.Svec.idx.(s) <- t.perm_col.(t.reach2.(s))
        done;
        dst.Svec.nnz <- n2;
        (* restore the scratch invariant: reach1 covers every row the
           L pass may have touched *)
        for s = 0 to n1 - 1 do
          w.(t.perm_row.(t.reach1.(s))) <- 0.0
        done;
        eta_pass_ftran_sparse t dst;
        (* ascending pattern order: consumers (ratio test, pricing)
           break ties by scan order, so the packed iteration must
           visit indices exactly as the dense sweep would *)
        sort_prefix dst.Svec.idx dst.Svec.nnz;
        note_sparse t;
        t.sparse_solves <- t.sparse_solves + 1
      end
      else begin
        note_abort t;
        ftran_sv_dense t ~src ~dst
      end
    end
    else begin
      note_abort t;
      ftran_sv_dense t ~src ~dst
    end
  end

(* dense btran into an svec *)
let btran_sv_dense t ~(src : Svec.t) ~(dst : Svec.t) =
  Array.blit src.Svec.vals 0 t.work 0 t.m;
  eta_pass_btran_dense t t.work;
  ut_pass_dense t t.work t.work2;
  lt_pass_dense t t.work2;
  Array.blit t.work2 0 dst.Svec.vals 0 t.m;
  Svec.set_dense dst;
  Array.fill t.work 0 t.m 0.0;
  Array.fill t.work2 0 t.m 0.0;
  t.dense_fallbacks <- t.dense_fallbacks + 1

(* finish a btran densely from the post-eta operand already scattered
   into t.work with pattern t.plist.(0 .. np-1) *)
let btran_dense_tail t ~(dst : Svec.t) np =
  ut_pass_dense t t.work t.work2;
  lt_pass_dense t t.work2;
  Array.blit t.work2 0 dst.Svec.vals 0 t.m;
  Svec.set_dense dst;
  for s = 0 to np - 1 do
    t.work.(t.plist.(s)) <- 0.0
  done;
  Array.fill t.work2 0 t.m 0.0;
  t.dense_fallbacks <- t.dense_fallbacks + 1

let btran_sv t ~(src : Svec.t) ~(dst : Svec.t) =
  Svec.clear dst;
  let m = t.m in
  if
    t.kernel = Dense
    || (t.kernel = Auto && m < auto_floor)
    || (not (density_gate m src.Svec.nnz))
    || not (sym_allowed t)
  then btran_sv_dense t ~src ~dst
  else begin
    (* reverse eta sweep, numeric over the whole file (same cost as the
       dense sweep) but tracking the operand pattern as it grows *)
    let c = t.work and pl = t.plist and pm = t.pmark in
    let stamp = next_stamp t in
    let np = ref 0 in
    for s = 0 to src.Svec.nnz - 1 do
      let q = src.Svec.idx.(s) in
      c.(q) <- src.Svec.vals.(q);
      pm.(q) <- stamp;
      pl.(!np) <- q;
      incr np
    done;
    for e = t.neta - 1 downto 0 do
      let eta = t.etas.(e) in
      let acc = ref c.(eta.pos) in
      for s = 0 to Array.length eta.idx - 1 do
        acc := !acc -. (eta.vals.(s) *. c.(eta.idx.(s)))
      done;
      let v = !acc /. eta.piv in
      c.(eta.pos) <- v;
      if v <> 0.0 && pm.(eta.pos) <> stamp then begin
        pm.(eta.pos) <- stamp;
        pl.(!np) <- eta.pos;
        incr np
      end
    done;
    let np = !np in
    let cap = reach_cap m in
    let smark = t.smark and stack = t.dstack in
    (* symbolic U^T: seeds are the steps of the operand's positions,
       edges follow the pivot row forward to later steps *)
    let stamp = next_stamp t in
    let sp = ref 0 in
    for s = 0 to np - 1 do
      let k = t.pos_to_step.(pl.(s)) in
      if smark.(k) <> stamp then begin
        smark.(k) <- stamp;
        stack.(!sp) <- k;
        incr sp
      end
    done;
    let n1 = ref 0 and ok = ref true in
    while !ok && !sp > 0 do
      decr sp;
      let k = stack.(!sp) in
      if !n1 >= cap then ok := false
      else begin
        t.reach1.(!n1) <- k;
        incr n1;
        let cs = t.urow_c.(k) in
        for s = 0 to Array.length cs - 1 do
          let k2 = t.pos_to_step.(cs.(s)) in
          if smark.(k2) <> stamp then begin
            smark.(k2) <- stamp;
            stack.(!sp) <- k2;
            incr sp
          end
        done
      end
    done;
    if !ok then begin
      let n1 = !n1 in
      sort_prefix t.reach1 n1;
      (* numeric U^T, ascending steps; z's unreached rows are zero *)
      let z = t.work2 in
      for s = 0 to n1 - 1 do
        let k = t.reach1.(s) in
        let q = t.perm_col.(k) in
        let acc = ref c.(q) in
        let uk = t.ucol_k.(q) and uv = t.ucol_v.(q) in
        for s2 = 0 to Array.length uk - 1 do
          acc := !acc -. (uv.(s2) *. z.(t.perm_row.(uk.(s2))))
        done;
        z.(t.perm_row.(k)) <- !acc /. t.udiag.(k)
      done;
      (* symbolic L^T: seeded with reach1, following ltrans back to
         earlier steps *)
      let stamp = next_stamp t in
      sp := 0;
      for s = 0 to n1 - 1 do
        let k = t.reach1.(s) in
        smark.(k) <- stamp;
        stack.(s) <- k
      done;
      sp := n1;
      let n2 = ref 0 in
      while !ok && !sp > 0 do
        decr sp;
        let k = stack.(!sp) in
        if !n2 >= cap then ok := false
        else begin
          t.reach2.(!n2) <- k;
          incr n2;
          let lt = t.ltrans.(t.perm_row.(k)) in
          for s = 0 to Array.length lt - 1 do
            let k2 = lt.(s) in
            if smark.(k2) <> stamp then begin
              smark.(k2) <- stamp;
              stack.(!sp) <- k2;
              incr sp
            end
          done
        end
      done;
      if !ok then begin
        let n2 = !n2 in
        sort_prefix t.reach2 n2;
        (* numeric L^T, descending steps *)
        for s = n2 - 1 downto 0 do
          let k = t.reach2.(s) in
          let li = t.lrow_i.(k) and lv = t.lrow_v.(k) in
          let p = t.perm_row.(k) in
          let acc = ref z.(p) in
          for s2 = 0 to Array.length li - 1 do
            acc := !acc -. (lv.(s2) *. z.(li.(s2)))
          done;
          z.(p) <- !acc
        done;
        (* gather: reach2 contains reach1, so this also restores z *)
        for s = 0 to n2 - 1 do
          let i = t.perm_row.(t.reach2.(s)) in
          dst.Svec.idx.(s) <- i;
          dst.Svec.vals.(i) <- z.(i);
          z.(i) <- 0.0
        done;
        dst.Svec.nnz <- n2;
        (* ascending pattern order — see ftran_sv *)
        sort_prefix dst.Svec.idx n2;
        note_sparse t;
        for s = 0 to np - 1 do
          c.(pl.(s)) <- 0.0
        done;
        t.sparse_solves <- t.sparse_solves + 1
      end
      else begin
        (* L^T reach too dense: the U^T result in z is complete (its
           unreached rows are true zeros), so a dense backward sweep
           finishes it correctly *)
        note_abort t;
        lt_pass_dense t z;
        Array.blit z 0 dst.Svec.vals 0 t.m;
        Svec.set_dense dst;
        Array.fill z 0 t.m 0.0;
        for s = 0 to np - 1 do
          c.(pl.(s)) <- 0.0
        done;
        t.dense_fallbacks <- t.dense_fallbacks + 1
      end
    end
    else begin
      note_abort t;
      btran_dense_tail t ~dst np
    end
  end

let btran_unit_sv t ~pos ~(dst : Svec.t) =
  Svec.clear t.sv_unit;
  Svec.set t.sv_unit pos 1.0;
  btran_sv t ~src:t.sv_unit ~dst

(* ---- dense entry points: thin adapters over the svec kernels ---- *)

let ftran t ~src ~dst =
  Svec.of_dense t.sv_src src;
  ftran_sv t ~src:t.sv_src ~dst:t.sv_dst;
  Svec.to_dense t.sv_dst dst

let btran t ~src ~dst =
  Svec.of_dense t.sv_src src;
  btran_sv t ~src:t.sv_src ~dst:t.sv_dst;
  Svec.to_dense t.sv_dst dst

(* Row [pos] of the basis inverse: B^-T e_pos. Dual Devex pricing uses
   the squared norm of this row as the exact reference weight of the
   leaving row, so the solver can detect approximation drift. *)
let btran_unit t ~pos ~dst =
  btran_unit_sv t ~pos ~dst:t.sv_dst;
  Svec.to_dense t.sv_dst dst

let update t ~pos ~alpha =
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

let update_sv t ~pos ~(alpha : Svec.t) =
  if alpha.Svec.nnz < 0 then update t ~pos ~alpha:alpha.Svec.vals
  else begin
    let piv = alpha.Svec.vals.(pos) in
    if Float.abs piv < abs_tol then raise Singular;
    let n = ref 0 in
    for s = 0 to alpha.Svec.nnz - 1 do
      let i = alpha.Svec.idx.(s) in
      if i <> pos && Float.abs alpha.Svec.vals.(i) > eta_drop then incr n
    done;
    let idx = Array.make !n 0 and vals = Array.make !n 0.0 in
    let w = ref 0 in
    for s = 0 to alpha.Svec.nnz - 1 do
      let i = alpha.Svec.idx.(s) in
      if i <> pos && Float.abs alpha.Svec.vals.(i) > eta_drop then begin
        idx.(!w) <- i;
        vals.(!w) <- alpha.Svec.vals.(i);
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
  end

let eta_count t = t.neta
let eta_nnz t = t.ennz
let fill_nnz t = t.fill
let basis_nnz t = t.bnnz
let kernel t = t.kernel
let sparse_solves t = t.sparse_solves
let dense_fallbacks t = t.dense_fallbacks
