(* Free-format MPS. The writer emits one coefficient pair per line; the
   parser accepts the general two-pairs-per-line form as well. *)

let fnum v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.12g" v

let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' -> c
      | _ -> '_')
    name

let to_string (p : Problem.t) =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  if p.Problem.maximize_input then
    add "* maximization input written in minimization normal form\n";
  add "NAME          model\n";
  add "ROWS\n";
  add " N  obj\n";
  let row_name r = sanitize p.Problem.row_names.(r) in
  let kind = Array.make p.Problem.nrows 'L' in
  for r = 0 to p.Problem.nrows - 1 do
    let lo = p.Problem.row_lb.(r) and hi = p.Problem.row_ub.(r) in
    let k =
      if lo = hi then 'E'
      else if Float.is_finite hi then 'L' (* range rows handled via RANGES *)
      else 'G'
    in
    kind.(r) <- k;
    add " %c  %s\n" k (row_name r)
  done;
  add "COLUMNS\n";
  let in_int = ref false in
  let marker_count = ref 0 in
  for j = 0 to p.Problem.ncols - 1 do
    let integral =
      match p.Problem.kind.(j) with
      | Problem.Integer | Problem.Binary -> true
      | Problem.Continuous -> false
    in
    if integral && not !in_int then begin
      add "    MARKER%d  'MARKER'  'INTORG'\n" !marker_count;
      incr marker_count;
      in_int := true
    end
    else if (not integral) && !in_int then begin
      add "    MARKER%d  'MARKER'  'INTEND'\n" !marker_count;
      incr marker_count;
      in_int := false
    end;
    let cn = sanitize p.Problem.col_names.(j) in
    let idx, v = p.Problem.cols.(j) in
    (* a column with no entries at all would vanish on read-back; an
       explicit zero objective coefficient keeps it declared *)
    if p.Problem.obj.(j) <> 0.0 || Array.length idx = 0 then
      add "    %s  obj  %s\n" cn (fnum p.Problem.obj.(j));
    Array.iteri (fun k r -> add "    %s  %s  %s\n" cn (row_name r) (fnum v.(k))) idx
  done;
  if !in_int then add "    MARKER%d  'MARKER'  'INTEND'\n" !marker_count;
  add "RHS\n";
  (* MPS convention: an RHS entry on the objective row is the negated
     constant term *)
  if p.Problem.obj_const <> 0.0 then
    add "    rhs  obj  %s\n" (fnum (-.p.Problem.obj_const));
  for r = 0 to p.Problem.nrows - 1 do
    let rhs =
      match kind.(r) with
      | 'E' | 'L' -> p.Problem.row_ub.(r)
      | _ -> p.Problem.row_lb.(r)
    in
    if rhs <> 0.0 && Float.is_finite rhs then
      add "    rhs  %s  %s\n" (row_name r) (fnum rhs)
  done;
  let has_range =
    List.exists
      (fun r ->
        kind.(r) = 'L'
        && Float.is_finite p.Problem.row_lb.(r)
        && p.Problem.row_lb.(r) <> p.Problem.row_ub.(r))
      (Mm_util.Ints.range p.Problem.nrows)
  in
  if has_range then begin
    add "RANGES\n";
    for r = 0 to p.Problem.nrows - 1 do
      if
        kind.(r) = 'L'
        && Float.is_finite p.Problem.row_lb.(r)
        && p.Problem.row_lb.(r) <> p.Problem.row_ub.(r)
      then
        add "    rng  %s  %s\n" (row_name r)
          (fnum (p.Problem.row_ub.(r) -. p.Problem.row_lb.(r)))
    done
  end;
  add "BOUNDS\n";
  for j = 0 to p.Problem.ncols - 1 do
    let cn = sanitize p.Problem.col_names.(j) in
    let lo = p.Problem.col_lb.(j) and hi = p.Problem.col_ub.(j) in
    if lo = hi then add " FX bnd  %s  %s\n" cn (fnum lo)
    else begin
      (match (Float.is_finite lo, lo = 0.0) with
      | true, false -> add " LO bnd  %s  %s\n" cn (fnum lo)
      | false, _ -> add " MI bnd  %s\n" cn
      | true, true -> ());
      if Float.is_finite hi then add " UP bnd  %s  %s\n" cn (fnum hi)
      else if not (Float.is_finite lo) then add " PL bnd  %s\n" cn
    end
  done;
  add "ENDATA\n";
  Buffer.contents buf

let write p path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string p))

(* ---- parser ----------------------------------------------------------- *)

type prow = { pr_kind : char; mutable pr_rhs : float; mutable pr_range : float option }

let parse text =
  let lines = String.split_on_char '\n' text in
  let section = ref "" in
  let error = ref None in
  let fail lineno fmt =
    Printf.ksprintf
      (fun s -> if !error = None then error := Some (Printf.sprintf "line %d: %s" lineno s))
      fmt
  in
  let rows : (string, prow) Hashtbl.t = Hashtbl.create 64 in
  let row_order = ref [] in
  let obj_row = ref None in
  let model = Model.create ~name:"mps" () in
  let cols : (string, Model.var) Hashtbl.t = Hashtbl.create 64 in
  (* row name -> its COLUMNS entries, last first: one bucket per row,
     so assembly costs O(nnz) *)
  let row_terms : (string, Expr.t list) Hashtbl.t = Hashtbl.create 64 in
  let col_int : (string, bool) Hashtbl.t = Hashtbl.create 64 in
  let col_bounds : (string, float option * float option) Hashtbl.t = Hashtbl.create 64 in
  let col_order = ref [] in
  let in_int = ref false in
  let intvar name =
    if not (Hashtbl.mem cols name) then begin
      Hashtbl.replace cols name (Model.add_var model ~name Problem.Continuous);
      (* placeholder; real kinds/bounds resolved at the end *)
      Hashtbl.replace col_int name !in_int;
      col_order := name :: !col_order
    end
  in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      if !error = None then begin
        let line =
          match String.index_opt line '$' with
          | Some k -> String.sub line 0 k
          | None -> line
        in
        if String.length line > 0 && line.[0] = '*' then ()
        else begin
          let toks =
            String.split_on_char ' ' (String.trim line)
            |> List.concat_map (String.split_on_char '\t')
            |> List.filter (fun t -> t <> "")
          in
          match toks with
          | [] -> ()
          | [ "ENDATA" ] -> section := "ENDATA"
          | section_kw :: rest
            when List.mem section_kw
                   [ "NAME"; "ROWS"; "COLUMNS"; "RHS"; "RANGES"; "BOUNDS"; "OBJSENSE" ]
                 && (String.length line > 0 && line.[0] <> ' ') ->
              ignore rest;
              section := section_kw
          | toks -> (
              match !section with
              | "ROWS" -> (
                  match toks with
                  | [ k; name ] when String.length k = 1 -> (
                      match k.[0] with
                      | 'N' -> if !obj_row = None then obj_row := Some name
                      | ('L' | 'G' | 'E') as kc ->
                          Hashtbl.replace rows name
                            { pr_kind = kc; pr_rhs = 0.0; pr_range = None };
                          row_order := name :: !row_order
                      | _ -> fail lineno "bad row kind %s" k)
                  | _ -> fail lineno "bad ROWS entry")
              | "COLUMNS" -> (
                  match toks with
                  | [ _; "'MARKER'"; "'INTORG'" ] -> in_int := true
                  | [ _; "'MARKER'"; "'INTEND'" ] -> in_int := false
                  | col :: pairs when List.length pairs mod 2 = 0 ->
                      intvar col;
                      let rec eat = function
                        | [] -> ()
                        | rname :: value :: rest -> (
                            match float_of_string_opt value with
                            | None -> fail lineno "bad coefficient %s" value
                            | Some v ->
                                if Some rname = !obj_row then
                                  Model.add_objective_term model
                                    (Expr.var ~coeff:v (Hashtbl.find cols col))
                                else if Hashtbl.mem rows rname then
                                  Hashtbl.replace row_terms rname
                                    (Expr.var ~coeff:v (Hashtbl.find cols col)
                                    :: Option.value ~default:[]
                                         (Hashtbl.find_opt row_terms rname))
                                else fail lineno "unknown row %s" rname;
                                eat rest)
                        | _ -> fail lineno "odd COLUMNS entry"
                      in
                      eat pairs
                  | _ -> fail lineno "bad COLUMNS entry")
              | "RHS" -> (
                  match toks with
                  | _set :: pairs when List.length pairs mod 2 = 0 ->
                      let rec eat = function
                        | [] -> ()
                        | rname :: value :: rest -> (
                            match float_of_string_opt value with
                            | None -> fail lineno "bad rhs %s" value
                            | Some v ->
                                (match Hashtbl.find_opt rows rname with
                                | Some pr -> pr.pr_rhs <- v
                                | None ->
                                    if Some rname = !obj_row then
                                      (* objective-row RHS = negated
                                         constant term *)
                                      Model.add_objective_term model
                                        (Expr.const (-.v))
                                    else fail lineno "unknown row %s" rname);
                                eat rest)
                        | _ -> fail lineno "odd RHS entry"
                      in
                      eat pairs
                  | _ -> fail lineno "bad RHS entry")
              | "RANGES" -> (
                  match toks with
                  | _set :: pairs when List.length pairs mod 2 = 0 ->
                      let rec eat = function
                        | [] -> ()
                        | rname :: value :: rest -> (
                            match float_of_string_opt value with
                            | None -> fail lineno "bad range %s" value
                            | Some v -> (
                                match Hashtbl.find_opt rows rname with
                                | Some pr ->
                                    pr.pr_range <- Some v;
                                    eat rest
                                | None -> fail lineno "unknown row %s" rname))
                        | _ -> fail lineno "odd RANGES entry"
                      in
                      eat pairs
                  | _ -> fail lineno "bad RANGES entry")
              | "BOUNDS" -> (
                  let bound kind col value =
                    intvar col;
                    let lo, hi =
                      Option.value (Hashtbl.find_opt col_bounds col)
                        ~default:(None, None)
                    in
                    let set lo hi = Hashtbl.replace col_bounds col (lo, hi) in
                    match (kind, value) with
                    | "UP", Some v ->
                        (* MPS convention: a negative upper bound on a
                           column still sitting on its default lower
                           bound of 0 makes the column empty; reject it
                           rather than guess at a lower bound *)
                        if v < 0.0 && lo = None then
                          fail lineno
                            "negative UP bound on %s without an explicit \
                             LO/MI lower bound"
                            col
                        else set lo (Some v)
                    | "LO", Some v -> set (Some v) hi
                    | "FX", Some v -> set (Some v) (Some v)
                    | "UI", Some v ->
                        Hashtbl.replace col_int col true;
                        set lo (Some v)
                    | "LI", Some v ->
                        Hashtbl.replace col_int col true;
                        set (Some v) hi
                    (* MI/PL/FR/BV take no value, but many writers emit
                       a dummy numeric field anyway; accept and ignore *)
                    | "FR", _ -> set (Some neg_infinity) (Some infinity)
                    | "MI", _ -> set (Some neg_infinity) hi
                    | "PL", _ -> set lo (Some infinity)
                    | "BV", _ ->
                        Hashtbl.replace col_int col true;
                        set (Some 0.0) (Some 1.0)
                    | _ -> fail lineno "bad bound %s" kind
                  in
                  match toks with
                  | [ kind; _set; col; value ] -> (
                      match float_of_string_opt value with
                      | Some v -> bound kind col (Some v)
                      | None ->
                          (* value-less kinds ignore the fourth field
                             entirely; value-carrying kinds need a number *)
                          if List.mem kind [ "FR"; "MI"; "PL"; "BV" ] then
                            bound kind col None
                          else fail lineno "bad bound value %s" value)
                  | [ kind; _set; col ] -> bound kind col None
                  | _ -> fail lineno "bad BOUNDS entry")
              | "NAME" | "OBJSENSE" | "" | "ENDATA" -> ()
              | s -> fail lineno "entry outside a known section (%s)" s)
        end
      end)
    lines;
  match !error with
  | Some e -> Error e
  | None ->
      (* assemble: constraints from rows, bounds/kinds onto variables *)
      List.iter
        (fun rname ->
          let pr = Hashtbl.find rows rname in
          (* in file order, so duplicate (row, column) entries add up in
             the order they were written *)
          let e =
            Expr.sum
              (List.rev
                 (Option.value ~default:[] (Hashtbl.find_opt row_terms rname)))
          in
          match (pr.pr_kind, pr.pr_range) with
          | 'L', None -> Model.add_le model ~name:rname e pr.pr_rhs
          | 'L', Some rg ->
              Model.add_range model ~name:rname (pr.pr_rhs -. Float.abs rg) e pr.pr_rhs
          | 'G', None -> Model.add_ge model ~name:rname e pr.pr_rhs
          | 'G', Some rg ->
              Model.add_range model ~name:rname pr.pr_rhs e (pr.pr_rhs +. Float.abs rg)
          | 'E', None -> Model.add_eq model ~name:rname e pr.pr_rhs
          | 'E', Some rg ->
              if rg >= 0.0 then
                Model.add_range model ~name:rname pr.pr_rhs e (pr.pr_rhs +. rg)
              else Model.add_range model ~name:rname (pr.pr_rhs +. rg) e pr.pr_rhs
          | _ -> ())
        (List.rev !row_order);
      let p = Model.to_problem model in
      (* patch bounds and kinds directly on the frozen problem *)
      Hashtbl.iter
        (fun cname var ->
          let integral = Hashtbl.find col_int cname in
          let lo, hi =
            Option.value (Hashtbl.find_opt col_bounds cname) ~default:(None, None)
          in
          let lo = Option.value lo ~default:0.0 in
          let hi =
            match hi with
            | Some h -> h
            | None ->
                (* MPS convention: an integer column with only a lower
                   bound defaults to an upper bound of 1 in some readers;
                   we use +inf, the modern convention *)
                infinity
          in
          p.Problem.col_lb.(var) <- lo;
          p.Problem.col_ub.(var) <- hi;
          if integral then
            p.Problem.kind.(var) <-
              (if lo = 0.0 && hi = 1.0 then Problem.Binary else Problem.Integer))
        cols;
      if p.Problem.ncols = 0 then Error "no columns"
      else Ok p

let of_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> parse text
  | exception Sys_error e -> Error e
