type event = {
  t_s : float;
  dom : int;
  kind : string;
  name : string;
  dur_s : float;
  value : float option;
  n : int;
  total_s : float;
  buckets : (float * int) list;
}

let event_of_json j =
  let open Json in
  let field k = member k j in
  let num k = Option.bind (field k) to_float in
  let int k = Option.bind (field k) to_int in
  match (num "t", int "dom", Option.bind (field "ev") to_str, Option.bind (field "name") to_str) with
  | Some t_s, Some dom, Some kind, Some name ->
      let buckets =
        match field "buckets" with
        | Some (List bs) ->
            List.filter_map
              (function
                | List [ Num ub; Num c ] -> Some (ub, int_of_float c)
                | _ -> None)
              bs
        | _ -> []
      in
      let value =
        match field "v" with
        | Some Null -> None
        | Some v -> to_float v
        | None -> None
      in
      Ok
        {
          t_s;
          dom;
          kind;
          name;
          dur_s = Option.value (num "dur") ~default:0.0;
          value;
          n = Option.value (int "n") ~default:0;
          total_s = Option.value (num "total") ~default:0.0;
          buckets;
        }
  | _ -> Error "missing t/dom/ev/name field"

let of_lines lines =
  let rec go acc lineno = function
    | [] -> Ok (List.rev acc)
    | l :: rest ->
        if String.trim l = "" then go acc (lineno + 1) rest
        else begin
          match Json.of_string l with
          | Error e -> Error (Printf.sprintf "trace line %d: %s" lineno e)
          | Ok j -> (
              match event_of_json j with
              | Error e -> Error (Printf.sprintf "trace line %d: %s" lineno e)
              | Ok ev -> go (ev :: acc) (lineno + 1) rest)
        end
  in
  go [] 1 lines

let read_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e -> Error e
  | text -> of_lines (String.split_on_char '\n' text)

(* fold into an assoc list keeping first-appearance order *)
let accumulate add empty key_value events =
  let order = ref [] and tbl = Hashtbl.create 16 in
  List.iter
    (fun ev ->
      match key_value ev with
      | None -> ()
      | Some (k, v) ->
          (if not (Hashtbl.mem tbl k) then order := k :: !order);
          let cur = Option.value (Hashtbl.find_opt tbl k) ~default:empty in
          Hashtbl.replace tbl k (add cur v))
    events;
  List.rev_map (fun k -> (k, Hashtbl.find tbl k)) !order

let phase_totals events =
  accumulate ( +. ) 0.0
    (fun ev -> if ev.kind = "span" then Some (ev.name, ev.dur_s) else None)
    events

let counter_totals events =
  accumulate ( + ) 0
    (fun ev -> if ev.kind = "count" then Some (ev.name, ev.n) else None)
    events

let normalized events =
  List.map (fun ev -> (ev.dom, ev.kind, ev.name, ev.n)) events

(* ---- rendering -------------------------------------------------------- *)

let fsec v =
  if v >= 100.0 then Printf.sprintf "%.1f" v
  else if v >= 0.1 then Printf.sprintf "%.3f" v
  else Printf.sprintf "%.6f" v

let render events =
  let out = Buffer.create 4096 in
  let section title body =
    if body <> "" then begin
      Buffer.add_string out title;
      Buffer.add_char out '\n';
      Buffer.add_string out body;
      Buffer.add_char out '\n'
    end
  in
  (* phases *)
  let spans =
    accumulate
      (fun (n, tot) d -> (n + 1, tot +. d))
      (0, 0.0)
      (fun ev -> if ev.kind = "span" then Some (ev.name, ev.dur_s) else None)
      events
  in
  (if spans <> [] then
     let tbl =
       Mm_util.Table.create ~title:"Phases"
         [
           ("phase", Mm_util.Table.Left);
           ("spans", Mm_util.Table.Right);
           ("total s", Mm_util.Table.Right);
           ("mean ms", Mm_util.Table.Right);
         ]
     in
     List.iter
       (fun (name, (n, tot)) ->
         Mm_util.Table.add_row tbl
           [
             name;
             string_of_int n;
             fsec tot;
             Printf.sprintf "%.3f" (tot /. float_of_int n *. 1e3);
           ])
       spans;
     section "" (Mm_util.Table.render tbl));
  (* counters *)
  let counts = counter_totals events in
  (if counts <> [] then
     let tbl =
       Mm_util.Table.create ~title:"Counters"
         [ ("counter", Mm_util.Table.Left); ("total", Mm_util.Table.Right) ]
     in
     List.iter
       (fun (name, n) -> Mm_util.Table.add_row tbl [ name; string_of_int n ])
       counts;
     section "" (Mm_util.Table.render tbl));
  (* point events *)
  let points =
    accumulate
      (fun (n, last) v -> (n + 1, match v with Some v -> Some v | None -> last))
      (0, None)
      (fun ev -> if ev.kind = "point" then Some (ev.name, ev.value) else None)
      events
  in
  (if points <> [] then
     let tbl =
       Mm_util.Table.create ~title:"Events"
         [
           ("event", Mm_util.Table.Left);
           ("count", Mm_util.Table.Right);
           ("last value", Mm_util.Table.Right);
         ]
     in
     List.iter
       (fun (name, (n, last)) ->
         Mm_util.Table.add_row tbl
           [
             name;
             string_of_int n;
             (match last with Some v -> Printf.sprintf "%g" v | None -> "-");
           ])
       points;
     section "" (Mm_util.Table.render tbl));
  (* histograms, aggregated over domains; bucket counts are merged so
     percentiles cover every sink's samples *)
  let merge_buckets a b =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (ub, c) ->
        Hashtbl.replace tbl ub
          (c + Option.value (Hashtbl.find_opt tbl ub) ~default:0))
      (a @ b);
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
  in
  (* upper estimate: the bound of the first bucket whose cumulative
     count reaches the quantile — exact to within one log2 bucket *)
  let percentile buckets q =
    let total = List.fold_left (fun acc (_, c) -> acc + c) 0 buckets in
    if total = 0 then None
    else
      let rec go acc = function
        | [] -> None
        | (ub, c) :: rest ->
            let acc = acc + c in
            if float_of_int acc >= q *. float_of_int total then Some ub
            else go acc rest
      in
      go 0 buckets
  in
  let hists =
    accumulate
      (fun (n, tot, mx, bk) (n', tot', mx', bk') ->
        (n + n', tot +. tot', Float.max mx mx', merge_buckets bk bk'))
      (0, 0.0, 0.0, [])
      (fun ev ->
        if ev.kind = "hist" then
          let mx =
            List.fold_left (fun acc (ub, _) -> Float.max acc ub) 0.0 ev.buckets
          in
          Some (ev.name, (ev.n, ev.total_s, mx, ev.buckets))
        else None)
      events
  in
  (* histograms named [*_permille] hold raw magnitudes (LU solve
     density), not durations: the wire format still scales buckets to
     "seconds", so multiply back by 1e9 and render them unitless in
     their own table *)
  let magnitude_hists, hists =
    List.partition
      (fun (name, _) -> String.ends_with ~suffix:"_permille" name)
      hists
  in
  (if hists <> [] then
     let tbl =
       Mm_util.Table.create ~title:"Latency histograms"
         [
           ("op", Mm_util.Table.Left);
           ("samples", Mm_util.Table.Right);
           ("total s", Mm_util.Table.Right);
           ("mean us", Mm_util.Table.Right);
           ("p50 us", Mm_util.Table.Right);
           ("p99 us", Mm_util.Table.Right);
           ("max bucket", Mm_util.Table.Right);
         ]
     in
     let pctl bk q =
       match percentile bk q with
       | Some ub -> Printf.sprintf "%g" (ub *. 1e6)
       | None -> "-"
     in
     List.iter
       (fun (name, (n, tot, mx, bk)) ->
         Mm_util.Table.add_row tbl
           [
             name;
             string_of_int n;
             fsec tot;
             Printf.sprintf "%.2f" (tot /. float_of_int (max n 1) *. 1e6);
             pctl bk 0.5;
             pctl bk 0.99;
             Printf.sprintf "%gus" (mx *. 1e6);
           ])
       hists;
     section "" (Mm_util.Table.render tbl));
  (if magnitude_hists <> [] then
     let tbl =
       Mm_util.Table.create ~title:"Magnitude histograms"
         [
           ("op", Mm_util.Table.Left);
           ("samples", Mm_util.Table.Right);
           ("total", Mm_util.Table.Right);
           ("mean", Mm_util.Table.Right);
           ("p50", Mm_util.Table.Right);
           ("p99", Mm_util.Table.Right);
           ("max bucket", Mm_util.Table.Right);
         ]
     in
     let pctl bk q =
       match percentile bk q with
       | Some ub -> Printf.sprintf "%g" (ub *. 1e9)
       | None -> "-"
     in
     List.iter
       (fun (name, (n, tot, mx, bk)) ->
         Mm_util.Table.add_row tbl
           [
             name;
             string_of_int n;
             Printf.sprintf "%g" (tot *. 1e9);
             Printf.sprintf "%.2f" (tot /. float_of_int (max n 1) *. 1e9);
             pctl bk 0.5;
             pctl bk 0.99;
             Printf.sprintf "%g" (mx *. 1e9);
           ])
       magnitude_hists;
     section "" (Mm_util.Table.render tbl));
  (* per-domain search statistics *)
  let doms =
    List.sort_uniq compare
      (List.filter_map
         (fun ev ->
           match ev.name with
           | "node" | "steal" | "idle_seconds" -> Some ev.dom
           | _ -> None)
         events)
  in
  (if doms <> [] then
     let tbl =
       Mm_util.Table.create ~title:"Per-domain search"
         [
           ("dom", Mm_util.Table.Right);
           ("nodes", Mm_util.Table.Right);
           ("steals", Mm_util.Table.Right);
           ("idle s", Mm_util.Table.Right);
           ("pivots", Mm_util.Table.Right);
         ]
     in
     List.iter
       (fun d ->
         let count_name name =
           List.length
             (List.filter (fun ev -> ev.dom = d && ev.name = name) events)
         in
         let idle =
           List.fold_left
             (fun acc ev ->
               if ev.dom = d && ev.name = "idle_seconds" then
                 acc +. Option.value ev.value ~default:0.0
               else acc)
             0.0 events
         in
         let pivots =
           List.fold_left
             (fun acc ev ->
               if ev.dom = d && ev.kind = "hist" && ev.name = "pivot" then
                 acc + ev.n
               else acc)
             0 events
         in
         Mm_util.Table.add_row tbl
           [
             string_of_int d;
             string_of_int (count_name "node");
             string_of_int (count_name "steal");
             fsec idle;
             string_of_int pivots;
           ])
       doms;
     section "" (Mm_util.Table.render tbl));
  (* node-throughput timeline *)
  let node_times =
    List.filter_map
      (fun ev -> if ev.name = "node" && ev.kind = "point" then Some ev.t_s else None)
      events
  in
  (match node_times with
  | _ :: _ :: _ ->
      let tmax =
        List.fold_left Float.max 0.0 node_times |> Float.max 1e-6
      in
      let nbins = 60 in
      let bins = Array.make nbins 0 in
      List.iter
        (fun t ->
          let i = int_of_float (t /. tmax *. float_of_int (nbins - 1)) in
          bins.(max 0 (min (nbins - 1) i)) <- bins.(max 0 (min (nbins - 1) i)) + 1)
        node_times;
      let dt = tmax /. float_of_int nbins in
      let points =
        List.init nbins (fun i ->
            ((float_of_int i +. 0.5) *. dt, float_of_int bins.(i) /. dt))
      in
      section "Node throughput"
        (Mm_util.Ascii_plot.render ~x_label:"seconds" ~y_label:"nodes/s"
           [ { Mm_util.Ascii_plot.label = "nodes/s"; glyph = '*'; points } ])
  | _ -> ());
  Buffer.contents out
