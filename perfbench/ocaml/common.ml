(* Shared plumbing for the workloads: timing, order statistics, the
   pass/fail tally, metric emission and the result record. *)

let now () = Unix.gettimeofday ()

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* linear interpolation between order statistics, as Python's
   statistics.median does for the middle *)
let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* nearest-rank percentile: the smallest sample with at least [q] of
   the samples at or below it *)
let percentile xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let k = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) k))

let sum xs = List.fold_left ( +. ) 0. xs
let ratio a b = if b = 0. then 0. else a /. b

(* Peak resident set of a process ([self] by default), from the
   kernel's high-water mark. *)
let peak_rss_mb ?(pid = "self") () =
  match open_in ("/proc/" ^ pid ^ "/status") with
  | exception Sys_error _ -> nan
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> nan
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub line 6 (String.length line - 6))
                " %f kB" (fun kb -> kb /. 1024.)
            else scan ()
      in
      let v = scan () in
      close_in ic;
      v

(* The fuzz harness's objective tolerance. *)
let obj_eq a b = Float.abs (a -. b) <= 1e-6 *. Float.max 1.0 (Float.abs a)

(* ---- operations attempted and failed --------------------------------- *)

type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

(* One operation: every named check must hold. Failures are reported on
   stderr so the last stdout line stays the result. [true] when it
   passed. *)
let record_op t what checks =
  t.attempted <- t.attempted + 1;
  let bad = List.filter (fun (_, ok) -> not ok) checks in
  if bad <> [] then begin
    t.failed <- t.failed + 1;
    List.iter
      (fun (name, _) -> Printf.eprintf "FAIL %s: %s\n%!" what name)
      bad
  end;
  bad = []

(* ---- metrics ----------------------------------------------------------- *)

type metrics = { mutable items : (string * float * string) list }

let metrics () = { items = [] }

let add m name value unit =
  m.items <- (name, value, unit) :: m.items;
  Printf.printf "metric %-34s %14.6f %s\n%!" name value unit

(* Every digit the float carries; non-finite values are not JSON. *)
let json_num v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let result_line t m =
  let metric (name, value, unit) =
    Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Mm_obs.Json.quote name)
      (json_num value) (Mm_obs.Json.quote unit)
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (t.failed = 0) t.attempted t.failed
    (String.concat ", " (List.rev_map metric m.items))

(* ---- the run description ---------------------------------------------- *)

type run = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  mmap : string;  (** the [mmap] executable serve-open spawns *)
  workdir : string;  (** scratch directory inside the checkout *)
  rev : string;
}

let print_record run params =
  let open Mm_obs.Json in
  print_endline
    (to_string
       (Obj
          [
            ("record", Str "perfbench");
            ("workload", Str run.workload);
            ("seed", Num (float_of_int run.seed));
            ("seconds", Num run.seconds);
            ("trace", Bool run.trace);
            ("git_rev", Str run.rev);
            ("nproc", Num (float_of_int (Domain.recommended_domain_count ())));
            ("ocaml", Str Sys.ocaml_version);
            ("params", Obj params);
          ]))
