(** Reading and rendering JSONL traces produced by {!Trace}. *)

type event = {
  t_s : float;  (** seconds since trace epoch *)
  dom : int;  (** sink slot *)
  kind : string;  (** ["span"], ["point"], ["count"] or ["hist"] *)
  name : string;
  dur_s : float;  (** span duration; [0.] otherwise *)
  value : float option;  (** point payload; [None] when null/absent *)
  n : int;  (** count increment or histogram sample count *)
  total_s : float;  (** histogram total seconds *)
  buckets : (float * int) list;  (** histogram (upper bound s, count) *)
}

val of_lines : string list -> (event list, string) result
(** Parses JSONL lines (blank lines skipped); fails with a line-tagged
    message on the first malformed event. *)

val read_file : string -> (event list, string) result

val phase_totals : event list -> (string * float) list
(** Per span name, summed duration in seconds, in order of first
    appearance. *)

val counter_totals : event list -> (string * int) list
(** Per count-event name, summed increments, in order of first
    appearance. *)

val normalized : event list -> (int * string * string * int) list
(** The determinism view of a trace: [(dom, kind, name, n)] per event,
    dropping timestamps, durations, float payloads and histogram
    buckets — everything a [parallelism = 1] re-run is allowed to
    change. *)

val render : event list -> string
(** Human-readable report: per-phase time breakdown, counters, latency
    histograms, per-domain search statistics, and a node-throughput
    timeline drawn with {!Mm_util.Ascii_plot} when the trace contains
    node events. *)
