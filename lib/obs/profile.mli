(** Cost-attribution profiler: aggregate finished {!Trace} spans into a
    call tree keyed by span-stack path.

    The paper's evaluation is a cost model — Tables 8–11 predict where
    model-seconds go per scheme and technique — but spans alone only
    show individual operations.  This module folds a span list into a
    tree whose nodes are {e paths} (e.g.
    [day/phase.maintenance/transition/AddToIndex/index.pack]): every
    span with the same ancestor-name chain lands on the same node, so a
    30-day run collapses into one tree of a few dozen nodes with call
    counts and attributed costs.

    Attribution follows the tracer's invariant: a span's model-seconds
    and disk counters are {e inclusive} of its children (disk hooks
    land on every open span).  A node therefore carries both the
    inclusive total and the {e self} share — total minus the direct
    children's totals — and the self values of all nodes sum to the
    roots' totals exactly (integer counters) or to within float
    rounding (model seconds).  This conservation property is what lets
    a profile be cross-checked against {!Wave_sim.Runner.day_metrics}:
    the [day] node's total model-seconds equal the summed per-day
    maintenance + query seconds.

    Two renderings: {!folded} emits flamegraph.pl / speedscope
    compatible folded stacks ([path;to;node <self-seconds>] per line,
    fractional counts), and {!to_json} a nested JSON document
    ({!Sink.validate_profile} checks its shape). *)

type node = {
  name : string;  (** last path segment *)
  path : string list;  (** root-relative span names, [name] last *)
  mutable calls : int;  (** spans aggregated into this node *)
  mutable total_model : float;  (** inclusive model-seconds *)
  mutable self_model : float;  (** total minus direct children; >= 0 *)
  mutable seeks : int;
  mutable self_seeks : int;
  mutable blocks_read : int;
  mutable self_blocks_read : int;
  mutable blocks_written : int;
  mutable self_blocks_written : int;
  mutable bytes_read : int;
  mutable self_bytes_read : int;
  mutable bytes_written : int;
  mutable self_bytes_written : int;
  mutable children : node list;  (** sorted by [total_model], largest first *)
}

type t

val of_spans : Trace.span list -> t
(** Build the call tree.  Spans whose parent is missing from the list
    (top-level spans, or children of a still-open span) become roots.
    Works on any span list, finished in any order. *)

val roots : t -> node list
(** Top-level nodes, sorted by inclusive model-seconds, largest
    first. *)

val total_model : t -> float
(** Sum of the roots' inclusive model-seconds — the whole profiled
    extent. *)

val span_count : t -> int
(** Number of spans aggregated. *)

val nodes : t -> node list
(** Every node, preorder (parents before children). *)

val find : t -> string list -> node option
(** [find t path] resolves a root-relative name path, e.g.
    [["day"; "phase.query"; "index.probe"]]. *)

val path_string : node -> string
(** The node's path joined with ["/"]. *)

val top_self : ?k:int -> ?under:string list -> t -> node list
(** The [k] (default 10) nodes with the largest self model-seconds,
    optionally restricted to the subtree at [under] (inclusive).
    Empty when [under] names no node. *)

val folded : t -> string
(** Folded-stack text: one line per node with positive self time (and
    per leaf), [name;name;name <self-model-seconds>], fractional
    seconds with nanosecond precision.  Feed to flamegraph.pl or
    speedscope; line values sum to {!total_model} (within rounding). *)

val to_json : t -> Json.t
(** [{"schema": "waveidx-profile/1", "unit": "model-seconds",
    "total_model_s": ..., "spans": ..., "roots": [node...]}] where each
    node carries name, calls, total/self model-seconds, total/self
    seeks, blocks and bytes, and its children. *)

val schema : string
(** ["waveidx-profile/1"], the {!to_json} schema tag. *)

val of_json : Json.t -> (t, string) result
(** Parse a {!to_json} document back into a profile — the [--diff]
    baseline loader and the [profile --json] self-check.  Checks the
    schema tag, ["unit"] = "model-seconds", a non-negative
    ["total_model_s"], and a ["roots"] tree whose every node carries a
    string ["name"], integer ["calls"] >= 1, every cost field
    (non-negative; the counters integral) and a ["children"] array.  A
    node missing a cost field is an error naming the node's path
    ([/day/phase.query]) and the field, never a zero.  Node order is
    preserved as written. *)

(** {1 Differential profiles}

    Two call trees aligned by span-stack path: a node's identity is
    its root-relative name chain, so sibling reordering (children
    re-sort by cost) never produces a spurious add/remove pair.
    Identical trees diff to all-zero deltas exactly — both sides were
    built from the same float arithmetic, so [cur -. base] is [0.]
    bitwise, not epsilon-close. *)

type diff_status =
  | Common  (** present on both sides *)
  | Added  (** only in the current tree *)
  | Removed  (** only in the baseline *)

type diff_entry = {
  d_path : string list;
  d_status : diff_status;
  d_base : node option;
  d_cur : node option;
  d_calls : int;  (** current - baseline; an absent side counts 0 *)
  d_total : float;  (** inclusive model-seconds delta *)
  d_self : float;  (** self model-seconds delta *)
  d_seeks : int;
  d_blocks : int;  (** read + written *)
  d_bytes : int;  (** read + written *)
}

type diff = {
  entries : diff_entry list;
      (** union of both trees' paths, sorted by |self delta| largest
          first (ties by path) *)
  base_total : float;
  cur_total : float;
}

val diff : baseline:t -> current:t -> diff

val diff_top : ?k:int -> diff -> diff_entry list
(** First [k] (default 10) entries — the top regressing / improving
    nodes by |self delta|. *)

val diff_report : ?k:int -> diff -> string
(** Human-readable table: totals line, then one row per top-[k] entry
    with status and self/total/seeks/blocks deltas. *)

val diff_json : diff -> Json.t
(** [{"schema": "waveidx-profile-diff/1", ...}] with every entry's
    deltas — the machine-readable companion of {!diff_report}. *)
