(** Declarative SLO / alert engine over the {!Metrics} registry.

    A rule names a metric, how to reduce it to a number (its [stat]), a
    comparator, a threshold, and a debounce length: the condition must
    hold for [for_days] {e consecutive} evaluations before the alert
    fires.  The simulation runner evaluates its configured rules once
    per day boundary ({!Wave_sim.Runner.config.alerts}), so [for_days]
    is literally days; any other driver may call {!eval} on whatever
    cadence it likes.

    Typical rules for a long simulation: a query-latency p95 ceiling
    ([runner.query_seconds] p95 [<=] budget), a cache hit-ratio floor
    ([cache.hit_ratio] [>=] 0.9), a dirty-frame high watermark
    ([cache.dirty_frames] [<=] frames/2), or a transition-time budget
    derived from the paper's Theorem 1/2 wave-length bounds
    ([runner.day.transition_seconds]).  Note the comparator expresses
    the {e bad} direction: the rule fires when it is satisfied.

    Firing emits a {!Trace.instant} ["alert"] (when tracing is on) and
    opens an {!event}; while the condition keeps holding the event's
    [last_day] advances, and the first evaluation where it no longer
    holds stamps [resolved_day] and re-arms the debounce.  The whole
    history is available as a machine-readable block via
    {!events_json}.

    Rules can be built in code ({!rule}) or parsed from JSON
    ({!rules_of_json}): [{"rules": [{"name": "p95-ceiling", "metric":
    "runner.query_seconds", "stat": "p95", "op": ">", "threshold":
    0.25, "for_days": 2}]}] (a bare top-level array also parses;
    [stat] defaults to ["value"], [for_days] to 1, ["scope"] to
    ["day"] — set ["scope": "transition"] for per-transition
    evaluation). *)

type comparator = Gt | Ge | Lt | Le

type scope = Day | Transition
(** Evaluation cadence a rule subscribes to.  [Day] rules (the
    default) are evaluated by the runner once per day boundary;
    [Transition] rules after {e every} transition step, over the
    [runner.transition.*] gauges — so a one-transition spike is caught
    before day-level aggregation averages it away.  Debounce
    ([for_days]) counts consecutive evaluations {e of that scope}: an
    evaluation of the other scope leaves a rule's streak and open
    episode untouched. *)

type stat = Value | Mean | Min | Max | P50 | P95 | P99 | Count
(** How to reduce the metric to a number.  [Value] reads a counter or
    gauge directly and a histogram's exact mean; the percentile /
    extremum stats apply to histograms only (on a counter or gauge
    they resolve to nothing and the rule cannot fire — a rule
    misconfiguration, reported by {!eval}'s [None] value resolution
    being observable as the rule never firing). *)

type rule = {
  name : string;
  metric : string;  (** {!Metrics} registry name *)
  stat : stat;
  comparator : comparator;
  threshold : float;
  for_days : int;  (** debounce: consecutive satisfied evaluations, >= 1 *)
  scope : scope;
}

val rule :
  ?stat:stat ->
  ?for_days:int ->
  ?scope:scope ->
  name:string ->
  metric:string ->
  comparator ->
  float ->
  rule
(** [rule ~name ~metric cmp threshold] with [stat] defaulting to
    [Value], [for_days] to 1 and [scope] to [Day].  Raises
    [Invalid_argument] when [for_days < 1] or [name]/[metric] is
    empty. *)

type event = {
  e_rule : rule;
  fired_day : int;  (** evaluation day the debounce was crossed *)
  value : float;  (** observed value at fire time *)
  mutable last_day : int;  (** last day the condition still held *)
  mutable resolved_day : int option;
      (** first day the condition no longer held; [None] while active *)
}

type t
(** Engine: rules plus per-rule debounce state and the event history. *)

val create : rule list -> t

val rules : t -> rule list

val eval :
  ?registry:Metrics.registry -> ?scope:scope -> t -> day:int -> (rule * float) list
(** Evaluate rules against the registry (default {!Metrics.default}),
    advancing debounce state, firing and resolving events.  [?scope]
    restricts the evaluation to rules of that scope, leaving the
    others' debounce state untouched; omitted, every rule is evaluated
    (the pre-scope behavior).  Returns the rules active after this
    evaluation with their observed values.  A metric that is missing,
    an empty histogram, or a stat that does not apply to the metric's
    kind counts as not-satisfied (and re-arms the debounce).  A firing
    additionally lands in the flight recorder
    ({!Recorder.record_alert}), triggers {!Recorder.dump_if_configured}
    and {!Sink.flush_traces}. *)

val active : t -> event list
(** Events not yet resolved, oldest first. *)

val events : t -> event list
(** Full history, oldest first, resolved and active alike. *)

val comparator_name : comparator -> string
(** [">"], [">="], ["<"], ["<="]. *)

val stat_name : stat -> string
val scope_name : scope -> string
(** ["day"] / ["transition"]. *)

val event_json : event -> Json.t
val events_json : event list -> Json.t
(** [{"count": n, "alerts": [...]}], each alert carrying rule name,
    metric, stat, op, threshold, for_days, fired/last/resolved day and
    the fire-time value. *)

val to_json : t -> Json.t
(** [{"rules": n, "count": n, "alerts": [...]}] — the engine's whole
    history, the runner's machine-readable alerts block. *)

val rules_of_json : Json.t -> (rule list, string) result
(** Parse the rule syntax above.  Errors name the offending rule (by
    [name] when present, index otherwise) and field. *)

val rules_of_file : string -> (rule list, string) result
(** {!Json.Read.of_file}, then {!rules_of_json}. *)

(** {2 Shared with {!Slo.specs_of_json}} *)

val head_of_json :
  string -> Json.t -> (string * string * comparator * float, string) result
(** [head_of_json at j] reads the fields a rule and an SLO spec share:
    string ["name"], ["metric"] and ["op"] (parsed as above) and a
    finite ["threshold"].  Errors are prefixed by [at]. *)

val checked : string -> (unit -> 'a) -> ('a, string) result
(** Run a smart constructor, turning its [Invalid_argument] into an
    error labelled [at]. *)

val list_of_json :
  key:string ->
  kind:string ->
  (string -> Json.t -> ('a, string) result) ->
  Json.t ->
  ('a list, string) result
(** Decode [{key: [...]}] or a bare top-level array, non-empty, each
    element labelled [kind "name"] (or [kind i] without a name). *)
