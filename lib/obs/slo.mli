(** SLO specs with multi-window burn-rate alerting over {!Series}
    histories.

    An {!Alert} rule judges an instant (one day's or one transition's
    stat, with a consecutive-days debounce); an SLO judges a {e rolling
    window}: "the objective held on at least [goal] of the last
    [window_days] days".  The error budget is [1 - goal], and the burn
    rate of a window is the fraction of {e bad} days in it divided by
    that budget — burn 1.0 means the budget is being consumed exactly
    as fast as it accrues, burn 2.0 twice as fast.

    Following SRE multi-window practice, an SLO fires only when {e
    both} a fast window (recent spike — low detection latency) and a
    slow window (sustained — low false-positive rate) burn at or above
    [burn_threshold].  A day is bad when the objective series' daily
    sample satisfies the comparator against [threshold] — like alert
    rules, the comparator expresses the {e bad} direction
    ([runner.day.query_p95 > 0.25]).  Days are read from
    {!Series.daily}, so a store sampled at transition ticks still
    yields one judgment per day.

    Firing opens an {!Alert.event} (the spec synthesized into a rule,
    the event's [value] carrying the fast-window burn rate at fire
    time); while both windows keep burning the event's [last_day]
    advances, and the first quiet evaluation stamps [resolved_day] and
    re-arms — so one breach {e episode} yields exactly one event.  A
    firing lands in the flight recorder ({!Recorder.record_alert} with
    scope ["slo"]), triggers {!Recorder.dump_if_configured} and
    {!Sink.flush_traces}, and emits a ["slo"] {!Trace.instant} when
    tracing is on — the same evidence trail as the alert engine's.

    JSON syntax ([sim --slos FILE]): [{"slos": [{"name": "query-p95",
    "metric": "runner.day.query_p95", "op": ">", "threshold": 0.25,
    "goal": 0.99, "window_days": 28, "fast_days": 3, "slow_days": 14,
    "burn_threshold": 1.0}]}] (a bare top-level array also parses;
    [goal] defaults to 0.99, [fast_days] to [max 1 (window_days / 8)],
    [slow_days] to [max fast_days (window_days / 2)],
    [burn_threshold] to 1.0). *)

type spec = {
  slo_name : string;
  objective : string;  (** the {!Series} name judged daily *)
  comparator : Alert.comparator;  (** the {e bad} direction *)
  threshold : float;  (** objective ceiling/floor per the comparator *)
  goal : float;  (** required good-day fraction, in [0, 1) *)
  window_days : int;  (** the SLO's nominal rolling window *)
  fast_days : int;  (** fast burn window, 1 <= fast <= slow *)
  slow_days : int;  (** slow burn window, fast <= slow <= window *)
  burn_threshold : float;  (** fire when both windows burn >= this *)
}

val spec :
  ?goal:float ->
  ?fast_days:int ->
  ?slow_days:int ->
  ?burn_threshold:float ->
  name:string ->
  objective:string ->
  window_days:int ->
  Alert.comparator ->
  float ->
  spec
(** Smart constructor applying the defaults above.  Raises
    [Invalid_argument] on an empty name/objective, [window_days < 1],
    [goal] outside [0, 1), a non-positive [burn_threshold], or windows
    violating [1 <= fast_days <= slow_days <= window_days]. *)

val rule_of_spec : spec -> Alert.rule
(** The synthesized rule carried by this spec's events: the spec's
    name, objective metric and comparator, stat [Value], [for_days] 1,
    scope [Day]. *)

type t
(** Engine: specs plus per-spec episode state and the event history. *)

val create : spec list -> t
val specs : t -> spec list

val burn_rate : Series.t -> spec -> window:int -> float option
(** Bad-day fraction over the last [window] {!Series.daily} points of
    the objective, divided by the error budget [1 - goal].  [None]
    until the series holds at least [window] distinct days — an SLO
    never fires on insufficient history. *)

val eval : t -> series:Series.t -> day:int -> (spec * float) list
(** Evaluate every spec against the series store, firing and resolving
    episodes.  Returns the specs burning after this evaluation with
    their fast-window burn rates. *)

val events : t -> Alert.event list
(** Full episode history, oldest first. *)

val active : t -> Alert.event list
(** Unresolved episodes, oldest first. *)

val to_json : t -> Json.t
(** [{"slos": n, "count": n, "alerts": [...]}] in the alert engine's
    event JSON shape. *)

val specs_of_json : Json.t -> (spec list, string) result
(** Parse the syntax above.  Errors name the offending spec (by [name]
    when present, index otherwise) and field. *)

val specs_of_file : string -> (spec list, string) result
(** {!Json.Read.of_file}, then {!specs_of_json}. *)
