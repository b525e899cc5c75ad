type comparator = Gt | Ge | Lt | Le
type stat = Value | Mean | Min | Max | P50 | P95 | P99 | Count

(* Day-scoped rules are evaluated once per day boundary (the original
   semantics); transition-scoped rules after every transition step,
   over the runner.transition.* gauges, so a single-transition spike is
   seen before day-level aggregation averages it away. *)
type scope = Day | Transition

type rule = {
  name : string;
  metric : string;
  stat : stat;
  comparator : comparator;
  threshold : float;
  for_days : int;
  scope : scope;
}

let rule ?(stat = Value) ?(for_days = 1) ?(scope = Day) ~name ~metric comparator
    threshold =
  if for_days < 1 then invalid_arg "Alert.rule: for_days < 1";
  if String.length name = 0 then invalid_arg "Alert.rule: empty name";
  if String.length metric = 0 then invalid_arg "Alert.rule: empty metric";
  { name; metric; stat; comparator; threshold; for_days; scope }

type event = {
  e_rule : rule;
  fired_day : int;
  value : float;
  mutable last_day : int;
  mutable resolved_day : int option;
}

(* Per-rule debounce: [streak] counts consecutive satisfied
   evaluations; [current] is the open event while the rule is firing. *)
type state = { s_rule : rule; mutable streak : int; mutable current : event option }

type t = { states : state list; mutable history : event list (* newest first *) }

let create rules =
  { states = List.map (fun r -> { s_rule = r; streak = 0; current = None }) rules;
    history = [] }

let rules t = List.map (fun s -> s.s_rule) t.states

let comparator_name = function Gt -> ">" | Ge -> ">=" | Lt -> "<" | Le -> "<="
let scope_name = function Day -> "day" | Transition -> "transition"

let stat_name = function
  | Value -> "value"
  | Mean -> "mean"
  | Min -> "min"
  | Max -> "max"
  | P50 -> "p50"
  | P95 -> "p95"
  | P99 -> "p99"
  | Count -> "count"

let compare_v cmp v threshold =
  match cmp with
  | Gt -> v > threshold
  | Ge -> v >= threshold
  | Lt -> v < threshold
  | Le -> v <= threshold

(* Resolve a rule's stat against the registry.  [None] — metric
   missing, histogram empty, or stat inapplicable to the metric's
   kind — counts as not-satisfied. *)
let resolve ?registry r =
  match Metrics.lookup ?registry r.metric with
  | None -> None
  | Some (`Counter v) | Some (`Gauge v) -> (
    match r.stat with Value -> Some v | _ -> None)
  | Some (`Histogram None) -> None
  | Some (`Histogram (Some s)) -> (
    match r.stat with
    | Value | Mean -> Some s.Metrics.mean
    | Min -> Some s.Metrics.min
    | Max -> Some s.Metrics.max
    | P50 -> Some s.Metrics.p50
    | P95 -> Some s.Metrics.p95
    | P99 -> Some s.Metrics.p99
    | Count -> Some (float_of_int s.Metrics.count))

(* [?scope] filters which rules this evaluation touches: [None] (the
   pre-scope behavior) advances every rule; [Some s] advances only
   rules of scope [s], leaving the others' debounce streaks and open
   episodes untouched — a transition-step evaluation must not reset a
   day rule's streak, and vice versa. *)
let eval ?registry ?scope t ~day =
  List.filter_map
    (fun st ->
      let r = st.s_rule in
      if match scope with Some s -> s <> r.scope | None -> false then None
      else
      let satisfied, value =
        match resolve ?registry r with
        | Some v when compare_v r.comparator v r.threshold -> (true, v)
        | Some v -> (false, v)
        | None -> (false, nan)
      in
      if satisfied then begin
        st.streak <- st.streak + 1;
        (match st.current with
        | Some e -> e.last_day <- day
        | None ->
          if st.streak >= r.for_days then begin
            let e =
              { e_rule = r; fired_day = day; value; last_day = day;
                resolved_day = None }
            in
            st.current <- Some e;
            t.history <- e :: t.history;
            if Trace.is_enabled () then
              Trace.instant "alert"
                ~tags:
                  [
                    ("rule", r.name);
                    ("metric", r.metric);
                    ("stat", stat_name r.stat);
                    ("scope", scope_name r.scope);
                    ("value", Printf.sprintf "%g" value);
                    ("day", string_of_int day);
                  ];
            (* A firing is flight-recorder material in its own right,
               and the moment to persist volatile evidence: dump the
               ring if a dump path is armed, and flush the streaming
               trace sink so the events leading here survive a
               subsequent crash. *)
            Recorder.record_alert ~rule:r.name ~metric:r.metric ~value ~day
              ~scope:(scope_name r.scope);
            Recorder.dump_if_configured ~reason:("alert:" ^ r.name);
            Sink.flush_traces ~reason:("alert:" ^ r.name)
          end);
        match st.current with Some _ -> Some (r, value) | None -> None
      end
      else begin
        st.streak <- 0;
        (match st.current with
        | Some e ->
          e.resolved_day <- Some day;
          st.current <- None
        | None -> ());
        None
      end)
    t.states

let events t = List.rev t.history
let active t = List.rev (List.filter (fun e -> e.resolved_day = None) t.history)

let event_json e =
  let r = e.e_rule in
  Json.Obj
    [
      ("rule", Json.Str r.name);
      ("metric", Json.Str r.metric);
      ("stat", Json.Str (stat_name r.stat));
      ("op", Json.Str (comparator_name r.comparator));
      ("threshold", Json.Num r.threshold);
      ("for_days", Json.int r.for_days);
      ("scope", Json.Str (scope_name r.scope));
      ("fired_day", Json.int e.fired_day);
      ("last_day", Json.int e.last_day);
      ( "resolved_day",
        match e.resolved_day with None -> Json.Null | Some d -> Json.int d );
      ("value", Json.Num e.value);
    ]

let events_json evs =
  Json.Obj
    [
      ("count", Json.int (List.length evs));
      ("alerts", Json.Arr (List.map event_json evs));
    ]

let to_json t =
  let evs = events t in
  Json.Obj
    [
      ("rules", Json.int (List.length t.states));
      ("count", Json.int (List.length evs));
      ("alerts", Json.Arr (List.map event_json evs));
    ]

(* --- rule parsing ------------------------------------------------- *)

let ( let* ) = Result.bind

let stat_of_string = function
  | "value" -> Ok Value
  | "mean" -> Ok Mean
  | "min" -> Ok Min
  | "max" -> Ok Max
  | "p50" -> Ok P50
  | "p95" -> Ok P95
  | "p99" -> Ok P99
  | "count" -> Ok Count
  | s -> Error (Printf.sprintf "unknown stat %S" s)

let comparator_of_string = function
  | ">" | "gt" -> Ok Gt
  | ">=" | "ge" -> Ok Ge
  | "<" | "lt" -> Ok Lt
  | "<=" | "le" -> Ok Le
  | s -> Error (Printf.sprintf "unknown op %S (expected >, >=, <, <=)" s)

let scope_of_string = function
  | "day" -> Ok Day
  | "transition" -> Ok Transition
  | s -> Error (Printf.sprintf "unknown scope %S (expected day | transition)" s)

module R = Json.Read

let parsed at of_string s = Result.map_error (Printf.sprintf "%s: %s" at) (of_string s)

let head_of_json at j =
  let* name = R.str at "name" j in
  let* metric = R.str at "metric" j in
  let* op = R.str at "op" j in
  let* comparator = parsed at comparator_of_string op in
  let* threshold = R.num at "threshold" j in
  Ok (name, metric, comparator, threshold)

let checked at make =
  match make () with
  | v -> Ok v
  | exception Invalid_argument msg -> R.fail at "%s" msg

let list_of_json ~key ~kind item j =
  let* items = match j with Json.Arr items -> Ok items | _ -> R.arr "" key j in
  if items = [] then Error (Printf.sprintf "no %s given" key)
  else
    R.map
      ~label:
        (R.labelled (fun i -> function
          | Some name -> Printf.sprintf "%s %S" kind name
          | None -> Printf.sprintf "%s %d" kind i))
      item items

let rule_of_json at j =
  let* name, metric, comparator, threshold = head_of_json at j in
  let enum k of_string default =
    let* s = R.opt R.str at k j in
    match s with None -> Ok default | Some s -> parsed at of_string s
  in
  let* stat = enum "stat" stat_of_string Value in
  let* scope = enum "scope" scope_of_string Day in
  let* for_days = R.opt (R.int ~lo:1) at "for_days" j in
  checked at (fun () -> rule ~stat ?for_days ~scope ~name ~metric comparator threshold)

let rules_of_json = list_of_json ~key:"rules" ~kind:"rule" rule_of_json
let rules_of_file path = Result.bind (R.of_file path) rules_of_json
