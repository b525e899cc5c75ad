type spec = {
  slo_name : string;
  objective : string;
  comparator : Alert.comparator;
  threshold : float;
  goal : float;
  window_days : int;
  fast_days : int;
  slow_days : int;
  burn_threshold : float;
}

let spec ?(goal = 0.99) ?fast_days ?slow_days ?(burn_threshold = 1.0) ~name
    ~objective ~window_days comparator threshold =
  if String.length name = 0 then invalid_arg "Slo.spec: empty name";
  if String.length objective = 0 then invalid_arg "Slo.spec: empty objective";
  if window_days < 1 then invalid_arg "Slo.spec: window_days < 1";
  if not (goal >= 0.0 && goal < 1.0) then
    invalid_arg "Slo.spec: goal outside [0, 1)";
  if not (burn_threshold > 0.0) then
    invalid_arg "Slo.spec: non-positive burn_threshold";
  let fast = Option.value ~default:(max 1 (window_days / 8)) fast_days in
  let slow = Option.value ~default:(max fast (window_days / 2)) slow_days in
  if not (1 <= fast && fast <= slow && slow <= window_days) then
    invalid_arg "Slo.spec: need 1 <= fast_days <= slow_days <= window_days";
  {
    slo_name = name;
    objective;
    comparator;
    threshold;
    goal;
    window_days;
    fast_days = fast;
    slow_days = slow;
    burn_threshold;
  }

(* The synthesized rule rides inside every episode's Alert.event, so
   SLO firings flow through the same result/alerts plumbing as rule
   firings; for_days 1 because debounce lives in the slow window, not
   in consecutive evaluations. *)
let rule_of_spec s =
  {
    Alert.name = s.slo_name;
    metric = s.objective;
    stat = Alert.Value;
    comparator = s.comparator;
    threshold = s.threshold;
    for_days = 1;
    scope = Alert.Day;
  }

type state = { s_spec : spec; mutable current : Alert.event option }
type t = { states : state list; mutable history : Alert.event list (* newest first *) }

let create specs =
  { states = List.map (fun s -> { s_spec = s; current = None }) specs;
    history = [] }

let specs t = List.map (fun st -> st.s_spec) t.states

let bad cmp v threshold =
  match (cmp : Alert.comparator) with
  | Alert.Gt -> v > threshold
  | Alert.Ge -> v >= threshold
  | Alert.Lt -> v < threshold
  | Alert.Le -> v <= threshold

let burn_rate series s ~window =
  let days = Series.daily series s.objective in
  let have = List.length days in
  if have < window || window < 1 then None
  else
    let tail = List.filteri (fun i _ -> i >= have - window) days in
    let bad_days =
      List.length
        (List.filter (fun p -> bad s.comparator p.Series.value s.threshold) tail)
    in
    let budget = 1.0 -. s.goal in
    Some (float_of_int bad_days /. float_of_int window /. budget)

let fire st ~day ~burn =
  let s = st.s_spec in
  let e =
    {
      Alert.e_rule = rule_of_spec s;
      fired_day = day;
      value = burn;
      last_day = day;
      resolved_day = None;
    }
  in
  st.current <- Some e;
  if Trace.is_enabled () then
    Trace.instant "slo"
      ~tags:
        [
          ("slo", s.slo_name);
          ("objective", s.objective);
          ("burn", Printf.sprintf "%g" burn);
          ("fast_days", string_of_int s.fast_days);
          ("slow_days", string_of_int s.slow_days);
          ("day", string_of_int day);
        ];
  (* Same evidence trail as an alert firing: the episode lands in the
     flight ring, a configured dump path captures it immediately, and
     the streaming trace sink flushes so the lead-up survives a
     crash. *)
  Recorder.record_alert ~rule:s.slo_name ~metric:s.objective ~value:burn ~day
    ~scope:"slo";
  Recorder.dump_if_configured ~reason:("slo:" ^ s.slo_name);
  Sink.flush_traces ~reason:("slo:" ^ s.slo_name);
  e

let eval t ~series ~day =
  List.filter_map
    (fun st ->
      let s = st.s_spec in
      let burning =
        match
          (burn_rate series s ~window:s.fast_days,
           burn_rate series s ~window:s.slow_days)
        with
        | Some bf, Some bs
          when bf >= s.burn_threshold && bs >= s.burn_threshold ->
          Some bf
        | _ -> None
      in
      match burning with
      | Some bf ->
        (match st.current with
        | Some e -> e.Alert.last_day <- day
        | None ->
          let e = fire st ~day ~burn:bf in
          t.history <- e :: t.history);
        Some (s, bf)
      | None ->
        (match st.current with
        | Some e ->
          e.Alert.resolved_day <- Some day;
          st.current <- None
        | None -> ());
        None)
    t.states

let events t = List.rev t.history

let active t =
  List.rev (List.filter (fun e -> e.Alert.resolved_day = None) t.history)

let to_json t =
  let evs = events t in
  Json.Obj
    [
      ("slos", Json.int (List.length t.states));
      ("count", Json.int (List.length evs));
      ("alerts", Json.Arr (List.map Alert.event_json evs));
    ]

(* --- spec parsing -------------------------------------------------- *)

let ( let* ) = Result.bind

module R = Json.Read

let spec_of_json at j =
  let* name, objective, comparator, threshold = Alert.head_of_json at j in
  let* window_days = R.int ~lo:1 at "window_days" j in
  let* goal = R.opt R.num at "goal" j in
  let* burn_threshold = R.opt R.num at "burn_threshold" j in
  let* fast_days = R.opt (R.int ~lo:1) at "fast_days" j in
  let* slow_days = R.opt (R.int ~lo:1) at "slow_days" j in
  Alert.checked at (fun () ->
      spec ?goal ?fast_days ?slow_days ?burn_threshold ~name ~objective
        ~window_days comparator threshold)

let specs_of_json = Alert.list_of_json ~key:"slos" ~kind:"slo" spec_of_json
let specs_of_file path = Result.bind (R.of_file path) specs_of_json
