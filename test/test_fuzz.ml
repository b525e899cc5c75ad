(* Seeded mutation property for every JSON reader waveidx has: each
   reader gets one freshly emitted valid document, and byte flips, byte
   replacements, truncations and value swaps of it must come back [Ok]
   or [Error] — never an exception.  A few thousand cases in all, so
   the suite runs in well under a second; [dune build @fuzz] runs just
   this file. *)

open Wave_obs

let cases = 500

(* --- mutations ------------------------------------------------------ *)

let alphabet = "{}[],:\"\\-+.0123456789eEnultf x"

let values =
  Json.
    [|
      Null; Bool true; Num (-1.0); Num 0.0; Num 0.5; Num 1e18; Num 1e300;
      Str ""; Str "x"; Arr []; Obj [];
    |]

let rec size = function
  | Json.Arr xs -> List.fold_left (fun a x -> a + size x) 1 xs
  | Json.Obj kvs -> List.fold_left (fun a (_, x) -> a + size x) 1 kvs
  | _ -> 1

(* Swap one value (in preorder) for a hostile one, or drop one member
   of an object: the result still parses, so it reaches the reader. *)
let mutate_tree rng j =
  let target = Random.State.int rng (size j) and i = ref (-1) in
  let rec go j =
    incr i;
    if !i <> target then
      match j with
      | Json.Arr xs -> Json.Arr (List.map go xs)
      | Json.Obj kvs -> Json.Obj (List.map (fun (k, v) -> (k, go v)) kvs)
      | v -> v
    else
      match j with
      | Json.Obj (_ :: _ as kvs) when Random.State.bool rng ->
        let drop = Random.State.int rng (List.length kvs) in
        Json.Obj (List.filteri (fun i _ -> i <> drop) kvs)
      | _ -> values.(Random.State.int rng (Array.length values))
  in
  go j

let mutate_json rng text =
  match Json.parse text with
  | Ok j -> Json.to_string (mutate_tree rng j)
  | Error _ -> text

let mutate ~jsonl rng text =
  let n = String.length text in
  if n = 0 then text
  else
    let at = Random.State.int rng n in
    match Random.State.int rng 4 with
    | 0 ->
      let b = Bytes.of_string text in
      Bytes.set b at (Char.chr (Char.code text.[at] lxor (1 lsl Random.State.int rng 8)));
      Bytes.to_string b
    | 1 ->
      let b = Bytes.of_string text in
      Bytes.set b at alphabet.[Random.State.int rng (String.length alphabet)];
      Bytes.to_string b
    | 2 -> String.sub text 0 at
    | _ when jsonl ->
      let lines = String.split_on_char '\n' text in
      let k = Random.State.int rng (List.length lines) in
      String.concat "\n"
        (List.mapi (fun i l -> if i = k then mutate_json rng l else l) lines)
    | _ -> mutate_json rng text

(* [reader] must accept [doc] as emitted, then survive [cases] mutants
   of it, each one to three mutations deep. *)
let fuzz ?(jsonl = false) name doc reader () =
  Alcotest.(check bool) (name ^ ": the emitted document is accepted") true (reader doc);
  let rng = Random.State.make [| 13; Hashtbl.hash name |] in
  for case = 1 to cases do
    let text = ref doc in
    for _ = 0 to Random.State.int rng 3 do
      text := mutate ~jsonl rng !text
    done;
    match reader !text with
    | _ -> ()
    | exception e ->
      Alcotest.failf "%s: case %d raised %s on %S" name case (Printexc.to_string e)
        !text
  done

let json read text =
  match Json.parse text with Error _ -> false | Ok j -> Result.is_ok (read j)

(* --- freshly emitted documents -------------------------------------- *)

let chrome_doc () =
  let spans, instants = Test_obs.collect_small_trace () in
  Json.to_string (Sink.chrome_json ~spans ~instants ())

let bench_doc () = Json.to_string (Test_obs.valid_bench_doc ())

let profile_doc () =
  Json.to_string (Profile.to_json (Profile.of_spans Test_profile.sample_spans))

let flight_doc () =
  Recorder.clear ();
  Recorder.record_span ~name:"s" ~model_s:1.5 ~seeks:2 ~blocks_read:1
    ~blocks_written:0 ~bytes_read:100 ~bytes_written:0;
  Recorder.record_metric ~name:"m" ~value:1.0 ~delta:1.0;
  Recorder.record_alert ~rule:"r" ~metric:"m" ~value:1.0 ~day:3 ~scope:"day";
  Recorder.record_io ~syscall:"pwrite" ~outcome:"ok" ~bytes:4096;
  Recorder.record_epoch ~event:"pin" ~gen:2 ~refcount:1;
  let text = Recorder.to_jsonl ~reason:"fuzz" () in
  Recorder.clear ();
  text

let series_doc () =
  let st = Series.create ~cap:4 () in
  for day = 1 to 6 do
    Series.record st ~name:"a" ~day (float_of_int day);
    Series.record st ~name:"b" ~day 0.5
  done;
  Json.to_string (Series.to_json st)

let rules_doc =
  {|{"rules": [{"name": "p95", "metric": "runner.query_seconds", "stat": "p95",
     "op": ">", "threshold": 0.25, "for_days": 2, "scope": "transition"},
    {"name": "hit", "metric": "cache.hit_ratio", "op": "<", "threshold": 0.9}]}|}

let slos_doc =
  {|{"slos": [{"name": "q", "metric": "runner.day.query_p95", "op": ">",
     "threshold": 0.25, "goal": 0.9, "window_days": 8, "fast_days": 1,
     "slow_days": 4, "burn_threshold": 2.0}]}|}

(* --- totality outside the mutation loop ------------------------------ *)

let test_bad_unicode_escape () =
  List.iter
    (fun text ->
      match Json.parse text with
      | Ok _ -> Alcotest.failf "accepted %S" text
      | Error _ -> ())
    [ {|"\uZZZZ"|}; {|"\u12"|}; {|"\u00g1"|}; {|"\ud800\uqqqq"|} ]

let suites =
  [
    ( "fuzz.readers",
      [
        Alcotest.test_case "chrome trace" `Quick
          (fun () -> fuzz "chrome" (chrome_doc ()) (json Sink.validate_chrome) ());
        Alcotest.test_case "bench snapshot" `Quick
          (fun () -> fuzz "bench" (bench_doc ()) (json Sink.validate_bench) ());
        Alcotest.test_case "bench gate readers" `Quick (fun () ->
            fuzz "bench gate" (bench_doc ())
              (json (fun j ->
                   Result.bind (Sink.bench_series j) (fun _ -> Sink.bench_profile_top j)))
              ());
        Alcotest.test_case "profile" `Quick
          (fun () -> fuzz "profile" (profile_doc ()) (json Profile.of_json) ());
        Alcotest.test_case "flight dump" `Quick (fun () ->
            fuzz ~jsonl:true "flight" (flight_doc ())
              (fun t -> Result.is_ok (Sink.validate_flight t))
              ());
        Alcotest.test_case "series dump" `Quick
          (fun () -> fuzz "series" (series_doc ()) (json Sink.validate_series) ());
        Alcotest.test_case "alert rules" `Quick
          (fun () -> fuzz "rules" rules_doc (json Alert.rules_of_json) ());
        Alcotest.test_case "slo specs" `Quick
          (fun () -> fuzz "slos" slos_doc (json Slo.specs_of_json) ());
      ] );
    ( "fuzz.totality",
      [
        Alcotest.test_case "bad \\u escapes are errors" `Quick test_bad_unicode_escape;
      ] );
  ]
