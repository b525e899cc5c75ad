(* Benchmark harness.

   Running this executable regenerates every artifact of the paper's
   evaluation (Tables 1-12, Figures 2-11, Theorems 2-3, plus the
   model-vs-implementation cross-check), then times the implementation
   itself with Bechamel: probe/scan/transition/build costs per scheme
   and technique, and the substrate data structures.

     dune exec bench/main.exe                                          *)

open Bechamel
open Toolkit
open Wave_core
open Wave_storage

(* ------------------------------------------------------------------ *)
(* Part 1: regenerate every table and figure                          *)
(* ------------------------------------------------------------------ *)

let regenerate () =
  print_string (Wave_experiments.Experiment.run_all ());
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Part 2: micro-benchmarks of the implementation                     *)
(* ------------------------------------------------------------------ *)

let store =
  Wave_workload.Netnews.store
    { Wave_workload.Netnews.default_config with Wave_workload.Netnews.mean_postings = 200 }

let ready_scheme kind technique =
  let env = Env.create ~store ~technique ~w:7 ~n:3 () in
  let s = Scheme.start kind env in
  Scheme.advance_to s 14;
  s

(* Table 9 / Figures 5-8 ingredient: TimedIndexProbe per scheme. *)
let bench_probe kind =
  let s = ready_scheme kind Env.In_place in
  let d = Scheme.current_day s in
  Test.make
    ~name:(Printf.sprintf "probe/%s" (Scheme.name kind))
    (Staged.stage (fun () ->
         ignore
           (Frame.timed_index_probe (Scheme.frame s) ~t1:(d - 6) ~t2:d ~value:1)))

(* Table 9 ingredient: TimedSegmentScan, packed vs unpacked layout. *)
let bench_scan kind technique label =
  let s = ready_scheme kind technique in
  let d = Scheme.current_day s in
  Test.make
    ~name:(Printf.sprintf "scan/%s" label)
    (Staged.stage (fun () ->
         ignore (Frame.timed_segment_scan (Scheme.frame s) ~t1:(d - 6) ~t2:d)))

(* Figure 4 / Tables 10-11 ingredient: one daily transition. *)
let bench_transition kind technique =
  let s = ready_scheme kind technique in
  Test.make
    ~name:
      (Printf.sprintf "transition/%s/%s" (Scheme.name kind)
         (Env.technique_name technique))
    (Staged.stage (fun () -> Scheme.transition s))

(* Build vs incremental add (the Build/Add parameters of Table 12). *)
let bench_build =
  let cfg = Index.default_config in
  Test.make ~name:"index/build-1-day"
    (Staged.stage (fun () ->
         let disk = Index.make_disk cfg in
         let idx = Index.build disk cfg [ store 1 ] in
         Index.drop idx))

let bench_add =
  let cfg = Index.default_config in
  Test.make ~name:"index/add-1-day"
    (Staged.stage (fun () ->
         let disk = Index.make_disk cfg in
         let idx = Index.create_empty disk cfg in
         Index.add_batch idx (store 1);
         Index.drop idx))

let bench_pack =
  let cfg = Index.default_config in
  Test.make ~name:"index/packed-shadow-1-day"
    (Staged.stage (fun () ->
         let disk = Index.make_disk cfg in
         let idx = Index.build disk cfg [ store 1 ] in
         let packed = Index.pack idx ~drop_days:(fun _ -> false) ~extra:[ store 2 ] in
         Index.drop idx;
         Index.drop packed))

(* Figure 11 ingredient: the 200-day size-only WATA* replay. *)
let bench_wata_replay =
  let sizes =
    Array.init 200 (fun i ->
        Wave_workload.Netnews.daily_volume Wave_workload.Netnews.default_config (i + 1))
  in
  Test.make ~name:"fig11/wata-size-replay-200d"
    (Staged.stage (fun () -> ignore (Wave_sim.Wata_size.replay ~w:7 ~n:4 ~sizes)))

(* Substrate: B+tree directory and Zipf sampling. *)
let bench_btree_insert =
  Test.make ~name:"substrate/btree-insert-1k"
    (Staged.stage (fun () ->
         let t = Btree.create ~order:32 () in
         for k = 1 to 1000 do
           Btree.insert t ((k * 7919) mod 10_007) k
         done))

let bench_btree_find =
  let t = Btree.create ~order:32 () in
  let () =
    for k = 1 to 10_000 do
      Btree.insert t k k
    done
  in
  Test.make ~name:"substrate/btree-find"
    (Staged.stage
       (let i = ref 0 in
        fun () ->
          incr i;
          ignore (Btree.find t (1 + (!i mod 10_000)))))

let bench_zipf =
  let z = Wave_util.Zipf.create ~n:50_000 ~s:1.0 in
  let prng = Wave_util.Prng.create 5 in
  Test.make ~name:"substrate/zipf-sample"
    (Staged.stage (fun () -> ignore (Wave_util.Zipf.sample z prng)))

(* Analytic model evaluation speed (the experiment drivers call it in
   tight sweeps). *)
let bench_model =
  let p = Wave_model.Scenario.scam.Wave_model.Scenario.params in
  Test.make ~name:"model/evaluate-scam"
    (Staged.stage (fun () ->
         ignore
           (Wave_model.Cost.evaluate p ~scheme:Scheme.Reindex
              ~technique:Env.Simple_shadow ~w:7 ~n:4)))

(* Extensions: boolean query engine, text pipeline, codec, offline DP. *)
let bench_query_engine =
  let s =
    let env = Env.create ~store ~w:7 ~n:3 () in
    let s = Scheme.start Scheme.Del env in
    Scheme.advance_to s 14;
    s
  in
  let q =
    Query.Diff
      ( Query.And [ Query.Word 1; Query.Or [ Query.Word 2; Query.Word 3 ] ],
        Query.Word 4 )
  in
  Test.make ~name:"ext/boolean-query"
    (Staged.stage (fun () -> ignore (Query.eval_window s q)))

let bench_tokenizer =
  let text =
    String.concat " "
      (List.init 40 (fun i -> Printf.sprintf "word%d, And SOME punctuation!" i))
  in
  Test.make ~name:"ext/tokenize-1kb"
    (Staged.stage (fun () -> ignore (Wave_text.Tokenizer.tokens text)))

let bench_codec =
  let b = store 3 in
  let encoded = Wave_storage.Codec.encode_batch b in
  Test.make ~name:"ext/codec-roundtrip"
    (Staged.stage (fun () ->
         match Wave_storage.Codec.decode_batch encoded with
         | Ok _ -> ()
         | Error e -> failwith e))

let bench_offline_dp =
  let sizes =
    Array.init 80 (fun i ->
        Wave_workload.Netnews.daily_volume Wave_workload.Netnews.default_config (i + 1))
  in
  Test.make ~name:"ext/offline-optimal-80d"
    (Staged.stage (fun () ->
         ignore (Wave_sim.Wata_offline.optimal ~w:7 ~n:3 ~sizes)))

let groups =
  [
    ( "queries (Table 9, Figures 5-8)",
      List.map bench_probe Scheme.all
      @ [
          bench_scan Scheme.Del Env.In_place "DEL/unpacked";
          bench_scan Scheme.Del Env.Packed_shadow "DEL/packed";
          bench_scan Scheme.Reindex Env.In_place "REINDEX/packed";
          bench_scan Scheme.Wata_star Env.In_place "WATA*/soft-window";
        ] );
    ( "transitions (Figure 4, Tables 10-11)",
      List.concat_map
        (fun kind ->
          [
            bench_transition kind Env.In_place;
            bench_transition kind Env.Packed_shadow;
          ])
        Scheme.all );
    ("index operations (Table 12's Build/Add)", [ bench_build; bench_add; bench_pack ]);
    ( "traces and substrate",
      [ bench_wata_replay; bench_btree_insert; bench_btree_find; bench_zipf; bench_model ]
    );
    ( "extensions",
      [ bench_query_engine; bench_tokenizer; bench_codec; bench_offline_dp ] );
  ]

let run_benchmarks () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~stabilize:false ()
  in
  List.iter
    (fun (group, tests) ->
      Printf.printf "\n## bench group: %s\n" group;
      List.iter
        (fun test ->
          let results = Benchmark.all cfg [ instance ] test in
          let analyzed = Analyze.all ols instance results in
          Hashtbl.iter
            (fun name ols_result ->
              match Analyze.OLS.estimates ols_result with
              | Some [ ns ] -> Printf.printf "  %-42s %12.0f ns/run\n" name ns
              | _ -> Printf.printf "  %-42s (no estimate)\n" name)
            analyzed)
        tests)
    groups

(* Wall-clock numbers that can gate a change come from perfbench/, not
   from here: Bechamel's per-call estimates are for reading, and this
   executable takes no arguments. *)
let () =
  if Array.length Sys.argv > 1 then begin
    prerr_endline
      "usage: main.exe (no arguments; see perfbench/ for gated wall-clock runs)";
    exit 2
  end;
  regenerate ();
  print_endline "============================================================";
  print_endline "Implementation micro-benchmarks (Bechamel, wall-clock)";
  print_endline "============================================================";
  run_benchmarks ()
