(* Wall-clock benchmark of the wave index on the paper's three case
   studies (Table 12: SCAM, a Web search engine, TPC-D).

   One client in one thread drives a closed loop that mirrors the
   simulation runner's day: a transition, then that day's generated
   probes and scans, served one at a time.  Every call into the index
   is timed with the monotonic clock; input generation, the
   correctness oracle and the bookkeeping run between timed calls and
   are excluded from them.

     wavebench.exe --workload scam-pool --seed 1 --seconds 30 \
       --trace 0 --out-dir .perfbench

   The last line of stdout is one JSON object: [correct], [attempted],
   [failed], [metrics] (name -> {value, unit}) and [exact], the
   deterministic values run.py compares across runs of one build. *)

open Wave_core
open Wave_storage
module Disk = Wave_disk.Disk
module Cache = Wave_cache.Cache
module Router = Wave_shard.Router
module Partition = Wave_shard.Partition
module Parallel = Wave_model.Parallel
module Trace = Wave_obs.Trace
module Json = Wave_obs.Json
module Netnews = Wave_workload.Netnews
module Tpcd = Wave_workload.Tpcd
module Query_gen = Wave_workload.Query_gen

(* ------------------------------------------------------------------ *)
(* Workloads                                                          *)
(* ------------------------------------------------------------------ *)

type source = Netnews of Netnews.config | Tpcd of Tpcd.config

type workload = {
  name : string;
  source : source;
  kind : Scheme.kind;
  technique : Env.technique;
  w : int;
  n : int;
  shards : int option;  (** hash arms behind a [Router]; [None] = one disk *)
  pool : int option;  (** buffer-pool frames, readahead 8 *)
  spec : Query_gen.spec;
  warmup_days : int;  (** days run after Start, before timing *)
  days_per_10s : int;  (** timed days per 10 s of [--seconds] *)
  setups : int;  (** set-ups per run; [setup_s] is their median *)
}

(* The seed drives both the data generator and the query stream. *)
let workloads ~seed =
  let qseed = seed + 1_000 in
  [
    (* SCAM: the only workload through the buffer pool, with a window
       of about 14k blocks against 4096 frames. *)
    {
      name = "scam-pool";
      source = Netnews { Netnews.default_config with seed; mean_postings = 2_000 };
      kind = Scheme.Del;
      technique = Env.In_place;
      w = 7;
      n = 3;
      shards = None;
      pool = Some 4_096;
      spec = { Query_gen.scam_spec with seed = qseed };
      warmup_days = 14;
      days_per_10s = 280;
      setups = 5;
    };
    (* Web search engine: write-heavy packed shadowing of a 35-day
       window; no pool, no router.  Probe values are uniform over the
       vocabulary: with Zipf values the median probe's result size, and
       so its latency, depends on which hot words a seed happens to
       draw.  One current-day scan a day keeps every operation kind
       measured. *)
    {
      name = "wse-ingest";
      source = Netnews { Netnews.default_config with seed; mean_postings = 20_000 };
      kind = Scheme.Wata_star;
      technique = Env.Packed_shadow;
      w = 35;
      n = 4;
      shards = None;
      pool = None;
      spec =
        {
          Query_gen.wse_spec with
          seed = qseed;
          probes_per_day = 100;
          scans_per_day = 1;
          scan_range = Query_gen.Current_day;
          value_dist = Query_gen.Uniform Netnews.default_config.vocab;
        };
      warmup_days = 14;
      days_per_10s = 120;
      setups = 3;
    };
    (* TPC-D: whole-window scans fanned out over four hash arms. *)
    {
      name = "tpcd-shard-scan";
      source = Tpcd { Tpcd.default_config with seed; mean_rows = 2_000 };
      kind = Scheme.Reindex;
      technique = Env.Packed_shadow;
      w = 30;
      n = 3;
      shards = Some 4;
      pool = None;
      spec = { Query_gen.tpcd_spec with seed = qseed; probes_per_day = 200 };
      warmup_days = 30;
      days_per_10s = 25;
      setups = 5;
    };
  ]

let vocab wl =
  match wl.source with Netnews c -> c.Netnews.vocab | Tpcd c -> c.Tpcd.suppliers

(* Timed days are whole weeks, so every run sees the same weekday mix,
   and at least three, so per-day samples support a tail percentile. *)
let timed_days wl ~seconds = 7 * max 3 (((seconds * wl.days_per_10s) + 35) / 70)

let icfg ~pool =
  {
    Index.default_config with
    Index.cache_blocks = pool;
    cache_readahead = (match pool with Some _ -> 8 | None -> 0);
  }

(* ------------------------------------------------------------------ *)
(* Inputs: a sliding day memo plus the correctness oracle             *)
(* ------------------------------------------------------------------ *)

(* Entries are compared by count and a sum of mixed record ids. *)
let mix rid = (rid * 0x2545F491) lxor (rid lsr 11)

type day_summary = {
  batch : Entry.batch;
  per_value : (int, int * int) Hashtbl.t;  (** value -> count, rid sum *)
  count : int;
  sum : int;
}

let summarize (batch : Entry.batch) =
  let per_value = Hashtbl.create 1024 in
  let count = ref 0 and sum = ref 0 in
  Array.iter
    (fun (p : Entry.posting) ->
      let h = mix p.Entry.entry.Entry.rid in
      let c, s =
        Option.value (Hashtbl.find_opt per_value p.Entry.value) ~default:(0, 0)
      in
      Hashtbl.replace per_value p.Entry.value (c + 1, s + h);
      incr count;
      sum := !sum + h)
    batch.Entry.postings;
  { batch; per_value; count = !count; sum = !sum }

(* Only the window lives here: after the transition to day [d] every
   scheme reads days in [d - w + 1, d] and nothing older, so admitting
   [d] evicts [d - w].  The library's generators memoise every day they
   ever produce, so each day comes from a fresh generator that is
   dropped at once. *)
type inputs = { make : int -> Entry.batch; memo : (int, day_summary) Hashtbl.t; w : int }

let inputs wl =
  let make =
    match wl.source with
    | Netnews c -> fun d -> Netnews.store c d
    | Tpcd c -> fun d -> Tpcd.store c d
  in
  { make; memo = Hashtbl.create 64; w = wl.w }

let admit inp d =
  Hashtbl.replace inp.memo d (summarize (inp.make d));
  Hashtbl.remove inp.memo (d - inp.w)

let summary inp d =
  match Hashtbl.find_opt inp.memo d with
  | Some s -> s
  | None -> failwith (Printf.sprintf "input day %d read outside the window memo" d)

let store inp d = (summary inp d).batch

let window_entries inp = Hashtbl.fold (fun _ s acc -> acc + s.count) inp.memo 0

let expected_probe inp ~value ~t1 ~t2 =
  let c = ref 0 and s = ref 0 in
  for d = t1 to t2 do
    match Hashtbl.find_opt (summary inp d).per_value value with
    | Some (c', s') ->
      c := !c + c';
      s := !s + s'
    | None -> ()
  done;
  (!c, !s)

let expected_scan inp ~t1 ~t2 =
  let c = ref 0 and s = ref 0 in
  for d = t1 to t2 do
    let x = summary inp d in
    c := !c + x.count;
    s := !s + x.sum
  done;
  (!c, !s)

let digest entries =
  let c = ref 0 and s = ref 0 in
  List.iter
    (fun (e : Entry.t) ->
      incr c;
      s := !s + mix e.Entry.rid)
    entries;
  (!c, !s)

(* Checked operations and mismatches, over the whole run. *)
let attempted = ref 0
let failed = ref 0

let check ok =
  incr attempted;
  if not ok then incr failed

(* ------------------------------------------------------------------ *)
(* The index under test: one scheme, or a router over hash arms       *)
(* ------------------------------------------------------------------ *)

type target = Single of Scheme.t | Sharded of Router.t

let start wl ~pool inp =
  let icfg = icfg ~pool in
  match wl.shards with
  | None ->
    Single
      (Scheme.start wl.kind
         (Env.create ~icfg ~technique:wl.technique ~store:(store inp) ~w:wl.w ~n:wl.n ()))
  | Some shards ->
    Sharded
      (Router.create ~icfg ~technique:wl.technique ~kind:wl.kind
         ~partition:Partition.Hash ~shards ~vocab:(vocab wl) ~store:(store inp) ~w:wl.w
         ~n:wl.n ())

let schemes = function
  | Single s -> [ s ]
  | Sharded r -> List.init (Router.arms r) (Router.arm_scheme r)

let disks tg = List.map (fun s -> (Scheme.env s).Env.disk) (schemes tg)

let current_day = function
  | Single s -> Scheme.current_day s
  | Sharded r -> Router.current_day r

(* Single disk: its clock; sharded: the parallel (makespan) clock. *)
let model_seconds = function
  | Single s -> Disk.elapsed (Scheme.env s).Env.disk
  | Sharded r -> Parallel.elapsed (Router.clock r)

let transition = function
  | Single s -> Scheme.transition s
  | Sharded r -> ignore (Router.advance r : float)

let probe tg ~value ~t1 ~t2 =
  match tg with
  | Single s -> Frame.timed_index_probe (Scheme.frame s) ~t1 ~t2 ~value
  | Sharded r -> fst (Router.probe r ~value ~t1 ~t2)

let scan tg ~t1 ~t2 =
  match tg with
  | Single s -> Frame.timed_segment_scan (Scheme.frame s) ~t1 ~t2
  | Sharded r -> fst (Router.scan r ~t1 ~t2)

let transition_span = function Single _ -> "bench.transition" | Sharded _ -> "bench.advance"

let pool_stats tg =
  match tg with
  | Single s -> Option.map Cache.stats (Cache.find (Scheme.env s).Env.disk)
  | Sharded _ -> None

(* Summed disk counters: seeks, blocks read, blocks written, write ops. *)
let disk_counts tg =
  List.fold_left
    (fun (a, b, c, d) dk ->
      let k = Disk.counters dk in
      (a + k.Disk.seeks, b + k.Disk.blocks_read, c + k.Disk.blocks_written, d + k.Disk.write_ops))
    (0, 0, 0, 0) (disks tg)

(* ------------------------------------------------------------------ *)
(* Timed calls                                                        *)
(* ------------------------------------------------------------------ *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Words allocated so far: minor plus direct-to-major allocations. *)
let alloc_words (minor, promoted, major) = minor +. major -. promoted

(* What one [Gc.counters] call itself allocates, subtracted per call. *)
let counters_overhead =
  let a = Gc.counters () in
  let b = Gc.counters () in
  alloc_words b -. alloc_words a

(* Latencies in ns, in flat arrays allocated before the timed days, so
   recording a sample leaves no garbage for the GC to trace. *)
type samples = { xs : float array; mutable len : int }

let samples size = { xs = Array.make size 0.0; len = 0 }

let add s x =
  s.xs.(s.len) <- x;
  s.len <- s.len + 1

let sorted s =
  let a = Array.sub s.xs 0 s.len in
  Array.sort Float.compare a;
  a

type recorder = {
  transitions : samples;
  probes : samples;
  scans : samples;
  mutable call_ns : int;
  mutable gen_ns : int;
  mutable alloc : float;
  mutable minor : float;
  mutable promoted : float;
  mutable postings : int;
  mutable peak_window : int;
}

let recorder wl ~days =
  {
    transitions = samples days;
    probes = samples (days * wl.spec.Query_gen.probes_per_day);
    scans = samples (days * wl.spec.Query_gen.scans_per_day);
    call_ns = 0;
    gen_ns = 0;
    alloc = 0.0;
    minor = 0.0;
    promoted = 0.0;
    postings = 0;
    peak_window = 0;
  }

(* Runs [f] as one timed call (inside a trace span when tracing is on)
   and returns its result with its duration in ns. *)
let timed rc name f =
  let ((m0, p0, _) as c0) = Gc.counters () in
  let t0 = now_ns () in
  let r = Trace.with_span name f in
  let t1 = now_ns () in
  let ((m1, p1, _) as c1) = Gc.counters () in
  (match rc with
  | Some rc ->
    rc.call_ns <- rc.call_ns + (t1 - t0);
    rc.alloc <- rc.alloc +. (alloc_words c1 -. alloc_words c0 -. counters_overhead);
    rc.minor <- rc.minor +. (m1 -. m0 -. counters_overhead);
    rc.promoted <- rc.promoted +. (p1 -. p0)
  | None -> ());
  (r, float_of_int (t1 - t0))

(* One day: admit its input, transition, then serve its queries.  With
   a recorder the day is timed; without one it is warm-up, which serves
   queries only to fill a buffer pool. *)
let run_day wl inp tg rc =
  let d = current_day tg + 1 in
  let g0 = now_ns () in
  let queries =
    Trace.with_span "bench.inputs" (fun () ->
        admit inp d;
        if Option.is_none rc && Option.is_none wl.pool then []
        else Query_gen.day_queries wl.spec ~day:d ~w:wl.w)
  in
  let g1 = now_ns () in
  let record field ns = Option.iter (fun rc -> add (field rc) ns) rc in
  let (), ns = timed rc (transition_span tg) (fun () -> transition tg) in
  record (fun rc -> rc.transitions) ns;
  List.iter
    (fun s -> check (match Scheme.check_window_invariant s with () -> true | exception Failure _ -> false))
    (schemes tg);
  List.iter
    (function
      | Query_gen.Probe { value; t1; t2 } ->
        let es, ns = timed rc "bench.probe" (fun () -> probe tg ~value ~t1 ~t2) in
        record (fun rc -> rc.probes) ns;
        check (digest es = expected_probe inp ~value ~t1 ~t2)
      | Query_gen.Scan { t1; t2 } ->
        let es, ns = timed rc "bench.scan" (fun () -> scan tg ~t1 ~t2) in
        record (fun rc -> rc.scans) ns;
        check (digest es = expected_scan inp ~t1 ~t2))
    queries;
  Option.iter
    (fun rc ->
      rc.gen_ns <- rc.gen_ns + (g1 - g0);
      rc.postings <- rc.postings + (summary inp d).count;
      rc.peak_window <- max rc.peak_window (window_entries inp))
    rc

(* Generate the first window, start, and warm up: everything before
   the first timed day.  Returns the running target and its set-up
   time in ns. *)
let setup wl ~pool =
  Gc.full_major ();
  let t0 = now_ns () in
  let inp = inputs wl in
  for d = 1 to wl.w do
    admit inp d
  done;
  let tg = start wl ~pool inp in
  for _ = 1 to wl.warmup_days do
    run_day wl inp tg None
  done;
  (inp, tg, now_ns () - t0)

(* Deterministic state after set-up; every set-up of one run must
   produce the same. *)
let fingerprint tg =
  let a, b, c, d = disk_counts tg in
  Printf.sprintf "%h/%d/%d/%d/%d/%d" (model_seconds tg) a b c d
    (List.fold_left (fun acc s -> acc + Scheme.allocated_bytes s) 0 (schemes tg))

(* ------------------------------------------------------------------ *)
(* One measured pass over the timed days                             *)
(* ------------------------------------------------------------------ *)

type pass = {
  rc : recorder;
  days : int;
  model_s : float;
  space_amp : float;
  disk : int * int * int * int;  (** deltas over the timed days *)
  cache : (Cache.stats * Cache.stats) option;  (** before, after *)
  skew : float;
  speedup : float;
  major_collections : int;
}

let timed_pass wl ~days ~traced (inp, tg) =
  let rc = recorder wl ~days in
  List.iter Disk.reset_peak (disks tg);
  let m0 = model_seconds tg and k0 = disk_counts tg and c0 = pool_stats tg in
  let g0 = (Gc.quick_stat ()).Gc.major_collections in
  if traced then begin
    Trace.reset ();
    Trace.enable ()
  end;
  for _ = 1 to days do
    run_day wl inp tg (Some rc)
  done;
  if traced then Trace.disable ();
  let a0, b0, c0', d0 = k0 and a1, b1, c1, d1 = disk_counts tg in
  let peak = List.fold_left (fun acc dk -> acc + Disk.peak_blocks dk) 0 (disks tg) in
  let skew, speedup =
    match tg with
    | Single _ -> (1.0, 1.0)
    | Sharded r -> (Parallel.skew_ratio (Router.clock r), Parallel.speedup (Router.clock r))
  in
  {
    rc;
    days;
    model_s = model_seconds tg -. m0;
    space_amp = float_of_int peak /. float_of_int rc.peak_window;
    disk = (a1 - a0, b1 - b0, c1 - c0', d1 - d0);
    cache = (match (c0, pool_stats tg) with Some a, Some b -> Some (a, b) | _ -> None);
    skew;
    speedup;
    major_collections = (Gc.quick_stat ()).Gc.major_collections - g0;
  }

(* ------------------------------------------------------------------ *)
(* Statistics and output                                              *)
(* ------------------------------------------------------------------ *)

let pct a p = Wave_util.Stats.percentile a p

(* The highest whole percentile, capped at 99, with at least ten
   samples above it. *)
let tail a =
  let n = Array.length a in
  let beyond p =
    let v = pct a (float_of_int p) in
    Array.fold_left (fun k x -> if x > v then k + 1 else k) 0 a
  in
  let rec go p =
    if p < 50 then
      failwith (Printf.sprintf "%d samples cannot support a tail percentile" n)
    else if beyond p >= 10 then p
    else go (p - 1)
  in
  let p = go 99 in
  (p, pct a (float_of_int p))

let metric name unit value = (name, Json.Obj [ ("value", Json.Num value); ("unit", Json.Str unit) ])

let per_posting rc x = x /. float_of_int rc.postings

let cache_fields p =
  match p.cache with
  | None -> (0, 0, 0, 0, 0, 0)
  | Some (a, b) ->
    Cache.
      ( b.hits - a.hits,
        b.misses - a.misses,
        b.meta_hits - a.meta_hits,
        b.meta_misses - a.meta_misses,
        b.evictions - a.evictions,
        b.readaheads - a.readaheads )

(* Values that must repeat bit for bit in every run of one build with
   the same arguments. *)
let exact_of p =
  let seeks, br, bw, wo = p.disk in
  let h, m, mh, mm, ev, ra = cache_fields p in
  [
    ("model_s", p.model_s);
    ("space_amp", p.space_amp);
    ("alloc_words", p.rc.alloc);
    ("minor_words", p.rc.minor);
    ("promoted_words", p.rc.promoted);
    ("major_collections", float_of_int p.major_collections);
    ("postings", float_of_int p.rc.postings);
    ("seeks", float_of_int seeks);
    ("blocks_read", float_of_int br);
    ("blocks_written", float_of_int bw);
    ("write_ops", float_of_int wo);
    ("cache_hits", float_of_int h);
    ("cache_misses", float_of_int m);
    ("cache_meta_hits", float_of_int mh);
    ("cache_meta_misses", float_of_int mm);
    ("cache_evictions", float_of_int ev);
    ("cache_readaheads", float_of_int ra);
    ("skew_ratio", p.skew);
    ("speedup", p.speedup);
  ]

let peak_heap_mb () = float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

let end_to_end ~setup_ns ~heap_mb p =
  let rc = p.rc in
  let tr = sorted rc.transitions and pr = sorted rc.probes and sc = sorted rc.scans in
  let tail_info label a =
    let q, _ = tail a in
    Printf.printf "%s: %d samples, tail = p%d\n" label (Array.length a) q
  in
  tail_info "transition" tr;
  tail_info "scan" sc;
  let setup_s = Wave_util.Stats.median (Array.of_list setup_ns) /. 1e9 in
  [
    metric "setup_s" "s" setup_s;
    metric "wall_s" "s" (float_of_int rc.call_ns /. 1e9);
    metric "ingest_us_per_posting" "us"
      (per_posting rc (Array.fold_left ( +. ) 0.0 tr) /. 1e3);
    metric "transition_ms_p50" "ms" (pct tr 50.0 /. 1e6);
    metric "transition_ms_tail" "ms" (snd (tail tr) /. 1e6);
    metric "probe_us_p50" "us" (pct pr 50.0 /. 1e3);
    metric "scan_ms_p50" "ms" (pct sc 50.0 /. 1e6);
    metric "scan_ms_tail" "ms" (snd (tail sc) /. 1e6);
    metric "alloc_words_per_posting" "words" (per_posting rc rc.alloc);
    metric "peak_heap_mb" "MB" heap_mb;
    metric "model_s" "s" p.model_s;
    metric "space_amp" "ratio" p.space_amp;
  ]

(* Self time of every finished span, summed by name, with counts. *)
let self_by_name () =
  let spans = Trace.spans () in
  let child = Hashtbl.create 4096 in
  List.iter
    (fun (s : Trace.span) ->
      if s.Trace.parent <> 0 then
        Hashtbl.replace child s.Trace.parent
          (Trace.wall_seconds s
          +. Option.value (Hashtbl.find_opt child s.Trace.parent) ~default:0.0))
    spans;
  let by = Hashtbl.create 64 in
  List.iter
    (fun (s : Trace.span) ->
      let self =
        Trace.wall_seconds s -. Option.value (Hashtbl.find_opt child s.Trace.id) ~default:0.0
      in
      let t, k = Option.value (Hashtbl.find_opt by s.Trace.name) ~default:(0.0, 0) in
      Hashtbl.replace by s.Trace.name (t +. self, k + 1))
    spans;
  fun name -> fst (Option.value (Hashtbl.find_opt by name) ~default:(0.0, 0))

let per_layer wl ~self ~base ~traced ~twin_wall =
  let rc = traced.rc in
  let wall = float_of_int rc.call_ns /. 1e9 in
  let frac x = x /. wall in
  let days = float_of_int traced.days in
  let n_probes = float_of_int rc.probes.len and n_scans = float_of_int rc.scans.len in
  (* [index.copy] runs only under simple shadowing, which no workload
     uses; it still counts towards the update total. *)
  let index_ops = [ "add"; "delete"; "pack"; "build" ] in
  let index_update =
    List.fold_left (fun acc op -> acc +. self ("index." ^ op)) 0.0 ("copy" :: index_ops)
  in
  let index_all = index_update +. self "index.probe" +. self "index.scan" in
  let update_self =
    List.fold_left
      (fun acc n -> acc +. self n)
      0.0
      [ "BuildIndex"; "AddToIndex"; "DeleteFromIndex"; "ReplaceInIndex" ]
  in
  let sharded = wl.shards <> None in
  let base_wall = float_of_int base.rc.call_ns /. 1e9 in
  let seeks, br, bw, wo = base.disk in
  let h, m, mh, mm, ev, ra = cache_fields base in
  let ratio a b = if a + b = 0 then 0.0 else float_of_int a /. float_of_int (a + b) in
  let bpp x = per_posting base.rc (float_of_int x) in
  [
    metric "storage.index.update_self_us_per_posting" "us" (per_posting rc index_update *. 1e6);
    metric "storage.index.probe_self_us" "us" (self "index.probe" /. n_probes *. 1e6);
    metric "storage.index.scan_self_ms" "ms" (self "index.scan" /. n_scans *. 1e3);
    metric "storage.index.self_frac" "frac" (frac index_all);
  ]
  @ List.map
      (fun op ->
        metric (Printf.sprintf "storage.index.%s_self_frac" op) "frac" (frac (self ("index." ^ op))))
      index_ops
  @ [
      metric "core.frame.probe_self_us" "us" (self "bench.probe" /. n_probes *. 1e6);
      metric "core.frame.scan_self_ms" "ms" (self "bench.scan" /. n_scans *. 1e3);
      metric "core.update.self_ms_per_day" "ms" (update_self /. days *. 1e3);
      metric "core.scheme.self_ms_per_day" "ms" (self "transition" /. days *. 1e3);
      metric "cache.hit_ratio" "ratio" (ratio h m);
      metric "cache.meta_hit_ratio" "ratio" (ratio mh mm);
      metric "cache.touches_per_posting" "count" (bpp (h + m + mh + mm));
      metric "cache.evictions_per_posting" "count" (bpp ev);
      metric "cache.readahead_blocks" "count" (float_of_int ra);
      metric "cache.wall_share" "frac" ((wall -. twin_wall) /. wall);
      metric "cache.traced_wall_s" "s" wall;
      metric "cache.pool_off_traced_wall_s" "s" twin_wall;
      metric "shard.scan_self_frac" "frac" (if sharded then frac (self "bench.scan") else 0.0);
      metric "shard.advance_self_frac" "frac"
        (if sharded then frac (self "bench.advance") else 0.0);
      metric "shard.skew_ratio" "ratio" base.skew;
      metric "shard.speedup" "ratio" base.speedup;
      metric "disk.seeks_per_posting" "count" (bpp seeks);
      metric "disk.blocks_read_per_posting" "count" (bpp br);
      metric "disk.blocks_written_per_posting" "count" (bpp bw);
      metric "disk.write_ops_per_posting" "count" (bpp wo);
      metric "gc.minor_words_per_posting" "words" (per_posting base.rc base.rc.minor);
      metric "gc.promoted_words_per_posting" "words" (per_posting base.rc base.rc.promoted);
      metric "gc.major_collections" "count" (float_of_int base.major_collections);
      metric "workload.gen_ms_per_day" "ms"
        (float_of_int base.rc.gen_ns /. float_of_int base.days /. 1e6);
      metric "obs.trace_overhead_frac" "frac" ((wall /. base_wall) -. 1.0);
    ]

(* ------------------------------------------------------------------ *)
(* Main                                                               *)
(* ------------------------------------------------------------------ *)

(* The traced run makes two or three passes, so each covers half the
   days of an end-to-end run. *)
let run wl ~seconds ~trace ~out_dir =
  let days = timed_days wl ~seconds:(if trace then seconds / 2 else seconds) in
  let setup_ns = ref [] and fingerprints = ref [] in
  let ready = ref None in
  for _ = 1 to (if trace then 1 else wl.setups) do
    let inp, tg, ns = setup wl ~pool:wl.pool in
    setup_ns := float_of_int ns :: !setup_ns;
    fingerprints := fingerprint tg :: !fingerprints;
    ready := Some (inp, tg)
  done;
  (* Every set-up replays the same inputs, so each must land on the
     same model state. *)
  List.iter (fun f -> check (f = List.hd !fingerprints)) (List.tl !fingerprints);
  let base = timed_pass wl ~days ~traced:false (Option.get !ready) in
  ready := None;
  if not trace then begin
    let heap_mb = peak_heap_mb () in
    (end_to_end ~setup_ns:!setup_ns ~heap_mb base, ("peak_heap_mb", heap_mb) :: exact_of base)
  end
  else begin
    let traced_pass ~pool =
      let inp, tg, _ = setup wl ~pool in
      timed_pass wl ~days ~traced:true (inp, tg)
    in
    let traced = traced_pass ~pool:wl.pool in
    (* Tracing must not change what the index does. *)
    check (traced.model_s = base.model_s && traced.disk = base.disk);
    let spans_path =
      Filename.concat out_dir (Printf.sprintf "spans-%s.json" wl.name)
    in
    Wave_obs.Sink.write_chrome ~clock:`Wall ~path:spans_path ~spans:(Trace.spans ())
      ~instants:[] ();
    let self = self_by_name () in
    let twin_wall =
      match wl.pool with
      | None -> float_of_int traced.rc.call_ns /. 1e9
      | Some _ -> float_of_int (traced_pass ~pool:None).rc.call_ns /. 1e9
    in
    (per_layer wl ~self ~base ~traced ~twin_wall, exact_of base)
  end

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let out_dir = ref "." in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME scam-pool | wse-ingest | tpcd-shard-scan");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S measured seconds (sets the number of timed days)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or the traced per-layer run");
      ("--out-dir", Arg.Set_string out_dir, "DIR where the traced run writes its spans");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "wavebench.exe --workload NAME --seed N --seconds S --trace 0|1";
  match List.find_opt (fun wl -> wl.name = !workload) (workloads ~seed:!seed) with
  | None ->
    prerr_endline ("wavebench: unknown workload " ^ !workload);
    exit 2
  | Some wl ->
    let metrics, exact =
      run wl ~seconds:(max 1 !seconds) ~trace:(!trace = 1) ~out_dir:!out_dir
    in
    print_endline
      (Json.to_string
         (Json.Obj
            [
              ("correct", Json.Bool (!failed = 0));
              ("attempted", Json.int !attempted);
              ("failed", Json.int !failed);
              ("metrics", Json.Obj metrics);
              ("exact", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) exact));
            ]))
