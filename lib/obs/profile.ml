type node = {
  name : string;
  path : string list;
  mutable calls : int;
  mutable total_model : float;
  mutable self_model : float;
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
  mutable children : node list;
}

type t = { mutable tree : node list; span_count : int }

let fresh_node ~path name =
  {
    name;
    path;
    calls = 0;
    total_model = 0.0;
    self_model = 0.0;
    seeks = 0;
    self_seeks = 0;
    blocks_read = 0;
    self_blocks_read = 0;
    blocks_written = 0;
    self_blocks_written = 0;
    bytes_read = 0;
    self_bytes_read = 0;
    bytes_written = 0;
    self_bytes_written = 0;
    children = [];
  }

(* Per-span sums of the direct children's inclusive totals, used to
   compute self = total - children.  Counter attribution is inclusive
   by construction (every disk hook lands on all open spans), so the
   integer selves are exact; the model clock is a float subtraction and
   gets clamped at zero. *)
type child_sum = {
  mutable c_model : float;
  mutable c_seeks : int;
  mutable c_blocks_read : int;
  mutable c_blocks_written : int;
  mutable c_bytes_read : int;
  mutable c_bytes_written : int;
}

let of_spans spans =
  (* Ids are assigned at span begin, so a parent's id is always smaller
     than its children's: processing in id order guarantees the parent
     node exists before any child asks for it. *)
  let spans =
    List.sort (fun a b -> compare a.Trace.id b.Trace.id) spans
  in
  let sums : (int, child_sum) Hashtbl.t = Hashtbl.create 64 in
  let sum_of id =
    match Hashtbl.find_opt sums id with
    | Some s -> s
    | None ->
      let s =
        {
          c_model = 0.0;
          c_seeks = 0;
          c_blocks_read = 0;
          c_blocks_written = 0;
          c_bytes_read = 0;
          c_bytes_written = 0;
        }
      in
      Hashtbl.add sums id s;
      s
  in
  let known = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace known s.Trace.id ()) spans;
  List.iter
    (fun (s : Trace.span) ->
      if s.Trace.parent <> 0 && Hashtbl.mem known s.Trace.parent then begin
        let c = sum_of s.Trace.parent in
        c.c_model <- c.c_model +. Trace.model_seconds s;
        c.c_seeks <- c.c_seeks + s.Trace.seeks;
        c.c_blocks_read <- c.c_blocks_read + s.Trace.blocks_read;
        c.c_blocks_written <- c.c_blocks_written + s.Trace.blocks_written;
        c.c_bytes_read <- c.c_bytes_read + s.Trace.bytes_read;
        c.c_bytes_written <- c.c_bytes_written + s.Trace.bytes_written
      end)
    spans;
  let t = { tree = []; span_count = List.length spans } in
  let node_of_span : (int, node) Hashtbl.t = Hashtbl.create 64 in
  let locate (s : Trace.span) =
    let parent =
      if s.Trace.parent = 0 then None
      else Hashtbl.find_opt node_of_span s.Trace.parent
    in
    let siblings, parent_path =
      match parent with
      | Some p -> (p.children, p.path)
      | None -> (t.tree, [])
    in
    match List.find_opt (fun n -> String.equal n.name s.Trace.name) siblings with
    | Some n -> n
    | None ->
      let n = fresh_node ~path:(parent_path @ [ s.Trace.name ]) s.Trace.name in
      (match parent with
      | Some p -> p.children <- n :: p.children
      | None -> t.tree <- n :: t.tree);
      n
  in
  List.iter
    (fun (s : Trace.span) ->
      let n = locate s in
      Hashtbl.replace node_of_span s.Trace.id n;
      let model = Trace.model_seconds s in
      let c =
        match Hashtbl.find_opt sums s.Trace.id with
        | Some c -> c
        | None ->
          {
            c_model = 0.0;
            c_seeks = 0;
            c_blocks_read = 0;
            c_blocks_written = 0;
            c_bytes_read = 0;
            c_bytes_written = 0;
          }
      in
      n.calls <- n.calls + 1;
      n.total_model <- n.total_model +. model;
      n.self_model <- n.self_model +. Float.max 0.0 (model -. c.c_model);
      n.seeks <- n.seeks + s.Trace.seeks;
      n.self_seeks <- n.self_seeks + (s.Trace.seeks - c.c_seeks);
      n.blocks_read <- n.blocks_read + s.Trace.blocks_read;
      n.self_blocks_read <- n.self_blocks_read + (s.Trace.blocks_read - c.c_blocks_read);
      n.blocks_written <- n.blocks_written + s.Trace.blocks_written;
      n.self_blocks_written <-
        n.self_blocks_written + (s.Trace.blocks_written - c.c_blocks_written);
      n.bytes_read <- n.bytes_read + s.Trace.bytes_read;
      n.self_bytes_read <- n.self_bytes_read + (s.Trace.bytes_read - c.c_bytes_read);
      n.bytes_written <- n.bytes_written + s.Trace.bytes_written;
      n.self_bytes_written <-
        n.self_bytes_written + (s.Trace.bytes_written - c.c_bytes_written))
    spans;
  let by_total a b = Float.compare b.total_model a.total_model in
  let rec sort_children n =
    n.children <- List.sort by_total n.children;
    List.iter sort_children n.children
  in
  t.tree <- List.sort by_total t.tree;
  List.iter sort_children t.tree;
  t

let roots t = t.tree
let span_count t = t.span_count

let total_model t =
  List.fold_left (fun acc n -> acc +. n.total_model) 0.0 t.tree

let nodes t =
  let rec go acc n = List.fold_left go (n :: acc) n.children in
  List.rev (List.fold_left go [] t.tree)

let find t path =
  let rec go siblings = function
    | [] -> None
    | [ name ] -> List.find_opt (fun n -> String.equal n.name name) siblings
    | name :: rest -> (
      match List.find_opt (fun n -> String.equal n.name name) siblings with
      | Some n -> go n.children rest
      | None -> None)
  in
  go t.tree path

let path_string n = String.concat "/" n.path

let top_self ?(k = 10) ?under t =
  let pool =
    match under with
    | None -> nodes t
    | Some path -> (
      match find t path with
      | None -> []
      | Some n ->
        let rec go acc n = List.fold_left go (n :: acc) n.children in
        List.rev (go [] n))
  in
  let sorted =
    List.sort (fun a b -> Float.compare b.self_model a.self_model) pool
  in
  List.filteri (fun i _ -> i < k) sorted

let folded t =
  let buf = Buffer.create 1024 in
  let rec go n =
    if n.self_model > 0.0 || n.children = [] then
      Buffer.add_string buf
        (Printf.sprintf "%s %.9f\n" (String.concat ";" n.path) n.self_model);
    List.iter go n.children
  in
  List.iter go t.tree;
  Buffer.contents buf

let schema = "waveidx-profile/1"

let rec node_json n =
  Json.Obj
    [
      ("name", Json.Str n.name);
      ("calls", Json.int n.calls);
      ("total_model_s", Json.Num n.total_model);
      ("self_model_s", Json.Num n.self_model);
      ("seeks", Json.int n.seeks);
      ("self_seeks", Json.int n.self_seeks);
      ("blocks_read", Json.int n.blocks_read);
      ("self_blocks_read", Json.int n.self_blocks_read);
      ("blocks_written", Json.int n.blocks_written);
      ("self_blocks_written", Json.int n.self_blocks_written);
      ("bytes_read", Json.int n.bytes_read);
      ("self_bytes_read", Json.int n.self_bytes_read);
      ("bytes_written", Json.int n.bytes_written);
      ("self_bytes_written", Json.int n.self_bytes_written);
      ("children", Json.Arr (List.map node_json n.children));
    ]

let to_json t =
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("unit", Json.Str "model-seconds");
      ("total_model_s", Json.Num (total_model t));
      ("spans", Json.int t.span_count);
      ("roots", Json.Arr (List.map node_json t.tree));
    ]

(* --- parsing: read a profile document back ---------------------------- *)

module R = Json.Read

let ( let* ) = Result.bind

(* A node is labelled by its '/'-joined path, or by its index under its
   parent when it has no name. *)
let child_label at =
  R.labelled (fun i -> function
    | Some name -> at ^ "/" ^ name
    | None -> Printf.sprintf "%s/[%d]" at i)

let rec node_of_json parent_path at j =
  let* name = R.str at "name" j in
  let path = parent_path @ [ name ] in
  let* calls = R.int ~lo:1 at "calls" j in
  let num k = R.num ~lo:0.0 at k j and int k = R.int ~lo:0 at k j in
  let* total_model = num "total_model_s" in
  let* self_model = num "self_model_s" in
  let* seeks = int "seeks" in
  let* self_seeks = int "self_seeks" in
  let* blocks_read = int "blocks_read" in
  let* self_blocks_read = int "self_blocks_read" in
  let* blocks_written = int "blocks_written" in
  let* self_blocks_written = int "self_blocks_written" in
  let* bytes_read = int "bytes_read" in
  let* self_bytes_read = int "self_bytes_read" in
  let* bytes_written = int "bytes_written" in
  let* self_bytes_written = int "self_bytes_written" in
  let* kids = R.arr at "children" j in
  let* children = R.map ~label:(child_label at) (node_of_json path) kids in
  Ok
    {
      name; path; calls; total_model; self_model; seeks; self_seeks;
      blocks_read; self_blocks_read; blocks_written; self_blocks_written;
      bytes_read; self_bytes_read; bytes_written; self_bytes_written;
      children;
    }

let of_json j =
  let* () = R.expect "" "schema" schema j in
  let* () = R.expect "" "unit" "model-seconds" j in
  let* _ = R.num ~lo:0.0 "" "total_model_s" j in
  let* spans = R.opt (R.int ~lo:0) "" "spans" j in
  let* roots = R.arr "" "roots" j in
  let* tree = R.map ~label:(child_label "") (node_of_json []) roots in
  Ok { tree; span_count = Option.value ~default:0 spans }

(* --- diffing: align two trees by span-stack path ---------------------- *)

type diff_status = Common | Added | Removed

type diff_entry = {
  d_path : string list;
  d_status : diff_status;
  d_base : node option;
  d_cur : node option;
  d_calls : int;
  d_total : float;
  d_self : float;
  d_seeks : int;
  d_blocks : int;
  d_bytes : int;
}

type diff = {
  entries : diff_entry list;
  base_total : float;
  cur_total : float;
}

let entry_of ~path ~base ~cur =
  let f get = function Some n -> get n | None -> 0.0 in
  let i get = function Some n -> get n | None -> 0 in
  let blocks n = n.blocks_read + n.blocks_written in
  let bytes n = n.bytes_read + n.bytes_written in
  {
    d_path = path;
    d_status =
      (match (base, cur) with
      | Some _, Some _ -> Common
      | None, Some _ -> Added
      | Some _, None -> Removed
      | None, None -> assert false);
    d_base = base;
    d_cur = cur;
    d_calls = i (fun n -> n.calls) cur - i (fun n -> n.calls) base;
    d_total = f (fun n -> n.total_model) cur -. f (fun n -> n.total_model) base;
    d_self = f (fun n -> n.self_model) cur -. f (fun n -> n.self_model) base;
    d_seeks = i (fun n -> n.seeks) cur - i (fun n -> n.seeks) base;
    d_blocks = i blocks cur - i blocks base;
    d_bytes = i bytes cur - i bytes base;
  }

let diff ~baseline ~current =
  (* Alignment is by path, so two trees whose siblings merely reordered
     (cost shifts re-sort children) still pair node for node. *)
  let index t =
    let tbl = Hashtbl.create 64 in
    List.iter (fun n -> Hashtbl.replace tbl (path_string n) n) (nodes t);
    tbl
  in
  let b = index baseline and c = index current in
  let seen = Hashtbl.create 64 in
  let entries = ref [] in
  let consider n =
    let key = path_string n in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.replace seen key ();
      entries :=
        entry_of ~path:n.path ~base:(Hashtbl.find_opt b key)
          ~cur:(Hashtbl.find_opt c key)
        :: !entries
    end
  in
  List.iter consider (nodes current);
  List.iter consider (nodes baseline);
  let by_magnitude a b =
    match Float.compare (Float.abs b.d_self) (Float.abs a.d_self) with
    | 0 -> compare a.d_path b.d_path
    | c -> c
  in
  {
    entries = List.sort by_magnitude !entries;
    base_total = total_model baseline;
    cur_total = total_model current;
  }

let diff_top ?(k = 10) d = List.filteri (fun i _ -> i < k) d.entries

let diff_status_name = function
  | Common -> "common"
  | Added -> "added"
  | Removed -> "removed"

let diff_report ?(k = 10) d =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let pct =
    if d.base_total = 0.0 then if d.cur_total = 0.0 then 0.0 else infinity
    else (d.cur_total -. d.base_total) /. d.base_total *. 100.0
  in
  line "profile diff: total %.4f -> %.4f model-s (%+.1f%%), %d node(s) changed"
    d.base_total d.cur_total pct
    (List.length
       (List.filter
          (fun e -> e.d_status <> Common || Float.abs e.d_self > 0.0)
          d.entries));
  line "  %-52s %8s %12s %12s %8s %8s" "path" "status" "dself(ms)" "dtotal(ms)"
    "dseeks" "dblocks";
  List.iter
    (fun e ->
      line "  %-52s %8s %+12.4f %+12.4f %+8d %+8d"
        (String.concat "/" e.d_path)
        (diff_status_name e.d_status)
        (e.d_self *. 1e3) (e.d_total *. 1e3) e.d_seeks e.d_blocks)
    (diff_top ~k d);
  Buffer.contents buf

let diff_entry_json e =
  Json.Obj
    [
      ("path", Json.Str (String.concat "/" e.d_path));
      ("status", Json.Str (diff_status_name e.d_status));
      ("delta_calls", Json.int e.d_calls);
      ("delta_total_model_s", Json.Num e.d_total);
      ("delta_self_model_s", Json.Num e.d_self);
      ("delta_seeks", Json.int e.d_seeks);
      ("delta_blocks", Json.int e.d_blocks);
      ("delta_bytes", Json.int e.d_bytes);
    ]

let diff_json d =
  Json.Obj
    [
      ("schema", Json.Str "waveidx-profile-diff/1");
      ("unit", Json.Str "model-seconds");
      ("baseline_total_model_s", Json.Num d.base_total);
      ("current_total_model_s", Json.Num d.cur_total);
      ("entries", Json.Arr (List.map diff_entry_json d.entries));
    ]
