(** Minimal JSON tree, printer and parser.

    The observability sinks need to both emit machine-readable
    artifacts (JSONL event logs, Chrome [trace_event] files,
    [BENCH_wave.json]) and re-parse them for validation, without
    pulling a JSON dependency into the build.  This module is that
    self-contained substrate: a plain constructor tree, a printer that
    always emits valid JSON (non-finite floats become [null], control
    characters are escaped), and a strict recursive-descent parser.

    Not a streaming parser; inputs are whole strings.  [\uXXXX] escapes
    decode to UTF-8 (surrogate pairs are combined). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val int : int -> t
(** [int n] is [Num (float_of_int n)]. *)

val to_string : ?pretty:bool -> t -> string
(** Render as JSON text.  [pretty] (default false) adds newlines and
    two-space indentation. *)

val parse : string -> (t, string) result
(** Parse a complete JSON document; trailing non-whitespace is an
    error.  Error strings carry a character offset. *)

val member : string -> t -> t option
(** [member k (Obj kvs)] is the first binding of [k], if any; [None]
    on non-objects. *)

val to_float : t -> float option
(** [Num] payload, if the value is a number. *)

val to_str : t -> string option
(** [Str] payload, if the value is a string. *)

val to_list : t -> t list option
(** [Arr] payload, if the value is an array. *)

val equal : t -> t -> bool
(** Structural equality; object key order is significant. *)

(** {1 Checked readers}

    Every JSON document waveidx reads back — bench snapshots, profiles,
    trace and flight dumps, series dumps, alert rules and SLO specs —
    is decoded through these combinators, so each format has exactly
    one reader and every error reads the same way: the element's label
    ([benchmark 3 ("probe/DEL")], [profile.top[0]], [/day/phase.query],
    [event 4], [rule "a"]), then the field, then what is wrong with it
    ([missing string "name"], [missing numeric "p50"], ["runs" below 1],
    ["p95" is negative], [non-finite "ts"]).  Every reader is total:
    malformed input is an [Error], never an exception. *)
module Read : sig
  type 'a r = ('a, string) result

  val fail : string -> ('a, unit, string, 'b r) format4 -> 'a
  (** [fail at fmt] is [Error "at: msg"] ([Error "msg"] when [at] is
      empty). *)

  val str : string -> string -> t -> string r
  (** [str at k j] is the string field [k] of object [j]. *)

  val expect : string -> string -> string -> t -> unit r
  (** [expect at k want j]: string field [k] equals [want] — schema and
      unit tags. *)

  val num : ?lo:float -> string -> string -> t -> float r
  (** A finite number, at least [lo] when given. *)

  val int : ?lo:int -> string -> string -> t -> int r
  (** A number with no fractional part that fits an OCaml [int], at
      least [lo] when given. *)

  val num_or_null : string -> string -> t -> float option r
  (** A present field that is a finite number or [null]. *)

  val arr : ?nonempty:bool -> string -> string -> t -> t list r
  (** An array field, non-empty when [nonempty] (default false). *)

  val obj : string -> string -> t -> t r
  (** An object field. *)

  val all : (string -> string -> t -> 'a r) -> string -> string list -> t -> unit r
  (** [all read at keys j] applies [read] to every field in [keys]. *)

  val opt :
    (string -> string -> t -> 'a r) -> string -> string -> t -> 'a option r
  (** [opt read at k j]: [Ok None] when [k] is absent, else [read]. *)

  val labelled : ?key:string -> (int -> string option -> string) -> int -> t -> string
  (** [labelled f i x] is [f i name] where [name] is [x]'s string field
      [key] (default ["name"]), if it has one. *)

  val named : ?key:string -> (int -> string, unit, string) format -> int -> t -> string
  (** [named "benchmark %d"] labels element [i] [benchmark i ("n")], or
      [benchmark i] when it has no string [key]. *)

  val fold :
    label:(int -> 'x -> string) ->
    (string -> 'a -> 'x -> 'a r) -> 'a -> 'x list -> 'a r
  (** Thread an accumulator through the elements, passing each its
      label; stops at the first error. *)

  val map :
    label:(int -> 'x -> string) -> (string -> 'x -> 'b r) -> 'x list -> 'b list r

  val text : string -> string r
  (** A whole file's contents; an unreadable path is an [Error] naming
      it. *)

  val parse : string -> string -> t r
  (** [parse at text] is {!Json.parse}, its errors labelled [at]. *)

  val of_file : string -> t r
  (** {!text} then {!parse} labelled by the path. *)
end
