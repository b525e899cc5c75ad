type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let int n = Num (float_of_int n)

(* --- printing ------------------------------------------------------- *)

let escape_to buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let num_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let to_string ?(pretty = false) t =
  let buf = Buffer.create 256 in
  let pad depth = if pretty then Buffer.add_string buf (String.make (2 * depth) ' ') in
  let nl () = if pretty then Buffer.add_char buf '\n' in
  let rec go depth t =
    match t with
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num f ->
      if Float.is_nan f || f = infinity || f = neg_infinity then
        Buffer.add_string buf "null"
      else Buffer.add_string buf (num_to_string f)
    | Str s -> escape_to buf s
    | Arr [] -> Buffer.add_string buf "[]"
    | Arr xs ->
      Buffer.add_char buf '[';
      nl ();
      List.iteri
        (fun i x ->
          if i > 0 then begin
            Buffer.add_char buf ',';
            nl ()
          end;
          pad (depth + 1);
          go (depth + 1) x)
        xs;
      nl ();
      pad depth;
      Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj kvs ->
      Buffer.add_char buf '{';
      nl ();
      List.iteri
        (fun i (k, v) ->
          if i > 0 then begin
            Buffer.add_char buf ',';
            nl ()
          end;
          pad (depth + 1);
          escape_to buf k;
          Buffer.add_char buf ':';
          if pretty then Buffer.add_char buf ' ';
          go (depth + 1) v)
        kvs;
      nl ();
      pad depth;
      Buffer.add_char buf '}'
  in
  go 0 t;
  Buffer.contents buf

(* --- parsing -------------------------------------------------------- *)

exception Bad of int * string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let digit c =
      match c with
      | '0' .. '9' -> Char.code c - 48
      | 'a' .. 'f' -> Char.code c - 87
      | 'A' .. 'F' -> Char.code c - 55
      | _ -> fail "bad \\u escape"
    in
    let v = ref 0 in
    for i = 0 to 3 do
      v := (!v lsl 4) lor digit s.[!pos + i]
    done;
    pos := !pos + 4;
    !v
  in
  let add_utf8 buf cp =
    if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else if cp < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
        advance ();
        match peek () with
        | Some '"' -> advance (); Buffer.add_char buf '"'; go ()
        | Some '\\' -> advance (); Buffer.add_char buf '\\'; go ()
        | Some '/' -> advance (); Buffer.add_char buf '/'; go ()
        | Some 'b' -> advance (); Buffer.add_char buf '\b'; go ()
        | Some 'f' -> advance (); Buffer.add_char buf '\012'; go ()
        | Some 'n' -> advance (); Buffer.add_char buf '\n'; go ()
        | Some 'r' -> advance (); Buffer.add_char buf '\r'; go ()
        | Some 't' -> advance (); Buffer.add_char buf '\t'; go ()
        | Some 'u' ->
          advance ();
          let cp = hex4 () in
          let cp =
            (* Combine a high surrogate with the following \uXXXX; a
               surrogate half with no partner is a parse error rather
               than WTF-8 output that other tools would choke on. *)
            if cp >= 0xD800 && cp <= 0xDBFF then begin
              if
                !pos + 6 <= n && s.[!pos] = '\\' && s.[!pos + 1] = 'u'
              then begin
                pos := !pos + 2;
                let lo = hex4 () in
                if lo >= 0xDC00 && lo <= 0xDFFF then
                  0x10000 + (((cp - 0xD800) lsl 10) lor (lo - 0xDC00))
                else fail "unpaired surrogate"
              end
              else fail "unpaired surrogate"
            end
            else if cp >= 0xDC00 && cp <= 0xDFFF then fail "unpaired surrogate"
            else cp
          in
          add_utf8 buf cp;
          go ()
        | _ -> fail "bad escape")
      | Some c when Char.code c < 0x20 -> fail "raw control char in string"
      | Some c ->
        advance ();
        Buffer.add_char buf c;
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    match float_of_string_opt tok with
    | Some f -> Num f
    | None -> fail (Printf.sprintf "bad number %S" tok)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((k, v) :: acc)
          | Some '}' ->
            advance ();
            List.rev ((k, v) :: acc)
          | _ -> fail "expected ',' or '}'"
        in
        Obj (members [])
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else begin
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> fail "expected ',' or ']'"
        in
        Arr (elements [])
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected %C" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad (at, msg) -> Error (Printf.sprintf "at %d: %s" at msg)

(* --- accessors ------------------------------------------------------ *)

let member k = function
  | Obj kvs -> List.assoc_opt k kvs
  | _ -> None

let to_float = function Num f -> Some f | _ -> None
let to_str = function Str s -> Some s | _ -> None
let to_list = function Arr xs -> Some xs | _ -> None

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool a, Bool b -> a = b
  | Num a, Num b -> a = b
  | Str a, Str b -> String.equal a b
  | Arr a, Arr b -> List.length a = List.length b && List.for_all2 equal a b
  | Obj a, Obj b ->
    List.length a = List.length b
    && List.for_all2 (fun (k, v) (k', v') -> String.equal k k' && equal v v') a b
  | _ -> false

(* --- checked readers -------------------------------------------------- *)

module Read = struct
  type 'a r = ('a, string) result

  let ( let* ) = Result.bind

  let fail at fmt =
    Printf.ksprintf (fun m -> Error (if at = "" then m else at ^ ": " ^ m)) fmt

  let str at k j =
    match member k j with Some (Str s) -> Ok s | _ -> fail at "missing string %S" k

  let expect at k want j =
    let* s = str at k j in
    if s = want then Ok () else fail at "%s %S, expected %S" k s want

  let above at k lo v =
    if v >= lo then Ok v
    else if lo = 0.0 then fail at "%S is negative" k
    else fail at "%S below %g" k lo

  let num ?lo at k j =
    match member k j with
    | Some (Num v) when Float.is_finite v -> (
      match lo with None -> Ok v | Some lo -> above at k lo v)
    | Some (Num _) -> fail at "non-finite %S" k
    | _ -> fail at "missing numeric %S" k

  let int ?lo at k j =
    match member k j with
    | Some (Num v) when Float.is_integer v && Float.abs v < 0x1p62 -> (
      match lo with
      | None -> Ok (int_of_float v)
      | Some lo -> Result.map int_of_float (above at k (float_of_int lo) v))
    | Some (Num v) when Float.is_integer v -> fail at "%S out of range" k
    | Some (Num _) -> fail at "%S is not an integer" k
    | _ -> fail at "missing numeric %S" k

  let num_or_null at k j =
    match member k j with
    | Some Null -> Ok None
    | Some (Num v) when Float.is_finite v -> Ok (Some v)
    | Some _ -> fail at "%S must be a finite number or null" k
    | None -> fail at "missing %S (number or null)" k

  let arr ?(nonempty = false) at k j =
    match member k j with
    | Some (Arr []) when nonempty -> fail at "empty %S array" k
    | Some (Arr xs) -> Ok xs
    | _ -> fail at "missing %S array" k

  let obj at k j =
    match member k j with
    | Some (Obj _ as o) -> Ok o
    | _ -> fail at "missing %S object" k

  let all read at keys j =
    List.fold_left
      (fun acc k ->
        let* () = acc in
        Result.map ignore (read at k j))
      (Ok ()) keys

  let opt read at k j =
    match member k j with
    | None -> Ok None
    | Some _ -> Result.map Option.some (read at k j)

  let labelled ?(key = "name") f i x =
    f i (match member key x with Some (Str s) -> Some s | _ -> None)

  let named ?key fmt =
    labelled ?key (fun i name ->
        let at = Printf.sprintf fmt i in
        match name with Some s -> Printf.sprintf "%s (%S)" at s | None -> at)

  let fold ~label f init xs =
    let rec go i acc = function
      | [] -> Ok acc
      | x :: rest ->
        let* acc = f (label i x) acc x in
        go (i + 1) acc rest
    in
    go 0 init xs

  let map ~label f xs =
    let* ys = fold ~label (fun at acc x -> Result.map (fun y -> y :: acc) (f at x)) [] xs in
    Ok (List.rev ys)

  let text path =
    match In_channel.with_open_bin path In_channel.input_all with
    | text -> Ok text
    | exception Sys_error msg ->
      (* Open errors name the path; read errors ("Is a directory") do not. *)
      Error (if String.starts_with ~prefix:path msg then msg else path ^ ": " ^ msg)

  let parse at text = Result.map_error (Printf.sprintf "%s: bad JSON: %s" at) (parse text)
  let of_file path = Result.bind (text path) (parse path)
end
