(* The one JSON codec (see json.mli). The parser is result-style
   throughout: lib/ is linted with forbid-exn. *)

type t =
  | Null
  | Bool of bool
  | Num of string
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let int n = Num (string_of_int n)

let fixed ~decimals f =
  if Float.is_finite f then Num (Printf.sprintf "%.*f" decimals f) else Null

(* --- printer ------------------------------------------------------- *)

let add_escaped b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let rec add_value b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Num n -> Buffer.add_string b n
  | Str s -> add_escaped b s
  | Arr items ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          add_value b v)
        items;
      Buffer.add_char b ']'
  | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          add_escaped b k;
          Buffer.add_char b ':';
          add_value b v)
        fields;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 1024 in
  add_value b v;
  Buffer.contents b

(* --- parser -------------------------------------------------------- *)

let ( let* ) = Result.bind

let is_digit c = c >= '0' && c <= '9'

let hex_value c =
  match c with
  | '0' .. '9' -> Some (Char.code c - Char.code '0')
  | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
  | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
  | _ -> None

let parse (s : string) : (t, string) result =
  let n = String.length s in
  let err i msg = Error (Printf.sprintf "%s at byte %d" msg i) in
  let rec ws i =
    if i < n then
      match s.[i] with ' ' | '\t' | '\n' | '\r' -> ws (i + 1) | _ -> i
    else i
  in
  let rec digits i = if i < n && is_digit s.[i] then digits (i + 1) else i in
  let at i c = i < n && s.[i] = c in
  let literal i word v =
    let l = String.length word in
    if i + l <= n && String.sub s i l = word then Ok (v, i + l)
    else err i "invalid literal"
  in
  (* The JSON number grammar: optional minus, integer part without a
     leading zero, optional fraction, optional exponent; kept as text. *)
  let number i =
    let j = if at i '-' then i + 1 else i in
    let k = digits j in
    if k = j then err i "invalid number"
    else if at j '0' && k > j + 1 then err i "leading zero in number"
    else
      let* k =
        if at k '.' then
          let m = digits (k + 1) in
          if m = k + 1 then err k "digit expected after '.'" else Ok m
        else Ok k
      in
      let* k =
        if at k 'e' || at k 'E' then
          let e = if at (k + 1) '+' || at (k + 1) '-' then k + 2 else k + 1 in
          let m = digits e in
          if m = e then err k "digit expected in exponent" else Ok m
        else Ok k
      in
      Ok (Num (String.sub s i (k - i)), k)
  in
  let hex4 i =
    let rec go j acc =
      if j = i + 4 then Some acc
      else if j >= n then None
      else
        match hex_value s.[j] with
        | Some d -> go (j + 1) ((acc * 16) + d)
        | None -> None
    in
    go i 0
  in
  (* [i] is just past the opening quote. *)
  let string i =
    let b = Buffer.create 16 in
    let add_code_point cp = Buffer.add_utf_8_uchar b (Uchar.of_int cp) in
    let rec go i =
      if i >= n then err i "unterminated string"
      else
        match s.[i] with
        | '"' -> Ok (Buffer.contents b, i + 1)
        | '\\' when i + 1 < n -> (
            let simple c =
              Buffer.add_char b c;
              go (i + 2)
            in
            match s.[i + 1] with
            | '"' -> simple '"'
            | '\\' -> simple '\\'
            | '/' -> simple '/'
            | 'b' -> simple '\b'
            | 'f' -> simple '\012'
            | 'n' -> simple '\n'
            | 'r' -> simple '\r'
            | 't' -> simple '\t'
            | 'u' -> (
                match hex4 (i + 2) with
                | None -> err i "bad \\u escape"
                | Some hi when hi >= 0xD800 && hi <= 0xDBFF -> (
                    match
                      if at (i + 6) '\\' && at (i + 7) 'u' then hex4 (i + 8)
                      else None
                    with
                    | Some lo when lo >= 0xDC00 && lo <= 0xDFFF ->
                        add_code_point
                          (0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00));
                        go (i + 12)
                    | _ -> err i "unpaired surrogate")
                | Some cp when cp >= 0xDC00 && cp <= 0xDFFF ->
                    err i "unpaired surrogate"
                | Some cp ->
                    add_code_point cp;
                    go (i + 6))
            | _ -> err i "invalid escape")
        | '\\' -> err i "unterminated string"
        | c when Char.code c < 0x20 -> err i "control character in string"
        | c ->
            Buffer.add_char b c;
            go (i + 1)
    in
    go i
  in
  let rec value i =
    let i = ws i in
    if i >= n then err i "unexpected end of input"
    else
      match s.[i] with
      | '{' -> fields ~first:true (i + 1) []
      | '[' -> items ~first:true (i + 1) []
      | '"' ->
          let* str, j = string (i + 1) in
          Ok (Str str, j)
      | 't' -> literal i "true" (Bool true)
      | 'f' -> literal i "false" (Bool false)
      | 'n' -> literal i "null" Null
      | '-' | '0' .. '9' -> number i
      | c -> err i (Printf.sprintf "unexpected character %C" c)
  and fields ~first i acc =
    let i = ws i in
    if first && at i '}' then Ok (Obj [], i + 1)
    else if not (at i '"') then err i "expected a string key"
    else
      let* key, j = string (i + 1) in
      let j = ws j in
      if not (at j ':') then err j "expected ':'"
      else
        let* v, j = value (j + 1) in
        let j = ws j in
        let acc = (key, v) :: acc in
        if at j ',' then fields ~first:false (j + 1) acc
        else if at j '}' then Ok (Obj (List.rev acc), j + 1)
        else err j "expected ',' or '}'"
  and items ~first i acc =
    let i = ws i in
    if first && at i ']' then Ok (Arr [], i + 1)
    else
      let* v, j = value i in
      let j = ws j in
      let acc = v :: acc in
      if at j ',' then items ~first:false (j + 1) acc
      else if at j ']' then Ok (Arr (List.rev acc), j + 1)
      else err j "expected ',' or ']'"
  in
  let* v, i = value 0 in
  let i = ws i in
  if i <> n then err i "trailing data after document" else Ok v

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None

(* --- field specs --------------------------------------------------- *)

module Spec = struct
  type json = t

  type t =
    | String
    | Count
    | Number
    | Bool
    | Array of t
    | Object of (string * t) list
    | Map of t
    | Optional of t
    | Where of t * string * (json -> bool)

  let rec all f = function
    | [] -> Ok ()
    | x :: rest ->
        let* () = f x in
        all f rest

  let is_count text = text <> "" && String.for_all is_digit text

  let rec check_at path (spec : t) (v : json) : (unit, string) result =
    let fail what = Error (Printf.sprintf "%s: expected %s" path what) in
    match (spec, v) with
    | String, Str _ | Number, Num _ | Bool, Bool _ -> Ok ()
    | Count, Num text when is_count text -> Ok ()
    | Array s, Arr items ->
        all
          (fun (i, item) -> check_at (Printf.sprintf "%s[%d]" path i) s item)
          (List.mapi (fun i item -> (i, item)) items)
    | Object specs, Obj fields ->
        all
          (fun (k, s) ->
            let sub = path ^ "." ^ k in
            match (s, List.assoc_opt k fields) with
            | Optional _, (None | Some Null) -> Ok ()
            | _, None -> Error (Printf.sprintf "%s: missing field" sub)
            | s, Some fv -> check_at sub s fv)
          specs
    | Map s, Obj fields ->
        all (fun (k, fv) -> check_at (path ^ "." ^ k) s fv) fields
    | Optional _, Null -> Ok ()
    | Optional s, v -> check_at path s v
    | Where (s, what, p), v ->
        let* () = check_at path s v in
        if p v then Ok () else fail what
    | String, _ -> fail "a string"
    | Count, _ -> fail "a non-negative integer"
    | Number, _ -> fail "a number"
    | Bool, _ -> fail "a boolean"
    | Array _, _ -> fail "an array"
    | (Object _ | Map _), _ -> fail "an object"

  let check spec v = check_at "$" spec v

  let validate spec s =
    match parse s with
    | Error e -> Error ("parse error: " ^ e)
    | Ok v -> check spec v

  let tag name =
    Where (String, Printf.sprintf "%S" name, fun v -> v = Str name)
end
