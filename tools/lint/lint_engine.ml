(** monet-lint — AST-level static analysis for secret hygiene and
    error discipline (DESIGN.md §3.7).

    The linter parses every [.ml] file it is pointed at into a
    {!Parsetree.structure} (no typing pass — [compiler-libs.common]
    only) and walks it with an {!Ast_iterator}, applying three rule
    families:

    {b Secret-taint / constant-time discipline} (applied only to files
    in the secret scope — by default [lib/ec], [lib/sig], [lib/sigma],
    [lib/cas], [lib/vcof]):
    - [secret-branch] — an [if]/[match]/[while] scrutinee influenced by
      secret material: control flow must not depend on secrets.
    - [secret-index] — an array/bytes/string access whose index is
      influenced by secret material (cache-timing channel).
    - [secret-eq] — early-exit structural equality ([=], [<>],
      [compare], [String.equal], [Bytes.equal], …) on secret material;
      route through the constant-time [Bytes_ext.ct_equal] instead.

    Secrets are seeded by naming convention (identifiers with a [sk],
    [secret], [wit]/[witness], [preimage], [priv] or [blind] word
    component), by a [[@secret]] attribute on a binding or pattern, or
    by a [(* lint: secret: name1 name2 *)] source comment, and then
    propagated through [let] bindings. Applications of one-way /
    blinding functions ([Point.mul_base], hashes, challenges) are
    treated as declassifying: their results are public under the
    schemes' hardness assumptions, which keeps the taint honest.

    {b Error discipline} (whole tree):
    - [forbid-exn] — [failwith] / [invalid_arg] / [raise] / [assert
      false] / [exit] / [Obj.magic] in library code. The protocol
      stack's contract (PR 1) is typed [Errors.t] results; escaping
      exceptions are allowed only via the committed allowlist.

    {b Partiality} (whole tree):
    - [partial-fn] — [List.hd] / [List.nth] / [Option.get] /
      [Array.unsafe_get] (and [String]/[Bytes] unsafe accessors).
    - [wildcard-match] — a [match] that names constructors of the wire
      types [Msg.t] / [Errors.t] but also has a catch-all case: adding
      a constructor to a wire type must break the build, not fall
      through a [_].

    {b Documentation} ([.mli] files in the doc scope — by default
    [lib/obs], [lib/channel], [lib/net], [lib/fault], [lib/store],
    [lib/mc] and [lib/util]):
    - [doc-comment] — an exported [val] without a [(** … *)] doc
      comment. Interfaces in the doc scope are API surface; odoc is
      not a build dependency, so this rule is what keeps their
      documentation from rotting.

    Findings are suppressed only through [tools/lint/allow.sexp]
    (entries carry a justification); with [strict_allow] any unused
    allowlist entry is itself a finding, so the allowlist cannot rot. *)

(* ----------------------------------------------------------------- *)
(* Findings                                                          *)
(* ----------------------------------------------------------------- *)

type finding = {
  f_file : string;
  f_line : int;
  f_col : int;
  f_rule : string;
  f_symbol : string;  (** token the allowlist matches on *)
  f_message : string;
  f_suggestion : string;
}

let finding_compare a b =
  let c = compare a.f_file b.f_file in
  if c <> 0 then c
  else
    let c = compare a.f_line b.f_line in
    if c <> 0 then c else compare (a.f_rule, a.f_col) (b.f_rule, b.f_col)

(* ----------------------------------------------------------------- *)
(* Allowlist: (allow <rule> <file> <symbol> "justification")         *)
(* ----------------------------------------------------------------- *)

type allow_entry = {
  a_rule : string;
  a_file : string;
  a_symbol : string;  (** ["*"] matches any symbol *)
  a_why : string;
  mutable a_used : bool;
}

(* A tiny s-expression reader: atoms, quoted strings, parens, and
   [;]-to-end-of-line comments. Enough for allow.sexp; no external
   sexp library needed. *)
type sexp = Atom of string | List of sexp list

let parse_sexps (src : string) : (sexp list, string) result =
  let n = String.length src in
  let pos = ref 0 in
  let peek () = if !pos < n then Some src.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | Some ';' ->
        while !pos < n && src.[!pos] <> '\n' do
          advance ()
        done;
        skip_ws ()
    | _ -> ()
  in
  let read_string () =
    advance ();
    (* opening quote *)
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then Error "unterminated string"
      else
        match src.[!pos] with
        | '"' ->
            advance ();
            Ok (Buffer.contents b)
        | '\\' when !pos + 1 < n ->
            Buffer.add_char b src.[!pos + 1];
            pos := !pos + 2;
            go ()
        | c ->
            Buffer.add_char b c;
            advance ();
            go ()
    in
    go ()
  in
  let read_atom () =
    let start = !pos in
    let stop c = c = '(' || c = ')' || c = '"' || c = ';' in
    while
      !pos < n
      && (not (stop src.[!pos]))
      && not (List.mem src.[!pos] [ ' '; '\t'; '\n'; '\r' ])
    do
      advance ()
    done;
    String.sub src start (!pos - start)
  in
  let rec read_one () : (sexp, string) result =
    skip_ws ();
    match peek () with
    | None -> Error "unexpected end of input"
    | Some '(' ->
        advance ();
        let rec items acc =
          skip_ws ();
          match peek () with
          | Some ')' ->
              advance ();
              Ok (List (List.rev acc))
          | None -> Error "unclosed ("
          | _ -> ( match read_one () with Ok s -> items (s :: acc) | Error e -> Error e)
        in
        items []
    | Some ')' -> Error "unbalanced )"
    | Some '"' -> ( match read_string () with Ok s -> Ok (Atom s) | Error e -> Error e)
    | Some _ -> Ok (Atom (read_atom ()))
  in
  let rec top acc =
    skip_ws ();
    if !pos >= n then Ok (List.rev acc)
    else match read_one () with Ok s -> top (s :: acc) | Error e -> Error e
  in
  top []

let parse_allowlist (src : string) : (allow_entry list, string) result =
  match parse_sexps src with
  | Error e -> Error ("allowlist: " ^ e)
  | Ok sexps ->
      let entry = function
        | List [ Atom "allow"; Atom rule; Atom file; Atom symbol; Atom why ] ->
            Ok { a_rule = rule; a_file = file; a_symbol = symbol; a_why = why; a_used = false }
        | _ -> Error "allowlist: each entry must be (allow <rule> <file> <symbol> \"why\")"
      in
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | s :: rest -> ( match entry s with Ok e -> go (e :: acc) rest | Error e -> Error e)
      in
      go [] sexps

let allow_matches (e : allow_entry) (f : finding) : bool =
  e.a_rule = f.f_rule && e.a_file = f.f_file
  && (e.a_symbol = "*" || e.a_symbol = f.f_symbol)

(* ----------------------------------------------------------------- *)
(* Configuration                                                     *)
(* ----------------------------------------------------------------- *)

type config = {
  c_allow : allow_entry list;
  c_secret_scope : string -> bool;  (** file is under CT discipline *)
  c_doc_scope : string -> bool;  (** [.mli] must doc-comment its vals *)
  c_strict_allow : bool;  (** unused allowlist entries are findings *)
}

let path_under (dirs : string list) (file : string) : bool =
  let under d =
    (* matches both "lib/ec/fe.ml" and absolute paths ending in it *)
    let d = d ^ "/" in
    let rec search i =
      i >= 0
      && (String.length file - i >= String.length d
          && String.sub file i (String.length d) = d
         || search (i - 1))
    in
    search (String.length file - String.length d)
  in
  List.exists under dirs

let default_secret_scope (file : string) : bool =
  path_under [ "lib/ec"; "lib/sig"; "lib/sigma"; "lib/cas"; "lib/vcof" ] file

let default_doc_scope (file : string) : bool =
  path_under
    [ "lib/obs"; "lib/channel"; "lib/net"; "lib/fault"; "lib/store"; "lib/mc";
      "lib/util" ]
    file

let default_config =
  { c_allow = []; c_secret_scope = default_secret_scope;
    c_doc_scope = default_doc_scope; c_strict_allow = false }

(* ----------------------------------------------------------------- *)
(* Secret seeding and taint                                          *)
(* ----------------------------------------------------------------- *)

(* A name is convention-secret when any of its [_]-separated word
   components is one of these. Deliberately conservative: short
   ambiguous names (y, w, r, x) must be declared with [@secret] or a
   (* lint: secret: ... *) comment instead. *)
let secret_words = [ "sk"; "secret"; "wit"; "witness"; "preimage"; "priv"; "blind" ]

let split_words (s : string) : string list = String.split_on_char '_' s

let convention_secret (name : string) : bool =
  List.exists (fun w -> List.mem w secret_words) (split_words name)

(* Applications whose result is public even on secret input: one-way /
   blinding maps under DLP, and signing/proving outputs that the
   schemes publish by design (zero-knowledge / unforgeability make
   them simulatable without the witness). Matched on the last
   component of the applied identifier. *)
let declassifying = [ "mul_base"; "mul"; "double_mul"; "mul2"; "hash_to_point";
                      "challenge"; "of_hash"; "tagged"; "fast"; "commit";
                      "prove"; "verify"; "sign"; "sign_core"; "pre_sign" ]

(* [(* lint: secret: a b c *)] / [(* lint: public: a b c *)] comments,
   scanned on the raw source because comments never reach the
   Parsetree. [secret] adds names to the file's taint seed; [public]
   overrides both convention and propagation (for names the schemes
   publish by design). *)
let comment_names ~(marker : string) (src : string) : string list =
  let out = ref [] in
  let rec scan from =
    match
      let rec find i =
        if i + String.length marker > String.length src then None
        else if String.sub src i (String.length marker) = marker then Some i
        else find (i + 1)
      in
      find from
    with
    | None -> ()
    | Some i ->
        let start = i + String.length marker in
        let stop =
          let rec find j =
            if j + 2 > String.length src then String.length src
            else if src.[j] = '*' && src.[j + 1] = ')' then j
            else find (j + 1)
          in
          find start
        in
        let names =
          String.sub src start (stop - start)
          |> String.split_on_char ' '
          |> List.concat_map (String.split_on_char ',')
          |> List.filter (fun s -> s <> "")
        in
        out := names @ !out;
        scan stop
  in
  scan 0;
  !out

let comment_secrets = comment_names ~marker:"lint: secret:"
let comment_publics = comment_names ~marker:"lint: public:"

let has_secret_attr (attrs : Parsetree.attributes) : bool =
  List.exists (fun (a : Parsetree.attribute) -> a.attr_name.txt = "secret") attrs

let rec pattern_vars (p : Parsetree.pattern) : string list =
  match p.ppat_desc with
  | Ppat_var v -> [ v.txt ]
  | Ppat_alias (inner, v) -> v.txt :: pattern_vars inner
  | Ppat_tuple ps -> List.concat_map pattern_vars ps
  | Ppat_constraint (inner, _) -> pattern_vars inner
  | Ppat_record (fields, _) -> List.concat_map (fun (_, p) -> pattern_vars p) fields
  | Ppat_construct (_, Some (_, inner)) -> pattern_vars inner
  | Ppat_variant (_, Some inner) -> pattern_vars inner
  | Ppat_or (a, b) -> pattern_vars a @ pattern_vars b
  | Ppat_array ps -> List.concat_map pattern_vars ps
  | Ppat_open (_, inner) -> pattern_vars inner
  | _ -> []

let lid_path (l : Longident.t) : string = String.concat "." (Longident.flatten l)

let lid_last (l : Longident.t) : string =
  match List.rev (Longident.flatten l) with [] -> "" | x :: _ -> x

(* Does [e] mention a secret identifier (by name or field access),
   without descending into declassifying applications? Returns the
   first offending name for the report. [ret_secret] is the
   interprocedural hook (whole-program mode): it maps an applied
   identifier to [Some name] when the call resolves to a function
   whose summary says its result carries secret material. *)
let mentions_secret ?(ret_secret : Longident.t -> string option = fun _ -> None)
    (secret : string -> bool) (e : Parsetree.expression) : string option =
  let found = ref None in
  let note n = if !found = None then found := Some n in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self ex ->
          match ex.Parsetree.pexp_desc with
          | Pexp_ident { txt; _ } ->
              let n = lid_last txt in
              if secret n then note n
          | Pexp_field (inner, { txt; _ }) ->
              let n = lid_last txt in
              if secret n then note n;
              self.expr self inner
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args)
            when List.mem (lid_last txt) declassifying ->
              (* result is public; arguments do not taint it, but
                 still look inside for e.g. a secret-indexed access
                 used to build the argument *)
              ignore args
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _)
            when ret_secret txt <> None -> (
              match ret_secret txt with Some n -> note n | None -> ())
          | _ -> Ast_iterator.default_iterator.expr self ex)
    }
  in
  it.expr it e;
  !found

(* ----------------------------------------------------------------- *)
(* Wire-type constructor sets for the wildcard-match rule            *)
(* ----------------------------------------------------------------- *)

let msg_constructors =
  [ "Key_share"; "Key_image_share"; "Establish_info"; "Funding_sigs";
    "Stmt_announce"; "Commit_nonce"; "Z_share"; "Kes_sig"; "Batch_announce";
    "Lock_open"; "Witness_reveal" ]

let errors_constructors =
  [ "Closed"; "Pending_lock"; "No_pending_lock"; "Insufficient_funds";
    "Bad_proof"; "Bad_witness"; "Bad_state"; "Escrow"; "Kes"; "Chain";
    "Codec"; "Timeout" ]

let rec pattern_constructors (p : Parsetree.pattern) : string list =
  match p.ppat_desc with
  | Ppat_construct ({ txt; _ }, arg) ->
      lid_last txt
      :: (match arg with Some (_, inner) -> pattern_constructors inner | None -> [])
  | Ppat_tuple ps | Ppat_array ps -> List.concat_map pattern_constructors ps
  | Ppat_alias (inner, _) | Ppat_constraint (inner, _) | Ppat_open (_, inner) ->
      pattern_constructors inner
  | Ppat_or (a, b) -> pattern_constructors a @ pattern_constructors b
  | Ppat_record (fields, _) -> List.concat_map (fun (_, p) -> pattern_constructors p) fields
  | _ -> []

(* A catch-all case: [_], a bare variable, or a tuple of those. *)
let rec is_catch_all (p : Parsetree.pattern) : bool =
  match p.ppat_desc with
  | Ppat_any | Ppat_var _ -> true
  | Ppat_tuple ps -> List.exists is_catch_all ps
  | Ppat_alias (inner, _) | Ppat_constraint (inner, _) -> is_catch_all inner
  | _ -> false

(* ----------------------------------------------------------------- *)
(* The rule walker                                                   *)
(* ----------------------------------------------------------------- *)

let forbidden_calls =
  [ ("failwith", "failwith");
    ("invalid_arg", "invalid_arg");
    ("raise", "raise");
    ("raise_notrace", "raise");
    ("exit", "exit");
    ("Stdlib.failwith", "failwith");
    ("Stdlib.invalid_arg", "invalid_arg");
    ("Stdlib.raise", "raise");
    ("Stdlib.exit", "exit");
    ("Obj.magic", "Obj.magic") ]

let partial_calls =
  [ "List.hd"; "List.nth"; "Option.get"; "Array.unsafe_get"; "String.unsafe_get";
    "Bytes.unsafe_get"; "Array.unsafe_set"; "Bytes.unsafe_set" ]

let eq_operators = [ "="; "<>"; "compare"; "String.equal"; "String.compare";
                     "Bytes.equal"; "Bytes.compare" ]

let indexed_get = [ "Array.get"; "String.get"; "Bytes.get"; "Array.unsafe_get";
                    "String.unsafe_get"; "Bytes.unsafe_get"; "Array.set";
                    "Bytes.set"; "Array.unsafe_set"; "Bytes.unsafe_set" ]

(* Interprocedural taint context (whole-program mode, see the
   [Program] section below). [tc_extra] returns extra secret seeds for
   the toplevel structure item at the given location — parameters that
   some caller somewhere in the program passes secret material into.
   [tc_ret] resolves an applied identifier to [Some symbol] when the
   callee's computed summary says its result carries secrets. *)
type taint_ctx = {
  tc_extra : Location.t -> string list;
  tc_ret : Longident.t -> string option;
}

let no_taint : taint_ctx =
  { tc_extra = (fun _ -> []); tc_ret = (fun _ -> None) }

(* The per-item secret-name fixpoint. Seeds (naming convention,
   [@secret], comment annotations, interprocedural extras) are given;
   taint *propagation* through let bindings is scoped to the single
   top-level structure item, so a tainted local `i' in one function
   cannot bleed onto an unrelated loop counter of the same name
   elsewhere in the file. *)
let compute_item_secrets ~(seeds : string list) ~(publics : string list)
    ~(ret_secret : Longident.t -> string option)
    (item : Parsetree.structure_item) : string -> bool =
  let secrets : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun n -> Hashtbl.replace secrets n ()) seeds;
  let is_secret n =
    (convention_secret n || Hashtbl.mem secrets n) && not (List.mem n publics)
  in
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds < 10 do
    changed := false;
    incr rounds;
    let mark n =
      if not (Hashtbl.mem secrets n) then begin
        Hashtbl.replace secrets n ();
        changed := true
      end
    in
    let it =
      {
        Ast_iterator.default_iterator with
        value_binding =
          (fun self vb ->
            (* A function whose *body* mentions secrets is not
               itself secret data — only non-function bindings
               propagate taint to the bound name. *)
            let rec is_fun (e : Parsetree.expression) =
              match e.pexp_desc with
              | Pexp_fun _ | Pexp_function _ -> true
              | Pexp_newtype (_, inner) | Pexp_constraint (inner, _) ->
                  is_fun inner
              | _ -> false
            in
            let tainted =
              has_secret_attr vb.Parsetree.pvb_attributes
              || has_secret_attr vb.pvb_pat.ppat_attributes
              || ((not (is_fun vb.pvb_expr))
                 && mentions_secret ~ret_secret is_secret vb.pvb_expr <> None)
            in
            if tainted then List.iter mark (pattern_vars vb.pvb_pat);
            Ast_iterator.default_iterator.value_binding self vb);
        pat =
          (fun self p ->
            if has_secret_attr p.Parsetree.ppat_attributes then
              List.iter mark (pattern_vars p);
            Ast_iterator.default_iterator.pat self p);
      }
    in
    it.structure_item it item
  done;
  is_secret

let lint_structure ~(cfg : config) ?(taint : taint_ctx = no_taint)
    ~(file : string) ~(src : string) (str : Parsetree.structure) : finding list =
  let findings = ref [] in
  let add ~(loc : Location.t) ~rule ~symbol ~message ~suggestion =
    let p = loc.Location.loc_start in
    findings :=
      {
        f_file = file;
        f_line = p.Lexing.pos_lnum;
        f_col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
        f_rule = rule;
        f_symbol = symbol;
        f_message = message;
        f_suggestion = suggestion;
      }
      :: !findings
  in
  let in_secret_scope = cfg.c_secret_scope file in

  (* -- pass 1: secret-name sets. Seeds (naming convention, [@secret],
     comment annotations) are file-wide; taint *propagation* through
     let bindings is scoped to each top-level structure item, so a
     tainted local `i' in one function cannot bleed onto an unrelated
     loop counter of the same name elsewhere in the file. -- *)
  let seeds = comment_secrets src in
  let publics = comment_publics src in
  let item_secrets (item : Parsetree.structure_item) : string -> bool =
    compute_item_secrets
      ~seeds:(seeds @ taint.tc_extra item.Parsetree.pstr_loc)
      ~publics ~ret_secret:taint.tc_ret item
  in

  (* -- pass 2: the rules -- *)
  let walk_item (is_secret : string -> bool) (item : Parsetree.structure_item) =
  let check_secret_scrutinee ~loc ~what (scrut : Parsetree.expression) =
    if in_secret_scope then
      match mentions_secret ~ret_secret:taint.tc_ret is_secret scrut with
      | Some name ->
          add ~loc ~rule:"secret-branch" ~symbol:name
            ~message:
              (Printf.sprintf "%s scrutinee depends on secret `%s'" what name)
            ~suggestion:
              "make control flow independent of secret material (constant-time \
               select), or allowlist with a justification"
      | None -> ()
  in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self ex ->
          (match ex.Parsetree.pexp_desc with
          | Pexp_ifthenelse (cond, _, _) ->
              check_secret_scrutinee ~loc:ex.pexp_loc ~what:"if" cond
          | Pexp_while (cond, _) ->
              check_secret_scrutinee ~loc:ex.pexp_loc ~what:"while" cond
          | Pexp_match (scrut, cases) ->
              check_secret_scrutinee ~loc:ex.pexp_loc ~what:"match" scrut;
              let ctors = List.concat_map (fun (c : Parsetree.case) ->
                  pattern_constructors c.pc_lhs) cases
              in
              let family =
                if List.exists (fun c -> List.mem c msg_constructors) ctors then
                  Some "Msg.t"
                else if List.exists (fun c -> List.mem c errors_constructors) ctors
                then Some "Errors.t"
                else None
              in
              (match family with
              | Some fam
                when List.exists
                       (fun (c : Parsetree.case) ->
                         c.pc_guard = None && is_catch_all c.pc_lhs)
                       cases ->
                  add ~loc:ex.pexp_loc ~rule:"wildcard-match" ~symbol:fam
                    ~message:
                      (Printf.sprintf
                         "match on wire type %s has a catch-all case" fam)
                    ~suggestion:
                      "enumerate the constructors so extending the wire type \
                       breaks the build, or allowlist a deliberate reject-all \
                       with a justification"
              | _ -> ())
          | Pexp_assert { pexp_desc = Pexp_construct ({ txt = Lident "false"; _ }, None); _ }
            ->
              add ~loc:ex.pexp_loc ~rule:"forbid-exn" ~symbol:"assert_false"
                ~message:"`assert false' in library code"
                ~suggestion:"return a typed Errors.t instead, or allowlist with \
                             a justification"
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) -> (
              let path = lid_path txt in
              (match List.assoc_opt path forbidden_calls with
              | Some symbol ->
                  add ~loc:ex.pexp_loc ~rule:"forbid-exn" ~symbol
                    ~message:(Printf.sprintf "`%s' in library code" path)
                    ~suggestion:
                      "return a typed Errors.t instead of escaping with an \
                       exception, or allowlist with a justification"
              | None -> ());
              if List.mem path partial_calls then
                add ~loc:ex.pexp_loc ~rule:"partial-fn" ~symbol:path
                  ~message:(Printf.sprintf "partial function `%s'" path)
                  ~suggestion:
                    "pattern-match on the shape (or use a total accessor); \
                     allowlist only inside audited hot kernels";
              if in_secret_scope then begin
                (if List.mem path eq_operators then
                   let offender =
                     List.find_map
                       (fun (_, a) ->
                         mentions_secret ~ret_secret:taint.tc_ret is_secret a)
                       args
                   in
                   match offender with
                   | Some name ->
                       add ~loc:ex.pexp_loc ~rule:"secret-eq" ~symbol:name
                         ~message:
                           (Printf.sprintf
                              "early-exit equality `%s' on secret `%s'" path name)
                         ~suggestion:
                           "compare fixed-length encodings with \
                            Monet_util.Bytes_ext.ct_equal"
                   | None -> ());
                if List.mem path indexed_get then
                  match args with
                  | _ :: (_, idx) :: _ -> (
                      match
                        mentions_secret ~ret_secret:taint.tc_ret is_secret idx
                      with
                      | Some name ->
                          add ~loc:ex.pexp_loc ~rule:"secret-index" ~symbol:name
                            ~message:
                              (Printf.sprintf
                                 "memory access indexed by secret `%s'" name)
                            ~suggestion:
                              "access all candidates and select in constant \
                               time, or allowlist with a justification"
                      | None -> ())
                  | _ -> ()
              end)
          | _ -> ());
          Ast_iterator.default_iterator.expr self ex);
    }
  in
  it.structure_item it item
  in
  List.iter
    (fun item ->
      let is_secret =
        if in_secret_scope then item_secrets item else fun _ -> false
      in
      walk_item is_secret item)
    str;
  List.rev !findings

(* ----------------------------------------------------------------- *)
(* Driving: files, allowlist application, reports                    *)
(* ----------------------------------------------------------------- *)

(** Call-graph statistics attached to whole-program reports. *)
type graph_stats = {
  gs_defs : int;  (** toplevel value definitions across the program *)
  gs_edges : int;  (** resolved call/reference edges *)
  gs_roots : int;  (** [Domain.spawn] closure roots *)
  gs_reachable : int;  (** definitions reachable from a spawned domain *)
}

type report = {
  r_files : int;
  r_findings : finding list;  (** unsuppressed, sorted *)
  r_suppressed : int;
  r_graph : graph_stats option;  (** [Some] for whole-program runs *)
}

let parse_impl ~(file : string) (src : string) : (Parsetree.structure, string) result =
  let lexbuf = Lexing.from_string src in
  Location.init lexbuf file;
  match Parse.implementation lexbuf with
  | str -> Ok str
  | exception e -> Error (Printexc.to_string e)

let lint_source ~(cfg : config) ?(taint : taint_ctx = no_taint) ~(file : string)
    (src : string) : finding list =
  match parse_impl ~file src with
  | Error e ->
      [ { f_file = file; f_line = 1; f_col = 0; f_rule = "parse-error";
          f_symbol = "parse"; f_message = e; f_suggestion = "fix the syntax error" } ]
  | Ok str -> lint_structure ~cfg ~taint ~file ~src str

(* --- the doc-comment rule, on interfaces ------------------------- *)

let parse_intf ~(file : string) (src : string) : (Parsetree.signature, string) result =
  let lexbuf = Lexing.from_string src in
  Location.init lexbuf file;
  match Parse.interface lexbuf with
  | sg -> Ok sg
  | exception e -> Error (Printexc.to_string e)

(* The parser turns a [(** … *)] adjacent to a signature item into an
   ["ocaml.doc"] attribute on that item, so documentedness is a pure
   AST property. *)
let has_doc_attr (attrs : Parsetree.attributes) : bool =
  List.exists
    (fun (a : Parsetree.attribute) ->
      a.attr_name.txt = "ocaml.doc" || a.attr_name.txt = "doc")
    attrs

let lint_signature ~(file : string) (sg : Parsetree.signature) : finding list =
  let findings = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      signature_item =
        (fun self item ->
          (match item.Parsetree.psig_desc with
          | Psig_value vd when not (has_doc_attr vd.pval_attributes) ->
              let p = item.psig_loc.Location.loc_start in
              findings :=
                {
                  f_file = file;
                  f_line = p.Lexing.pos_lnum;
                  f_col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
                  f_rule = "doc-comment";
                  f_symbol = vd.pval_name.txt;
                  f_message =
                    Printf.sprintf "exported `val %s' has no doc comment"
                      vd.pval_name.txt;
                  f_suggestion =
                    "document the value with (** … *) — interfaces in the doc \
                     scope are API surface";
                }
                :: !findings
          | _ -> ());
          Ast_iterator.default_iterator.signature_item self item);
    }
  in
  it.signature it sg;
  List.rev !findings

(** Lint an [.mli]: only the [doc-comment] rule applies (interfaces
    contain no executable code for the other rule families). *)
let lint_interface_source ~(cfg : config) ~(file : string) (src : string) :
    finding list =
  if not (cfg.c_doc_scope file) then []
  else
    match parse_intf ~file src with
    | Error e ->
        [ { f_file = file; f_line = 1; f_col = 0; f_rule = "parse-error";
            f_symbol = "parse"; f_message = e;
            f_suggestion = "fix the syntax error" } ]
    | Ok sg -> lint_signature ~file sg

let read_file (path : string) : string =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let rec ml_files_under (path : string) : string list =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort compare
    |> List.concat_map (fun entry -> ml_files_under (Filename.concat path entry))
  else if Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli"
  then [ path ]
  else []

(* Apply the allowlist to a raw finding set: suppress matches, mark
   entries used, and (under [strict_allow]) surface entries that
   suppressed nothing as [stale-allow] findings. *)
let apply_allow ~(cfg : config) ~(files : int) ?graph (raw : finding list) :
    report =
  List.iter (fun e -> e.a_used <- false) cfg.c_allow;
  let suppressed = ref 0 in
  let kept =
    List.filter
      (fun f ->
        match List.find_opt (fun e -> allow_matches e f) cfg.c_allow with
        | Some e ->
            e.a_used <- true;
            incr suppressed;
            false
        | None -> true)
      raw
  in
  let stale =
    if cfg.c_strict_allow then
      List.filter_map
        (fun e ->
          if e.a_used then None
          else
            Some
              {
                f_file = "tools/lint/allow.sexp";
                f_line = 1;
                f_col = 0;
                f_rule = "stale-allow";
                f_symbol = Printf.sprintf "%s:%s:%s" e.a_rule e.a_file e.a_symbol;
                f_message =
                  Printf.sprintf
                    "allowlist entry (%s %s %s) matched no finding" e.a_rule
                    e.a_file e.a_symbol;
                f_suggestion = "delete the stale entry";
              })
        cfg.c_allow
    else []
  in
  {
    r_files = files;
    r_findings = List.sort finding_compare (kept @ stale);
    r_suppressed = !suppressed;
    r_graph = graph;
  }

(** Lint [paths] (files or directories, recursed for [.ml]/[.mli]) and
    apply the allowlist. Per-file mode: no call graph, no
    interprocedural passes — see {!run_program} for those. *)
let run ~(cfg : config) (paths : string list) : report =
  let files = List.concat_map ml_files_under paths in
  let raw =
    List.concat_map
      (fun f ->
        if Filename.check_suffix f ".mli" then
          lint_interface_source ~cfg ~file:f (read_file f)
        else lint_source ~cfg ~file:f (read_file f))
      files
  in
  apply_allow ~cfg ~files:(List.length files) raw

(* ----------------------------------------------------------------- *)
(* Whole-program analysis: cross-module call graph (DESIGN.md §3.12) *)
(* ----------------------------------------------------------------- *)

(* The program model is built from parsetrees only (no typing pass):
   module identity comes from file naming — [lib/ec/point.ml] is
   module [Point] inside the wrapped library [Monet_ec] — and
   references are resolved by the last module component of the applied
   path, refined by a [Monet_*] library component when one is present
   (directly or through a toplevel [module X = Monet_y.Z] alias).
   Ambiguity (two files named [metrics.ml]) resolves to *all*
   candidates: for a safety analysis, over-approximation is the sound
   direction. *)

type pfile = {
  pf_file : string;
  pf_src : string;
  pf_mod : string;  (** [Point] for [lib/ec/point.ml] *)
  pf_lib : string;  (** [Monet_ec] for [lib/ec/point.ml] *)
  pf_str : Parsetree.structure;
  pf_aliases : (string * string list) list;
      (** toplevel [module X = Path] aliases, [X -> components of Path] *)
}

type def = {
  d_id : int;
  d_pf : pfile;
  d_mpath : string list;  (** nested-module path within the file *)
  d_name : string;  (** [""] for anonymous ([let () = …], [Pstr_eval]) *)
  d_params : (bool * string) list;  (** [(positional, name)] in order *)
  d_body : Parsetree.expression;
  d_item : Parsetree.structure_item;
  d_is_fun : bool;
  d_line : int;
}

(* What kind of toplevel state a global is, judged from the shape of
   its right-hand side. [Gmut] carries a human-readable descriptor. *)
type gkind = Gmut of string | Glazy | Gsafe

type global = {
  g_id : int;
  g_pf : pfile;
  g_name : string;
  g_kind : gkind;
  g_line : int;
}

type program = {
  p_files : pfile list;
  p_defs : def array;
  p_globals : global array;
  p_defs_by_name : (string, int list) Hashtbl.t;
  p_globals_by_name : (string, int list) Hashtbl.t;
}

let mod_name_of_path (file : string) : string =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename file))

let lib_name_of_path (file : string) : string =
  String.capitalize_ascii ("monet_" ^ Filename.basename (Filename.dirname file))

(* [Longident.flatten] raises on functor applications; those never
   name values we track. *)
let safe_flatten (l : Longident.t) : string list =
  match Longident.flatten l with comps -> comps | exception _ -> []

let drop_stdlib = function "Stdlib" :: rest -> rest | comps -> comps

(* Strip type constraints/coercions off an expression shell. *)
let rec strip_expr (e : Parsetree.expression) : Parsetree.expression =
  match e.pexp_desc with
  | Pexp_constraint (inner, _) | Pexp_coerce (inner, _, _) -> strip_expr inner
  | _ -> e

(* Parameters of a syntactic function: labelled parameters keep their
   label name (call sites pass [~label:], which is how we map argument
   taint onto them); positional parameters use the pattern variable
   and are marked so positional call-site arguments map onto the
   positional parameters only, in order. *)
let rec fun_params (e : Parsetree.expression) :
    (bool * string) list * Parsetree.expression =
  match e.pexp_desc with
  | Pexp_fun (label, _, pat, body) ->
      let param =
        match label with
        | Asttypes.Labelled s | Asttypes.Optional s -> (false, s)
        | Asttypes.Nolabel -> (
            (true, match pattern_vars pat with n :: _ -> n | [] -> "_"))
      in
      let rest, core = fun_params body in
      (param :: rest, core)
  | Pexp_newtype (_, body) | Pexp_constraint (body, _) -> fun_params body
  | _ -> ([], e)

let classify_global (e : Parsetree.expression) : gkind option =
  match (strip_expr e).pexp_desc with
  | Pexp_lazy _ -> Some Glazy
  | Pexp_array _ -> Some (Gmut "array literal")
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
      match drop_stdlib (safe_flatten txt) with
      | [ "ref" ] -> Some (Gmut "ref cell")
      | [ "Atomic"; _ ] | [ "Mutex"; _ ] | [ "Condition"; _ ]
      | [ "Domain"; "DLS"; _ ] | [ "Semaphore"; _; _ ] ->
          Some Gsafe
      | [ "Hashtbl"; ("create" | "of_seq" | "copy") ] -> Some (Gmut "hash table")
      | [ "Array";
          ( "make" | "init" | "create_float" | "make_matrix" | "of_list"
          | "copy" | "append" | "concat" | "sub" | "map" | "mapi" ) ] ->
          Some (Gmut "array")
      | [ "Bytes";
          ( "create" | "make" | "init" | "of_string" | "copy" | "sub" | "cat"
          | "extend" ) ] ->
          Some (Gmut "byte buffer")
      | [ "Buffer"; "create" ] -> Some (Gmut "buffer")
      | [ "Queue"; "create" ] -> Some (Gmut "queue")
      | [ "Stack"; "create" ] -> Some (Gmut "stack")
      | _ -> None)
  | _ -> None

(* -- program construction ----------------------------------------- *)

let build_program (parsed : (string * string * Parsetree.structure) list) :
    program =
  let defs = ref [] and n_defs = ref 0 in
  let globals = ref [] and n_globals = ref 0 in
  let files =
    List.map
      (fun (file, src, str) ->
        let aliases = ref [] in
        let rec alias_scan (items : Parsetree.structure) =
          List.iter
            (fun (item : Parsetree.structure_item) ->
              match item.pstr_desc with
              | Pstr_module
                  { pmb_name = { txt = Some name; _ }; pmb_expr; _ } -> (
                  match pmb_expr.pmod_desc with
                  | Pmod_ident { txt; _ } ->
                      aliases := (name, safe_flatten txt) :: !aliases
                  | Pmod_structure sub -> alias_scan sub
                  | _ -> ())
              | _ -> ())
            items
        in
        alias_scan str;
        let pf =
          {
            pf_file = file;
            pf_src = src;
            pf_mod = mod_name_of_path file;
            pf_lib = lib_name_of_path file;
            pf_str = str;
            pf_aliases = !aliases;
          }
        in
        let add_def ~mpath ~name ~item (body : Parsetree.expression) =
          let params, core = fun_params body in
          let is_fun =
            params <> []
            || (match core.pexp_desc with Pexp_function _ -> true | _ -> false)
          in
          defs :=
            {
              d_id = !n_defs;
              d_pf = pf;
              d_mpath = mpath;
              d_name = name;
              d_params = params;
              d_body = body;
              d_item = item;
              d_is_fun = is_fun;
              d_line = item.Parsetree.pstr_loc.loc_start.Lexing.pos_lnum;
            }
            :: !defs;
          incr n_defs
        in
        let rec collect mpath (items : Parsetree.structure) =
          List.iter
            (fun (item : Parsetree.structure_item) ->
              match item.pstr_desc with
              | Pstr_value (_, vbs) ->
                  List.iter
                    (fun (vb : Parsetree.value_binding) ->
                      (match vb.pvb_pat.ppat_desc with
                      | Ppat_var v -> (
                          add_def ~mpath ~name:v.txt ~item vb.pvb_expr;
                          match classify_global vb.pvb_expr with
                          | Some kind ->
                              globals :=
                                {
                                  g_id = !n_globals;
                                  g_pf = pf;
                                  g_name = v.txt;
                                  g_kind = kind;
                                  g_line =
                                    vb.pvb_loc.loc_start.Lexing.pos_lnum;
                                }
                                :: !globals;
                              incr n_globals
                          | None -> ())
                      | _ -> (
                          (* [let () = …], [let (a, b) = …], [let _ = …]:
                             one anonymous def carrying the body, plus
                             named defs for any bound variables. *)
                          add_def ~mpath ~name:"" ~item vb.pvb_expr;
                          List.iter
                            (fun n -> add_def ~mpath ~name:n ~item vb.pvb_expr)
                            (pattern_vars vb.pvb_pat))))
                    vbs
              | Pstr_eval (e, _) -> add_def ~mpath ~name:"" ~item e
              | Pstr_module
                  {
                    pmb_name = { txt = Some name; _ };
                    pmb_expr = { pmod_desc = Pmod_structure sub; _ };
                    _;
                  } ->
                  collect (mpath @ [ name ]) sub
              | _ -> ())
            items
        in
        collect [] str;
        pf)
      parsed
  in
  let defs = Array.of_list (List.rev !defs) in
  let globals = Array.of_list (List.rev !globals) in
  let defs_by_name = Hashtbl.create 256 in
  Array.iter
    (fun d ->
      if d.d_name <> "" then
        Hashtbl.replace defs_by_name d.d_name
          (d.d_id
          :: (match Hashtbl.find_opt defs_by_name d.d_name with
             | Some l -> l
             | None -> [])))
    defs;
  let globals_by_name = Hashtbl.create 64 in
  Array.iter
    (fun g ->
      Hashtbl.replace globals_by_name g.g_name
        (g.g_id
        :: (match Hashtbl.find_opt globals_by_name g.g_name with
           | Some l -> l
           | None -> [])))
    globals;
  {
    p_files = files;
    p_defs = defs;
    p_globals = globals;
    p_defs_by_name = defs_by_name;
    p_globals_by_name = globals_by_name;
  }

(* -- reference resolution ----------------------------------------- *)

let expand_alias (pf : pfile) (comps : string list) : string list =
  match comps with
  | first :: rest -> (
      match List.assoc_opt first pf.pf_aliases with
      | Some target -> target @ rest
      | None -> comps)
  | [] -> []

let lib_hint (comps : string list) : string option =
  List.find_opt
    (fun c -> String.length c > 6 && String.sub c 0 6 = "Monet_")
    comps

(* Resolve a referenced identifier to candidate ids. Unqualified names
   resolve within the same file only (external/stdlib otherwise);
   qualified names match on the last module component, narrowed by a
   [Monet_*] library component when that still leaves candidates. *)
let resolve_generic ~(by_name : (string, int list) Hashtbl.t)
    ~(pf_of : int -> pfile) ~(mpath_of : int -> string list) (pf : pfile)
    (lid : Longident.t) : int list =
  match List.rev (safe_flatten lid) with
  | [] -> []
  | name :: rev_mods -> (
      let cands =
        match Hashtbl.find_opt by_name name with Some l -> l | None -> []
      in
      match drop_stdlib (expand_alias pf (List.rev rev_mods)) with
      | [] -> List.filter (fun id -> (pf_of id).pf_file == pf.pf_file) cands
      | mods -> (
          let m = List.nth mods (List.length mods - 1) in
          let matches id =
            match List.rev (mpath_of id) with
            | last :: _ -> last = m
            | [] -> (pf_of id).pf_mod = m
          in
          let cands = List.filter matches cands in
          match lib_hint mods with
          | Some l ->
              let narrowed =
                List.filter (fun id -> (pf_of id).pf_lib = l) cands
              in
              if narrowed = [] then cands else narrowed
          | None -> cands))

let resolve_defs (prog : program) (pf : pfile) (lid : Longident.t) : int list =
  resolve_generic ~by_name:prog.p_defs_by_name
    ~pf_of:(fun id -> prog.p_defs.(id).d_pf)
    ~mpath_of:(fun id -> prog.p_defs.(id).d_mpath)
    pf lid

let resolve_globals (prog : program) (pf : pfile) (lid : Longident.t) :
    int list =
  resolve_generic ~by_name:prog.p_globals_by_name
    ~pf_of:(fun id -> prog.p_globals.(id).g_pf)
    ~mpath_of:(fun _ -> [])
    pf lid

(* -- syntactic harvesting ----------------------------------------- *)

(* Every value identifier mentioned in [e], with location. *)
let expr_idents (e : Parsetree.expression) :
    (Longident.t * Location.t) list =
  let out = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self ex ->
          (match ex.Parsetree.pexp_desc with
          | Pexp_ident { txt; loc } -> out := (txt, loc) :: !out
          | _ -> ());
          Ast_iterator.default_iterator.expr self ex);
    }
  in
  it.expr it e;
  List.rev !out

(* Every application in [e]: the applied identifier, its arguments,
   and the location of the application. *)
let expr_apps (e : Parsetree.expression) :
    (Longident.t * (Asttypes.arg_label * Parsetree.expression) list
    * Location.t)
    list =
  let out = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self ex ->
          (match ex.Parsetree.pexp_desc with
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) ->
              out := (txt, args, ex.pexp_loc) :: !out
          | _ -> ());
          Ast_iterator.default_iterator.expr self ex);
    }
  in
  it.expr it e;
  List.rev !out

(* Names bound anywhere inside [e] (parameters, lets, match cases):
   an unqualified mention of such a name refers to the local binding,
   never to a same-named toplevel value. *)
let bound_names (e : Parsetree.expression) : (string, unit) Hashtbl.t =
  let tbl = Hashtbl.create 32 in
  let it =
    {
      Ast_iterator.default_iterator with
      pat =
        (fun self p ->
          List.iter (fun n -> Hashtbl.replace tbl n ()) (pattern_vars p);
          Ast_iterator.default_iterator.pat self p);
    }
  in
  it.expr it e;
  tbl

let lid_ends2 (a : string) (b : string) (lid : Longident.t) : bool =
  match List.rev (safe_flatten lid) with
  | y :: x :: _ -> x = a && y = b
  | _ -> false

let is_spawn = lid_ends2 "Domain" "spawn"
let is_mutex_protect = lid_ends2 "Mutex" "protect"

let is_lazy_force (lid : Longident.t) : bool =
  lid_ends2 "Lazy" "force" lid || lid_ends2 "Lazy" "force_val" lid

(* Byte ranges of expressions satisfying a predicate — used for "is
   this mention lexically inside a Mutex.protect thunk / a spawned
   closure" checks, which are containment tests on byte offsets of
   the same parse. *)
let loc_range (l : Location.t) : int * int =
  (l.Location.loc_start.Lexing.pos_cnum, l.Location.loc_end.Lexing.pos_cnum)

let in_ranges (ranges : (int * int) list) (l : Location.t) : bool =
  let p = l.Location.loc_start.Lexing.pos_cnum in
  List.exists (fun (a, b) -> a <= p && p < b) ranges

(* Thunk ranges of every [Mutex.protect mu (fun () -> …)] in [e]. *)
let protect_ranges (e : Parsetree.expression) : (int * int) list =
  List.filter_map
    (fun (lid, args, _) ->
      if is_mutex_protect lid then
        match List.rev args with
        | (_, thunk) :: _ -> Some (loc_range thunk.Parsetree.pexp_loc)
        | [] -> None
      else None)
    (expr_apps e)

(* The closure arguments of every [Domain.spawn] in [e]. *)
let spawn_closures (e : Parsetree.expression) : Parsetree.expression list =
  List.filter_map
    (fun (lid, args, _) ->
      if is_spawn lid then
        match args with (_, closure) :: _ -> Some closure | [] -> None
      else None)
    (expr_apps e)

(* -- interprocedural secret taint --------------------------------- *)

(* Tail positions of a function body: where its result comes from. *)
let rec tail_exprs (e : Parsetree.expression) : Parsetree.expression list =
  match e.pexp_desc with
  | Pexp_fun (_, _, _, body) | Pexp_newtype (_, body) -> tail_exprs body
  | Pexp_constraint (body, _) -> tail_exprs body
  | Pexp_let (_, _, body)
  | Pexp_sequence (_, body)
  | Pexp_open (_, body)
  | Pexp_letmodule (_, _, body) ->
      tail_exprs body
  | Pexp_ifthenelse (_, t, f) -> (
      tail_exprs t @ match f with Some f -> tail_exprs f | None -> [])
  | Pexp_match (_, cases) | Pexp_try (_, cases) | Pexp_function cases ->
      List.concat_map (fun (c : Parsetree.case) -> tail_exprs c.pc_rhs) cases
  | _ -> [ e ]

(* Interprocedural summaries. Two directions, deliberately asymmetric
   to keep the pass high-signal:

   [ret.(d)] — does [d]'s result carry secret material. Chains
   transitively through return paths (a wrapper around a key
   derivation is itself secret-returning), computed as a fixpoint
   from the *original* seeds (naming convention, [@secret],
   comment annotations). Constructor-wrapped returns (records,
   tuples, variants) are deliberately *not* secret-returning: a
   keypair record is a struct, and the projection site is already
   covered by field-name convention ([kp.sk] taints through the
   field name).

   [params.(d)] — parameters some call site passes secret material
   into. Propagated exactly ONE step from the seeds and never fed
   back into [ret] or further call sites: transitive argument taint
   drowns the arithmetic kernel (every limb of [Bn]/[Fe] is
   transitively derived from some secret scalar) in findings the
   per-file pass was deliberately scoped to avoid. One step is the
   useful signal: "this module receives raw key material as an
   argument" — the callee body is then checked under that seed. *)
let taint_fixpoint (prog : program) : bool array * string list array =
  let n = Array.length prog.p_defs in
  let ret = Array.make n false in
  let params = Array.make n [] in
  (* phase 1: secret-returning summaries, fixpoint over return paths *)
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds < 5 do
    changed := false;
    incr rounds;
    Array.iter
      (fun d ->
        if d.d_is_fun && not ret.(d.d_id) then begin
          let pf = d.d_pf in
          let ret_secret lid =
            let ids = resolve_defs prog pf lid in
            if List.exists (fun id -> ret.(id)) ids then Some (lid_last lid)
            else None
          in
          let is_secret =
            compute_item_secrets ~seeds:(comment_secrets pf.pf_src)
              ~publics:(comment_publics pf.pf_src) ~ret_secret d.d_item
          in
          let _, core = fun_params d.d_body in
          let tail_secret =
            List.exists
              (fun (t : Parsetree.expression) ->
                match t.pexp_desc with
                | Pexp_record _ | Pexp_tuple _ | Pexp_construct _
                | Pexp_variant _ ->
                    false
                | _ -> mentions_secret ~ret_secret is_secret t <> None)
              (tail_exprs core)
          in
          if tail_secret then begin
            ret.(d.d_id) <- true;
            changed := true
          end
        end)
      prog.p_defs
  done;
  (* phase 2: one step of argument taint onto callee parameters *)
  Array.iter
    (fun d ->
      let pf = d.d_pf in
      let ret_secret lid =
        let ids = resolve_defs prog pf lid in
        if List.exists (fun id -> ret.(id)) ids then Some (lid_last lid)
        else None
      in
      let is_secret =
        compute_item_secrets ~seeds:(comment_secrets pf.pf_src)
          ~publics:(comment_publics pf.pf_src) ~ret_secret d.d_item
      in
      List.iter
        (fun (lid, args, _) ->
          match resolve_defs prog pf lid with
          | [] -> ()
          | callees ->
              List.iter
                (fun cid ->
                  let c = prog.p_defs.(cid) in
                  if c.d_params <> [] then begin
                    let positional =
                      List.filter_map
                        (fun (pos, name) -> if pos then Some name else None)
                        c.d_params
                    in
                    let pos = ref 0 in
                    List.iter
                      (fun ((label : Asttypes.arg_label), arg) ->
                        let pname =
                          match label with
                          | Asttypes.Labelled s | Asttypes.Optional s ->
                              if List.mem (false, s) c.d_params then Some s
                              else None
                          | Asttypes.Nolabel ->
                              let p =
                                if !pos < List.length positional then
                                  Some (List.nth positional !pos)
                                else None
                              in
                              incr pos;
                              p
                        in
                        match pname with
                        | Some p when p <> "_" && not (convention_secret p) ->
                            (match mentions_secret ~ret_secret is_secret arg with
                            | Some why when not (List.mem p params.(cid)) ->
                                if
                                  Sys.getenv_opt "MONET_LINT_DEBUG_TAINT"
                                  <> None
                                then
                                  Printf.eprintf
                                    "taint-edge: %s:%d %s -> param %s of %s \
                                     (via `%s')\n"
                                    pf.pf_file
                                    d.d_item.Parsetree.pstr_loc.loc_start
                                      .Lexing.pos_lnum
                                    (if d.d_name = "" then "<anon>"
                                     else d.d_name)
                                    p c.d_name why;
                                params.(cid) <- p :: params.(cid)
                            | _ -> ())
                        | _ -> ())
                      args
                  end)
                callees)
        (expr_apps d.d_body))
    prog.p_defs;
  (ret, params)

(* -- domain-safety pass ------------------------------------------- *)

(* The work item for the reachability/finding scan: a named def or a
   [Domain.spawn] closure (anonymous, always treated as code that
   runs on the spawned domain). *)
type scan_unit = {
  su_pf : pfile;
  su_body : Parsetree.expression;
  su_is_fun : bool;  (** findings are only reported in function code *)
}

let domain_pass ~(cfg : config) (prog : program) : finding list * graph_stats =
  ignore cfg;
  let n = Array.length prog.p_defs in
  let ng = Array.length prog.p_globals in
  (* spawn sites: (enclosing def, closures) *)
  let sites =
    Array.to_list prog.p_defs
    |> List.filter_map (fun d ->
           match spawn_closures d.d_body with
           | [] -> None
           | cls -> Some (d, cls))
  in
  let roots = List.concat_map (fun (_, cls) -> cls) sites in
  (* call edges, with local-shadow suppression for unqualified names *)
  let edges_of_body (pf : pfile) (body : Parsetree.expression) : int list =
    let bound = bound_names body in
    List.concat_map
      (fun (lid, _) ->
        match safe_flatten lid with
        | [ single ] when Hashtbl.mem bound single -> []
        | _ -> resolve_defs prog pf lid)
      (expr_idents body)
  in
  let def_edges = Array.make n None in
  let edges_of_def (d : def) : int list =
    match def_edges.(d.d_id) with
    | Some e -> e
    | None ->
        let e = List.sort_uniq compare (edges_of_body d.d_pf d.d_body) in
        def_edges.(d.d_id) <- Some e;
        e
  in
  (* reachability from the spawn closures *)
  let reach = Array.make n false in
  let work = Queue.create () in
  List.iter
    (fun (d, cls) ->
      List.iter
        (fun cl -> List.iter (fun id -> Queue.add id work) (edges_of_body d.d_pf cl))
        cls)
    sites;
  while not (Queue.is_empty work) do
    let id = Queue.pop work in
    if not reach.(id) then begin
      reach.(id) <- true;
      List.iter (fun id' -> Queue.add id' work) (edges_of_def prog.p_defs.(id))
    end
  done;
  (* which globals are ever written, program-wide *)
  let written = Array.make ng false in
  let mutators =
    [ ("Array", [ "set"; "unsafe_set"; "fill"; "blit"; "sort"; "fast_sort";
                  "shuffle" ]);
      ("Bytes", [ "set"; "unsafe_set"; "fill"; "blit"; "blit_string" ]);
      ("Hashtbl", [ "add"; "replace"; "remove"; "reset"; "clear";
                    "filter_map_inplace" ]);
      ("Buffer", [ "add_char"; "add_string"; "add_bytes"; "add_substring";
                   "add_subbytes"; "add_buffer"; "clear"; "reset"; "truncate" ]);
      ("Queue", [ "add"; "push"; "pop"; "take"; "clear"; "transfer" ]);
      ("Stack", [ "push"; "pop"; "clear" ]);
      ("Lazy", []) ]
  in
  let mark_written (pf : pfile) (bound : (string, unit) Hashtbl.t)
      (arg : Parsetree.expression) =
    match (strip_expr arg).pexp_desc with
    | Pexp_ident { txt; _ } -> (
        match safe_flatten txt with
        | [ single ] when Hashtbl.mem bound single -> ()
        | _ ->
            List.iter
              (fun gid -> written.(gid) <- true)
              (resolve_globals prog pf txt))
    | _ -> ()
  in
  let scan_writes (pf : pfile) (body : Parsetree.expression) =
    let bound = bound_names body in
    List.iter
      (fun (lid, args, _) ->
        match drop_stdlib (safe_flatten lid) with
        | [ (":=" | "incr" | "decr") ] -> (
            match args with
            | (_, target) :: _ -> mark_written pf bound target
            | [] -> ())
        | [ m; f ]
          when List.mem f
                 (match List.assoc_opt m mutators with
                 | Some fs -> fs
                 | None -> []) ->
            List.iter (fun (_, a) -> mark_written pf bound a) args
        | _ -> ())
      (expr_apps body);
    (* record-field assignment [g.f <- v] *)
    let it =
      {
        Ast_iterator.default_iterator with
        expr =
          (fun self ex ->
            (match ex.Parsetree.pexp_desc with
            | Pexp_setfield (target, _, _) -> mark_written pf bound target
            | _ -> ());
            Ast_iterator.default_iterator.expr self ex);
      }
    in
    it.expr it body
  in
  Array.iter (fun d -> scan_writes d.d_pf d.d_body) prog.p_defs;
  (* which defs force which lazy globals *)
  let forced_by (pf : pfile) (body : Parsetree.expression) : int list =
    let bound = bound_names body in
    List.concat_map
      (fun (lid, args, _) ->
        if is_lazy_force lid then
          match args with
          | (_, arg) :: _ -> (
              match (strip_expr arg).pexp_desc with
              | Pexp_ident { txt; _ } -> (
                  match safe_flatten txt with
                  | [ single ] when Hashtbl.mem bound single -> []
                  | _ -> resolve_globals prog pf txt)
              | _ -> [])
          | [] -> []
        else [])
      (expr_apps body)
  in
  let def_forces = Array.map (fun d -> forced_by d.d_pf d.d_body) prog.p_defs in
  (* pre-forced lazies: at *every* spawn site, the code outside the
     closures either forces the lazy directly or calls (directly) a
     function that forces it — the [Point.force_precomp] pattern. *)
  let preforced = Array.make ng false in
  if sites <> [] then begin
    let forced_at_site ((d : def), (cls : Parsetree.expression list)) :
        (int, unit) Hashtbl.t =
      let closure_ranges =
        List.map (fun (cl : Parsetree.expression) -> loc_range cl.pexp_loc) cls
      in
      let bound = bound_names d.d_body in
      let tbl = Hashtbl.create 8 in
      (* direct forces lexically before/outside the closures *)
      List.iter
        (fun (lid, args, loc) ->
          if is_lazy_force lid && not (in_ranges closure_ranges loc) then
            match args with
            | (_, arg) :: _ -> (
                match (strip_expr arg).pexp_desc with
                | Pexp_ident { txt; _ } ->
                    List.iter
                      (fun gid -> Hashtbl.replace tbl gid ())
                      (resolve_globals prog d.d_pf txt)
                | _ -> ())
            | [] -> ())
        (expr_apps d.d_body);
      (* pre-spawn direct callees that are eager forcers *)
      List.iter
        (fun (lid, loc) ->
          let shadowed =
            match safe_flatten lid with
            | [ single ] -> Hashtbl.mem bound single
            | _ -> false
          in
          if (not shadowed) && not (in_ranges closure_ranges loc) then
            List.iter
              (fun did ->
                List.iter
                  (fun gid -> Hashtbl.replace tbl gid ())
                  def_forces.(did))
              (resolve_defs prog d.d_pf lid))
        (expr_idents d.d_body);
      tbl
    in
    let site_tables = List.map forced_at_site sites in
    for gid = 0 to ng - 1 do
      preforced.(gid) <-
        List.for_all (fun tbl -> Hashtbl.mem tbl gid) site_tables
    done
  end;
  (* the finding scan over domain-reachable code *)
  let units =
    List.filter_map
      (fun d ->
        if reach.(d.d_id) then
          Some { su_pf = d.d_pf; su_body = d.d_body; su_is_fun = d.d_is_fun }
        else None)
      (Array.to_list prog.p_defs)
    @ List.concat_map
        (fun ((d : def), cls) ->
          List.map
            (fun cl -> { su_pf = d.d_pf; su_body = cl; su_is_fun = true })
            cls)
        sites
  in
  let findings = ref [] in
  let seen = Hashtbl.create 64 in
  let add ~(loc : Location.t) ~(file : string) ~rule ~symbol ~message
      ~suggestion =
    let p = loc.Location.loc_start in
    let key = (file, p.Lexing.pos_lnum, p.Lexing.pos_cnum, rule, symbol) in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.replace seen key ();
      findings :=
        {
          f_file = file;
          f_line = p.Lexing.pos_lnum;
          f_col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
          f_rule = rule;
          f_symbol = symbol;
          f_message = message;
          f_suggestion = suggestion;
        }
        :: !findings
    end
  in
  List.iter
    (fun u ->
      if u.su_is_fun then begin
        let bound = bound_names u.su_body in
        let protected = protect_ranges u.su_body in
        List.iter
          (fun (lid, loc) ->
            let skip =
              match safe_flatten lid with
              | [ single ] -> Hashtbl.mem bound single
              | _ -> false
            in
            if not skip then
              List.iter
                (fun gid ->
                  let g = prog.p_globals.(gid) in
                  match g.g_kind with
                  | Gsafe -> ()
                  | Glazy ->
                      if not preforced.(gid) then
                        add ~loc ~file:u.su_pf.pf_file ~rule:"domain-lazy"
                          ~symbol:g.g_name
                          ~message:
                            (Printf.sprintf
                               "toplevel lazy `%s' (%s:%d) can be forced from \
                                a spawned domain: concurrent Lazy.force \
                                raises CamlinternalLazy.Undefined"
                               g.g_name g.g_pf.pf_file g.g_line)
                          ~suggestion:
                            "force it on the spawning domain before every \
                             Domain.spawn (the Point.force_precomp pattern), \
                             make it eager, or allowlist with a justification"
                  | Gmut desc ->
                      if written.(gid) && not (in_ranges protected loc) then
                        add ~loc ~file:u.su_pf.pf_file ~rule:"domain-unsafe"
                          ~symbol:g.g_name
                          ~message:
                            (Printf.sprintf
                               "shared mutable toplevel %s `%s' (%s:%d) \
                                touched from domain-reachable code without \
                                synchronization"
                               desc g.g_name g.g_pf.pf_file g.g_line)
                          ~suggestion:
                            "wrap the access in Mutex.protect, move the \
                             state to Atomic/Domain.DLS, or allowlist with \
                             a justification")
                (resolve_globals prog u.su_pf lid))
          (expr_idents u.su_body)
      end)
    units;
  let edge_count =
    Array.fold_left
      (fun acc e -> acc + match e with Some l -> List.length l | None -> 0)
      0 def_edges
  in
  let reachable = Array.fold_left (fun acc r -> acc + if r then 1 else 0) 0 reach in
  ( List.rev !findings,
    {
      gs_defs = n;
      gs_edges = edge_count;
      gs_roots = List.length roots;
      gs_reachable = reachable;
    } )

(* -- whole-program driver ----------------------------------------- *)

(** Lint [paths] as one program: per-file rule families (with
    interprocedural taint seeded through the call graph) plus the
    domain-safety pass, then the allowlist. This is what the [@lint]
    alias and the CLIs run; {!run} remains the per-file engine used
    by single-fixture tests. *)
let run_program ~(cfg : config) (paths : string list) : report =
  let files = List.concat_map ml_files_under paths in
  let mls = List.filter (fun f -> Filename.check_suffix f ".ml") files in
  let mlis = List.filter (fun f -> Filename.check_suffix f ".mli") files in
  let parse_failures = ref [] in
  let parsed =
    List.filter_map
      (fun file ->
        let src = read_file file in
        match parse_impl ~file src with
        | Ok str -> Some (file, src, str)
        | Error e ->
            parse_failures :=
              { f_file = file; f_line = 1; f_col = 0; f_rule = "parse-error";
                f_symbol = "parse"; f_message = e;
                f_suggestion = "fix the syntax error" }
              :: !parse_failures;
            None)
      mls
  in
  let prog = build_program parsed in
  let ret, params = taint_fixpoint prog in
  if Sys.getenv_opt "MONET_LINT_DEBUG_TAINT" <> None then
    Array.iter
      (fun d ->
        if ret.(d.d_id) || params.(d.d_id) <> [] then
          Printf.eprintf "taint: %s %s%s ret=%b params=[%s]\n"
            d.d_pf.pf_file
            (String.concat "." (d.d_pf.pf_mod :: d.d_mpath))
            (if d.d_name = "" then ".<anon>" else "." ^ d.d_name)
            ret.(d.d_id)
            (String.concat " " params.(d.d_id)))
      prog.p_defs;
  (* per-file taint context: extra seeds per toplevel item (parameters
     some caller passes secrets into), and the secret-returning-callee
     resolver *)
  let item_extras : (string * int, string list) Hashtbl.t =
    Hashtbl.create 64
  in
  Array.iter
    (fun d ->
      if params.(d.d_id) <> [] then begin
        let key =
          (d.d_pf.pf_file, d.d_item.Parsetree.pstr_loc.loc_start.Lexing.pos_cnum)
        in
        let prev =
          match Hashtbl.find_opt item_extras key with Some l -> l | None -> []
        in
        Hashtbl.replace item_extras key (params.(d.d_id) @ prev)
      end)
    prog.p_defs;
  let taint_for (pf : pfile) : taint_ctx =
    {
      tc_extra =
        (fun loc ->
          match
            Hashtbl.find_opt item_extras
              (pf.pf_file, loc.Location.loc_start.Lexing.pos_cnum)
          with
          | Some l -> l
          | None -> []);
      tc_ret =
        (fun lid ->
          if List.exists (fun id -> ret.(id)) (resolve_defs prog pf lid) then
            Some (lid_last lid)
          else None);
    }
  in
  let core =
    List.concat_map
      (fun pf ->
        lint_structure ~cfg ~taint:(taint_for pf) ~file:pf.pf_file
          ~src:pf.pf_src pf.pf_str)
      prog.p_files
  in
  let intf =
    List.concat_map
      (fun f -> lint_interface_source ~cfg ~file:f (read_file f))
      mlis
  in
  let dom, graph = domain_pass ~cfg prog in
  apply_allow ~cfg ~files:(List.length files) ~graph
    (List.rev !parse_failures @ core @ intf @ dom)

(* ----------------------------------------------------------------- *)
(* Output                                                            *)
(* ----------------------------------------------------------------- *)

let pp_finding (out : out_channel) (f : finding) : unit =
  Printf.fprintf out "%s:%d:%d: [%s] %s — %s\n" f.f_file f.f_line f.f_col f.f_rule
    f.f_message f.f_suggestion

let pp_report (out : out_channel) (r : report) : unit =
  List.iter (pp_finding out) r.r_findings;
  Printf.fprintf out "monet-lint: %d finding%s (%d suppressed) in %d file%s\n"
    (List.length r.r_findings)
    (if List.length r.r_findings = 1 then "" else "s")
    r.r_suppressed r.r_files
    (if r.r_files = 1 then "" else "s")

(* JSON emission, schema "monet-lint/2", through the shared codec
   (Monet_util.Json). *)

let json_schema_version = "monet-lint/2"

(** The pass family a rule belongs to — the [--only] filter and the
    per-finding ["pass"] JSON field speak this vocabulary. *)
let pass_of_rule (rule : string) : string =
  match rule with
  | "secret-branch" | "secret-eq" | "secret-index" -> "taint"
  | "domain-unsafe" | "domain-lazy" -> "domain-safety"
  | "doc-comment" -> "doc"
  | "stale-allow" -> "allowlist"
  | "parse-error" -> "parse"
  | _ -> "core"

(** [finding_in_pass only f] — does [f] match a [--only] selector?
    The selector may name a pass family or an exact rule. *)
let finding_in_pass (only : string) (f : finding) : bool =
  f.f_rule = only || pass_of_rule f.f_rule = only

let to_json (r : report) : string =
  let open Monet_util in
  let finding f =
    Json.Obj
      [ ("file", Json.Str f.f_file); ("line", Json.int f.f_line);
        ("col", Json.int f.f_col); ("rule", Json.Str f.f_rule);
        ("pass", Json.Str (pass_of_rule f.f_rule));
        ("symbol", Json.Str f.f_symbol); ("message", Json.Str f.f_message);
        ("suggestion", Json.Str f.f_suggestion) ]
  in
  let graph =
    match r.r_graph with
    | Some g ->
        [ ("graph",
            Json.Obj
              [ ("defs", Json.int g.gs_defs); ("edges", Json.int g.gs_edges);
                ("roots", Json.int g.gs_roots);
                ("reachable", Json.int g.gs_reachable) ]) ]
    | None -> []
  in
  Json.to_string
    (Json.Obj
       ([ ("schema", Json.Str json_schema_version);
          ("files", Json.int r.r_files);
          ("suppressed", Json.int r.r_suppressed) ]
       @ graph
       @ [ ("findings", Json.Arr (List.map finding r.r_findings)) ]))

(** Validate a [--json] document against the monet-lint/2 shape: the
    v1 fields, a mandatory per-finding ["pass"] tag drawn from the
    pass vocabulary, and an optional whole-program ["graph"] object
    with integer [defs]/[edges]/[roots]/[reachable] counters. *)
let validate_json (s : string) : (unit, string) result =
  let open Monet_util in
  let pass_matches_rule f =
    match (Json.member "pass" f, Json.member "rule" f) with
    | Some (Json.Str p), Some (Json.Str r) -> p = pass_of_rule r
    | _ -> false
  in
  Json.Spec.(
    validate
      (Object
         [ ("schema", tag json_schema_version); ("files", Count);
           ("suppressed", Count);
           ("graph",
             Optional
               (Object
                  [ ("defs", Count); ("edges", Count); ("roots", Count);
                    ("reachable", Count) ]));
           ("findings",
             Array
               (Where
                  ( Object
                      [ ("file", String); ("line", Count); ("col", Count);
                        ("rule", String); ("pass", String); ("symbol", String);
                        ("message", String); ("suggestion", String) ],
                    "a pass matching its rule",
                    pass_matches_rule ))) ]))
    s
