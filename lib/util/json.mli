(** The repo's one JSON codec: a value type, a compact printer, an
    exception-free parser and a declarative field-spec checker.

    Every machine-readable document goes through it — the
    [monet-trace/1], [monet-mc/1] and [monet-lint/2] reports and the
    [monet-ec-bench/1], [monet-net-bench/1] and [monet-par-smoke/1]
    benchmark files. A writer builds a {!t} and prints it with
    {!to_string}; a validator is a {!Spec.t} applied with
    {!Spec.validate}. *)

type t =
  | Null
  | Bool of bool
  | Num of string
      (** a number kept as its decimal text, so a writer fixes the
          printed precision and a reader sees exactly what was written *)
  | Str of string  (** a byte string; printed with JSON escapes *)
  | Arr of t list
  | Obj of (string * t) list  (** fields in document order *)

val int : int -> t
(** [int n] is [n] in decimal ([%d]). *)

val fixed : decimals:int -> float -> t
(** [fixed ~decimals f] is [f] printed with [decimals] digits after the
    point ([%.*f]); a non-finite [f] becomes {!Null}. *)

val to_string : t -> string
(** Compact rendering: no whitespace between tokens. Strings escape
    the double quote, the backslash and every control byte; other
    bytes pass through. *)

val parse : string -> (t, string) result
(** Parse one complete JSON document. Decodes every escape ([\uXXXX]
    and surrogate pairs to UTF-8); rejects truncated input, trailing
    data, raw control bytes in strings, non-JSON literals such as
    [nan], and numbers outside the JSON grammar. Never raises;
    [parse (to_string v) = Ok v] for every [v] whose numbers are valid
    JSON number text. *)

val member : string -> t -> t option
(** [member k v] is the first field named [k] when [v] is an object. *)

(** Declarative document shapes. Objects may carry fields a spec does
    not name, as the schemas grow by adding fields. *)
module Spec : sig
  type json := t

  type t =
    | String  (** any string *)
    | Count  (** a non-negative integer written without sign or point *)
    | Number  (** any number *)
    | Bool  (** [true] or [false] *)
    | Array of t  (** an array whose every element matches *)
    | Object of (string * t) list
        (** an object with (at least) these fields, each matching *)
    | Map of t  (** an object with any keys, every value matching *)
    | Optional of t
        (** as a field: may be absent or [null]; otherwise matches *)
    | Where of t * string * (json -> bool)
        (** [Where (s, what, p)] matches [s] and satisfies [p]; [what]
            names the condition in the error *)

  val check : t -> json -> (unit, string) result
  (** [check spec v] — [Error] names the path of the first mismatch,
      e.g. ["spans[0].children[1].end_ms: expected a number"]. *)

  val validate : t -> string -> (unit, string) result
  (** {!parse} followed by {!check}; a parse failure is reported as
      ["parse error: ..."]. *)

  val tag : string -> t
  (** A string field equal to the given schema tag. *)
end
