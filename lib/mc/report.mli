(** monet-mc/1: the model checker's machine-readable result format,
    with the same self-validation discipline as monet-lint/2 and
    monet-trace/1 — the writer builds the document with the shared
    codec ({!Monet_util.Json}) and the validator re-parses it against
    this schema's field spec before anything downstream consumes it. *)

(** The schema identifier, ["monet-mc/1"]. *)
val json_schema_version : string

(** Render one exploration result (and the configuration it ran
    under) as a monet-mc/1 JSON document. *)
val to_json : Model.config -> Explore.result -> string

(** Validate a document against the monet-mc/1 field spec, parsed
    with the shared codec; [Error] names the path of the first
    structural problem found. *)
val validate_json : string -> (unit, string) result

(** Multi-line human summary of an exploration, for the non-JSON CLI
    path: completeness, counts, configuration and the shortest
    counterexamples. *)
val summary : Model.config -> Explore.result -> string
