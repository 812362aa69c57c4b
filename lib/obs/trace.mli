(** Structured tracing: nested spans, point events, a ring-buffer sink
    and a versioned JSON exporter (schema [monet-trace/1]).

    While disabled (the default), {!span} runs its body after a single
    flag load and {!event} is a no-op; nothing is allocated or
    recorded, so the instrumented protocol stack keeps its benchmark
    numbers (DESIGN.md §3.8 states the full overhead contract).

    The sink is module-global and single-threaded by design, matching
    the repo's deterministic single-threaded simulation. *)

type event = {
  ev_name : string;  (** dot-separated event name, e.g. ["driver.retransmit"] *)
  ev_attrs : (string * string) list;  (** free-form key/value annotations *)
  ev_at_ms : float;  (** wall-clock timestamp (clock milliseconds) *)
  ev_sim_ms : float option;
      (** simulation-clock timestamp, when a sim clock is installed *)
}
(** A point event, attached to the innermost open span (or to the
    top-level loose-event list when no span is open). *)

type span = {
  sp_name : string;  (** dot-separated span name, e.g. ["channel.update"] *)
  sp_attrs : (string * string) list;  (** free-form key/value annotations *)
  sp_start_ms : float;  (** wall-clock start (clock milliseconds) *)
  sp_sim_start_ms : float option;  (** simulation-clock start, if installed *)
  mutable sp_end_ms : float;  (** wall-clock end, set when the span closes *)
  mutable sp_sim_end_ms : float option;  (** simulation-clock end, if installed *)
  mutable sp_events : event list;  (** point events, oldest first once closed *)
  mutable sp_children : span list;  (** child spans, oldest first once closed *)
  mutable sp_ops : (string * int) list;
      (** metrics-counter increase over the span's extent, inclusive of
          children (a parent's counts cover its subtree) *)
  mutable sp_snap : (string * int) list;
      (** internal: metrics snapshot taken at open, cleared at close *)
}
(** One timed region of execution. *)

val json_schema_version : string
(** The schema tag emitted by {!to_json}: ["monet-trace/1"]. *)

val enable : ?capacity:int -> unit -> unit
(** Start tracing with a fresh sink retaining the newest [capacity]
    (default 256) finished root spans. *)

val disable : unit -> unit
(** Stop tracing; recorded spans remain readable via {!roots}. *)

val is_enabled : unit -> bool
(** Whether spans and events are currently recorded. *)

val clear : unit -> unit
(** Drop all recorded spans and events (keeps the enabled state). *)

val set_clock : (unit -> float) -> unit
(** Override the wall clock (milliseconds). Defaults to the monotonic
    wall clock ([Monotonic_clock.now] in milliseconds), which keeps
    counting while the process sleeps or waits. *)

val set_sim_clock : (unit -> float) option -> unit
(** Install (or remove) a simulation clock; while installed, every
    span and event also records simulation-time stamps.
    [Monet_dsim.Clock.run] installs it for the duration of a drain. *)

val now_ms : unit -> float
(** Current wall-clock reading (clock milliseconds). *)

val timed : (unit -> 'a) -> 'a * float
(** [timed f] runs [f] and returns its result with the milliseconds it
    took on the {!now_ms} clock — the one timer for the library and
    every bench. Records nothing, whether or not tracing is enabled. *)

val span : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [span name f] runs [f] inside a span: the span nests under the
    innermost open span, times [f], and captures the metrics-counter
    delta over its extent. Exception-safe: the span closes even if
    [f] raises. When tracing is disabled this is just [f ()]. *)

val event : ?attrs:(string * string) list -> string -> unit
(** Record a point event on the innermost open span (or as a loose
    top-level event when none is open). No-op while disabled. *)

val roots : unit -> span list
(** Finished root spans, oldest first (up to the sink capacity). *)

val loose_events : unit -> event list
(** Events recorded outside any span, oldest first. *)

val duration_ms : span -> float
(** Wall-clock extent of a closed span, in milliseconds. *)

val to_json : unit -> string
(** Export the sink ({!roots} and {!loose_events}) as compact
    [monet-trace/1] JSON. The output always satisfies
    {!validate_json}. *)

val validate_json : string -> (unit, string) result
(** Validate a [monet-trace/1] document: parse it with the shared
    codec ({!Monet_util.Json}) and check the schema's field spec —
    schema tag, span fields (name / start_ms / end_ms / attrs / ops /
    events / children), and event fields, recursively. [Error] names
    the path of the first mismatch. *)

val ops_summary : ?limit:int -> (string * int) list -> string
(** Render an ops list as ["k=v k=v …"], largest first, keeping at
    most [limit] (default 6) entries and summarizing the rest. *)

val render : span -> string
(** Render a span tree as indented ASCII, one line per span with its
    duration, attributes, op counts and events — the
    [monet_cli trace] output format. *)
