(* Structured tracing: nested spans, point events, a ring-buffer sink
   and a self-validated JSON exporter (schema monet-trace/1).

   A span records wall-clock start/end (the overridable [clock],
   defaulting to monotonic wall milliseconds, which [timed] also
   reads), optional simulation-clock start/end (installed by
   Monet_dsim.Clock.run for the duration of a drain), its attributes,
   point events, child spans, and the per-counter increase of the
   metrics registry over its extent ([sp_ops], inclusive of children).

   When tracing is disabled, [span name f] is [f ()] after one flag
   load; [event] is a no-op. All sink state is module-global and
   confined to the domain that called [enable]: spans and events from
   worker domains pass through untraced (the span stack and ring are
   an inherently sequential structure — workers report through the
   domain-local metrics registry instead, DESIGN.md §3.10). *)

open Monet_util

type event = {
  ev_name : string;
  ev_attrs : (string * string) list;
  ev_at_ms : float;
  ev_sim_ms : float option;
}

type span = {
  sp_name : string;
  sp_attrs : (string * string) list;
  sp_start_ms : float;
  sp_sim_start_ms : float option;
  mutable sp_end_ms : float;
  mutable sp_sim_end_ms : float option;
  mutable sp_events : event list;
  mutable sp_children : span list;
  mutable sp_ops : (string * int) list;
  mutable sp_snap : (string * int) list; (* metrics snapshot at open *)
}

let json_schema_version = "monet-trace/1"

let enabled = ref false

(* The domain that called [enable]: the only one whose spans/events
   are recorded. *)
let owner : Domain.id option ref = ref None

let[@inline] active () =
  !enabled && (match !owner with Some d -> d = Domain.self () | None -> false)

let clock : (unit -> float) ref =
  ref (fun () -> Int64.to_float (Monotonic_clock.now ()) /. 1e6)
let sim_clock : (unit -> float) option ref = ref None

(* Open spans, innermost first. *)
let stack : span list ref = ref []

(* Ring buffer of finished root spans: bounded memory under long
   soaks, newest [capacity] roots retained. *)
let default_capacity = 256
let ring : span option array ref = ref (Array.make default_capacity None)
let ring_pos = ref 0
let ring_len = ref 0

(* Events fired outside any span land here (newest first, capped). *)
let orphans : event list ref = ref []
let orphan_count = ref 0

let set_clock f = clock := f
let set_sim_clock f = sim_clock := f
let now_ms () = !clock ()
let sim_now () = match !sim_clock with Some c -> Some (c ()) | None -> None

let timed (f : unit -> 'a) : 'a * float =
  let t0 = now_ms () in
  let r = f () in
  (r, now_ms () -. t0)

let clear () =
  stack := [];
  ring := Array.make (Array.length !ring) None;
  ring_pos := 0;
  ring_len := 0;
  orphans := [];
  orphan_count := 0

let enable ?(capacity = default_capacity) () =
  let capacity = if capacity < 1 then 1 else capacity in
  ring := Array.make capacity None;
  ring_pos := 0;
  ring_len := 0;
  stack := [];
  orphans := [];
  orphan_count := 0;
  owner := Some (Domain.self ());
  enabled := true

let disable () = enabled := false
let is_enabled () = !enabled

let ring_push sp =
  let cap = Array.length !ring in
  !ring.(!ring_pos) <- Some sp;
  ring_pos := (!ring_pos + 1) mod cap;
  if !ring_len < cap then incr ring_len

(* Finished roots, oldest first. *)
let roots () : span list =
  let cap = Array.length !ring in
  let start = (!ring_pos - !ring_len + cap) mod cap in
  let acc = ref [] in
  for i = !ring_len - 1 downto 0 do
    match !ring.((start + i) mod cap) with
    | Some sp -> acc := sp :: !acc
    | None -> ()
  done;
  !acc

let loose_events () : event list = List.rev !orphans

let finish sp =
  sp.sp_end_ms <- now_ms ();
  sp.sp_sim_end_ms <- sim_now ();
  sp.sp_ops <- Metrics.diff ~before:sp.sp_snap ~after:(Metrics.snapshot ());
  sp.sp_snap <- [];
  sp.sp_events <- List.rev sp.sp_events;
  sp.sp_children <- List.rev sp.sp_children;
  match !stack with
  | top :: rest when top == sp -> (
      stack := rest;
      match rest with
      | parent :: _ -> parent.sp_children <- sp :: parent.sp_children
      | [] -> ring_push sp)
  | _ -> () (* tracer was reset mid-span; drop the span *)

let span ?(attrs = []) (name : string) (f : unit -> 'a) : 'a =
  if not (active ()) then f ()
  else begin
    let sp =
      { sp_name = name; sp_attrs = attrs; sp_start_ms = now_ms ();
        sp_sim_start_ms = sim_now (); sp_end_ms = 0.0; sp_sim_end_ms = None;
        sp_events = []; sp_children = []; sp_ops = [];
        sp_snap = Metrics.snapshot () }
    in
    stack := sp :: !stack;
    Fun.protect ~finally:(fun () -> finish sp) f
  end

let event ?(attrs = []) (name : string) : unit =
  if active () then begin
    let ev =
      { ev_name = name; ev_attrs = attrs; ev_at_ms = now_ms ();
        ev_sim_ms = sim_now () }
    in
    match !stack with
    | sp :: _ -> sp.sp_events <- ev :: sp.sp_events
    | [] ->
        if !orphan_count < 4096 then begin
          orphans := ev :: !orphans;
          incr orphan_count
        end
  end

let duration_ms sp = sp.sp_end_ms -. sp.sp_start_ms

(* --- JSON export (schema monet-trace/1) --------------------------- *)

let json_attrs attrs = Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) attrs)
let json_ms = Json.fixed ~decimals:6

let json_of_event (ev : event) : Json.t =
  Json.Obj
    ([ ("name", Json.Str ev.ev_name); ("at_ms", json_ms ev.ev_at_ms) ]
    @ (match ev.ev_sim_ms with Some t -> [ ("sim_ms", json_ms t) ] | None -> [])
    @ [ ("attrs", json_attrs ev.ev_attrs) ])

let rec json_of_span (sp : span) : Json.t =
  Json.Obj
    ([ ("name", Json.Str sp.sp_name);
       ("start_ms", json_ms sp.sp_start_ms);
       ("end_ms", json_ms sp.sp_end_ms) ]
    @ (match (sp.sp_sim_start_ms, sp.sp_sim_end_ms) with
      | Some s, Some e -> [ ("sim_start_ms", json_ms s); ("sim_end_ms", json_ms e) ]
      | _ -> [])
    @ [ ("attrs", json_attrs sp.sp_attrs);
        ("ops", Json.Obj (List.map (fun (k, v) -> (k, Json.int v)) sp.sp_ops));
        ("events", Json.Arr (List.map json_of_event sp.sp_events));
        ("children", Json.Arr (List.map json_of_span sp.sp_children)) ])

let to_json () : string =
  Json.to_string
    (Json.Obj
       [ ("schema", Json.Str json_schema_version);
         ("clock_unit", Json.Str "ms");
         ("spans", Json.Arr (List.map json_of_span (roots ())));
         ("events", Json.Arr (List.map json_of_event (loose_events ()))) ])

let event_spec =
  Json.Spec.(
    Object
      [ ("name", String); ("at_ms", Number); ("sim_ms", Optional Number);
        ("attrs", Map String) ])

let rec span_spec =
  Json.Spec.(
    Object
      [ ("name", String); ("start_ms", Number); ("end_ms", Number);
        ("sim_start_ms", Optional Number); ("sim_end_ms", Optional Number);
        ("attrs", Map String); ("ops", Map Count);
        ("events", Array event_spec); ("children", Array span_spec) ])

let validate_json (s : string) : (unit, string) result =
  Json.Spec.(
    validate
      (Object
         [ ("schema", tag json_schema_version); ("clock_unit", String);
           ("spans", Array span_spec); ("events", Array event_spec) ]))
    s

(* --- ASCII span-tree rendering ------------------------------------ *)

let ops_summary ?(limit = 6) (ops : (string * int) list) : string =
  let sorted = List.sort (fun (_, a) (_, b) -> compare b a) ops in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: take (n - 1) rest
  in
  let shown = take limit sorted in
  let extra = List.length sorted - List.length shown in
  let body =
    String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) shown)
  in
  if extra > 0 then Printf.sprintf "%s (+%d more)" body extra else body

let render (sp : span) : string =
  let b = Buffer.create 1024 in
  let rec go prefix is_last sp =
    let connector =
      if prefix = "" && is_last then "" else if is_last then "`- " else "|- "
    in
    let attrs =
      match sp.sp_attrs with
      | [] -> ""
      | attrs ->
          " ["
          ^ String.concat " "
              (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) attrs)
          ^ "]"
    in
    let sim =
      match (sp.sp_sim_start_ms, sp.sp_sim_end_ms) with
      | Some s, Some e -> Printf.sprintf "  sim %.2f ms" (e -. s)
      | _ -> ""
    in
    Buffer.add_string b
      (Printf.sprintf "%s%s%s%s  %.3f ms%s\n" prefix connector sp.sp_name attrs
         (duration_ms sp) sim);
    let child_prefix =
      if prefix = "" && connector = "" then ""
      else prefix ^ if is_last then "   " else "|  "
    in
    (match sp.sp_ops with
    | [] -> ()
    | ops ->
        Buffer.add_string b
          (Printf.sprintf "%s   ops: %s\n" child_prefix (ops_summary ops)));
    List.iter
      (fun ev ->
        Buffer.add_string b
          (Printf.sprintf "%s   ! %s%s\n" child_prefix ev.ev_name
             (match ev.ev_attrs with
             | [] -> ""
             | attrs ->
                 " ["
                 ^ String.concat " "
                     (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) attrs)
                 ^ "]")))
      sp.sp_events;
    let n = List.length sp.sp_children in
    List.iteri (fun i c -> go child_prefix (i = n - 1) c) sp.sp_children
  in
  go "" true sp;
  Buffer.contents b
