(* What one benchmark run records: named wall-time samples, attempted
   and failed operations, output-check failures, and — in a traced run
   — the library counter, GC and span deltas inside each named
   measurement. *)

module M = Monet_obs.Metrics
module T = Monet_obs.Trace

type t = {
  traced : bool;
  samples : (string, float list) Hashtbl.t;  (* wall ms, newest first *)
  counts : (string * string, int) Hashtbl.t;  (* (measurement, counter) *)
  self_ms : (string * string, float) Hashtbl.t;  (* (measurement, span) *)
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;  (* failed output checks *)
  mutable timed_ms : float;  (* wall time of the timed phases *)
  mutable timed_cpu_ms : float;  (* process CPU time of the timed phases *)
  mutable ops : int;  (* operations the throughput metric counts *)
  mutable ref_ms : float list;  (* [Hostspeed.loop_ms] beside each timed phase *)
}

let create ~traced =
  { traced; samples = Hashtbl.create 16; counts = Hashtbl.create 64;
    self_ms = Hashtbl.create 64; attempted = 0; failed = 0; problems = [];
    timed_ms = 0.0; timed_cpu_ms = 0.0; ops = 0; ref_ms = [] }

let add_sample m name v =
  let old = Option.value ~default:[] (Hashtbl.find_opt m.samples name) in
  Hashtbl.replace m.samples name (v :: old)

let samples m name = Option.value ~default:[] (Hashtbl.find_opt m.samples name)

let bump_count m key d =
  Hashtbl.replace m.counts key (d + Option.value ~default:0 (Hashtbl.find_opt m.counts key))

let count m ~scope name = Option.value ~default:0 (Hashtbl.find_opt m.counts (scope, name))

let self_ms m ~scope name =
  Option.value ~default:0.0 (Hashtbl.find_opt m.self_ms (scope, name))

(* An output check: a false [ok] makes the run incorrect. *)
let check m ok what = if not ok then m.problems <- what :: m.problems

(* Count one attempted operation and whether it failed. *)
let attempt m ok =
  m.attempted <- m.attempted + 1;
  if not ok then m.failed <- m.failed + 1

(* Self time of every span in a finished tree, keyed by span name:
   the span's extent minus the part its children cover. *)
let rec add_self_times m ~scope (sp : T.span) =
  let child_ms = List.fold_left (fun a c -> a +. T.duration_ms c) 0.0 sp.T.sp_children in
  let key = (scope, sp.T.sp_name) in
  let old = Option.value ~default:0.0 (Hashtbl.find_opt m.self_ms key) in
  Hashtbl.replace m.self_ms key (old +. T.duration_ms sp -. child_ms);
  List.iter (add_self_times m ~scope) sp.T.sp_children

(* [measure m name f] times [f] as one sample of [name] and adds the
   minor words it allocated to [name]'s counts. In a traced run it also
   runs [f] inside a ["bench.<name>"] span and adds the metrics-counter
   increase over [f]. Measurements may nest; an inner one's counts are
   also part of the outer one's. *)
let measure m name f =
  let before = if m.traced then M.snapshot () else [] in
  let w0 = Gc.minor_words () in
  let r, s = Clock.time (fun () -> if m.traced then T.span ("bench." ^ name) f else f ()) in
  let words = Gc.minor_words () -. w0 in
  if m.traced then
    List.iter (fun (k, d) -> bump_count m (name, k) d) (M.diff ~before ~after:(M.snapshot ()));
  add_sample m name s.Clock.wall;
  bump_count m (name, "gc.minor_words") (int_of_float words);
  bump_count m (name, "n") 1;
  r

(* Time part of an episode's timed phase: its wall time adds to the
   denominator of the throughput metric. The host-speed reference loop
   runs just before and just after it, outside the timed window. In a traced run the span trees
   recorded so far are folded into per-scope self times (the scope is
   the outermost bench span) and dropped. *)
let phase m f =
  m.ref_ms <- Hostspeed.loop_ms () :: m.ref_ms;
  let r, s = Clock.time f in
  m.ref_ms <- Hostspeed.loop_ms () :: m.ref_ms;
  m.timed_ms <- m.timed_ms +. s.Clock.wall;
  m.timed_cpu_ms <- m.timed_cpu_ms +. s.Clock.cpu;
  if m.traced then begin
    List.iter
      (fun (root : T.span) ->
        let n = root.T.sp_name in
        let scope =
          if String.starts_with ~prefix:"bench." n then String.sub n 6 (String.length n - 6)
          else n
        in
        add_self_times m ~scope root)
      (T.roots ());
    T.clear ()
  end;
  r

(* Run a whole episode, adding its minor words, major collections and,
   in a traced run, metrics-counter increase to scope ["episode"]. *)
let episode m f =
  let before = if m.traced then M.snapshot () else [] in
  let w0 = Gc.minor_words () and maj0 = (Gc.quick_stat ()).Gc.major_collections in
  let r = f () in
  let words = Gc.minor_words () -. w0 in
  bump_count m ("episode", "gc.minor_words") (int_of_float words);
  bump_count m ("episode", "gc.major_collections")
    ((Gc.quick_stat ()).Gc.major_collections - maj0);
  if m.traced then
    List.iter (fun (k, d) -> bump_count m ("episode", k) d) (M.diff ~before ~after:(M.snapshot ()));
  r

(* Fold [src]'s records into [dst]. *)
let absorb dst src =
  Hashtbl.iter (fun k v -> Hashtbl.replace dst.samples k (v @ samples dst k)) src.samples;
  Hashtbl.iter (fun k v -> bump_count dst k v) src.counts;
  Hashtbl.iter
    (fun k v ->
      let old = Option.value ~default:0.0 (Hashtbl.find_opt dst.self_ms k) in
      Hashtbl.replace dst.self_ms k (v +. old))
    src.self_ms;
  dst.attempted <- dst.attempted + src.attempted;
  dst.failed <- dst.failed + src.failed;
  dst.problems <- src.problems @ dst.problems;
  dst.timed_ms <- dst.timed_ms +. src.timed_ms;
  dst.timed_cpu_ms <- dst.timed_cpu_ms +. src.timed_cpu_ms;
  dst.ops <- dst.ops + src.ops;
  dst.ref_ms <- src.ref_ms @ dst.ref_ms
