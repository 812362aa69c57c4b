(* MoNet wall-clock benchmark.

     main.exe --workload channel|pay3|route --seed N --seconds S --trace 0|1

   Runs episodes of the named workload until their timed phases add up
   to S seconds of wall time. Every episode replays the same inputs,
   derived from the seed, on freshly built channels or graphs; its
   set-up is timed apart from the timed phase. With --trace 0 nothing
   in the library is instrumented and the end-to-end metrics are
   printed; with --trace 1 metrics counters and spans are on, the
   library's span clock is the monotonic wall clock, and the per-layer
   metrics are printed. The last line of standard output is one JSON
   object: correct, attempted, failed and metrics. Any failed output
   check makes "correct" false and the exit code 1. *)

module Drbg = Monet_hash.Drbg

type workload = {
  name : string;
  episode : Meter.t -> Drbg.t -> unit;
  spec : Layers.spec;
  shape_note : string;
}

let workloads =
  [ { name = "channel"; episode = Wl_channel.episode;
      spec = { Layers.op = "update"; per = Layers.Update };
      shape_note =
        Printf.sprintf "closed loop, 1 client; %d rounds x (refill %d, %d updates, recover both)"
          Wl_channel.rounds Wl_channel.states (Wl_channel.states - 1) };
    { name = "pay3"; episode = Wl_pay3.episode;
      spec = { Layers.op = "pay"; per = Layers.Payment };
      shape_note =
        Printf.sprintf "closed loop, 1 client; %d payments over 3 hops" Wl_pay3.payments };
    { name = "route"; episode = Wl_route.episode;
      spec = { Layers.op = "route"; per = Layers.Routed_payment };
      shape_note =
        Printf.sprintf "batch; Workload.run over %d payments, 1,024 nodes" Wl_route.payments } ]

(* --- argument parsing --- *)

let usage = "main.exe --workload channel|pay3|route --seed N --seconds S --trace 0|1"

let parse argv =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let specs =
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S timed wall seconds to measure");
      ("--trace", Arg.Set_int trace, "0|1 traced run (per-layer metrics)") ]
  in
  Arg.parse_argv argv specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  match List.find_opt (fun w -> w.name = !workload) workloads with
  | None -> raise (Arg.Bad ("unknown workload " ^ !workload))
  | Some w ->
      if !seconds < 1 || (!trace <> 0 && !trace <> 1) then raise (Arg.Bad usage);
      (w, !seed, !seconds, !trace = 1)

(* --- provenance --- *)

let commit () =
  let read f =
    try Some (String.trim (In_channel.with_open_text f In_channel.input_all)) with _ -> None
  in
  match read ".git/HEAD" with
  | Some h when String.starts_with ~prefix:"ref: " h -> (
      match read (".git/" ^ String.sub h 5 (String.length h - 5)) with
      | Some c -> c
      | None -> "unknown")
  | Some c -> c
  | None -> "unknown (not a git checkout)"

let provenance () =
  Printf.printf "host %s, nproc %d, OCaml %s, commit %s\n" (Unix.gethostname ())
    (Domain.recommended_domain_count ()) Sys.ocaml_version (commit ())

(* --- runs --- *)

let root_seed w seed = Printf.sprintf "monet-perfbench/%s/%d" w.name seed

(* Run one episode into a fresh meter. A traced episode starts from
   zeroed library counters and an empty span sink, so replays of the
   same inputs allocate and count exactly alike. *)
let episode w ~traced ~seed =
  let m = Meter.create ~traced in
  if traced then begin
    Monet_obs.Metrics.reset ();
    Monet_obs.Trace.clear ()
  end;
  Meter.episode m (fun () -> w.episode m (Drbg.create ~seed:(root_seed w seed)));
  m

(* Episodes until their timed phases reach [seconds] (at least
   [min_episodes]), folded into one meter; also returns each episode. *)
let episodes w ~traced ~seed ~seconds ~min_episodes =
  let total = Meter.create ~traced in
  let rec go acc =
    if List.length acc >= min_episodes && total.Meter.timed_ms >= float_of_int seconds *. 1000.0
    then List.rev acc
    else begin
      let m = episode w ~traced ~seed in
      Meter.absorb total m;
      go (m :: acc)
    end
  in
  let each = go [] in
  (total, each)

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

let per_second (m : Meter.t) = float_of_int m.Meter.ops /. (m.Meter.timed_ms /. 1000.0)

(* How much slower than nominal the host ran during this run: the
   median reference-loop time over [Hostspeed.nominal_ms]. *)
let host_slowdown (m : Meter.t) = Stats.median m.Meter.ref_ms /. Hostspeed.nominal_ms

(* The named end-to-end figures of the workload, printed as a report. *)
let report w (m : Meter.t) =
  let line name v unit extra = Printf.printf "  %-16s %12.4f %-6s %s\n" name v unit extra in
  let p50 name = Stats.median (Meter.samples m name) in
  let n name = Printf.sprintf "(n=%d)" (List.length (Meter.samples m name)) in
  let tail metric name =
    match Stats.tail (Meter.samples m name) with
    | Some (p, v) ->
        line metric v "ms" (Printf.sprintf "(p%d, n=%d)" p (List.length (Meter.samples m name)))
    | None ->
        Printf.printf "  %-16s %12s %-6s %s\n" metric "-" "ms" (n name ^ ", too few for a tail")
  in
  let per_s = per_second m in
  line "setup_s" (p50 "setup" /. 1000.0) "s" (n "setup");
  line "fail_ratio" (float_of_int m.Meter.failed /. float_of_int (max 1 m.Meter.attempted)) "ratio"
    (Printf.sprintf "(%d of %d)" m.Meter.failed m.Meter.attempted);
  line "heap_peak_mb" (heap_peak_mb ()) "MB" "";
  line "timed_wall_s" (m.Meter.timed_ms /. 1000.0) "s"
    (Printf.sprintf "(process CPU %.4f s)" (m.Meter.timed_cpu_ms /. 1000.0));
  line "host_slowdown" (host_slowdown m) "ratio"
    (Printf.sprintf "(reference loop p50 %.4f ms over nominal %.1f ms, n=%d)"
       (Stats.median m.Meter.ref_ms) Hostspeed.nominal_ms (List.length m.Meter.ref_ms));
  match w.name with
  | "channel" ->
      line "update_ms_p50" (p50 "update") "ms" (n "update");
      tail "update_ms_p90" "update";
      line "refill_ms_p50" (p50 "refill") "ms" (n "refill");
      line "recover_ms_p50" (p50 "recover") "ms" (n "recover");
      line "updates_per_s" per_s "1/s" "(amortized over refills, updates and recovers)"
  | "pay3" ->
      line "pay_ms_p50" (p50 "pay") "ms" (n "pay");
      tail "pay_ms_p90" "pay";
      line "pays_per_s" per_s "1/s" ""
  | _ ->
      line "routed_per_s" per_s "1/s"
        (Printf.sprintf "(%d payments per Workload.run, n=%d)" Wl_route.payments
           (List.length (Meter.samples m "route")))

(* The bounded figures, scaled to nominal host speed; the report above
   prints them as measured. *)
let end_to_end (m : Meter.t) =
  let k = host_slowdown m in
  [ ("setup_s", "s", Stats.median (Meter.samples m "setup") /. 1000.0 /. k);
    ("ops_per_s", "1/s", per_second m *. k);
    ("heap_peak_mb", "MB", heap_peak_mb ()) ]

let traced_run w ~seed ~seconds =
  (* Untraced episodes first: one lets lazily built tables fill, the
     next three are the untraced reference for overhead, minor words
     and the reconciliation. *)
  let warm = episode w ~traced:false ~seed in
  let plains = List.init 3 (fun _ -> episode w ~traced:false ~seed) in
  let plain = Meter.create ~traced:false in
  List.iter (Meter.absorb plain) plains;
  let u = Layers.unit_costs (Drbg.create ~seed:(root_seed w seed ^ "/units")) in
  Monet_obs.Trace.set_clock Clock.wall_ms;
  Monet_obs.Metrics.enable ();
  (* Registered last, so bumping it grows this domain's counter tally
     over every library counter now rather than inside episode 0. *)
  Monet_obs.Metrics.add (Monet_obs.Metrics.counter "perfbench.tally_warmup") 0;
  Monet_obs.Trace.enable ~capacity:100_000 ();
  let m, each = episodes w ~traced:true ~seed ~seconds ~min_episodes:2 in
  (* Determinism self-test: every replay of the same inputs makes the
     same exact counts, and another seed makes the same shape. *)
  let first = List.hd each in
  List.iteri
    (fun i e ->
      match Layers.first_difference (Layers.exact_counts first) (Layers.exact_counts e) with
      | None -> ()
      | Some what ->
          Meter.check m false
            (Printf.sprintf "determinism: episode %d differs from episode 0 in %s" i what))
    each;
  let other = episode w ~traced:true ~seed:(seed + 1) in
  Option.iter
    (fun what ->
      Meter.check m false ("determinism: another seed changes the workload shape in " ^ what))
    (Layers.first_difference (Layers.shape first) (Layers.shape other));
  (* Output checks of the episodes outside [m] count too. *)
  List.iter
    (fun (e : Meter.t) -> List.iter (fun p -> Meter.check m false p) e.Meter.problems)
    (warm :: other :: plains);
  let timed es = List.map (fun (e : Meter.t) -> e.Meter.timed_ms) es in
  let overhead = Stats.median (timed each) /. Stats.median (timed plains) in
  let show es = String.concat " " (List.map (Printf.sprintf "%.1f") (timed es)) in
  Printf.printf "timed phase per episode: untraced %s ms, traced %s ms\n" (show plains) (show each);
  let metrics =
    Layers.per_layer m ~plain ~spec:w.spec ~episodes:(List.length each)
      ~plain_episodes:(List.length plains) ~overhead ~u
  in
  List.iter (fun (name, unit, v) -> Printf.printf "  %-40s %14.4f %s\n" name v unit) metrics;
  (m, metrics)

let json_line (m : Meter.t) metrics =
  let fields =
    List.map
      (fun (name, unit, v) -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (m.Meter.problems = []) m.Meter.attempted m.Meter.failed (String.concat ", " fields)

let () =
  match parse Sys.argv with
  | exception Arg.Bad msg ->
      prerr_endline msg;
      exit 2
  | exception Arg.Help msg ->
      print_string msg;
      exit 0
  | w, seed, seconds, traced ->
      Printf.printf "workload %s, seed %d, %d s, trace %b: %s\n" w.name seed seconds traced
        w.shape_note;
      print_endline
        "transport Driver.Sync: in-process, zero injected delay; sim-clock figures are \
         model outputs, not metrics";
      provenance ();
      let m, metrics =
        if traced then traced_run w ~seed ~seconds
        else begin
          let m, _ = episodes w ~traced:false ~seed ~seconds ~min_episodes:3 in
          report w m;
          (m, end_to_end m)
        end
      in
      List.iter (fun p -> Printf.printf "CHECK FAILED: %s\n" p) (List.rev m.Meter.problems);
      json_line m metrics;
      exit (if m.Meter.problems = [] then 0 else 1)
