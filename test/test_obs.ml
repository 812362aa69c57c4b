(* Observability: metrics registry semantics, span nesting/ordering,
   JSON export + monet-trace/1 self-validation, zero-overhead-when-
   disabled, a wall clock that counts a sleep, and a golden span tree
   for a 3-hop payment over the Scheduled transport. *)

module Metrics = Monet_obs.Metrics
module Trace = Monet_obs.Trace
module Ch = Monet_channel.Channel
module Graph = Monet_net.Graph
module Router = Monet_net.Router
module Payment = Monet_net.Payment

(* Tracing and metrics are process-global; every test resets them on
   the way out so suites stay independent. *)
let isolated (f : unit -> unit) () =
  Fun.protect
    ~finally:(fun () ->
      Trace.disable ();
      Trace.clear ();
      Metrics.disable ();
      Metrics.reset ())
    f

(* --- metrics ------------------------------------------------------- *)

let test_metrics_disabled_is_inert () =
  let c = Metrics.counter "test.inert" in
  Metrics.bump c;
  Metrics.add c 41;
  Alcotest.(check int) "bump is a no-op when disabled" 0 (Metrics.count c);
  Alcotest.(check int) "registry total stays zero" 0 (Metrics.total_count ());
  Alcotest.(check (list (pair string int))) "snapshot empty" []
    (Metrics.snapshot ())

let test_metrics_counting () =
  Metrics.enable ();
  let c = Metrics.counter "test.count" in
  let c' = Metrics.counter "test.count" in
  Metrics.bump c;
  Metrics.bump c';
  Metrics.add c 3;
  Alcotest.(check int) "interned: same counter" 5 (Metrics.count c);
  let g = Metrics.gauge "test.gauge" in
  Metrics.set g 7;
  Alcotest.(check int) "gauge" 7 (Metrics.gauge_value g);
  let h = Metrics.histogram "test.hist" in
  Metrics.observe h 2.0;
  Metrics.observe h 4.0;
  (match Metrics.histogram_snapshot () with
  | [ (name, (n, sum, mn, mx)) ] ->
      Alcotest.(check string) "hist name" "test.hist" name;
      Alcotest.(check int) "hist count" 2 n;
      Alcotest.(check (float 1e-9)) "hist sum" 6.0 sum;
      Alcotest.(check (float 1e-9)) "hist min" 2.0 mn;
      Alcotest.(check (float 1e-9)) "hist max" 4.0 mx
  | l -> Alcotest.failf "expected one histogram, got %d" (List.length l));
  Metrics.reset ();
  Alcotest.(check int) "reset zeroes" 0 (Metrics.count c)

let test_metrics_diff () =
  Metrics.enable ();
  let a = Metrics.counter "test.diff_a" in
  let b = Metrics.counter "test.diff_b" in
  Metrics.bump a;
  let before = Metrics.snapshot () in
  Metrics.add a 2;
  Metrics.add b 5;
  let after = Metrics.snapshot () in
  Alcotest.(check (list (pair string int)))
    "diff keeps only positive deltas"
    [ ("test.diff_a", 2); ("test.diff_b", 5) ]
    (Metrics.diff ~before ~after)

let test_metrics_domain_merge () =
  (* Worker domains bump into domain-local tallies (Domain.DLS); the
     read-side merge must see every domain's contribution exactly once
     after the joins. *)
  Metrics.enable ();
  let c = Metrics.counter "test.domains" in
  Metrics.bump c;
  let workers =
    Array.init 4 (fun i ->
        Domain.spawn (fun () ->
            for _ = 1 to 100 + i do
              Metrics.bump c
            done;
            (* Late registration from a worker domain must also land. *)
            Metrics.add (Metrics.counter "test.domains_late") 2))
  in
  Array.iter Domain.join workers;
  Alcotest.(check int) "merged across domains"
    (1 + 100 + 101 + 102 + 103)
    (Metrics.count c);
  Alcotest.(check int) "worker-registered counter merged" 8
    (Metrics.count (Metrics.counter "test.domains_late"));
  Metrics.reset ();
  Alcotest.(check int) "reset clears every domain's tally" 0 (Metrics.count c)

(* --- spans --------------------------------------------------------- *)

let test_trace_disabled_records_nothing () =
  let ran = ref false in
  Trace.span "t.root" (fun () -> ran := true);
  Trace.event "t.loose";
  Alcotest.(check bool) "thunk still runs" true !ran;
  Alcotest.(check int) "no spans recorded" 0 (List.length (Trace.roots ()));
  Alcotest.(check int) "no events recorded" 0 (List.length (Trace.loose_events ()))

let test_span_nesting_and_ordering () =
  Trace.enable ();
  Trace.span "t.parent" (fun () ->
      Trace.event "t.first" ~attrs:[ ("k", "v") ];
      Trace.span "t.child_a" (fun () -> ());
      Trace.event "t.second";
      Trace.span "t.child_b" (fun () -> ()));
  match Trace.roots () with
  | [ root ] ->
      Alcotest.(check string) "root name" "t.parent" root.Trace.sp_name;
      Alcotest.(check (list string))
        "children in execution order" [ "t.child_a"; "t.child_b" ]
        (List.map (fun s -> s.Trace.sp_name) root.sp_children);
      Alcotest.(check (list string))
        "events in execution order" [ "t.first"; "t.second" ]
        (List.map (fun e -> e.Trace.ev_name) root.sp_events);
      Alcotest.(check bool) "root closed" true (root.sp_end_ms >= root.sp_start_ms);
      List.iter
        (fun child ->
          Alcotest.(check bool) "child within parent" true
            (child.Trace.sp_start_ms >= root.sp_start_ms
            && child.sp_end_ms <= root.sp_end_ms))
        root.sp_children
  | roots -> Alcotest.failf "expected one root, got %d" (List.length roots)

let test_span_survives_exception () =
  Trace.enable ();
  (try
     Trace.span "t.outer" (fun () ->
         Trace.span "t.thrower" (fun () -> raise Not_found))
   with Not_found -> ());
  match Trace.roots () with
  | [ root ] ->
      Alcotest.(check string) "outer closed" "t.outer" root.Trace.sp_name;
      Alcotest.(check (list string))
        "thrower attached despite the exception" [ "t.thrower" ]
        (List.map (fun s -> s.Trace.sp_name) root.sp_children)
  | roots -> Alcotest.failf "expected one root, got %d" (List.length roots)

(* The default clock is wall time: a 50 ms sleep burns almost no CPU,
   so a CPU clock would read about 0 ms for it. *)
let test_clock_counts_sleep () =
  Trace.enable ();
  Trace.span "t.sleep" (fun () -> Unix.sleepf 0.05);
  (match Trace.roots () with
  | [ root ] ->
      Alcotest.(check bool)
        (Printf.sprintf "span over a 50 ms sleep reads >= 45 ms (%.2f)"
           (Trace.duration_ms root))
        true
        (Trace.duration_ms root >= 45.0)
  | roots -> Alcotest.failf "expected one root, got %d" (List.length roots));
  let (), ms = Trace.timed (fun () -> Unix.sleepf 0.05) in
  Alcotest.(check bool)
    (Printf.sprintf "timed 50 ms sleep reads >= 45 ms (%.2f)" ms)
    true (ms >= 45.0)

let test_ring_buffer_drops_oldest () =
  Trace.enable ~capacity:2 ();
  Trace.span "t.one" (fun () -> ());
  Trace.span "t.two" (fun () -> ());
  Trace.span "t.three" (fun () -> ());
  Alcotest.(check (list string))
    "capacity 2 keeps the newest two, oldest first" [ "t.two"; "t.three" ]
    (List.map (fun s -> s.Trace.sp_name) (Trace.roots ()))

let test_span_ops_attribution () =
  Metrics.enable ();
  Trace.enable ();
  let c = Metrics.counter "test.ops" in
  Trace.span "t.op_parent" (fun () ->
      Metrics.bump c;
      Trace.span "t.op_child" (fun () -> Metrics.add c 2));
  match Trace.roots () with
  | [ root ] ->
      Alcotest.(check (list (pair string int)))
        "parent ops are inclusive of children" [ ("test.ops", 3) ]
        root.Trace.sp_ops;
      (match root.sp_children with
      | [ child ] ->
          Alcotest.(check (list (pair string int)))
            "child sees only its own ops" [ ("test.ops", 2) ]
            child.Trace.sp_ops
      | l -> Alcotest.failf "expected one child, got %d" (List.length l))
  | roots -> Alcotest.failf "expected one root, got %d" (List.length roots)

(* --- JSON export --------------------------------------------------- *)

let test_json_roundtrip_and_schema () =
  Metrics.enable ();
  Trace.enable ();
  let c = Metrics.counter "test.json_ops" in
  Trace.span "t.json" ~attrs:[ ("quote", "a\"b\\c"); ("ctrl", "x\ny") ]
    (fun () ->
      Metrics.bump c;
      Trace.event "t.inner" ~attrs:[ ("i", "1") ];
      Trace.span "t.json_child" (fun () -> ()));
  Trace.event "t.orphan";
  let js = Trace.to_json () in
  (match Trace.validate_json js with
  | Ok () -> ()
  | Error e -> Alcotest.failf "self-validation failed: %s\n%s" e js);
  Alcotest.(check bool) "schema tag present" true
    (let tag = "\"monet-trace/1\"" in
     let rec mem i =
       i + String.length tag <= String.length js
       && (String.sub js i (String.length tag) = tag || mem (i + 1))
     in
     mem 0)

let test_json_validator_rejects_garbage () =
  (match Trace.validate_json "{\"schema\":\"monet-trace/1\"" with
  | Ok () -> Alcotest.fail "accepted truncated JSON"
  | Error _ -> ());
  (match Trace.validate_json "{\"schema\":\"wrong/9\",\"spans\":[],\"events\":[]}" with
  | Ok () -> Alcotest.fail "accepted wrong schema tag"
  | Error _ -> ());
  match
    Trace.validate_json
      "{\"schema\":\"monet-trace/1\",\"clock_unit\":\"ms\",\"spans\":[{\"name\":\"x\"}],\"events\":[]}"
  with
  | Ok () -> Alcotest.fail "accepted span without timestamps"
  | Error _ -> ()

(* --- golden span tree: 3-hop payment over Scheduled transport ------ *)

let drbg = Monet_hash.Drbg.of_int 424242

let test_cfg =
  { Ch.default_config with Ch.vcof_reps = Some 8; ring_size = 5; n_escrowers = 4;
    escrow_threshold = 2 }

let test_three_hop_payment_golden_tree () =
  (* 4 nodes in a line — the payment crosses 3 channels. *)
  let t = Graph.create ~cfg:test_cfg (Monet_hash.Drbg.split drbg "obs-net") in
  let ids = Array.init 4 (fun i -> Graph.add_node t ~name:(Printf.sprintf "n%d" i)) in
  Array.iter (fun id -> Graph.fund_node t id ~amount:100) ids;
  for i = 0 to 2 do
    match
      Graph.open_channel t ~left:ids.(i) ~right:ids.(i + 1) ~bal_left:50
        ~bal_right:50
    with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "open %d-%d: %s" i (i + 1) e
  done;
  (* Every hop runs over the discrete-event clock. *)
  let clock = Monet_dsim.Clock.create () in
  List.iter
    (fun (e : Graph.edge) ->
      (Graph.channel_exn e).Ch.transport <-
        Monet_channel.Driver.Scheduled
          { clock; latency = Monet_dsim.Latency.Fixed 5.0;
            g = Monet_hash.Drbg.split drbg "lat" })
    (Graph.edge_list t);
  (* Trace only the payment, not the establishment. *)
  Metrics.enable ();
  Trace.enable ();
  let path =
    match Router.find_path t ~src:ids.(0) ~dst:ids.(3) ~amount:10 with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  (match Payment.execute t ~path ~amount:10 () with
  | Ok o -> Alcotest.(check bool) "payment succeeded" true o.Payment.succeeded
  | Error e -> Alcotest.fail (Payment.error_to_string e));
  match Trace.roots () with
  | [ root ] ->
      Alcotest.(check string) "root" "payment.execute" root.Trace.sp_name;
      Alcotest.(check (list string))
        "root attrs"
        [ "amount=10"; "hops=3" ]
        (List.sort compare
           (List.map (fun (k, v) -> k ^ "=" ^ v) root.sp_attrs));
      (* Phase skeleton: setup, three locks outward, three unlocks
         back. *)
      Alcotest.(check (list (pair string string)))
        "phase children and their hop order"
        [ ("payment.setup", "-");
          ("payment.lock", "1"); ("payment.lock", "2"); ("payment.lock", "3");
          ("payment.unlock", "3"); ("payment.unlock", "2");
          ("payment.unlock", "1") ]
        (List.map
           (fun s ->
             ( s.Trace.sp_name,
               match List.assoc_opt "hop" s.Trace.sp_attrs with
               | Some h -> h
               | None -> "-" ))
           root.sp_children);
      (* Each lock/unlock wraps exactly one channel operation, which
         decomposes into per-message driver phases. *)
      List.iter
        (fun (s : Trace.span) ->
          match s.Trace.sp_name with
          | "payment.lock" | "payment.unlock" -> (
              let expected =
                if s.sp_name = "payment.lock" then "channel.lock"
                else "channel.unlock"
              in
              match s.sp_children with
              | [ ch ] ->
                  Alcotest.(check string) "channel child" expected ch.Trace.sp_name;
                  Alcotest.(check bool)
                    (expected ^ " has driver phase spans")
                    true
                    (ch.sp_children <> []
                    && List.for_all
                         (fun (d : Trace.span) ->
                           String.length d.Trace.sp_name > 7
                           && String.sub d.sp_name 0 7 = "driver.")
                         ch.sp_children)
              | l ->
                  Alcotest.failf "expected one channel child under %s, got %d"
                    s.sp_name (List.length l))
          | _ -> ())
        root.sp_children;
      (* Scheduled transport: driver phases carry simulated time. *)
      let rec any_sim (s : Trace.span) =
        s.Trace.sp_sim_start_ms <> None || List.exists any_sim s.sp_children
      in
      Alcotest.(check bool) "sim timestamps present" true (any_sim root);
      (* EC-op provenance reaches the root span. *)
      Alcotest.(check bool) "root ops include ec.fe_mul" true
        (match List.assoc_opt "ec.fe_mul" root.sp_ops with
        | Some n -> n > 0
        | None -> false);
      (* And the whole tree exports as schema-valid monet-trace/1. *)
      (match Trace.validate_json (Trace.to_json ()) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "payment trace fails validation: %s" e)
  | roots -> Alcotest.failf "expected one root span, got %d" (List.length roots)

let tests =
  [
    Alcotest.test_case "metrics disabled is inert" `Quick
      (isolated test_metrics_disabled_is_inert);
    Alcotest.test_case "metrics counting" `Quick (isolated test_metrics_counting);
    Alcotest.test_case "metrics diff" `Quick (isolated test_metrics_diff);
    Alcotest.test_case "metrics merge across domains" `Quick
      (isolated test_metrics_domain_merge);
    Alcotest.test_case "trace disabled records nothing" `Quick
      (isolated test_trace_disabled_records_nothing);
    Alcotest.test_case "span nesting and ordering" `Quick
      (isolated test_span_nesting_and_ordering);
    Alcotest.test_case "span survives exception" `Quick
      (isolated test_span_survives_exception);
    Alcotest.test_case "clock counts a sleep" `Quick
      (isolated test_clock_counts_sleep);
    Alcotest.test_case "ring buffer drops oldest" `Quick
      (isolated test_ring_buffer_drops_oldest);
    Alcotest.test_case "span ops attribution" `Quick
      (isolated test_span_ops_attribution);
    Alcotest.test_case "json roundtrip and schema" `Quick
      (isolated test_json_roundtrip_and_schema);
    Alcotest.test_case "json validator rejects garbage" `Quick
      (isolated test_json_validator_rejects_garbage);
    Alcotest.test_case "3-hop payment golden span tree" `Quick
      (isolated test_three_hop_payment_golden_tree);
  ]
