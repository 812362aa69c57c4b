(* Network throughput benchmark — the measured replacement for the
   paper's extrapolated "1.1M TPS" headline (EXPERIMENTS.md E2/E7,
   DESIGN.md §3.9).

   For each synthetic topology (hub/spoke, Barabási–Albert scale-free,
   2-D grid) this drives an open-arrival payment workload through
   Monet_net.Workload on the discrete-event clock: Poisson arrivals,
   fee-aware Dijkstra routing, per-node service queues. Network TPS is
   measured on the simulated clock — completions over sim-time — so
   hub saturation and liquidity depletion genuinely cap it.

   Emits BENCH_net.json (schema monet-net-bench/1) with one row per
   topology: success rate vs offered load, measured TPS, liquidity
   depletion over sim-time, and op-count provenance from the obs
   registry (routes, Dijkstra node settles / edge relaxations). The
   committed BENCH_net.json at the repo root is produced by:

     dune exec bench/net_bench.exe -- -o BENCH_net.json

   `--smoke` runs tiny populations and then re-reads the emitted file
   through the shared codec (Monet_util.Json), failing if it is
   malformed or does not match the schema's field spec — wired into
   `dune build @bench-net-smoke` (and `check`). *)

module Graph = Monet_net.Graph
module Topo = Monet_net.Topo
module Workload = Monet_net.Workload
module Shard = Monet_net.Shard
module Metrics = Monet_obs.Metrics
module Trace = Monet_obs.Trace
open Monet_util

let seed = 0x6e31

type row = {
  r_topology : string;
  r_nodes : int;
  r_edges : int;
  r_report : Workload.report;
  r_routes : int; (* obs: Router.find_path calls *)
  r_settled : int; (* obs: Dijkstra nodes settled *)
  r_relaxed : int; (* obs: edge relaxations *)
  r_wall_s : float;
}

let counter_delta diff name =
  match List.assoc_opt name diff with Some n -> n | None -> 0

let run_topology ~(spec : Topo.spec) ~(balance : int) ~(cfg : Workload.config) :
    row =
  let g = Monet_hash.Drbg.of_int seed in
  let t =
    match Topo.build ~balance ~fee_base:1 ~fee_ppm:100 g spec with
    | Ok t -> t
    | Error e -> failwith (Topo.name spec ^ ": " ^ e)
  in
  let rng = Monet_hash.Drbg.split g "workload" in
  let before = Metrics.snapshot () in
  let report, ms =
    Trace.timed (fun () ->
        match Workload.run rng t cfg with
        | Ok r -> r
        | Error e -> failwith (Topo.name spec ^ ": workload: " ^ e))
  in
  let diff = Metrics.diff ~before ~after:(Metrics.snapshot ()) in
  {
    r_topology = Topo.name spec;
    r_nodes = Graph.n_nodes t;
    r_edges = Graph.n_edges t;
    r_report = report;
    r_routes = counter_delta diff "net.route";
    r_settled = counter_delta diff "net.route.settled";
    r_relaxed = counter_delta diff "net.route.relaxed";
    r_wall_s = ms /. 1000.0;
  }

(* --- Domain scaling (DESIGN.md §3.10) ------------------------------ *)

(* One row per (shape, domain count): the same total population and
   payment workload, statically sharded over D domains. TPS is
   measured on the simulated clock — total completions over the
   slowest shard's sim-time span — so the scaling comes from real
   capacity (each shard brings its own hubs and service queues), not
   from wall-clock parallelism. *)
type drow = {
  d_shape : string;
  d_nodes : int;
  d_domains : int;
  d_merged : Shard.merged;
  d_wall_s : float;
}

let run_domains ~(shape : string) ~(nodes : int) ~(cfg : Workload.config)
    (domains : int list) : drow list =
  List.map
    (fun d ->
      match
        Shard.plan ~seed:"bench-domains" ~domains:d ~shape ~nodes
          ~balance:10_000 cfg
      with
      | Error e -> failwith (Printf.sprintf "domains %s/%d: %s" shape d e)
      | Ok p -> (
          match Trace.timed (fun () -> Shard.run p) with
          | Error e, _ -> failwith (Printf.sprintf "domains %s/%d: %s" shape d e)
          | Ok m, ms ->
              {
                d_shape = shape;
                d_nodes = nodes;
                d_domains = d;
                d_merged = m;
                d_wall_s = ms /. 1000.0;
              }))
    domains

(* --- JSON out ------------------------------------------------------ *)

let json_of_rows ~mode ~(cfg : Workload.config) ~(dcfg : Workload.config)
    ~(drows : drow list) (rows : row list) : Json.t =
  let f1 = Json.fixed ~decimals:1
  and f2 = Json.fixed ~decimals:2
  and f3 = Json.fixed ~decimals:3
  and f4 = Json.fixed ~decimals:4 in
  let row r =
    let rep = r.r_report in
    ( r.r_topology,
      Json.Obj
        [ ("nodes", Json.int r.r_nodes);
          ("channels", Json.int r.r_edges);
          ("payments_offered", Json.int rep.Workload.offered);
          ("payments_completed", Json.int rep.Workload.completed);
          ("payments_no_route", Json.int rep.Workload.no_route);
          ("success_rate", f4 rep.Workload.success_rate);
          ("offered_rate_tps", f1 rep.Workload.offered_rate);
          ("measured_tps", f1 rep.Workload.tps);
          ("sim_seconds", f3 (rep.Workload.sim_ms /. 1000.0));
          ("avg_path_hops", f2 rep.Workload.avg_path_len);
          ("fees_paid", Json.int rep.Workload.fees_paid);
          ("depleted_channels_final", Json.int rep.Workload.depleted_final);
          ("conserved", Json.Bool rep.Workload.conserved);
          (* depletion over sim-time: [sim_s, depleted, completed] points *)
          ("depletion",
            Json.Arr
              (List.map
                 (fun (s : Workload.sample) ->
                   Json.Arr
                     [ f1 (s.Workload.s_time_ms /. 1000.0);
                       Json.int s.Workload.s_depleted;
                       Json.int s.Workload.s_completed ])
                 rep.Workload.samples));
          ("ops",
            Json.Obj
              [ ("routes", Json.int r.r_routes);
                ("dijkstra_settled", Json.int r.r_settled);
                ("dijkstra_relaxed", Json.int r.r_relaxed) ]);
          ("wall_seconds", f2 r.r_wall_s) ] )
  in
  (* Domain-scaling dimension: same shape and total workload, sharded
     over 1/2/4/… domains (lib/net/shard.ml). *)
  let shapes =
    List.fold_left
      (fun acc d -> if List.mem d.d_shape acc then acc else acc @ [ d.d_shape ])
      [] drows
  in
  let shape_row shape =
    let rows_d = List.filter (fun d -> d.d_shape = shape) drows in
    let tps_of n =
      List.find_opt (fun d -> d.d_domains = n) rows_d
      |> Option.map (fun d -> d.d_merged.Shard.agg_tps)
    in
    let by_domains d =
      let m = d.d_merged in
      Json.Obj
        [ ("domains", Json.int d.d_domains);
          ("measured_tps", f1 m.Shard.agg_tps);
          ("completed", Json.int m.Shard.agg_completed);
          ("offered", Json.int m.Shard.agg_offered);
          ("success_rate", f4 m.Shard.agg_success_rate);
          ("sim_seconds", f3 (m.Shard.agg_sim_ms /. 1000.0));
          ("conserved", Json.Bool m.Shard.conserved);
          ("wall_seconds", f2 d.d_wall_s) ]
    in
    ( shape,
      Json.Obj
        [ ("nodes", Json.int (List.hd rows_d).d_nodes);
          ("by_domains", Json.Arr (List.map by_domains rows_d));
          ("speedup_4d_vs_1d",
            match (tps_of 1, tps_of 4) with
            | Some t1, Some t4 when t1 > 0.0 -> f2 (t4 /. t1)
            | _ -> Json.Null) ] )
  in
  Json.Obj
    [ ("schema", Json.Str "monet-net-bench/1");
      ("mode", Json.Str mode);
      ("seed", Json.int seed);
      ("workload",
        Json.Obj
          [ ("payments_per_topology", Json.int cfg.Workload.n_payments);
            ("offered_rate_tps", f1 cfg.Workload.arrival_rate);
            ("amount_min", Json.int cfg.Workload.amount_min);
            ("amount_max", Json.int cfg.Workload.amount_max);
            ("hop_proc_ms", f1 cfg.Workload.hop_proc_ms) ]);
      ("rows", Json.Obj (List.map row rows));
      ("domains",
        Json.Obj
          [ ("workload",
              Json.Obj
                [ ("payments", Json.int dcfg.Workload.n_payments);
                  ("offered_rate_tps", f1 dcfg.Workload.arrival_rate);
                  ("hop_proc_ms", f1 dcfg.Workload.hop_proc_ms) ]);
            ("shapes", Json.Obj (List.map shape_row shapes)) ]) ]

(* The monet-net-bench/1 shape --smoke checks the written file against. *)
let doc_spec =
  let open Json.Spec in
  let row =
    Object
      [ ("nodes", Count); ("channels", Count); ("payments_offered", Count);
        ("payments_completed", Count); ("payments_no_route", Count);
        ("success_rate", Number); ("offered_rate_tps", Number);
        ("measured_tps", Number); ("sim_seconds", Number);
        ("avg_path_hops", Number); ("fees_paid", Count);
        ("depleted_channels_final", Count); ("conserved", Bool);
        ("depletion", Array (Array Number));
        ("ops",
          Object
            [ ("routes", Count); ("dijkstra_settled", Count);
              ("dijkstra_relaxed", Count) ]);
        ("wall_seconds", Number) ]
  in
  let by_domains =
    Object
      [ ("domains", Count); ("measured_tps", Number); ("completed", Count);
        ("offered", Count); ("success_rate", Number); ("sim_seconds", Number);
        ("conserved", Bool); ("wall_seconds", Number) ]
  in
  Object
    [ ("schema", tag "monet-net-bench/1"); ("mode", String); ("seed", Count);
      ("workload",
        Object
          [ ("payments_per_topology", Count); ("offered_rate_tps", Number);
            ("amount_min", Count); ("amount_max", Count);
            ("hop_proc_ms", Number) ]);
      ("rows", Object [ ("hub_spoke", row); ("scale_free", row); ("grid", row) ]);
      ("domains",
        Object
          [ ("workload",
              Object
                [ ("payments", Count); ("offered_rate_tps", Number);
                  ("hop_proc_ms", Number) ]);
            ("shapes",
              Map
                (Object
                   [ ("nodes", Count); ("by_domains", Array by_domains);
                     ("speedup_4d_vs_1d", Optional Number) ])) ]) ]

(* --- main ----------------------------------------------------------- *)

let () =
  let smoke = Array.exists (( = ) "--smoke") Sys.argv in
  let out = ref "BENCH_net.json" in
  Array.iteri
    (fun i a -> if a = "-o" && i + 1 < Array.length Sys.argv then out := Sys.argv.(i + 1))
    Sys.argv;
  (* Metrics ON here, deliberately: this bench measures sim-time
     throughput, not wall time, and the counters are the op-count
     provenance each row carries. *)
  Metrics.enable ();
  let specs, balance, cfg =
    if smoke then
      ( [ Topo.Hub_spoke { hubs = 4; spokes_per_hub = 14 };
          Topo.Scale_free { nodes = 60; m = 2 };
          Topo.Grid { rows = 8; cols = 8 } ],
        5_000,
        { Workload.n_payments = 500; arrival_rate = 200.0; amount_min = 10;
          amount_max = 1_000; hop_proc_ms = 20.0; sample_every_ms = 500.0 } )
    else
      ( [ Topo.Hub_spoke { hubs = 16; spokes_per_hub = 63 };
          Topo.Scale_free { nodes = 1_024; m = 2 };
          Topo.Grid { rows = 32; cols = 32 } ],
        5_000,
        { Workload.n_payments = 100_000; arrival_rate = 2_000.0; amount_min = 10;
          amount_max = 1_000; hop_proc_ms = 20.0; sample_every_ms = 20_000.0 } )
  in
  let rows = List.map (fun spec -> run_topology ~spec ~balance ~cfg) specs in
  Printf.printf "%-11s %6s %8s %9s %9s %9s %8s %9s\n" "topology" "nodes"
    "channels" "offered/s" "meas.TPS" "success" "depleted" "wall(s)";
  List.iter
    (fun r ->
      let rep = r.r_report in
      Printf.printf "%-11s %6d %8d %9.1f %9.1f %8.1f%% %8d %9.2f\n" r.r_topology
        r.r_nodes r.r_edges rep.Workload.offered_rate rep.Workload.tps
        (100.0 *. rep.Workload.success_rate)
        rep.Workload.depleted_final r.r_wall_s)
    rows;
  List.iter
    (fun r ->
      if not r.r_report.Workload.conserved then
        failwith (r.r_topology ^ ": wealth not conserved"))
    rows;
  (* Domain-scaling sweep: same total population / workload, sharded
     over D domains (static channel-id partition, per-shard ledgers
     merged at the block boundary — lib/net/shard.ml). *)
  let dshapes, dnodes, dlist, dcfg =
    if smoke then
      ( [ "hub_spoke" ],
        32,
        [ 1; 2; 4 ],
        { Workload.n_payments = 200; arrival_rate = 400.0; amount_min = 10;
          amount_max = 200; hop_proc_ms = 20.0; sample_every_ms = 1_000.0 } )
    else
      ( [ "hub_spoke"; "scale_free"; "grid" ],
        512,
        [ 1; 2; 4; 8 ],
        { Workload.n_payments = 8_000; arrival_rate = 4_000.0; amount_min = 10;
          amount_max = 200; hop_proc_ms = 20.0; sample_every_ms = 10_000.0 } )
  in
  let drows =
    List.concat_map
      (fun shape -> run_domains ~shape ~nodes:dnodes ~cfg:dcfg dlist)
      dshapes
  in
  Printf.printf "\n%-11s %6s %8s %9s %9s %9s %9s\n" "shape" "nodes" "domains"
    "meas.TPS" "success" "sim(s)" "wall(s)";
  List.iter
    (fun d ->
      let m = d.d_merged in
      Printf.printf "%-11s %6d %8d %9.1f %8.1f%% %9.3f %9.2f\n" d.d_shape
        d.d_nodes d.d_domains m.Shard.agg_tps
        (100.0 *. m.Shard.agg_success_rate)
        (m.Shard.agg_sim_ms /. 1000.0)
        d.d_wall_s;
      if not m.Shard.conserved then
        failwith (d.d_shape ^ ": sharded wealth not conserved"))
    drows;
  let json =
    json_of_rows ~mode:(if smoke then "smoke" else "full") ~cfg ~dcfg ~drows rows
  in
  let oc = open_out !out in
  output_string oc (Json.to_string json ^ "\n");
  close_out oc;
  Printf.printf "wrote %s\n%!" !out;
  if smoke then begin
    let ic = open_in !out in
    let len = in_channel_length ic in
    let contents = really_input_string ic len in
    close_in ic;
    match Json.Spec.validate doc_spec contents with
    | Error e -> failwith ("BENCH_net.json invalid: " ^ e)
    | Ok () -> Printf.printf "smoke: JSON validated (monet-net-bench/1)\n%!"
  end
