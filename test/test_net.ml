(* AMHL, onion routing, channel graph, routing, multi-hop payments. *)
open Monet_ec
module Ch = Monet_channel.Channel
module Graph = Monet_net.Graph
module Router = Monet_net.Router
module Payment = Monet_net.Payment

let drbg = Monet_hash.Drbg.of_int 777777

let test_cfg =
  { Ch.default_config with Ch.vcof_reps = Some 8; ring_size = 5; n_escrowers = 4;
    escrow_threshold = 2 }

(* --- AMHL --- *)

let test_amhl_chain () =
  let hps = Array.init 4 (fun i -> Point.hash_to_point "hp" (string_of_int i)) in
  let s = Monet_amhl.Amhl.setup drbg ~hps in
  (* Locks telescope. *)
  for i = 0 to 3 do
    Alcotest.(check bool) (Printf.sprintf "hop %d verifies" i) true
      (Monet_amhl.Amhl.verify_hop ~hp:hps.(i) s.Monet_amhl.Amhl.packets.(i))
  done;
  (* Combined witnesses open the locks. *)
  for i = 0 to 3 do
    Alcotest.(check bool) "opens" true
      (Point.equal
         s.Monet_amhl.Amhl.locks.(i).Monet_sig.Stmt.stmt.Monet_sig.Stmt.yg
         (Point.mul_base s.Monet_amhl.Amhl.combined.(i)))
  done;
  (* Cascading from the receiver recovers every combined witness. *)
  let w = ref s.Monet_amhl.Amhl.combined.(3) in
  for i = 2 downto 0 do
    w := Monet_amhl.Amhl.cascade ~y:s.Monet_amhl.Amhl.wits.(i) ~w_next:!w;
    Alcotest.(check bool) "cascade" true (Sc.equal !w s.Monet_amhl.Amhl.combined.(i))
  done

let test_amhl_wrong_hop_rejected () =
  let hps = Array.init 2 (fun i -> Point.hash_to_point "hp2" (string_of_int i)) in
  let s = Monet_amhl.Amhl.setup drbg ~hps in
  let pkt = s.Monet_amhl.Amhl.packets.(0) in
  let forged = { pkt with Monet_amhl.Amhl.hp_y = Sc.random_nonzero drbg } in
  Alcotest.(check bool) "forged y rejected" false
    (Monet_amhl.Amhl.verify_hop ~hp:hps.(0) forged)

(* --- Onion --- *)

let test_onion_roundtrip () =
  let keys = Array.init 3 (fun _ -> Monet_sig.Sig_core.gen drbg) in
  let route =
    [ (keys.(0).vk, "for relay 0"); (keys.(1).vk, "for relay 1"); (keys.(2).vk, "exit") ]
  in
  let onion = Monet_amhl.Onion.wrap drbg route in
  let p0, next0 =
    match Monet_amhl.Onion.peel ~sk:keys.(0).sk onion with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check string) "relay 0 payload" "for relay 0" p0;
  let p1, next1 =
    match Monet_amhl.Onion.peel ~sk:keys.(1).sk next0 with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check string) "relay 1 payload" "for relay 1" p1;
  let p2, next2 =
    match Monet_amhl.Onion.peel ~sk:keys.(2).sk next1 with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check string) "exit payload" "exit" p2;
  Alcotest.(check string) "no inner layer at exit" "" next2

let test_onion_wrong_key () =
  let keys = Array.init 2 (fun _ -> Monet_sig.Sig_core.gen drbg) in
  let onion = Monet_amhl.Onion.wrap drbg [ (keys.(0).vk, "x"); (keys.(1).vk, "y") ] in
  match Monet_amhl.Onion.peel ~sk:keys.(1).sk onion with
  | Ok _ -> Alcotest.fail "peeled with wrong key"
  | Error _ -> ()

(* --- graph + routing + payment --- *)

(* A payment that needed no escalation: every hop ended in [fate] and
   nothing timed out, went to the KES or was punished. *)
let check_no_escalation ~(fate : Payment.hop_fate) (o : Payment.outcome) =
  Array.iteri
    (fun i f ->
      Alcotest.(check bool) (Printf.sprintf "hop %d fate" (i + 1)) true (f = fate))
    o.Payment.fates;
  Alcotest.(check (list int)) "disputes, punishments, timeouts" [ 0; 0; 0 ]
    [ o.Payment.disputes; o.Payment.punishments; o.Payment.timeouts ]

let line_network ?(cfg = test_cfg) ?(n = 3) ?(bal = 50) label =
  (* n nodes in a line: 0 - 1 - ... - (n-1) *)
  let t = Graph.create ~cfg (Monet_hash.Drbg.split drbg label) in
  let ids = Array.init n (fun i -> Graph.add_node t ~name:(Printf.sprintf "n%d" i)) in
  Array.iter (fun id -> Graph.fund_node t id ~amount:(2 * bal)) ids;
  for i = 0 to n - 2 do
    match Graph.open_channel t ~left:ids.(i) ~right:ids.(i + 1) ~bal_left:bal ~bal_right:bal with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "open %d-%d: %s" i (i + 1) e
  done;
  (t, ids)

let test_routing () =
  let t, ids = line_network ~n:4 "route" in
  match Router.find_path t ~src:ids.(0) ~dst:ids.(3) ~amount:10 with
  | Error e -> Alcotest.fail e
  | Ok path ->
      Alcotest.(check int) "3 hops" 3 (List.length path);
      (* Payers along the path are 0, 1, 2. *)
      let payers = List.map (fun h -> h.Router.h_payer) path in
      Alcotest.(check (list int)) "payers" [ ids.(0); ids.(1); ids.(2) ] payers

let test_routing_no_capacity () =
  let t, ids = line_network ~n:3 ~bal:5 "rnc" in
  match Router.find_path t ~src:ids.(0) ~dst:ids.(2) ~amount:100 with
  | Ok _ -> Alcotest.fail "impossible route found"
  | Error _ -> ()

let test_multihop_payment () =
  let t, ids = line_network ~n:3 "mh" in
  (* Alice (0) pays Carol (2) 10 via Bob (1): the paper's running example. *)
  match Payment.pay t ~src:ids.(0) ~dst:ids.(2) ~amount:10 () with
  | Error e -> Alcotest.failf "pay: %s" (Payment.error_to_string e)
  | Ok outcome ->
      Alcotest.(check bool) "succeeded" true outcome.Payment.succeeded;
      Alcotest.(check int) "2 hops" 2 outcome.Payment.stats.Payment.n_hops;
      check_no_escalation ~fate:Payment.Hop_unlocked outcome;
      (* Balance shifts: 0 paid 10 on edge 1; 1 paid 10 on edge 2. *)
      let e1 = Graph.edge t 1 and e2 = Graph.edge t 2 in
      Alcotest.(check int) "edge1 left" 40 (Graph.balance_of e1 ~node_id:ids.(0));
      Alcotest.(check int) "edge1 right" 60 (Graph.balance_of e1 ~node_id:ids.(1));
      Alcotest.(check int) "edge2 left" 40 (Graph.balance_of e2 ~node_id:ids.(1));
      Alcotest.(check int) "edge2 right" 60 (Graph.balance_of e2 ~node_id:ids.(2));
      (* Intermediary is balance-neutral: +10 on one channel, -10 on the other. *)
      Alcotest.(check int) "bob neutral" 100
        (Graph.balance_of e1 ~node_id:ids.(1) + Graph.balance_of e2 ~node_id:ids.(1))

let test_multihop_atomicity_on_cancel () =
  (* Receiver refuses to reveal: all hops cancel, no balance changes —
     no half-paid state (atomicity + unlockability). *)
  let t, ids = line_network ~n:4 "atom" in
  match Payment.pay t ~src:ids.(0) ~dst:ids.(3) ~amount:10 ~receiver_cooperates:false () with
  | Error e -> Alcotest.failf "pay: %s" (Payment.error_to_string e)
  | Ok outcome ->
      Alcotest.(check bool) "failed as expected" false outcome.Payment.succeeded;
      check_no_escalation ~fate:Payment.Hop_cancelled outcome;
      List.iter
        (fun (e : Graph.edge) ->
          Alcotest.(check int)
            (Printf.sprintf "edge %d balances restored" e.Graph.e_id)
            50
            (Graph.balance_of e ~node_id:e.Graph.e_left))
        (Graph.edge_list t)

let test_multihop_long_path () =
  let t, ids = line_network ~n:6 "long" in
  match Payment.pay t ~src:ids.(0) ~dst:ids.(5) ~amount:7 () with
  | Error e -> Alcotest.failf "pay: %s" (Payment.error_to_string e)
  | Ok outcome ->
      Alcotest.(check int) "5 hops" 5 outcome.Payment.stats.Payment.n_hops;
      Alcotest.(check bool) "succeeded" true outcome.Payment.succeeded;
      let last = Graph.edge t 5 in
      Alcotest.(check int) "receiver credited" 57
        (Graph.balance_of last ~node_id:ids.(5))

let test_worst_case_last_hop_dispute () =
  (* The paper's unlockability worst case: the receiver takes the lock
     and goes silent; the last hop closes through the KES at the
     pre-lock state; earlier hops cancel and stay open. *)
  let t, ids = line_network ~n:4 "wc" in
  let last = Graph.edge t 3 in
  let clock = Monet_dsim.Clock.create () in
  let plan = Monet_fault.Plan.none () in
  let ch = Graph.channel_exn last in
  ch.Ch.transport <-
    Monet_channel.Driver.Scheduled
      { clock; latency = Monet_dsim.Latency.Fixed 5.0;
        g = Monet_hash.Drbg.split drbg "wc/lat" };
  Ch.set_faults ch (Some (Ch.make_faults ~deadline_ms:100.0 plan));
  let on_locked i = if i = 2 then Monet_fault.Plan.kill plan in
  match Router.find_path t ~src:ids.(0) ~dst:ids.(3) ~amount:10 with
  | Error e -> Alcotest.fail e
  | Ok path -> (
      match
        Payment.execute t ~path ~amount:10 ~receiver_cooperates:false ~clock
          ~on_locked ()
      with
      | Error e -> Alcotest.failf "worst case: %s" (Payment.error_to_string e)
      | Ok o -> (
          Alcotest.(check bool) "receiver not paid" false o.Payment.succeeded;
          Alcotest.(check int) "one dispute" 1 o.Payment.disputes;
          match o.Payment.fates with
          | [| Payment.Hop_cancelled; Payment.Hop_cancelled; Payment.Hop_disputed payout |] ->
              (* Last channel settled at pre-lock balances (50/50). *)
              Alcotest.(check int) "payer side payout" 50 payout.Ch.pay_a;
              Alcotest.(check int) "receiver side payout" 50 payout.Ch.pay_b;
              Alcotest.(check bool) "last channel closed" true
                (Graph.channel_exn last).Ch.a.Ch.closed;
              (* Earlier channels remain open at original balances. *)
              List.iter
                (fun eid ->
                  let e = Graph.edge t eid in
                  Alcotest.(check bool) (Printf.sprintf "edge %d open" eid) true
                    (Graph.is_open e);
                  Alcotest.(check int) "balances restored" 50
                    (Graph.balance_of e ~node_id:e.Graph.e_left))
                [ 1; 2 ]
          | _ -> Alcotest.fail "expected upstream cancels + last-hop dispute"))

let test_latency_model () =
  let t, ids = line_network ~n:3 "lat" in
  match Payment.pay t ~src:ids.(0) ~dst:ids.(2) ~amount:5 () with
  | Error e -> Alcotest.fail (Payment.error_to_string e)
  | Ok o ->
      let l = Payment.latency_ms o ~network_ms:60.0 in
      (* Paper's model: >= n_h * 60ms, plus computation. *)
      Alcotest.(check bool) "latency >= 2*60" true (l >= 120.0);
      Alcotest.(check bool) "full-rounds model is slower" true
        (Payment.latency_full_rounds_ms o ~network_ms:60.0 > l)

(* The report counts the E-series tables print, pinned on the default
   configuration: each hop costs the same messages and bytes, the
   onion is one fixed-size layer, and a non-cooperative receiver adds
   the cancel cascade. *)
let test_report_counts_pinned () =
  List.iter
    (fun (hops, receiver_cooperates, messages, bytes) ->
      let label = Printf.sprintf "counts-%d-%b" hops receiver_cooperates in
      let t, ids = line_network ~cfg:Ch.default_config ~n:(hops + 1) ~bal:500 label in
      match Router.find_path t ~src:ids.(0) ~dst:ids.(hops) ~amount:10 with
      | Error e -> Alcotest.fail e
      | Ok path -> (
          match Payment.execute t ~path ~amount:10 ~receiver_cooperates () with
          | Error e -> Alcotest.failf "%s: %s" label (Payment.error_to_string e)
          | Ok o ->
              let s = o.Payment.stats in
              Alcotest.(check bool) (label ^ " succeeded") receiver_cooperates
                o.Payment.succeeded;
              Alcotest.(check int) (label ^ " messages") messages s.Payment.messages;
              Alcotest.(check int) (label ^ " bytes") bytes s.Payment.bytes;
              Alcotest.(check int) (label ^ " onion bytes") 4096 s.Payment.onion_bytes))
    [ (1, true, 10, 23237); (2, true, 20, 46474); (3, true, 30, 69711);
      (3, false, 51, 124584) ]

let test_watchtower_punishes () =
  let t, ids = line_network ~n:2 "wt" in
  let e = Graph.edge t 1 in
  let c = Graph.channel_exn e in
  (* Two updates so there is an old state to cheat with. *)
  (match Ch.update c ~amount_from_a:20 with Ok _ -> () | Error err -> Alcotest.fail (Ch.error_to_string err));
  (match Ch.update c ~amount_from_a:(-30) with Ok _ -> () | Error err -> Alcotest.fail (Ch.error_to_string err));
  let tower = Monet_channel.Watchtower.create () in
  Monet_channel.Watchtower.watch tower c ~victim:Monet_sig.Two_party.Alice;
  (* Clean tick: nothing suspicious. *)
  let r0 = Monet_channel.Watchtower.tick tower in
  Alcotest.(check int) "no punishment yet" 0 (List.length r0.Monet_channel.Watchtower.punished);
  (* Bob cheats with state 1 (alice had 30 there; latest gives her 60). *)
  let alice_old = Ch.my_witness_at c.Ch.a ~state:1 in
  (match Ch.submit_old_state c ~cheater:Monet_sig.Two_party.Bob ~state:1
           ~victim_old_wit:alice_old with
  | Ok _ -> ()
  | Error err -> Alcotest.fail (Ch.error_to_string err));
  let r1 = Monet_channel.Watchtower.tick tower in
  (match r1.Monet_channel.Watchtower.punished with
  | [ (_, payout) ] -> Alcotest.(check int) "latest state enforced" 60 payout.Ch.pay_a
  | _ -> Alcotest.fail "watchtower did not punish");
  ignore ids

let test_watchtower_scheduled_on_clock () =
  let t, _ = line_network ~n:2 "wt2" in
  let e = Graph.edge t 1 in
  let c = Graph.channel_exn e in
  (match Ch.update c ~amount_from_a:5 with Ok _ -> () | Error err -> Alcotest.fail (Ch.error_to_string err));
  (match Ch.update c ~amount_from_a:5 with Ok _ -> () | Error err -> Alcotest.fail (Ch.error_to_string err));
  let tower = Monet_channel.Watchtower.create () in
  Monet_channel.Watchtower.watch tower c ~victim:Monet_sig.Two_party.Bob;
  let clock = Monet_dsim.Clock.create () in
  Monet_channel.Watchtower.schedule tower clock ~interval_ms:1000.0 ~until_ms:10_000.0;
  (* Alice cheats mid-simulation (state 1 had more for her). *)
  let bob_old = Ch.my_witness_at c.Ch.b ~state:1 in
  Monet_dsim.Clock.schedule clock ~delay:2500.0 (fun () ->
      match Ch.submit_old_state c ~cheater:Monet_sig.Two_party.Alice ~state:1
              ~victim_old_wit:bob_old with
      | Ok _ -> ()
      | Error err -> Alcotest.failf "cheat: %s" (Ch.error_to_string err));
  Monet_dsim.Clock.run clock ();
  Alcotest.(check int) "tower punished during simulation" 1
    tower.Monet_channel.Watchtower.punishments


let test_onion_fixed_size_privacy () =
  (* Path privacy: with padding + relay re-padding, every onion on the
     wire has the same size, so no relay learns its path position from
     sizes. *)
  let g = Monet_hash.Drbg.of_int 31 in
  let keys = Array.init 5 (fun _ -> Monet_sig.Sig_core.gen g) in
  let route =
    Array.to_list (Array.map (fun (k : Monet_sig.Sig_core.keypair) -> (k.vk, String.make 40 'p')) keys)
  in
  let pad_to = 2048 in
  let onion = ref (Monet_amhl.Onion.wrap ~pad_to g route) in
  Array.iteri
    (fun i (k : Monet_sig.Sig_core.keypair) ->
      Alcotest.(check int)
        (Printf.sprintf "onion size at relay %d" i)
        pad_to (String.length !onion);
      match Monet_amhl.Onion.peel ~repad:(g, pad_to) ~sk:k.sk !onion with
      | Ok (_, next) -> onion := next
      | Error e -> Alcotest.fail e)
    keys

let test_amhl_packets_position_free () =
  (* Sender/receiver privacy: serialized intermediary packets are
     structurally identical — no position field, identical sizes. *)
  let g = Monet_hash.Drbg.of_int 32 in
  let hps = Array.init 5 (fun i -> Point.hash_to_point "ppf" (string_of_int i)) in
  let s = Monet_amhl.Amhl.setup g ~hps in
  let sizes =
    Array.map
      (fun (pkt : Monet_amhl.Amhl.hop_packet) ->
        let w = Monet_util.Wire.create_writer () in
        Monet_sig.Stmt.encode_proved w pkt.Monet_amhl.Amhl.hp_lock;
        Monet_util.Wire.write_fixed w (Sc.to_bytes_le pkt.Monet_amhl.Amhl.hp_y);
        String.length (Monet_util.Wire.contents w))
      s.Monet_amhl.Amhl.packets
  in
  Array.iter (fun sz -> Alcotest.(check int) "uniform packet size" sizes.(0) sz) sizes

let test_fungibility_statistical () =
  (* Structural indistinguishability, statistically: a batch of wallet
     payments and a batch of channel closes have identical shape
     distributions (input arity, ring size, 1-2 outputs, empty extra). *)
  let shapes = Hashtbl.create 8 in
  let record tag (tx : Monet_xmr.Tx.t) =
    let n_in, rings, n_out = Monet_xmr.Tx.shape tx in
    let key = (n_in, rings, min n_out 2, tx.Monet_xmr.Tx.extra = "") in
    Hashtbl.replace shapes (tag, key) (1 + Option.value ~default:0 (Hashtbl.find_opt shapes (tag, key)))
  in
  for i = 0 to 2 do
    let t, ids = line_network ~n:2 (Printf.sprintf "fs%d" i) in
    let e = Graph.edge t 1 in
    (match Ch.update (Graph.channel_exn e) ~amount_from_a:5 with
    | Ok _ -> ()
    | Error err -> Alcotest.fail (Ch.error_to_string err));
    (match Ch.cooperative_close (Graph.channel_exn e) with
    | Ok (p, _) -> record `Channel p.Ch.close_tx
    | Error err -> Alcotest.fail (Ch.error_to_string err));
    (* A wallet payment of the same denomination on the same ledger. *)
    let node = Graph.node t ids.(0) in
    Monet_xmr.Wallet.scan (Graph.wallet_of node) t.Graph.env.Ch.ledger;
    let g2 = Monet_hash.Drbg.of_int (500 + i) in
    let dest = Point.mul_base (Sc.random_nonzero g2) in
    let amount = Monet_xmr.Wallet.balance (Graph.wallet_of node) in
    if amount > 0 then begin
      Monet_xmr.Ledger.ensure_decoys g2 t.Graph.env.Ch.ledger ~amount ~n:15;
      match Monet_xmr.Wallet.pay (Graph.wallet_of node) t.Graph.env.Ch.ledger ~dest ~amount with
      | Ok tx -> record `Wallet tx
      | Error err -> Alcotest.fail err
    end
  done;
  (* Every channel-close shape also occurs as a wallet-payment shape. *)
  Hashtbl.iter
    (fun (tag, (n_in, rings, _, extra_empty)) _ ->
      if tag = `Channel then begin
        Alcotest.(check bool) "one input, full ring" true
          (n_in = 1 && rings = [ test_cfg.Ch.ring_size ] && extra_empty);
        let wallet_has_shape =
          Hashtbl.fold
            (fun (t2, (n2, r2, _, e2)) _ acc ->
              acc || (t2 = `Wallet && n2 = n_in && r2 = rings && e2 = extra_empty))
            shapes false
        in
        Alcotest.(check bool) "shape occurs among wallet txs" true wallet_has_shape
      end)
    shapes


let test_routing_fees () =
  (* Alice pays Carol 10 via Bob who charges a flat fee of 2: Alice
     sends 12, Bob keeps 2, Carol receives 10. *)
  let t, ids = line_network ~n:3 "fees" in
  Graph.set_fee t ids.(1) ~fee:2;
  (match Router.find_path t ~src:ids.(0) ~dst:ids.(2) ~amount:12 with
  | Error e -> Alcotest.fail e
  | Ok path -> (
      let amounts = Router.amounts t ~amount:10 path in
      Alcotest.(check (list int)) "fee-adjusted amounts" [ 12; 10 ] amounts;
      Alcotest.(check int) "sender cost incl. fee" 12 (List.hd amounts);
      match Payment.execute t ~path ~amount:10 () with
      | Error e -> Alcotest.fail (Payment.error_to_string e)
      | Ok o -> Alcotest.(check bool) "succeeded" true o.Payment.succeeded));
  let e1 = Graph.edge t 1 and e2 = Graph.edge t 2 in
  Alcotest.(check int) "alice paid 12" 38 (Graph.balance_of e1 ~node_id:ids.(0));
  Alcotest.(check int) "bob kept the fee" 102
    (Graph.balance_of e1 ~node_id:ids.(1) + Graph.balance_of e2 ~node_id:ids.(1));
  Alcotest.(check int) "carol got 10" 60 (Graph.balance_of e2 ~node_id:ids.(2))

let test_multipath_payment () =
  (* Diamond: s has two 30-capacity routes to d; a 50-coin payment
     must split across both. *)
  let t = Graph.create ~cfg:test_cfg (Monet_hash.Drbg.split drbg "mpp") in
  let s = Graph.add_node t ~name:"s" in
  let u = Graph.add_node t ~name:"u" in
  let v = Graph.add_node t ~name:"v" in
  let d = Graph.add_node t ~name:"d" in
  List.iter (fun n -> Graph.fund_node t n ~amount:200) [ s; u; v; d ];
  List.iter
    (fun (a, b) ->
      match Graph.open_channel t ~left:a ~right:b ~bal_left:30 ~bal_right:30 with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e)
    [ (s, u); (u, d); (s, v); (v, d) ];
  (* Single-path routing cannot carry 50. *)
  (match Router.find_path t ~src:s ~dst:d ~amount:50 with
  | Ok _ -> Alcotest.fail "single path should not fit"
  | Error _ -> ());
  match Payment.pay_multipath t ~src:s ~dst:d ~amount:50 () with
  | Error e -> Alcotest.fail (Payment.error_to_string e)
  | Ok parts ->
      Alcotest.(check int) "two parts" 2 (List.length parts);
      Alcotest.(check int) "parts sum to amount" 50
        (List.fold_left (fun acc (_, a) -> acc + a) 0 parts);
      (* Receiver got 50 in total across its two channels. *)
      let recv =
        List.fold_left
          (fun acc (e : Graph.edge) ->
            if e.Graph.e_left = d || e.Graph.e_right = d then
              acc + Graph.balance_of e ~node_id:d
            else acc)
          0 (Graph.edge_list t)
      in
      Alcotest.(check int) "receiver credited across parts" 110 recv

let test_multipath_insufficient () =
  let t, ids = line_network ~n:2 ~bal:10 "mpi" in
  match Payment.pay_multipath t ~src:ids.(0) ~dst:ids.(1) ~amount:100 () with
  | Ok _ -> Alcotest.fail "impossible multipath succeeded"
  | Error _ -> ()

let tests =
  [
    Alcotest.test_case "amhl chain" `Quick test_amhl_chain;
    Alcotest.test_case "amhl forged hop" `Quick test_amhl_wrong_hop_rejected;
    Alcotest.test_case "onion roundtrip" `Quick test_onion_roundtrip;
    Alcotest.test_case "onion wrong key" `Quick test_onion_wrong_key;
    Alcotest.test_case "routing" `Quick test_routing;
    Alcotest.test_case "routing no capacity" `Quick test_routing_no_capacity;
    Alcotest.test_case "multi-hop payment" `Quick test_multihop_payment;
    Alcotest.test_case "atomic cancel" `Quick test_multihop_atomicity_on_cancel;
    Alcotest.test_case "long path" `Quick test_multihop_long_path;
    Alcotest.test_case "worst-case last-hop dispute" `Quick test_worst_case_last_hop_dispute;
    Alcotest.test_case "latency model" `Quick test_latency_model;
    Alcotest.test_case "report counts pinned" `Quick test_report_counts_pinned;
    Alcotest.test_case "watchtower punishes" `Quick test_watchtower_punishes;
    Alcotest.test_case "watchtower on clock" `Quick test_watchtower_scheduled_on_clock;
    Alcotest.test_case "onion fixed-size privacy" `Quick test_onion_fixed_size_privacy;
    Alcotest.test_case "amhl packets position-free" `Quick test_amhl_packets_position_free;
    Alcotest.test_case "fungibility statistical" `Quick test_fungibility_statistical;
    Alcotest.test_case "routing fees" `Quick test_routing_fees;
    Alcotest.test_case "multipath payment" `Quick test_multipath_payment;
    Alcotest.test_case "multipath insufficient" `Quick test_multipath_insufficient;
  ]
