(* Fault injection, recovery, and the chaos harness: plan semantics,
   driver-level retransmission/rollback, latency sampling, watchtower
   hygiene, scripted adversarial scenarios, and the seeded soak. *)
open Monet_channel.Channel
module Driver = Monet_channel.Driver
module Watchtower = Monet_channel.Watchtower
module Plan = Monet_fault.Plan
module Chaos = Monet_chaos.Chaos
module Payment = Monet_net.Payment
module Tp = Monet_sig.Two_party

let test_cfg =
  { default_config with vcof_reps = Some 2; ring_size = 3; n_escrowers = 3;
    escrow_threshold = 2 }

(* --- fault plans --- *)

let test_plan_honest_never_faults () =
  let p = Plan.none () in
  for _ = 1 to 100 do
    (match Plan.decide p ~to_a:true with
    | Plan.Deliver -> ()
    | _ -> Alcotest.fail "honest plan faulted");
    match Plan.decide p ~to_a:false with
    | Plan.Deliver -> ()
    | _ -> Alcotest.fail "honest plan faulted"
  done;
  Alcotest.(check int) "no faults fired" 0 (Plan.faults_fired p)

let test_plan_withhold_is_sticky () =
  let profile = { Plan.honest_profile with Plan.p_withhold = 1.0 } in
  let p = Plan.make ~profile (Monet_hash.Drbg.of_int 7) in
  (match Plan.decide p ~to_a:false with
  | Plan.Withhold -> ()
  | _ -> Alcotest.fail "p_withhold=1 must withhold");
  (* The direction is dead now: even a would-be Deliver is withheld. *)
  for _ = 1 to 10 do
    match Plan.decide p ~to_a:false with
    | Plan.Withhold -> ()
    | _ -> Alcotest.fail "withhold must be sticky"
  done;
  (* Withhold kills the link direction, not the party. *)
  Alcotest.(check bool) "party still sends" true (Plan.can_send p ~a:false)

let test_plan_crash_after () =
  let p = Plan.make ~mode_a:(Plan.Crash_after 2) (Monet_hash.Drbg.of_int 8) in
  Alcotest.(check bool) "alive before" false (Plan.crashed p ~a:true);
  Plan.note_delivery p;
  Plan.note_delivery p;
  Alcotest.(check bool) "crashed after 2 deliveries" true (Plan.crashed p ~a:true);
  Alcotest.(check bool) "crashed party is mute" true (Plan.mute p ~a:true);
  Alcotest.(check bool) "other party unaffected" false (Plan.crashed p ~a:false);
  let k = Plan.none () in
  Plan.kill k;
  Alcotest.(check bool) "kill crashes both" true
    (Plan.crashed k ~a:true && Plan.crashed k ~a:false)

let test_plan_restart_semantics () =
  let p =
    Plan.make ~mode_b:(Plan.Restart { r_after = 2; r_down_ms = 250.0 })
      (Monet_hash.Drbg.of_int 9)
  in
  Alcotest.(check bool) "alive before" false (Plan.crashed p ~a:false);
  Alcotest.(check (option (float 0.0))) "no downtime while alive" None
    (Plan.restart_down_ms p ~a:false);
  Plan.note_delivery p;
  Plan.note_delivery p;
  Alcotest.(check bool) "down after 2 deliveries" true (Plan.crashed p ~a:false);
  Alcotest.(check bool) "mute while down" true (Plan.mute p ~a:false);
  Alcotest.(check (option (float 0.0))) "scheduled downtime"
    (Some 250.0)
    (Plan.restart_down_ms p ~a:false);
  Alcotest.(check bool) "peer unaffected" false (Plan.crashed p ~a:true);
  Plan.revive p ~a:false;
  Alcotest.(check bool) "honest after revive" false (Plan.crashed p ~a:false);
  Alcotest.(check bool) "speaks after revive" false (Plan.mute p ~a:false);
  (* revive never resurrects a permanent crash-stop... *)
  let q = Plan.make ~mode_a:(Plan.Crash_after 0) (Monet_hash.Drbg.of_int 10) in
  Plan.revive q ~a:true;
  Alcotest.(check bool) "Crash_after stays permanent" true (Plan.crashed q ~a:true);
  (* ...and crash_now is the immediate restartable kill (the store's
     torn-append failpoint uses it). *)
  let r = Plan.none () in
  Plan.crash_now r ~a:true ~down_ms:50.0;
  Alcotest.(check bool) "down immediately" true (Plan.crashed r ~a:true);
  Alcotest.(check (option (float 0.0))) "with its downtime" (Some 50.0)
    (Plan.restart_down_ms r ~a:true);
  Plan.revive r ~a:true;
  Alcotest.(check bool) "back up" false (Plan.crashed r ~a:true)

let test_plan_restart_silent_orthogonal () =
  (* Silent is aliveness with muted replies; Restart is death with a
     comeback. One party each: reviving the restarter must not touch
     the silent peer, and a silent party never counts as crashed. *)
  let p =
    Plan.make ~mode_a:Plan.Silent
      ~mode_b:(Plan.Restart { r_after = 0; r_down_ms = 100.0 })
      (Monet_hash.Drbg.of_int 11)
  in
  Alcotest.(check bool) "silent party is mute" true (Plan.mute p ~a:true);
  Alcotest.(check bool) "silent party is alive" false (Plan.crashed p ~a:true);
  Alcotest.(check (option (float 0.0))) "silent party never restarts" None
    (Plan.restart_down_ms p ~a:true);
  Alcotest.(check bool) "restarter down at once" true (Plan.crashed p ~a:false);
  Plan.revive p ~a:false;
  Alcotest.(check bool) "restarter honest" false (Plan.mute p ~a:false);
  Plan.revive p ~a:true;
  Alcotest.(check bool) "silence survives a stray revive" true
    (Plan.mute p ~a:true)

(* --- driver under faults: a two-party channel fixture --- *)

let make_channel ~transport () =
  let env = make_env (Monet_hash.Drbg.of_int 606060) in
  let g = Monet_hash.Drbg.of_int 616161 in
  let wa = Monet_xmr.Wallet.create ~ring_size:test_cfg.ring_size g ~label:"wa" in
  let wb = Monet_xmr.Wallet.create ~ring_size:test_cfg.ring_size g ~label:"wb" in
  let fund w amount =
    let kp = Monet_sig.Sig_core.gen g in
    let idx =
      Monet_xmr.Ledger.genesis_output env.ledger
        { Monet_xmr.Tx.otk = kp.vk; amount }
    in
    Monet_xmr.Wallet.adopt w ~global_index:idx ~keypair:kp ~amount
  in
  fund wa 60;
  fund wb 40;
  match
    establish ~cfg:test_cfg ~transport env ~id:1 ~wallet_a:wa ~wallet_b:wb
      ~bal_a:60 ~bal_b:40
  with
  | Error e -> Alcotest.failf "establish: %s" (error_to_string e)
  | Ok (c, _) -> c

let scheduled () =
  let clock = Monet_dsim.Clock.create () in
  ( clock,
    Driver.Scheduled
      { clock; latency = Monet_dsim.Latency.Fixed 5.0;
        g = Monet_hash.Drbg.of_int 5 } )

let test_driver_faultless_plan_is_transparent () =
  let _, transport = scheduled () in
  let c = make_channel ~transport () in
  set_faults c (Some (make_faults (Plan.none ())));
  (match update c ~amount_from_a:7 with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "update: %s" (error_to_string e));
  Alcotest.(check (pair int int)) "balances moved" (53, 47)
    (c.a.my_balance, c.b.my_balance);
  match c.faults with
  | Some f ->
      Alcotest.(check int) "no retransmits" 0 f.f_retransmits;
      Alcotest.(check int) "no timeouts" 0 f.f_timeouts
  | None -> Alcotest.fail "faults cleared"

let test_driver_recovers_from_drops () =
  let _, transport = scheduled () in
  let c = make_channel ~transport () in
  let profile = { Plan.honest_profile with Plan.p_drop = 0.25 } in
  let plan = Plan.make ~profile (Monet_hash.Drbg.of_int 1234) in
  set_faults c (Some (make_faults ~max_retries:8 plan));
  for i = 1 to 5 do
    match update c ~amount_from_a:2 with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "update %d: %s" i (error_to_string e)
  done;
  Alcotest.(check (pair int int)) "balances correct despite drops" (50, 50)
    (c.a.my_balance, c.b.my_balance);
  (match c.faults with
  | Some f ->
      Alcotest.(check bool) "recovery actually retransmitted" true
        (f.f_retransmits > 0)
  | None -> Alcotest.fail "faults cleared");
  Alcotest.(check bool) "drops actually fired" true (Plan.faults_fired plan > 0)

let test_driver_duplicates_never_double_charge () =
  let _, transport = scheduled () in
  let c = make_channel ~transport () in
  let profile = { Plan.honest_profile with Plan.p_duplicate = 1.0 } in
  let plan = Plan.make ~profile (Monet_hash.Drbg.of_int 99) in
  set_faults c (Some (make_faults plan));
  (match update c ~amount_from_a:10 with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "update: %s" (error_to_string e));
  Alcotest.(check (pair int int)) "amount applied exactly once" (50, 50)
    (c.a.my_balance, c.b.my_balance);
  Alcotest.(check int) "single state bump" 1 c.a.state;
  Alcotest.(check bool) "duplicates actually fired" true
    (Plan.faults_fired plan > 0)

let test_driver_timeout_rolls_back () =
  let _, transport = scheduled () in
  let c = make_channel ~transport () in
  (match update c ~amount_from_a:7 with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "warm-up update: %s" (error_to_string e));
  let plan = Plan.none () in
  Plan.kill plan;
  set_faults c (Some (make_faults plan));
  let before =
    (c.a.state, c.a.my_balance, c.b.my_balance, c.a.their_balance)
  in
  (match update c ~amount_from_a:5 with
  | Ok _ -> Alcotest.fail "update over a dead link must time out"
  | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "timeout error, got: %s" (error_to_string e))
        true
        (Monet_channel.Errors.is_timeout e));
  Alcotest.(check bool) "session state fully rolled back" true
    (before = (c.a.state, c.a.my_balance, c.b.my_balance, c.a.their_balance));
  (match c.faults with
  | Some f -> Alcotest.(check int) "timeout counted" 1 f.f_timeouts
  | None -> Alcotest.fail "faults cleared");
  (* The rollback left a coherent session state: healing the link must
     let the next update succeed (witness chains still line up). *)
  set_faults c (Some (make_faults (Plan.none ())));
  match update c ~amount_from_a:5 with
  | Ok _ ->
      Alcotest.(check (pair int int)) "post-recovery balances" (48, 52)
        (c.a.my_balance, c.b.my_balance)
  | Error e -> Alcotest.failf "post-recovery update: %s" (error_to_string e)

(* --- crash–restart: journaled endpoints through the driver --- *)

module Recovery = Monet_channel.Recovery
module Backend = Monet_store.Backend

let test_driver_restart_recovers_from_journal () =
  (* Sweep the kill point across the update session's delivery
     sequence: for each r_after, party B dies kill -9-style after that
     many link deliveries and restarts from its journal 150 simulated
     ms later. Whatever the landing spot, the channel must end in a
     coherent state — amount applied exactly once (a restarted party
     must not replay deduped messages) or session fully rolled back —
     and keep working afterwards. *)
  let resumed_somewhere = ref false and recovered_total = ref 0 in
  for r_after = 0 to 10 do
    let _, transport = scheduled () in
    let c = make_channel ~transport () in
    let plan =
      Plan.make
        ~mode_b:(Plan.Restart { r_after; r_down_ms = 150.0 })
        (Monet_hash.Drbg.of_int (100 + r_after))
    in
    set_faults c
      (Some (make_faults ~deadline_ms:100.0 ~max_retries:5 ~backoff:2.0 plan));
    let host =
      Recovery.attach ~backend:(Backend.mem ()) ~name:"b"
        ~reseed:(Monet_hash.Drbg.of_int (900 + r_after))
        c.b
    in
    c.store_b <-
      Some
        (Recovery.restart_hooks host ~on_restart:(fun () ->
             match Recovery.recover host ~env:c.env with
             | Ok r ->
                 incr recovered_total;
                 if r.Monet_channel.Recovery.r_resumed then
                   resumed_somewhere := true
             | Error e ->
                 Alcotest.failf "r_after=%d recover: %s" r_after
                   (error_to_string e)));
    let st0 = c.a.state in
    (match update c ~amount_from_a:3 with
    | Ok _ ->
        Alcotest.(check int)
          (Printf.sprintf "r_after=%d state advanced exactly once" r_after)
          (st0 + 1) c.a.state;
        Alcotest.(check int)
          (Printf.sprintf "r_after=%d parties agree" r_after)
          c.a.state c.b.state;
        Alcotest.(check (pair int int))
          (Printf.sprintf "r_after=%d amount applied exactly once" r_after)
          (57, 43)
          (c.a.my_balance, c.b.my_balance)
    | Error e when Monet_channel.Errors.is_timeout e ->
        Alcotest.(check (pair int int))
          (Printf.sprintf "r_after=%d rolled back cleanly" r_after)
          (st0, st0) (c.a.state, c.b.state);
        Alcotest.(check (pair int int))
          (Printf.sprintf "r_after=%d balances untouched" r_after)
          (60, 40)
          (c.a.my_balance, c.b.my_balance)
    | Error e ->
        Alcotest.failf "r_after=%d update: %s" r_after (error_to_string e));
    (* Liveness from wherever we landed: heal the link, transact on. *)
    set_faults c (Some (make_faults (Plan.none ())));
    let before = c.a.state in
    match update c ~amount_from_a:1 with
    | Ok _ ->
        Alcotest.(check int)
          (Printf.sprintf "r_after=%d post-restart update" r_after)
          (before + 1) c.a.state
    | Error e ->
        Alcotest.failf "r_after=%d post-restart update: %s" r_after
          (error_to_string e)
  done;
  Alcotest.(check bool) "some kill point triggered a recovery" true
    (!recovered_total > 0);
  Alcotest.(check bool) "some kill point resumed a precommitted session" true
    !resumed_somewhere

let test_watchtower_save_restore () =
  let c = make_channel ~transport:Driver.Sync () in
  (match update c ~amount_from_a:5 with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "update: %s" (error_to_string e));
  (match update c ~amount_from_a:5 with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "update: %s" (error_to_string e));
  let tower = Watchtower.create () in
  Watchtower.watch tower c ~victim:Tp.Alice;
  let blob = Watchtower.save tower in
  let resolve id = if id = c.id then Some c else None in
  (* Restore-then-watch must not double-count the channel. *)
  let tower' =
    match Watchtower.restore ~resolve blob with
    | Ok t -> t
    | Error e -> Alcotest.failf "restore: %s" (error_to_string e)
  in
  Watchtower.watch tower' c ~victim:Tp.Alice;
  Alcotest.(check int) "watched once after restore + re-watch" 1
    (Watchtower.watched_count tower');
  (* Punishment still fires on the restored tower. *)
  let alice_old = my_witness_at c.a ~state:1 in
  (match
     submit_old_state c ~cheater:Tp.Bob ~state:1 ~victim_old_wit:alice_old
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "cheat submit: %s" (error_to_string e));
  let r = Watchtower.tick tower' in
  Alcotest.(check int) "restored tower punishes" 1
    (List.length r.Watchtower.punished);
  Alcotest.(check int) "restored tower counts it" 1
    tower'.Watchtower.punishments;
  (* Unresolvable ids are dropped; corrupt blobs are typed errors. *)
  (match Watchtower.restore ~resolve:(fun _ -> None) blob with
  | Ok empty ->
      Alcotest.(check int) "ghost channels dropped" 0
        (Watchtower.watched_count empty)
  | Error e -> Alcotest.failf "restore with no channels: %s" (error_to_string e));
  match Watchtower.restore ~resolve (String.sub blob 0 4) with
  | Ok _ -> Alcotest.fail "truncated tower state restored"
  | Error _ -> ()

(* --- latency sampling (Box-Muller without the clamp bias) --- *)

let test_normal_latency_mean_converges () =
  let g = Monet_hash.Drbg.of_int 4242 in
  let lat = Monet_dsim.Latency.Normal (60.0, 20.0) in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    let x = Monet_dsim.Latency.sample g lat in
    if x < 0.0 then Alcotest.fail "negative latency";
    sum := !sum +. x
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "sample mean %.2f within 60±0.5" mean)
    true
    (Float.abs (mean -. 60.0) < 0.5)

let test_normal_latency_no_point_mass_at_zero () =
  (* mu = sigma/2: clamping would put ~31%% of the mass exactly at 0
     (and drag the mean to ~14); resampling leaves no atom at 0. *)
  let g = Monet_hash.Drbg.of_int 777 in
  let lat = Monet_dsim.Latency.Normal (10.0, 20.0) in
  let n = 5_000 in
  let sum = ref 0.0 and zeros = ref 0 in
  for _ = 1 to n do
    let x = Monet_dsim.Latency.sample g lat in
    if x < 0.0 then Alcotest.fail "negative latency";
    if x = 0.0 then incr zeros;
    sum := !sum +. x
  done;
  Alcotest.(check int) "no point mass at zero" 0 !zeros;
  let mean = !sum /. float_of_int n in
  (* E[X | X >= 0] for N(10, 20) is ~20.2. *)
  Alcotest.(check bool)
    (Printf.sprintf "conditional mean %.2f within [19.4, 21.0]" mean)
    true
    (mean > 19.4 && mean < 21.0)

(* --- watchtower hygiene + punishment under the scheduled transport --- *)

let test_watchtower_dedup_and_prune () =
  let c = make_channel ~transport:Driver.Sync () in
  (match update c ~amount_from_a:5 with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "update: %s" (error_to_string e));
  (match update c ~amount_from_a:5 with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "update: %s" (error_to_string e));
  let tower = Watchtower.create () in
  Watchtower.watch tower c ~victim:Tp.Alice;
  Watchtower.watch tower c ~victim:Tp.Alice;
  Watchtower.watch tower c ~victim:Tp.Bob;
  Alcotest.(check int) "duplicate registrations ignored" 1
    (Watchtower.watched_count tower);
  let alice_old = my_witness_at c.a ~state:1 in
  (match
     submit_old_state c ~cheater:Tp.Bob ~state:1 ~victim_old_wit:alice_old
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "cheat submit: %s" (error_to_string e));
  let r = Watchtower.tick tower in
  Alcotest.(check int) "punished once" 1 (List.length r.Watchtower.punished);
  Alcotest.(check int) "entry pruned after punishment" 0
    (Watchtower.watched_count tower);
  (* A second sweep finds nothing: no double punishment. *)
  let r2 = Watchtower.tick tower in
  Alcotest.(check int) "nothing left to punish" 0
    (List.length r2.Watchtower.punished);
  Alcotest.(check int) "punishment counter" 1 tower.Watchtower.punishments

let test_watchtower_punishes_under_scheduled_transport () =
  let clock = Monet_dsim.Clock.create () in
  let c = make_channel ~transport:Driver.Sync () in
  (match update c ~amount_from_a:5 with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "update: %s" (error_to_string e));
  (* Switch to clock-driven delivery with sampled (normal) latencies. *)
  c.transport <-
    Driver.Scheduled
      { clock; latency = Monet_dsim.Latency.Normal (5.0, 2.0);
        g = Monet_hash.Drbg.of_int 313 };
  let tower = Watchtower.create () in
  Watchtower.watch tower c ~victim:Tp.Alice;
  Watchtower.schedule tower clock ~interval_ms:10.0 ~until_ms:2_000.0;
  (* The cheat lands on the clock a few simulated ms in, so the tower's
     sweep and the victim's in-flight update session interleave. *)
  Monet_dsim.Clock.schedule clock ~delay:3.0 (fun () ->
      let alice_old = my_witness_at c.a ~state:1 in
      match
        submit_old_state c ~cheater:Tp.Bob ~state:1 ~victim_old_wit:alice_old
      with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "cheat submit: %s" (error_to_string e));
  ignore (update c ~amount_from_a:3);
  Monet_dsim.Clock.run clock ();
  Alcotest.(check int) "stale broadcast punished mid-flight" 1
    tower.Watchtower.punishments;
  Alcotest.(check bool) "channel closed by punishment" true c.a.closed;
  Alcotest.(check int) "watch list pruned" 0 (Watchtower.watched_count tower)

(* --- scripted chaos scenarios over 3-hop payments --- *)

let run_scenario ?(seed = 42) scenario =
  match Chaos.run ~n_hops:3 ~seed scenario with
  | Error e -> Alcotest.failf "chaos harness: %s" e
  | Ok o -> o

let check_conserved (o : Chaos.outcome) =
  Alcotest.(check (list string)) "invariants" [] o.Chaos.o_violations

let test_chaos_happy () =
  let o = run_scenario Chaos.Happy in
  check_conserved o;
  Alcotest.(check bool) "delivered" true o.Chaos.o_delivered;
  Alcotest.(check (pair int int)) "no escalation" (0, 0)
    (o.Chaos.o_disputes, o.Chaos.o_punishments);
  Array.iter
    (function
      | Payment.Hop_unlocked -> ()
      | _ -> Alcotest.fail "every hop must unlock")
    o.Chaos.o_fates

let test_chaos_silent_hop_disputes_and_cancels () =
  let o = run_scenario (Chaos.Silent_hop 1) in
  check_conserved o;
  Alcotest.(check bool) "not delivered" false o.Chaos.o_delivered;
  (* The dark hop is forced through the KES; the lock already placed
     upstream is cancelled; downstream was never reached. *)
  (match o.Chaos.o_fates with
  | [| Payment.Hop_cancelled; Payment.Hop_disputed p; Payment.Hop_pending |] ->
      Alcotest.(check int) "disputed payout conserves capacity" 1_000
        (p.pay_a + p.pay_b)
  | _ -> Alcotest.fail "unexpected fates for a dark middle hop");
  Alcotest.(check int) "exactly one KES dispute" 1 o.Chaos.o_disputes

let test_chaos_silent_receiver_cancels_cascade () =
  let o = run_scenario Chaos.Silent_receiver in
  check_conserved o;
  Alcotest.(check bool) "not delivered" false o.Chaos.o_delivered;
  (* The paper's unlockability worst case: the last channel closes
     through the KES at its pre-lock state; the upstream hops cancel
     and stay open. Every channel entered the payment at 480/520 after
     the harness's two warm-up updates of 10 from A. *)
  (match o.Chaos.o_fates with
  | [| Payment.Hop_cancelled; Payment.Hop_cancelled; Payment.Hop_disputed p |]
    ->
      Alcotest.(check (pair int int)) "disputed at the pre-payment balances"
        (480, 520) (p.pay_a, p.pay_b)
  | _ -> Alcotest.fail "expected upstream cancels + receiver-hop dispute");
  Alcotest.(check int) "one dispute" 1 o.Chaos.o_disputes;
  Alcotest.(check bool) "last channel closed" true
    o.Chaos.o_channels.(2).a.closed;
  Array.iteri
    (fun i (c : channel) ->
      if i < 2 then begin
        Alcotest.(check bool) (Printf.sprintf "hop %d open" (i + 1)) false c.a.closed;
        Alcotest.(check (pair int int))
          (Printf.sprintf "hop %d balances restored" (i + 1))
          (480, 520) (c.a.my_balance, c.b.my_balance)
      end)
    o.Chaos.o_channels

let test_chaos_cheating_hop_is_punished () =
  let o = run_scenario (Chaos.Cheating_hop 1) in
  check_conserved o;
  (* The watchtower — not the dispute path — must settle the cheat. *)
  Alcotest.(check int) "watchtower punished the stale broadcast" 1
    o.Chaos.o_punishments;
  Alcotest.(check int) "no KES dispute needed" 0 o.Chaos.o_disputes;
  (match o.Chaos.o_fates with
  | [| Payment.Hop_cancelled; Payment.Hop_punished p; Payment.Hop_unlocked |]
    ->
      Alcotest.(check int) "punishment payout conserves capacity" 1_000
        (p.pay_a + p.pay_b)
  | _ -> Alcotest.fail "unexpected fates for a cheating middle hop");
  (* Downstream unlocked before the cheat: the receiver stays paid. *)
  Alcotest.(check bool) "delivered" true o.Chaos.o_delivered

(* --- the soak: hundreds of seeded schedules --- *)

let test_chaos_soak () =
  let s = Chaos.soak ~n_hops:3 ~base_seed:0 ~runs:200 () in
  List.iter
    (fun (seed, label, problem) ->
      Printf.printf "soak failure seed=%d [%s]: %s\n%!" seed label problem)
    s.Chaos.s_failures;
  Alcotest.(check int) "all 200 schedules ran" 200 s.Chaos.s_runs;
  Alcotest.(check (list string)) "no invariant violations" []
    (List.map
       (fun (seed, label, p) -> Printf.sprintf "seed %d [%s]: %s" seed label p)
       s.Chaos.s_failures);
  (* The schedule mix provably exercised every escalation tier. *)
  Alcotest.(check bool) "some payments survived faults" true
    (s.Chaos.s_delivered > 0);
  Alcotest.(check bool) "KES disputes exercised" true (s.Chaos.s_disputes > 0);
  Alcotest.(check bool) "watchtower punishments exercised" true
    (s.Chaos.s_punishments > 0);
  Alcotest.(check bool) "retransmission recovery exercised" true
    (s.Chaos.s_retransmits > 0)

(* --- the crash soak: hundreds of seeded kill/restart schedules --- *)

let test_crash_soak () =
  let s = Chaos.crash_soak ~n_hops:3 ~base_seed:0 ~runs:200 () in
  List.iter
    (fun (seed, label, problem) ->
      Printf.printf "crash-soak failure seed=%d [%s]: %s\n%!" seed label problem)
    s.Chaos.cs_failures;
  Alcotest.(check int) "all 200 schedules ran" 200 s.Chaos.cs_runs;
  Alcotest.(check (list string)) "no invariant violations" []
    (List.map
       (fun (seed, label, p) -> Printf.sprintf "seed %d [%s]: %s" seed label p)
       s.Chaos.cs_failures);
  (* The schedule mix provably exercised the whole recovery machinery. *)
  Alcotest.(check bool) "parties actually recovered from disk" true
    (s.Chaos.cs_recoveries > 0);
  Alcotest.(check bool) "journal records actually replayed" true
    (s.Chaos.cs_replayed > 0);
  Alcotest.(check bool) "some sessions resumed from a precommit" true
    (s.Chaos.cs_resumed > 0);
  Alcotest.(check bool) "some sessions aborted from an intent" true
    (s.Chaos.cs_aborted > 0);
  Alcotest.(check bool) "torn journal tails detected" true (s.Chaos.cs_torn > 0);
  Alcotest.(check bool) "some payments survived a mid-flight kill" true
    (s.Chaos.cs_delivered > 0)

let tests =
  [
    Alcotest.test_case "plan: honest plan never faults" `Quick
      test_plan_honest_never_faults;
    Alcotest.test_case "plan: withhold is sticky per direction" `Quick
      test_plan_withhold_is_sticky;
    Alcotest.test_case "plan: crash-stop and kill semantics" `Quick
      test_plan_crash_after;
    Alcotest.test_case "plan: restart semantics" `Quick
      test_plan_restart_semantics;
    Alcotest.test_case "plan: restart and silent are orthogonal" `Quick
      test_plan_restart_silent_orthogonal;
    Alcotest.test_case "driver: faultless plan is transparent" `Quick
      test_driver_faultless_plan_is_transparent;
    Alcotest.test_case "driver: retransmission recovers from drops" `Quick
      test_driver_recovers_from_drops;
    Alcotest.test_case "driver: duplicates never double-charge" `Quick
      test_driver_duplicates_never_double_charge;
    Alcotest.test_case "driver: timeout rolls the session back" `Quick
      test_driver_timeout_rolls_back;
    Alcotest.test_case "driver: restart recovers from the journal" `Quick
      test_driver_restart_recovers_from_journal;
    Alcotest.test_case "watchtower: save/restore + punish after restart" `Quick
      test_watchtower_save_restore;
    Alcotest.test_case "latency: normal mean converges (no clamp bias)" `Quick
      test_normal_latency_mean_converges;
    Alcotest.test_case "latency: no point mass at zero" `Quick
      test_normal_latency_no_point_mass_at_zero;
    Alcotest.test_case "watchtower: dedup + prune + single punishment" `Quick
      test_watchtower_dedup_and_prune;
    Alcotest.test_case "watchtower: punishes under scheduled transport" `Quick
      test_watchtower_punishes_under_scheduled_transport;
    Alcotest.test_case "chaos: happy path delivers" `Quick test_chaos_happy;
    Alcotest.test_case "chaos: silent hop -> dispute + upstream cancel" `Quick
      test_chaos_silent_hop_disputes_and_cancels;
    Alcotest.test_case "chaos: silent receiver -> cancel cascade" `Quick
      test_chaos_silent_receiver_cancels_cascade;
    Alcotest.test_case "chaos: cheating hop -> watchtower punishment" `Quick
      test_chaos_cheating_hop_is_punished;
    Alcotest.test_case "chaos: 200-schedule seeded soak" `Slow test_chaos_soak;
    Alcotest.test_case "chaos: 200-schedule crash/restart soak" `Slow
      test_crash_soak;
  ]
