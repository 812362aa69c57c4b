(** Seeded chaos schedules over the full protocol stack.

    One chaos run builds a fresh line network of [n_hops] MoChannels,
    installs a fault {!scenario} (fault plans on the links, plus
    scripted misbehaviour at precise protocol points), drives one
    multi-hop payment through it ({!Monet_net.Payment.execute}) on the
    discrete-event clock, and then checks the {!Invariant}s: funds
    conserved, every lock resolved, no double punishment. Everything
    derives from the integer seed — a failing schedule replays
    exactly.

    The scenarios map to the paper's adversary model:

    - [Happy]: no faults; the executor takes no escalation branch.
    - [Flaky severity]: every link drops/delays/duplicates/withholds
      per a profile drawn from the seed. The driver's retransmission
      machinery absorbs transient faults; a link that dies outright
      escalates to a KES dispute.
    - [Silent_hop i]: hop [i]'s channel goes dark before the payment,
      so its lock session times out. The sender disputes that channel
      through the KES and cancels the locks already placed upstream.
    - [Silent_receiver]: the receiver takes the locks and never
      releases the witness. Every hop waits out its cascade timer and
      cancels; the receiver's own channel ends in a pre-lock dispute.
    - [Cheating_hop i]: once hop [i] is locked, its payee goes dark
      {e and} broadcasts a stale commitment. The watchtower must catch
      it and settle with priority before the dispute path even runs. *)

module Ch = Monet_channel.Channel
module Driver = Monet_channel.Driver
module Watchtower = Monet_channel.Watchtower
module Graph = Monet_net.Graph
module Router = Monet_net.Router
module Payment = Monet_net.Payment
module Plan = Monet_fault.Plan
module Tp = Monet_sig.Two_party

type scenario =
  | Happy
  | Flaky of float  (** severity in [0,1] *)
  | Silent_hop of int  (** this hop's channel is dark from the start *)
  | Silent_receiver
  | Cheating_hop of int  (** goes dark after locking + broadcasts stale state *)

let scenario_label = function
  | Happy -> "happy"
  | Flaky s -> Printf.sprintf "flaky(%.2f)" s
  | Silent_hop i -> Printf.sprintf "silent-hop(%d)" i
  | Silent_receiver -> "silent-receiver"
  | Cheating_hop i -> Printf.sprintf "cheating-hop(%d)" i

type outcome = {
  o_label : string;
  o_delivered : bool;
  o_fates : Payment.hop_fate array;
  o_disputes : int;
  o_punishments : int;
  o_timeouts : int; (* channel sessions that exhausted their retries *)
  o_retransmits : int;
  o_faults_fired : int; (* link/party faults that actually triggered *)
  o_violations : string list; (* [] = all invariants held *)
  o_channels : Ch.channel array; (* path order, as the run left them *)
}

(* Small-parameter configuration: the soak cares about protocol-level
   interleavings, not cryptographic work factors. *)
let chaos_cfg =
  { Ch.default_config with
    Ch.vcof_reps = Some 2; ring_size = 3; n_escrowers = 3; escrow_threshold = 2 }

(* Shared end-of-run bookkeeping for [run] and [crash_run] (one copy,
   so the two soak paths can never drift): collect the settlements the
   payment recorded, give the (possibly restored) tower one last pass
   absorbing anything it catches, and check every invariant against
   the graph. *)
let finalize_checks (t : Graph.t) ~(edge_ids : int array)
    ~(channel_of : int -> Ch.channel) ~(tower : Watchtower.t)
    ~(fates : Payment.hop_fate array) ~(wealth_before : (int * int) list)
    ~(path : Router.hop list) ~(amount : int) ~(delivered : bool) :
    string list =
  let settled = ref [] in
  Array.iteri
    (fun i fate ->
      match fate with
      | Payment.Hop_disputed p | Payment.Hop_punished p ->
          settled := (edge_ids.(i), p) :: !settled
      | Payment.Hop_pending | Payment.Hop_unlocked | Payment.Hop_cancelled ->
          ())
    fates;
  let final = Watchtower.tick tower in
  List.iter
    (fun ((ch : Ch.channel), p) ->
      Array.iteri
        (fun i _ ->
          if (channel_of i).Ch.id = ch.Ch.id then
            settled := (edge_ids.(i), p) :: !settled)
        edge_ids)
    final.Watchtower.punished;
  let violations = ref (Invariant.check t ~settled:!settled) in
  let add v = violations := !violations @ [ v ] in
  (* When everything stayed off-chain, conservation must hold down to
     the fee level. A hop punished by the *final* tower pass above
     settled on-chain too, even though the fates array predates that
     pass — the per-run copies of this logic used to decide
     "off-chain" from the fates alone and would have demanded
     fee-level conservation after such a late punishment. *)
  let all_off_chain =
    final.Watchtower.punished = []
    && Array.for_all
         (function
           | Payment.Hop_pending | Payment.Hop_unlocked
           | Payment.Hop_cancelled ->
               true
           | Payment.Hop_disputed _ | Payment.Hop_punished _ -> false)
         fates
  in
  if all_off_chain then
    List.iter add
      (Invariant.check_payment_delta t ~wealth_before ~path ~amount ~delivered);
  (* Tower bookkeeping reconciles with the fates. *)
  let n_open = List.length (List.filter Graph.is_open (Graph.edge_list t)) in
  let n_punished =
    Array.fold_left
      (fun acc -> function Payment.Hop_punished _ -> acc + 1 | _ -> acc)
      0 fates
    + List.length final.Watchtower.punished
  in
  List.iter add
    (Monet_fault.Invariant.check_tower
       ~watched:(Watchtower.watched_count tower) ~open_channels:n_open
       ~counted:tower.Watchtower.punishments ~observed:n_punished);
  !violations

(** Run one seeded schedule. [Error] means the harness itself could not
    set the network up or the payment hit a non-timeout protocol error —
    both are harness bugs, not tolerated faults. *)
let run ?(cfg = chaos_cfg) ?(n_hops = 3) ?(amount = 25) ~(seed : int)
    (scenario : scenario) : (outcome, string) result =
  if n_hops < 1 then invalid_arg "Chaos.run: n_hops must be >= 1";
  (match scenario with
  | (Silent_hop i | Cheating_hop i) when i < 0 || i >= n_hops ->
      invalid_arg "Chaos.run: scenario hop out of range"
  | _ -> ());
  let g = Monet_hash.Drbg.of_int seed in
  let t = Graph.create ~cfg g in
  let nodes =
    Array.init (n_hops + 1) (fun i ->
        Graph.add_node t ~name:(Printf.sprintf "n%d" i))
  in
  Array.iter (fun id -> Graph.fund_node t id ~amount:2_000) nodes;
  (* Intermediaries charge a small forwarding fee, so every schedule
     also exercises fee-adjusted lock amounts and the fee-level
     conservation check below. *)
  for i = 1 to n_hops - 1 do
    Graph.set_fee t nodes.(i) ~fee:1
  done;
  (* Line topology. Two plain updates per channel give the punishment
     path genuinely old states (0 and 1) below the latest. *)
  let rec build i acc =
    if i >= n_hops then Ok (List.rev acc)
    else
      match
        Graph.open_channel t ~left:nodes.(i) ~right:(nodes.(i + 1))
          ~bal_left:500 ~bal_right:500
      with
      | Error e -> Error (Printf.sprintf "open hop %d: %s" i e)
      | Ok (eid, _) -> (
          let ch = Graph.channel_exn (Graph.edge t eid) in
          match (Ch.update ch ~amount_from_a:10, Ch.update ch ~amount_from_a:10) with
          | Error e, _ | _, Error e ->
              Error
                (Printf.sprintf "update hop %d: %s" i (Ch.error_to_string e))
          | Ok _, Ok _ -> build (i + 1) (eid :: acc))
  in
  match build 0 [] with
  | Error e -> Error e
  | Ok edge_ids -> (
      let edge_ids = Array.of_list edge_ids in
      let channel_of i = Graph.channel_exn (Graph.edge t edge_ids.(i)) in
      (* Scheduled transport on a shared clock + per-link fault plans;
         establishment and the warm-up updates above ran faultless. *)
      let clock = Monet_dsim.Clock.create () in
      let latency = Monet_dsim.Latency.Fixed 5.0 in
      let plans =
        Array.mapi
          (fun i eid ->
            let pg = Monet_hash.Drbg.split g (Printf.sprintf "plan/%d" eid) in
            let plan =
              match scenario with
              | Flaky severity ->
                  Plan.make ~profile:(Plan.flaky_profile ~severity pg) pg
              | Silent_hop j when i = j ->
                  let p = Plan.none () in
                  Plan.kill p;
                  p
              | Happy | Silent_hop _ | Silent_receiver | Cheating_hop _ ->
                  Plan.none ()
            in
            let ch = channel_of i in
            ch.Ch.transport <-
              Driver.Scheduled
                { clock; latency;
                  g = Monet_hash.Drbg.split g (Printf.sprintf "lat/%d" eid) };
            Ch.set_faults ch
              (Some
                 (Ch.make_faults ~deadline_ms:100.0 ~max_retries:3 ~backoff:2.0
                    plan));
            plan)
          edge_ids
      in
      (* Every payer outsources surveillance of its channel. On this
         line topology the payer of hop i is always party A. *)
      let tower = Watchtower.create () in
      Array.iteri
        (fun i _ -> Watchtower.watch tower (channel_of i) ~victim:Tp.Alice)
        edge_ids;
      let on_locked j =
        match scenario with
        | Silent_receiver when j = n_hops - 1 -> Plan.kill plans.(j)
        | Cheating_hop i when j = i -> (
            (* The hop's payee stops responding and broadcasts the
               stale state-1 commitment (with the victim's leaked old
               witness, as the threat model allows). *)
            Plan.kill plans.(i);
            let ch = channel_of i in
            let victim_old = Ch.my_witness_at ch.Ch.a ~state:1 in
            match
              Ch.submit_old_state ch ~cheater:Tp.Bob ~state:1
                ~victim_old_wit:victim_old
            with
            | Ok _ -> ()
            | Error e ->
                failwith ("chaos: cheat broadcast: " ^ Ch.error_to_string e))
        | Happy | Flaky _ | Silent_hop _ | Silent_receiver | Cheating_hop _ ->
            ()
      in
      let receiver_cooperates =
        match scenario with Silent_receiver -> false | _ -> true
      in
      match
        Router.find_path t ~src:nodes.(0) ~dst:nodes.(n_hops) ~amount
      with
      | Error e -> Error ("routing: " ^ e)
      | Ok path -> (
          let wealth_before =
            Array.to_list
              (Array.map (fun id -> (id, Invariant.wealth t id)) nodes)
          in
          match
            Payment.execute t ~path ~amount ~receiver_cooperates
              ~tower ~clock ~on_locked ~base_timer:2_000 ~timer_delta:500 ()
          with
          | Error e -> Error ("payment: " ^ Payment.error_to_string e)
          | Ok r ->
              let violations =
                ref
                  (finalize_checks t ~edge_ids ~channel_of ~tower
                     ~fates:r.Payment.fates ~wealth_before ~path ~amount
                     ~delivered:r.Payment.succeeded)
              in
              let retransmits = ref 0 in
              Array.iteri
                (fun i _ ->
                  match (channel_of i).Ch.faults with
                  | Some f -> retransmits := !retransmits + f.Ch.f_retransmits
                  | None -> ())
                edge_ids;
              Ok
                {
                  o_label = scenario_label scenario;
                  o_delivered = r.Payment.succeeded;
                  o_fates = r.Payment.fates;
                  o_disputes = r.Payment.disputes;
                  o_punishments = r.Payment.punishments;
                  o_timeouts = r.Payment.timeouts;
                  o_retransmits = !retransmits;
                  o_faults_fired =
                    Array.fold_left
                      (fun acc p -> acc + Plan.faults_fired p)
                      0 plans;
                  o_violations = !violations;
                  o_channels = Array.init n_hops channel_of;
                }))

(* --- crash–restart schedules ---------------------------------------
   The durability counterpart of the scenarios above: kill one party of
   one hop mid-payment — either after a scheduled number of deliveries
   ([Kill_plan], a kill -9 between protocol steps) or at an exact byte
   offset inside a journal append ([Kill_failpoint], a kill -9 *during*
   the write, leaving a torn record on disk) — restart it from its
   journal after some simulated downtime, and require every
   conservation invariant to hold regardless of where the knife
   landed. *)

module Backend = Monet_store.Backend
module Recovery = Monet_channel.Recovery

type crash_mode =
  | Kill_plan of {
      kp_hop : int;
      kp_party_a : bool;
      kp_after : int;  (** die after this many link deliveries *)
      kp_down_ms : float;
    }
  | Kill_failpoint of {
      kf_hop : int;
      kf_party_a : bool;
      kf_cut : int;  (** die after this many durably journaled bytes *)
      kf_down_ms : float;
    }

let crash_label = function
  | Kill_plan { kp_hop; kp_party_a; kp_after; kp_down_ms } ->
      Printf.sprintf "kill-plan(hop=%d,%s,after=%d,down=%.0fms)" kp_hop
        (if kp_party_a then "a" else "b")
        kp_after kp_down_ms
  | Kill_failpoint { kf_hop; kf_party_a; kf_cut; kf_down_ms } ->
      Printf.sprintf "kill-failpoint(hop=%d,%s,cut=%d,down=%.0fms)" kf_hop
        (if kf_party_a then "a" else "b")
        kf_cut kf_down_ms

type crash_outcome = {
  c_label : string;
  c_delivered : bool;
  c_recoveries : int;  (** successful journal recoveries this run *)
  c_resumed : int;  (** recoveries that resumed an in-flight update *)
  c_aborted : int;  (** recoveries that abandoned an in-flight update *)
  c_torn : int;  (** torn journal tails detected (and truncated) *)
  c_replayed : int;  (** journal records replayed across recoveries *)
  c_disputes : int;
  c_punishments : int;
  c_violations : string list;  (** [] = all invariants held *)
}

(** Run one seeded kill/restart schedule: line network, one multi-hop
    payment, one party of [crash_mode]'s hop journaled to (simulated)
    disk and killed per the mode, then recovered by the driver's
    restart hook. The tower's state is additionally round-tripped
    through {!Watchtower.save}/{!Watchtower.restore} before its final
    pass, so every schedule also proves punishment survives a tower
    restart. *)
let crash_run ?(cfg = chaos_cfg) ?(n_hops = 3) ?(amount = 25) ~(seed : int)
    (mode : crash_mode) : (crash_outcome, string) result =
  if n_hops < 1 then invalid_arg "Chaos.crash_run: n_hops must be >= 1";
  let hop, down_ms =
    match mode with
    | Kill_plan { kp_hop; kp_down_ms; _ } -> (kp_hop, kp_down_ms)
    | Kill_failpoint { kf_hop; kf_down_ms; _ } -> (kf_hop, kf_down_ms)
  in
  if hop < 0 || hop >= n_hops then
    invalid_arg "Chaos.crash_run: crash hop out of range";
  let g = Monet_hash.Drbg.of_int seed in
  let t = Graph.create ~cfg g in
  let nodes =
    Array.init (n_hops + 1) (fun i ->
        Graph.add_node t ~name:(Printf.sprintf "n%d" i))
  in
  Array.iter (fun id -> Graph.fund_node t id ~amount:2_000) nodes;
  for i = 1 to n_hops - 1 do
    Graph.set_fee t nodes.(i) ~fee:1
  done;
  let rec build i acc =
    if i >= n_hops then Ok (List.rev acc)
    else
      match
        Graph.open_channel t ~left:nodes.(i) ~right:(nodes.(i + 1))
          ~bal_left:500 ~bal_right:500
      with
      | Error e -> Error (Printf.sprintf "open hop %d: %s" i e)
      | Ok (eid, _) -> (
          let ch = Graph.channel_exn (Graph.edge t eid) in
          match (Ch.update ch ~amount_from_a:10, Ch.update ch ~amount_from_a:10) with
          | Error e, _ | _, Error e ->
              Error
                (Printf.sprintf "update hop %d: %s" i (Ch.error_to_string e))
          | Ok _, Ok _ -> build (i + 1) (eid :: acc))
  in
  match build 0 [] with
  | Error e -> Error e
  | Ok edge_ids -> (
      let edge_ids = Array.of_list edge_ids in
      let channel_of i = Graph.channel_exn (Graph.edge t edge_ids.(i)) in
      let clock = Monet_dsim.Clock.create () in
      let latency = Monet_dsim.Latency.Fixed 5.0 in
      let plans =
        Array.mapi
          (fun i eid ->
            let pg = Monet_hash.Drbg.split g (Printf.sprintf "plan/%d" eid) in
            let plan =
              match mode with
              | Kill_plan { kp_hop; kp_party_a; kp_after; kp_down_ms }
                when i = kp_hop ->
                  let m =
                    Plan.Restart { r_after = kp_after; r_down_ms = kp_down_ms }
                  in
                  if kp_party_a then Plan.make ~mode_a:m pg
                  else Plan.make ~mode_b:m pg
              | Kill_plan _ | Kill_failpoint _ -> Plan.make pg
            in
            let ch = channel_of i in
            ch.Ch.transport <-
              Driver.Scheduled
                { clock; latency;
                  g = Monet_hash.Drbg.split g (Printf.sprintf "lat/%d" eid) };
            Ch.set_faults ch
              (Some
                 (Ch.make_faults ~deadline_ms:100.0 ~max_retries:3 ~backoff:2.0
                    plan));
            plan)
          edge_ids
      in
      let tower = Watchtower.create () in
      Array.iteri
        (fun i _ -> Watchtower.watch tower (channel_of i) ~victim:Tp.Alice)
        edge_ids;
      (* Journal both parties of the crash hop to their own (simulated)
         disks — the warm-up above is pre-history; the journals open on
         a checkpoint of the current state. *)
      let ch = channel_of hop in
      let recoveries = ref 0 and resumed = ref 0 and aborted = ref 0 in
      let torn = ref 0 and replayed = ref 0 in
      let recover_errors = ref [] in
      let attach suffix party =
        let backend = Backend.mem () in
        Recovery.attach ~backend
          ~name:(Printf.sprintf "hop%d-%s" hop suffix)
          ~reseed:(Monet_hash.Drbg.split g (Printf.sprintf "reseed/%s" suffix))
          party
      in
      let host_a = attach "a" ch.Ch.a and host_b = attach "b" ch.Ch.b in
      let on_restart host () =
        match Recovery.recover host ~env:ch.Ch.env with
        | Ok r ->
            incr recoveries;
            if r.Recovery.r_resumed then incr resumed;
            if r.Recovery.r_aborted then incr aborted;
            if r.Recovery.r_torn then incr torn;
            replayed := !replayed + r.Recovery.r_replayed;
            (* Surveillance survives the restart; re-registration is
               idempotent (dedup on channel id). *)
            Watchtower.watch tower ch ~victim:Tp.Alice
        | Error e ->
            recover_errors :=
              ("recovery failed: " ^ Ch.error_to_string e) :: !recover_errors
      in
      ch.Ch.store_a <- Some (Recovery.restart_hooks host_a ~on_restart:(on_restart host_a));
      ch.Ch.store_b <- Some (Recovery.restart_hooks host_b ~on_restart:(on_restart host_b));
      (match mode with
      | Kill_failpoint { kf_cut; kf_party_a; _ } ->
          (* Arm the torn-write failpoint on the target party's disk:
             the [kf_cut]-th journaled byte from here on is the last
             one that survives, and the "process" dies at that exact
             instant (before any reply can leave the party). *)
          let host = if kf_party_a then host_a else host_b in
          let backend = Recovery.backend host in
          Backend.set_failpoint backend ~after:kf_cut;
          Recovery.set_on_crash host (fun () ->
              Plan.crash_now plans.(hop) ~a:kf_party_a ~down_ms)
      | Kill_plan _ -> ());
      match
        Router.find_path t ~src:nodes.(0) ~dst:nodes.(n_hops) ~amount
      with
      | Error e -> Error ("routing: " ^ e)
      | Ok path -> (
          let wealth_before =
            Array.to_list
              (Array.map (fun id -> (id, Invariant.wealth t id)) nodes)
          in
          match
            Payment.execute t ~path ~amount ~tower ~clock ~base_timer:2_000
              ~timer_delta:500 ()
          with
          | Error e -> Error ("payment: " ^ Payment.error_to_string e)
          | Ok r ->
              let violations = ref [] in
              let add v = violations := !violations @ [ v ] in
              (* Tower restart: its final pass runs on a tower rebuilt
                 from serialized state, so a stale close discovered
                 *after* the tower restart must still be punished. *)
              let tower =
                let resolve id =
                  let found = ref None in
                  Array.iteri
                    (fun i _ ->
                      let c = channel_of i in
                      if c.Ch.id = id then found := Some c)
                    edge_ids;
                  !found
                in
                match Watchtower.restore ~resolve (Watchtower.save tower) with
                | Error e ->
                    add ("tower restore: " ^ Ch.error_to_string e);
                    tower
                | Ok t2 ->
                    if
                      Watchtower.watched_count t2
                      <> Watchtower.watched_count tower
                    then
                      add
                        (Printf.sprintf
                           "tower restore changed watched count (%d -> %d)"
                           (Watchtower.watched_count tower)
                           (Watchtower.watched_count t2));
                    t2
              in
              List.iter add
                (finalize_checks t ~edge_ids ~channel_of ~tower
                   ~fates:r.Payment.fates ~wealth_before ~path ~amount
                   ~delivered:r.Payment.succeeded);
              List.iter add (List.rev !recover_errors);
              Ok
                {
                  c_label = crash_label mode;
                  c_delivered = r.Payment.succeeded;
                  c_recoveries = !recoveries;
                  c_resumed = !resumed;
                  c_aborted = !aborted;
                  c_torn = !torn;
                  c_replayed = !replayed;
                  c_disputes = r.Payment.disputes;
                  c_punishments = r.Payment.punishments;
                  c_violations = !violations;
                }))

(** The kill/restart schedule mix for a seed: mostly plan-scheduled
    kills sweeping the crash point across the payment's delivery
    sequence, with every third seed instead tearing a journal append at
    a seed-dependent byte offset. Downtime alternates between "short
    enough to resume within the retry budget" and "long enough that the
    session times out and escalates". *)
let crash_mode_for ~(seed : int) ~(n_hops : int) : crash_mode =
  let hop = seed / 2 mod n_hops in
  let party_a = seed mod 2 = 0 in
  let down_ms = 120.0 +. (60.0 *. float_of_int (seed mod 7)) in
  if seed mod 3 = 2 then
    Kill_failpoint
      { kf_hop = hop; kf_party_a = party_a;
        kf_cut = 60 + (seed * 37 mod 2_400); kf_down_ms = down_ms }
  else
    Kill_plan
      { kp_hop = hop; kp_party_a = party_a; kp_after = seed / 3 mod 13;
        kp_down_ms = down_ms }

type crash_soak_summary = {
  cs_runs : int;
  cs_delivered : int;
  cs_recoveries : int;
  cs_resumed : int;
  cs_aborted : int;
  cs_torn : int;
  cs_replayed : int;
  cs_disputes : int;
  cs_punishments : int;
  cs_failures : (int * string * string) list; (* seed, label, problem *)
}

(** Run [runs] seeded kill/restart schedules and aggregate. Any
    invariant violation or harness error lands in [cs_failures] with
    its seed for exact replay via {!crash_run}. *)
let crash_soak ?(cfg = chaos_cfg) ?(n_hops = 3) ?(base_seed = 0)
    ~(runs : int) () : crash_soak_summary =
  let sum =
    ref
      { cs_runs = 0; cs_delivered = 0; cs_recoveries = 0; cs_resumed = 0;
        cs_aborted = 0; cs_torn = 0; cs_replayed = 0; cs_disputes = 0;
        cs_punishments = 0; cs_failures = [] }
  in
  for i = 0 to runs - 1 do
    let seed = base_seed + i in
    let mode = crash_mode_for ~seed ~n_hops in
    let s = !sum in
    (match crash_run ~cfg ~n_hops ~seed mode with
    | Error e ->
        sum :=
          { s with
            cs_runs = s.cs_runs + 1;
            cs_failures = (seed, crash_label mode, e) :: s.cs_failures }
    | Ok o ->
        let failures =
          match o.c_violations with
          | [] -> s.cs_failures
          | vs -> (seed, o.c_label, String.concat "; " vs) :: s.cs_failures
        in
        sum :=
          {
            cs_runs = s.cs_runs + 1;
            cs_delivered = s.cs_delivered + (if o.c_delivered then 1 else 0);
            cs_recoveries = s.cs_recoveries + o.c_recoveries;
            cs_resumed = s.cs_resumed + o.c_resumed;
            cs_aborted = s.cs_aborted + o.c_aborted;
            cs_torn = s.cs_torn + o.c_torn;
            cs_replayed = s.cs_replayed + o.c_replayed;
            cs_disputes = s.cs_disputes + o.c_disputes;
            cs_punishments = s.cs_punishments + o.c_punishments;
            cs_failures = failures;
          })
  done;
  { !sum with cs_failures = List.rev !sum.cs_failures }

(* --- soak: many seeded schedules, aggregated --- *)

type soak_summary = {
  s_runs : int;
  s_delivered : int;
  s_disputes : int;
  s_punishments : int;
  s_timeouts : int;
  s_retransmits : int;
  s_faults_fired : int;
  s_failures : (int * string * string) list; (* seed, label, problem *)
}

(** The soak's schedule mix for a given seed: mostly flaky links of
    seed-dependent severity, with the scripted adversarial scenarios
    interleaved so every soak provably exercises the dispute and
    punishment paths. *)
let scenario_for ~(seed : int) ~(n_hops : int) : scenario =
  match seed mod 8 with
  | 0 -> Happy
  | 1 -> Silent_hop (seed / 8 mod n_hops)
  | 2 -> Silent_receiver
  | 3 -> Cheating_hop (seed / 8 mod n_hops)
  | k -> Flaky (0.2 +. (0.15 *. float_of_int (k - 4)))

(** Run [runs] seeded schedules ([base_seed], [base_seed+1], ...) over
    [n_hops]-hop payments and aggregate. Any invariant violation or
    harness error lands in [s_failures] with its seed, so it can be
    replayed with {!run} directly. *)
let soak ?(cfg = chaos_cfg) ?(n_hops = 3) ?(base_seed = 0) ~(runs : int) () :
    soak_summary =
  let sum =
    ref
      { s_runs = 0; s_delivered = 0; s_disputes = 0; s_punishments = 0;
        s_timeouts = 0; s_retransmits = 0; s_faults_fired = 0; s_failures = [] }
  in
  for i = 0 to runs - 1 do
    let seed = base_seed + i in
    let scenario = scenario_for ~seed ~n_hops in
    let s = !sum in
    (match run ~cfg ~n_hops ~seed scenario with
    | Error e ->
        sum :=
          { s with
            s_runs = s.s_runs + 1;
            s_failures = (seed, scenario_label scenario, e) :: s.s_failures }
    | Ok o ->
        let failures =
          match o.o_violations with
          | [] -> s.s_failures
          | vs ->
              (seed, o.o_label, String.concat "; " vs) :: s.s_failures
        in
        sum :=
          {
            s_runs = s.s_runs + 1;
            s_delivered = s.s_delivered + (if o.o_delivered then 1 else 0);
            s_disputes = s.s_disputes + o.o_disputes;
            s_punishments = s.s_punishments + o.o_punishments;
            s_timeouts = s.s_timeouts + o.o_timeouts;
            s_retransmits = s.s_retransmits + o.o_retransmits;
            s_faults_fired = s.s_faults_fired + o.o_faults_fired;
            s_failures = failures;
          })
  done;
  { !sum with s_failures = List.rev !sum.s_failures }
