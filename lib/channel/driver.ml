(** The transport between the two party state machines.

    Messages always travel as serialized {!Msg} values; every delivery
    is charged to the report ({!Report.deliver}), so the experiment
    byte/message counts are properties of the actual wire traffic.

    Two modes:
    - [Sync]: messages are delivered immediately, in FIFO order —
      this is the in-process configuration the experiment tables use;
    - [Scheduled]: deliveries go through the {!Monet_dsim.Clock} with
      sampled per-message link latency. Each direction of the link is
      FIFO (a message never overtakes an earlier one the same way),
      which the linear per-phase state machines rely on.

    Rounds are the maximum causal depth over all deliveries (a reply
    is one deeper than the message it answers), which is identical in
    both modes.

    A channel may additionally carry a {!faults} record: a seeded
    {!Monet_fault.Plan} the scheduled transport consults on every
    send, plus recovery parameters. The fault path adds what the plain
    transports never needed: receiver-side duplicate suppression
    (keyed on the serialized message — within a session each direction
    never repeats a payload), and a deadline/retransmit loop. When the
    clock drains without the session reaching its completion predicate,
    the driver waits out the deadline (advancing simulated time,
    backoff-scaled per attempt) and retransmits the last message in
    each direction; after [f_max_retries] fruitless attempts it gives
    up with {!Errors.Timeout}, and {!with_rollback} undoes the
    half-run session on both parties. *)

type mode =
  | Sync
  | Scheduled of {
      clock : Monet_dsim.Clock.t;
      latency : Monet_dsim.Latency.t;
      g : Monet_hash.Drbg.t; (* latency sampling randomness *)
    }

(** Fault injection + recovery parameters for one channel. *)
type faults = {
  f_plan : Monet_fault.Plan.t;
  f_deadline_ms : float; (* per-phase deadline before a retransmission *)
  f_max_retries : int;
  f_backoff : float; (* deadline multiplier per successive attempt *)
  mutable f_retransmits : int;
  mutable f_timeouts : int; (* sessions abandoned after all retries *)
}

let make_faults ?(deadline_ms = 500.0) ?(max_retries = 3) ?(backoff = 2.0)
    (plan : Monet_fault.Plan.t) : faults =
  { f_plan = plan; f_deadline_ms = deadline_ms; f_max_retries = max_retries;
    f_backoff = backoff; f_retransmits = 0; f_timeouts = 0 }

(** Durable-endpoint hooks for one party, installed by the recovery
    layer (the driver stays ignorant of [Recovery]/[lib/store]). When
    present, the fault path keys receiver-side dedup on [rh_seen] — a
    table whose contents survive restarts via the journal — instead of
    a session-local table, reports every processed message through
    [rh_note_seen], and calls [rh_restart] when a [Plan.Restart]
    downtime elapses so the endpoint can be rebuilt from disk. *)
type restart_hooks = {
  rh_seen : (string, unit) Hashtbl.t;
  rh_note_seen : string -> unit;
  rh_restart : unit -> unit;
}

type channel = {
  a : Party.party;
  b : Party.party;
  env : Party.env;
  id : int;
  mutable transport : mode;
  mutable faults : faults option;
  mutable trace : Msg.t list; (* deliveries of the last session, in order *)
  mutable store_a : restart_hooks option; (* durable-endpoint hooks, if journaled *)
  mutable store_b : restart_hooks option;
}

type dest = To_a | To_b

let dest_label = function To_a -> "a" | To_b -> "b"

(* Per-phase tracing: every delivery handled by a party runs inside a
   "driver.<message-label>" span, so a channel-update trace decomposes
   into its wire phases (key-share, commit-nonce, z-share, …) with
   per-phase EC-op counts (DESIGN.md §3.8). *)
let handle_traced handle dest (m : Msg.t) =
  Monet_obs.Trace.span
    ("driver." ^ Msg.label m)
    ~attrs:[ ("to", dest_label dest) ]
    (fun () -> handle dest m)

(* Run a message exchange to quiescence. [handle] is the endpoint pair;
   [init_a]/[init_b] are the messages A resp. B send first. *)
let run_generic ~(mode : mode) ~(rep : Report.t)
    ~(handle : dest -> Msg.t -> (Msg.t list, Errors.t) result)
    ~(record : Msg.t -> unit) ~(init_a : Msg.t list) ~(init_b : Msg.t list) :
    (unit, Errors.t) result =
  let err = ref None in
  let max_depth = ref 0 in
  let fail e = if !err = None then err := Some e in
  let flip = function To_a -> To_b | To_b -> To_a in
  let deliver ~send dest depth m =
    if !err = None then begin
      let d = depth + 1 in
      if d > !max_depth then max_depth := d;
      Report.deliver rep ~bytes:(Msg.size m) m;
      record m;
      match handle_traced handle dest m with
      | Error e -> fail e
      | Ok replies -> List.iter (send (flip dest) d) replies
    end
  in
  (match mode with
  | Sync ->
      let q = Queue.create () in
      let send dest depth m = Queue.add (dest, depth, m) q in
      List.iter (send To_b 0) init_a;
      List.iter (send To_a 0) init_b;
      while !err = None && not (Queue.is_empty q) do
        let dest, depth, m = Queue.pop q in
        deliver ~send dest depth m
      done
  | Scheduled { clock; latency; g } ->
      (* Per-direction FIFO links: a message is delivered no earlier
         than the previous one sent the same way (the clock's FIFO
         tie-break keeps send order at equal times). *)
      let last_to_a = ref (Monet_dsim.Clock.now clock)
      and last_to_b = ref (Monet_dsim.Clock.now clock) in
      let rec send dest depth m =
        if !err = None then begin
          let now = Monet_dsim.Clock.now clock in
          let link = match dest with To_a -> last_to_a | To_b -> last_to_b in
          let at =
            Float.max (now +. Monet_dsim.Latency.sample g latency) !link
          in
          link := at;
          Monet_dsim.Clock.schedule clock ~delay:(at -. now) (fun () ->
              deliver ~send dest depth m)
        end
      in
      List.iter (send To_b 0) init_a;
      List.iter (send To_a 0) init_b;
      Monet_dsim.Clock.run clock ());
  rep.Report.rounds <- rep.Report.rounds + !max_depth;
  match !err with None -> Ok () | Some e -> Error e

(* The fault-injecting scheduled transport. Structure mirrors the
   Scheduled arm of [run_generic], with the plan consulted per send,
   per-direction dedup, and the deadline/retransmit loop around the
   clock drain. *)
let run_faulty ?(store_a : restart_hooks option) ?(store_b : restart_hooks option)
    ~clock ~latency ~g (f : faults) ~(rep : Report.t)
    ~(handle : dest -> Msg.t -> (Msg.t list, Errors.t) result)
    ~(record : Msg.t -> unit) ~(finished : unit -> bool) ~(init_a : Msg.t list)
    ~(init_b : Msg.t list) : (unit, Errors.t) result =
  let module Plan = Monet_fault.Plan in
  let plan = f.f_plan in
  let err = ref None in
  let max_depth = ref 0 in
  let fail e = if !err = None then err := Some e in
  let flip = function To_a -> To_b | To_b -> To_a in
  (* Durable endpoints dedup against their journal-backed seen-set (it
     survives kill/restart); plain endpoints use a session-local table. *)
  let seen_a = match store_a with Some h -> h.rh_seen | None -> Hashtbl.create 16
  and seen_b = match store_b with Some h -> h.rh_seen | None -> Hashtbl.create 16 in
  let store_of = function To_a -> store_a | To_b -> store_b in
  (* Crash–restart runtime: when a party is down in [Plan.Restart]
     mode, remember when its downtime ends; once simulated time passes
     that moment (observed at the next delivery attempt or deadline
     round — never by moving the clock backwards) revive it and let its
     recovery hook rebuild the endpoint from storage. *)
  let revive_at_a = ref None and revive_at_b = ref None in
  let down dest =
    let a = dest = To_a in
    let r = match dest with To_a -> revive_at_a | To_b -> revive_at_b in
    (match !r with
    | Some t when Monet_dsim.Clock.now clock >= t ->
        r := None;
        Plan.revive plan ~a;
        Monet_obs.Trace.event "driver.restart"
          ~attrs:[ ("party", dest_label dest) ];
        (match store_of dest with Some h -> h.rh_restart () | None -> ())
    | Some _ | None -> ());
    Plan.crashed plan ~a
    && begin
         (match (!r, Plan.restart_down_ms plan ~a) with
         | None, Some d -> r := Some (Monet_dsim.Clock.now clock +. d)
         | _ -> ());
         true
       end
  in
  (* Everything sent in each direction, in order — the retransmission
     unit (go-back-N). Sessions start symmetrically (both parties
     announce at once), so a drop can lose a message that is *not*
     the last one in flight; retransmitting the whole log is
     idempotent thanks to the receiver-side dedup. *)
  let log_to_a : (int * Msg.t) list ref = ref []
  and log_to_b : (int * Msg.t) list ref = ref [] in
  (* Hold-back stash: a message that does not fit the receiver's
     current phase may simply be early (its predecessor was dropped
     or delayed); it is retried after the next successful delivery
     and only a session timeout makes the loss permanent. *)
  let pending : (dest * int * Msg.t) Queue.t = Queue.create () in
  let link_to_a = ref (Monet_dsim.Clock.now clock)
  and link_to_b = ref (Monet_dsim.Clock.now clock) in
  let rec schedule dest depth m ~extra =
    let now = Monet_dsim.Clock.now clock in
    let link = match dest with To_a -> link_to_a | To_b -> link_to_b in
    let at =
      Float.max (now +. Monet_dsim.Latency.sample g latency +. extra) !link
    in
    link := at;
    Monet_dsim.Clock.schedule clock ~delay:(at -. now) (fun () ->
        deliver dest depth m)
  and transmit ~fresh dest depth m =
    if !err = None then begin
      if fresh then begin
        let log = match dest with To_a -> log_to_a | To_b -> log_to_b in
        log := (depth, m) :: !log
      end;
      match Plan.decide plan ~to_a:(dest = To_a) with
      | Plan.Drop | Plan.Withhold -> ()
      | Plan.Deliver -> schedule dest depth m ~extra:0.0
      | Plan.Delay extra -> schedule dest depth m ~extra
      | Plan.Duplicate ->
          schedule dest depth m ~extra:0.0;
          schedule dest depth m ~extra:0.0
    end
  and process dest depth m =
    (* Post-dedup handling. [Bad_state] here means the message does
       not fit the receiver's phase — under faults that is reordering,
       not a protocol violation, so hold it back and retry later. *)
    match handle_traced handle dest m with
    | Error (Errors.Bad_state _) when Queue.length pending < 64 ->
        Queue.add (dest, depth, m) pending
    | Error e -> fail e
    | Ok replies ->
        (if Plan.mute plan ~a:(dest = To_a) then ()
         else List.iter (transmit ~fresh:true (flip dest) depth) replies);
        retry_pending ()
  and retry_pending () =
    (* One pass over the stash; recurse only while a pass makes
       progress, so termination is bounded by the stash size. *)
    let n = Queue.length pending in
    let progressed = ref false in
    for _ = 1 to n do
      if !err = None && not (Queue.is_empty pending) then begin
        let dest, depth, m = Queue.pop pending in
        if down dest then Plan.note_withheld plan
        else
          match handle_traced handle dest m with
          | Error (Errors.Bad_state _) -> Queue.add (dest, depth, m) pending
          | Error e -> fail e
          | Ok replies ->
              progressed := true;
              if Plan.mute plan ~a:(dest = To_a) then ()
              else List.iter (transmit ~fresh:true (flip dest) depth) replies
      end
    done;
    if !progressed && !err = None then retry_pending ()
  and deliver dest depth m =
    if !err = None then begin
      if down dest then Plan.note_withheld plan
      else begin
        let seen = match dest with To_a -> seen_a | To_b -> seen_b in
        let key = Msg.to_bytes m in
        if Hashtbl.mem seen key then () (* duplicate: already processed *)
        else begin
          Hashtbl.replace seen key ();
          (match store_of dest with
          | Some h -> h.rh_note_seen key
          | None -> ());
          Plan.note_delivery plan;
          let d = depth + 1 in
          if d > !max_depth then max_depth := d;
          (* the dedup key is the serialization: charge its length *)
          Report.deliver rep ~bytes:(String.length key) m;
          record m;
          process dest d m
        end
      end
    end
  in
  List.iter (transmit ~fresh:true To_b 0) init_a;
  List.iter (transmit ~fresh:true To_a 0) init_b;
  Monet_dsim.Clock.run clock ();
  (* Deadline / retransmit loop: the clock drained but the session is
     not done — some message was lost. Wait out the (backoff-scaled)
     deadline and replay each direction's send log in order
     (go-back-N; already-processed messages dedup away at the
     receiver), provided the sender can still speak. *)
  let attempt = ref 0 in
  while !err = None && (not (finished ())) && !attempt < f.f_max_retries do
    incr attempt;
    Monet_dsim.Clock.advance clock
      (f.f_deadline_ms *. (f.f_backoff ** float_of_int (!attempt - 1)));
    (* A party whose downtime elapsed during the wait revives before
       the retransmissions below, so they reach it. *)
    ignore (down To_a);
    ignore (down To_b);
    let retransmit dest log =
      (* messages to A originate at B and vice versa *)
      let sender_is_a = dest = To_b in
      if Plan.can_send plan ~a:sender_is_a && !log <> [] then begin
        f.f_retransmits <- f.f_retransmits + 1;
        Monet_obs.Trace.event "driver.retransmit"
          ~attrs:
            [ ("attempt", string_of_int !attempt);
              ("dir", "to-" ^ dest_label dest);
              ("messages", string_of_int (List.length !log)) ];
        List.iter
          (fun (depth, m) -> transmit ~fresh:false dest depth m)
          (List.rev !log)
      end
    in
    retransmit To_a log_to_a;
    retransmit To_b log_to_b;
    Monet_dsim.Clock.run clock ()
  done;
  rep.Report.rounds <- rep.Report.rounds + !max_depth;
  match !err with
  | Some e -> Error e
  | None ->
      if finished () then Ok ()
      else begin
        f.f_timeouts <- f.f_timeouts + 1;
        Monet_obs.Trace.event "driver.timeout"
          ~attrs:[ ("retries", string_of_int f.f_max_retries) ];
        Error
          (Errors.Timeout
             (Printf.sprintf "session stalled after %d retransmission round(s)"
                f.f_max_retries))
      end

(** Run a protocol session between the channel's two parties. The
    delivered messages replace [c.trace]. [finished] is the session's
    completion predicate, used by the fault path to distinguish a
    quiesced session from a stalled one (default: both parties idle). *)
let run ?finished (c : channel) (rep : Report.t) ~(init_a : Msg.t list)
    ~(init_b : Msg.t list) : (unit, Errors.t) result =
  let buf = ref [] in
  let handle dest m =
    let p = match dest with To_a -> c.a | To_b -> c.b in
    Party.handle p ~env:c.env ~rep m
  in
  let record m = buf := m :: !buf in
  let r =
    match (c.faults, c.transport) with
    | Some f, Scheduled { clock; latency; g } ->
        let finished =
          match finished with
          | Some pred -> pred
          | None -> fun () -> Party.is_idle c.a && Party.is_idle c.b
        in
        run_faulty ?store_a:c.store_a ?store_b:c.store_b ~clock ~latency ~g f
          ~rep ~handle ~record ~finished ~init_a ~init_b
    | Some _, Sync ->
        Error (Errors.Bad_state "fault injection requires the scheduled transport")
    | None, _ -> run_generic ~mode:c.transport ~rep ~handle ~record ~init_a ~init_b
  in
  c.trace <- List.rev !buf;
  r

(** Run [f], and when it fails with {!Errors.Timeout} under fault
    injection, restore both parties to their pre-session state — a
    timed-out session must look as if it never started, or the next
    session (and witness derivation) would desync. *)
let with_rollback (c : channel) (f : unit -> ('a, Errors.t) result) :
    ('a, Errors.t) result =
  match c.faults with
  | None -> f ()
  | Some _ -> (
      let cka = Party.checkpoint c.a and ckb = Party.checkpoint c.b in
      match f () with
      | Error e when Errors.is_timeout e ->
          Party.rollback c.a cka;
          Party.rollback c.b ckb;
          (* Journaled endpoints re-capture their state: the rolled-back
             heap is now authoritative, and a later crash must not
             resurrect the abandoned session from the journal tail. *)
          Party.journal_event c.a (fun h -> h.Party.jh_state ());
          Party.journal_event c.b (fun h -> h.Party.jh_state ());
          Error e
      | r -> r)

(** Run the establishment machines to quiescence. Establishment is
    never fault-injected: chaos schedules install their plans on
    already-open channels. *)
let run_est ~(mode : mode) (env : Party.env) (rep : Report.t) (ea : Party.est)
    (eb : Party.est) : (unit, Errors.t) result =
  let handle dest m =
    let e = match dest with To_a -> ea | To_b -> eb in
    Party.est_handle e ~env ~rep m
  in
  run_generic ~mode ~rep ~handle ~record:ignore
    ~init_a:(Party.est_begin ea) ~init_b:(Party.est_begin eb)

(** One complete state refresh (both parties enter the session via
    [starter], then messages flow to quiescence). Charges the
    assembled adaptor pre-signature.

    Quiescence (both parties idle) is not the same as success: when
    both endpoints crash-restart before the precommit, both journals
    abort the session and both parties wake up idle at the {e old}
    state — the exhaustive model checker (lib/mc) found this path
    being reported as a successful refresh. A session that quiesced
    without advancing the committed state is therefore classified as
    timed out, so callers never see [Ok] for an update that was never
    applied. *)
let refresh (c : channel) (rep : Report.t)
    ~(starter : Party.party -> (Msg.t list, Errors.t) result) :
    (unit, Errors.t) result =
  let st0 = c.a.Party.state in
  with_rollback c (fun () ->
      match starter c.a with
      | Error e -> Error e
      | Ok init_a -> (
          match starter c.b with
          | Error e -> Error e
          | Ok init_b -> (
              match run c rep ~init_a ~init_b with
              | Error e -> Error e
              | Ok () when c.faults <> None && c.a.Party.state = st0 ->
                  Error
                    (Errors.Timeout
                       "session aborted on both endpoints without committing")
              | Ok () ->
                  rep.Report.signatures <-
                    rep.Report.signatures + 1 (* the adaptor signature itself *);
                  Ok ())))
