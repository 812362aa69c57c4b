(** Multi-hop payments over MoNet (paper Fig. 5): one executor walks
    Setup → Lock → Unlock with AMHL suffix-sum locks, onion-delivered
    hop packets and cascade timers (τ decreasing toward the receiver),
    and escalates on failure — cooperative cancel, KES dispute, or
    watchtower punishment — so a faultless payment and a faulted one
    take the same code path.

    Each phase's computation is measured (CPU time) and its message
    legs counted, so the latency experiments can combine measured
    compute with modelled network latency exactly as the paper does. *)

module Ch = Monet_channel.Channel
open Monet_ec

(** Payment-layer failures, fully typed so fault-path tests can
    pattern-match on the *kind* of failure (and the hop it happened
    at) instead of string-comparing. Channel failures keep their typed
    cause with the hop context that produced them; strings appear only
    at the CLI/bench boundary via {!error_to_string}. *)
type error =
  | Channel of string * Ch.error (* context (e.g. "lock hop 2"), cause *)
  | No_route of string (* the router found no (disjoint) path *)
  | Onion of string (* onion wrap/peel failure *)
  | Packet_rejected of int (* hop (1-based) rejected its AMHL packet *)
  | Cancelled (* a multipath part was cancelled by the receiver *)

let error_to_string = function
  | Channel (ctx, e) -> Printf.sprintf "%s: %s" ctx (Ch.error_to_string e)
  | No_route s -> "no route: " ^ s
  | Onion s -> "onion: " ^ s
  | Packet_rejected hop -> Printf.sprintf "hop %d rejected its AMHL packet" hop
  | Cancelled -> "part cancelled"

type phase_stats = {
  mutable setup_ms : float;
  mutable lock_ms : float; (* total across hops *)
  mutable unlock_ms : float; (* total across hops *)
  mutable n_hops : int;
  mutable messages : int;
  mutable bytes : int;
  mutable onion_bytes : int;
}

let fresh_stats () =
  { setup_ms = 0.; lock_ms = 0.; unlock_ms = 0.; n_hops = 0; messages = 0; bytes = 0;
    onion_bytes = 0 }

let role_of_payer (hop : Router.hop) : Monet_sig.Two_party.role =
  if hop.Router.h_edge.Graph.e_left = hop.Router.h_payer then
    Monet_sig.Two_party.Alice
  else Monet_sig.Two_party.Bob

(* Network-wide fixed onion layer size: every relay sees the same
   number of bytes regardless of its position (path privacy). Sized
   for paths of up to ~12 hops. *)
let onion_layer_bytes = 4096

let hp_of_edge (e : Graph.edge) : Point.t =
  (Graph.channel_exn e).Ch.a.Ch.joint.Monet_sig.Two_party.hp

(** How each hop of a payment ended up. *)
type hop_fate =
  | Hop_pending  (** never locked (failure hit an earlier hop first) *)
  | Hop_unlocked  (** paid off-chain, channel stays open *)
  | Hop_cancelled  (** cancelled cooperatively, channel stays open *)
  | Hop_disputed of Ch.payout  (** force-closed through the KES *)
  | Hop_punished of Ch.payout
      (** the watchtower caught a stale broadcast and settled with
          priority *)

type outcome = {
  stats : phase_stats;
  path : Router.hop list;
  succeeded : bool; (* the receiver ended up paid (off- or on-chain) *)
  fates : hop_fate array;
  disputes : int;
  punishments : int;
  timeouts : int; (* channel sessions that hit their deadline *)
}

let ( let* ) r f = match r with Ok x -> f x | Error e -> Error (e : error)

let execute (t : Graph.t) ~(path : Router.hop list) ~(amount : int)
    ?(receiver_cooperates = true) ?tower ?clock ?on_locked
    ?(base_timer = 60_000) ?(timer_delta = 10_000) () : (outcome, error) result =
  Monet_obs.Trace.span "payment.execute"
    ~attrs:
      [ ("hops", string_of_int (List.length path));
        ("amount", string_of_int amount) ]
  @@ fun () ->
  let stats = fresh_stats () in
  let hops = Array.of_list path in
  let n = Array.length hops in
  if n = 0 then Error (No_route "empty path")
  else begin
    stats.n_hops <- n;
    let fates = Array.make n Hop_pending in
    let timeouts = ref 0 in
    let delivered = ref false in
    let amts = Array.of_list (Router.amounts t ~amount path) in
    let channel_of i = Graph.channel_exn hops.(i).Router.h_edge in
    let timer i = base_timer + ((n - i) * timer_delta) in
    let hop_attr i = [ ("hop", string_of_int (i + 1)) ] in
    let charge (rep : Ch.report) =
      stats.messages <- stats.messages + rep.Ch.messages;
      stats.bytes <- stats.bytes + rep.Ch.bytes
    in
    let wait ms =
      match clock with Some ck -> Monet_dsim.Clock.advance ck ms | None -> ()
    in
    (* A tower tick may punish any watched channel (not only the hop
       being resolved): fold every punishment into the fates. *)
    let absorb_tick (r : Monet_channel.Watchtower.tick_result) =
      List.iter
        (fun ((ch : Ch.channel), payout) ->
          Array.iteri
            (fun i (h : Router.hop) ->
              if (Graph.channel_exn h.Router.h_edge).Ch.id = ch.Ch.id then
                match fates.(i) with
                | Hop_pending | Hop_cancelled | Hop_unlocked ->
                    Monet_obs.Trace.event "payment.punish" ~attrs:(hop_attr i);
                    fates.(i) <- Hop_punished payout
                | Hop_disputed _ | Hop_punished _ -> ())
            hops)
        r.Monet_channel.Watchtower.punished
    in
    let tower_tick () =
      match tower with
      | Some tw -> absorb_tick (Monet_channel.Watchtower.tick tw)
      | None -> ()
    in
    (* A hop went dark past its deadline: wait out its cascade timer,
       let the watchtower race the mempool, then force the channel
       through the KES. *)
    let resolve_stuck i ~(proposer : Monet_sig.Two_party.role) ?lock_witness ()
        : (unit, error) result =
      wait (float_of_int (timer i));
      tower_tick ();
      match fates.(i) with
      | Hop_punished _ -> Ok ()
      | _ -> (
          Monet_obs.Trace.event "payment.dispute" ~attrs:(hop_attr i);
          match
            Ch.dispute_close ?lock_witness (channel_of i) ~proposer
              ~responsive:false
          with
          | Ok (payout, rep) ->
              charge rep;
              fates.(i) <- Hop_disputed payout;
              Ok ()
          | Error e ->
              Error (Channel (Printf.sprintf "dispute hop %d" (i + 1), e)))
    in
    let resolve_cancel i : (unit, error) result =
      if (channel_of i).Ch.a.Ch.closed then Ok () (* already settled on-chain *)
      else
        match
          Monet_obs.Trace.span "payment.cancel" ~attrs:(hop_attr i) (fun () ->
              Ch.cancel_lock (channel_of i))
        with
        | Ok rep ->
            charge rep;
            fates.(i) <- Hop_cancelled;
            Ok ()
        | Error e when Monet_channel.Errors.is_timeout e ->
            incr timeouts;
            resolve_stuck i ~proposer:(role_of_payer hops.(i)) ()
        | Error e -> Error (Channel (Printf.sprintf "cancel hop %d" (i + 1), e))
    in
    (* Cancel hops [i] down to 0, each after its timer expires. *)
    let rec cancel_down i : (unit, error) result =
      if i < 0 then Ok ()
      else begin
        wait (float_of_int (timer i));
        let* () = resolve_cancel i in
        cancel_down (i - 1)
      end
    in
    let finish () =
      let count f = Array.fold_left (fun acc x -> if f x then acc + 1 else acc) 0 fates in
      Ok
        {
          stats;
          path;
          succeeded = !delivered;
          fates;
          disputes = count (function Hop_disputed _ -> true | _ -> false);
          punishments = count (function Hop_punished _ -> true | _ -> false);
          timeouts = !timeouts;
        }
    in
    (* --- Setup (sender) --- *)
    let (amhl, onion), setup_ms =
      Monet_obs.Trace.span "payment.setup" @@ fun () ->
      Monet_obs.Trace.timed (fun () ->
          let hps = Array.map (fun h -> hp_of_edge h.Router.h_edge) hops in
          let amhl = Monet_amhl.Amhl.setup t.Graph.g ~hps in
          (* Onion route: the payee of each hop gets its packet. *)
          let route =
            Array.to_list
              (Array.mapi
                 (fun i (h : Router.hop) ->
                   let payee = Graph.peer_of h.Router.h_edge ~node_id:h.Router.h_payer in
                   let pk = (Graph.onion_of (Graph.node t payee)).Monet_sig.Sig_core.vk in
                   let w = Monet_util.Wire.create_writer () in
                   Monet_sig.Stmt.encode_proved w
                     amhl.Monet_amhl.Amhl.packets.(i).Monet_amhl.Amhl.hp_lock;
                   Monet_util.Wire.write_fixed w
                     (Sc.to_bytes_le amhl.Monet_amhl.Amhl.packets.(i).Monet_amhl.Amhl.hp_y);
                   (pk, Monet_util.Wire.contents w))
                 hops)
          in
          let onion = Monet_amhl.Onion.wrap ~pad_to:onion_layer_bytes t.Graph.g route in
          (amhl, onion))
    in
    stats.setup_ms <- setup_ms;
    stats.onion_bytes <- String.length onion;
    stats.messages <- stats.messages + n (* onion forwarded hop by hop *);
    stats.bytes <- stats.bytes + (n * String.length onion);
    (* Relays peel and verify their packets. *)
    let rec verify i onion =
      if i >= n then Ok ()
      else begin
        let h = hops.(i) in
        let payee = Graph.peer_of h.Router.h_edge ~node_id:h.Router.h_payer in
        let node = Graph.node t payee in
        let sk = (Graph.onion_of node).Monet_sig.Sig_core.sk in
        match
          Monet_amhl.Onion.peel
            ~repad:((Graph.wallet_of node).Monet_xmr.Wallet.g, onion_layer_bytes)
            ~sk onion
        with
        | Error e -> Error (Onion e)
        | Ok (_payload, next) ->
            if
              Monet_amhl.Amhl.verify_hop ~hp:(hp_of_edge h.Router.h_edge)
                amhl.Monet_amhl.Amhl.packets.(i)
            then verify (i + 1) next
            else Error (Packet_rejected (i + 1))
      end
    in
    let* () = verify 0 onion in
    (* --- Lock, sender → receiver --- *)
    let rec lock_all i : (bool, error) result =
      if i >= n then Ok true
      else begin
        let r, ms =
          Monet_obs.Trace.span "payment.lock" ~attrs:(hop_attr i) @@ fun () ->
          Monet_obs.Trace.timed (fun () ->
              Ch.lock (channel_of i) ~payer:(role_of_payer hops.(i))
                ~amount:amts.(i)
                ~lock_stmt:amhl.Monet_amhl.Amhl.locks.(i).Monet_sig.Stmt.stmt
                ~timer:(timer i))
        in
        stats.lock_ms <- stats.lock_ms +. ms;
        match r with
        | Ok rep ->
            charge rep;
            (match on_locked with Some f -> f i | None -> ());
            lock_all (i + 1)
        | Error e when Monet_channel.Errors.is_timeout e ->
            (* The stuck hop resolves first (its rolled-back channel is
               force-closed at the last complete state), then the
               already-locked upstream hops cancel, closest to the
               failure point first. *)
            incr timeouts;
            let* () = resolve_stuck i ~proposer:(role_of_payer hops.(i)) () in
            let* () = cancel_down (i - 1) in
            Ok false
        | Error e -> Error (Channel (Printf.sprintf "lock hop %d" (i + 1), e))
      end
    in
    let* complete = lock_all 0 in
    if not complete then finish ()
    else if not receiver_cooperates then begin
      (* The receiver holds a completed lock and never reveals: every
         hop waits out its timer and cancels (unlockability); silent
         counterparties turn the cancel into a KES dispute at the
         pre-lock state. *)
      let* () = cancel_down (n - 1) in
      finish ()
    end
    else begin
      (* --- Unlock, receiver → sender --- *)
      let rec unlock_all i (w : Sc.t) : (unit, error) result =
        if i < 0 then Ok ()
        else begin
          (* The payer of hop i cascades: w_{i-1} = y_{i-1} + w_i *)
          let continue_up w_i =
            if i = 0 then Ok ()
            else
              unlock_all (i - 1)
                (Monet_amhl.Amhl.cascade ~y:amhl.Monet_amhl.Amhl.wits.(i - 1)
                   ~w_next:w_i)
          in
          let r, ms =
            Monet_obs.Trace.span "payment.unlock" ~attrs:(hop_attr i) @@ fun () ->
            Monet_obs.Trace.timed (fun () -> Ch.unlock (channel_of i) ~y:w)
          in
          stats.unlock_ms <- stats.unlock_ms +. ms;
          match r with
          | Ok (rep, extracted) ->
              charge rep;
              fates.(i) <- Hop_unlocked;
              if i = n - 1 then delivered := true;
              continue_up extracted
          | Error e when Monet_channel.Errors.is_timeout e ->
              (* The payee holds the witness: settle the locked state
                 on-chain (dispute with [lock_witness]) unless the
                 tower already punished a stale broadcast. *)
              incr timeouts;
              let payee =
                if role_of_payer hops.(i) = Monet_sig.Two_party.Alice then
                  Monet_sig.Two_party.Bob
                else Monet_sig.Two_party.Alice
              in
              let* () = resolve_stuck i ~proposer:payee ~lock_witness:w () in
              (match fates.(i) with
              | Hop_disputed _ ->
                  (* The settled close reveals [w] on-chain: the payer
                     learns it there and the cascade continues
                     upstream. *)
                  if i = n - 1 then delivered := true;
                  continue_up w
              | _ ->
                  (* Punished at the pre-lock state: the witness was
                     never revealed, so upstream hops cancel. *)
                  cancel_down (i - 1))
          | Error e ->
              Error (Channel (Printf.sprintf "unlock hop %d" (i + 1), e))
        end
      in
      let* () = unlock_all (n - 1) amhl.Monet_amhl.Amhl.combined.(n - 1) in
      finish ()
    end
  end

(** Route and pay in one step. *)
let pay (t : Graph.t) ~(src : int) ~(dst : int) ~(amount : int)
    ?(receiver_cooperates = true) () : (outcome, error) result =
  match Router.find_path t ~src ~dst ~amount with
  | Error e -> Error (No_route e)
  | Ok path -> execute t ~path ~amount ~receiver_cooperates ()

(** End-to-end latency under the paper's accounting: per hop, one
    network latency plus the measured per-hop computation. *)
let latency_ms (o : outcome) ~(network_ms : float) : float =
  let n = float_of_int o.stats.n_hops in
  let compute = o.stats.setup_ms +. o.stats.lock_ms +. o.stats.unlock_ms in
  (n *. network_ms) +. compute

(** Pessimistic accounting: every sequential message leg pays
    latency. *)
let latency_full_rounds_ms (o : outcome) ~(network_ms : float) : float =
  let compute = o.stats.setup_ms +. o.stats.lock_ms +. o.stats.unlock_ms in
  (float_of_int o.stats.messages *. network_ms) +. compute

(* --- multi-path ------------------------------------------------------ *)

(** Multi-path payment: split [amount] greedily over capacity-disjoint
    routes (each part bounded by its bottleneck). Parts are individual
    AMHL payments; the split is all-or-nothing per part but not across
    parts (full AMP atomicity would share the receiver's witness
    across parts — noted as future work). Returns the per-part
    (path, amount) breakdown. *)
let pay_multipath (t : Graph.t) ~(src : int) ~(dst : int) ~(amount : int)
    ?(max_parts = 4) () : ((Router.hop list * int) list, error) result =
  let rec plan remaining used_edges parts_left acc =
    if remaining = 0 then Ok (List.rev acc)
    else if parts_left = 0 then Error (No_route "amount does not fit in max_parts routes")
    else begin
      (* Find a path avoiding edges already used by earlier parts. *)
      match Router.find_path_avoiding t ~src ~dst ~amount:1 ~avoid:used_edges with
      | Error _ -> Error (No_route "insufficient disjoint capacity")
      | Ok path ->
          let bottleneck =
            List.fold_left
              (fun acc (h : Router.hop) ->
                min acc (Graph.balance_of h.Router.h_edge ~node_id:h.Router.h_payer))
              max_int path
          in
          (* Fee headroom: the first hop carries part + fees, so shrink
             the part until amount-plus-fees fits the bottleneck
             (fees are monotone in the amount, so this converges). *)
          let rec fit p =
            if p <= 0 then 0
            else if p + Router.fees t ~amount:p path <= bottleneck then p
            else fit (bottleneck - Router.fees t ~amount:p path)
          in
          let part = fit (min remaining bottleneck) in
          if part <= 0 then Error (No_route "no capacity")
          else begin
            let used' =
              List.fold_left (fun acc (h : Router.hop) -> h.Router.h_edge.Graph.e_id :: acc)
                used_edges path
            in
            plan (remaining - part) used' (parts_left - 1) ((path, part) :: acc)
          end
    end
  in
  match plan amount [] max_parts [] with
  | Error e -> Error e
  | Ok parts ->
      let rec run = function
        | [] -> Ok parts
        | (path, part) :: rest -> (
            match execute t ~path ~amount:part () with
            | Ok o when o.succeeded -> run rest
            | Ok _ -> Error Cancelled
            | Error e -> Error e)
      in
      run parts
