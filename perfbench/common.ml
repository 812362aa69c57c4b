(* Shared set-up for the crypto workloads: production channel
   parameters and the checks every channel operation must pass. *)

module Ch = Monet_channel.Channel
module Graph = Monet_net.Graph

(* The paper's production parameters: 80 VCOF repetitions, ring size
   11, a 5-escrower KES with threshold 3. Transport is [Driver.Sync]
   (the façade's default): in-process, zero injected delay. *)
let production = { Ch.default_config with Ch.vcof_reps = None; ring_size = 11;
                   n_escrowers = 5; escrow_threshold = 3 }

let fail what e = failwith (Printf.sprintf "%s: %s" what e)

(* Both parties agree on the balances, and they sum to capacity. *)
let balanced (c : Ch.channel) =
  let a = c.Ch.a and b = c.Ch.b in
  a.Ch.my_balance + b.Ch.my_balance = a.Ch.capacity
  && a.Ch.my_balance = b.Ch.their_balance
  && b.Ch.my_balance = a.Ch.their_balance

(* Precompute and exchange [n] states on [c], measured as ["refill"]. *)
let refill (m : Meter.t) (c : Ch.channel) ~n =
  let r = Meter.measure m "refill" (fun () -> Ch.exchange_batches c ~n) in
  Meter.bump_count m ("refill", "states") n;
  Meter.attempt m (Result.is_ok r);
  Meter.check m (balanced c) "balances after refill"

(* A line of [n] funded nodes with a full MoChannel (5000 a side)
   between neighbours, each given [states] precomputed states. *)
let line (m : Meter.t) (g : Monet_hash.Drbg.t) ~n ~states : Graph.t * int array =
  let t = Graph.create ~cfg:production g in
  let ids = Array.init n (fun i -> Graph.add_node t ~name:(Printf.sprintf "n%d" i)) in
  Array.iter (fun id -> Graph.fund_node t id ~amount:20_000) ids;
  for i = 0 to n - 2 do
    match Graph.open_channel t ~left:ids.(i) ~right:ids.(i + 1) ~bal_left:5000 ~bal_right:5000 with
    | Error e -> fail "open_channel" e
    | Ok (eid, _) ->
        if states > 0 then refill m (Graph.channel_exn (Graph.edge t eid)) ~n:states
  done;
  (t, ids)

(* The channel's current state still comes from a precomputed batch:
   no update has fallen back to original (per-update NewSW) mode. *)
let within_batch (c : Ch.channel) =
  List.for_all
    (fun (p : Ch.party) ->
      match p.Ch.batch with
      | None -> false
      | Some b ->
          let off = p.Ch.state - b.Ch.base_state in
          off >= 0 && off < Array.length b.Ch.my_pairs)
    [ c.Ch.a; c.Ch.b ]
