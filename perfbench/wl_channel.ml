(* [channel]: one MoChannel whose parties both journal to an in-memory
   store. Each round refills [states] precomputed states, spends
   [states - 1] of them on updates in alternating directions, then
   restarts both parties from their journals. Closed loop, one client.
   The refills are part of the timed phase, so the throughput is the
   amortized update rate. *)

open Common
module Recovery = Monet_channel.Recovery
module Backend = Monet_store.Backend
module Drbg = Monet_hash.Drbg

let states = 8
let rounds = 2

(* Durable bytes across every blob of the store. *)
let durable_bytes backend =
  List.fold_left
    (fun acc name -> acc + String.length (Option.value ~default:"" (Backend.read backend name)))
    0 (Backend.list backend)

type view = { st : int; mine : int; theirs : int }

let view (p : Ch.party) = { st = p.Ch.state; mine = p.Ch.my_balance; theirs = p.Ch.their_balance }

let episode (m : Meter.t) (g : Drbg.t) =
  let t, c, ha, hb, backend =
    Meter.measure m "setup" (fun () ->
        let t, _ = line m (Drbg.split g "net") ~n:2 ~states:0 in
        let c = Graph.channel_exn (List.hd (Graph.edge_list t)) in
        let backend = Backend.mem () in
        let attach name p =
          Recovery.attach ~backend ~name ~reseed:(Drbg.split g ("reseed/" ^ name)) p
        in
        (t, c, attach "alice" c.Ch.a, attach "bob" c.Ch.b, backend))
  in
  let env = t.Graph.env in
  let amounts = Drbg.split g "amounts" in
  Meter.phase m (fun () ->
      for _ = 1 to rounds do
        refill m c ~n:states;
        for i = 1 to states - 1 do
          let amt = 1 + Drbg.int amounts 50 in
          let amount_from_a = if i land 1 = 1 then amt else -amt in
          let r = Meter.measure m "update" (fun () -> Ch.update c ~amount_from_a) in
          Meter.attempt m (Result.is_ok r);
          m.Meter.ops <- m.Meter.ops + 1;
          Meter.check m (balanced c) "channel: balances after update";
          Meter.check m (within_batch c) "channel: update fell back to original mode"
        done;
        let before = (view c.Ch.a, view c.Ch.b) in
        let r =
          Meter.measure m "recover" (fun () ->
              (Recovery.recover ha ~env, Recovery.recover hb ~env))
        in
        let clean = function
          | Ok rp -> not (rp.Recovery.r_aborted || rp.Recovery.r_torn)
          | Error _ -> false
        in
        Meter.attempt m (clean (fst r) && clean (snd r));
        Meter.check m (before = (view c.Ch.a, view c.Ch.b))
          "channel: recovered state differs from the state before restart";
        Meter.check m (balanced c) "channel: balances after recover"
      done);
  Meter.bump_count m ("episode", "store.durable_bytes") (durable_bytes backend)
