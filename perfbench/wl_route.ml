(* [route]: one [Workload.run] over [payments] payments on a fresh
   1,024-node Barabási–Albert graph (m = 2) of simulated channels.
   A batch job: no crypto, only routing, settlement and the event
   clock. Amounts are small enough that no payment lacks a route. *)

module Drbg = Monet_hash.Drbg
module Topo = Monet_net.Topo
module Workload = Monet_net.Workload

let payments = 5_000

let config =
  { Workload.default_config with Workload.n_payments = payments; amount_min = 1;
    amount_max = 100 }

let episode (m : Meter.t) (g : Drbg.t) =
  let t =
    Meter.measure m "setup" (fun () ->
        match
          Topo.build ~balance:10_000 ~fee_base:1 ~fee_ppm:100 (Drbg.split g "topo")
            (Topo.Scale_free { nodes = 1024; m = 2 })
        with
        | Ok t -> t
        | Error e -> Common.fail "Topo.build" e)
  in
  let rng = Drbg.split g "workload" in
  let r = Meter.phase m (fun () -> Meter.measure m "route" (fun () -> Workload.run rng t config)) in
  match r with
  | Error e -> Meter.check m false ("route: " ^ e)
  | Ok rep ->
      m.Meter.ops <- m.Meter.ops + rep.Workload.offered;
      m.Meter.attempted <- m.Meter.attempted + rep.Workload.offered;
      m.Meter.failed <- m.Meter.failed + rep.Workload.offered - rep.Workload.completed;
      Meter.check m rep.Workload.conserved "route: balance not conserved";
      Meter.check m (rep.Workload.completed + rep.Workload.no_route = rep.Workload.offered)
        "route: payments unaccounted for"
