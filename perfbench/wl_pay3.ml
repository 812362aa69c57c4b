(* [pay3]: a 4-node line of three MoChannels, no journaling. Set-up
   precomputes enough states that every payment of the episode runs
   the optimized path; each payment is [Router.find_path] plus
   [Payment.execute], alternating direction. Closed loop, one client. *)

open Common
module Drbg = Monet_hash.Drbg
module Router = Monet_net.Router
module Payment = Monet_net.Payment

let payments = 4

let episode (m : Meter.t) (g : Drbg.t) =
  (* Each payment locks one new state on every hop. *)
  let t, ids =
    Meter.measure m "setup" (fun () -> line m (Drbg.split g "net") ~n:4 ~states:payments)
  in
  let channels = List.map Graph.channel_exn (Graph.edge_list t) in
  let wealth = Graph.total_balance t in
  let amounts = Drbg.split g "amounts" in
  Meter.phase m (fun () ->
      for k = 0 to payments - 1 do
        let src, dst = if k land 1 = 0 then (ids.(0), ids.(3)) else (ids.(3), ids.(0)) in
        let amount = 1 + Drbg.int amounts 50 in
        let r =
          Meter.measure m "pay" (fun () ->
              let route () = Router.find_path t ~src ~dst ~amount in
              match Meter.measure m "find_path" route with
              | Error e -> Error e
              | Ok path ->
                  Result.map_error Payment.error_to_string (Payment.execute t ~path ~amount ()))
        in
        let ok = match r with Ok o -> o.Payment.succeeded | Error _ -> false in
        Meter.attempt m ok;
        m.Meter.ops <- m.Meter.ops + 1;
        Meter.check m (List.for_all balanced channels) "pay3: channel balances after payment";
        Meter.check m (Graph.total_balance t = wealth) "pay3: total balance changed"
      done);
  Meter.check m (List.for_all within_batch channels) "pay3: a payment fell back to original mode"
