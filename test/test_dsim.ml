(* Discrete-event simulator: clock ordering, latency models. *)
open Monet_dsim

let test_event_ordering () =
  let c = Clock.create () in
  let log = ref [] in
  Clock.schedule c ~delay:30.0 (fun () -> log := "c" :: !log);
  Clock.schedule c ~delay:10.0 (fun () -> log := "a" :: !log);
  Clock.schedule c ~delay:20.0 (fun () -> log := "b" :: !log);
  Clock.run c ();
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !log);
  Alcotest.(check (float 0.001)) "clock at last event" 30.0 (Clock.now c)

let test_fifo_tie_break () =
  let c = Clock.create () in
  let log = ref [] in
  for i = 0 to 9 do
    Clock.schedule c ~delay:5.0 (fun () -> log := i :: !log)
  done;
  Clock.run c ();
  Alcotest.(check (list int)) "fifo among simultaneous" [0;1;2;3;4;5;6;7;8;9] (List.rev !log)

let test_nested_scheduling () =
  let c = Clock.create () in
  let log = ref [] in
  Clock.schedule c ~delay:10.0 (fun () ->
      log := ("first", Clock.now c) :: !log;
      Clock.schedule c ~delay:5.0 (fun () -> log := ("second", Clock.now c) :: !log));
  Clock.run c ();
  Alcotest.(check (list (pair string (float 0.001))))
    "relative delays" [ ("first", 10.0); ("second", 15.0) ] (List.rev !log)

let test_heap_stress () =
  (* Many events in adversarial order still come out sorted. *)
  let c = Clock.create () in
  let g = Monet_hash.Drbg.of_int 5 in
  let fired = ref [] in
  for _ = 1 to 500 do
    let d = float_of_int (Monet_hash.Drbg.int g 10_000) in
    Clock.schedule c ~delay:d (fun () -> fired := Clock.now c :: !fired)
  done;
  Clock.run c ();
  let xs = List.rev !fired in
  Alcotest.(check int) "all fired" 500 (List.length xs);
  Alcotest.(check bool) "non-decreasing" true
    (fst
       (List.fold_left (fun (ok, prev) x -> (ok && x >= prev, x)) (true, neg_infinity) xs))

let test_latency_models () =
  let g = Monet_hash.Drbg.of_int 9 in
  Alcotest.(check (float 0.001)) "fixed" 60.0 (Latency.sample g Latency.wan_4g);
  for _ = 1 to 100 do
    let u = Latency.sample g (Latency.Uniform (10.0, 20.0)) in
    Alcotest.(check bool) "uniform in range" true (u >= 10.0 && u <= 20.0);
    let n = Latency.sample g (Latency.Normal (50.0, 10.0)) in
    Alcotest.(check bool) "normal non-negative" true (n >= 0.0)
  done;
  Alcotest.(check (float 0.001)) "uniform mean" 15.0 (Latency.mean (Latency.Uniform (10.0, 20.0)))

let tests =
  [
    Alcotest.test_case "event ordering" `Quick test_event_ordering;
    Alcotest.test_case "fifo tie-break" `Quick test_fifo_tie_break;
    Alcotest.test_case "nested scheduling" `Quick test_nested_scheduling;
    Alcotest.test_case "heap stress" `Quick test_heap_stress;
    Alcotest.test_case "latency models" `Quick test_latency_models;
  ]
