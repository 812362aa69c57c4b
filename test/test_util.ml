(* Utility-layer unit tests: hex, byte helpers, wire, the JSON codec,
   drbg, ledger odds and ends. *)

let test_hex_errors () =
  Alcotest.check_raises "odd length" (Invalid_argument "Hex.decode: odd length")
    (fun () -> ignore (Monet_util.Hex.decode "abc"));
  Alcotest.check_raises "bad digit" (Invalid_argument "Hex.decode: invalid hex digit")
    (fun () -> ignore (Monet_util.Hex.decode "zz"))

let test_hex_case_insensitive () =
  Alcotest.(check string) "upper = lower"
    (Monet_util.Hex.decode "DEADBEEF")
    (Monet_util.Hex.decode "deadbeef")

let test_le64_roundtrip () =
  List.iter
    (fun n ->
      let s = Monet_util.Bytes_ext.le64_of_int n in
      Alcotest.(check int) (string_of_int n) n (Monet_util.Bytes_ext.int_of_le64 s 0))
    [ 0; 1; 255; 65536; 1 lsl 40; max_int / 2 ]

let test_ct_equal () =
  Alcotest.(check bool) "equal" true (Monet_util.Bytes_ext.ct_equal "abc" "abc");
  Alcotest.(check bool) "unequal" false (Monet_util.Bytes_ext.ct_equal "abc" "abd");
  Alcotest.(check bool) "length mismatch" false (Monet_util.Bytes_ext.ct_equal "ab" "abc");
  Alcotest.(check bool) "empty" true (Monet_util.Bytes_ext.ct_equal "" "");
  (* A single flipped bit at any position must be caught — the
     accumulator-OR must fold every byte, not stop early. *)
  let base = String.init 32 (fun i -> Char.chr (i * 7 land 0xff)) in
  for pos = 0 to 31 do
    for bit = 0 to 7 do
      let flipped =
        String.mapi
          (fun i c -> if i = pos then Char.chr (Char.code c lxor (1 lsl bit)) else c)
          base
      in
      Alcotest.(check bool)
        (Printf.sprintf "bit flip %d/%d" pos bit)
        false
        (Monet_util.Bytes_ext.ct_equal base flipped)
    done
  done;
  Alcotest.(check bool) "32-byte equal" true (Monet_util.Bytes_ext.ct_equal base base)

let test_wire_at_end () =
  let w = Monet_util.Wire.create_writer () in
  Monet_util.Wire.write_u8 w 7;
  let r = Monet_util.Wire.reader_of_string (Monet_util.Wire.contents w) in
  Alcotest.(check bool) "not at end" false (Monet_util.Wire.at_end r);
  ignore (Monet_util.Wire.read_u8 r);
  Alcotest.(check bool) "at end" true (Monet_util.Wire.at_end r)

let test_keccak_vs_sha3_differ () =
  Alcotest.(check bool) "padding domain separation" true
    (Monet_hash.Keccak.digest "x" <> Monet_hash.Keccak.sha3_256 "x")

let test_ledger_empty_block () =
  let l = Monet_xmr.Ledger.create () in
  let b = Monet_xmr.Ledger.mine l in
  Alcotest.(check int) "no txs" 0 (List.length b.Monet_xmr.Ledger.b_txs);
  Alcotest.(check int) "height advanced" 1 l.Monet_xmr.Ledger.height

let test_ledger_rejects_empty_tx () =
  let l = Monet_xmr.Ledger.create () in
  let tx = { Monet_xmr.Tx.inputs = []; outputs = []; fee = 0; extra = "" } in
  match Monet_xmr.Ledger.submit l tx with
  | Ok () -> Alcotest.fail "empty tx accepted"
  | Error _ -> ()

let test_wallet_scan_idempotent () =
  let g = Monet_hash.Drbg.of_int 404 in
  let l = Monet_xmr.Ledger.create () in
  let w = Monet_xmr.Wallet.create g ~label:"w" in
  let addr = Monet_xmr.Wallet.fresh_address w in
  ignore (Monet_xmr.Ledger.genesis_output l { Monet_xmr.Tx.otk = addr; amount = 9 });
  Monet_xmr.Wallet.scan w l;
  Monet_xmr.Wallet.scan w l;
  Alcotest.(check int) "scanned once" 9 (Monet_xmr.Wallet.balance w)

let test_tx_wire_roundtrip () =
  let g = Monet_hash.Drbg.of_int 405 in
  let l = Monet_xmr.Ledger.create () in
  Monet_xmr.Ledger.ensure_decoys g l ~amount:50 ~n:15;
  let w = Monet_xmr.Wallet.create ~ring_size:5 g ~label:"w" in
  let kp = Monet_sig.Sig_core.gen g in
  let idx = Monet_xmr.Ledger.genesis_output l { Monet_xmr.Tx.otk = kp.vk; amount = 50 } in
  Monet_xmr.Wallet.adopt w ~global_index:idx ~keypair:kp ~amount:50;
  let dest = Monet_ec.Point.mul_base (Monet_ec.Sc.of_int 5) in
  match Monet_xmr.Wallet.pay w l ~dest ~amount:20 with
  | Error e -> Alcotest.fail e
  | Ok tx ->
      let wr = Monet_util.Wire.create_writer () in
      Monet_xmr.Tx.encode wr tx;
      let tx' = Monet_xmr.Tx.decode (Monet_util.Wire.reader_of_string (Monet_util.Wire.contents wr)) in
      Alcotest.(check string) "txid stable over roundtrip"
        (Monet_util.Hex.encode (Monet_xmr.Tx.txid tx))
        (Monet_util.Hex.encode (Monet_xmr.Tx.txid tx'));
      (* The decoded tx still validates. *)
      (match Monet_xmr.Ledger.validate l tx' with
      | Monet_xmr.Ledger.Valid -> ()
      | Monet_xmr.Ledger.Invalid e -> Alcotest.failf "decoded invalid: %s" e)

(* -- Monet_util.Json: the shared codec --------------------------------- *)

module Json = Monet_util.Json

let json_testable =
  Alcotest.testable (fun ppf v -> Format.pp_print_string ppf (Json.to_string v)) ( = )

(* Random nested documents whose strings (values and keys) mix the
   bytes a hand-written escaper gets wrong: quote, backslash, slash,
   control bytes, DEL and non-ASCII / invalid-UTF-8 bytes. *)
let json_gen : Json.t QCheck.Gen.t =
  let open QCheck.Gen in
  let tricky = oneofl [ '"'; '\\'; '/'; '\n'; '\r'; '\t'; '\000'; '\001'; '\031';
                        '\127'; '\195'; '\169'; '\255' ] in
  let str = string_size ~gen:(frequency [ (1, tricky); (1, printable); (1, char) ])
      (int_bound 10) in
  let num =
    oneof
      [ map Json.int int;
        map2 (fun decimals f -> Json.fixed ~decimals f) (int_bound 6) float ]
  in
  let leaf =
    oneof
      [ return Json.Null; map (fun b -> Json.Bool b) bool; num;
        map (fun s -> Json.Str s) str ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 0 then leaf
         else
           frequency
             [ (2, leaf);
               (1, map (fun l -> Json.Arr l) (list_size (int_bound 4) (self (n / 2))));
               (1, map (fun l -> Json.Obj l)
                     (list_size (int_bound 4) (pair str (self (n / 2))))) ])

let test_json_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"json parse (to_string v) = Ok v" ~count:500
       (QCheck.make ~print:Json.to_string json_gen)
       (fun v -> Json.parse (Json.to_string v) = Ok v))

(* Escapes a hand-written decoder easily gets wrong (a \u escape
   turned into '?' or kept as text, \n read as 'n'), plus \u above
   ASCII and a surrogate pair. *)
let test_json_escapes () =
  List.iter
    (fun (src, expected) ->
      Alcotest.(check (result json_testable string)) src (Ok (Json.Str expected))
        (Json.parse src))
    [ ({|"\u0001"|}, "\001"); ({|"a\nb"|}, "a\nb"); ({|"\/"|}, "/");
      ({|"\""|}, "\""); ({|"\\\t\r\b\f"|}, "\\\t\r\b\012");
      ({|"é"|}, "\195\169"); ({|"😀"|}, "\240\159\152\128") ];
  Alcotest.(check string) "printer escapes" {|"\"\\\n\u0001/"|}
    (Json.to_string (Json.Str "\"\\\n\001/"))

let test_json_rejects () =
  List.iter
    (fun (what, src) ->
      match Json.parse src with
      | Ok v -> Alcotest.failf "%s: accepted %S as %s" what src (Json.to_string v)
      | Error _ -> ())
    [ ("truncated object", {|{"a":[1,2|}); ("truncated string", {|"abc|});
      ("truncated escape", {|"\u00|}); ("empty input", "");
      ("trailing data", {|{} {}|}); ("trailing value", "1 2");
      ("bare nan", "nan"); ("bare inf", "inf"); ("negative inf", "-inf");
      ("nan in array", "[1,nan]"); ("non-string key", {|{1:2}|});
      ("leading garbage", {|x{"a":1}|}); ("trailing comma", "[1,]");
      ("raw control byte", "\"a\001b\""); ("lone surrogate", {|"\ud800"|});
      ("leading zero", "01"); ("bare fraction", "1.") ]

(* A field spec checks the field at its path, not a match anywhere:
   the check key true in a sibling object does not satisfy it. *)
let test_json_spec () =
  let spec =
    Json.Spec.(
      Object
        [ ("schema", tag "s/1");
          ("checks", Object [ ("a", Where (Bool, "true", ( = ) (Json.Bool true))) ]) ])
  in
  Alcotest.(check (result unit string)) "accepted" (Ok ())
    (Json.Spec.validate spec {|{"schema":"s/1","checks":{"a":true},"extra":[]}|});
  Alcotest.(check (result unit string)) "false under checks"
    (Error "$.checks.a: expected true")
    (Json.Spec.validate spec
       {|{"schema":"s/1","junk":{"a": true},"checks":{"a": false}}|});
  Alcotest.(check (result unit string)) "missing field"
    (Error "$.checks: missing field")
    (Json.Spec.validate spec {|{"schema":"s/1"}|});
  Alcotest.(check bool) "wrong tag" true
    (Result.is_error
       (Json.Spec.validate spec {|{"schema":"s/2","checks":{"a":true}}|}));
  Alcotest.(check bool) "count rejects a fraction" true
    (Result.is_error (Json.Spec.validate Json.Spec.Count "1.5"))

let tests =
  [
    Alcotest.test_case "hex errors" `Quick test_hex_errors;
    Alcotest.test_case "hex case" `Quick test_hex_case_insensitive;
    Alcotest.test_case "le64 roundtrip" `Quick test_le64_roundtrip;
    Alcotest.test_case "ct_equal" `Quick test_ct_equal;
    Alcotest.test_case "wire at_end" `Quick test_wire_at_end;
    Alcotest.test_case "keccak vs sha3" `Quick test_keccak_vs_sha3_differ;
    Alcotest.test_case "empty block" `Quick test_ledger_empty_block;
    Alcotest.test_case "empty tx" `Quick test_ledger_rejects_empty_tx;
    Alcotest.test_case "scan idempotent" `Quick test_wallet_scan_idempotent;
    Alcotest.test_case "tx wire roundtrip" `Quick test_tx_wire_roundtrip;
    test_json_roundtrip;
    Alcotest.test_case "json escapes" `Quick test_json_escapes;
    Alcotest.test_case "json rejects malformed" `Quick test_json_rejects;
    Alcotest.test_case "json field spec" `Quick test_json_spec;
  ]
