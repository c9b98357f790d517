(* The observability layer: typed counters backed by the legacy
   registry, the (layer, reason) abort taxonomy, span nesting across
   retries, and the JSON report round-trip. *)

let check = Alcotest.check

let small_config = Minuet.Config.small_tree Minuet.Config.default

(* ------------------------------------------------------------------ *)
(* Typed handles and the abort matrix (no simulation needed)            *)
(* ------------------------------------------------------------------ *)

let test_typed_counters () =
  let obs = Obs.create () in
  Obs.Counter.incr (Obs.txn obs).Obs.commits;
  Obs.Counter.add (Obs.btree obs).Obs.splits 3;
  (* Typed handles write into the string registry under the legacy
     names, so old-style inspection sees the same numbers. *)
  check Alcotest.int "txn.commits via registry" 1
    (Sim.Metrics.counter_value (Obs.metrics obs) "txn.commits");
  check Alcotest.int "btree.splits via registry" 3
    (Sim.Metrics.counter_value (Obs.metrics obs) "btree.splits");
  Obs.Counter.add (Obs.txn obs).Obs.hinted_reads 5;
  Obs.Counter.incr (Obs.txn obs).Obs.short_read_refetches;
  check Alcotest.int "txn.hinted_reads via registry" 5
    (Sim.Metrics.counter_value (Obs.metrics obs) "txn.hinted_reads");
  check Alcotest.int "txn.short_read_refetches via registry" 1
    (Sim.Metrics.counter_value (Obs.metrics obs) "txn.short_read_refetches")

let test_abort_matrix () =
  let obs = Obs.create () in
  check Alcotest.int "empty" 0 (Obs.abort_count obs Obs.Abort.Lock_busy);
  Obs.abort obs ~layer:Obs.Abort.Mtx Obs.Abort.Lock_busy;
  Obs.abort obs ~layer:Obs.Abort.Mtx Obs.Abort.Lock_busy;
  Obs.abort obs ~layer:Obs.Abort.Txn Obs.Abort.Lock_busy;
  Obs.abort obs ~layer:Obs.Abort.Btree Obs.Abort.Fence_violation;
  check Alcotest.int "per layer" 2 (Obs.abort_count obs ~layer:Obs.Abort.Mtx Obs.Abort.Lock_busy);
  check Alcotest.int "summed over layers" 3 (Obs.abort_count obs Obs.Abort.Lock_busy);
  check Alcotest.int "other reason" 1 (Obs.abort_count obs Obs.Abort.Fence_violation);
  check Alcotest.int "nonzero cells" 3 (List.length (Obs.abort_counts obs));
  (* The matrix is also visible through the registry. *)
  check Alcotest.int "registry name" 2
    (Sim.Metrics.counter_value (Obs.metrics obs) "abort.mtx.lock_busy")

(* ------------------------------------------------------------------ *)
(* Span nesting                                                         *)
(* ------------------------------------------------------------------ *)

(* A with_txn whose first attempt is invalidated by a conflicting
   write decomposes into one operation span -> one transaction span ->
   N >= 2 attempt spans, the first of which did not complete. *)
let test_span_nesting_with_retry () =
  Minuet.Harness.run ~config:small_config (fun db ->
      let s1 = Minuet.Session.attach db in
      let s2 = Minuet.Session.attach db in
      Minuet.Session.put s1 "k" "v0";
      let obs = Minuet.Db.obs db in
      Obs.clear_spans obs;
      let first = ref true in
      Minuet.Session.with_txn s1 (fun tx ->
          let (_ : string option) = Minuet.Session.t_get tx "k" in
          if !first then begin
            first := false;
            (* Invalidate s1's read set before it commits. *)
            Minuet.Session.put s2 "k" "conflict"
          end;
          Minuet.Session.t_put tx "k" "mine");
      let spans = Obs.spans obs in
      let op_span =
        List.find
          (fun i -> i.Obs.Span.kind = Obs.Span.Op (Obs.Op.With_txn, Obs.Op.Up_to_date))
          spans
      in
      let txn_span =
        List.find
          (fun i -> i.Obs.Span.kind = Obs.Span.Txn && i.Obs.Span.parent = op_span.Obs.Span.id)
          spans
      in
      let attempts =
        List.filter
          (fun i ->
            i.Obs.Span.kind = Obs.Span.Attempt && i.Obs.Span.parent = txn_span.Obs.Span.id)
          spans
      in
      check Alcotest.bool "at least two attempts" true (List.length attempts >= 2);
      check Alcotest.bool "first attempt did not complete" true
        ((List.hd attempts).Obs.Span.outcome <> Obs.Span.Completed);
      let last = List.nth attempts (List.length attempts - 1) in
      check Alcotest.bool "last attempt completed" true
        (last.Obs.Span.outcome = Obs.Span.Completed);
      (* Every attempt lies inside its transaction's interval. *)
      List.iter
        (fun a ->
          check Alcotest.bool "attempt within txn" true
            (a.Obs.Span.start >= txn_span.Obs.Span.start
            && a.Obs.Span.stop <= txn_span.Obs.Span.stop))
        attempts)

(* ------------------------------------------------------------------ *)
(* Induced aborts                                                       *)
(* ------------------------------------------------------------------ *)

let test_lock_busy_under_conflict () =
  Minuet.Harness.run ~config:small_config (fun db ->
      let obs = Minuet.Db.obs db in
      let workers = 16 in
      let left = ref workers in
      for w = 1 to workers do
        let s = Minuet.Session.attach ~home:(w mod (Minuet.Db.config db).Minuet.Config.hosts) db in
        Sim.spawn (fun () ->
            for i = 0 to 24 do
              Minuet.Session.put s "hot" (string_of_int ((w * 100) + i))
            done;
            decr left)
      done;
      Sim.delay 120.0;
      check Alcotest.int "workers drained" 0 !left;
      check Alcotest.bool "mtx lock_busy observed" true
        (Obs.abort_count obs ~layer:Obs.Abort.Mtx Obs.Abort.Lock_busy > 0);
      check Alcotest.bool "validation failures observed" true
        (Obs.abort_count obs Obs.Abort.Validation_failed > 0))

let test_crashed_host_abort () =
  Sim.run ~seed:11 (fun () ->
      let config = { Sinfonia.Config.default with Sinfonia.Config.replication = false } in
      let cluster = Sinfonia.Cluster.create ~config ~n:2 () in
      let obs = Sinfonia.Cluster.obs cluster in
      Sinfonia.Cluster.crash cluster 1;
      let addr = Sinfonia.Address.make ~node:1 ~off:0 in
      let mtx = Sinfonia.Mtx.make ~writes:[ Sinfonia.Mtx.write_at addr "x" ] () in
      (match Sinfonia.Coordinator.exec cluster mtx with
      | Sinfonia.Mtx.Unavailable _ -> ()
      | _ -> Alcotest.fail "expected Unavailable against a crashed, unreplicated node");
      check Alcotest.int "crashed_host at mtx layer" 1
        (Obs.abort_count obs ~layer:Obs.Abort.Mtx Obs.Abort.Crashed_host);
      check Alcotest.int "legacy counter" 1
        (Sim.Metrics.counter_value (Obs.metrics obs) "mtx.unavailable"))

(* ------------------------------------------------------------------ *)
(* JSON report                                                          *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  Minuet.Harness.run ~config:small_config (fun db ->
      let s = Minuet.Session.attach db in
      for i = 0 to 49 do
        Minuet.Session.put s (Printf.sprintf "key%04d" i) "v"
      done;
      let (_ : string option) = Minuet.Session.get s "key0007" in
      let snap = Minuet.Session.snapshot s in
      let (_ : string option) = Minuet.Session.get_at s snap "key0007" in
      let obs = Minuet.Db.obs db in
      let json = Obs.Report.to_json ~name:"roundtrip" obs in
      let reparsed = Obs.Json.parse (Obs.Json.to_string json) in
      check Alcotest.bool "serialize/parse round-trip" true (Obs.Json.equal json reparsed);
      let member name =
        match Obs.Json.member name reparsed with
        | Some v -> v
        | None -> Alcotest.failf "missing %s" name
      in
      check Alcotest.bool "name" true (member "name" = Obs.Json.String "roundtrip");
      check Alcotest.bool "schema" true (member "schema_version" = Obs.Json.Int 1);
      (* Counters in the report agree with the registry. *)
      let commits =
        match Obs.Json.member "txn.commits" (member "counters") with
        | Some (Obs.Json.Int n) -> n
        | _ -> Alcotest.fail "counters.txn.commits missing"
      in
      check Alcotest.int "report counter = registry counter"
        (Sim.Metrics.counter_value (Obs.metrics obs) "txn.commits")
        commits;
      (* The size-hint counters are reported next to the other txn
         stats, at the values of their typed handles. *)
      List.iter
        (fun (name, handle) ->
          match Obs.Json.member name (member "counters") with
          | Some (Obs.Json.Int n) -> check Alcotest.int name (Obs.Counter.value handle) n
          | _ -> Alcotest.failf "counters.%s missing" name)
        [
          ("txn.hinted_reads", (Obs.txn obs).Obs.hinted_reads);
          ("txn.short_read_refetches", (Obs.txn obs).Obs.short_read_refetches);
        ];
      (* Both read paths produced latency summaries. *)
      let ops = member "ops" in
      List.iter
        (fun label ->
          match Obs.Json.member label ops with
          | Some cell -> (
              match Obs.Json.member "p99_ms" cell with
              | Some (Obs.Json.Float _ | Obs.Json.Int _) -> ()
              | _ -> Alcotest.failf "ops.%s.p99_ms missing" label)
          | None -> Alcotest.failf "ops.%s missing" label)
        [ "get"; "put"; "get@snapshot"; "snapshot" ])

let test_json_parser () =
  let t = Obs.Json.parse {| {"a": [1, 2.5, true, null, "s\n"], "b": {"c": -3}} |} in
  (match Obs.Json.member "a" t with
  | Some (Obs.Json.List [ Obs.Json.Int 1; Obs.Json.Float 2.5; Obs.Json.Bool true; Obs.Json.Null; Obs.Json.String "s\n" ]) -> ()
  | _ -> Alcotest.fail "array contents");
  (match Obs.Json.member "b" t with
  | Some b -> check Alcotest.bool "nested" true (Obs.Json.member "c" b = Some (Obs.Json.Int (-3)))
  | None -> Alcotest.fail "missing b");
  (match Obs.Json.parse "{broken" with
  | exception Obs.Json.Parse_error _ -> ()
  | _ -> Alcotest.fail "parser accepted garbage")

let () =
  Alcotest.run "obs"
    [
      ( "handles",
        [
          Alcotest.test_case "typed counters back the registry" `Quick test_typed_counters;
          Alcotest.test_case "abort matrix" `Quick test_abort_matrix;
        ] );
      ( "spans",
        [ Alcotest.test_case "with_txn retry nesting" `Quick test_span_nesting_with_retry ] );
      ( "aborts",
        [
          Alcotest.test_case "lock busy under conflict" `Quick test_lock_busy_under_conflict;
          Alcotest.test_case "crashed host" `Quick test_crashed_host_abort;
        ] );
      ( "report",
        [
          Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "json parser" `Quick test_json_parser;
        ] );
    ]
