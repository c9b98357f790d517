(* End-to-end benchmark of the Minuet reproduction.

   Drives the deployment the paper's figures use (Exp_common.deploy /
   preload over Ycsb.Driver: 5 hosts, 6 closed-loop clients per host,
   4 KiB nodes, dirty traversals) through one of three workloads and
   reports simulated performance (what the model says about Minuet) and
   host performance (what it costs to run the model).

     minuet_perf.exe --workload ycsb-load --seed 1 --seconds 10 --trace 0

   With --trace 0 the last line of output is a JSON object holding the
   end-to-end metrics; with --trace 1 the workload runs twice in one
   process, untraced then traced, and the JSON holds the per-layer
   metrics. README.md in this directory defines every metric. The exit
   code is non-zero when any correctness check fails. *)

module W = Ycsb.Workload
module S = Minuet.Session
module E = Experiments.Exp_common

let hosts = 5

let clients_per_host = 6

let clients = hosts * clients_per_host

(* ------------------------------------------------------------------ *)
(* Workloads                                                          *)
(* ------------------------------------------------------------------ *)

type op_class = Read | Write | Scan

let classes = [ Read; Write; Scan ]

let class_index = function Read -> 0 | Write -> 1 | Scan -> 2

let class_name = function Read -> "read" | Write -> "write" | Scan -> "scan"

let class_of = function
  | W.Read _ -> Read
  | W.Update _ | W.Insert _ -> Write
  | W.Scan _ -> Scan

type workload = {
  name : string;
  records : int;  (** Keys preloaded before the measured window. *)
  sim_per_host_s : float;
      (** Simulated seconds of measured window per requested host
          second, calibrated on a 2-core x86-64 container so that
          [--seconds] host seconds measure about that long. The window
          is a fixed simulated span so that every simulated number is a
          function of the seed alone. *)
  k : float;  (** SCS staleness bound, seconds. *)
  gc : bool;  (** Background Db.enable_gc. *)
  lead : op_class;  (** The op kind reported as [lead_p50_ms]/[lead_p99_ms]. *)
  workload_of : seed:int -> int -> W.t;
}

let scan_clients = 2

let scan_length = 1_000

let gc_interval = 0.1

let gc_keep = 4

let workloads =
  [
    {
      name = "ycsb-load";
      records = 25_000;
      sim_per_host_s = 0.14;
      k = 0.0;
      gc = false;
      lead = Write;
      workload_of =
        (fun ~seed ->
          (* One shared insert stream, as Fig. 10 runs it: every client
             inserts fresh hashed keys. The seed picks where in the
             ordinal space the stream starts, so each seed inserts its
             own keys. *)
          let shared =
            W.create
              ~record_count:(25_000 + ((seed land 0xFFFF) * 1_000_000))
              ~mix:W.insert_only ()
          in
          fun _ -> shared);
    };
    {
      name = "ycsb-b-zipf";
      records = 50_000;
      sim_per_host_s = 0.3;
      k = 0.0;
      gc = false;
      lead = Read;
      workload_of =
        (fun ~seed:_ _ ->
          W.create ~distribution:`Zipfian ~record_count:50_000 ~mix:W.read_mostly ());
    };
    {
      name = "htap-scan";
      records = 50_000;
      sim_per_host_s = 0.17;
      k = 0.05;
      gc = true;
      lead = Scan;
      workload_of =
        (fun ~seed:_ c ->
          if c >= clients - scan_clients then
            W.create ~record_count:50_000 ~scan_length ~mix:W.scan_only ()
          else W.create ~record_count:50_000 ~mix:W.update_heavy ());
    };
  ]

(* Proxy CPU per operation, the same charge Exp_common.minuet_exec
   makes (request parsing, traversal, marshalling; three cores per
   host). The executor below issues the Session calls itself so it can
   see each operation's result. *)
let proxy_cost = function
  | W.Read _ -> 35e-6
  | W.Update _ | W.Insert _ -> 45e-6
  | W.Scan (_, n) -> 60e-6 +. (0.4e-6 *. float_of_int n)

(* ------------------------------------------------------------------ *)
(* Small utilities                                                    *)
(* ------------------------------------------------------------------ *)

let host_now () = Unix.gettimeofday ()

(* Growable float sample buffer. *)
type samples = { mutable data : float array; mutable len : int }

let samples () = { data = Array.make 1024 0.0; len = 0 }

let push s v =
  if s.len = Array.length s.data then begin
    let d = Array.make (2 * s.len) 0.0 in
    Array.blit s.data 0 d 0 s.len;
    s.data <- d
  end;
  s.data.(s.len) <- v;
  s.len <- s.len + 1

let sorted s =
  let a = Array.sub s.data 0 s.len in
  Array.sort Float.compare a;
  a

(* Nearest-rank quantile of a sorted array. *)
let quantile a q =
  let n = Array.length a in
  if n = 0 then nan
  else
    let r = int_of_float (Float.ceil (q *. float_of_int n)) in
    a.(max 0 (min (n - 1) (r - 1)))

let median l = quantile (Array.of_list (List.sort Float.compare l)) 0.5

(* 63-bit FNV-1a, folded over the fields of each completed op. *)
let fnv_prime = 0x100000001b3

let fnv_init = 0x0bf29ce484222325

let fold_string h s =
  let h = ref h in
  String.iter (fun c -> h := (!h lxor Char.code c) * fnv_prime) s;
  (!h lxor 0xff) * fnv_prime

let fold_int h i = fold_string h (Int64.to_string (Int64.of_int i))

let fold_float h f = fold_string h (Int64.to_string (Int64.bits_of_float f))

(* ------------------------------------------------------------------ *)
(* Benchmark spans                                                    *)
(* ------------------------------------------------------------------ *)

(* The benchmark's own spans use negative ids so they can never collide
   with the program's (positive) Obs span ids. They are installed as
   the calling process's trace context, so Obs spans the program opens
   inside them name them as parent. *)
type tracer = { tree : Spantree.t; mutable next_id : int }

let span_begin tr =
  let id = tr.next_id in
  tr.next_id <- id - 1;
  let parent = Sim.trace_context () in
  Sim.set_trace_context id;
  (id, parent, Sim.now ())

let span_end tr kind (id, parent, start) =
  Sim.set_trace_context parent;
  Spantree.add tr.tree { Spantree.id; parent; kind; start; stop = Sim.now () }

let with_span tracer kind f =
  match tracer with
  | None -> f ()
  | Some tr -> (
      let sp = span_begin tr in
      match f () with
      | v ->
          span_end tr kind sp;
          v
      | exception e ->
          span_end tr kind sp;
          raise e)

(* ------------------------------------------------------------------ *)
(* One measured pass                                                  *)
(* ------------------------------------------------------------------ *)

type counters = {
  c_mtx_1pc : int;
  c_mtx_2pc : int;
  c_busy : int;
  c_txn_commits : int;
  c_free_commits : int;
  c_validation : int;
  c_cache_hits : int;
  c_cache_misses : int;
  c_btree_aborts : int;
  c_splits : int;
  c_op_retries : int;
  c_materialisations : int;
  c_bytes_copied : int;
  c_scan_batches : int;
  c_scan_leaves : int;
  c_scan_batch_aborts : int;
  c_snapshots : int;
  c_borrowed : int;
  c_stale_reused : int;
  c_cow : int;
  c_gc_slots : int;
  c_msgs : int;
  c_bytes : int;
  c_memnode_busy : float array;  (** Busy server-seconds per server, per memnode CPU. *)
  c_proxy_busy : float array;  (** Same, per proxy CPU. *)
}

let busy r = Sim.Resource.busy_time r /. float_of_int (Sim.Resource.servers r)

let read_counters (d : E.deployment) =
  let obs = Minuet.Db.obs d.E.db in
  let v = Obs.Counter.value in
  let m = Obs.mtx obs and tx = Obs.txn obs and b = Obs.btree obs and c = Obs.cache obs in
  let sc = Obs.scan obs and n = Obs.node obs and g = Obs.gc obs and scs = Obs.scs obs in
  let cluster = Minuet.Db.cluster d.E.db in
  let net = Sinfonia.Cluster.net cluster in
  {
    c_mtx_1pc = v m.Obs.committed_1pc;
    c_mtx_2pc = v m.Obs.committed_2pc;
    c_busy = v m.Obs.busy_retries;
    c_txn_commits = v tx.Obs.commits;
    c_free_commits = v tx.Obs.free_commits;
    c_validation = v tx.Obs.validation_failures;
    c_cache_hits = v c.Obs.cache_hits;
    c_cache_misses = v c.Obs.cache_misses;
    c_btree_aborts =
      List.fold_left
        (fun acc r -> acc + Obs.abort_count obs ~layer:Obs.Abort.Btree r)
        0 Obs.Abort.all;
    c_splits = v b.Obs.splits;
    c_op_retries = v b.Obs.op_retries;
    c_materialisations = v n.Obs.materialisations;
    c_bytes_copied = v n.Obs.node_bytes_copied;
    c_scan_batches = v sc.Obs.scan_batches;
    c_scan_leaves = v sc.Obs.scan_batched_leaves;
    c_scan_batch_aborts = v sc.Obs.scan_batch_aborts;
    c_snapshots = v scs.Obs.scs_created;
    c_borrowed = v scs.Obs.scs_borrowed;
    c_stale_reused = v scs.Obs.scs_stale_reused;
    c_cow = v b.Obs.cow;
    c_gc_slots = v g.Obs.slots_reclaimed;
    c_msgs = Sim.Net.messages_sent net;
    c_bytes = Sim.Net.bytes_sent net;
    c_memnode_busy =
      Array.init (Sinfonia.Cluster.n_memnodes cluster) (fun i ->
          busy (Sinfonia.Memnode.cpu (Sinfonia.Cluster.memnode cluster i)));
    c_proxy_busy = Array.map busy d.E.proxies;
  }

type gc_mark = { minor : float; major : float; collections : int }

let gc_mark () =
  let s = Gc.quick_stat () in
  { minor = s.Gc.minor_words; major = s.Gc.major_words; collections = s.Gc.major_collections }

(* Every Obs span kind this deployment can produce (no chaos). *)
let span_kinds =
  List.concat_map
    (fun op ->
      [ Obs.Span.Op (op, Obs.Op.Up_to_date); Obs.Span.Op (op, Obs.Op.At_snapshot) ])
    Obs.Op.all
  @ Obs.Span.
      [
        Txn; Attempt; Commit; Traversal; Scan_batch; Mtx_exec; Mtx_prepare; Mtx_commit;
        Snapshot_create; Scs_request; Recovery_sweep;
      ]

let span_hist_counts obs =
  List.map
    (fun k -> Sim.Stats.Hist.count (Obs.hist obs ~name:("span." ^ Obs.Span.kind_to_string k)))
    span_kinds

type trace_result = {
  tree : Spantree.t;
  lost : (string * int * int) list;  (** kind, drained, recorded — only mismatches *)
  orphans : int;
  memnode_queue_mean : float;
  check_verdict : Check.Stream.verdict;
  check_events : int;
  check_host_s : float;
}

type pass = {
  wl : workload;
  seed : int;
  traced : bool;
  setup_s : float;
  window_sim_s : float;  (** Simulated seconds from window start to the last op. *)
  attempted : int;
  completed : int;
  failed : int;
  by_class : samples array;
  digest : int;
  host_total_s : float;  (** Host wall seconds from window start to the last op. *)
  gc0 : gc_mark;
  gc1 : gc_mark;
  peak_heap_mb : float;
  c0 : counters;
  c1 : counters;
  leaves : int;
  internals : int;
  final_keys : int;
  failures : string list;  (** Correctness failures. *)
  trace : trace_result option;
}

(* Boot the cluster and preload it; the benchmark's set-up. *)
let setup wl ~tracer =
  let d = E.deploy ~hosts ~k:wl.k () in
  let d =
    match tracer with
    | None -> d
    | Some f ->
        {
          d with
          E.sessions = Array.init hosts (fun h -> S.attach ~home:h ~client:h ~tracer:f d.E.db);
        }
  in
  E.preload d ~records:wl.records;
  d

(* The simulator's own randomness (network jitter, placement) is part of
   the modelled system, not of the workload: it is seeded with a
   constant, and --seed only drives the clients' operation streams.
   Seeding the simulator from --seed too made the data layout differ
   per seed, which moved ycsb-b-zipf's throughput by 10 % between seeds
   for the whole of a 7 s window. *)
let sim_seed = 0xF16

let setup_only wl =
  Gc.compact ();
  let t0 = host_now () in
  Sim.run ~seed:sim_seed (fun () ->
      ignore (setup wl ~tracer:None : E.deployment);
      Sim.stop ());
  host_now () -. t0

(* Count leaves and internal nodes reachable from the tip. *)
let count_nodes tree =
  Btree.Ops.run_txn tree (fun txn ->
      let _, root = Btree.Ops.Linear.read_tip tree txn in
      let leaves = ref 0 and internals = ref 0 in
      let rec walk r =
        let node = Btree.Ops.read_node_txn tree txn r in
        match node.Btree.Bnode.body with
        | Btree.Bnode.Leaf _ -> incr leaves
        | Btree.Bnode.Internal { children; _ } ->
            incr internals;
            Array.iter walk children
      in
      walk root;
      (!leaves, !internals))

let check_scan ~from ~count result =
  let rec sorted_from prev = function
    | [] -> true
    | (k, _) :: tl -> String.compare k prev > 0 && sorted_from k tl
  in
  List.length result <= count
  && (match result with
     | [] -> true
     | (k, _) :: tl -> String.compare k from >= 0 && sorted_from k tl)

let run_pass wl ~seed ~seconds ~traced =
  let failures = ref [] in
  let fail msg = if List.length !failures < 20 then failures := msg :: !failures in
  (* Checker and tracer state (traced pass only). *)
  let stream =
    if traced then
      Some
        (Check.Stream.create
           {
             Check.Stream.Config.default with
             Check.Stream.Config.scs_staleness = (if wl.k > 0.0 then Some wl.k else None);
           })
    else None
  in
  let check_host = ref 0.0 in
  let timed_check f =
    let t0 = host_now () in
    let v = f () in
    check_host := !check_host +. (host_now () -. t0);
    v
  in
  let session_tracer =
    Option.map (fun st ev -> timed_check (fun () -> Check.Stream.feed st ev)) stream
  in
  let window_start = ref infinity in
  let tracer =
    if traced then
      Some
        {
          tree =
            Spantree.create
              ~counted:(fun sp ->
                sp.Spantree.kind = Spantree.Request && sp.Spantree.stop >= !window_start)
              ();
          next_id = -1;
        }
    else None
  in
  let by_class = Array.init 3 (fun _ -> samples ()) in
  let attempted = ref 0 and completed = ref 0 and failed = ref 0 in
  let digest = ref fnv_init in
  let acked = Hashtbl.create 1024 in
  let result = ref None in
  let t_setup0 = host_now () in
  let driver_seed = (seed * 7919) + 17 in
  Sim.run ~seed:sim_seed (fun () ->
      let d = setup wl ~tracer:session_tracer in
      let setup_s = host_now () -. t_setup0 in
      let db = d.E.db in
      let obs = Minuet.Db.obs db in
      (match stream with
      | Some st ->
          Mvcc.Scs.set_on_create (Minuet.Db.scs db ~index:0) (fun ~sid ~stamp ->
              timed_check (fun () -> Check.Stream.add_creation st ~index:0 ~sid ~stamp))
      | None -> ());
      if wl.gc then Minuet.Db.enable_gc ~interval:gc_interval ~keep:gc_keep db;
      let window = seconds *. wl.sim_per_host_s in
      let warmup = window /. 10.0 in
      let start = Sim.now () in
      let w0 = start +. warmup in
      window_start := w0;
      (* Executor: the request span, the proxy CPU charge, then the
         Session calls, each in its own span. *)
      let exec ~client op =
        let s = d.E.sessions.(client mod hosts) in
        let invoked = Sim.now () in
        let call name f = with_span tracer (Spantree.Call name) f in
        let run () =
          Sim.Resource.use d.E.proxies.(client mod hosts) ~service_time:(proxy_cost op);
          match op with
          | W.Read k -> (
              match call "get" (fun () -> S.get s k) with
              | Some v -> (k, v)
              | None ->
                  fail (Printf.sprintf "get %S: preloaded key missing" k);
                  (k, ""))
          | W.Update (k, v) | W.Insert (k, v) ->
              call "put" (fun () -> S.put s k v);
              (k, v)
          | W.Scan (from, count) ->
              let snap = call "snapshot" (fun () -> S.snapshot s) in
              let r = call "scan_at" (fun () -> S.scan_at s snap ~from ~count) in
              if not (check_scan ~from ~count r) then
                fail (Printf.sprintf "scan_at %S: result unsorted or out of range" from);
              let h = List.fold_left (fun h (k, v) -> fold_string (fold_string h k) v) fnv_init r in
              (from, Printf.sprintf "%x/%d" h (List.length r))
        in
        match with_span tracer Spantree.Request run with
        | key, res ->
            let returned = Sim.now () in
            let cls = class_of op in
            let h = fold_int !digest (class_index cls) in
            let h = fold_string (fold_string h key) res in
            digest := fold_float (fold_float h invoked) returned;
            (match op with W.Insert (k, v) -> Hashtbl.replace acked k v | _ -> ());
            if returned >= w0 then begin
              incr attempted;
              incr completed;
              push by_class.(class_index cls) (returned -. invoked)
            end
        | exception e ->
            if Sim.now () >= w0 then begin
              incr attempted;
              incr failed
            end;
            raise e
      in
      (* Window-start marks. *)
      let host0 = ref 0.0 in
      let gc0 = ref (gc_mark ()) and c0 = ref (read_counters d) in
      let spans0 = ref [] and spans1 = ref [] in
      let queue_samples = ref 0 and queue_sum = ref 0 in
      let stop_daemons = ref false in
      Sim.spawn ~name:"perf-monitor" (fun () ->
          Sim.delay warmup;
          gc0 := gc_mark ();
          c0 := read_counters d;
          host0 := host_now ());
      let drained = Hashtbl.create 32 in
      (match tracer with
      | None -> ()
      | Some tr ->
          (* Drain the finished-span ring well before it can wrap, and
             sample memnode CPU queues. *)
          Obs.clear_spans obs;
          spans0 := span_hist_counts obs;
          let cpus =
            let c = Minuet.Db.cluster db in
            Array.init (Sinfonia.Cluster.n_memnodes c) (fun i ->
                Sinfonia.Memnode.cpu (Sinfonia.Cluster.memnode c i))
          in
          let drain () =
            List.iter
              (fun (info : Obs.Span.info) ->
                let lbl = Obs.Span.kind_to_string info.Obs.Span.kind in
                Hashtbl.replace drained lbl
                  (1 + Option.value (Hashtbl.find_opt drained lbl) ~default:0);
                Spantree.add tr.tree
                  {
                    Spantree.id = info.Obs.Span.id;
                    parent = info.Obs.Span.parent;
                    kind = Spantree.Obs info.Obs.Span.kind;
                    start = info.Obs.Span.start;
                    stop = info.Obs.Span.stop;
                  })
              (Obs.spans obs);
            Obs.clear_spans obs;
            Spantree.advance tr.tree ~now:(Sim.now ())
          in
          Sim.spawn ~name:"perf-drain" (fun () ->
              let tick = ref 0 in
              while not !stop_daemons do
                Sim.delay 1e-3;
                if Sim.now () >= w0 then
                  Array.iter
                    (fun cpu ->
                      incr queue_samples;
                      queue_sum := !queue_sum + Sim.Resource.queue_length cpu)
                    cpus;
                incr tick;
                if !tick mod 4 = 0 then drain ()
              done;
              (* The last drain and the per-kind counts it is checked
                 against are taken in the same simulator step. *)
              drain ();
              spans1 := span_hist_counts obs));
      let r =
        Ycsb.Driver.run ~seed:driver_seed ~warmup ~clients ~duration:window
          ~workload_of:(wl.workload_of ~seed)
          ~exec ()
      in
      let host_end = host_now () in
      let gc1 = gc_mark () in
      let peak_heap_mb =
        float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0
      in
      let c1 = read_counters d in
      let window_sim_s = Sim.now () -. w0 in
      if r.Ycsb.Driver.ops <> !completed then
        fail
          (Printf.sprintf "driver counted %d ops, executor %d" r.Ycsb.Driver.ops !completed);
      let host_total_s = host_end -. !host0 in
      (* Let stragglers (prefetches, mirrors) finish, then stop tracing. *)
      Sim.delay 0.2;
      stop_daemons := true;
      Sim.delay 0.01;
      (* Correctness: structural audit of the tip; on ycsb-load every
         acknowledged insert must be there with its value. *)
      let admin = S.attach db in
      let tree = S.tree_of admin (S.index db 0) in
      let final = ref [] in
      let final_keys =
        match
          let sid, root = Btree.Ops.run_txn tree (fun txn -> Btree.Ops.Linear.read_tip tree txn) in
          Btree.Ops.audit tree ~sid ~root
        with
        | entries ->
            final := entries;
            let n = List.length entries in
            if Hashtbl.length acked > 0 then begin
              let present = Hashtbl.create n in
              List.iter (fun (k, v) -> Hashtbl.replace present k v) entries;
              let missing = ref 0 in
              Hashtbl.iter
                (fun k v ->
                  match Hashtbl.find_opt present k with
                  | Some v' when String.equal v v' -> ()
                  | _ -> incr missing)
                acked;
              if !missing > 0 then
                fail (Printf.sprintf "%d acknowledged inserts missing from the tip" !missing)
            end;
            let expected = Hashtbl.copy acked in
            for i = 0 to wl.records - 1 do
              Hashtbl.replace expected (Ycsb.Keygen.hashed_key_of_int i) ""
            done;
            let expected = Hashtbl.length expected in
            if n <> expected then fail (Printf.sprintf "tip holds %d keys, expected %d" n expected);
            n
        | exception Failure msg ->
            fail ("structural audit: " ^ msg);
            0
      in
      let leaves, internals = count_nodes tree in
      let trace =
        match (tracer, stream) with
        | Some tr, Some st ->
            let orphans = Spantree.flush tr.tree in
            let recorded = !spans1 in
            let lost =
              List.concat
                (List.map2
                   (fun (k, before) after ->
                     let lbl = Obs.Span.kind_to_string k in
                     let got = Option.value (Hashtbl.find_opt drained lbl) ~default:0 in
                     if got <> after - before then [ (lbl, got, after - before) ] else [])
                   (List.combine span_kinds !spans0)
                   recorded)
            in
            List.iter
              (fun (lbl, got, want) ->
                fail (Printf.sprintf "span loss: %s drained %d of %d" lbl got want))
              lost;
            if orphans > 0 then fail (Printf.sprintf "%d spans reached no root" orphans);
            let verdict =
              timed_check (fun () ->
                  Check.Stream.finish ~final:[ (0, !final) ]
                    ~in_doubt:(Sinfonia.Cluster.in_doubt_total (Minuet.Db.cluster db))
                    st)
            in
            if not (Check.Stream.ok verdict) then
              fail (Format.asprintf "checker: %a" Check.Stream.pp_verdict verdict);
            Some
              {
                tree = tr.tree;
                lost;
                orphans;
                memnode_queue_mean =
                  (if !queue_samples > 0 then float_of_int !queue_sum /. float_of_int !queue_samples
                   else 0.0);
                check_verdict = verdict;
                check_events = Check.Stream.fed st;
                check_host_s = !check_host;
              }
        | _ -> None
      in
      result :=
        Some
          {
            wl;
            seed;
            traced;
            setup_s;
            window_sim_s;
            attempted = !attempted;
            completed = !completed;
            failed = !failed;
            by_class;
            digest = !digest;
            host_total_s;
            gc0 = !gc0;
            gc1;
            peak_heap_mb;
            c0 = !c0;
            c1;
            leaves;
            internals;
            final_keys;
            failures = List.rev !failures;
            trace;
          };
      Sim.stop ());
  match !result with Some p -> p | None -> failwith "simulation ended before the pass finished"

(* ------------------------------------------------------------------ *)
(* Metrics                                                            *)
(* ------------------------------------------------------------------ *)

let host_us_per_op p = p.host_total_s *. 1e6 /. float_of_int (max 1 p.completed)

let per_op p x = if p.completed > 0 then x /. float_of_int p.completed else 0.0

let ratio a b = if b > 0.0 then a /. b else 0.0

let latency p cls = sorted p.by_class.(class_index cls)

(* Simulated ms, or nan when the op kind did not occur. *)
let lat_ms p cls q = quantile (latency p cls) q *. 1e3

let end_to_end p ~setup_s =
  [
    ("sim_ops_per_s", float_of_int p.completed /. p.window_sim_s, "1/s");
    ("read_p50_ms", lat_ms p Read 0.5, "ms");
    ("read_p99_ms", lat_ms p Read 0.99, "ms");
    ("write_p50_ms", lat_ms p Write 0.5, "ms");
    ("write_p99_ms", lat_ms p Write 0.99, "ms");
    ("scan_p50_ms", lat_ms p Scan 0.5, "ms");
    ("scan_p99_ms", lat_ms p Scan 0.99, "ms");
    ("lead_p50_ms", lat_ms p p.wl.lead 0.5, "ms");
    ("lead_p99_ms", lat_ms p p.wl.lead 0.99, "ms");
    ("failed_frac", ratio (float_of_int p.failed) (float_of_int p.attempted), "ratio");
    ("host_us_per_op", host_us_per_op p, "us");
    ("setup_s", setup_s, "s");
    ("peak_heap_mb", p.peak_heap_mb, "MB");
  ]

(* The end-to-end metrics in the JSON line: those defined and nonzero on
   every workload, and steady enough across seeds to be held to a bound.
   The others are printed above it; host_us_per_op also goes into the
   traced run's JSON as host.us_per_op (README.md, "Measured spread"). *)
let e2e_json =
  [
    "sim_ops_per_s"; "lead_p50_ms"; "lead_p99_ms"; "write_p50_ms"; "write_p99_ms"; "setup_s";
    "peak_heap_mb";
  ]

let per_layer ~untraced p =
  let t = Option.get p.trace in
  let tree = t.tree in
  let ms x = per_op p x *. 1e3 in
  let d f = float_of_int (f p.c1 - f p.c0) in
  let window = p.window_sim_s in
  let util busy =
    Array.mapi (fun i b1 -> (b1 -. (busy p.c0).(i)) /. window) (busy p.c1)
  in
  let memnode_util = Array.fold_left Float.max 0.0 (util (fun c -> c.c_memnode_busy)) in
  let proxy_util =
    let u = util (fun c -> c.c_proxy_busy) in
    Array.fold_left ( +. ) 0.0 u /. float_of_int (Array.length u)
  in
  let spans lbls = List.fold_left (fun acc l -> acc +. Spantree.self_of tree l) 0.0 lbls in
  let count lbls = List.fold_left (fun acc l -> acc + Spantree.count_of tree l) 0 lbls in
  let mtx_lbls = [ "mtx.exec"; "mtx.prepare"; "mtx.commit" ] in
  let scans = float_of_int (latency p Scan |> Array.length) in
  let updates = float_of_int (latency p Write |> Array.length) in
  let gcw f = f untraced.gc1 -. f untraced.gc0 in
  [
    ("core.request_self_ms", ms (spans [ "bench.request" ]), "ms");
    ("core.proxy_util", proxy_util, "ratio");
    ("sinfonia.mtx_self_ms", ms (spans mtx_lbls), "ms");
    ("sinfonia.memnode_util_max", memnode_util, "ratio");
    ("sinfonia.memnode_queue_mean", t.memnode_queue_mean, "count");
    ("sinfonia.mtx_per_op", per_op p (float_of_int (count [ "mtx.exec"; "mtx.prepare" ])), "count");
    ( "sinfonia.2pc_frac",
      ratio (d (fun c -> c.c_mtx_2pc)) (d (fun c -> c.c_mtx_1pc + c.c_mtx_2pc)),
      "ratio" );
    ("sinfonia.busy_retries_per_op", per_op p (d (fun c -> c.c_busy)), "count");
    ("sinfonia.net_msgs_per_op", per_op p (d (fun c -> c.c_msgs)), "count");
    ("sinfonia.net_bytes_per_op", per_op p (d (fun c -> c.c_bytes)), "B");
    ("dyntxn.txn_self_ms", ms (spans [ "txn"; "txn.attempt"; "txn.commit" ]), "ms");
    ( "dyntxn.free_commit_frac",
      ratio (d (fun c -> c.c_free_commits)) (d (fun c -> c.c_txn_commits + c.c_free_commits)),
      "ratio" );
    ( "dyntxn.cache_hit_rate",
      ratio (d (fun c -> c.c_cache_hits)) (d (fun c -> c.c_cache_hits + c.c_cache_misses)),
      "ratio" );
    ( "dyntxn.attempts_per_txn",
      ratio (float_of_int (count [ "txn.attempt" ])) (float_of_int (count [ "txn" ])),
      "count" );
    ("dyntxn.validation_failures_per_op", per_op p (d (fun c -> c.c_validation)), "count");
    ("btree.traversal_self_ms", ms (spans [ "btree.traversal" ]), "ms");
    ("btree.splits_per_kop", per_op p (d (fun c -> c.c_splits)) *. 1e3, "count");
    ("btree.aborts_per_op", per_op p (d (fun c -> c.c_btree_aborts)), "count");
    ("btree.op_retries_per_op", per_op p (d (fun c -> c.c_op_retries)), "count");
    ("btree.materialisations_per_op", per_op p (d (fun c -> c.c_materialisations)), "count");
    ("btree.bytes_copied_per_op", per_op p (d (fun c -> c.c_bytes_copied)), "B");
    ("btree.scan_batch_self_ms", ms (spans [ "btree.scan_batch" ]), "ms");
    ( "btree.scan_leaves_per_rt",
      ratio (d (fun c -> c.c_scan_leaves)) (d (fun c -> c.c_scan_batches)),
      "count" );
    ("btree.scan_batch_aborts_per_scan", ratio (d (fun c -> c.c_scan_batch_aborts)) scans, "count");
    ("mvcc.scs_request_self_ms", ms (spans [ "scs.request"; "scs.create_snapshot" ]), "ms");
    ("mvcc.snapshots_created", d (fun c -> c.c_snapshots), "count");
    ( "mvcc.borrow_frac",
      ratio
        (d (fun c -> c.c_borrowed + c.c_stale_reused))
        (d (fun c -> c.c_snapshots + c.c_borrowed + c.c_stale_reused)),
      "ratio" );
    ("mvcc.cow_per_update", ratio (d (fun c -> c.c_cow)) updates, "count");
    ("mvcc.gc_slots_reclaimed", d (fun c -> c.c_gc_slots), "count");
    ("host.us_per_op", host_us_per_op untraced, "us");
    ("host.minor_words_per_op", per_op untraced (gcw (fun g -> g.minor)), "words");
    ("host.major_words_per_op", per_op untraced (gcw (fun g -> g.major)), "words");
    ( "host.major_collections",
      float_of_int (untraced.gc1.collections - untraced.gc0.collections),
      "count" );
    ( "check.host_us_per_event",
      ratio (t.check_host_s *. 1e6) (float_of_int t.check_events),
      "us" );
    ("check.events", float_of_int t.check_events, "count");
    ("trace.overhead_frac", (host_us_per_op p /. host_us_per_op untraced) -. 1.0, "ratio");
  ]

(* ------------------------------------------------------------------ *)
(* Output                                                             *)
(* ------------------------------------------------------------------ *)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_json ~correct ~attempted ~failed metrics =
  let body =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " body)

let print_metric (name, v, unit) =
  if Float.is_nan v then Printf.printf "  %-34s n/a\n" name
  else Printf.printf "  %-34s %.6g %s\n" name v unit

let describe p =
  Printf.printf "pass: workload=%s seed=%d traced=%b sim_window_s=%.4f host_window_s=%.3f\n"
    p.wl.name p.seed p.traced p.window_sim_s p.host_total_s;
  Printf.printf "  ops: attempted=%d completed=%d failed=%d\n" p.attempted p.completed p.failed;
  List.iter
    (fun cls ->
      let n = p.by_class.(class_index cls).len in
      let beyond = n - int_of_float (Float.ceil (0.99 *. float_of_int n)) in
      Printf.printf "  samples %-5s n=%d beyond_p99=%d%s\n" (class_name cls) n beyond
        (if n > 0 && beyond < 10 then "  (fewer than 10: p99 unresolved)" else ""))
    classes;
  Printf.printf "  tree: keys=%d leaves=%d internal_nodes=%d (proxy cache %d entries)\n"
    p.final_keys p.leaves p.internals Minuet.Config.default.Minuet.Config.cache_capacity;
  Printf.printf "  sim.digest=%016x\n" p.digest;
  List.iter (fun m -> Printf.printf "  CHECK FAILED: %s\n" m) p.failures

let usage () =
  prerr_endline
    "usage: minuet_perf.exe --workload (ycsb-load|ycsb-b-zipf|htap-scan) --seed N --seconds S \
     --trace (0|1)";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let rec parse = function
    | "--workload" :: v :: tl ->
        workload := v;
        parse tl
    | "--seed" :: v :: tl ->
        seed := int_of_string v;
        parse tl
    | "--seconds" :: v :: tl ->
        seconds := float_of_string v;
        parse tl
    | "--trace" :: v :: tl ->
        trace := int_of_string v;
        parse tl
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let wl =
    match List.find_opt (fun w -> String.equal w.name !workload) workloads with
    | Some w -> w
    | None -> usage ()
  in
  if !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then usage ();
  let self_test = Spantree.self_test () in
  List.iter (Printf.printf "SELF-TEST FAILED: %s\n") self_test;
  if !trace = 0 then begin
    let p = run_pass wl ~seed:!seed ~seconds:!seconds ~traced:false in
    let setups = [ p.setup_s; setup_only wl; setup_only wl ] in
    describe p;
    Printf.printf "  setup_s runs: %s\n"
      (String.concat " " (List.map (Printf.sprintf "%.3f") setups));
    let metrics = end_to_end p ~setup_s:(median setups) in
    Printf.printf "end-to-end metrics (%s):\n" wl.name;
    List.iter print_metric metrics;
    let correct = p.failures = [] && self_test = [] in
    print_json ~correct ~attempted:p.attempted ~failed:p.failed
      (List.filter (fun (n, _, _) -> List.mem n e2e_json) metrics);
    if not correct then exit 1
  end
  else begin
    let a = run_pass wl ~seed:!seed ~seconds:!seconds ~traced:false in
    Gc.compact ();
    let b = run_pass wl ~seed:!seed ~seconds:!seconds ~traced:true in
    describe a;
    describe b;
    let t = Option.get b.trace in
    Printf.printf "  trace: spans_walked=%d requests=%d orphans=%d lost_kinds=%d digest_match=%b\n"
      (Spantree.finalized t.tree) (Spantree.roots_counted t.tree) t.orphans (List.length t.lost)
      (a.digest = b.digest);
    Printf.printf "  checker: %s\n"
      (Format.asprintf "%a" Check.Stream.pp_verdict t.check_verdict
      |> String.map (fun c -> if c = '\n' then ' ' else c));
    Printf.printf "self time per op by layer (simulated ms; sums to %.4f of request latency):\n"
      (ratio
         (List.fold_left (fun acc l -> acc +. Spantree.layer_self t.tree l) 0.0 Spantree.layers)
         (Spantree.root_time t.tree));
    List.iter
      (fun l ->
        Printf.printf "  %-8s %.6f\n" (Spantree.layer_name l)
          (per_op b (Spantree.layer_self t.tree l) *. 1e3))
      Spantree.layers;
    let metrics = per_layer ~untraced:a b in
    Printf.printf "per-layer metrics (%s):\n" wl.name;
    List.iter print_metric metrics;
    (* Tracing only reads the program's state, so it must not change
       what is simulated. *)
    if a.digest <> b.digest then print_endline "  CHECK FAILED: tracing changed sim.digest";
    let correct = a.failures = [] && b.failures = [] && self_test = [] && a.digest = b.digest in
    print_json ~correct ~attempted:b.attempted ~failed:b.failed metrics;
    if not correct then exit 1
  end
