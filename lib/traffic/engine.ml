(* The open-loop scenario runner.

   Architecture (per tenant): a dispatcher process walks the tenant's
   precomputed arrival schedule and enqueues each operation into a FIFO
   at its scheduled instant; a fixed pool of [concurrency] worker
   sessions drains the queue. Latency is measured from the *scheduled
   arrival*, not from the moment a worker picked the op up, so the
   reported quantiles include queueing delay: a tenant whose provisioned
   capacity can't keep up with its arrival curve shows the backlog as
   tail latency instead of silently slowing the generator down
   (coordinated omission, the closed-loop failure mode).

   Every session is traced into a streaming serializability checker
   ({!Check.Stream}), so a scenario doesn't just measure the system
   under production-shaped load — it verifies it. With a fault mix
   ([chaos]) the run becomes a phased storm: a structural audit after
   every nemesis phase, and every linear snapshot scan re-run through
   the per-leaf path as an oracle for the batched one. *)

module Session = Minuet.Session
module Db = Minuet.Db
module Harness = Minuet.Harness
module Mconfig = Minuet.Config
module Cluster = Sinfonia.Cluster
module Ops = Btree.Ops
module Hist = Sim.Stats.Hist

(** Deliberately injected bugs, for proving that the checker and the
    audits can fail a run. *)
type bug =
  | Dirty_leaf_reads  (** Skip leaf validation on read-only traversals. *)
  | Skip_redo_replay
      (** Skip the redo-log replay on replica promotion and recovery, so
          committed-but-unmirrored writes are lost. *)
  | Branch_leak
      (** Reads at read-only versions leak the mainline tip's writes.
          Needs [branching]. *)

type config = {
  name : string;
  seed : int;
  duration : float;  (** Seconds of simulated time arrivals are scheduled over. *)
  hosts : int;
  tenants : Tenant.t list;
  scs_k : float;  (** Snapshot staleness bound (checker relaxed by exactly k). *)
  chaos : Chaos.Nemesis.kind list;  (** Empty = no fault injection. *)
  chaos_phases : int;
  branching : bool;  (** Run the database in branching mode (Sec. 5). *)
  mode : Ops.mode;  (** Concurrency-control mode the trees run under. *)
  bug : bug option;  (** [None] for honest runs. *)
  trace_out : string option;
      (** Tee every traced event to this file as JSON lines
          ({!Minuet.Session.Event.to_json}), for offline re-checking. *)
}

let default =
  {
    name = "traffic";
    seed = 1;
    duration = 1.0;
    hosts = 4;
    tenants = [];
    scs_k = 0.0;
    chaos = [];
    chaos_phases = 2;
    branching = false;
    mode = Ops.Dirty_traversal;
    bug = None;
    trace_out = None;
  }

type tenant_result = {
  tenant : Tenant.t;
  offered : int;  (** Scheduled arrivals. *)
  completed : int;
  errors : int;  (** Contention give-ups and ambiguous outcomes. *)
  branch_blocked : int;  (** Catalog refusals under the β bound (not errors). *)
  latency : Hist.t;  (** Open loop: scheduled arrival -> completion, seconds. *)
  service : Hist.t;  (** Issue -> completion. *)
  queueing : Hist.t;  (** Scheduled arrival -> issue. *)
  throughput : float;  (** Completed ops per second of traffic window. *)
  slo : Slo.verdict;
}

type report = {
  config : config;
  tenants : tenant_result list;
  verdict : Check.Stream.verdict;
  audits : int;
  audit_failures : string list;
  dual_scans : int;  (** Snapshot scans re-checked against the per-leaf path. *)
  after_storm : int;
      (** Ops completed after the last nemesis phase: fault-free backlog
          drain that adds no fault coverage. *)
  events : int;  (** History events fed to the checker. *)
  fault_counts : (string * int) list;
  sim_time : float;
}

let slo_ok r = List.for_all (fun t -> Slo.ok t.slo) r.tenants

let passed r = Check.Stream.ok r.verdict && r.audit_failures = [] && slo_ok r

let pp_tenant_result fmt t =
  Format.fprintf fmt
    "@[<h>%-12s offered=%-6d done=%-6d err=%-4d tput=%-7.0f lat p50=%.3fms p99=%.3fms \
     p999=%.3fms queue p99=%.3fms | %a@]"
    t.tenant.Tenant.name t.offered t.completed t.errors t.throughput
    (Hist.quantile t.latency 0.5 *. 1e3)
    (Hist.quantile t.latency 0.99 *. 1e3)
    (Hist.p999 t.latency *. 1e3)
    (Hist.quantile t.queueing 0.99 *. 1e3)
    Slo.pp_verdict t.slo

let pp_report fmt r =
  Format.fprintf fmt "@[<v>scenario %s (seed %d, %d tenants%s):@," r.config.name r.config.seed
    (List.length r.config.tenants)
    (if r.config.chaos = [] then "" else ", chaos");
  List.iter (fun t -> Format.fprintf fmt "%a@," pp_tenant_result t) r.tenants;
  Format.fprintf fmt "history: %d events@,audits: %d passed" r.events r.audits;
  if r.dual_scans > 0 then Format.fprintf fmt ", %d dual scans" r.dual_scans;
  List.iter (fun msg -> Format.fprintf fmt "@,AUDIT FAILED: %s" msg) r.audit_failures;
  if r.config.chaos <> [] then begin
    Format.fprintf fmt "@,faults:";
    List.iter
      (fun (name, v) -> if v > 0 || name = "total" then Format.fprintf fmt " %s=%d" name v)
      r.fault_counts;
    Format.fprintf fmt "@,ops completed after the last phase: %d" r.after_storm
  end;
  Format.fprintf fmt "@,%a@,simulated time: %.3fs@]" Check.Stream.pp_verdict r.verdict
    r.sim_time

(* Per-tenant mutable measurement state shared between its workers. *)
type meter = {
  mutable m_offered : int;
  mutable m_completed : int;
  mutable m_errors : int;
  mutable m_blocked : int;
  m_latency : Hist.t;
  m_service : Hist.t;
  m_queueing : Hist.t;
}

type queue_msg = Arrive of float | Stop

(* Shared frozen-version registry for branching traffic (cooperative
   sim: plain mutation is safe). Bounded; the survivors are
   structurally audited after every nemesis phase and at the end. *)
type branch_state = { mutable frozen : int64 list }

let note_frozen bs sid =
  if not (List.mem sid bs.frozen) then
    bs.frozen <-
      sid
      :: (if List.length bs.frozen >= 16 then List.filteri (fun i _ -> i < 15) bs.frozen
          else bs.frozen)

let lease = 0.05

let key_of ~offset ordinal = Ycsb.Keygen.key_of_int (offset + ordinal)

let validate (cfg : config) =
  if cfg.tenants = [] then invalid_arg "Traffic.Engine.run: no tenants";
  if cfg.duration <= 0.0 then invalid_arg "Traffic.Engine.run: duration must be positive";
  if cfg.chaos <> [] && cfg.chaos_phases <= 0 then
    invalid_arg "Traffic.Engine.run: chaos_phases must be positive";
  if cfg.bug = Some Branch_leak && not cfg.branching then
    invalid_arg "Traffic.Engine.run: Branch_leak needs a branching database"

let run_exn ~audits ~audit_failures (cfg : config) =
  let mconfig =
    Mconfig.small_tree
      {
        Mconfig.default with
        Mconfig.hosts = cfg.hosts;
        mode = cfg.mode;
        branching = cfg.branching;
        broken_branch_isolation = cfg.bug = Some Branch_leak;
        unsafe_dirty_leaf_reads = cfg.bug = Some Dirty_leaf_reads;
        scs_min_interval = cfg.scs_k;
        sinfonia =
          {
            Sinfonia.Config.default with
            Sinfonia.Config.broken_recovery = cfg.bug = Some Skip_redo_replay;
            (* Short in-doubt grace so the resolver fires within a
               phase; infinite decision retention so the final 2PC
               cross-check sees every decision record. *)
            in_doubt_grace = 0.06;
            decision_retention = infinity;
          };
      }
  in
  Harness.run ~seed:cfg.seed ~until:((cfg.duration *. 6.) +. 30.) ~config:mconfig @@ fun db ->
  let cluster = Db.cluster db in
  let n = Cluster.n_memnodes cluster in
  (* Orphaned-lock recovery must be running: stall faults are healed
     only by the lease daemon. *)
  Cluster.start_recovery ~lease ~interval:0.02 cluster;
  let scs_staleness = if cfg.scs_k > 0.0 then Some cfg.scs_k else None in
  let stream =
    Check.Stream.create { Check.Stream.Config.default with Check.Stream.Config.scs_staleness }
  in
  let trace_tee = Option.map open_out cfg.trace_out in
  let tracer ev =
    Option.iter
      (fun oc ->
        output_string oc (Obs.Json.to_string (Session.Event.to_json ev));
        output_char oc '\n')
      trace_tee;
    Check.Stream.feed stream ev
  in
  for idx = 0 to Db.n_trees db - 1 do
    Mvcc.Scs.set_on_create (Db.scs db ~index:idx) (fun ~sid ~stamp ->
        Check.Stream.add_creation stream ~index:idx ~sid ~stamp)
  done;
  let audit_failed msg = audit_failures := !audit_failures @ [ msg ] in
  let audit label f =
    match (f () : (string * string) list) with
    | entries ->
        incr audits;
        Some entries
    | exception Failure msg ->
        audit_failed (Printf.sprintf "%s: %s" label msg);
        None
  in
  (* Slice the ordinal space: tenant i owns [offsets.(i), offsets.(i) +
     keys), mapped through the order-preserving key format. *)
  let tenants = Array.of_list cfg.tenants in
  let offsets = Array.make (Array.length tenants) 0 in
  let _ =
    Array.fold_left
      (fun (i, off) (t : Tenant.t) ->
        offsets.(i) <- off;
        (i + 1, off + t.Tenant.keys))
      (0, 0) tenants
  in
  (* Preload half of every slice through a traced session so the
     checker's model includes the initial state. *)
  let loader = Session.attach ~tracer db in
  Array.iteri
    (fun i (t : Tenant.t) ->
      for o = 0 to t.Tenant.keys - 1 do
        if o mod 2 = 0 then begin
          let k = key_of ~offset:offsets.(i) o and v = Printf.sprintf "init-%d-%d" i o in
          if cfg.branching then Mvcc.Branching.put (Session.branching loader) k v
          else Session.put loader k v
        end
      done)
    tenants;
  (* Per-tenant schedules, meters, queues and RNG streams. *)
  let op_rng_root = Sim.Rng.create (Arrival.stream_seed ~seed:cfg.seed ~tenant_id:0x0ddba11) in
  let finished = Sim.Ivar.create () in
  let live_workers =
    ref (Array.fold_left (fun acc (t : Tenant.t) -> acc + t.Tenant.concurrency) 0 tenants)
  in
  let worker_seq = ref 0 in
  let meters = Array.map (fun _ -> {
        m_offered = 0;
        m_completed = 0;
        m_errors = 0;
        m_blocked = 0;
        m_latency = Hist.create ();
        m_service = Hist.create ();
        m_queueing = Hist.create ();
      }) tenants
  in
  let closed (t : Tenant.t) = t.Tenant.arrival.Arrival.curve = Arrival.Closed_loop in
  let schedules =
    Array.mapi
      (fun i (t : Tenant.t) ->
        if closed t then [||]
        else Arrival.schedule t.Tenant.arrival ~seed:cfg.seed ~tenant_id:i ~until:cfg.duration)
      tenants
  in
  let storm_over = ref false and after_storm = ref 0 in
  let bstates = Array.map (fun _ -> { frozen = [] }) tenants in
  (* Batched-vs-per-leaf oracle for linear snapshot scans under faults.
     Snapshots are immutable, so both paths must return the same
     entries; a difference is a batching bug and fails the run. *)
  let dual_scans = ref 0 in
  let scan_mismatches = ref 0 in
  let dual_scan_check session ((snap : Session.snapshot), from, count, batched) =
    let tree = Session.tree_of session (Session.index db snap.Session.index) in
    let vctx_of _txn = Ops.Linear.at_snapshot tree ~sid:snap.Session.sid ~root:snap.Session.root in
    match Ops.scan ~batch:1 tree ~vctx_of ~from ~count with
    | per_leaf ->
        incr dual_scans;
        let same (k1, v1) (k2, v2) = String.equal k1 k2 && String.equal v1 v2 in
        if not (List.equal same batched per_leaf) then incr scan_mismatches
    | exception (Ops.Too_contended _ | Ops.Ambiguous _) -> ()
  in
  (* Schedules are offsets from the start of traffic, not from sim time
     zero: the preload above consumed simulated time, and anchoring at
     zero would make every arrival scheduled during it instantly late. *)
  let traffic_start = Sim.now () in
  let window_end = traffic_start +. cfg.duration in
  Array.iteri
    (fun ti (tenant : Tenant.t) ->
      let offset = offsets.(ti) in
      let meter = meters.(ti) in
      let queue : queue_msg Sim.Mailbox.t = Sim.Mailbox.create () in
      let keygen = Tenant.keygen tenant in
      let rng = Sim.Rng.split op_rng_root in
      let bstate = bstates.(ti) in
      let count = tenant.Tenant.scan_count in
      let pick_key () = key_of ~offset (Ycsb.Keygen.next keygen rng) in
      (* Returns the snapshot scan to re-check through the per-leaf
         path, if any; the check runs after the op's latency is
         recorded. *)
      let exec_linear session value kind =
        let k = pick_key () in
        match (kind : Tenant.op_kind) with
        | Tenant.Read ->
            ignore (Session.get session k : string option);
            None
        | Tenant.Update ->
            Session.put session k (value ());
            None
        | Tenant.Remove ->
            ignore (Session.remove session k : bool);
            None
        | Tenant.Scan ->
            ignore (Session.scan session ~from:k ~count : (string * string) list);
            None
        | Tenant.Snapshot_read ->
            let snap = Session.snapshot session in
            ignore (Session.get_at session snap k : string option);
            ignore (Session.get_at session snap (pick_key ()) : string option);
            let batched = Session.scan_at session snap ~from:k ~count in
            if cfg.chaos = [] then None else Some (snap, k, count, batched)
        | Tenant.Branch_op ->
            (* Linear database: downgrade to a snapshot read. *)
            let snap = Session.snapshot session in
            ignore (Session.get_at session snap k : string option);
            None
      in
      let exec_branching session tips value kind =
        let module B = Mvcc.Branching in
        let br = Session.branching session in
        let k = pick_key () in
        (match (kind : Tenant.op_kind) with
        | Tenant.Read -> ignore (B.get br k : string option)
        | Tenant.Update -> B.put br k (value ())
        | Tenant.Remove -> ignore (B.remove br k : bool)
        | Tenant.Scan -> (
            (* Pin scans to a frozen version when one exists: immutable,
               so they never abort under concurrent updates (the
               branching-mode analogue of scan_at, Sec. 6.3). *)
            match bstate.frozen with
            | [] -> ignore (B.scan br ~from:k ~count : (string * string) list)
            | sid :: _ -> ignore (B.scan br ~at:sid ~from:k ~count : (string * string) list))
        | Tenant.Snapshot_read -> (
            (* Version-pinned read: the frozen-ancestor rule checks it. *)
            match bstate.frozen with
            | [] -> ignore (B.get br k : string option)
            | sid :: _ ->
                ignore (B.get br ~at:sid k : string option);
                ignore (B.scan br ~at:sid ~from:k ~count : (string * string) list))
        | Tenant.Branch_op -> (
            let newest_tip = match !tips with tip :: _ -> Some tip | [] -> None in
            match Sim.Rng.int rng 8 with
            | 0 | 1 ->
                (* A tip we branch from freezes; on an ambiguous outcome
                   drop it from the writable set — writing to a
                   maybe-frozen version would be a real isolation bug,
                   not injected noise. *)
                let from = Option.value newest_tip ~default:0L in
                let cleanup () =
                  tips := List.filter (fun t -> not (Int64.equal t from)) !tips;
                  note_frozen bstate from
                in
                let sid =
                  try B.create_branch br ~from
                  with Ops.Ambiguous _ as e ->
                    cleanup ();
                    raise e
                in
                cleanup ();
                tips := sid :: !tips
            | 2 -> (
                (* Retire the oldest clone; stop touching it first, so an
                   ambiguous delete cannot strand later writes. *)
                match List.rev !tips with
                | [] -> ignore (B.get br k : string option)
                | oldest :: _ ->
                    tips := List.filter (fun t -> not (Int64.equal t oldest)) !tips;
                    B.delete_branch br oldest)
            | 3 ->
                (* Horizontal query across the mainline, the newest frozen
                   version and our newest clone, read atomically. *)
                let at =
                  (0L :: (match bstate.frozen with sid :: _ -> [ sid ] | [] -> []))
                  @ Option.to_list newest_tip
                in
                ignore (B.get_many br ~at k : (int64 * string option) list)
            | 4 ->
                (* Vertical query up our newest clone's ancestor chain. *)
                let from = Option.value newest_tip ~default:0L in
                ignore (B.history br ~from k : (int64 * string option) list)
            | 5 -> (
                match newest_tip with
                | None -> ignore (B.remove br k : bool)
                | Some tip -> ignore (B.remove br ~at:tip k : bool))
            | _ -> (
                match newest_tip with
                | None -> B.put br k (value ())
                | Some tip -> B.put br ~at:tip k (value ()))));
        None
      in
      (* Dispatcher: offer each op at its scheduled instant. A closed
         loop has none; its workers issue back to back until the window
         ends. *)
      if not (closed tenant) then
        Sim.spawn ~name:(Printf.sprintf "traffic-dispatch-%s" tenant.Tenant.name) (fun () ->
            Array.iter
              (fun at ->
                let scheduled = traffic_start +. at in
                let gap = scheduled -. Sim.now () in
                if gap > 0.0 then Sim.delay gap;
                Sim.Mailbox.send queue (Arrive scheduled))
              schedules.(ti);
            for _ = 1 to tenant.Tenant.concurrency do
              Sim.Mailbox.send queue Stop
            done);
      let next_arrival () =
        if closed tenant then if Sim.now () < window_end then Arrive (Sim.now ()) else Stop
        else Sim.Mailbox.recv queue
      in
      (* Worker pool: the tenant's provisioned capacity. *)
      for _w = 0 to tenant.Tenant.concurrency - 1 do
        let wid = !worker_seq in
        incr worker_seq;
        let session = Session.attach ~home:(wid mod n) ~client:(n + wid) ~tracer db in
        let op_count = ref 0 in
        (* Written values are unique per run: the checker tells writes
           apart by value, both to resolve ambiguous ops and to catch
           stale reads. *)
        let value () = Printf.sprintf "t%d-w%d-%d" ti wid !op_count in
        let tips = ref [] in
        let exec kind =
          if cfg.branching then exec_branching session tips value kind
          else exec_linear session value kind
        in
        Sim.spawn ~name:(Printf.sprintf "traffic-%s-w%d" tenant.Tenant.name wid) (fun () ->
            let rec loop () =
              match next_arrival () with
              | Stop ->
                  decr live_workers;
                  if !live_workers = 0 then Sim.Ivar.fill finished ()
              | Arrive scheduled ->
                  let issued = Sim.now () in
                  Hist.add meter.m_queueing (issued -. scheduled);
                  meter.m_offered <- meter.m_offered + 1;
                  incr op_count;
                  let kind = Tenant.draw_op tenant rng in
                  (match exec kind with
                  | recheck ->
                      let now = Sim.now () in
                      meter.m_completed <- meter.m_completed + 1;
                      Hist.add meter.m_latency (now -. scheduled);
                      Hist.add meter.m_service (now -. issued);
                      if !storm_over then incr after_storm;
                      Option.iter (dual_scan_check session) recheck
                  | exception Ops.Too_contended _ -> meter.m_errors <- meter.m_errors + 1
                  | exception Ops.Ambiguous _ -> meter.m_errors <- meter.m_errors + 1
                  | exception
                      ( Mvcc.Branching.Too_many_branches _ | Mvcc.Branching.Not_deletable _
                      | Mvcc.Branching.No_mainline _ ) ->
                      meter.m_blocked <- meter.m_blocked + 1);
                  (* Some branching ops return without simulated time
                     passing; a closed loop must not spin at one
                     instant on them. *)
                  if closed tenant && Sim.now () = issued then Sim.delay 1e-6;
                  loop ()
            in
            loop ())
      done)
    tenants;
  let admin = Session.attach db in
  (* Structural audits that are safe under concurrent traffic: a linear
     index is walked at a fresh snapshot, a branching one over every
     registered frozen version (both immutable; GC is off). [stage]
     prefixes every failure, so a phase audit's catch is told apart from
     the final audit's. *)
  let audit_versions stage =
    let br = Session.branching admin in
    Array.iteri
      (fun ti bstate ->
        List.iter
          (fun sid ->
            ignore
              (audit (Printf.sprintf "%s, tenant %d version %Ld" stage ti sid) (fun () ->
                   Ops.audit (Mvcc.Branching.tree br) ~sid
                     ~root:(Mvcc.Branching.root_of br ~sid))
                : (string * string) list option))
          bstate.frozen)
      bstates
  in
  let audit_phase phase =
    let stage = Printf.sprintf "phase %d" phase in
    if cfg.branching then audit_versions stage
    else
      for idx = 0 to Db.n_trees db - 1 do
        ignore
          (audit (Printf.sprintf "%s, index %d" stage idx) (fun () ->
               let index = Session.index db idx in
               let snap = Session.snapshot ~index admin in
               Ops.audit (Session.tree_of admin index) ~sid:snap.Session.sid
                 ~root:snap.Session.root)
            : (string * string) list option)
      done
  in
  (* Chaos overlap: phased storms while the traffic runs. Each phase
     heals everything it broke, lets the lease daemon reap orphaned
     stall locks and the in-doubt resolver pass its grace period, then
     audits. *)
  let scs = Array.init (Db.n_trees db) (fun i -> Db.scs db ~index:i) in
  let nemesis = Chaos.Nemesis.create ~cluster ~scs ~n_clients:!worker_seq in
  if cfg.chaos <> [] then begin
    let nrng = Sim.Rng.create (cfg.seed lxor 0xc4a05) in
    let phase_dur = cfg.duration /. float_of_int cfg.chaos_phases in
    for phase = 1 to cfg.chaos_phases do
      Chaos.Nemesis.start nemesis ~rng:nrng cfg.chaos;
      Sim.delay phase_dur;
      Chaos.Nemesis.stop_and_drain nemesis;
      Chaos.Nemesis.recover_all nemesis;
      Sim.delay (lease +. 0.12);
      audit_phase phase
    done;
    storm_over := true
  end;
  Sim.Ivar.read finished;
  if cfg.chaos <> [] then begin
    Chaos.Nemesis.recover_all nemesis;
    Sim.delay (lease +. 0.12);
    (* Quiesce the in-doubt set before the final cross-checks. *)
    let rec drain tries =
      if tries > 0 && Cluster.in_doubt_total cluster > 0 then begin
        Sim.delay 0.05;
        drain (tries - 1)
      end
    in
    drain 40
  end;
  (* Final structural audits, then the checker verdict. Branching mode
     has no meaningful tip, so its frozen versions stand in for it. *)
  let final =
    if cfg.branching then begin
      audit_versions "final";
      []
    end
    else
      List.filter_map
        (fun idx ->
          let tree = Session.tree_of admin (Session.index db idx) in
          audit (Printf.sprintf "final, index %d" idx) (fun () ->
              let sid, root = Ops.run_txn tree (fun txn -> Ops.Linear.read_tip tree txn) in
              Ops.audit tree ~sid ~root)
          |> Option.map (fun entries -> (idx, entries)))
        (List.init (Db.n_trees db) Fun.id)
  in
  if !scan_mismatches > 0 then
    audit_failed
      (Printf.sprintf "%d of %d dual scans: batched result differed from per-leaf scan"
         !scan_mismatches !dual_scans);
  Option.iter close_out trace_tee;
  let events = Check.Stream.fed stream in
  let verdict =
    Check.Stream.finish ~final
      ~twopc:(Cluster.redo_decisions cluster)
      ~in_doubt:(Cluster.in_doubt_total cluster)
      stream
  in
  let tenant_results =
    List.of_seq
      (Seq.mapi
         (fun ti (tenant : Tenant.t) ->
           let meter = meters.(ti) in
           let offered = meter.m_offered in
           let slo =
             Slo.evaluate tenant.Tenant.slo ~latency:meter.m_latency ~offered
               ~errors:meter.m_errors
           in
           {
             tenant;
             offered;
             completed = meter.m_completed;
             errors = meter.m_errors;
             branch_blocked = meter.m_blocked;
             latency = meter.m_latency;
             service = meter.m_service;
             queueing = meter.m_queueing;
             throughput = float_of_int meter.m_completed /. cfg.duration;
             slo;
           })
         (Array.to_seq tenants))
  in
  {
    config = cfg;
    tenants = tenant_results;
    verdict;
    audits = !audits;
    audit_failures = !audit_failures;
    dual_scans = !dual_scans;
    after_storm = !after_storm;
    events;
    fault_counts = Chaos.Nemesis.fault_counts (Db.obs db);
    sim_time = Sim.now ();
  }

(* With a bug injected, the corruption can crash the run itself (a lost
   committed write can wedge a traversal or starve snapshot creation)
   before the checker sees the history. That is still the bug being
   caught, so a [Failure] is reported as a failed run. Any other
   exception propagates, and honest runs propagate everything: a
   harness bug such as an out-of-bounds index is never counted as a
   catch. The config is validated first, so a bad config is never
   mistaken for a caught bug either. *)
let run cfg =
  validate cfg;
  (* Kept outside the simulation so that a crash report still carries
     the audits that failed before the crash. *)
  let audits = ref 0 and audit_failures = ref [] in
  match cfg.bug with
  | None -> run_exn ~audits ~audit_failures cfg
  | Some _ -> (
      match run_exn ~audits ~audit_failures cfg with
      | report -> report
      | exception (Failure _ as e) ->
          let crashed =
            {
              Check.Checker.v_index = -1;
              v_message =
                "run crashed before the checker could complete: " ^ Printexc.to_string e;
              v_event = None;
              v_context = [];
            }
          in
          {
            config = cfg;
            tenants = [];
            verdict =
              {
                Check.Checker.violations = [ crashed ];
                inconclusive = [];
                ops_checked = 0;
                snapshot_reads_checked = 0;
                branch_reads_checked = 0;
                candidates_resolved = 0;
                twopc_checked = 0;
              };
            audits = !audits;
            audit_failures = !audit_failures;
            dual_scans = 0;
            after_storm = 0;
            events = 0;
            fault_counts = [];
            sim_time = 0.0;
          })
