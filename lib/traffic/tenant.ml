(** One tenant of a multi-tenant traffic scenario.

    A tenant owns a contiguous slice of the ordinal key space (mapped
    through the order-preserving {!Ycsb.Keygen.key_of_int}, so slices
    are contiguous key ranges and land on distinct leaf runs), a key
    distribution over that slice, an operation mix, an open-loop
    arrival curve and an SLO. Tenants never write outside their slice,
    so per-tenant results are attributable even though all tenants
    share the same B-tree and memnodes — the interference {e between}
    tenants is exactly what the scenarios measure. *)

type distribution =
  | Uniform
  | Zipfian of float  (** theta *)
  | Latest
  | Hotspot of { op_frac : float; key_frac : float }

(** Operation mix weights (normalized internally; need not sum to 1).
    [snapshot] ops take an SCS snapshot and run two point reads and a
    range scan against it (the paper's analytics path); [branch] ops exercise
    branching-mode version traffic and are ignored unless the scenario
    runs a branching database. [remove] is drawn last, so the other
    kinds' draws do not depend on whether a mix removes. *)
type mix = {
  read : float;
  update : float;
  scan : float;
  snapshot : float;
  branch : float;
  remove : float;
}

let read_mostly =
  { read = 0.9; update = 0.1; scan = 0.0; snapshot = 0.0; branch = 0.0; remove = 0.0 }

let update_heavy =
  { read = 0.45; update = 0.55; scan = 0.0; snapshot = 0.0; branch = 0.0; remove = 0.0 }

let scan_heavy =
  { read = 0.2; update = 0.2; scan = 0.35; snapshot = 0.25; branch = 0.0; remove = 0.0 }

let analytics =
  { read = 0.1; update = 0.0; scan = 0.1; snapshot = 0.8; branch = 0.0; remove = 0.0 }

let branchy =
  { read = 0.3; update = 0.3; scan = 0.1; snapshot = 0.0; branch = 0.3; remove = 0.0 }

type t = {
  name : string;
  keys : int;  (** Slice size (ordinals [\[0, keys)] within the slice). *)
  distribution : distribution;
  mix : mix;
  scan_count : int;  (** Range length for scan and snapshot-scan ops. *)
  arrival : Arrival.t;
  concurrency : int;
      (** Provisioned worker sessions draining this tenant's arrival
          queue — the tenant's capacity. Under-provisioning against the
          arrival curve is how an SLO gets broken. *)
  slo : Slo.t;
}

let make ?(keys = 256) ?(distribution = Uniform) ?(mix = read_mostly) ?(scan_count = 8)
    ?(concurrency = 4) ?slo ~arrival name =
  if keys <= 0 then invalid_arg "Tenant.make: keys must be positive";
  if concurrency <= 0 then invalid_arg "Tenant.make: concurrency must be positive";
  if scan_count <= 0 then invalid_arg "Tenant.make: scan_count must be positive";
  let total = mix.read +. mix.update +. mix.scan +. mix.snapshot +. mix.branch +. mix.remove in
  if total <= 0.0 then invalid_arg "Tenant.make: empty mix";
  let slo = match slo with Some s -> s | None -> Slo.make () in
  { name; keys; distribution; mix; scan_count; arrival; concurrency; slo }

let keygen t =
  match t.distribution with
  | Uniform -> Ycsb.Keygen.uniform ~n:t.keys
  | Zipfian theta -> Ycsb.Keygen.zipfian ~theta ~n:t.keys ()
  | Latest -> Ycsb.Keygen.latest ~n:t.keys
  | Hotspot { op_frac; key_frac } -> Ycsb.Keygen.hotspot ~op_frac ~key_frac ~n:t.keys ()

(** The concrete op kinds a worker executes. *)
type op_kind = Read | Update | Scan | Snapshot_read | Branch_op | Remove

let draw_op t rng =
  let m = t.mix in
  let to_branch = m.read +. m.update +. m.scan +. m.snapshot +. m.branch in
  let pick = Sim.Rng.float rng (to_branch +. m.remove) in
  if pick < m.read then Read
  else if pick < m.read +. m.update then Update
  else if pick < m.read +. m.update +. m.scan then Scan
  else if pick < m.read +. m.update +. m.scan +. m.snapshot then Snapshot_read
  else if pick < to_branch || m.remove = 0.0 then Branch_op
  else Remove
