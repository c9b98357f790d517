type spike = { at : float; duration : float; factor : float }

type curve =
  | Constant of float
  | Diurnal of { base : float; peak : float; period : float; phase : float }
  | Closed_loop

type law = [ `Paced | `Poisson ]

type t = { curve : curve; law : law; spikes : spike list }

let check_rate r = if r < 0.0 then invalid_arg "Arrival: negative rate"

let constant ?(law = `Poisson) ?(spikes = []) rate =
  check_rate rate;
  { curve = Constant rate; law; spikes }

let diurnal ?(law = `Poisson) ?(spikes = []) ~base ~peak ~period ?(phase = 0.0) () =
  check_rate base;
  check_rate peak;
  if period <= 0.0 then invalid_arg "Arrival.diurnal: period must be positive";
  if peak < base then invalid_arg "Arrival.diurnal: peak must be >= base";
  { curve = Diurnal { base; peak; period; phase }; law; spikes }

let closed_loop = { curve = Closed_loop; law = `Paced; spikes = [] }

let two_pi = 8.0 *. atan 1.0

let curve_rate curve time =
  match curve with
  | Constant r -> r
  | Diurnal { base; peak; period; phase } ->
      (* Sinusoid from [base] (trough) to [peak] (crest). *)
      let s = (1.0 +. sin ((two_pi *. time /. period) +. phase)) /. 2.0 in
      base +. ((peak -. base) *. s)
  | Closed_loop -> invalid_arg "Arrival: a closed loop has no rate curve"

let spike_factor spikes time =
  List.fold_left
    (fun acc s ->
      if time >= s.at && time < s.at +. s.duration then acc *. s.factor else acc)
    1.0 spikes

let rate_at t time = curve_rate t.curve time *. spike_factor t.spikes time

(* Splitmix64 finalizer over the (seed, tenant_id) pair: per-tenant
   streams must depend on the id itself (not on spawn order), so two
   configs sharing a seed give each tenant the same schedule no matter
   how many other tenants exist. *)
let stream_seed ~seed ~tenant_id =
  let golden = 0x9E3779B97F4A7C15L in
  let z =
    Int64.add (Int64.of_int seed) (Int64.mul (Int64.of_int (tenant_id + 1)) golden)
  in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  Int64.to_int (Int64.logand z 0x3FFF_FFFF_FFFF_FFFFL)

(* Below this rate the process is considered off; skip forward instead
   of emitting an arrival every [1/epsilon] seconds. *)
let min_rate = 1e-6

let idle_step = 1e-3

let schedule t ~seed ~tenant_id ~until =
  if until < 0.0 then invalid_arg "Arrival.schedule: negative horizon";
  if t.curve = Closed_loop then invalid_arg "Arrival.schedule: a closed loop has no schedule";
  let rng = Sim.Rng.create (stream_seed ~seed ~tenant_id) in
  let acc = ref [] in
  let n = ref 0 in
  let time = ref 0.0 in
  while !time < until do
    let r = rate_at t !time in
    if r <= min_rate then time := !time +. (idle_step *. max 1.0 (until /. 100.0))
    else begin
      let gap =
        match t.law with
        | `Paced -> 1.0 /. r
        | `Poisson -> Sim.Rng.exponential rng ~mean:(1.0 /. r)
      in
      (* Zero-length gaps would stall the loop at very high rates. *)
      let gap = if gap < 1e-9 then 1e-9 else gap in
      time := !time +. gap;
      if !time < until then begin
        acc := !time :: !acc;
        incr n
      end
    end
  done;
  let arr = Array.make !n 0.0 in
  let rec fill i = function
    | [] -> ()
    | x :: rest ->
        arr.(i) <- x;
        fill (i - 1) rest
  in
  fill (!n - 1) !acc;
  arr
