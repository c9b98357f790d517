(** Deterministic chaos engine for Minuet.

    {!Nemesis} injects faults driven by the simulation RNG — memnode
    crash/recover storms, mid-2PC crashes, client-to-memnode and
    mirror-link partitions, replica lag, latency/loss spikes,
    coordinator stalls that orphan locks mid-2PC, and snapshot service
    outages. Load under faults comes from [Traffic.Engine], which runs
    the nemesis in phases with a structural audit after each and feeds
    every traced event to the streaming checker ({!Check.Stream});
    [minuet_bench chaos] is its one-tenant storm. {!Histgen}
    synthesizes chaos-shaped histories at scales a real run can't
    reach, for checker benchmarks and falsification. A whole run is a
    pure function of its seed: same seed, same faults, same history,
    same verdict. *)

module Nemesis = Nemesis
module Histgen = Histgen
