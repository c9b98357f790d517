(** Production-traffic engine with per-tenant SLO gates.

    The YCSB driver ({!Ycsb.Driver}) answers "how fast can N closed
    loops go"; this library answers the operational question "does the
    system hold its latency objectives under production-shaped load".
    {!Arrival} turns rate curves — constant, diurnal, flash-crowd
    spikes — into deterministic per-tenant arrival schedules (split RNG
    streams: same seed, same schedule, byte-identical, regardless of
    tenant count or spawn order); its closed loop, used only by the
    fault storm, has no schedule. {!Tenant} describes a tenant: a
    contiguous keyspace slice, a key distribution, an op mix, an
    arrival curve, a provisioned concurrency and an {!Slo}. {!Engine}
    drives all tenants through the simulated cluster open-loop — every
    op's latency is measured from its {e scheduled} arrival, so
    queueing delay from under-provisioning lands in the tail quantiles
    instead of silently throttling the generator (coordinated
    omission) — while feeding every traced event to a streaming
    serializability checker and optionally overlapping a chaos nemesis
    in phases, with a structural audit after each phase and a
    batched-vs-per-leaf oracle on snapshot scans. It is the repo's one
    load driver: {!Scenario} holds the canned catalogue the bench CLI
    and CI run, and {!Scenario.chaos} the one-tenant, closed-loop fault storm
    behind [minuet_bench chaos]. *)

module Arrival = Arrival
module Slo = Slo
module Tenant = Tenant
module Engine = Engine
module Scenario = Scenario
