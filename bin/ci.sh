#!/bin/sh
# Repo CI: build, run the test suite, check formatting where an
# .ocamlformat-governed formatter is available, and smoke-test the
# observability pipeline end to end (run a workload, emit
# BENCH_smoke.json, validate it with the in-repo JSON parser).
set -eu

cd "$(dirname "$0")/.."

smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT

echo "== dune build =="
dune build

echo "== dune runtest =="
dune runtest

if command -v ocamlformat >/dev/null 2>&1; then
  echo "== dune build @fmt =="
  dune build @fmt
else
  echo "== skipping @fmt (ocamlformat not installed) =="
fi

echo "== static analysis (minuet_lint) =="
# Two-phase invariant linter (DESIGN.md Secs. 13 and 17): per-file
# expression rules plus the interprocedural pass (transitive nondet
# reach, crash-swallow through call chains, 2PC op ordering, blocking
# under held locks). Fails on any unsuppressed finding; emits
# BENCH_lint.json and runs the fixture self-test, which includes the
# cross-module xmod/xswallow trees.
dune build @lint
lint="_build/default/bin/minuet_lint.exe"
"$lint" --json "$smoke_dir/BENCH_lint.json" lib bin test bench examples
"$lint" --quiet --fixtures test/lint_fixtures

echo "== lint wall-time budget =="
# The whole-repo pass above self-reports its wall time; a fixpoint or
# splice pass gone quadratic shows up here long before it hurts CI.
wall_ms=$(tr ',' '\n' < "$smoke_dir/BENCH_lint.json" \
  | sed -n 's/.*"wall_ms": *\([0-9][0-9]*\).*/\1/p' | head -n 1)
if [ -z "$wall_ms" ]; then
  echo "ERROR: BENCH_lint.json has no wall_ms field" >&2
  exit 1
fi
if [ "$wall_ms" -gt 10000 ]; then
  echo "ERROR: whole-repo lint took ${wall_ms}ms (budget 10000ms)" >&2
  exit 1
fi
echo "lint wall time: ${wall_ms}ms (budget 10000ms)"

echo "== lint falsifiability (each rule can fail the build) =="
# Seed each rule's bad fixture as a protocol source: the linter must
# reject it, and must go quiet when exactly that rule is disabled — a
# rule that can never fire protects nothing. protocol-order and
# blocking-under-lock are interprocedural but single-file-triggerable,
# so they ride the same loop.
for rule in crashed-swallow nondet-iteration wallclock-rng \
            stringly-metrics partial-stdlib poly-compare \
            protocol-order blocking-under-lock; do
  seeded="$smoke_dir/seeded.ml"
  cp "test/lint_fixtures/bad_$(echo "$rule" | tr - _).ml" "$seeded"
  if "$lint" --quiet --as lib/sinfonia/seeded.ml "$seeded" >/dev/null 2>&1; then
    echo "ERROR: rule $rule did not flag its seeded violation" >&2
    exit 1
  fi
  if ! "$lint" --quiet --as lib/sinfonia/seeded.ml --disable "$rule" "$seeded" \
      >/dev/null 2>&1; then
    echo "ERROR: disabling $rule did not silence its seeded violation" >&2
    exit 1
  fi
done

# crash-swallow-transitive excludes protocol paths (the syntactic rule
# owns those), so its seed lands on a non-protocol path instead.
rule=crash-swallow-transitive
seeded="$smoke_dir/seeded.ml"
cp test/lint_fixtures/bad_crash_swallow_transitive.ml "$seeded"
if "$lint" --quiet --as lib/traffic/seeded.ml "$seeded" >/dev/null 2>&1; then
  echo "ERROR: rule $rule did not flag its seeded violation" >&2
  exit 1
fi
if ! "$lint" --quiet --as lib/traffic/seeded.ml --disable "$rule" "$seeded" \
    >/dev/null 2>&1; then
  echo "ERROR: disabling $rule did not silence its seeded violation" >&2
  exit 1
fi

# transitive-nondet only fires when the source lives outside the
# determinism scope of its caller, which no single file can express:
# seed the cross-module xmod tree as lib/ via the --as directory form.
rule=transitive-nondet
if "$lint" --quiet --as lib test/lint_fixtures/xmod/lib >/dev/null 2>&1; then
  echo "ERROR: rule $rule did not flag its seeded violation" >&2
  exit 1
fi
if ! "$lint" --quiet --as lib --disable "$rule" test/lint_fixtures/xmod/lib \
    >/dev/null 2>&1; then
  echo "ERROR: disabling $rule did not silence its seeded violation" >&2
  exit 1
fi

echo "== observability smoke =="
dune exec bin/minuet_bench.exe -- smoke --dir "$smoke_dir"
dune exec bin/minuet_bench.exe -- check-report "$smoke_dir/BENCH_smoke.json"

echo "== size-hinted reads =="
# Proxies size node fetches from used-length hints (DESIGN.md Sec. 18).
# The smoke run must issue hinted reads, and objects that outgrew their
# hint (re-fetched at full slot length) must stay below 1% of them.
smoke_counter() {
  tr ',' '\n' < "$smoke_dir/BENCH_smoke.json" \
    | sed -n "s/.*\"$1\": *\([0-9][0-9]*\).*/\1/p" | head -n 1
}
hinted=$(smoke_counter txn.hinted_reads)
refetches=$(smoke_counter txn.short_read_refetches)
if [ -z "$hinted" ] || [ -z "$refetches" ]; then
  echo "ERROR: BENCH_smoke.json lacks the hinted-read counters" >&2
  exit 1
fi
if [ "$hinted" -le 0 ]; then
  echo "ERROR: smoke run issued no hinted reads" >&2
  exit 1
fi
if [ $((refetches * 100)) -ge "$hinted" ]; then
  echo "ERROR: $refetches short-read refetches for $hinted hinted reads (limit 1%)" >&2
  exit 1
fi
echo "hinted reads: $hinted, short-read refetches: $refetches"

echo "== delta writes =="
# Commits ship only the slot header plus the changed byte runs of an
# object whose base is in the read set (DESIGN.md Sec. 20). The smoke
# run must commit delta writes.
deltas=$(smoke_counter txn.delta_writes)
if [ -z "$deltas" ]; then
  echo "ERROR: BENCH_smoke.json lacks the txn.delta_writes counter" >&2
  exit 1
fi
if [ "$deltas" -le 0 ]; then
  echo "ERROR: smoke run committed no delta writes" >&2
  exit 1
fi
echo "delta writes: $deltas"

echo "== simulator host cost =="
# fig10 at the shape test's parameters, both traversal modes. The event
# count and the hash of the delivered (time, seq) event stream pin
# simulated behaviour: they must equal the committed BENCH_sim.json, so
# a host-only change cannot move the model unnoticed. The top heap may
# not exceed 1.5x the committed value. Emits BENCH_sim.json (events/s,
# minor and major words per event, top heap, host wall time).
dune exec bin/minuet_bench.exe -- sim --dir "$smoke_dir" --baseline BENCH_sim.json

echo "== node-path micro-benchmark =="
# Zero-copy node views vs eager decodes on identical slotted payloads:
# the view must be at least 3x faster per lookup, a corrupted slot
# directory must fail Bnode.decode's CRC, and legacy (pre-slotted)
# payloads must still decode. Emits BENCH_node.json (ns/lookup both
# sides, decodes avoided, bytes copied per scan hop).
dune exec bin/minuet_bench.exe -- node --dir "$smoke_dir" --min-speedup 3.0

echo "== scan benchmark smoke =="
# Batched leaf scans vs the per-leaf baseline plus a crash storm; fails
# the build unless batching clears its speedup floor and post-crash
# caches recover by epoch revalidation (never by a bulk flush). Emits
# BENCH_scan.json (ops/s, leaves per round trip, cache hit rate). The
# absolute floors pin the scan numbers: the pre-zero-copy baseline
# measured 1168 batched scans/s, trimmed replies 1228 and size-hinted
# reads 1514, so dropping below 1450 means the request-side win of
# hinted reads regressed.
dune exec bin/minuet_bench.exe -- scan --dir "$smoke_dir" \
  --min-batched-ops 1450 --min-leaves-per-rt 15.0

echo "== streaming checker: million-op gate =="
# A million-event synthetic history through Check.Stream, linear and
# branching; fails on any violation or if the checker's peak live heap
# exceeds the 64M-word budget (the O(active keys + budgets) memory
# bound). The linear run's BENCH_checker.json is the committed report.
dune exec bin/minuet_bench.exe -- checker --dir "$smoke_dir"
dune exec bin/minuet_bench.exe -- checker --branching --dir "$smoke_dir"

echo "== streaming checker falsifiability =="
# One seeded lie must fail the run: a stale stamped read in the linear
# history, a frozen-version isolation leak in the branching one. The
# command exits nonzero itself when the checker misses the lie.
dune exec bin/minuet_bench.exe -- checker --ops 200000 --dir "$smoke_dir" \
  --inject stale-read
dune exec bin/minuet_bench.exe -- checker --ops 200000 --dir "$smoke_dir" \
  --branching --inject branch-isolation

echo "== production traffic: SLO gates through the checker =="
# Open-loop traffic scenarios (steady, diurnal, flash-crowd,
# shard-hotspot, chaos-overlapped storm, fig17/fig18 variants): every
# tenant must hold its p99/p999/error-budget SLO measured from
# scheduled arrival (queueing delay counts), every session history must
# pass the streaming serializability checker, and all structural audits
# must walk clean. Emits BENCH_traffic.json.
dune exec bin/minuet_bench.exe -- traffic --dir "$smoke_dir"

echo "== traffic SLO falsifiability =="
# A tenant provisioned at one worker against 1500 scans/s: the open-loop
# queue grows without bound, so the p99 gate must trip and the command
# must exit nonzero. If this passes, the queueing-delay accounting has
# quietly turned into a closed loop (coordinated omission).
if dune exec bin/minuet_bench.exe -- traffic --broken-slo --dir "$smoke_dir" \
    >/dev/null 2>&1; then
  echo "ERROR: --broken-slo traffic run met its SLO; queueing delay is not being counted" >&2
  exit 1
fi

echo "== chaos + serializability check =="
# Deterministic fault-injection storm on the traffic engine (one
# closed-loop tenant whose ops all run while the storm is on) with the
# history checker and a structural audit after every phase; fails the
# build on any serializability/snapshot violation or audit failure.
dune exec bin/minuet_bench.exe -- chaos --seed 42 --duration 2

echo "== branching chaos (writable clones, version tree) =="
# Real clone traffic through Mvcc.Branching under the default fault
# storm: branch-scoped operations are traced and every read pinned at a
# frozen version is checked against its frozen ancestor state. Seed 21
# pins the prepare-vote/stamp-draw crash window: with the coordinator's
# participant-epoch check disabled, its checker fails.
for seed in 8 21 42; do
  dune exec bin/minuet_bench.exe -- chaos --seed "$seed" --duration 1 --branching
done

echo "== chaos checker catches broken branch isolation =="
# With copy-on-write sharing deliberately broken, writes leak into
# frozen ancestor versions; the branching chaos run must FAIL.
if dune exec bin/minuet_bench.exe -- chaos --seed 3 --duration 0.5 --branching \
    --broken-branch >/dev/null 2>&1; then
  echo "ERROR: --broken-branch chaos run passed; isolation leaks went unnoticed" >&2
  exit 1
fi

echo "== scan-heavy chaos (both concurrency-control modes) =="
# Scan-dominated mix: long batched range scans over splitting/merging
# leaves, every snapshot scan double-checked against the per-leaf path.
dune exec bin/minuet_bench.exe -- chaos --seed 15 --duration 1 --scan-heavy --cc dirty
dune exec bin/minuet_bench.exe -- chaos --seed 15 --duration 1 --scan-heavy --cc validated

echo "== mid-2PC crash storm (4 seeds) =="
# Mid-transaction crashes, mirror-link partitions and replica lag: the
# redo-log/recovery path must keep every history serializable, every
# 2PC decision atomic across participants, and the in-doubt set drained.
for seed in 1 7 10 42; do
  dune exec bin/minuet_bench.exe -- chaos --seed "$seed" --duration 1 \
    --faults midcrash,mpartition,replag
done

echo "== chaos checker catches injected bugs =="
# With leaf-read validation deliberately broken the same pipeline must
# FAIL — a checker that never fires would let real violations through.
if dune exec bin/minuet_bench.exe -- chaos --seed 7 --duration 0.5 --broken \
    --clients 8 --keys 24 >/dev/null 2>&1; then
  echo "ERROR: --broken chaos run passed; the checker caught nothing" >&2
  exit 1
fi

echo "== chaos checker catches broken recovery =="
# With the redo-log replay disabled, committed-but-unmirrored writes are
# lost on promotion/recovery. On seed 21 the checker passes and the
# structural audit after a nemesis phase is what fails the run, so the
# gate requires that failure, not just a nonzero exit; the same seed
# and flags without the bug must pass.
dune exec bin/minuet_bench.exe -- chaos --seed 21 --duration 1 --faults midcrash,replag
if dune exec bin/minuet_bench.exe -- chaos --seed 21 --duration 1 \
    --faults midcrash,replag --broken-recovery >"$smoke_dir/broken_recovery.txt" 2>&1; then
  echo "ERROR: --broken-recovery chaos run passed; lost writes went unnoticed" >&2
  exit 1
fi
if ! grep -q "AUDIT FAILED: phase" "$smoke_dir/broken_recovery.txt"; then
  echo "ERROR: --broken-recovery chaos run failed without a phase audit catching it:" >&2
  cat "$smoke_dir/broken_recovery.txt" >&2
  exit 1
fi

echo "== fault-tolerance example (asserting) =="
dune exec examples/fault_tolerance.exe

echo "CI OK"
