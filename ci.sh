#!/usr/bin/env bash
# Local CI gate: build, test, lint, perf baseline. Run before every push.
#
# The build environment is offline — all external dependencies resolve to
# the vendored shims under vendor/ (see vendor/README.md).
#
# The perf step compares smoke-scale wall times and work counters against
# the committed BENCH_replay.json. Drift is a warning by default (shared
# hardware is noisy); pass --strict to make it fail the gate, and set
# BENCH_THRESHOLD (a fraction, default 0.75) to tune the wall-time bar.
# After an intentional perf or behavior change, re-record with
#   cargo run --release -p bench --bin bench-baseline -- record
#
# The test step includes the chaos suite (tests/chaos.rs): ≥200 seeded
# fault schedules against the live lock and storage clusters — half of
# them with leader batching + accept pipelining enabled — budgeted to
# stay well under 30s. Knobs (see TESTING.md):
#   CHAOS_SCHEDULES=<n>   schedules per sweep (soak: try 500+)
#   CHAOS_SEED=0x<seed>   pin the base seed (failures print the exact
#                         re-run command with the offending seed)
set -euo pipefail
cd "$(dirname "$0")"

STRICT=""
for arg in "$@"; do
  case "$arg" in
    --strict) STRICT="--strict" ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

echo "== cargo build --release =="
cargo build --release --offline --workspace

echo "== cargo test =="
cargo test -q --offline --workspace

echo "== determinism: 1-thread vs default sweep =="
./target/release/repro --quick --seed 2014 fig6 | grep -v '^#' > /tmp/ci_fig6_default.txt
RAYON_NUM_THREADS=1 ./target/release/repro --quick --seed 2014 fig6 | grep -v '^#' > /tmp/ci_fig6_single.txt
diff /tmp/ci_fig6_default.txt /tmp/ci_fig6_single.txt \
  || { echo "sweep rows depend on thread count" >&2; exit 1; }
./target/release/repro --quick --seed 2014 repair | grep -v '^#' > /tmp/ci_repair_default.txt
RAYON_NUM_THREADS=1 ./target/release/repro --quick --seed 2014 repair | grep -v '^#' > /tmp/ci_repair_single.txt
diff /tmp/ci_repair_default.txt /tmp/ci_repair_single.txt \
  || { echo "repair sweep rows depend on thread count" >&2; exit 1; }

echo "== workload smoke + determinism =="
# Quick request-level replay (~20k lock + ~2k storage requests, well
# under 5 s) doubling as the workload-engine determinism gate: arrival
# sampling, command mix, and the DES must be thread-count independent.
./target/release/repro --quick --seed 2014 workload | grep -v '^#' > /tmp/ci_workload_default.txt
RAYON_NUM_THREADS=1 ./target/release/repro --quick --seed 2014 workload | grep -v '^#' > /tmp/ci_workload_single.txt
diff /tmp/ci_workload_default.txt /tmp/ci_workload_single.txt \
  || { echo "workload rows depend on thread count" >&2; exit 1; }
grep -q 'lock batch=8' /tmp/ci_workload_default.txt \
  || { echo "workload smoke: missing lock row" >&2; exit 1; }

echo "== hetero smoke + determinism =="
# Heterogeneous pools + auto-scaler: the strategy race over pool columns
# and the autoscaled replay must be thread-count independent, emit the
# per-type fleet series, and audit at least one scaling decision.
./target/release/repro --quick --seed 2014 hetero | grep -v '^#' > /tmp/ci_hetero_default.txt
RAYON_NUM_THREADS=1 ./target/release/repro --quick --seed 2014 hetero | grep -v '^#' > /tmp/ci_hetero_single.txt
diff /tmp/ci_hetero_default.txt /tmp/ci_hetero_single.txt \
  || { echo "hetero rows depend on thread count" >&2; exit 1; }
grep -q 'pool.fleet.m1.small' /tmp/ci_hetero_default.txt \
  || { echo "hetero smoke: missing m1.small fleet series" >&2; exit 1; }
grep -q 'pool.fleet.m3.large' /tmp/ci_hetero_default.txt \
  || { echo "hetero smoke: missing m3.large fleet series" >&2; exit 1; }
SCALE_AUDITS="$(sed -n 's/^audited scale decisions: \([0-9]*\).*/\1/p' /tmp/ci_hetero_default.txt)"
[[ -n "$SCALE_AUDITS" && "$SCALE_AUDITS" -ge 1 ]] \
  || { echo "hetero smoke: no audited scale decisions" >&2; exit 1; }

echo "== era smoke + determinism =="
# Interruption-era race: the capacity regime's hidden processes and the
# proactive-migration controller must be thread-count independent, the
# bidding-era rows must be byte-identical across repair policies
# (strict additivity), and the sweep must land at least one drain.
./target/release/repro --quick --seed 2014 era | grep -v '^#' > /tmp/ci_era_default.txt
RAYON_NUM_THREADS=1 ./target/release/repro --quick --seed 2014 era | grep -v '^#' > /tmp/ci_era_single.txt
diff /tmp/ci_era_default.txt /tmp/ci_era_single.txt \
  || { echo "era rows depend on thread count" >&2; exit 1; }
diff <(awk '/^bidding/ && $2 == "reactive" { $2 = "POLICY"; print }' /tmp/ci_era_default.txt) \
     <(awk '/^bidding/ && $2 == "migrate"  { $2 = "POLICY"; print }' /tmp/ci_era_default.txt) \
  || { echo "era smoke: migration is not a no-op under the bidding era" >&2; exit 1; }
grep -q '^capacity' /tmp/ci_era_default.txt \
  || { echo "era smoke: missing capacity-era rows" >&2; exit 1; }
DRAINS="$(awk '/^capacity +migrate/ { s += $(NF-1) } END { print s+0 }' /tmp/ci_era_default.txt)"
[[ "$DRAINS" -ge 1 ]] \
  || { echo "era smoke: no pre-deadline drains landed" >&2; exit 1; }

echo "== repro report smoke =="
REPORT_TMP="$(mktemp -d)"
trap 'rm -rf "$REPORT_TMP"' EXIT
./target/release/repro --seed 2014 --report-out "$REPORT_TMP/report.html" report > /dev/null
for artifact in report.html report.html.trace.json report.html.audit.jsonl report.html.alerts.jsonl; do
  [[ -s "$REPORT_TMP/$artifact" ]] \
    || { echo "report smoke: $artifact missing or empty" >&2; exit 1; }
done
# The alert-annotation markers must be present even when nothing fired.
grep -q 'id="alerts"' "$REPORT_TMP/report.html" \
  || { echo "report smoke: alerts section marker missing" >&2; exit 1; }
grep -q 'class="audit-timeline"' "$REPORT_TMP/report.html" \
  || { echo "report smoke: audit timeline marker missing" >&2; exit 1; }

echo "== cargo clippy -D warnings =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== perfbench build + checks =="
# perfbench/ is a separate workspace that drives the library through its
# public API; building it here catches API breaks in workload/replay
# before the benchmark pipeline does. The smoke test runs every workload
# at tiny scale; the quorum_requests run checks the pinned seed-2014
# per-rung lock/store fingerprints in perfbench/pinned/, and the bid_sweep
# run the pinned per-cell fingerprints of all 18 seed-2014 cells, every
# one of which passes through the Jupiter forecasts (Eq. 5/14).
python3 perfbench/smoke_test.py
python3 perfbench/run.py --workload quorum_requests --seconds 0 > /tmp/ci_quorum_requests.txt
tail -n 1 /tmp/ci_quorum_requests.txt | grep -q '"correct": true' \
  || { echo "perfbench: quorum_requests output checks failed" >&2; exit 1; }
python3 perfbench/run.py --workload bid_sweep --seconds 0 > /tmp/ci_bid_sweep.txt
tail -n 1 /tmp/ci_bid_sweep.txt | grep -q '"correct": true' \
  || { echo "perfbench: bid_sweep output checks failed" >&2; exit 1; }

echo "== bench-baseline compare =="
if [[ -f BENCH_replay.json ]]; then
  # The trace-overhead guard is always strict: it asserts disabled
  # tracing stays in the low-ns/op range and diffs the trace_bench.*
  # counters — a regression there is a bug, not hardware noise. The
  # trace-derived commit-latency counters (trace.* under
  # lock_service_replay) are exact quantiles over deterministic replays,
  # so the full compare below diffs them too.
  ./target/release/bench-baseline compare \
    --baseline BENCH_replay.json \
    --only trace_overhead \
    --strict
  # Same deal for the monitor guard: disabled watchdog/SLO observes must
  # stay one-boolean cheap, and the SLO alert count is deterministic.
  ./target/release/bench-baseline compare \
    --baseline BENCH_replay.json \
    --only monitor_overhead \
    --strict
  # The workload replay pins request-level p99 and SLO availability for
  # the batched fast path — its counters are deterministic, so any drift
  # is a real behavior change, not noise.
  ./target/release/bench-baseline compare \
    --baseline BENCH_replay.json \
    --only workload_replay \
    --strict
  # The hetero replay pins the auto-scaled mixed-fleet counters
  # (autoscale.* decisions, per-pool launches) — all deterministic.
  ./target/release/bench-baseline compare \
    --baseline BENCH_replay.json \
    --only hetero_replay \
    --strict
  # The era replay pins the capacity-era migration counters (notice.*
  # signal handling, migrate.* drain outcomes) — all deterministic, so
  # drift means the interruption controller changed behavior.
  ./target/release/bench-baseline compare \
    --baseline BENCH_replay.json \
    --only era_replay \
    --strict
  ./target/release/bench-baseline compare \
    --baseline BENCH_replay.json \
    --threshold "${BENCH_THRESHOLD:-0.75}" \
    ${STRICT:+"$STRICT"}
else
  echo "no BENCH_replay.json — recording a fresh baseline"
  ./target/release/bench-baseline record --out BENCH_replay.json
fi

echo "CI OK"
