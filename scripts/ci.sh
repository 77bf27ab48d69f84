#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the tier-1 build/test pass.
# Run from anywhere; operates on the repository containing this script.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace -- -D warnings

# Doc links must resolve to public items: a link left pointing at a
# deleted or private item fails here instead of rotting silently.
echo "==> cargo doc --workspace --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> cargo build --release (tier-1)"
cargo build --release

echo "==> cargo build --examples"
cargo build --examples

echo "==> cargo bench --no-run (compile-gate bench code, incl. diurnal event, fleet_scale + model_fit)"
cargo bench --no-run

echo "==> cargo test -q (tier-1)"
cargo test -q

# Each service's /metrics/service exposes only its own scoped series, so
# the observability suite must pass in any test order, serialised too.
echo "==> observability suite, one test thread"
cargo test -q --test observability -- --test-threads=1

echo "==> cargo test --workspace -q"
cargo test --workspace -q

# Runs every perfbench workload's correctness checks over real HTTP, so an edge or cache change that breaks them fails CI.
echo "==> perfbench smoke test"
cargo test --release --offline --quiet --manifest-path perfbench/Cargo.toml

# Forced single-threading: every exec pool degrades to its inline
# sequential path, so any output depending on parallel scheduling
# (and any accidental nondeterminism) shows up as a diff here. The
# equivalence suite carries the event-scheduler contract (closed-form
# advancement within 0.1% of exact across profile regimes), and
# exec_determinism covers event-mode replay, so wide-vs-1-thread replay
# stays byte-identical.
echo "==> CALADRIUS_THREADS=1 determinism variant (incl. event-mode equivalence)"
CALADRIUS_THREADS=1 cargo test -q -p caladrius-exec
CALADRIUS_THREADS=1 cargo test -q --test exec_determinism --test capacity_plan
CALADRIUS_THREADS=1 cargo test -q --test sim_kernel_equivalence

# The fleet e2e fans out cluster planning across the "fleet-plan" pool;
# the single-thread run proves the fleet tier's answers (grants, shard
# routing, shed decisions) do not depend on parallel scheduling. The
# fleet unit suite carries per-tenant data-version isolation (one
# tenant's truncation leaves shard-mates on the incremental path).
echo "==> CALADRIUS_THREADS=1 fleet tier e2e"
CALADRIUS_THREADS=1 cargo test -q --test fleet_scale
CALADRIUS_THREADS=1 cargo test -q -p caladrius-fleet --lib

# Incremental replanning: the plan-cache suite proves cache hits are
# bit-identical with zero new searches and that every staleness edge
# (watermark, plan version, ResourceLimits, late samples below the
# watermark, truncation) invalidates; the planner package carries the
# warm-start == cold-search equivalence proptests.
echo "==> CALADRIUS_THREADS=1 plan cache + warm-start equivalence"
CALADRIUS_THREADS=1 cargo test -q --test plan_cache
CALADRIUS_THREADS=1 cargo test -q -p caladrius-planner

# Incremental model refitting: the forecast package carries the
# incremental == batch proptests over random append schedules; the core
# service suite carries the delta-aware model cache (bitwise component
# equivalence, truncation/retention/re-anchor full-refit regressions).
# Single-threaded so the fit fan-out cannot mask ordering dependencies
# in the streaming accumulators.
echo "==> CALADRIUS_THREADS=1 incremental-refit equivalence"
CALADRIUS_THREADS=1 cargo test -q -p caladrius-forecast --test incremental_equivalence
CALADRIUS_THREADS=1 cargo test -q -p caladrius-core --lib

echo "==> observability smoke (scrape /metrics/service)"
cargo run --release --example obs_smoke

echo "CI gate passed."
