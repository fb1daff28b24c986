#!/usr/bin/env bash
# Tier-1 verification: hermetic (offline) release build plus the full test
# suite. Must pass on a machine with no network access and no crates.io
# mirror — the workspace depends on nothing outside this repository.
set -euo pipefail
cd "$(dirname "$0")/.."

# Formatting is part of tier 1: the tree must be rustfmt-clean.
cargo fmt --all --check

# Warnings are errors: the workspace must build clean.
RUSTFLAGS="-D warnings" cargo build --workspace --release --offline
cargo test --workspace -q --offline

# perfbench (the repository benchmark) is a package of its own with an
# empty `[workspace]`, so the commands above never compile it. Build and
# test it here, so an API change in the crates it uses cannot break it
# silently.
cargo test --manifest-path perfbench/Cargo.toml --offline -q

# Lints are part of tier 1: clippy must be warning-clean across the
# workspace (library, tests, examples and benches alike).
cargo clippy -q --workspace --all-targets --offline -- -D warnings

# Documentation is part of tier 1: every public item is documented
# (missing_docs) and rustdoc itself must be warning-clean (broken intra-doc
# links, bad code fences).
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# Smoke-run every example. Each must exit zero on a small workload: the
# campaign-style examples read a trial count from their first argument,
# the rest ignore it.
for ex in examples/*.rs; do
    name="$(basename "$ex" .rs)"
    echo "== example: $name =="
    cargo run --release --offline --example "$name" -- 50 >/dev/null
done

# Scenario zoo: every declarative campaign under scenarios/ must run
# bit-identically at 1, 2 and 5 threads, match its golden pin, and
# satisfy its acceptance clause. Any drift fails hard.
echo "== scenario zoo: golden pins at 1/2/5 threads =="
cargo run --release --offline -p nlft-bench --bin scenario_run -- verify

# Engine gate: one zoo scenario re-run on the work-stealing executor
# with the watchdog armed must reproduce its golden pin — `run`
# re-checks the pin via the acceptance clause — and so must a
# checkpoint/resume round trip through the CLI flags.
echo "== scenario zoo: watchdog-armed executor and checkpoint/resume =="
ckpt="$(mktemp)"
trap 'rm -f "$ckpt"' EXIT
cargo run --release --offline -p nlft-bench --bin scenario_run -- \
    run babbling-wheel --threads 4 --trial-budget-ms 10000 \
    --checkpoint "$ckpt" --checkpoint-every 4
cargo run --release --offline -p nlft-bench --bin scenario_run -- \
    run babbling-wheel --resume "$ckpt"

# Bench trajectory: re-measure the groups in the committed baseline and
# compare. Timing deltas (fastest sample per benchmark) are advisory only,
# since hardware varies between machines, so slowdowns print warnings;
# golden-digest drift — a bit-level change to the deterministic Figure 12
# results — fails hard. Campaign timings are the repository benchmark's
# job (perfbench); the trajectory keeps the substrate probes, Figure 12
# and the engine.
echo "== bench: substrates + fig12 + engine vs BENCH_BASELINE.json =="
for group in substrates fig12_system_reliability engine; do
    cargo bench --offline -p nlft-bench --bench "$group" -- --samples 10 >/dev/null
done
cargo run --release --offline -p nlft-bench --bin bench_compare -- compare

echo "verify: OK"
