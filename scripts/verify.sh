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

# Run perfbench once, briefly: every workload's scaled campaigns must
# reproduce their pins (perfbench/pins.txt, seed 2005) and agree
# between 1 and nproc workers. It exits 1 on any drift.
echo "== perfbench: scaled-campaign pins and 1-vs-nproc identity =="
cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --workload all --seconds 1 >/dev/null

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

# A bad command line is an error with a message and exit status 2,
# never a panic (status 101).
echo "== paper_figures rejects a zero trial count =="
status=0
cargo run --release --offline -p nlft-bench --bin paper_figures -- --trials 0 2>/dev/null || status=$?
if [ "$status" -ne 2 ]; then
    echo "paper_figures --trials 0 exited with status $status, expected 2" >&2
    exit 1
fi

# `paper_figures` is byte-deterministic in its seeds, the Monte-Carlo
# cross-check and the ablations included, in both output formats.
echo "== paper_figures: two runs give the same bytes =="
figs="$(mktemp -d)"
trap 'rm -rf "$figs"' EXIT
for fmt in text json; do
    flags=(--trials 200 --reps 300)
    if [ "$fmt" = json ]; then flags+=(--json); fi
    for run in 1 2; do
        cargo run -q --release --offline -p nlft-bench --bin paper_figures -- "${flags[@]}" \
            > "$figs/$fmt.$run"
    done
    cmp "$figs/$fmt.1" "$figs/$fmt.2"
done

# Scenario zoo: every declarative campaign under scenarios/ must run
# bit-identically at 1, 2 and 5 threads, match its golden pin, and
# satisfy its acceptance clause. Any drift fails hard.
echo "== scenario zoo: golden pins at 1/2/5 threads =="
cargo run --release --offline -p nlft-bench --bin scenario_run -- verify

# Engine gate: one zoo scenario per family re-runs on the threaded
# executor with the watchdog armed and must reproduce its golden pin —
# `run` re-checks the pin via the acceptance clause — and so must a
# checkpoint/resume round trip through the CLI flags.
# `wheel-restart-under-blackout` drives the supervised escalation ladder
# through a network outage. The cadence of 7 divides none of the nine
# trial counts, so the last checkpoint leaves trials to resume; a
# checkpoint that already counts every trial fails the gate, since its
# resume leg would check nothing.
echo "== scenario zoo: watchdog-armed executor and checkpoint/resume =="
ckpt="$(mktemp)"
trap 'rm -rf "$figs" "$ckpt"' EXIT
for scenario in babbling-wheel wheel-restart-under-blackout net-storm-nominal \
    value-single-fault-coverage full-blackout-coldstart recovery-ladder-mix \
    weakly-hard-nominal-storm core-death-mid-section node-nlft-reference; do
    cargo run --release --offline -p nlft-bench --bin scenario_run -- \
        run "$scenario" --threads 4 --trial-budget-ms 10000 \
        --checkpoint "$ckpt" --checkpoint-every 7
    # A checkpoint reads `scenario <name> family <f> seed <s> trials <n>
    # config <crc> resume <done> …`, with no newline at the end.
    read -r -a tok < "$ckpt" || true
    if [ "${tok[6]}" != trials ] || [ "${tok[10]}" != resume ]; then
        echo "$scenario: unexpected checkpoint header: ${tok[*]:0:12}" >&2
        exit 1
    fi
    if [ "${tok[11]}" = "${tok[7]}" ]; then
        echo "$scenario: the checkpoint resumes at trial ${tok[11]} of ${tok[7]}: nothing left to resume" >&2
        exit 1
    fi
    cargo run --release --offline -p nlft-bench --bin scenario_run -- \
        run "$scenario" --resume "$ckpt"
done

# Model text fuzzing: the two mutation properties once more, over a far
# wider sweep than the default tier-1 run, in the `fuzz` profile (release
# speed, integer overflow checks on, so an overflowing add panics instead
# of wrapping). Nothing a mutated `.scn` file holds may panic the parser,
# the compiler or a runner, and whatever compiles must fold every trial
# it asks for; nothing a mutated `.sharpe` file holds may panic or hang
# the parser or the evaluation of what it accepts.
echo "== scenario zoo: mutation property, 100000 cases, overflow checks on =="
NLFT_PROP_CASES=100000 cargo test --profile fuzz --offline -q -p nlft-bbw --test zoo_mutations
# Checkpoint text fuzzing: mutated checkpoints of every family never
# panic a resumed run, and one that resumes folds every trial it runs.
echo "== checkpoints: mutation property, 20000 cases, overflow checks on =="
NLFT_PROP_CASES=20000 cargo test --profile fuzz --offline -q -p nlft-bbw --test checkpoints \
    checkpoint_mutants_never_panic_and_fold_every_trial
# The statistics codec the same way: mutated encodings of the `sim::stats`
# accumulators, a Monte-Carlo result and its resume point never panic a
# decode, and whatever decodes re-encodes to a fixed point.
echo "== checkpoints: statistics codec mutation property, 20000 cases, overflow checks on =="
NLFT_PROP_CASES=20000 cargo test --profile fuzz --offline -q -p nlft-bbw --test checkpoints \
    stats_checkpoint_mutants_never_panic_and_re_encode_to_a_fixed_point
echo "== SHARPE models: mutation property, 100000 cases, overflow checks on =="
NLFT_PROP_CASES=100000 cargo test --profile fuzz --offline -q -p nlft-reliability --test sharpe_mutations

# The repeated-job skip at scale, overflow checks on: the memory change
# counter never stands still while words or flips change, and random
# clusters run with and without the skip give identical reports, memory
# and ECC counters.
echo "== change counter and repeated-job skip: 20000 cases, overflow checks on =="
NLFT_PROP_CASES=20000 cargo test --profile fuzz --offline -q -p nlft-machine --test properties \
    generation_vouches_for_words_and_flips
NLFT_PROP_CASES=20000 cargo test --profile fuzz --offline -q -p nlft-bbw --lib \
    skipping_repeated_jobs_changes_no_report_or_memory

# The one-loop interpreter at scale, overflow checks on: `run` matches a
# loop of `step` on an uncached machine under random self-modifying
# programs, bit flips, stuck-at runs and short budgets, with ECC, the
# decode cache and the trace each on or off.
echo "== interpreter against the stepwise reference: 20000 cases, overflow checks on =="
NLFT_PROP_CASES=20000 cargo test --profile fuzz --offline -q -p nlft-machine --test properties \
    run_matches_the_stepwise_reference

# The kernel properties at scale, overflow checks on: delivered TEM
# results are always golden, TEM reports are deterministic, and the
# one-core executive never beats the response-time analysis.
echo "== kernel properties: 20000 cases, overflow checks on =="
NLFT_PROP_CASES=20000 cargo test --profile fuzz --offline -q -p nlft-kernel --test properties

# Smoke-run every bench target: each closure runs once, untimed, so the
# engine bench's bit-identity asserts and the five figure benches run.
# Speed is perfbench's job; the bench binaries are A/B probes.
echo "== bench: every bench target in smoke mode =="
cargo test --release --offline -q -p nlft-bench --benches >/dev/null

echo "verify: OK"
