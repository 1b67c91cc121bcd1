#!/usr/bin/env bash
# Tier-1 CI gate: build, lint, test, and a bounded end-to-end suite run.
#
# Offline by design — no network, no external crates. Every stage runs
# under a hard wall-clock cap so a regression can slow things down but
# never wedge the runner.
set -euo pipefail
cd "$(dirname "$0")/.."

CARGO_FLAGS=(--workspace --offline)
STAGE_CAP="${TIER1_STAGE_CAP:-900}" # seconds per stage

run() {
    echo "==> $*"
    timeout --signal=KILL "$STAGE_CAP" "$@"
}

# One thread per job: the batch pool is the only code that starts threads,
# and each job runs its whole CEGAR loop on the worker it was given. A
# `thread::scope` or `thread::spawn` anywhere else under crates/*/src
# fails the stage, naming the files. One panic trap: a second file under
# crates/*/src that installs a panic hook (`panic::set_hook`) fails it too.
echo "==> one-thread-per-job"
THREAD_SITES=$(grep -rlE 'thread::(scope|spawn)' crates/*/src | grep -vx 'crates/serve/src/pool.rs' | sort || true)
if [ -n "$THREAD_SITES" ]; then
    echo "tier1: one-thread-per-job: threads started outside crates/serve/src/pool.rs in:" >&2
    echo "$THREAD_SITES" >&2
    exit 1
fi
HOOK_SITES=$(grep -rl 'panic::set_hook' crates/*/src | sort || true)
if [ "$(printf '%s' "$HOOK_SITES" | grep -c .)" -gt 1 ]; then
    echo "tier1: one-panic-trap: panic hooks installed in more than one file:" >&2
    echo "$HOOK_SITES" >&2
    exit 1
fi

# Formatting: the root workspace stays rustfmt-clean. The homcbench
# package is a workspace of its own and is not checked here.
if command -v rustfmt >/dev/null 2>&1; then
    run cargo fmt --all --check
else
    echo "==> rustfmt unavailable; skipping format stage"
fi

run cargo build --release "${CARGO_FLAGS[@]}"

# Lint every target with every feature on, so the `slow-tests` benches and
# feature-gated tests are compiled by some stage.
if command -v cargo-clippy >/dev/null 2>&1; then
    run cargo clippy "${CARGO_FLAGS[@]}" --all-targets --all-features -- -D warnings
else
    echo "==> clippy unavailable; skipping lint stage"
fi

# Rustdoc: the API docs build without a warning (a broken, ambiguous or
# private intra-doc link fails the stage).
run env RUSTDOCFLAGS="-D warnings" cargo doc "${CARGO_FLAGS[@]}" --no-deps

run cargo test -q "${CARGO_FLAGS[@]}"

# End-to-end degradation check: with a 1-second per-program deadline the
# whole 30-program suite must terminate with a tally and exit 0 (unknown
# under budget is an outcome, not a failure). The run also exports a
# verdict certificate per decided program; `homc check` then re-validates
# every exported certificate independently of the CEGAR/SMT hot path
# (programs that stayed undecided export nothing and are tolerated in
# whole-suite mode). Certificates must be complete: a Safe certificate
# that reports `unproved` queries relies on UNSAT answers it cannot back,
# and fails the stage.
EVD_DIR=target/evidence-smoke
EVD_CHECK=target/evidence-check.txt
rm -rf "$EVD_DIR"
run cargo run --release --offline --bin homc -- --suite --timeout 1 --evidence-dir "$EVD_DIR"
run cargo run --release --offline --bin homc -- check --suite --evidence-dir "$EVD_DIR" | tee "$EVD_CHECK"
if grep -q 'unproved' "$EVD_CHECK"; then
    echo "tier1: evidence: certificate(s) with unproved queries:" >&2
    grep 'unproved' "$EVD_CHECK" >&2
    exit 1
fi

# Trace smoke: a traced run of the whole suite must produce a schema-valid
# JSONL trace (validated by the in-tree validator — no jq) and the report
# renderer must accept it. Uses the logical clock so the stage is
# deterministic across runners — which a second process's run plus
# trace-diff verifies byte-for-byte (exit 0 means no semantic differences
# either). A run of all 30 programs takes well under a second, and every
# solver answer, model and learned predicate reaches the trace, so an
# iteration order that depends on a per-process hash seed shows up here.
TRACE_SMOKE=target/trace-smoke.jsonl
TRACE_SMOKE2=target/trace-smoke-2.jsonl
run cargo run --release --offline --bin homc -- --suite --trace-logical "$TRACE_SMOKE"
run cargo run --release --offline --bin homc -- trace-validate "$TRACE_SMOKE"
run cargo run --release --offline --bin homc -- trace-report "$TRACE_SMOKE"
run cargo run --release --offline --bin homc -- --suite --trace-logical "$TRACE_SMOKE2"
run cmp "$TRACE_SMOKE" "$TRACE_SMOKE2"
run cargo run --release --offline --bin homc -- trace-diff "$TRACE_SMOKE" "$TRACE_SMOKE2"

# Profile smoke: the folded-stack self-profiler must produce telescoping,
# well-formed output (the profile subcommand exits non-zero if any child
# span overruns its parent or a folded line fails to parse).
PROFILE_SMOKE=target/profile-smoke.folded
run cargo run --release --offline --bin homc -- profile --suite intro1 -o "$PROFILE_SMOKE"
test -s "$PROFILE_SMOKE"

# Phase coverage: no dark time. Every timed phase of a run (the phase
# table, including certificate export) is a span, so in the profile of a
# run that exports a certificate the root frame's exclusive time, which no
# phase claims, must stay within 5% of its inclusive time. A folded line
# counts exclusive microseconds: the root's own line is its exclusive
# time, and all lines together are its inclusive time.
COVERAGE_EVD=target/phase-coverage-evd
COVERAGE_FOLDED=target/phase-coverage.folded
rm -rf "$COVERAGE_EVD"
run cargo run --release --offline --bin homc -- profile --suite l-zipmap \
    --evidence-dir "$COVERAGE_EVD" -o "$COVERAGE_FOLDED"
if ! awk '{ all += $NF; if ($1 !~ /;/) root += $NF }
          END { printf "phase-coverage: root exclusive %d of %d us\n", root, all
                exit !(all > 0 && root <= 0.05 * all) }' "$COVERAGE_FOLDED"; then
    echo "tier1: phase-coverage: over 5% of the l-zipmap root span is in no phase" >&2
    exit 1
fi

# Batch smoke: the crash-safe fleet path end to end. A cold `homc batch`
# run populates the persistent cache; a warm rerun must (a) answer queries
# from disk (nonzero disk hits) and (b) reproduce the cold run's verdicts
# exactly. Then a deterministic two-byte payload corruption (dd at a fixed
# offset inside the first record) must be quarantined while the verdicts
# still hold — a byte flip may cost cache hits, never correctness.
BATCH_CACHE=target/batch-cache
BATCH_COLD=target/batch-cold.txt
BATCH_WARM=target/batch-warm.txt
BATCH_DRILL=target/batch-drill.txt
BATCH_PROGRAMS=(sum max mult mc91)
rm -rf "$BATCH_CACHE"
run cargo run --release --offline --bin homc -- batch --workers 4 \
    --cache-dir "$BATCH_CACHE" "${BATCH_PROGRAMS[@]}" | tee "$BATCH_COLD"
run cargo run --release --offline --bin homc -- batch --workers 4 \
    --cache-dir "$BATCH_CACHE" "${BATCH_PROGRAMS[@]}" | tee "$BATCH_WARM"
verdicts() { sed -n 's/^\([a-zA-Z0-9_-]*\) *wall=[0-9.]* -> \(.*\)$/\1 \2/p' "$1"; }
# If the job-line format drifted, every extraction would come back empty
# and the comparisons below would pass vacuously: the cold run must yield
# one verdict per program.
COLD_VERDICTS=$(verdicts "$BATCH_COLD" | wc -l)
if [ "$COLD_VERDICTS" -lt "${#BATCH_PROGRAMS[@]}" ]; then
    echo "tier1: batch-smoke: cold run reported $COLD_VERDICTS verdict line(s) for ${#BATCH_PROGRAMS[@]} program(s)" >&2
    exit 1
fi
# `homc --suite` goes through the same driver as `homc batch`, so it must
# print the same job lines with the same verdicts.
BATCH_SUITE=target/batch-suite.txt
run cargo run --release --offline --bin homc -- --suite "${BATCH_PROGRAMS[@]}" | tee "$BATCH_SUITE"
if ! cmp -s <(verdicts "$BATCH_COLD") <(verdicts "$BATCH_SUITE"); then
    echo "tier1: batch-smoke: homc --suite and homc batch disagree on verdicts:" >&2
    diff <(verdicts "$BATCH_COLD") <(verdicts "$BATCH_SUITE") >&2 || true
    exit 1
fi
HITS=$(sed -n 's/.*disk hits \([0-9]*\).*/\1/p' "$BATCH_WARM")
if [ "${HITS:-0}" -eq 0 ]; then
    echo "tier1: batch-smoke: warm rerun reported no disk-cache hits" >&2
    exit 1
fi
if ! cmp -s <(verdicts "$BATCH_COLD") <(verdicts "$BATCH_WARM"); then
    echo "tier1: batch-smoke: warm rerun flipped a verdict:" >&2
    diff <(verdicts "$BATCH_COLD") <(verdicts "$BATCH_WARM") >&2 || true
    exit 1
fi
# Header is `homc-cache v1\n` (14 bytes), a record's payload starts 26
# bytes in: offset 40 lands inside the first record's payload, so the
# checksum must catch it and quarantine the segment.
BATCH_SEG=$(ls "$BATCH_CACHE"/seg-*.seg | head -1)
printf 'zz' | dd of="$BATCH_SEG" bs=1 seek=40 conv=notrunc status=none
run cargo run --release --offline --bin homc -- batch --workers 4 \
    --cache-dir "$BATCH_CACHE" "${BATCH_PROGRAMS[@]}" | tee "$BATCH_DRILL"
if ! grep -q '1 quarantined' "$BATCH_DRILL"; then
    echo "tier1: batch-smoke: corrupted segment was not quarantined" >&2
    exit 1
fi
if ! cmp -s <(verdicts "$BATCH_COLD") <(verdicts "$BATCH_DRILL"); then
    echo "tier1: batch-smoke: corruption drill flipped a verdict:" >&2
    diff <(verdicts "$BATCH_COLD") <(verdicts "$BATCH_DRILL") >&2 || true
    exit 1
fi

# Incremental-abstraction smoke: on a multi-iteration program the
# transition memo must actually fire — iterations after the first reuse
# the definitions refinement did not touch. l-zipmap takes >= 3 CEGAR
# cycles, so a run with --stats must report a nonzero abs_defs_reused and
# still verify (verdict regressions here are caught as a failed tally).
ABS_SMOKE=target/abs-incremental-smoke.txt
run cargo run --release --offline --bin homc -- --suite l-zipmap --stats | tee "$ABS_SMOKE"
if ! grep -q 'passed 1, failed 0, unknown 0' "$ABS_SMOKE"; then
    echo "tier1: abs-incremental: l-zipmap no longer verifies" >&2
    exit 1
fi
if ! grep -q 'abs_defs_reused=[1-9]' "$ABS_SMOKE"; then
    echo "tier1: abs-incremental: transition memo reused nothing on a multi-iteration run" >&2
    exit 1
fi
# Every counter is declared once, so the program's --stats block (the lines
# before the tally) prints each counter name once. Counter names all carry
# an underscore, unlike the stat line's columns and the histograms' n=.
DUPES=$(sed '/^passed /,$d' "$ABS_SMOKE" | grep -oE '[a-z0-9]+(_[a-z0-9]+)+=' | sort | uniq -d)
if [ -n "$DUPES" ]; then
    echo "tier1: abs-incremental: --stats printed counter name(s) twice:" $DUPES >&2
    exit 1
fi

# Cross-run incremental smoke: the warm-edit path end to end. Verify
# l-zipmap from a file with an artifact store, patch one integer literal
# (semantics preserved), and re-verify: the second run must replay prior
# per-definition abstractions (reverify_defs_skipped > 0) and reach the
# identical verdict. The 25% latency gate on the same scenario runs in
# the bench stage below, where both sides are measured in-process.
INCR_DIR=target/incr-smoke
INCR_SRC=target/incr-zipmap.ml
INCR_COLD=target/incr-cold.txt
INCR_WARM=target/incr-warm.txt
rm -rf "$INCR_DIR"
cat > "$INCR_SRC" <<'EOF'
let rec zip x y = if x = 0 then (if y = 0 then x else fail ()) else if y = 0 then fail () else 1 + zip (x - 1) (y - 1) in let rec map x = if x = 0 then x else 1 + map (x - 1) in if n >= 0 then assert (map (zip n n) = n) else ()
EOF
run cargo run --release --offline --bin homc -- "$INCR_SRC" --stats \
    --artifacts-dir "$INCR_DIR" | tee "$INCR_COLD"
sed -i 's/1 + map/(0 + 1) + map/' "$INCR_SRC"
run cargo run --release --offline --bin homc -- "$INCR_SRC" --stats \
    --artifacts-dir "$INCR_DIR" | tee "$INCR_WARM"
if ! grep -q 'reverify_defs_skipped=[1-9]' "$INCR_WARM"; then
    echo "tier1: incr-smoke: edit resubmit replayed no prior definitions" >&2
    exit 1
fi
incr_verdict() { sed -n 's/.* -> \([a-z]*\).*/\1/p' "$1" | head -1; }
if [ "$(incr_verdict "$INCR_COLD")" != "$(incr_verdict "$INCR_WARM")" ]; then
    echo "tier1: incr-smoke: edit resubmit flipped the verdict:" >&2
    echo "tier1:   cold: $(incr_verdict "$INCR_COLD")  warm: $(incr_verdict "$INCR_WARM")" >&2
    exit 1
fi

# Explain smoke: the evidence layer on one safe and one unsafe program,
# named explicitly so a missing certificate is a hard failure. Each
# program verifies with an evidence export, `homc check` re-establishes
# the verdict from the certificate alone, and `homc explain` renders the
# run narrative — which must be byte-deterministic across two runs.
EXPLAIN_A=target/explain-a.txt
EXPLAIN_B=target/explain-b.txt
run cargo run --release --offline --bin homc -- --suite intro1 --evidence-dir "$EVD_DIR"
run cargo run --release --offline --bin homc -- --suite sum-e --evidence-dir "$EVD_DIR"
run cargo run --release --offline --bin homc -- check --suite intro1 --evidence-dir "$EVD_DIR"
run cargo run --release --offline --bin homc -- check --suite sum-e --evidence-dir "$EVD_DIR"
run cargo run --release --offline --bin homc -- explain --suite intro1 | tee "$EXPLAIN_A" >/dev/null
run cargo run --release --offline --bin homc -- explain --suite intro1 | tee "$EXPLAIN_B" >/dev/null
run cmp "$EXPLAIN_A" "$EXPLAIN_B"
run cargo run --release --offline --bin homc -- explain --suite sum-e >/dev/null

# Ledger smoke: the fleet-observability loop end to end. Two batch runs
# append checksummed records to a scratch ledger; `homc history` must
# render a per-program trend over both runs; `homc regress` must gate the
# second run cleanly against the first (exit 0 — two steady runs of the
# same build cannot breach a 1.5x median gate with 100 ms slack), and
# passing that default rule explicitly as `--threshold wall_us=1.5:100000`
# must print the same report, since both go through one rule parser. The
# progress stream written along the way must be schema-valid and replay
# through `homc top --snapshot`.
LEDGER_DIR=target/ledger-smoke
LEDGER_PROGRESS=target/ledger-progress.jsonl
LEDGER_HISTORY=target/ledger-history.txt
LEDGER_REGRESS=target/ledger-regress.txt
LEDGER_REGRESS_RULE=target/ledger-regress-rule.txt
rm -rf "$LEDGER_DIR"
run cargo run --release --offline --bin homc -- batch --workers 2 \
    --ledger "$LEDGER_DIR" --progress "$LEDGER_PROGRESS" sum max mc91
run cargo run --release --offline --bin homc -- batch --workers 2 \
    --ledger "$LEDGER_DIR" sum max mc91
run cargo run --release --offline --bin homc -- trace-validate "$LEDGER_PROGRESS"
run cargo run --release --offline --bin homc -- top --snapshot "$LEDGER_PROGRESS"
run cargo run --release --offline --bin homc -- history "$LEDGER_DIR" | tee "$LEDGER_HISTORY"
if ! grep -q '3 program(s) over 2 run(s)' "$LEDGER_HISTORY"; then
    echo "tier1: ledger-smoke: history did not see both runs" >&2
    exit 1
fi
run cargo run --release --offline --bin homc -- regress "$LEDGER_DIR" | tee "$LEDGER_REGRESS"
run cargo run --release --offline --bin homc -- regress "$LEDGER_DIR" \
    --threshold wall_us=1.5:100000 | tee "$LEDGER_REGRESS_RULE"
# Line 1 of each file is run()'s echo of the command, which differs.
if ! cmp -s <(sed 1d "$LEDGER_REGRESS") <(sed 1d "$LEDGER_REGRESS_RULE"); then
    echo "tier1: ledger-smoke: regress with the default rule spelled out printed a different report:" >&2
    diff <(sed 1d "$LEDGER_REGRESS") <(sed 1d "$LEDGER_REGRESS_RULE") >&2 || true
    exit 1
fi

# Benchmark smoke: the repository benchmark (`homcbench/`, a package of its
# own) calls the store API directly, so it is built here, and each of its
# four workloads runs for one second: `cold`, plus the three that publish
# and load store files (`certify` evidence, `resubmit` artifacts, `warm`
# disk-cache segments). A run's last line is its JSON result, which must
# say `"correct": true`.
run cargo build --release --offline --manifest-path homcbench/Cargo.toml
for WORKLOAD in cold certify resubmit warm; do
    HOMCBENCH_OUT="target/homcbench-$WORKLOAD.txt"
    run cargo run --release --offline --quiet --manifest-path homcbench/Cargo.toml -- \
        --workload "$WORKLOAD" --seed 1 --seconds 1 --trace 0 | tee "$HOMCBENCH_OUT"
    if ! tail -n 1 "$HOMCBENCH_OUT" | grep -q '"correct": true'; then
        echo "tier1: homcbench-smoke: the $WORKLOAD run is not correct:" >&2
        tail -n 1 "$HOMCBENCH_OUT" >&2
        exit 1
    fi
done

# Prometheus lint: --metrics-out must emit well-formed text exposition —
# every sample line's metric name matches [a-z_][a-z0-9_]*, every family
# has # HELP and # TYPE lines, every sample value is an integer.
PROM_OUT=target/metrics-smoke.prom
run cargo run --release --offline --bin homc -- --suite intro1 --metrics-out "$PROM_OUT"
test -s "$PROM_OUT"
if grep -vE '^(# (HELP|TYPE) [a-z_][a-z0-9_]* .*|[a-z_][a-z0-9_]*(\{[^}]*\})? [0-9]+)$' "$PROM_OUT" | grep -q .; then
    echo "tier1: prometheus-lint: malformed exposition line(s):" >&2
    grep -vE '^(# (HELP|TYPE) [a-z_][a-z0-9_]* .*|[a-z_][a-z0-9_]*(\{[^}]*\})? [0-9]+)$' "$PROM_OUT" >&2
    exit 1
fi
if ! grep -q '^# HELP ' "$PROM_OUT" || ! grep -q '^# TYPE ' "$PROM_OUT"; then
    echo "tier1: prometheus-lint: missing HELP/TYPE lines" >&2
    exit 1
fi

# Bench smoke: run Table 1 at full budget to a scratch file first and gate
# it against the checked-in baseline with bench-diff — a totals.wall_s
# regression past the gate thresholds (or any verdict flip) fails the
# stage *before* the baseline is refreshed, so a slow build cannot
# silently rewrite its own yardstick. The table1 run itself still fails
# on any verdict mismatch against the paper. A missing or stale-schema
# baseline fails fast with regeneration instructions instead of the
# opaque exit 3 that bench-diff would produce.
# The run also appends its rows to a scratch ledger, through the same
# append path as the CLI's `--ledger`; `homc history` must read them back
# as one table1 run of the 30 programs.
BENCH_SCRATCH=target/bench-table1.json
TABLE1_LEDGER=target/ledger-table1
TABLE1_HISTORY=target/ledger-table1-history.txt
rm -rf "$TABLE1_LEDGER"
run cargo run --release --offline -p homc-bench --bin table1 -- --json "$BENCH_SCRATCH" \
    --ledger "$TABLE1_LEDGER"
run cargo run --release --offline --bin homc -- history "$TABLE1_LEDGER" | tee "$TABLE1_HISTORY"
if ! grep -q '30 program(s) over 1 run(s)' "$TABLE1_HISTORY"; then
    echo "tier1: bench-smoke: history did not read the table1 run back from its ledger" >&2
    exit 1
fi
bench_schema() { sed -n 's/.*"schema": \([0-9]*\).*/\1/p' "$1" | head -1; }
# Warm-edit latency gate: on l-zipmap the edit-resubmit rerun must land at
# or under 25% of the cold wall without its certificate check (plus 20 ms
# of timer slack at these sub-second scales). The cold `total_s` includes
# the `check` phase (`check_s`), which the rerun does not run, so the gate
# compares against `total_s - check_s`. bench-diff thresholds only express
# regressions (ratio >= 1.0), so this improvement floor is checked directly
# on the fresh scratch document; bench-diff below still gates verdict flips
# and slowdowns of the incr column against the committed baseline.
INCR_ROW=$(sed -n 's/.*"name": "l-zipmap".*"check_s": \([0-9.]*\).*"total_s": \([0-9.]*\).*"incr_total_s": \([0-9.]*\).*/\1 \2 \3/p' "$BENCH_SCRATCH")
if [ -z "$INCR_ROW" ]; then
    echo "tier1: bench-smoke: scratch baseline has no l-zipmap check_s/total_s/incr_total_s row" >&2
    exit 1
fi
if ! awk -v row="$INCR_ROW" 'BEGIN { split(row, f, " "); exit !(f[3] <= (f[2] - f[1]) * 0.25 + 0.02) }'; then
    echo "tier1: bench-smoke: l-zipmap edit resubmit missed the 25% warm-edit gate (check/cold/incr seconds: $INCR_ROW)" >&2
    exit 1
fi
bench_regen_hint() {
    echo "tier1: regenerate the baseline with:" >&2
    echo "tier1:   cargo run --release --offline -p homc-bench --bin table1 -- --json BENCH_table1.json" >&2
    echo "tier1: and commit the result." >&2
}
if [ ! -f BENCH_table1.json ]; then
    echo "tier1: BENCH_table1.json is missing — the bench gate has no baseline." >&2
    bench_regen_hint
    exit 1
fi
OLD_SCHEMA=$(bench_schema BENCH_table1.json)
NEW_SCHEMA=$(bench_schema "$BENCH_SCRATCH")
if [ "${OLD_SCHEMA:-none}" != "$NEW_SCHEMA" ]; then
    echo "tier1: BENCH_table1.json has schema ${OLD_SCHEMA:-none} but this build writes schema $NEW_SCHEMA — stale baseline (schema 9 made table1 a report over run_batch: iterations dropped, peak_hbp became final_hbp_size)." >&2
    bench_regen_hint
    exit 1
fi
run cargo run --release --offline --bin homc -- bench-diff BENCH_table1.json "$BENCH_SCRATCH" --gate
cp "$BENCH_SCRATCH" BENCH_table1.json

echo "tier1: OK"
