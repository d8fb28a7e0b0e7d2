#!/bin/sh
# Local CI gate: everything a merge must pass, in the order fastest-fail first.
# Usage: ./ci.sh
set -eu

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo build --workspace --release =="
cargo build --workspace --release

echo "== cargo clippy --workspace --all-targets -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test --workspace =="
cargo test --workspace --quiet

echo "== benchmark: flexbench build + tests =="
# flexbench is a workspace of its own, so the workspace build above never
# compiles it. Build and test it here so an API change in sim or secmon
# cannot break the benchmark silently.
cargo test --release --offline --manifest-path flexbench/Cargo.toml

echo "== observability smoke: fprun --metrics schema =="
# Build one protected workload end-to-end through the CLI, run it with
# metrics emission and check the document parses with its stable schema
# keys intact.
OBS_DIR=$(mktemp -d)
EXEC_DIR=$(mktemp -d)
trap 'rm -rf "$OBS_DIR" "$EXEC_DIR"' EXIT
cat > "$OBS_DIR/smoke.s" <<'EOF'
main:   li   $s0, 10
        li   $s1, 0
loop:   addu $s1, $s1, $s0
        addi $s0, $s0, -1
        bgtz $s0, loop
        move $a0, $s1
        li   $v0, 1
        syscall
        li   $v0, 10
        syscall
EOF
cargo run --quiet --release -p flexprot-cli --bin fpasm -- \
    "$OBS_DIR/smoke.s" --o "$OBS_DIR/smoke.fpx"
cargo run --quiet --release -p flexprot-cli --bin fpprotect -- \
    "$OBS_DIR/smoke.fpx" --o "$OBS_DIR/smoke.prot.fpx" \
    --secmon "$OBS_DIR/smoke.fpm" --density 1.0 --encrypt program
cargo run --quiet --release -p flexprot-cli --bin fprun -- \
    "$OBS_DIR/smoke.prot.fpx" --secmon "$OBS_DIR/smoke.fpm" \
    --metrics "$OBS_DIR/smoke.metrics.json" --trace "$OBS_DIR/smoke.trace.jsonl" \
    > /dev/null
for key in '"schema":"flexprot-metrics-v1"' '"counters"' '"histograms"' \
           '"icache_accesses"' '"guard_checks_passed"' '"decrypt_stall_cycles"' \
           '"sim_cycles"' '"instructions_committed"'; do
    grep -q "$key" "$OBS_DIR/smoke.metrics.json" || {
        echo "metrics document missing $key"; exit 1;
    }
done
grep -q '"ev":"run_end"' "$OBS_DIR/smoke.trace.jsonl" || {
    echo "trace missing run_end event"; exit 1;
}
echo "metrics schema OK"

echo "== exec engine: parallel determinism =="
# The batched execution engine guarantees that a sweep's tables, CSVs and
# aggregate metrics are byte-identical whatever the worker count, and that
# the artifact cache actually shares work between cells.
cargo run --quiet --release -p flexprot-bench --bin experiments -- \
    --quick --jobs 1 --csv "$EXEC_DIR/serial" \
    --metrics "$EXEC_DIR/serial.metrics.json" \
    > "$EXEC_DIR/serial.tables.txt" 2> /dev/null
cargo run --quiet --release -p flexprot-bench --bin experiments -- \
    --quick --jobs 4 --csv "$EXEC_DIR/parallel" \
    --metrics "$EXEC_DIR/parallel.metrics.json" \
    > "$EXEC_DIR/parallel.tables.txt" 2> /dev/null
diff -u "$EXEC_DIR/serial.tables.txt" "$EXEC_DIR/parallel.tables.txt" || {
    echo "tables differ between --jobs 1 and --jobs 4"; exit 1;
}
diff -u "$EXEC_DIR/serial.metrics.json" "$EXEC_DIR/parallel.metrics.json" || {
    echo "metrics differ between --jobs 1 and --jobs 4"; exit 1;
}
diff -ru "$EXEC_DIR/serial" "$EXEC_DIR/parallel" || {
    echo "CSV output differs between --jobs 1 and --jobs 4"; exit 1;
}
grep -Eq '"exec_cache_hits":[1-9]' "$EXEC_DIR/serial.metrics.json" || {
    echo "artifact cache recorded no hits"; exit 1;
}
grep -Eq '"exec_cache_misses":[1-9]' "$EXEC_DIR/serial.metrics.json" || {
    echo "artifact cache recorded no misses"; exit 1;
}
echo "parallel determinism OK"

echo "== experiments: results/ baselines under the predecoded engine =="
# Regenerate every table at full fidelity and diff against the committed
# CSVs: the predecoded fetch path must keep all recorded numbers
# byte-identical (a diff means either a stats regression or a deliberate
# experiment change — regenerate results/ and commit). Wall-clock per
# table is logged to results/timings.csv as a perf smoke; the file is
# machine-dependent and NOT diffed (non-gating).
cargo run --quiet --release -p flexprot-bench --bin experiments -- \
    --csv "$EXEC_DIR/full" --timings results/timings.csv \
    > /dev/null 2> /dev/null
for f in "$EXEC_DIR"/full/*.csv; do
    diff -u "results/$(basename "$f")" "$f" || {
        echo "results baseline diverged: $(basename "$f")"; exit 1;
    }
done
echo "results baselines OK (wall times -> results/timings.csv, non-gating)"

echo "== static surface: fpsurface baseline =="
# Lint every golden protected image of the protection matrix. The run
# fails on any error-severity finding (fpsurface exit code), and the
# per-cell tamper-surface counts must match the checked-in baseline —
# a diff means coverage regressed (or improved: regenerate the baseline
# with the same command and commit it alongside the change).
cargo run --quiet --release -p flexprot-cli --bin fpsurface -- \
    --csv "$EXEC_DIR/surface.csv" > /dev/null || {
    echo "fpsurface reported error-severity findings"; exit 1;
}
diff -u results/surface_baseline.csv "$EXEC_DIR/surface.csv" || {
    echo "tamper-surface counts diverged from results/surface_baseline.csv"
    exit 1
}
echo "surface baseline OK"

echo "== guard network: fpnetmap baseline + fplint --guardnet schema =="
# Map the guard network of every protection-matrix cell: abstract
# checksum proofs (proven/mismatch/unproven) and graph shape (edges,
# SCCs, min cut) per cell. A mismatch or error column going non-zero
# means the emitter and the verifier disagree about a checksum constant;
# any other diff against the baseline means network shape or proof power
# changed (regenerate with UPDATE_BASELINES=1 ./ci.sh and commit the new
# baseline). The grid must also be byte-identical whatever the worker
# count. --refusals writes the per-window non-proven ledger: one row per
# unproven/mismatch window with its typed reason code. Diffing it against
# results/refusals_baseline.csv enforces that the refusal count only goes
# down — a window sliding back from proven shows up as a new ledger row.
cargo run --quiet --release -p flexprot-cli --bin fpnetmap -- \
    --jobs 1 --csv "$EXEC_DIR/guardnet.csv" \
    --refusals "$EXEC_DIR/refusals.csv" > /dev/null || {
    echo "fpnetmap reported checksum mismatches"; exit 1;
}
cargo run --quiet --release -p flexprot-cli --bin fpnetmap -- \
    --jobs 4 --csv "$EXEC_DIR/guardnet4.csv" \
    --refusals "$EXEC_DIR/refusals4.csv" > /dev/null
diff -u "$EXEC_DIR/guardnet.csv" "$EXEC_DIR/guardnet4.csv" || {
    echo "guard-network grid differs between --jobs 1 and --jobs 4"; exit 1;
}
diff -u "$EXEC_DIR/refusals.csv" "$EXEC_DIR/refusals4.csv" || {
    echo "refusal ledger differs between --jobs 1 and --jobs 4"; exit 1;
}
if [ "${UPDATE_BASELINES:-0}" = "1" ]; then
    cp "$EXEC_DIR/guardnet.csv" results/guardnet_baseline.csv
    cp "$EXEC_DIR/refusals.csv" results/refusals_baseline.csv
    echo "regenerated results/guardnet_baseline.csv and results/refusals_baseline.csv"
fi
diff -u results/guardnet_baseline.csv "$EXEC_DIR/guardnet.csv" || {
    echo "guard network diverged from results/guardnet_baseline.csv"
    echo "hint: rerun as UPDATE_BASELINES=1 ./ci.sh and commit the regenerated baseline"
    exit 1
}
diff -u results/refusals_baseline.csv "$EXEC_DIR/refusals.csv" || {
    echo "per-window refusal ledger diverged from results/refusals_baseline.csv"
    echo "hint: a new row means a window regressed from proven; rerun as"
    echo "      UPDATE_BASELINES=1 ./ci.sh only for deliberate prover changes"
    exit 1
}
# The machine-readable guard-network report keeps its stable schema keys.
cargo run --quiet --release -p flexprot-cli --bin fplint -- \
    "$OBS_DIR/smoke.prot.fpx" --secmon "$OBS_DIR/smoke.fpm" --guardnet \
    > "$OBS_DIR/guardnet.json"
for key in '"schema":"flexprot-guardnet-v1"' '"guards"' '"nodes"' '"edges"' \
           '"min_cut"' '"proof"' '"weak_links"'; do
    grep -q "$key" "$OBS_DIR/guardnet.json" || {
        echo "guardnet document missing $key"; exit 1;
    }
done
echo "guard network OK"

echo "== translation validation: fpequiv baseline + fplint --equiv schema =="
# Translation-validate every protection-matrix cell against its baseline:
# the verdict column must read `proven` everywhere (fpequiv exits 1 on any
# error-severity FP8xx finding), the grid must be byte-identical whatever
# the worker count, and the per-cell verdicts must match the checked-in
# baseline. Run UPDATE_BASELINES=1 ./ci.sh to regenerate the baseline
# after a deliberate validator or matrix change.
cargo run --quiet --release -p flexprot-cli --bin fpequiv -- \
    --jobs 1 --csv "$EXEC_DIR/equiv.csv" > /dev/null || {
    echo "fpequiv reported error-severity findings (a matrix cell is not proven)"
    exit 1
}
cargo run --quiet --release -p flexprot-cli --bin fpequiv -- \
    --jobs 4 --csv "$EXEC_DIR/equiv4.csv" > /dev/null
diff -u "$EXEC_DIR/equiv.csv" "$EXEC_DIR/equiv4.csv" || {
    echo "translation-validation grid differs between --jobs 1 and --jobs 4"; exit 1;
}
if [ "${UPDATE_BASELINES:-0}" = "1" ]; then
    cp "$EXEC_DIR/equiv.csv" results/equiv_baseline.csv
    echo "regenerated results/equiv_baseline.csv"
fi
diff -u results/equiv_baseline.csv "$EXEC_DIR/equiv.csv" || {
    echo "translation-validation verdicts diverged from results/equiv_baseline.csv"
    echo "hint: rerun as UPDATE_BASELINES=1 ./ci.sh and commit the regenerated baseline"
    exit 1
}
# The machine-readable verdict document keeps its stable schema keys.
cargo run --quiet --release -p flexprot-cli --bin fplint -- \
    "$OBS_DIR/smoke.prot.fpx" --secmon "$OBS_DIR/smoke.fpm" \
    --equiv "$OBS_DIR/smoke.fpx" > "$OBS_DIR/equiv.json"
for key in '"schema":"flexprot-equiv-v1"' '"verdict":"proven"' '"stats"' \
           '"windows"' '"refusals"' '"findings"'; do
    grep -q "$key" "$OBS_DIR/equiv.json" || {
        echo "equiv document missing $key"; exit 1;
    }
done
echo "translation validation OK"

echo "== key-flow taint: fplint --taint schema =="
# The extended lint document carries the taint stats object when --taint
# is on (the clean smoke build must report zero leaks) and pins it to
# null when off, so consumers can tell "no leaks" from "not checked".
cargo run --quiet --release -p flexprot-cli --bin fplint -- \
    "$OBS_DIR/smoke.prot.fpx" --secmon "$OBS_DIR/smoke.fpm" --taint \
    --format json > "$OBS_DIR/taint.json"
for key in '"schema":"flexprot-lint-v1"' '"taint"' '"sources"' \
           '"tainted_stores":0' '"tainted_syscalls":0' '"key_dependent"' \
           '"unresolved_reads"'; do
    grep -q "$key" "$OBS_DIR/taint.json" || {
        echo "taint-enabled lint document missing $key"; exit 1;
    }
done
cargo run --quiet --release -p flexprot-cli --bin fplint -- \
    "$OBS_DIR/smoke.prot.fpx" --secmon "$OBS_DIR/smoke.fpm" \
    --format json > "$OBS_DIR/notaint.json"
grep -q '"taint":null' "$OBS_DIR/notaint.json" || {
    echo "lint document without --taint must carry \"taint\":null"; exit 1;
}
echo "key-flow taint schema OK"

echo "CI OK"
