#!/usr/bin/env bash
# The benchmark crate's own gate: format, lints, unit tests, and a --quick
# smoke of all six workloads, the probes and the traced pass (the smoke
# itself runs in well under 20 s). Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")"

cargo fmt --check
cargo clippy --offline --release --all-targets -- -D warnings
cargo test --offline --release --quiet

start=$(date +%s)
cargo run --offline --release --quiet -- run --quick
echo "smoke: $(( $(date +%s) - start )) s"

# Every workload (and the probes) left a trace that an independent JSON
# parser loads, with both processes in it.
for name in sync_write tpcc serve_ladder replay_trail replay_sharded crash_recover probes; do
    python3 - "out/trace_${name}.json" <<'PY'
import json, sys
events = json.load(open(sys.argv[1]))["traceEvents"]
pids = {e["pid"] for e in events}
assert pids == {1, 2}, (sys.argv[1], pids)
assert any(e.get("cat") == "host" for e in events), sys.argv[1]
PY
done
python3 -c 'import json; r = json.load(open("out/results.json")); assert r["violations"] == [], r["violations"]; assert len(r["workloads"]) == 6'

# A result file agrees with itself.
cargo run --offline --release --quiet -- compare out/results.json out/results.json > /dev/null
echo "benchmark/check.sh: ok"
