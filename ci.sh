#!/usr/bin/env bash
# Local CI gate: formatting, lints (warnings are errors), full test suite.
# The workspace builds offline against the vendored stand-in crates.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo test =="
cargo test --workspace --offline -q

echo "== no-ignored-test gate =="
# Every test runs: a known defect is fixed or written down in DESIGN.md,
# never parked as an #[ignore]d test (tier-1 reads 0 ignored).
if grep -rn --include='*.rs' '#\[ignore' crates src tests; then
  echo "found an #[ignore]d test; fix it or delete it" >&2
  exit 1
fi

echo "== completion-token API gate =="
# The Completion<T> token in trail-sim is the one completion primitive;
# no layer may reintroduce a bespoke boxed-closure completion typedef.
if grep -rn --include='*.rs' 'Box<dyn FnOnce' crates src \
    | grep -v '^crates/sim/' \
    | grep -v 'EventFn\|schedule_at\|schedule_in'; then
  echo "found a bespoke Box<dyn FnOnce> completion callback outside trail-sim" >&2
  exit 1
fi

echo "== one-hasher gate =="
# trail_sim::FastMap / FastSet (crates/sim/src/hash.rs) is the one map
# type of in-process tables: keys the process makes itself gain nothing
# from std's keyed SipHash, and on the TPC-C path it was the largest host
# cost. Non-test code (each file read up to its first #[cfg(test)], as
# scripts/nontest-lines.sh reads it; comment lines skipped) must not name
# std's HashMap or HashSet.
hashers="$(find src crates/*/src -name '*.rs' ! -path crates/sim/src/hash.rs \
  | LC_ALL=C sort | while read -r file; do
    awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit }
         /^[[:space:]]*\/\// { next }
         /(^|[^A-Za-z0-9_])Hash(Map|Set)([^A-Za-z0-9_]|$)/ { printf "%s:%d: %s\n", FILENAME, FNR, $0 }' "$file"
  done)"
if [ -n "$hashers" ]; then
  echo "$hashers" >&2
  echo "found std HashMap/HashSet in non-test code; use trail_sim::FastMap / FastSet" >&2
  exit 1
fi

echo "== target-factory gate =="
# StackBuilder::build in the umbrella crate is the one way to construct a
# replay/bench stack (build_target sets a TargetKind shape, then builds;
# the shape's file system is mounted and preallocated there too); no
# crate may grow a private factory or boot MultiTrail by hand again (a
# reboot after a cut is BuiltStack::reboot, through the same build path).
if grep -rn --include='*.rs' \
    'fn build_target\|struct MultiStack\|fn prealloc\|MultiTrail::start' \
    crates/trace crates/bench; then
  echo "found a private stack factory outside the umbrella crate" >&2
  exit 1
fi
# The harness and the integration tests boot Trail through StackBuilder
# too (a delta override is `StackBuilder::format`); the examples and doc
# tests keep teaching the raw boot.
if grep -rn --include='*.rs' 'TrailDriver::start' crates/bench tests; then
  echo "crates/bench or tests/ boots Trail by hand; build it with StackBuilder" >&2
  exit 1
fi

# Every data device is a block target: one build path, one boot path, one
# recovery sink, and two BlockStack implementations (MultiTrail, Trail over
# one log or several, and StandardStack). The raw-disk twins must not come
# back.
if grep -rnE --include='*.rs' \
    'fn build_with_volumes|fn start_with_data_drivers|struct VolumeStack|struct TrailStack|struct MultiTrailStack|type WriteSink' \
    crates src; then
  echo "found a raw-disk twin of the block-target path" >&2
  exit 1
fi
impls="$(grep -rn --include='*.rs' 'impl BlockStack for' crates src || true)"
if [ "$(grep -c . <<<"$impls")" -gt 2 ]; then
  echo "more than two BlockStack implementations:" >&2
  echo "$impls" >&2
  exit 1
fi

echo "== one Trail front end gate =="
# Every Trail stack is a MultiTrail (a single log is an array of one), the
# one Trail BlockStack and the one place a request meets the capture tap;
# TrailDriver is the per-log engine inside it. A second Trail front-end
# kind, a driver that is a stack, or a tap on the driver must not come
# back.
if grep -rnE --include='*.rs' 'Front::TrailMulti|impl BlockStack for TrailDriver'     crates src tests examples   || grep -nE '^[[:space:]]*tap:' crates/core/src/driver.rs; then
  echo "found a second Trail front end; build Trail as a MultiTrail of N logs" >&2
  exit 1
fi

echo "== one-stack-face gate =="
# A stack has one face: BlockStack::submit(IoRequest) in trail-core, the
# request carrying its stream tag, with untagged write/read provided on
# top. A tagged twin of write/read must not come back, and the file
# systems and replay name the stack through trail-core, not the database.
if grep -rnE --include='*.rs' 'fn (write|read)_tagged' crates src tests examples; then
  echo "found a _tagged twin of a stack method; submit an IoRequest tagged with its stream" >&2
  exit 1
fi
for manifest in crates/fs/Cargo.toml crates/trace/Cargo.toml; do
  if awk '/^\[/ { on = ($0 == "[dependencies]") } on && /^trail-db([ .=]|$)/ { found = 1 }
       END { exit !found }' "$manifest"; then
    echo "$manifest lists trail-db under [dependencies]; BlockStack lives in trail-core" >&2
    exit 1
  fi
done

echo "== one-stack-vocabulary gate =="
# A stack has one name: a TargetKind shape, or a StackBuilder spec that
# adds the data-disk count and the tiny profile, printed and parsed in
# one grammar (src/target.rs). The names it replaced must not come back:
# a log-device enum, a volume spec, a built target and its drive enum, a
# campaign flavor enum, or a test's stack-by-name table.
if grep -rnE --include='*.rs' \
    'enum LogDevice|struct VolumeSpec|BuiltTarget|TargetDrive|enum Flavor|fn stack\([a-z_]+: &str' \
    src crates tests; then
  echo "found a second name for a stack; spell it as a TargetKind or StackBuilder spec" >&2
  exit 1
fi

echo "== one-routing gate =="
# Every sector of a Trail array belongs to the one log that owns its data
# region (trail_core::owning_log). The routing policies, the switch
# between them and the one-volume-set-per-log shape must not come back.
if grep -rnE --include='*.rs' \
    'LogRouting|StreamAffinity|set_routing|per_log: bool' \
    crates src tests examples; then
  echo "found a second Trail-array routing; a sector belongs to the log owning its region" >&2
  exit 1
fi

echo "== one-write-driver gate =="
# BuiltStack::drive (src/drive.rs) issues every §5.1 write list under a
# Pace; the private testbed and the closed-loop writer it replaced must
# not come back.
if grep -rnwE --include='*.rs' \
    'struct Testbed|fn spawn_writer|fn sync_writes(_trail|_standard)?|enum ArrivalMode' \
    crates src tests; then
  echo "found a private write loop beside BuiltStack::drive" >&2
  exit 1
fi

echo "== tables-as-data gate =="
# report::Table renders every scenario table, markdown and JSON alike; a
# hand-typed separator row means a scenario formats its own table again.
if grep -n '|---' crates/bench/src/scenarios.rs; then
  echo "scenarios.rs hand-formats a markdown table; declare it as a report::Table" >&2
  exit 1
fi

echo "== two-binary gate =="
# trail-bench (every experiment) and trace_tool (every trace chore) are
# the harness's only entry points; a new experiment is a registry entry,
# not a new binary.
bins="$(cargo metadata --offline --no-deps --format-version 1 \
  | grep -o '"kind":\["bin"\][^}]*"src_path":"[^"]*/crates/bench/[^"]*"' \
  | grep -o '"name":"[^"]*"' | sort | tr '\n' ' ')"
[ "$bins" = '"name":"trace_tool" "name":"trail-bench" ' ] \
  || { echo "trail-bench must have exactly two bin targets, found: $bins" >&2; exit 1; }

trail_bench() {
  cargo run --release --offline -p trail-bench --bin trail-bench -- "$@"
}

echo "== trail-bench all --quick smoke =="
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
trail_bench all --quick --out-dir "$smoke_dir" >/dev/null
for name in micro table1 fig3 fig4 ablation fs_compare table2 table3 track_util \
             replay_synthetic overload_sweep replay_tpcc replaystream serve serve_sweep \
             raid recovery; do
  test -s "$smoke_dir/BENCH_$name.json" \
    || { echo "trail-bench all --quick did not produce BENCH_$name.json" >&2; exit 1; }
done
# (Byte-identity of each artifact across entry points and against the
# golden table, and the raid/recovery field and threshold checks, are
# crates/bench/tests/scenario_artifacts.rs.)

echo "== trail-bench all, full size (the README's headline command) =="
full_dir="$smoke_dir/full"
trail_bench all --out-dir "$full_dir" >/dev/null
[ "$(ls "$full_dir"/BENCH_*.json | wc -l)" -eq 17 ] \
  || { echo "full-size trail-bench all did not write all 17 artifacts" >&2; exit 1; }
# The RAID sweep at full size: no row loses a request, and Trail-fronted
# reads overtake the members' queued write-backs.
raid_json="$full_dir/BENCH_raid.json"
awk 'BEGIN { RS = "[{]\"target\":" } NR > 1 {
  rows++
  if ($0 !~ /"errors":0,/) { print "raid row " rows " has errors"; bad = 1 }
} END { exit bad || rows == 0 }' "$raid_json" >&2 \
  || { echo "BENCH_raid.json fails its row checks" >&2; exit 1; }
read_speedup="$(grep -o '"small_read_speedup":[0-9.]*' "$raid_json" | grep -o '[0-9.]*$' || true)"
[ -n "$read_speedup" ] && awk -v s="$read_speedup" 'BEGIN { exit !(s >= 10) }' \
  || { echo "RAID-5 small_read_speedup '${read_speedup}' missing or below 10" >&2; exit 1; }
# The §5.1 micro runs at full size: with the four calibrated leads, no
# record write and no repositioning read waits out a revolution, sparse or
# clustered (the miss ledger counts each lost one; a lead that is too
# tight fails exactly this way).
micro_json="$full_dir/BENCH_micro.json"
awk 'BEGIN { RS = "[{]\"run\":" } NR > 1 {
  rows++
  if ($0 !~ /"lost_record_writes":0,/) { print "micro ledger row " rows " lost a record-write revolution"; bad = 1 }
  if ($0 !~ /"lost_reposition_reads":0,/) { print "micro ledger row " rows " lost a reposition revolution"; bad = 1 }
} END { exit bad || rows == 0 }' "$micro_json" >&2 \
  || { echo "BENCH_micro.json fails its ledger check" >&2; exit 1; }

# The crash campaign at full size: zero violations, and one exhaustive row
# per flavor that ran every enumerated cut of its burst, tore a record and
# cut inside a data-disk write.
recovery_json="$full_dir/BENCH_recovery.json"
grep -q '"crash_points_total":[0-9]*,"violations":0,' "$recovery_json" \
  || { echo "BENCH_recovery.json reports durability-contract violations" >&2; exit 1; }
for flavor in raw multi2 raid5; do
  row="$(grep -o "\"$flavor\":{[^}]*}" "$recovery_json" || true)"
  points="$(grep -o '"crash_points":[0-9]*' <<<"$row" | grep -o '[0-9]*$' || true)"
  [ -n "$points" ] && [ "$points" -ge 30 ] \
    && grep -q '"violations":0,' <<<"$row" \
    && grep -q '"torn_record_points":[1-9]' <<<"$row" \
    && grep -q '"cut_in_data_write_points":[1-9]' <<<"$row" \
    || { echo "BENCH_recovery.json lacks a clean exhaustive $flavor row of >= 30 cuts: $row" >&2; exit 1; }
done
# Figure 4 at full size: at Q = 256, recovery with write-back takes at
# least 3.5x as long as without it, the paper's bound.
fig4_json="$full_dir/BENCH_fig4.json"
awk 'BEGIN { RS = "[{]\"q\":" } NR > 1 && $0 + 0 == 256 {
  found = 1
  if (!match($0, /"total_ms":[0-9.eE+-]+/)) { print "fig4 Q = 256 row has no total_ms"; exit 1 }
  total = substr($0, RSTART + 11, RLENGTH - 11) + 0
  if (!match($0, /"total_no_wb_ms":[0-9.eE+-]+/)) { print "fig4 Q = 256 row has no total_no_wb_ms"; exit 1 }
  no_wb = substr($0, RSTART + 17, RLENGTH - 17) + 0
  ratio = no_wb > 0 ? total / no_wb : 0
  if (ratio < 3.5) { printf "WB/no-WB at Q = 256 is %.2fx, not >= 3.5x\n", ratio; exit 1 }
} END { if (!found) { print "fig4 has no Q = 256 row"; exit 1 } }' "$fig4_json" >&2 \
  || { echo "BENCH_fig4.json fails the paper's write-back ratio" >&2; exit 1; }
# §5.2 at full size: concurrent commits' WAL forces overlap and meet at
# Trail, so batch utilization never falls as concurrency rises, and at
# c = 12 it sits at least half a point above c = 1.
track_json="$full_dir/BENCH_track_util.json"
awk 'BEGIN { RS = "[{]\"concurrency\":" } NR > 1 {
  c = $0 + 0
  if (!match($0, /"batch_util":[0-9.eE+-]+/)) { print "track_util row c = " c " has no batch_util"; bad = 1; next }
  u = substr($0, RSTART + 13, RLENGTH - 13) + 0
  if (rows && u < last) { printf "batch_util falls from %.4f to %.4f at c = %d\n", last, u, c; bad = 1 }
  if (c == 1) { u1 = u; has1 = 1 }
  if (c == 12) { u12 = u; has12 = 1 }
  last = u; rows++
} END {
  if (!has1 || !has12) { print "track_util lacks the c = 1 or c = 12 row"; exit 1 }
  if (u12 - u1 < 0.005) { printf "batch_util at c = 12 is %.2f points above c = 1, not >= 0.5\n", 100 * (u12 - u1); bad = 1 }
  exit bad
}' "$track_json" >&2 \
  || { echo "BENCH_track_util.json fails its §5.2 slope check" >&2; exit 1; }

echo "== one-fault-harness gate =="
# trail::explore is the one fault harness over the umbrella crate's
# stacks: a cut is a FaultPlan entry and a reboot is BuiltStack::reboot.
# No test, example or library file beside the build path and the
# explorer may cut or restore a disk's power by hand again.
if grep -rnE --include='*.rs' '\.power_cut\(|\.power_on\(\)' tests examples src \
    | grep -v '^src/scenario.rs:\|^src/explore.rs:'; then
  echo "found a hand-rolled power cut or reboot; use a FaultPlan cut and BuiltStack::reboot" >&2
  exit 1
fi
# Transactions and served Puts are levels of the same explorer
# (explore::Level): a crash campaign over the db or the server enumerates
# its cuts through explore::run, never by hand beside it.
if grep -rn --include='*.rs' 'cut_instants(' crates/db/tests crates/serve/tests; then
  echo "found a hand-enumerated cut loop; run it at a trail::explore::Level" >&2
  exit 1
fi

echo "== fault-plane and trace-format gate =="
# FaultPlan on the stack's FaultClock is the one way harnesses schedule
# faults, and format v3 is the one trace layout; the retired ad-hoc
# hooks, the ReplayOptions shim and the old-version encoders must not
# creep back in. (The volume's fail_member primitive stays — it is what
# the plane's sink drives.)
if grep -rn --include='*.rs' \
    'schedule_member_failure\|fail_member\|FailMember' \
    crates/bench crates/serve src examples \
  || grep -rn --include='*.rs' \
    'FailMember\|fail_member:\|to_binary_v1\|to_binary_v2' \
    crates/trace crates/bench src examples; then
  echo "found an ad-hoc fault hook or an old trace-format encoder" >&2
  exit 1
fi

echo "== prediction gate =="
# HeadPredictor::predict_on_track is the one prediction function, aiming
# by calibrated leads (durations) from the head's exact angle; the floored
# same-track formula and the sector-count δ margin it replaced must not
# come back beside it.
if grep -rnE --include='*.rs' 'predict_same_track|DELTA_SAFETY_MARGIN' crates src tests examples; then
  echo "found the retired same-track formula or δ margin" >&2
  exit 1
fi

echo "== record-path gate =="
# format::payload_checksum is the one record checksum and
# format::build_record the one place a record is assembled (DESIGN.md,
# "copy budget"); the byte-serial hash and the per-sector staging struct
# they replaced must not come back beside them.
if grep -rn --include='*.rs' 'fn fnv1a\|struct PayloadSector' crates/core/src; then
  echo "found a second record checksum or record-assembly path in trail-core" >&2
  exit 1
fi

echo "== payload-path gate =="
# trail_disk::PayloadBuf is the one type a write's bytes travel in, from
# the layer that accepts them to the medium, and the one a read's come
# back in (DESIGN.md, "copy budget"): holders share the buffer, nobody
# copies it. The four copies it replaced
# — the write-back snapshot, the volume's private Rc plus per-member
# to_vec, the db's second copy of every evicted page — must not come back.
# (benchmark/check.sh below is what notices if the conversion breaks an
# API the benchmark compiles against.) Trail's write-back takes its bytes
# from PinnedMap::start_writeback, which hands out a second handle to the
# pinned range's payload: the write interned in the log disk's image pool
# when it was submitted, so the data disk stores it by reference.
writeback="$(awk '/fn start_writeback\(/ { on = 1 } on { print } on && /^    }$/ { exit }' \
  crates/core/src/pinned.rs)"
[ -n "$writeback" ] \
  || { echo "payload-path gate cannot find fn start_writeback in crates/core/src/pinned.rs" >&2; exit 1; }
if ! grep -q 'PayloadBuf)>' <<<"$writeback" || grep -nE 'to_vec\(\)|Vec<u8>' <<<"$writeback"; then
  echo "PinnedMap::start_writeback copies the pinned bytes; share the PayloadBuf handle" >&2
  exit 1
fi
if grep -rnE --include='*.rs' \
    'Payload::Write\(Rc::new\(|fn slice_payload\(.*\) -> Vec<u8>|flushing\.insert\(pid, bytes\.clone\(\)\)' \
    crates; then
  echo "found a per-layer copy of a write payload; share the PayloadBuf handle instead" >&2
  exit 1
fi
# Trail interns a write into the log disk's pool once, when it is
# submitted (TrailDriver::write): the queued write, the record's log copy,
# the pinned range and its write-back all hold the pooled sectors, so each
# logged sector is hashed once. An intern anywhere else in the driver (the
# landing-time one this replaced) hashes every logged sector a second time.
interns="$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit }
    /^[[:space:]]*\/\// { next }
    /^    (pub(\(crate\))? )?fn / { f = $0; sub(/^[^(]*fn /, "", f); sub(/[(<].*$/, "", f) }
    /\.intern\(/ { print f }' crates/core/src/driver.rs)"
if [ "$interns" != "write" ]; then
  echo "crates/core/src/driver.rs interns a payload in '${interns//$'\n'/ }', not once in fn write; intern at submit only" >&2
  exit 1
fi
# A sector equal to the one before it in its buffer takes that one's slot
# unhashed, and Pool::resolve (crates/disk/src/store.rs) is the one place
# that rule lives: the store write, the interned payload and the log copy
# all call it. A second comparison of a sector with its predecessor, or a
# second place that takes a reference on a slot it did not look up, is a
# copy of the rule that can drift from the pool's state. Non-test code
# (read up to its first #[cfg(test)], comment lines skipped) may compare
# neighbours in fn resolve alone, and retain a slot only there, in the
# by-reference write, the alias lookup and a read's view.
neighbours="$(for file in crates/disk/src/*.rs; do
  awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit }
       /^[[:space:]]*\/\// { next }
       /^[[:space:]]*(pub(\([a-z]+\))? )?fn / {
         f = $0; sub(/^[[:space:]]*(pub(\([a-z]+\))? )?fn /, "", f); sub(/[(<].*$/, "", f) }
       /windows\(2\)|(prev|last|before|previous|predecessor)[A-Za-z0-9_]*(\.[0-9]+)?[[:space:]]*[!=]=|[!=]=[[:space:]]*[*&]?(Some\()?(prev|last|before|previous|predecessor)/ {
         print "compare " f ": " FILENAME ":" FNR ": " $0 }
       /\.retain\(/ { print "retain " f ": " FILENAME ":" FNR ": " $0 }' "$file"
  done)"
strays="$(grep -vE '^(compare resolve|retain (resolve|write_held|with_first_byte|read_run)):' <<<"$neighbours" || true)"
if [ -z "$neighbours" ] || [ -n "$strays" ] || ! grep -q '^compare resolve:' <<<"$neighbours"; then
  echo "${strays:-payload-path gate cannot find the neighbour compare in fn resolve}" >&2
  echo "the equal-neighbour rule has one home, Pool::resolve in crates/disk/src/store.rs" >&2
  exit 1
fi
# A read completes as a view of the medium (PayloadBuf::read: one pool
# reference per sector), so a read that drops its data — Trail's
# repositioning and idle-refresh reads — costs reference counts, and a
# layer that needs bytes copies them at its own site, once. Disk::submit
# making bytes for a read again (read_range, or a zeroed buffer to read
# into) puts a copy of every sector read back on every read.
if awk '/^#\[cfg\(test\)\]/ { exit } /^[[:space:]]*\/\// { next } { print FILENAME ":" FNR ": " $0 }' \
    crates/disk/src/device.rs | grep -E 'read_range|vec!\[0'; then
  echo "crates/disk/src/device.rs makes bytes for a read; complete it as a PayloadBuf view" >&2
  exit 1
fi
# Recovery keeps the log tracks stage 1 scans as views and writes records
# back as aliases of the log's sectors; a byte buffer in recovery.rs is a
# copy of a track or a record coming back.
if grep -nE 'Vec<u8>|Cow<.*\[u8\]>|\.to_vec\(\)' crates/core/src/recovery.rs; then
  echo "crates/core/src/recovery.rs holds a byte buffer; keep the read's PayloadBuf view" >&2
  exit 1
fi
# The block queue merges adjacent writes into one disk command by handing
# the disk every member's PayloadBuf as one PayloadChain; gluing the
# members' bytes together instead would copy every merged write-back.
if grep -nE 'extend_from_slice|to_vec\(\)|concat\(' crates/blockio/src/driver.rs; then
  echo "crates/blockio/src/driver.rs copies payload bytes; chain the PayloadBuf parts instead" >&2
  exit 1
fi

echo "== one pinned-memory type gate =="
# trail-core's pinned memory is one crate-private sector-interval map
# (crates/core/src/pinned.rs). The exact-key table, its key and its
# write-back outcome enum it replaced must not come back beside it.
if grep -rnE --include='*.rs' 'struct BufferTable|struct BlockKey|enum WritebackOutcome' \
    crates src tests examples; then
  echo "found a second pinned-memory type; extend PinnedMap instead" >&2
  exit 1
fi

echo "== one-crash-oracle gate =="
# trail_disk::crash is the one crash oracle: tagged sector images, the
# AckLedger and cut_instants. A private sector tag, ack ledger, crash flag
# or per-flavor verifier must not come back beside it.
oracle='fn sector_image|fn tag_of|fn tagged_sector|struct Ledger\b|struct CrashFlag|fn verify_raw'
if grep -rnE --include='*.rs' "$oracle" crates src tests examples \
    | grep -v '^crates/disk/src/crash.rs:'; then
  echo "found a private crash oracle; record the writes in trail_disk::AckLedger" >&2
  exit 1
fi

echo "== medium gate =="
# SectorStore keeps its index pages in a slab found through a table of
# positions, and range I/O probes that table once per page a run crosses
# (DESIGN.md, "The recording medium"). The separately boxed page and the
# sector-at-a-time loops it replaced — in write_range and in the power
# cut's torn prefix — must not come back.
if grep -rn --include='*.rs' 'Box<IndexPage>' crates/disk/src; then
  echo "found a separately boxed index page; pages live in Index::slab" >&2
  exit 1
fi
body_of() { awk -v sig="fn $2(" 'index($0, sig) { on = 1 } on { print } on && /^    }$/ { exit }' "$1"; }
while read -r file name; do
  [ -n "$(body_of "$file" "$name")" ] \
    || { echo "medium gate cannot find fn $name in $file" >&2; exit 1; }
  if body_of "$file" "$name" | grep -n 'write_sector('; then
    echo "$file: fn $name writes sector by sector; probe the index once per page" >&2
    exit 1
  fi
done <<'SITES'
crates/disk/src/store.rs write_range
crates/disk/src/device.rs power_cut
SITES

echo "== one-medium gate =="
# Every disk a stack builds keeps its images in the stack's one pool
# (Disk::in_pool), so a logged sector and its write-back share one body
# (DESIGN.md, "The recording medium"). A bare Disk::new in the build path
# would give that disk a pool of its own and silently double the medium.
if grep -n 'Disk::new(' src/scenario.rs; then
  echo "src/scenario.rs builds a disk on a pool of its own; use Disk::in_pool with the stack's pool" >&2
  exit 1
fi

echo "== retired-subcommand gate =="
# Host-side cost is the repo benchmark's job (benchmark/README.md); the
# old wall-clock suite must not come back as a subcommand.
if perf_err="$(trail_bench perf 2>&1 >/dev/null)"; then
  echo "trail-bench perf should no longer exist" >&2; exit 1
fi
grep -q 'unknown scenario "perf"' <<<"$perf_err" \
  || { echo "trail-bench perf failed for another reason: $perf_err" >&2; exit 1; }
# Replaying a trace file is trace_tool replay's job alone; the second
# command that did it must stay gone and say where the job went.
if file_err="$(trail_bench replay_stream --trace x 2>&1 >/dev/null)"; then
  echo "trail-bench replay_stream --trace should no longer exist" >&2; exit 1
fi
grep -q 'trace_tool replay' <<<"$file_err" \
  || { echo "trail-bench replay_stream --trace does not point at trace_tool replay: $file_err" >&2; exit 1; }

echo "== one trace CLI gate =="
# trace_tool is the one trace command line: generate, convert --compress
# and replay [--shards N] chain the 10^7-record gate below. trail-bench
# must not grow a second generate -> compress -> replay chain (the
# retired `giga` subcommand) again.
if grep -rnE --include='*.rs' '"giga"|fn cmd_giga|giga_(raw|delta)\.trace' crates src; then
  echo "found a trace pipeline in trail-bench; chain trace_tool's commands instead" >&2
  exit 1
fi
if giga_err="$(trail_bench giga 2>&1 >/dev/null)"; then
  echo "trail-bench giga should no longer exist" >&2; exit 1
fi
grep -q 'unknown scenario "giga"' <<<"$giga_err" \
  || { echo "trail-bench giga failed for another reason: $giga_err" >&2; exit 1; }

echo "== one-entry-point gate =="
# One perf instrument (benchmark/), one binary->binary trace re-encoder
# for trail-bench (trail_trace::recode; trace_tool convert streams any
# format pair through one RecordSource/RecordSink loop), no capability
# without a caller: what PR 22 deleted must not come back.
if [ -e vendor/criterion ] || grep -n '^\[\[bench\]\]' crates/bench/Cargo.toml; then
  echo "found a cargo-bench instrument; host cost is benchmark/'s job" >&2
  exit 1
fi
if grep -rn --include='*.rs' 'struct StreamingCapture\|enum SchedulerKind' crates src; then
  echo "found a capability nothing calls (StreamingCapture / SchedulerKind)" >&2
  exit 1
fi
if grep -rn --include='*.rs' 'fn compress\|meta\.encoding = ChunkEncoding::Delta' \
    crates src examples | grep -v '^crates/trace/'; then
  echo "found a hand-written trace re-encode loop; call trail_trace::recode" >&2
  exit 1
fi
# Simulator::block_on is the one way to wait for one request: outside
# trail-sim, no non-test function arms a completion whose handler only
# fills a captured slot (`*slot.borrow_mut() = …` / `flag.set(true)`), the
# signature of a private blocking helper that then drives the simulator.
slot_only='\.completion\(\s*move \|_, [^|]*\|\s*(\{\s*(if [^{;]*\{\s*)?)?(\*\w+\.borrow_mut\(\) = [^;]*|\w+\.set\((true|Some\()[^;]*\))(;\s*(\}\s*)?\})?\s*\)'
for f in $(grep -rl --include='*.rs' '\.completion(' crates/*/src src | grep -v '^crates/sim/'); do
  if awk '/#\[cfg\(test\)\]/ { exit } !/^\s*\/\/[\/!]/ { print }' "$f" \
      | grep -Pzo "$slot_only" | tr '\0' '\n' | grep -q .; then
    echo "$f: a completion handler that only fills a slot; wait with Simulator::block_on" >&2
    exit 1
  fi
done

echo "== one-home-per-fact gate =="
# A fact is recorded once, at the layer that owns it, and nothing is kept
# that nothing reads (ISSUE 25). The capture tap lives at the stack front
# ends (the BlockStack impls), never on the block targets beneath them.
if grep -nE 'set_tap|TapHandle' crates/blockio/src/driver.rs crates/blockio/src/device.rs \
  || grep -rnE 'set_tap|TapHandle' crates/volume/src; then
  echo "found a capture tap below the stack front end; StandardStack reports submissions" >&2
  exit 1
fi
if grep -rnE --include='*.rs' 'struct StreamView|fn split_by_stream|pub struct Counter' crates src; then
  echo "found a deleted capability with no caller (StreamView / split_by_stream / Counter)" >&2
  exit 1
fi
replay_options="$(awk '/^pub struct ReplayOptions \{/ { on = 1 } on { print } on && /^\}/ { exit }' \
  crates/trace/src/replay.rs)"
[ -n "$replay_options" ] \
  || { echo "one-home-per-fact gate cannot find struct ReplayOptions" >&2; exit 1; }
if grep -nE 'data_disks|sample_every|max_in_flight' <<<"$replay_options"; then
  echo "ReplayOptions grew back a knob no caller sets (data_disks / sample_every / max_in_flight)" >&2
  exit 1
fi
# Replay has one arrival path: records go from Source straight to submit,
# with no admission queue and no cursor trait between them.
if grep -rnE --include='*.rs' 'trait RecordCursor|struct ShardCursor|fn drain_deferred' crates; then
  echo "found a retired replay admission queue or record cursor" >&2
  exit 1
fi
# No public function without a caller: every `pub fn` name in the library
# sources must appear somewhere in the workspace's .rs files (benchmark/
# included) or README.md beyond its own definitions.
search_dirs=(crates src examples tests benchmark/src)
uncalled=""
for name in $(grep -rhoE --include='*.rs' 'pub fn [a-z_][a-z0-9_]*' crates/*/src src \
    | awk '{ print $3 }' | sort -u); do
  # (`|| true`: grep exits 1 on zero matches, which pipefail would make fatal.)
  uses=$(( $(grep -rwo --include='*.rs' "$name" "${search_dirs[@]}" | wc -l || true) \
    + $(grep -wo "$name" README.md | wc -l || true) ))
  defs=$(grep -rEo --include='*.rs' "fn $name\b" "${search_dirs[@]}" | wc -l || true)
  [ "$uses" -gt "$defs" ] || uncalled="$uncalled $name"
done
[ -z "$uncalled" ] \
  || { echo "pub fns with no reference in the workspace:$uncalled" >&2; exit 1; }

echo "== one-record-stream gate =="
# trace_tool reads and writes both trace formats through one
# RecordSource/RecordSink pair, and the replay dispatcher's report bytes
# are pinned (crates/trace/tests/stream_properties.rs): the in-memory
# JSONL branches and the pre-scheduled replay oracle must not come back.
if grep -rnE --include='*.rs' \
    'replay_single_issuer|schedule_oracle_sampler|"--oracle"|fn load_jsonl|fn store\(' crates; then
  echo "found a retired replay oracle or in-memory JSONL path" >&2
  exit 1
fi

echo "== one-failure-channel gate =="
# A device error is an IoError delivered through the request's Completion,
# and each layer decides on it in one place (DESIGN.md, "Drop means
# cancel"). Outside trail-disk, no non-test code may ask the device what
# went wrong, tolerate a synchronous power-loss rejection, or count
# transient cancels again.
channel='tolerate_power_loss|transient_cancels_pending|DiskError::(PoweredOff|Failed|Transient)|\.is_failed\(\)|\.is_powered\(\)'
channel_hits=""
for f in $(grep -rlE --include='*.rs' "$channel" crates src examples \
    | grep -v '^crates/disk/src/' | grep -v '/tests/' || true); do
  hits="$(awk '/#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$f" \
    | grep -E "$channel" || true)"
  [ -z "$hits" ] || channel_hits="$channel_hits$hits"$'\n'
done
[ -z "$channel_hits" ] || {
  echo "$channel_hits" >&2
  echo "found a second failure channel; deliver an IoError through the Completion" >&2
  exit 1
}

echo "== one-latency-type gate =="
# trail_sim::DurationHistogram is the one latency statistic (DESIGN.md,
# "Latency statistics"): the keep-every-sample LatencySummary and a second
# histogram type must not come back, and no stats struct may keep one
# sample per operation again.
if grep -rn --include='*.rs' 'LatencySummary' crates src tests examples \
  || grep -rnE --include='*.rs' 'struct [A-Za-z]*Histogram\b' crates src \
    | grep -v '^crates/sim/src/stats.rs:'; then
  echo "found a second latency type; record into trail_sim::DurationHistogram" >&2
  exit 1
fi
stats_vecs="$(find crates src -name '*.rs' -exec awk '
  /^pub struct [A-Za-z0-9_]*Stats \{/ { on = 1; name = $3 }
  on && /Vec<SimDuration>/ { print FILENAME ": " name " keeps a Vec<SimDuration>" }
  on && /^\}/ { on = 0 }' {} +)"
[ -z "$stats_vecs" ] \
  || { echo "$stats_vecs; record into a DurationHistogram" >&2; exit 1; }

echo "== one-parity-rule gate =="
# A RAID volume decides each thing once (crates/volume/src/volume.rs): one
# `serviceable` rule says whether a request can be served, and every RAID-5
# span is written by one parity rule, reconstruct-write — parity from whole
# rows, so replaying a torn stripe heals it; a full stripe and a span
# without its parity member read nothing. Non-test code (read up to its
# first #[cfg(test)], comment lines skipped) must not name the retired span
# modes (read-modify-write among them) or the striped planner's private
# action enum, and counts failed members in one place.
parity_rules="$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit }
  /^[[:space:]]*\/\// { next }
  /SpanMode::(Full|ParityLess|Rmw)|Rmw \{|enum Act([^A-Za-z0-9_]|$)/ { print FILENAME ":" FNR ": " $0 }
  /failed[^;]*\.count\(\)/ { counts = counts FILENAME ":" FNR ": " $0 "\n"; n++ }
  END { if (n > 1) printf "%s", counts }' crates/volume/src/volume.rs)"
[ -z "$parity_rules" ] || {
  echo "$parity_rules" >&2
  echo "found a second serviceability or parity rule in the volume; decide it in serviceable / raid5_plan_spans" >&2
  exit 1
}

echo "== one-scheduler gate =="
# The block queue has one elevator: every StandardDriver indexes its queue
# with C-LOOK (crates/blockio/src/sched.rs), and a caller names only the
# read priority (StandardDriver::with_priority). Non-test code (read up to
# its first #[cfg(test)], comment lines skipped) must not bring back a
# scheduler trait object or a FIFO policy, nor name Clook outside
# crates/blockio/src.
schedulers="$(find src crates/*/src -name '*.rs' | LC_ALL=C sort | while read -r file; do
    case "$file" in crates/blockio/src/*) own=1 ;; *) own=0 ;; esac
    awk -v own="$own" '/^[[:space:]]*#\[cfg\(test\)\]/ { exit }
         /^[[:space:]]*\/\// { next }
         /trait Scheduler|dyn Scheduler|struct Fifo/ \
           || (!own && /(^|[^A-Za-z0-9_])Clook([^A-Za-z0-9_]|$)/) {
           printf "%s:%d: %s\n", FILENAME, FNR, $0 }' "$file"
  done)"
if [ -n "$schedulers" ]; then
  echo "$schedulers" >&2
  echo "found a second queue policy or a caller choosing the elevator; C-LOOK is StandardDriver's own, pick a Priority" >&2
  exit 1
fi

echo "== trace_tool smoke (generate -> replay, codec round-trip) =="
trace_tool() {
  cargo run --release --offline -p trail-bench --bin trace_tool -- "$@"
}
trace_tool generate --out "$smoke_dir/smoke.trace" --quick \
  --requests 120 --streams 2 --spatial zipf >/dev/null
trace_tool inspect "$smoke_dir/smoke.trace" >/dev/null
trace_tool replay "$smoke_dir/smoke.trace" --quick --target trail \
  --out-dir "$smoke_dir" >/dev/null
test -s "$smoke_dir/BENCH_replay_trail.json" \
  || { echo "trace_tool replay did not produce BENCH_replay_trail.json" >&2; exit 1; }
trace_tool convert "$smoke_dir/smoke.trace" "$smoke_dir/smoke.jsonl" >/dev/null
trace_tool convert "$smoke_dir/smoke.jsonl" "$smoke_dir/smoke2.trace" >/dev/null
cmp -s "$smoke_dir/smoke.trace" "$smoke_dir/smoke2.trace" \
  || { echo "trace codec binary->jsonl->binary round trip is not byte-identical" >&2; exit 1; }
# The encoding is storage, not content: the JSONL twin replays to the
# same artifact bytes.
mkdir -p "$smoke_dir/smoke_jsonl"
trace_tool replay "$smoke_dir/smoke.jsonl" --quick --target trail \
  --out-dir "$smoke_dir/smoke_jsonl" >/dev/null
cmp -s "$smoke_dir/BENCH_replay_trail.json" "$smoke_dir/smoke_jsonl/BENCH_replay_trail.json" \
  || { echo "trace_tool replay of the .jsonl twin differs from the .trace replay" >&2; exit 1; }

echo "== streaming replay gate (10^6-record chunked trace, byte-identical) =="
# Generate a million-record chunked trace and stream it through the
# bounded-memory replay engine twice. The arrival rate is sustainable
# (20 ms mean IAT over 2 devices) so the open-loop queue stays bounded;
# everything in the artifact is virtual-time, so the two runs must agree
# byte for byte.
trace_tool generate --out "$smoke_dir/big.trace" \
  --requests 1000000 --devices 2 --streams 4 --mean-iat-us 20000 \
  --seed 42 >/dev/null
stream_a="$smoke_dir/stream_a"; stream_b="$smoke_dir/stream_b"
mkdir -p "$stream_a" "$stream_b"
replay_json=BENCH_replay_trail_multi2.json
stream_out="$(trace_tool replay "$smoke_dir/big.trace" --target trail_multi2 \
  --out-dir "$stream_a")"
trace_tool replay "$smoke_dir/big.trace" --target trail_multi2 \
  --out-dir "$stream_b" >/dev/null
cmp -s "$stream_a/$replay_json" "$stream_b/$replay_json" \
  || { echo "$replay_json is not byte-identical across runs" >&2; exit 1; }
grep -q '"requests":1000000' "$stream_a/$replay_json" \
  || { echo "streaming replay gate must cover 10^6 records" >&2; exit 1; }
for field in peak_resident_records latency_fingerprint; do
  grep -q "\"$field\"" "$stream_a/$replay_json" \
    || { echo "$replay_json lacks $field" >&2; exit 1; }
done
# Bounded memory on a Trail target, measured: one unique header sector and
# a mostly-empty index page per log record are what this replay's media
# hold, so its real peak RSS says whether the medium is still laid out
# for that (measured 229.5 MB; 330 MB with 256-byte index pages and
# whole-sector slots). The gate is the measurement + 25 %.
peak_rss_mb() { grep -o 'VmHWM [0-9.]* MB' <<<"$1" | tail -1 | grep -o '[0-9.]*' || true; }
hwm="$(peak_rss_mb "$stream_out")"
[ -n "$hwm" ] && awk -v m="$hwm" 'BEGIN { exit !(m <= 287) }' \
  || { echo "streaming replay peak RSS '${hwm}' MB missing or above 287 MB" >&2; exit 1; }

echo "== write-back backlog gate (10^5 records offered faster than Trail retires them) =="
# A 10 ms mean gap over two data disks offers more writes than their
# write-backs retire, so the pinned backlog grows for the whole replay.
# A pinned range is the write interned in the log disk's image pool at
# submission, a few bytes a sector, whose body its log copy aliases; a pinned copy of every
# write's bytes shows here at once (measured 54.0 MB; 235 MB while the
# pinned range was the caller's buffer). The gate is the measurement
# + 25 %.
trace_tool generate --out "$smoke_dir/backlog.trace" \
  --requests 100000 --devices 2 --streams 4 --mean-iat-us 10000 \
  --seed 42 >/dev/null
backlog_out="$(trace_tool replay "$smoke_dir/backlog.trace" --target trail \
  --out-dir "$smoke_dir/backlog")"
hwm="$(peak_rss_mb "$backlog_out")"
[ -n "$hwm" ] && awk -v m="$hwm" 'BEGIN { exit !(m <= 68) }' \
  || { echo "write-back backlog replay peak RSS '${hwm}' MB missing or above 68 MB" >&2; exit 1; }

echo "== compressed + sharded replay gate (delta <= 60%, thread-count byte-identity) =="
# Delta-compress the million-record trace and require the promised
# ratio on the synthetic Poisson workload.
trace_tool convert "$smoke_dir/big.trace" "$smoke_dir/big_delta.trace" \
  --compress >/dev/null
raw_bytes=$(wc -c < "$smoke_dir/big.trace")
delta_bytes=$(wc -c < "$smoke_dir/big_delta.trace")
awk -v d="$delta_bytes" -v r="$raw_bytes" 'BEGIN { exit !(d * 10 <= r * 6) }' \
  || { echo "delta trace is $delta_bytes bytes, more than 60% of $raw_bytes raw" >&2; exit 1; }
# Round-tripping back to raw chunks must reproduce the original bytes.
trace_tool convert "$smoke_dir/big_delta.trace" "$smoke_dir/big_raw2.trace" \
  --raw >/dev/null
cmp -s "$smoke_dir/big.trace" "$smoke_dir/big_raw2.trace" \
  || { echo "delta->raw conversion does not reproduce the original trace" >&2; exit 1; }
# Sharded replay of the compressed trace at 1, 2, and 4 worker threads:
# the merged artifact depends on the shard count, never the thread
# count, so all three must be byte-identical.
for t in 1 2 4; do
  mkdir -p "$smoke_dir/shard_t$t"
  trace_tool replay "$smoke_dir/big_delta.trace" --target trail_multi2 \
    --shards 4 --threads "$t" --out-dir "$smoke_dir/shard_t$t" >/dev/null
done
cmp -s "$smoke_dir/shard_t1/$replay_json" "$smoke_dir/shard_t2/$replay_json" \
  || { echo "sharded artifact differs between 1 and 2 threads" >&2; exit 1; }
cmp -s "$smoke_dir/shard_t1/$replay_json" "$smoke_dir/shard_t4/$replay_json" \
  || { echo "sharded artifact differs between 1 and 4 threads" >&2; exit 1; }
grep -q '"shards":4' "$smoke_dir/shard_t1/$replay_json" \
  || { echo "sharded artifact does not record its shard count" >&2; exit 1; }
# The chunk encoding is storage, not semantics: a sharded replay of the
# raw trace must produce the same latency fingerprint.
mkdir -p "$smoke_dir/shard_raw"
trace_tool replay "$smoke_dir/big.trace" --target trail_multi2 \
  --shards 4 --threads 2 --out-dir "$smoke_dir/shard_raw" >/dev/null
fp_delta=$(grep -o '"latency_fingerprint":"[0-9a-f]*"' "$smoke_dir/shard_t1/$replay_json")
fp_raw=$(grep -o '"latency_fingerprint":"[0-9a-f]*"' "$smoke_dir/shard_raw/$replay_json")
[ -n "$fp_delta" ] && [ "$fp_delta" = "$fp_raw" ] \
  || { echo "raw and delta sharded replays disagree on the fingerprint" >&2; exit 1; }

echo "== 10^7-record gate (trace_tool: generate -> compress -> single vs sharded replay) =="
# Four streams round-robin over four devices (Poisson arrivals at 20 ms
# mean, 30 % reads, 4-KB requests) replayed on the standard target: the
# routing is shared-nothing, so the sharded replay's merged latency
# artifacts must equal the single engine's exactly.
giga_dir="$smoke_dir/giga"
mkdir -p "$giga_dir/single" "$giga_dir/sharded"
trace_tool generate --out "$giga_dir/raw.trace" --seed 42 --devices 4 --streams 4 \
  --mean-iat-us 20000 --requests 10000000 >/dev/null
trace_tool convert "$giga_dir/raw.trace" "$giga_dir/delta.trace" --compress >/dev/null
raw_bytes=$(wc -c < "$giga_dir/raw.trace")
delta_bytes=$(wc -c < "$giga_dir/delta.trace")
rm "$giga_dir/raw.trace"
echo "   delta trace: $delta_bytes bytes of $raw_bytes raw"
awk -v d="$delta_bytes" -v r="$raw_bytes" 'BEGIN { exit !(d * 10 <= r * 6) }' \
  || { echo "10^7 delta trace is $delta_bytes bytes, more than 60% of $raw_bytes raw" >&2; exit 1; }
single_out="$(trace_tool replay "$giga_dir/delta.trace" --target standard \
  --out-dir "$giga_dir/single")"
sharded_out="$(trace_tool replay "$giga_dir/delta.trace" --target standard --shards 4 \
  --out-dir "$giga_dir/sharded")"
echo "$single_out" | sed 's/^/   /'
echo "$sharded_out" | sed 's/^/   /'
giga_json=BENCH_replay_standard.json
grep -q '"requests":10000000' "$giga_dir/single/$giga_json" \
  || { echo "10^7 gate's replay must cover 10^7 records" >&2; exit 1; }
grep -q '"shards":4' "$giga_dir/sharded/$giga_json" \
  || { echo "10^7 gate's sharded artifact does not record its shard count" >&2; exit 1; }
for pattern in '"latency_fingerprint":"[0-9a-f]*"' \
    '"latency":{[^}]*}' '"read_latency":{[^}]*}' '"write_latency":{[^}]*}'; do
  single=$(grep -o "$pattern" "$giga_dir/single/$giga_json" || true)
  sharded=$(grep -o "$pattern" "$giga_dir/sharded/$giga_json" || true)
  [ -n "$single" ] && [ "$single" = "$sharded" ] \
    || { echo "sharded replay differs from the single engine on $pattern" >&2; exit 1; }
done
echo "   $(grep -o '"latency_fingerprint":"[0-9a-f]*"' "$giga_dir/single/$giga_json") (single == sharded)"
# Bounded memory, measured: the medium keeps each distinct sector image
# once and every latency statistic is a histogram, so 5.6x10^7 written
# sectors must not show in either replay's real peak RSS (measured 48.8 MB
# single and 50.2 MB sharded, each in a process of its own; 86 MB when
# the sharded pass followed the single one in one process, 170 MB while
# the disks kept one rotational-wait sample per command, GBs with a
# per-sector store). The gate is that one-process measurement + 25 %.
for out in "$single_out" "$sharded_out"; do
  hwm="$(peak_rss_mb "$out")"
  [ -n "$hwm" ] && awk -v m="$hwm" 'BEGIN { exit !(m <= 108) }' \
    || { echo "10^7 replay peak RSS '${hwm}' MB missing or above 108 MB" >&2; exit 1; }
done
# The >= 2x sharded speedup criterion is a wall-clock property and only
# meaningful with real cores under the shards; assert it when this
# machine has at least 4, otherwise record the measurement and move on.
wall_rate() { grep -o '[0-9.]* records/s wall' <<<"$1" | grep -o '^[0-9.]*'; }
speedup=$(awk -v a="$(wall_rate "$single_out")" -v b="$(wall_rate "$sharded_out")" \
  'BEGIN { printf "%.2f", b / a }')
cores=$(nproc 2>/dev/null || echo 1)
if [ "$cores" -ge 4 ]; then
  awk -v s="$speedup" 'BEGIN { exit !(s >= 2.0) }' \
    || { echo "sharded replay speedup $speedup < 2.0x on $cores cores" >&2; exit 1; }
else
  echo "   (speedup ${speedup}x measured on $cores core(s); >=2x gate needs >=4 cores, skipped)"
fi

echo "== trace_tool blkparse import smoke (import -> inspect -> replay) =="
trace_tool import crates/trace/tests/data/sample.blkparse \
  --out "$smoke_dir/import.trace" >/dev/null
# Capture before grepping: `grep -q` exits at first match, and the
# resulting EPIPE would fail the gate under pipefail.
inspect_out="$(trace_tool inspect "$smoke_dir/import.trace")"
grep -q 'streams:  4' <<<"$inspect_out" \
  || { echo "imported fixture should carry 4 CPU streams" >&2; exit 1; }
trace_tool replay "$smoke_dir/import.trace" --quick --target trail_multi2 \
  --out-dir "$smoke_dir" >/dev/null
grep -q '"streams"' "$smoke_dir/BENCH_replay_trail_multi2.json" \
  || { echo "replay of imported trace lacks per-stream metrics" >&2; exit 1; }

echo "== non-test lines (information, not a gate) =="
scripts/nontest-lines.sh

echo "== repo benchmark gate (benchmark/check.sh) =="
# The benchmark crate is its own workspace, so nothing above compiles it:
# this is where a public-API break in the library crates shows up.
benchmark/check.sh

echo "== paired-run script smoke (scripts/paired.sh) =="
# scripts/paired.sh is how a host-time claim is measured: alternating
# parent/change runs of the benchmark, every run printed, medians,
# quartiles, wins and a verdict for each host end-to-end metric
# (host_ops_per_s, peak_rss_mb, setup_s). It parses, and one short pair of the
# benchmark check.sh just built, against itself, prints both runs and the
# summary.
bash -n scripts/paired.sh
bench_bin=benchmark/target/release/benchmark
paired_out="$(scripts/paired.sh "$bench_bin" "$bench_bin" crash_recover 1 1 0.2)"
for line in '^ +1 +parent +[0-9.]+ +[0-9.]+ ' '^  parent: median ' '^  change: median ' \
    '^host_ops_per_s \(higher is better\)$' '^peak_rss_mb \(lower is better\)$' \
    '^setup_s \(lower is better\)$' \
    '^  virtual-time metrics identical on every run: yes$' '^  verdict: unresolved: fewer than 10 pairs$'; do
  grep -qE "$line" <<<"$paired_out" \
    || { echo "$paired_out" >&2; echo "scripts/paired.sh printed no line matching '$line'" >&2; exit 1; }
done

echo "CI gate passed."
