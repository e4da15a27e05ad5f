#!/usr/bin/env bash
# End-to-end smoke test of the mmap serve daemon (the CI serve-smoke
# leg, also runnable locally): generate a workload, start the daemon,
# fire repeat mapping requests plus control ops, assert every response
# is valid JSON at one objective with warm-cache hits, shut the daemon
# down cleanly, and summarize its trace (p50/p99 service latency).
#
#   MMAP=...   command to run mmap          (default: dune exec bin/mmap.exe --)
#   TRACE=...  daemon trace path, kept      (default: <tmpdir>/serve-trace.jsonl)
set -euo pipefail

MMAP=${MMAP:-dune exec bin/mmap.exe --}
DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT
SOCK="$DIR/mm.sock"
TRACE=${TRACE:-$DIR/serve-trace.jsonl}

$MMAP generate --segments 12 --banks 8 --ports 14 --configs 20 --seed 7 \
  --out-board "$DIR/board.mm" --out-design "$DIR/design.mm"

$MMAP serve -s "$SOCK" --workers 2 --time-limit 120 --trace "$TRACE" \
  > "$DIR/serve.out" 2>&1 &
SRV=$!
for _ in $(seq 100); do [ -S "$SOCK" ] && break; sleep 0.1; done
[ -S "$SOCK" ] || { echo "daemon did not bind $SOCK" >&2; exit 1; }

# four identical requests: the first trains the warm cache, repeats hit
$MMAP request -s "$SOCK" -b "$DIR/board.mm" -d "$DIR/design.mm" \
  --repeat 4 > "$DIR/responses.jsonl"
$MMAP request -s "$SOCK" --stats | tee "$DIR/stats.json"
$MMAP request -s "$SOCK" --shutdown
wait "$SRV"
echo "--- daemon output:"
cat "$DIR/serve.out"

python3 - "$DIR/responses.jsonl" "$DIR/stats.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    lines = [json.loads(l) for l in f if l.strip()]
assert len(lines) == 4, f"expected 4 responses, got {len(lines)}"
for r in lines:
    assert r["status"] == "ok", r
    assert "objective" in r.get("report", {}), r
hits = sum(r["cache"] == "hit" for r in lines)
objs = {r["report"]["objective"] for r in lines}
assert len(objs) == 1, f"objectives diverge across repeats: {objs}"
assert hits > 0, "no warm-cache hits on repeat requests"
stats = json.load(open(sys.argv[2]))
assert stats["cache"]["hits"] + stats["cache"]["misses"] == 4, stats
print(f"serve smoke ok: {hits} warm hits, objective {objs.pop()}")
EOF

$MMAP trace-summary "$TRACE"

# --- persistence leg: same burst through a daemon that keeps its cache ------
# The cache file makes the warm index survive the shutdown below.
CACHE="$DIR/warm-cache.json"
$MMAP serve -s "$SOCK" --workers 1 --cache-file "$CACHE" --time-limit 120 \
  > "$DIR/serve-persist.out" 2>&1 &
SRV=$!
for _ in $(seq 100); do [ -S "$SOCK" ] && break; sleep 0.1; done
[ -S "$SOCK" ] || { echo "persisting daemon did not bind $SOCK" >&2; exit 1; }

$MMAP request -s "$SOCK" -b "$DIR/board.mm" -d "$DIR/design.mm" \
  --repeat 6 > "$DIR/responses-persist.jsonl"
$MMAP request -s "$SOCK" --stats | tee "$DIR/stats-persist.json"
$MMAP request -s "$SOCK" --shutdown
wait "$SRV"
echo "--- persisting daemon output:"
cat "$DIR/serve-persist.out"

python3 - "$DIR/responses-persist.jsonl" "$DIR/stats-persist.json" \
  "$DIR/responses.jsonl" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    lines = [json.loads(l) for l in f if l.strip()]
assert len(lines) == 6, f"expected 6 responses, got {len(lines)}"
for r in lines:
    assert r["status"] == "ok", r
objs = {r["report"]["objective"] for r in lines}
assert len(objs) == 1, f"objectives diverge across the burst: {objs}"
with open(sys.argv[3]) as f:
    base = {json.loads(l)["report"]["objective"] for l in f if l.strip()}
assert objs == base, f"persistence-leg objective {objs} != first leg {base}"
stats = json.load(open(sys.argv[2]))
assert stats["cache"]["hits"] + stats["cache"]["misses"] == 6, stats
print(f"persistence smoke ok: 6 responses at objective {objs.pop()}")
EOF

[ -f "$CACHE" ] || { echo "daemon did not write $CACHE" >&2; exit 1; }

# --- restart leg: the warm index survives the process ------------------------
$MMAP serve -s "$SOCK" --workers 1 --cache-file "$CACHE" --time-limit 120 \
  > "$DIR/serve-restart.out" 2>&1 &
SRV=$!
for _ in $(seq 100); do [ -S "$SOCK" ] && break; sleep 0.1; done
[ -S "$SOCK" ] || { echo "restarted daemon did not bind $SOCK" >&2; exit 1; }

$MMAP request -s "$SOCK" -b "$DIR/board.mm" -d "$DIR/design.mm" \
  > "$DIR/responses-restart.jsonl"
$MMAP request -s "$SOCK" --shutdown
wait "$SRV"
echo "--- restarted daemon output:"
cat "$DIR/serve-restart.out"

python3 - "$DIR/responses-restart.jsonl" "$DIR/responses.jsonl" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    lines = [json.loads(l) for l in f if l.strip()]
assert len(lines) == 1, f"expected 1 response, got {len(lines)}"
r = lines[0]
assert r["status"] == "ok", r
assert r["cache"] == "hit", f"first post-restart request missed: {r}"
assert r["warm_solves"] > 0, f"reloaded state carries no training: {r}"
with open(sys.argv[2]) as f:
    base = {json.loads(l)["report"]["objective"] for l in f if l.strip()}
assert r["report"]["objective"] in base, \
    f"post-restart objective {r['report']['objective']} != {base}"
print(f"restart smoke ok: warm hit with {r['warm_solves']} prior solves")
EOF
