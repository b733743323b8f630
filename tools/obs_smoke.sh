#!/usr/bin/env bash
# Observability smoke: a traced sharded + pooled + intra-query-parallel
# query must export Chrome trace-event JSON that a real parser loads,
# carrying the full span hierarchy (execute → shard_search → traversal →
# leaf_verify, plus pool_miss_pread from the starved buffer pool); a
# traced build must carry its build and index_save spans; the
# daemon must surface bucketed latency quantiles, the flight recorder
# (request ids round-tripped from the client), and `stats --full`; and
# every bad flag combination must exit 1 with a reason, never a crash.
set -euo pipefail
HYDRA="${1:?usage: obs_smoke.sh <path-to-hydra-binary>}"
TMP="$(mktemp -d)"
SERVE_PID=""
cleanup() {
  [[ -n "$SERVE_PID" ]] && kill -9 "$SERVE_PID" 2> /dev/null || true
  rm -rf "$TMP"
}
trap cleanup EXIT

"$HYDRA" gen synth 4000 64 13 "$TMP/data.bin" > /dev/null

# The acceptance-path query: shards, intra-query workers, and a pool far
# smaller than the dataset, all under --trace.
"$HYDRA" query "$TMP/data.bin" DSTree 5 4 --shards 3 --threads 2 \
  --query-threads 2 --storage mmap --pool-mb 1 \
  --trace "$TMP/trace.json" > "$TMP/query.txt" 2> "$TMP/query.err"
grep -q "trace written to" "$TMP/query.err" \
  || { echo "FAIL: no trace-written confirmation"; cat "$TMP/query.err"; exit 1; }

# Parse back with a real JSON parser and check the span hierarchy: every
# phase the issue names must appear, nesting depths must be recorded, and
# nothing may have been dropped on this small run.
python3 - "$TMP/trace.json" << 'EOF' || exit 1
import json, sys
doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
other = doc["otherData"]
names = {}
for e in events:
    assert e["ph"] == "X", e
    assert e["ts"] >= 0 and e["dur"] >= 0, e
    assert "depth" in e["args"], e
    names.setdefault(e["name"], []).append(e)
for required in ("execute", "shard_search", "shard_merge", "traversal",
                 "leaf_verify", "pool_miss_pread"):
    assert required in names, f"missing span: {required} (have {sorted(names)})"
assert len(names["execute"]) == 4, names["execute"]
assert all(e["args"]["depth"] == 0 for e in names["execute"])
assert len(names["shard_search"]) == 12  # 4 queries x 3 shards
assert any(e["args"]["depth"] > 0 for e in names["leaf_verify"])
assert other["dropped_events"] == 0, other
assert other["command"] == "query" and other["method"] == "DSTree", other
assert "kernels" in other, other
print("trace OK:", len(events), "events,", len(names), "span names")
EOF

# Answers are invariant under tracing: the traced run above must print
# the same per-query lines as an untraced twin (modulo the shared-bound
# arrival ledger, which is timing-dependent under --query-threads).
"$HYDRA" query "$TMP/data.bin" DSTree 5 4 --shards 3 --threads 2 \
  --query-threads 2 --storage mmap --pool-mb 1 > "$TMP/untraced.txt"
answers() { grep '^query' | sed 's/ \[.*\]$//'; }
diff <(answers < "$TMP/query.txt") <(answers < "$TMP/untraced.txt") \
  || { echo "FAIL: tracing changed the answers"; exit 1; }
echo "OK traced query: valid JSON, full hierarchy, answers unchanged"

# A traced build records the lifecycle spans: `build` covers the method's
# own build time (the seconds it prints) and `index_save` the write.
"$HYDRA" build "$TMP/data.bin" DSTree "$TMP/idx" \
  --trace "$TMP/build_trace.json" > "$TMP/build.txt" 2> /dev/null
python3 - "$TMP/build_trace.json" "$TMP/build.txt" << 'EOF' || exit 1
import json, re, sys
doc = json.load(open(sys.argv[1]))
spans = {}
for e in doc["traceEvents"]:
    spans.setdefault(e["name"], []).append(e)
for required in ("build", "index_save"):
    assert required in spans, f"missing span: {required} (have {sorted(spans)})"
built_s = float(re.search(r"^built .* in ([0-9.]+)s",
                          open(sys.argv[2]).read(), re.M).group(1))
build_s = max(e["dur"] for e in spans["build"]) / 1e6
# The printed time is rounded to centiseconds.
assert build_s >= 0.9 * built_s - 0.005, (build_s, built_s)
print(f"build trace OK: build span {build_s:.3f}s vs built in {built_s:.2f}s")
EOF

# Serve: trace the daemon itself, drive it with queryd (which stamps
# request ids), and read the flight recorder back through STATS.
"$HYDRA" serve "$TMP/data.bin" DSTree --port 0 --serve-threads 2 \
  --trace "$TMP/serve_trace.json" > "$TMP/serve.log" 2>&1 &
SERVE_PID=$!
PORT=""
for _ in $(seq 1 100); do
  PORT="$(sed -n 's/^hydra serve: .* on 127\.0\.0\.1:\([0-9]*\) .*/\1/p' \
    "$TMP/serve.log")"
  [[ -n "$PORT" ]] && break
  kill -0 "$SERVE_PID" 2> /dev/null \
    || { echo "FAIL: daemon died at startup"; cat "$TMP/serve.log"; exit 1; }
  sleep 0.1
done
[[ -n "$PORT" ]] || { echo "FAIL: no port line"; cat "$TMP/serve.log"; exit 1; }

"$HYDRA" queryd "$TMP/data.bin" 5 4 --port "$PORT" > /dev/null \
  || { echo "FAIL: queryd failed"; exit 1; }

"$HYDRA" stats --port "$PORT" > "$TMP/stats.json"
python3 - "$TMP/stats.json" << 'EOF' || exit 1
import json, sys
doc = json.load(open(sys.argv[1]))
lat = doc["latency"]
assert lat["samples"] == 4, lat
assert 0 < lat["p50_ms"] <= lat["p95_ms"] <= lat["p99_ms"], lat
assert abs(lat["quantile_error_bound"] - 0.189207) < 1e-6, lat
assert len(lat["bucket_bounds_seconds"]) == len(lat["bucket_counts"]) > 0
assert sum(lat["bucket_counts"]) == 4, lat
slow = doc["slow_queries"]
assert 0 < len(slow) <= 8, slow
# queryd stamps ids 1..N; every record carries the five serve phases.
assert sorted(r["request_id"] for r in slow) == [1, 2, 3, 4], slow
for r in slow:
    assert set(r["phases"]) == {"decode", "queue_wait", "cache_lookup",
                                "execute", "encode_write"}, r
    assert r["total_ms"] > 0, r
metrics = doc["metrics"]
assert metrics["counters"]["serve.queries"] == 4, metrics
assert "serve.latency_seconds" in metrics["histograms"], metrics
assert "serve.cpu_seconds" in metrics["histograms"], metrics
print("stats OK: quantiles, buckets, flight records, registry")
EOF

# The plain-text registry dump over the wire.
"$HYDRA" stats --port "$PORT" --full > "$TMP/full.txt"
grep -q '^counter serve\.queries 4$' "$TMP/full.txt" \
  || { echo "FAIL: stats --full lacks serve.queries"; cat "$TMP/full.txt"; exit 1; }
grep -q '^histogram serve\.latency_seconds count=4 ' "$TMP/full.txt" \
  || { echo "FAIL: stats --full lacks the latency histogram"; exit 1; }

# SIGTERM drain writes the daemon's own trace with per-request spans.
kill -TERM "$SERVE_PID"
for _ in $(seq 1 100); do
  kill -0 "$SERVE_PID" 2> /dev/null || break
  sleep 0.1
done
wait "$SERVE_PID" || { echo "FAIL: daemon exited non-zero"; exit 1; }
SERVE_PID=""
python3 - "$TMP/serve_trace.json" << 'EOF' || exit 1
import json, sys
doc = json.load(open(sys.argv[1]))
reqs = [e for e in doc["traceEvents"] if e["name"] == "serve_request"]
assert len(reqs) == 4, [e["name"] for e in doc["traceEvents"]]
assert sorted(r["args"]["request_id"] for r in reqs) == [1, 2, 3, 4], reqs
print("serve trace OK:", len(doc["traceEvents"]), "events")
EOF
echo "OK serve: flight recorder, stats --full, traced drain"

# Flag validation: clean exit-1 refusals, never a crash.
if "$HYDRA" query "$TMP/data.bin" DSTree 2 2 \
    --trace "$TMP/no/such/dir/t.json" 2> "$TMP/err.txt"; then
  echo "FAIL: unwritable --trace should exit 1"; exit 1
fi
grep -q 'cannot open trace path' "$TMP/err.txt" \
  || { echo "FAIL: unwritable-trace error lacks a reason"; exit 1; }

if "$HYDRA" methods --trace "$TMP/t.json" 2> "$TMP/err.txt"; then
  echo "FAIL: --trace on a non-traced command should exit 1"; exit 1
fi
grep -q 'only supported by' "$TMP/err.txt" \
  || { echo "FAIL: wrong-command --trace refusal lacks a reason"; exit 1; }

if "$HYDRA" methods --full 2> "$TMP/err.txt"; then
  echo "FAIL: --full outside stats should exit 1"; exit 1
fi
grep -q -- "--full is only supported by 'stats'" "$TMP/err.txt" \
  || { echo "FAIL: --full refusal lacks a reason"; exit 1; }

echo "obs smoke OK"
