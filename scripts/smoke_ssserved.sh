#!/bin/sh
# Smoke test for cmd/ssserved, in three phases. Phase 1 starts the daemon on
# a random port, drives the admin API end to end (admit, retune, program
# switch, pool resize, drain, restart, evict — plus deliberate errors),
# checks the live ledger, then kills the daemon with SIGKILL and tears the
# journal's final write, as a real crash would. Phase 2 restarts it with
# -recover on the torn journal, requires the admitted state to have
# survived replay (a duplicate admit must 409), then shuts down gracefully
# and requires a clean exit with a balanced final conservation ledger.
# Phase 3 runs a fresh daemon at a 2 s heartbeat: an admit must be
# acknowledged in under a second (the request steps the engine, not the
# ticker), and a burst larger than the request queue must see 429s and
# still close the books.
#
# Artifacts land in $SMOKE_DIR (default: a fresh mktemp dir): daemon stdout
# (the final ledger JSON), stderr for every phase, and the transition
# journals. CI uploads the directory when this script fails.
set -eu

SMOKE_DIR=${SMOKE_DIR:-$(mktemp -d)}
BIN="$SMOKE_DIR/ssserved"
ADDR_FILE="$SMOKE_DIR/addr"
JOURNAL="$SMOKE_DIR/journal.txt"
OUT="$SMOKE_DIR/stdout.json"
ERR="$SMOKE_DIR/stderr.log"
OUT2="$SMOKE_DIR/stdout-recovered.json"
ERR2="$SMOKE_DIR/stderr-recovered.log"
JOURNAL3="$SMOKE_DIR/journal-demand.txt"
OUT3="$SMOKE_DIR/stdout-demand.json"
ERR3="$SMOKE_DIR/stderr-demand.log"

echo "smoke: artifacts in $SMOKE_DIR"
go build -o "$BIN" ./cmd/ssserved

# wait_addr: block until the daemon publishes its bound address, bounded.
wait_addr() {
    : >"$ADDR_FILE"
    i=0
    while [ ! -s "$ADDR_FILE" ]; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "smoke: FAIL: daemon never published its address" >&2
            exit 1
        fi
        sleep 0.1
    done
    ADDR=$(cat "$ADDR_FILE")
}

# post ROUTE QUERY EXPECTED_HTTP_CODE — every curl carries a hard timeout,
# and transient failures (connection refused, 503 while the daemon replays
# its journal) retry with linear backoff, bounded at 5 attempts.
post() {
    attempt=0
    while :; do
        code=$(curl -s --max-time 5 -o "$SMOKE_DIR/last-response.json" -w '%{http_code}' \
            -X POST "http://$ADDR/admin/$1?$2") || code=000
        if [ "$code" != "000" ] && { [ "$code" != "503" ] || [ "$3" = "503" ]; }; then
            break
        fi
        attempt=$((attempt + 1))
        if [ "$attempt" -ge 5 ]; then
            echo "smoke: FAIL: POST /admin/$1?$2 -> HTTP $code after $attempt attempts" >&2
            exit 1
        fi
        sleep "$attempt"
    done
    if [ "$code" != "$3" ]; then
        echo "smoke: FAIL: POST /admin/$1?$2 -> HTTP $code, want $3" >&2
        cat "$SMOKE_DIR/last-response.json" >&2
        exit 1
    fi
}

# get ROUTE OUTFILE — same timeout and bounded retry as post.
get() {
    attempt=0
    until curl -s --max-time 5 "http://$ADDR/admin/$1" >"$2"; do
        attempt=$((attempt + 1))
        if [ "$attempt" -ge 5 ]; then
            echo "smoke: FAIL: GET /admin/$1 unreachable after $attempt attempts" >&2
            exit 1
        fi
        sleep "$attempt"
    done
}

# ── Phase 1: drive the API, then crash hard ────────────────────────────────

"$BIN" -addr-file "$ADDR_FILE" -journal "$JOURNAL" -epoch-ms 2 >"$OUT" 2>"$ERR" &
PID=$!
trap 'kill "$PID" 2>/dev/null || true' EXIT
wait_addr
echo "smoke: daemon on $ADDR"

post admit 'id=1&class=edf&period=3' 200
post admit 'id=2&class=wc&period=4&num=1&den=4' 200
post admit 'id=3&class=fair&weight=4' 200
post admit 'id=1&class=edf&period=3' 409       # already admitted
post retune 'id=1&class=edf&period=9' 200
post retune 'id=1&class=fair&weight=2' 409     # class change is an evict/admit
post program 'id=3&program=stfq' 200
post pool 'shard=0&burst=80' 200
post drain 'shard=2' 200
post restart 'shard=2' 200
post evict 'id=404' 409                        # unknown stream
post evict 'id=2' 200
post admit 'id=99&class=bogus' 400             # rejected before the fence

# Let a few epochs of traffic flow, then check the live ledger balances.
sleep 0.3
get ledger "$SMOKE_DIR/ledger.json"
grep -q '"balanced": true' "$SMOKE_DIR/ledger.json" || {
    echo "smoke: FAIL: live ledger unbalanced" >&2
    cat "$SMOKE_DIR/ledger.json" >&2
    exit 1
}

# Crash: SIGKILL — no settle, no close — then tear the journal's final
# write, the on-disk state a power cut mid-line leaves behind.
kill -9 "$PID"
wait "$PID" 2>/dev/null || true
trap - EXIT
size=$(wc -c <"$JOURNAL")
head -c "$((size - 7))" "$JOURNAL" >"$JOURNAL.torn" && mv "$JOURNAL.torn" "$JOURNAL"
echo "smoke: killed -9, journal torn to $((size - 7)) bytes"

# ── Phase 2: recover and finish cleanly ────────────────────────────────────

"$BIN" -addr-file "$ADDR_FILE" -journal "$JOURNAL" -recover -epoch-ms 2 >"$OUT2" 2>"$ERR2" &
PID=$!
trap 'kill "$PID" 2>/dev/null || true' EXIT
wait_addr
echo "smoke: recovered daemon on $ADDR"

get recovery "$SMOKE_DIR/recovery.json"
grep -q '"state": "serving"' "$SMOKE_DIR/recovery.json" || {
    echo "smoke: FAIL: recovery did not reach serving" >&2
    cat "$SMOKE_DIR/recovery.json" >&2
    exit 1
}

# Replay must have rebuilt the pre-crash control plane: stream 1 is still
# admitted (duplicate admit refused at the fence), stream 2 stays evicted,
# and new mutations apply on top.
post admit 'id=1&class=edf&period=9' 409
post evict 'id=2' 409
post admit 'id=4&class=static&priority=2' 200
post evict 'id=3' 200

sleep 0.3
post shutdown '' 200
if ! wait "$PID"; then
    echo "smoke: FAIL: recovered daemon exited nonzero" >&2
    cat "$ERR2" >&2
    exit 1
fi
trap - EXIT

# The exit ledger must close the books: balanced, nothing in flight, no
# violations, and the journal must have recorded both sessions.
grep -q '"balanced": true' "$OUT2" || { echo "smoke: FAIL: final ledger unbalanced" >&2; cat "$OUT2" >&2; exit 1; }
grep -q '"InFlight": 0' "$OUT2" || { echo "smoke: FAIL: frames in flight at exit" >&2; cat "$OUT2" >&2; exit 1; }
grep -q '"violations": 0' "$OUT2" || { echo "smoke: FAIL: conservation violations" >&2; cat "$OUT2" >&2; exit 1; }
head -1 "$JOURNAL" | grep -q '^ssctl v2 ' || { echo "smoke: FAIL: journal header missing" >&2; exit 1; }
grep -q 'recovered' "$ERR2" || { echo "smoke: FAIL: recovery summary missing from stderr" >&2; cat "$ERR2" >&2; exit 1; }

# ── Phase 3: demand stepping and the bounded queue ─────────────────────────

# A 2 s heartbeat, so only the request itself can close a fence inside
# curl's 1 s budget. -cycles stretches one epoch to about 0.3 s (on a
# 2-vCPU box): long enough that a parallel burst, ≈0.1 s to send, lands
# while the engine is mid-epoch and overflows the 256-request queue, short
# enough to ack in 1 s.
BURST=300
"$BIN" -addr-file "$ADDR_FILE" -journal "$JOURNAL3" -epoch-ms 2000 -cycles 250000 >"$OUT3" 2>"$ERR3" &
PID=$!
trap 'kill "$PID" 2>/dev/null || true' EXIT
wait_addr
echo "smoke: demand-stepping daemon on $ADDR"
post offering 'frames=1' 200                   # retries past the boot window

code=$(curl -s --max-time 1 -o /dev/null -w '%{http_code}' \
    -X POST "http://$ADDR/admin/admit?id=1&class=edf&period=3") || code=000
if [ "$code" != "200" ]; then
    echo "smoke: FAIL: admit at -epoch-ms 2000 -> HTTP $code within 1 s, want 200 (the request must step the engine)" >&2
    exit 1
fi

# Evictions of unknown streams: each one that reaches a fence is a 409, each
# one that finds the queue full a 429, and nothing else may come back.
curl -s --max-time 30 -Z --parallel-immediate --parallel-max "$BURST" -o /dev/null -w '%{http_code}\n' \
    -X POST "http://$ADDR/admin/evict?id=[1001-$((1000 + BURST))]" \
    >"$SMOKE_DIR/burst-codes.txt" 2>"$SMOKE_DIR/burst-stderr.log" || true
refused=$(grep -c '^429$' "$SMOKE_DIR/burst-codes.txt" || true)
fenced=$(grep -c '^409$' "$SMOKE_DIR/burst-codes.txt" || true)
if [ "$refused" -lt 1 ] || [ "$((refused + fenced))" -ne "$BURST" ]; then
    echo "smoke: FAIL: burst of $BURST past the queue: $refused x 429, $fenced x 409" >&2
    sort "$SMOKE_DIR/burst-codes.txt" | uniq -c >&2
    exit 1
fi
echo "smoke: burst of $BURST: $fenced answered at a fence, $refused refused with 429"

post shutdown '' 200
if ! wait "$PID"; then
    echo "smoke: FAIL: demand-stepping daemon exited nonzero" >&2
    cat "$ERR3" >&2
    exit 1
fi
trap - EXIT
grep -q '"balanced": true' "$OUT3" || { echo "smoke: FAIL: final ledger unbalanced after the burst" >&2; cat "$OUT3" >&2; exit 1; }
grep -q '"InFlight": 0' "$OUT3" || { echo "smoke: FAIL: frames in flight at exit after the burst" >&2; cat "$OUT3" >&2; exit 1; }
grep -q '"violations": 0' "$OUT3" || { echo "smoke: FAIL: conservation violations after the burst" >&2; cat "$OUT3" >&2; exit 1; }

echo "smoke: PASS ($(wc -l <"$JOURNAL") journal lines across crash and recovery)"
