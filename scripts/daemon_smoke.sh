#!/bin/sh
# daemon-smoke: end-to-end check of superd's warm-start behavior.
#
#   1. Start superd over an empty artifact store, serve a clint batch
#      (cold: the store is populated), and capture the baseline counters.
#   2. SIGTERM the daemon (graceful drain) and start a fresh one over the
#      same store directory.
#   3. Serve the same batch again (warm) and require that (a) the output is
#      byte-identical to the cold run and to the checked-in golden JSON,
#      (b) the batch was actually daemon-served (no in-process fallback),
#      (c) the store hit counter rose across the warm batch, and (d) the
#      live /metrics text is well-formed: every sample line is
#      `superd_<name> <int>`, typed by an earlier `# TYPE` line, and no
#      name repeats, and (e) superc renders the same stdout (less its
#      `tables:` lines, which report each side's own table cache), stderr
#      and exit status in-process and via -daemon, a missing file's error
#      line included.
#   4. Tear down and fail on any leaked process.
#
# Requires curl (for /healthz and /metrics). Run via `make daemon-smoke`.
set -eu

ADDR=127.0.0.1:7099
WORK=$(mktemp -d)
SUPERD_PID=""

cleanup() {
    if [ -n "$SUPERD_PID" ] && kill -0 "$SUPERD_PID" 2>/dev/null; then
        kill "$SUPERD_PID" 2>/dev/null || true
        wait "$SUPERD_PID" 2>/dev/null || true
    fi
    rm -rf "$WORK"
}
trap cleanup EXIT

go build -o "$WORK/superd" ./cmd/superd
go build -o "$WORK/clint" ./cmd/clint
go build -o "$WORK/superc" ./cmd/superc

start_daemon() {
    # Root is the repo root, given as an absolute path so that an error
    # naming the server's path would differ from the in-process one: the
    # client sends repo-relative paths, and the golden JSON embeds them.
    "$WORK/superd" -listen "tcp:$ADDR" -root "$(pwd)" \
        -store "$WORK/store" >"$WORK/superd.log" 2>&1 &
    SUPERD_PID=$!
    i=0
    until curl -fsS "http://$ADDR/healthz" >/dev/null 2>&1; do
        i=$((i + 1))
        if [ "$i" -gt 50 ]; then
            echo "daemon-smoke: superd did not become healthy"; cat "$WORK/superd.log"; exit 1
        fi
        sleep 0.1
    done
}

stop_daemon() {
    kill -TERM "$SUPERD_PID"
    wait "$SUPERD_PID" || { echo "daemon-smoke: superd exited non-zero"; cat "$WORK/superd.log"; exit 1; }
    SUPERD_PID=""
}

metric() {
    curl -fsS "http://$ADDR/metrics" | awk -v m="superd_$1" '$1 == m { print $2 }'
}

check_metrics_shape() {
    curl -fsS "http://$ADDR/metrics" >"$WORK/metrics.txt"
    awk '
        /^# TYPE / { typed[$3] = 1; next }
        /^#/ { next }
        !/^superd_[a-z0-9_]+ -?[0-9]+$/ { print "malformed: " $0; bad = 1; next }
        !($1 in typed) { print "not typed first: " $1; bad = 1 }
        $1 in seen { print "repeated: " $1; bad = 1 }
        { seen[$1] = 1 }
        END { exit bad }
    ' "$WORK/metrics.txt" || { echo "daemon-smoke: /metrics is malformed"; exit 1; }
}

# clint exits 1 when diagnostics are reported; that is the expected status.
run_batch() {
    set +e
    "$WORK/clint" -daemon "$ADDR" -I examples/clint -format json \
        examples/clint/config_bugs.c examples/clint/clean.c >"$1" 2>"$1.err"
    status=$?
    set -e
    if [ "$status" -ne 1 ]; then
        echo "daemon-smoke: clint exit $status, want 1"; cat "$1.err"; exit 1
    fi
    if grep -q "running in-process" "$1.err"; then
        echo "daemon-smoke: batch fell back in-process"; cat "$1.err"; exit 1
    fi
}

# superc exits 1 on a unit no configuration parses (noparse.c) and on a
# file that does not exist (missing.c); both runs must agree on that, on
# stderr byte for byte, and on stdout less tables:.
superc_diff() {
    set -- -I examples/clint examples/clint/config_bugs.c examples/clint/clean.c \
        examples/link/noparse.c examples/link/missing.c
    set +e
    "$WORK/superc" "$@" >"$WORK/superc.local" 2>"$WORK/superc.local.err"
    local_status=$?
    "$WORK/superc" -daemon "$ADDR" "$@" >"$WORK/superc.daemon" 2>"$WORK/superc.daemon.err"
    daemon_status=$?
    set -e
    if [ "$local_status" -ne 1 ] || [ "$daemon_status" -ne 1 ]; then
        echo "daemon-smoke: superc exit $local_status/$daemon_status, want 1/1"; cat "$WORK/superc.daemon.err"; exit 1
    fi
    if grep -q "running in-process" "$WORK/superc.daemon.err"; then
        echo "daemon-smoke: superc fell back in-process"; cat "$WORK/superc.daemon.err"; exit 1
    fi
    grep -v '^tables:' "$WORK/superc.local" >"$WORK/superc.local.txt" || true
    grep -v '^tables:' "$WORK/superc.daemon" >"$WORK/superc.daemon.txt" || true
    diff "$WORK/superc.local.txt" "$WORK/superc.daemon.txt" \
        || { echo "daemon-smoke: superc stdout differs in-process vs -daemon"; exit 1; }
    diff "$WORK/superc.local.err" "$WORK/superc.daemon.err" \
        || { echo "daemon-smoke: superc stderr differs in-process vs -daemon"; exit 1; }
}

echo "daemon-smoke: cold batch"
start_daemon
run_batch "$WORK/cold.json"
stop_daemon

echo "daemon-smoke: warm batch after restart"
start_daemon
hits_before=$(metric store_hits)
run_batch "$WORK/warm.json"
hits_after=$(metric store_hits)
misses=$(metric store_misses)
check_metrics_shape
superc_diff
stop_daemon

diff "$WORK/cold.json" "$WORK/warm.json" \
    || { echo "daemon-smoke: warm output differs from cold"; exit 1; }
diff "$WORK/cold.json" examples/clint/golden.json \
    || { echo "daemon-smoke: daemon output differs from golden"; exit 1; }

if [ "${hits_after:-0}" -le "${hits_before:-0}" ]; then
    echo "daemon-smoke: store hits did not rise across the warm batch ($hits_before -> $hits_after, $misses misses)"
    exit 1
fi

echo "daemon-smoke: ok (store hits $hits_before -> $hits_after, outputs byte-identical, superc in-process = -daemon)"
