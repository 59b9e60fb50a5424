#!/bin/sh
# Cluster smoke: boot a real 3-node l2qserve fleet plus a coordinator as
# separate processes (the actual CLI flags, not the in-process test
# harness) and drive the scatter-gather surface over HTTP:
#
#   1. a seeded search through the coordinator returns hits
#   2. a page downloads through the coordinator's owner-chain proxy
#   3. /api/v1/metrics exposes the cluster fan-out gauges
#   4. killing one node loses nothing: with replicas=2 every partition
#      still has a live owner, so the same search still returns hits,
#      the failover shows up in the error counters, and no response is
#      flagged partial
#
# Usage: scripts/cluster_smoke.sh
set -eu

WORK=$(mktemp -d)
trap 'kill $(cat "$WORK"/*.pid 2>/dev/null) 2>/dev/null || true; rm -rf "$WORK"' EXIT

go build -o "$WORK/l2qserve" ./cmd/l2qserve

# Small corpus, harvesting off: the smoke is about the cluster surface.
CORPUS="-domain researchers -entities 20 -pages 10 -harvest=false -quiet"

start() { # start <name> <args...>: background one l2qserve, keep its pid
	name=$1
	shift
	"$WORK/l2qserve" "$@" >"$WORK/$name.log" 2>&1 &
	echo $! >"$WORK/$name.pid"
}

# url_of <name>: poll the process log for its self-reported bound address
# (every mode prints "... on http://host:port ..." once serving).
url_of() {
	i=0
	while [ $i -lt 100 ]; do
		u=$(sed -n 's#.*on \(http://[0-9.:]*\).*#\1#p' "$WORK/$1.log" | head -n 1)
		if [ -n "$u" ]; then
			echo "$u"
			return 0
		fi
		i=$((i + 1))
		sleep 0.1
	done
	echo "cluster_smoke: $1 never reported its address:" >&2
	cat "$WORK/$1.log" >&2
	exit 1
}

for i in 0 1 2; do
	# shellcheck disable=SC2086 # CORPUS is a flag list, splitting intended
	start "node$i" -addr 127.0.0.1:0 -nodes 3 -nodeid "$i" -replicas 2 $CORPUS
done
N0=$(url_of node0)
N1=$(url_of node1)
N2=$(url_of node2)

# shellcheck disable=SC2086
start co -addr 127.0.0.1:0 -coordinator -nodes "$N0,$N1,$N2" -replicas 2 $CORPUS
CO=$(url_of co)
echo "cluster_smoke: coordinator $CO over $N0 $N1 $N2"

# 1. Seeded search for a real corpus entity returns hits.
NAME=$(curl -s "$CO/api/v1/entities" | tr ',' '\n' | sed -n 's/.*"name":"\([^"]*\)".*/\1/p' | head -n 1)
[ -n "$NAME" ] || { echo "cluster_smoke: no entities served" >&2; exit 1; }
# q and seed are token-exact: one seed= parameter per word of the name.
SEED=""
for w in $NAME; do
	SEED="$SEED --data-urlencode seed=$w"
done
# shellcheck disable=SC2086 # SEED is a parameter list, splitting intended
HITS=$(curl -s -G "$CO/api/v1/search" $SEED)
echo "$HITS" | grep -q '"pageId"' || {
	echo "cluster_smoke: scatter search for \"$NAME\" returned no hits: $HITS" >&2
	exit 1
}

# 2. A ranked page downloads through the coordinator's owner-chain proxy.
PID=$(echo "$HITS" | tr ',' '\n' | sed -n 's/.*"pageId":\([0-9]*\).*/\1/p' | head -n 1)
curl -s "$CO/page/$PID.html" | grep -q 'l2q-page-id' || {
	echo "cluster_smoke: page $PID did not proxy through the coordinator" >&2
	exit 1
}

# 3. The metrics surface exposes the fan-out gauges.
METRICS=$(curl -s "$CO/api/v1/metrics")
echo "$METRICS" | grep -q '"cluster"' || { echo "cluster_smoke: metrics missing cluster section: $METRICS" >&2; exit 1; }
echo "$METRICS" | grep -q '"scatters":[1-9]' || { echo "cluster_smoke: no scatters recorded: $METRICS" >&2; exit 1; }

# 4. Kill one node: replicas keep every partition covered, so the same
# search still answers fully (failover, not partial results).
kill "$(cat "$WORK/node1.pid")"
# shellcheck disable=SC2086
HITS2=$(curl -s -G "$CO/api/v1/search" $SEED)
echo "$HITS2" | grep -q '"pageId"' || {
	echo "cluster_smoke: search lost hits after killing node 1: $HITS2" >&2
	exit 1
}
echo "$HITS2" | grep -q '"partial":true' && {
	echo "cluster_smoke: response flagged partial despite a live replica for every partition: $HITS2" >&2
	exit 1
}
METRICS2=$(curl -s "$CO/api/v1/metrics")
echo "$METRICS2" | grep -q '"errors":[1-9]' || {
	echo "cluster_smoke: killed node produced no error counts: $METRICS2" >&2
	exit 1
}

echo "cluster_smoke: PASS (search + page proxy + metrics + node-kill failover)"
