#!/usr/bin/env bash
# Launch a real multi-process brdb cluster on loopback TCP:
#   1 orderer process + one node process per org (default 4), each its own
#   OS process (brdb_noded), wired together by ephemeral-port discovery:
#   every process binds port 0, writes "<name> <port>" to its port file,
#   and this script assembles the combined peers file the nodes poll for.
#
# Usage: scripts/run_cluster.sh [options]
#   --flow=ote|eop        transaction flow (default ote)
#   --orgs=a,b,c          org list (default org1,org2,org3,org4)
#   --duration=SECONDS    run for N seconds then shut down (default: until
#                         Ctrl-C / SIGTERM)
#   --run-dir=DIR         port files, peers file, logs (default: mktemp -d)
#   --block-size=N        orderer block size (default 100)
#   --block-timeout-us=N  orderer block timeout (default 100000)
#   --block-store=DIR     per-node durable block logs under DIR (default:
#                         in-memory)
#   --chaos-schedule=S    ChaosSchedule for every node process (inline with
#                         ';' as the line separator, or @FILE). Exported as
#                         BRDB_CHAOS_SCHEDULE; each node arms only the
#                         byzantine events naming itself (network faults
#                         need an injector-owning harness — see
#                         docs/ROBUSTNESS.md).
#   --chaos-seed=N        seed exported as BRDB_CHAOS_SEED (default 42)
#
# The peers file path is printed to stdout so a client process can dial
# the live cluster: BuildClusterIdentities derives the same identity set
# in every process, so any client only needs the "<name> <port>" list.
set -euo pipefail
cd "$(dirname "$0")/.."

FLOW=ote
ORGS=org1,org2,org3,org4
DURATION=0
RUN_DIR=""
BLOCK_SIZE=100
BLOCK_TIMEOUT_US=100000
BLOCK_STORE=""
CHAOS_SCHEDULE=""
CHAOS_SEED=42
for arg in "$@"; do
  case "$arg" in
    --flow=*) FLOW="${arg#*=}" ;;
    --orgs=*) ORGS="${arg#*=}" ;;
    --duration=*) DURATION="${arg#*=}" ;;
    --run-dir=*) RUN_DIR="${arg#*=}" ;;
    --block-size=*) BLOCK_SIZE="${arg#*=}" ;;
    --block-timeout-us=*) BLOCK_TIMEOUT_US="${arg#*=}" ;;
    --block-store=*) BLOCK_STORE="${arg#*=}" ;;
    --chaos-schedule=*) CHAOS_SCHEDULE="${arg#*=}" ;;
    --chaos-seed=*) CHAOS_SEED="${arg#*=}" ;;
    *) echo "unknown arg: $arg" >&2; exit 2 ;;
  esac
done

# Chaos arming rides to every child through the environment, so the same
# flags work whether the cluster is launched here or a node is run by hand.
if [[ -n "$CHAOS_SCHEDULE" ]]; then
  export BRDB_CHAOS_SCHEDULE="$CHAOS_SCHEDULE"
  export BRDB_CHAOS_SEED="$CHAOS_SEED"
  echo "chaos schedule armed (seed $CHAOS_SEED): $CHAOS_SCHEDULE" >&2
fi

NODED=build/brdb_noded
if [[ ! -x "$NODED" ]]; then
  echo "building brdb_noded..." >&2
  cmake -B build -S . >/dev/null
  cmake --build build -j"$(nproc)" --target brdb_noded >/dev/null
fi

if [[ -z "$RUN_DIR" ]]; then
  RUN_DIR=$(mktemp -d /tmp/brdb_cluster.XXXXXX)
fi
mkdir -p "$RUN_DIR"
IFS=',' read -r -a ORG_ARR <<<"$ORGS"
NUM_NODES=${#ORG_ARR[@]}

PIDS=()
cleanup() {
  trap - INT TERM EXIT
  echo "shutting down cluster..." >&2
  for pid in "${PIDS[@]}"; do
    kill "$pid" 2>/dev/null || true
  done
  # Graceful window, then escalate: a child wedged in a fault window (a
  # chaos schedule can leave one mid-reconnect) must not leak past script
  # exit. kill -0 probes liveness; survivors get SIGKILL.
  for _ in $(seq 1 50); do
    ALIVE=0
    for pid in "${PIDS[@]}"; do
      kill -0 "$pid" 2>/dev/null && ALIVE=1
    done
    [[ "$ALIVE" -eq 0 ]] && break
    sleep 0.1
  done
  for pid in "${PIDS[@]}"; do
    if kill -0 "$pid" 2>/dev/null; then
      echo "pid $pid ignored SIGTERM; sending SIGKILL" >&2
      kill -9 "$pid" 2>/dev/null || true
    fi
  done
  for pid in "${PIDS[@]}"; do
    wait "$pid" 2>/dev/null || true
  done
}
trap cleanup INT TERM EXIT

echo "run dir: $RUN_DIR" >&2

"$NODED" --role=orderer --orgs="$ORGS" \
  --block-size="$BLOCK_SIZE" --block-timeout-us="$BLOCK_TIMEOUT_US" \
  --port-file="$RUN_DIR/orderer.port" \
  >"$RUN_DIR/orderer.log" 2>&1 &
PIDS+=($!)

for i in "${!ORG_ARR[@]}"; do
  STORE_ARG=""
  if [[ -n "$BLOCK_STORE" ]]; then
    mkdir -p "$BLOCK_STORE/node$i"
    STORE_ARG="--block-store=$BLOCK_STORE/node$i"
  fi
  "$NODED" --role=node --index="$i" --orgs="$ORGS" --flow="$FLOW" \
    --port-file="$RUN_DIR/node$i.port" --peers-file="$RUN_DIR/peers" \
    $STORE_ARG \
    >"$RUN_DIR/node$i.log" 2>&1 &
  PIDS+=($!)
done

# Collect everyone's self-reported address, then publish the combined list
# (write-then-rename: nodes must never see a partial peers file).
# A nullglob array, not `ls | wc -l`: under pipefail, ls exits non-zero
# while no port file exists yet, which would kill the script at its first
# poll.
EXPECTED=$((NUM_NODES + 1))
shopt -s nullglob
for _ in $(seq 1 200); do
  PORT_FILES=("$RUN_DIR"/*.port)
  READY=${#PORT_FILES[@]}
  [[ "$READY" -ge "$EXPECTED" ]] && break
  sleep 0.05
done
PORT_FILES=("$RUN_DIR"/*.port)
READY=${#PORT_FILES[@]}
shopt -u nullglob
if [[ "$READY" -lt "$EXPECTED" ]]; then
  echo "only $READY/$EXPECTED processes published a port; see $RUN_DIR/*.log" >&2
  exit 1
fi
cat "$RUN_DIR"/*.port >"$RUN_DIR/peers.tmp"
mv "$RUN_DIR/peers.tmp" "$RUN_DIR/peers"

echo "cluster up ($NUM_NODES nodes + 1 orderer):" >&2
sed 's/^/  /' "$RUN_DIR/peers" >&2
echo "$RUN_DIR/peers"

if [[ "$DURATION" -gt 0 ]]; then
  sleep "$DURATION"
else
  # Idle until a signal arrives; `wait` returns when the trap fires.
  wait "${PIDS[@]}" 2>/dev/null || true
fi
