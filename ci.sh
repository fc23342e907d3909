#!/usr/bin/env bash
# Full verification gate for the NAI workspace.
#
#   ./ci.sh
#
# Order mirrors cost: cheap static checks come after the build so that
# compile errors surface with full diagnostics first. Each step prints
# its wall time so bench-visible regressions (e.g. a test suite that
# suddenly takes twice as long) show up directly in CI logs.
set -euo pipefail
cd "$(dirname "$0")"

step() {
  local name="$1"
  shift
  echo "==> ${name}"
  local t0
  t0=$(date +%s)
  "$@"
  local t1
  t1=$(date +%s)
  echo "    [${name}: $((t1 - t0))s]"
}

# Tier-1 builds only what runs optimised: the libraries and binaries
# (the `nai` CLI drives the lint and smoke steps below). Every other
# target is still compiled later: `cargo test` builds the tests and
# examples, the release-oracle step its two test binaries, and
# `cargo clippy --all-targets` checks the benches.
step "cargo build --release (tier-1)" \
  cargo build --release

step "cargo test -q (tier-1)" \
  cargo test -q

# Tier-1 runs the byte-identity oracles of the read kernel in debug
# builds only; perfbench and the server run optimised code. Run them
# again with --release, so an optimisation-sensitive change to the
# kernel's arithmetic (the one summation order of Eq. (1), against the
# offline propagation the classifiers were trained on, or the exact
# stationary state) shows here. The oracles of the parallel stationary
# sweep and of the component labelling size themselves by build
# profile: 100k-node graphs here, 3k in tier-1.
release_oracles() {
  cargo test -q --release -p nai-core --test active_regression
  cargo test -q --release -p nai-core --test offline_oracle
  cargo test -q --release -p nai-core --test read_path_regression
  cargo test -q --release -p nai-core --lib \
    stationary::tests::parallel_sweep_is_bit_equal_on_benchmark_sized_graphs
  cargo test -q --release -p nai-core --lib \
    stationary::tests::labels_are_exact_on_benchmark_sized_graphs
}

step "read-kernel oracles (--release)" \
  release_oracles

# Reruns named tests of one nai-serve test target RUNS times
# oversubscribed — 16 test threads on a 2-core box, beside a busy-loop
# sibling process — and fails on the first red run.
#   oversubscribed RUNS TARGET TEST...   (TARGET: "--lib", "--test NAME")
oversubscribed() {
  local runs="$1" target="$2" spin="" i log
  shift 2
  log=$(mktemp)
  trap 'trap - RETURN; [ -n "${spin:-}" ] && kill "$spin" 2>/dev/null; rm -f "$log"; true' RETURN
  # $target is split on purpose: "--test NAME" is two arguments.
  cargo test -q -p nai-serve $target --no-run
  ( while :; do :; done ) &
  spin=$!
  for i in $(seq 1 "$runs"); do
    if ! cargo test -q -p nai-serve $target -- --test-threads 16 "$@" \
      > "$log" 2>&1; then
      echo "$* failed on run $i:"; cat "$log"
      return 1
    fi
  done
}

# The three load-shed tests submit their burst as one group, so the
# worker that closes the burst's batch sees all of it in flight on every
# schedule.
shed_stress() {
  oversubscribed 20 --lib \
    load_shed_caps_depth_under_pressure \
    load_shed_engages_under_pressure_and_recovers_after_drain \
    degraded_predictions_are_never_cached_as_full_depth_answers
}

step "load-shed tests ×20, oversubscribed (fail on first red)" \
  shed_stress

# The eviction test floods a peer that never reads and asserts the
# reactor drops it. It used to fail about half the time.
eviction_stress() {
  oversubscribed 10 "--test transport" \
    non_reading_peer_is_evicted_despite_write_backlog
}

step "non-reading-peer eviction test ×10, oversubscribed (fail on first red)" \
  eviction_stress

step "cargo clippy --all-targets (-D warnings)" \
  cargo clippy --all-targets --quiet -- -D warnings

# Project lint wall (crates/lint): token-aware static analysis of the
# workspace invariants — sync-facade hygiene (strict superset of the
# old `lint_sync` grep: grouped/aliased imports are caught too, and
# std::time::Instant is covered), atomic-ordering invariant comments,
# lock-poisoning hygiene, hot-path panic bans, and unused manifest
# deps. Suppressions require a stated reason; a reasonless allow is
# itself a finding.
step "nai lint --workspace (project invariants, token-aware)" \
  ./target/release/nai lint --workspace

# The linter must still be able to fail: the deliberately-bad fixture
# crate trips every rule, so a rule that silently stops firing (or an
# exit-code regression in the CLI) turns CI red here.
lint_selftest() {
  if ./target/release/nai lint crates/lint/tests/fixtures/bad-crate \
    > /dev/null 2>&1; then
    echo "lint accepted the deliberately-bad fixture crate"
    return 1
  fi
}

step "lint_selftest (bad fixture crate must produce findings + exit 1)" \
  lint_selftest

# Deterministic concurrency model check: rebuilds the serve/obs sync
# facades against the in-tree loom model checker (--cfg nai_model, its
# own target dir so normal builds stay cached) and exhaustively explores
# thread interleavings of the serve core's admission /
# cache-versioning / shutdown protocols, the store protocol (one writer
# applies each group of mutations under the engine's write lock while
# readers share its read lock: no read sees a half-applied group, and a
# read after an ingest's reply finds the node), plus the obs histogram,
# within the default preemption bound. The loom crate's own self-tests
# run first. Time-boxed: each suite is bounded by loom's per-test
# iteration/duration budget; `timeout` is a hard backstop against a
# scheduler bug hanging CI.
model_check() {
  local flags="--cfg nai_model"
  timeout 600 env RUSTFLAGS="$flags" CARGO_TARGET_DIR=target/model \
    cargo test -q -p loom --test checker
  timeout 600 env RUSTFLAGS="$flags" CARGO_TARGET_DIR=target/model \
    cargo test -q -p nai-obs --test model
  timeout 600 env RUSTFLAGS="$flags" CARGO_TARGET_DIR=target/model \
    cargo test -q -p nai-serve --test model
  # Every serve test target must still compile against the loom facade.
  timeout 600 env RUSTFLAGS="$flags" CARGO_TARGET_DIR=target/model \
    cargo check -q -p nai-serve --tests
}

step "model_check (exhaustive interleaving tests under --cfg nai_model)" \
  model_check

# Boots `nai serve` on an ephemeral port against a freshly trained
# checkpoint, health-checks it, pushes traffic over TCP via
# `nai loadgen` — both per-request connections and a pipelined
# keep-alive client (whole bursts written in one syscall through the
# reactor) — and asserts the process shuts down cleanly (exit 0,
# "stopped cleanly" in its log, meaning the reactor drained and
# exited).
serve_smoke() {
  local dir bin pid="" addr
  dir=$(mktemp -d)
  # Never leave the background server (or the temp dir) behind, even
  # when a mid-function step fails under `set -e`. RETURN traps are
  # global in bash, so the trap removes itself after the first firing.
  trap 'trap - RETURN; [ -n "${pid:-}" ] && kill "$pid" 2>/dev/null; rm -rf "$dir"; true' RETURN
  bin=target/release/nai
  "$bin" generate --dataset arxiv --scale test --out "$dir/ds" > /dev/null
  "$bin" train --graph "$dir/ds.graph" --split "$dir/ds.split" \
    --k 2 --epochs 8 --hidden 8 --out "$dir/m.naic" > /dev/null
  "$bin" serve --graph "$dir/ds.graph" --split "$dir/ds.split" \
    --model "$dir/m.naic" --port 0 --workers 2 --max-batch 16 \
    > "$dir/serve.log" 2>&1 &
  pid=$!
  for _ in $(seq 1 100); do
    grep -q "listening on" "$dir/serve.log" && break
    sleep 0.1
  done
  addr=$(sed -n 's/.*listening on \([0-9.:]*\) .*/\1/p' "$dir/serve.log")
  if [ -z "$addr" ]; then
    echo "serve never came up:"; cat "$dir/serve.log"
    return 1
  fi
  # Cold start is explained in the banner: the deploy time, and no λ₂
  # estimate under the default NAP_d, which never reads it.
  grep -Eq "deployed in [0-9]+ ms" "$dir/serve.log"
  grep -q "not read by distance" "$dir/serve.log"
  curl -sf "http://$addr/healthz" | grep -q '"status":"ok"'
  curl -sf -X POST --data '{"op":"infer","nodes":[1,2,3]}' "http://$addr/v1" \
    | grep -q '"ok":true'
  # One engine: ingest a node (no shard routing) and read it straight
  # back; round-robin dispatch over the 2 workers means the reads land
  # on different workers than the ingest, and every one must find the
  # new id — never an "out of range" error.
  local fdim feats node read
  fdim=$(curl -sf "http://$addr/healthz" | sed -n 's/.*"feature_dim":\([0-9]*\).*/\1/p')
  [ -n "$fdim" ]
  feats=$(printf '0.5,%.0s' $(seq 1 "$fdim"))
  feats="[${feats%,}]"
  node=$(curl -sf -X POST \
    --data "{\"op\":\"ingest\",\"features\":$feats,\"neighbors\":[0,1]}" \
    "http://$addr/v1" | sed -n 's/.*"node":\([0-9]*\).*/\1/p')
  [ -n "$node" ]
  for _ in 1 2; do
    read=$(curl -sf -X POST --data "{\"op\":\"infer\",\"nodes\":[$node]}" \
      "http://$addr/v1")
    echo "$read" | grep -q '"ok":true'
    ! echo "$read" | grep -q 'out of range'
  done
  # Pipelined keep-alive client: whole bursts hit the reactor in one
  # syscall, so this exercises the incremental parser's
  # multiple-requests-per-read path and ordered response writeback.
  # (Capture to a file — `grep -q` would close the pipe at the banner
  # and break loadgen's later prints.)
  "$bin" loadgen --addr "$addr" --requests 48 --clients 2 --mode infer \
    --pipeline 8 > "$dir/loadgen_pipelined.log"
  grep -q "pipeline depth 8" "$dir/loadgen_pipelined.log"
  # Per-request connections: every request opens, sends `Connection:
  # close`, and reads until EOF — the accept/teardown fast path.
  "$bin" loadgen --addr "$addr" --requests 24 --clients 2 --mode infer \
    --per-request > "$dir/loadgen_per_request.log"
  grep -q "per-request connections" "$dir/loadgen_per_request.log"
  "$bin" loadgen --addr "$addr" --requests 40 --clients 2 --mode mixed --shutdown \
    > "$dir/loadgen_mixed.log"
  # Every run's summary line: a non-zero `ok` count, the latency
  # quantiles, and a non-zero wall-clock throughput.
  local log
  for log in pipelined per_request mixed; do
    grep -Eq '^ok [1-9][0-9]* \|.*\| p50 [^|]+ \|.*\| p99 [^|]+ \|.*\| throughput [1-9][0-9]*/s$' \
      "$dir/loadgen_$log.log" || {
      echo "loadgen $log printed no complete summary line:"; cat "$dir/loadgen_$log.log"
      return 1
    }
  done
  wait "$pid"
  pid=""
  # "stopped cleanly" is printed only after Server::join returns, i.e.
  # after the reactor thread drained in-flight connections and exited.
  grep -q "stopped cleanly" "$dir/serve.log"

  # Cache-enabled run: ingest (sequences a mutation through the
  # invalidation layer) then read the same node twice — the second read
  # must be a cache hit, visible in /metrics.
  "$bin" serve --graph "$dir/ds.graph" --split "$dir/ds.split" \
    --model "$dir/m.naic" --port 0 --workers 2 --max-batch 16 \
    --cache --cache-cap 256 > "$dir/serve_cache.log" 2>&1 &
  pid=$!
  for _ in $(seq 1 100); do
    grep -q "listening on" "$dir/serve_cache.log" && break
    sleep 0.1
  done
  addr=$(sed -n 's/.*listening on \([0-9.:]*\) .*/\1/p' "$dir/serve_cache.log")
  if [ -z "$addr" ]; then
    echo "cache serve never came up:"; cat "$dir/serve_cache.log"
    return 1
  fi
  grep -q "cache cap 256" "$dir/serve_cache.log"
  node=$(curl -sf -X POST \
    --data "{\"op\":\"ingest\",\"features\":$feats,\"neighbors\":[0,1]}" \
    "http://$addr/v1" | sed -n 's/.*"node":\([0-9]*\).*/\1/p')
  [ -n "$node" ]
  for _ in 1 2; do
    curl -sf -X POST --data "{\"op\":\"infer\",\"nodes\":[$node]}" \
      "http://$addr/v1" | grep -q '"ok":true'
  done
  curl -sf "http://$addr/metrics" | grep -q '"cache_hits":[1-9]'
  curl -sf -X POST "http://$addr/shutdown" > /dev/null
  wait "$pid"
  pid=""
  grep -q "stopped cleanly" "$dir/serve_cache.log"
}

step "serve smoke (healthz + inference over TCP + clean shutdown)" \
  serve_smoke

# Observability surfaces against a live server: push traffic with
# `nai loadgen`, then assert the Prometheus exposition carries the
# request/stage histograms (cumulative buckets, exact counts), the
# JSON scrape carries per-stage spans and batch anatomy, and the
# flight recorder at /debug/slow holds stage-timed traces, and that an
# idle server answers a read inline on the reactor thread.
obs_smoke() {
  local dir bin pid="" addr
  dir=$(mktemp -d)
  trap 'trap - RETURN; [ -n "${pid:-}" ] && kill "$pid" 2>/dev/null; rm -rf "$dir"; true' RETURN
  bin=target/release/nai
  "$bin" generate --dataset arxiv --scale test --out "$dir/ds" > /dev/null
  "$bin" train --graph "$dir/ds.graph" --split "$dir/ds.split" \
    --k 2 --epochs 8 --hidden 8 --out "$dir/m.naic" > /dev/null
  "$bin" serve --graph "$dir/ds.graph" --split "$dir/ds.split" \
    --model "$dir/m.naic" --port 0 --workers 2 --max-batch 16 \
    > "$dir/serve.log" 2>&1 &
  pid=$!
  for _ in $(seq 1 100); do
    grep -q "listening on" "$dir/serve.log" && break
    sleep 0.1
  done
  addr=$(sed -n 's/.*listening on \([0-9.:]*\) .*/\1/p' "$dir/serve.log")
  if [ -z "$addr" ]; then
    echo "serve never came up:"; cat "$dir/serve.log"
    return 1
  fi
  "$bin" loadgen --addr "$addr" --requests 60 --clients 2 --mode infer \
    > "$dir/loadgen.log"
  grep -q "closed_on_" "$dir/loadgen.log"
  # Prometheus text exposition: typed families, labeled stage series
  # with nonzero counts, cumulative buckets ending at +Inf.
  curl -sf "http://$addr/metrics?format=prom" > "$dir/prom.txt"
  grep -q '^# TYPE nai_request_duration_seconds histogram' "$dir/prom.txt"
  grep -q 'nai_request_duration_seconds_bucket{le="+Inf"}' "$dir/prom.txt"
  grep -Eq '^nai_request_duration_seconds_count [1-9]' "$dir/prom.txt"
  grep -Eq '^nai_request_stage_duration_seconds_count\{stage="queue_wait"\} [1-9]' \
    "$dir/prom.txt"
  grep -q '^nai_batch_closed_total{reason="max_batch"}' "$dir/prom.txt"
  # JSON scrape: per-stage spans and batch anatomy ride along.
  curl -sf "http://$addr/metrics" | grep -q '"queue_wait"'
  curl -sf "http://$addr/metrics" | grep -q '"closed_on_idle"'
  # A lone read that names no worker is always answered by the reactor
  # inline.
  curl -sf -X POST --data '{"op":"infer","nodes":[1]}' "http://$addr/v1" \
    | grep -q '"ok":true'
  curl -sf "http://$addr/metrics" | grep -Eq '"inline_batches":[1-9]'
  curl -sf "http://$addr/metrics?format=prom" \
    | grep -Eq '^nai_inline_batches_total [1-9]'
  # Flight recorder: stage-timed traces of the slowest requests.
  curl -sf "http://$addr/debug/slow" > "$dir/slow.json"
  grep -q '"trace_id"' "$dir/slow.json"
  grep -q '"stages_us"' "$dir/slow.json"
  curl -sf -X POST "http://$addr/shutdown" > /dev/null
  wait "$pid"
  pid=""
  grep -q "stopped cleanly" "$dir/serve.log"
}

step "obs smoke (prom exposition + stage spans + flight recorder live)" \
  obs_smoke

# The repository benchmark's own oracles, as a correctness check only:
# a short untraced run of each gated workload must end with
# `"correct": true` — every serve-light reply bit-equal to a solo
# engine, every serve-mixed op answered exactly once. The numbers are
# not gated here, and `--trace 0` keeps it free of the timing-based
# trace checks.
perfbench_smoke() {
  local workload last
  for workload in serve-light serve-mixed; do
    last=$(CARGO_TARGET_DIR=target/perfbench python3 perfbench/run.py \
      --workload "$workload" --seed 1 --seconds 3 --trace 0 | tail -n 1)
    if ! grep -q '"correct": true' <<< "$last"; then
      echo "perfbench $workload is not correct: $last"
      return 1
    fi
  done
}

step "perfbench smoke (gated workloads answer correctly, --trace 0)" \
  perfbench_smoke

step "cargo doc --no-deps (-D warnings)" \
  env RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet

step "cargo fmt --check" \
  cargo fmt --check

echo "ci.sh: all green"
