#!/usr/bin/env bash
# CI gate: formatting, lints, the tier-1 test suite, and example rot checks.
set -euo pipefail
cd "$(dirname "$0")"

cargo fmt --all --check
cargo clippy --workspace --all-targets -- -D warnings
cargo test --workspace --release
cargo build --release --examples
# Smoke: 4-volume pool, striped region, one member failure + online
# resilver — asserts internally, fails loud if the pool path rots.
cargo run --release --example scale_out
# Smoke: partitioned audit scaling (T8) — asserts the ≥ 2× speedup and
# p99 bars internally at smoke scale.
cargo run --release -p pm-bench --bin audit_scaling
# Smoke: windowed, mirror-balanced read path (T9) — error-free matrix run.
cargo run --release -p pm-bench --bin read_scaling
# Smoke: persistence modes (T10) — asserts the honest modes' latency
# premium and throughput floor internally at smoke scale.
cargo run --release -p pm-bench --bin persist_modes
# Smoke: sharded transaction layer (T11) — asserts the >= 2.5x 4-node
# speedup at 10% cross-shard and the 100k-client population bars
# internally at smoke scale.
cargo run --release -p pm-bench --bin shard_scaling
# Smoke: fabric QoS isolation (T12) — asserts commit p99 <= 2x uncontended
# under an online resilver with DRR+admission, resilver >= 80% of its
# standalone rate, and the FIFO baseline's p99 blow-up, all internally.
cargo run --release -p pm-bench --bin qos_isolation
# Smoke: near-device offload (T13) — asserts the offload append removes
# >= 1 fabric round trip per commit at p50 no worse, the batched device
# scrub cuts verify fabric bytes >= 10x, and NPMU->NPMU copy lifts the
# pool-wide resilver rate >= 1.5x, all internally.
cargo run --release -p pm-bench --bin offload
# Smoke: geo-replication failover drill (T14) — asserts internally that
# the drained controls converge to RPO 0 with byte-identical trail
# prefixes, every drill replica is a bit-identical prefix of its
# primary, eager RPO <= lazy below the bandwidth-delay crossover, the
# epoch fence round-trips, and no arm accumulates unbounded backlog.
cargo run --release -p pm-bench --bin georep
# Crash-point fuzz smoke: ~200 injected power-loss points across the
# three persistence modes plus the device-append offload arm (power loss
# sampled between device tail bump and client ack; release: `cargo test
# --workspace --release` above already ran it once; FUZZ_FULL=1 widens
# to the ≥ 2000-point sweep).
FUZZ_FULL="${FUZZ_FULL:-}" cargo test --release --test crash_fuzz
# Artifact gate: fresh --json runs must match committed results/ exactly.
tools/bench_check.sh
# Docs must build clean (broken intra-doc links fail the gate).
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
