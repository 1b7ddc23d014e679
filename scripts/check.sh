#!/usr/bin/env bash
# Tier-1 gate: everything a PR must pass before merging.
# Offline by design — no registry access, no network.
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

run cargo build --release --offline --workspace --bins --examples
run cargo test -q --offline --workspace
# The benchmark harness is its own package outside the workspace. Its
# smoke test fails when the program stops registering a metric the
# benchmark reads, here rather than at benchmark time.
run cargo test --release --offline --manifest-path perfbench/Cargo.toml

# Fixed-seed rtcheck subset: deterministic differential conformance,
# linearizability, membership/failover spec, and shard-map property
# sweeps (the binary was built by the workspace build above). The
# randomized time-boxed sweeps live in CI tier 2.
run ./target/release/rtcheck diff --seed 0 --cases 2000
run ./target/release/rtcheck lin --seed 0 --rounds 50
run ./target/release/rtcheck member --seed 0 --cases 500
run ./target/release/rtcheck shard --seed 0 --cases 500
run cargo fmt --all -- --check
run cargo clippy --offline --workspace --all-targets -- -D warnings

# Deprecated-constructor gate: the pre-builder ORB entry points survive
# only as deprecated shims for external callers. Inside the workspace
# everything must use ServerBuilder/ClientBuilder; the only permitted
# call sites are the shim definitions themselves (corb.rs, zen.rs) and
# the shim-coverage test (legacy_shims.rs).
echo "==> deprecated ORB constructor gate"
if grep -rn \
        -e '::spawn_tcp(' -e '::spawn_tcp_reactor(' -e '::spawn_tcp_threaded(' \
        -e '::connect_tcp(' -e '::connect_tcp_with(' \
        --include='*.rs' \
        crates examples \
    | grep -v 'crates/rtcorba/src/corb\.rs' \
    | grep -v 'crates/rtcorba/src/zen\.rs' \
    | grep -v 'crates/rtcorba/tests/legacy_shims\.rs'
then
    echo "FAIL: deprecated ORB constructors used inside the workspace" \
         "(use rtcorba::ServerBuilder / rtcorba::ClientBuilder)"
    exit 1
fi
RUSTDOCFLAGS="-D warnings" run cargo doc --offline --no-deps --workspace

# Binary-size report: embedded targets care about footprint, so keep the
# release artefact sizes visible in every CI log (informational).
echo "==> release binary sizes"
for bin in target/release/examples/*; do
    name="${bin##*/}"
    # Skip dep-info files and cargo's hash-suffixed duplicates.
    case "$name" in *-*|*.*) continue ;; esac
    [ -f "$bin" ] && [ -x "$bin" ] || continue
    printf '%10d KiB  %s\n' "$(($(stat -c %s "$bin") / 1024))" "$name"
done | sort -k3

echo "All checks passed."
