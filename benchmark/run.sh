#!/usr/bin/env bash
# The benchmark's one command (see BENCHMARK.json):
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Builds both binaries from source (a no-op when they are fresh; offline,
# every dependency is a path dependency on the checkout), then replaces this
# shell with `perf-record` (--trace 0: end-to-end metrics, plain allocator)
# or `perf-trace` (--trace 1: per-layer metrics, counting allocator + spans).
# Run it from the root of a checkout. In a directory without the repo's
# crates the build fails, so this exits non-zero and prints no result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# A relative CARGO_TARGET_DIR is relative to the current directory, for
# Cargo and for us alike.
target="${CARGO_TARGET_DIR:-$here/target}"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bins >&2

bin=perf-record
prev=
for arg in "$@"; do
    if [[ "$arg" == "--trace=1" || ( "$prev" == "--trace" && "$arg" == "1" ) ]]; then
        bin=perf-trace
    fi
    prev="$arg"
done

exec "$target/release/$bin" "$@"
