#!/usr/bin/env bash
# Lines of Rust, as the ROADMAP quotes them: every `.rs` file outside
# `target/`, `vendor/` and `crates/workload/` (the benchmark), then the
# files and directories deletion work is usually aimed at (`taxonomy+Ω`
# is the taxonomy crate's sources plus the Ω operator), then `tests/`
# (counted in `rust`) and `vendor/` (not counted in it), so a deletion
# shows where its lines went.
#
#   scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

count() { xargs cat | wc -l; }

printf 'rust\t%s\n' "$(find . -name '*.rs' -not -path './target/*' -not -path './vendor/*' \
    -not -path './crates/workload/*' | count)"
printf 'exec/mod.rs\t%s\n' "$(echo crates/kernel/src/exec/mod.rs | count)"
printf 'obs/\t%s\n' "$(find crates/kernel/src/obs -name '*.rs' | count)"
printf 'engine.rs\t%s\n' "$(echo crates/kernel/src/engine.rs | count)"
printf 'taxonomy+Ω\t%s\n' "$( (find crates/taxonomy/src -name '*.rs'; echo crates/mural/src/semequal.rs) | count)"
printf 'tests/\t%s\n' "$(find tests -name '*.rs' | count)"
printf 'vendor/\t%s\n' "$(find vendor -name '*.rs' | count)"
