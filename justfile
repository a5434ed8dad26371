# Dev recipes; `make` offers the same targets.

# Tier-1 verify (matches ROADMAP.md).
test:
    cargo build --release && cargo test -q

lint:
    cargo fmt --all -- --check
    cargo clippy --all-targets -- -D warnings
    cargo fmt --manifest-path bench/Cargo.toml -- --check
    cargo clippy --manifest-path bench/Cargo.toml --all-targets -- -D warnings

fmt:
    cargo fmt --all

build:
    cargo build --release

# Public-API docs must stay warning-free (CI enforces the same flag).
doc:
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps

# One run of the repo benchmark: BENCHMARK.json's command with the given
# arguments, e.g. `just bench --workload train-xlsa --seed 1 --seconds 30 --trace 0`.
bench *ARGS:
    cargo run --release --offline --quiet --manifest-path bench/Cargo.toml -- {{ARGS}}

# Interleaved parent/change pairs of one workload against a git ref, e.g.
# `just bench-pairs HEAD~1 train-xlsa 10 30` (see scripts/bench-pairs.sh).
bench-pairs *ARGS:
    scripts/bench-pairs.sh {{ARGS}}

# Per-crate non-test source lines, `pub` items and lib.rs re-exports.
api-counts:
    scripts/api-counts.sh

# Regenerate the committed .mat golden fixtures and print digest constants.
import-fixtures:
    cargo test -p zsl-mat --test golden_import -- --ignored --nocapture
