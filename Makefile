# Tier-1 verify and dev conveniences. `just` mirrors these recipes.

.PHONY: test lint fmt build doc bench bench-pairs api-counts import-fixtures

# Matches the tier-1 verify in ROADMAP.md exactly.
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

# One run of the repo benchmark: BENCHMARK.json's command with the caller's
# arguments, e.g. make bench ARGS='--workload train-xlsa --seed 1 --seconds 30 --trace 0'
bench:
	cargo run --release --offline --quiet --manifest-path bench/Cargo.toml -- $(ARGS)

# Interleaved parent/change pairs of one workload against a git ref, e.g.
# make bench-pairs ARGS='HEAD~1 train-xlsa 10 30' (see scripts/bench-pairs.sh)
bench-pairs:
	scripts/bench-pairs.sh $(ARGS)

# Per-crate non-test source lines, `pub` items and lib.rs re-exports, the
# size report a simplification change quotes (see scripts/api-counts.sh).
api-counts:
	scripts/api-counts.sh

# Regenerate the committed .mat golden fixtures under crates/mat/tests/fixtures/
# and print the digest constants to paste into tests/golden_import.rs.
import-fixtures:
	cargo test -p zsl-mat --test golden_import -- --ignored --nocapture
