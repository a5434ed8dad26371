//! `zsl-bench` command line. See `bench/README.md` for the workloads, the
//! metrics and how to read them.
//!
//! ```sh
//! cargo run --release --offline --manifest-path bench/Cargo.toml -- \
//!     --workload serve-rows --seed 1 --seconds 20 --trace 0
//! cargo run --release --offline --manifest-path bench/Cargo.toml -- steady --runs 10
//! cargo run --release --offline --manifest-path bench/Cargo.toml -- compare base.jsonl new.jsonl
//! ```

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match zsl_bench::cli::main(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("zsl-bench: {e}");
            1
        }
    };
    std::process::exit(code);
}
