//! The shard worker the sharded workload spawns: the repository's
//! `certify_shard::run_worker` conversation, built next to `certbench`.

use std::io::{self, BufWriter};

fn main() {
    let stdin = io::stdin().lock();
    let stdout = BufWriter::new(io::stdout().lock());
    if let Err(error) = certify_shard::run_worker(stdin, stdout) {
        eprintln!("shard_worker: {error}");
        std::process::exit(error.exit_code());
    }
}
