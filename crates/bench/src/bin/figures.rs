//! The one way to run the evaluation: every experiment of
//! [`hybrids_bench::experiments::EXPERIMENTS`], in this process.
//!
//! ```text
//! cargo run --release -p hybrids-bench --bin figures -- \
//!     [--scale smoke|ci|paper] [--policy fixed|adaptive] [--ops N] [--out DIR] [names | all]
//! ```
//!
//! Exit status: 2 for a command-line error (nothing has run), 1 when the
//! output directory cannot be written.

use std::process::ExitCode;

use hybrids_bench::{parse_args, run_experiment, Invocation};

/// Creates the output directory first: an unwritable `--out` should cost an
/// error message, not a simulation.
fn run(inv: &Invocation) -> std::io::Result<()> {
    std::fs::create_dir_all(&inv.out)?;
    for (name, experiment) in &inv.experiments {
        eprintln!("== running {name} ==");
        run_experiment(*experiment, &inv.scale, &inv.out)?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let inv = match parse_args(std::env::args().skip(1)) {
        Ok(inv) => inv,
        Err(e) => {
            eprintln!("figures: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = run(&inv) {
        eprintln!("figures: cannot write results under {}: {e}", inv.out.display());
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
