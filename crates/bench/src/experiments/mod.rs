//! The experiments: one module per figure/table, each a function from a
//! [`Scale`] to the [`Results`] it measured, printing its paper-style rows
//! on the way. [`EXPERIMENTS`] is the only list of them.

mod ablations;
mod fig4;
mod fig5;
mod fig6;
mod fig7;
mod fig8;
mod newstructs;
mod pqueue_contention;
mod table2;
mod trace;
mod ycsbe;

use hybrids::driver::RunResult;

use crate::{Record, Results, Scale};

/// An experiment: runs at `scale`, prints its table, returns what to save.
pub type Experiment = fn(&Scale) -> Results;

/// Every experiment `figures` can run, by command-line name.
pub const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("fig4", fig4::run),
    ("fig5", fig5::run),
    ("fig6", fig6::run),
    ("fig7", fig7::run),
    ("fig8", fig8::run),
    ("table2", table2::run),
    ("ablations", ablations::run),
    ("ycsbe", ycsbe::run),
    ("newstructs", newstructs::run),
    ("pqueue_contention", pqueue_contention::run),
    ("trace", trace::run),
];

/// The measured result of the row `pick` selects: experiments look their
/// own rows up again to print headline ratios.
fn result_of(records: &[Record], pick: impl Fn(&Record) -> bool) -> &RunResult {
    &records.iter().find(|r| pick(r)).expect("a headline names a row the experiment ran").result
}
