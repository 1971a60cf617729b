//! # fc-bench — the experiment harness
//!
//! One bench target per table/figure of the paper's §VI (see DESIGN.md §4
//! for the experiment index). This library holds the shared harness: data
//! set preparation, the virtual-time schedulers used to replay the
//! partitioner's task logs, and the row printers that mirror the paper's
//! tables.
//!
//! Scale: every experiment honours the `FOCUS_BENCH_SCALE` environment
//! variable (default 1.0), a multiplier on the read counts of the three
//! paper-analogue data sets. `FOCUS_BENCH_SCALE=1` reproduces the full
//! benchmark size documented in EXPERIMENTS.md.

#![forbid(unsafe_code)]

pub mod harness;
pub mod tables;

pub use harness::{bench_scale, prepare_context, standard_config, ExperimentContext};
pub use tables::{fmt_f64, print_rule, print_table_header};
