//! Experiment harness regenerating every data-bearing table and figure of
//! the paper (see `DESIGN.md` for the experiment index and
//! `EXPERIMENTS.md` for recorded outputs).
//!
//! Each `figNN` module exposes `run() -> String` producing the
//! figure's rows; the `experiments` binary prints them
//! (`cargo run -p wmpt-bench --bin experiments --release [fig15 ...]`),
//! and the plain-harness benches under `benches/` ([`timing`]) time the
//! underlying kernels and ablations.

#![forbid(unsafe_code)]

pub mod comm_breakdown;
pub mod fig01;
pub mod fig06;
pub mod fig07;
pub mod fig12;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod gate;
pub mod kernels;
pub mod obs_report;
pub mod par_speedup;
pub mod plan_search;
pub mod report;
pub mod resilience;
pub mod scalability;
pub mod serve_load;
pub mod tables;
pub mod timing;

use wmpt_obs::json::Value;

/// Formats a row of labelled values with fixed column width.
pub fn row(label: &str, values: &[String]) -> String {
    let mut s = format!("{label:<24}");
    for v in values {
        s.push_str(&format!("{v:>14}"));
    }
    s.push('\n');
    s
}

/// Formats a float to 3 significant decimals for table cells.
pub fn f(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

/// Formats bytes human-readably (KiB/MiB/GiB).
pub fn bytes(v: f64) -> String {
    const K: f64 = 1024.0;
    if v >= K * K * K {
        format!("{:.2}GiB", v / (K * K * K))
    } else if v >= K * K {
        format!("{:.2}MiB", v / (K * K))
    } else if v >= K {
        format!("{:.1}KiB", v / K)
    } else {
        format!("{v:.0}B")
    }
}

/// Machine-readable tables for replotting (written by
/// `experiments --tsv` into `results/`).
pub fn all_tsv_tables() -> Vec<report::Table> {
    vec![
        fig07::table(),
        fig15::table(),
        fig17::table(),
        scalability::table(),
    ]
}

/// What an experiment produces: the table it prints and, for the
/// experiments that measure one, the `BENCH_*.json` report the table was
/// rendered from. Running an experiment never touches the disk; only the
/// `experiments` binary writes snapshots.
#[derive(Debug)]
pub struct Output {
    /// The rendered table.
    pub table: String,
    /// `(file name, report)` of the measured snapshot, if any.
    pub snapshot: Option<(&'static str, Value)>,
}

impl Output {
    /// A snapshot experiment's output: `report` rendered as its table.
    pub fn snapshot(file: &'static str, report: Value, render: fn(&Value) -> String) -> Self {
        Output {
            table: render(&report),
            snapshot: Some((file, report)),
        }
    }
}

impl From<String> for Output {
    fn from(table: String) -> Self {
        Output {
            table,
            snapshot: None,
        }
    }
}

/// An experiment entry: name plus its runner.
pub type Experiment = (&'static str, fn() -> Output);

/// A named experiment, dispatchable from the `experiments` binary.
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        ("tables", || tables::run().into()),
        ("fig01", || fig01::run().into()),
        ("fig06", || fig06::run().into()),
        ("fig07", || fig07::run().into()),
        ("fig12", || fig12::run().into()),
        ("fig14", || fig14::run().into()),
        ("fig15", || fig15::run().into()),
        ("fig16", || fig16::run().into()),
        ("fig17", || fig17::run().into()),
        ("fig18", || fig18::run().into()),
        ("scalability", || scalability::run().into()),
        ("comm_breakdown", || comm_breakdown::run().into()),
        ("resilience", || resilience::run().into()),
        ("par_speedup", par_speedup::run),
        ("kernels", kernels::run),
        ("serve_load", serve_load::run),
        ("plan_search", plan_search::run),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(f(0.0), "0");
        assert_eq!(f(1234.6), "1235");
        assert_eq!(f(42.42), "42.4");
        assert_eq!(f(1.23456), "1.235");
        assert_eq!(bytes(512.0), "512B");
        assert_eq!(bytes(2048.0), "2.0KiB");
        assert!(bytes(3.0 * 1024.0 * 1024.0).ends_with("MiB"));
    }

    #[test]
    fn experiment_registry_is_complete() {
        let names: Vec<&str> = all_experiments().iter().map(|(n, _)| *n).collect();
        for expect in [
            "tables",
            "fig01",
            "fig06",
            "fig07",
            "fig12",
            "fig14",
            "fig15",
            "fig16",
            "fig17",
            "fig18",
            "scalability",
            "comm_breakdown",
            "resilience",
            "par_speedup",
            "kernels",
            "serve_load",
            "plan_search",
        ] {
            assert!(names.contains(&expect), "missing experiment {expect}");
        }
    }
}
