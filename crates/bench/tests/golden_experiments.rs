//! Golden record: every deterministic experiment's `run()` must
//! reproduce, line for line, its block in EXPERIMENTS.md's raw output.
//!
//! A block is what the `experiments` binary prints after the
//! experiment's `################ <name> ################` banner: the
//! table, then one blank line. Blocks hold blank lines of their own
//! (`tables`, fig15, `resilience`), so a block ends at the next banner,
//! at a `[<name>: … ms host wall-clock]` line or at the closing code
//! fence, none of which belong to `run()`.
//!
//! The measured experiments (`par_speedup`, `kernels`, `serve_load`,
//! `plan_search`) read the host clock; `experiments --gate` grades them
//! against `baselines/` instead. A change that moves a recorded figure
//! must regenerate its block (`experiments <name>`) in the same change.

fn check(name: &str) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
    let doc = std::fs::read_to_string(path).expect("read EXPERIMENTS.md");
    let banner = format!("################ {name} ################");
    let footer = format!("[{name}:");
    let want: Vec<&str> = doc
        .lines()
        .skip_while(|l| *l != banner)
        .skip(1)
        .take_while(|l| {
            !l.starts_with("################ ") && !l.starts_with(&footer) && !l.starts_with("```")
        })
        .collect();
    assert!(!want.is_empty(), "no {name} block in EXPERIMENTS.md");
    let (_, runner) = wmpt_bench::all_experiments()
        .into_iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("no experiment {name}"));
    let out = runner();
    assert!(out.snapshot.is_none(), "{name} measures the host");
    let got = format!("{}\n", out.table);
    let got: Vec<&str> = got.lines().collect();
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g, w, "{name} line {} differs from EXPERIMENTS.md", i + 1);
    }
    assert_eq!(got.len(), want.len(), "{name} line count");
}

macro_rules! golden {
    ($($name:ident),* $(,)?) => {
        $(
            #[test]
            fn $name() {
                check(stringify!($name));
            }
        )*
    };
}

golden!(
    tables,
    fig01,
    fig06,
    fig07,
    fig12,
    fig14,
    fig15,
    fig16,
    fig17,
    fig18,
    scalability,
    comm_breakdown,
    resilience,
);
