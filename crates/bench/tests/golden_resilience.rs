//! Golden record: `resilience::run()` must reproduce, line for line, the
//! resilience block recorded in EXPERIMENTS.md. The block holds blank
//! lines, so it runs from its `################ resilience ################`
//! banner up to the `[resilience: … ms host wall-clock]` line, which is
//! excluded; the `experiments` binary prints the table followed by one
//! blank line before that line.
//!
//! This pins the fault-count slowdown model and every scenario's
//! rollbacks, replays, recovery percentiles, slowdown and bit-identity,
//! so a change to the resilient executor that moves one of them must
//! regenerate the record (`experiments resilience`) in the same change.

const BANNER: &str = "################ resilience ################";

#[test]
fn resilience_output_matches_the_experiments_record() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
    let doc = std::fs::read_to_string(path).expect("read EXPERIMENTS.md");
    let want: Vec<&str> = doc
        .lines()
        .skip_while(|l| *l != BANNER)
        .skip(1)
        .take_while(|l| !l.starts_with("[resilience:"))
        .collect();
    assert!(!want.is_empty(), "no resilience block in EXPERIMENTS.md");
    // As printed: `println!("{table}")` ends the table with a blank line.
    let got = format!("{}\n", wmpt_bench::resilience::run());
    let got: Vec<&str> = got.lines().collect();
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(
            g,
            w,
            "resilience line {} differs from EXPERIMENTS.md",
            i + 1
        );
    }
    assert_eq!(got.len(), want.len(), "resilience line count");
}
