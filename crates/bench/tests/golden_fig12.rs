//! Golden record: `fig12::run()` must reproduce, line for line, the fig12
//! block recorded in EXPERIMENTS.md. The block is the experiment's output
//! after its `################ fig12 ################` banner, up to the
//! first blank line; the host wall-clock lines the `experiments` binary
//! adds come after that line and are not part of `run()`.
//!
//! This pins the prediction sweep and both zero-skip fractions end to
//! end, so a refactor that moves one of them must regenerate the record
//! (`experiments fig12`) in the same change.

const BANNER: &str = "################ fig12 ################";

#[test]
fn fig12_output_matches_the_experiments_record() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
    let doc = std::fs::read_to_string(path).expect("read EXPERIMENTS.md");
    let want: Vec<&str> = doc
        .lines()
        .skip_while(|l| *l != BANNER)
        .skip(1)
        .take_while(|l| !l.is_empty())
        .collect();
    assert!(!want.is_empty(), "no fig12 block in EXPERIMENTS.md");
    let got = wmpt_bench::fig12::run();
    let got: Vec<&str> = got.lines().collect();
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g, w, "fig12 line {} differs from EXPERIMENTS.md", i + 1);
    }
    assert_eq!(got.len(), want.len(), "fig12 line count");
}
