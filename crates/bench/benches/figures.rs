//! Benchmark harness over the paper-reproduction experiments: running
//! `cargo bench -p wmpt-bench --bench figures` regenerates every
//! data-bearing table and figure (the output of each generator is printed
//! once per figure) and times the generators themselves.

use std::hint::black_box;
use wmpt_bench::timing::bench;

fn main() {
    for (name, runner) in wmpt_bench::all_experiments() {
        // Print each figure's data once so `cargo bench` regenerates the
        // paper's tables as a side effect of timing them.
        println!("################ {name} ################");
        println!("{}", runner().table);
        bench(&format!("figures/{name}"), || black_box(runner()));
    }
}
