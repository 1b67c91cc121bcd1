//! Bench over the paper's Table 1 suite: one timing per program, measuring
//! the full verification pipeline (front end + CEGAR loop). This
//! regenerates the paper's only evaluation table with stable statistics;
//! the `table1` binary prints the same data in the paper's layout.

use homc::{suite::SUITE, verify, VerifierOptions};
use homc_bench::time_it;

fn main() {
    for p in SUITE {
        time_it(&format!("table1/{}", p.name), 10, || {
            verify(p.source, &VerifierOptions::default())
                .expect("runs")
                .verdict
        });
    }
}
