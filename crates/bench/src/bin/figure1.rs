//! Regenerates **Figure 1** of the paper: the update-protocol state diagram
//! (idle / compute / wait), printed directly from the participant state
//! machine the engine actually runs, as a transition table and as Graphviz
//! DOT. The rendering lives beside the machine in `pv-protocol` so the
//! table can never drift from the code; a golden test pins it to
//! `results/figure1.txt`.
//!
//! Run with `cargo run -p pv-bench --bin figure1`.

use pv_protocol::render_figure1;

fn main() {
    pv_bench::no_args();
    print!("{}", render_figure1());
}
