//! Regenerates **Table 1** of the paper: model predictions of the expected
//! number of polyvalues for a one-at-a-time parameter sweep.
//!
//! Run with `cargo run -p pv-bench --bin table1`.

fn main() {
    pv_bench::no_args();
    print!("{}", pv_model::table1::render());
    println!();
    println!("Every row is computed from the paper's closed form P = UFI/(IR+UY-UD);");
    println!("the P(paper) column is the value printed in the original table.");
}
