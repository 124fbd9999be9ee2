//! Extension experiment: **the parameter-space exploration the paper could
//! not fit** ("Space limitations in this paper prevent a thorough
//! exploration of the parameter space").
//!
//! Prints per-parameter sweeps around the typical database, the log-log
//! elasticity of the steady state with respect to each parameter, and the
//! stability boundary in (U, D).
//!
//! Run with `cargo run -p pv-bench --bin sensitivity`.

use pv_model::sensitivity::{elasticity, stability_boundary_d, stability_boundary_u, sweep, Axis};
use pv_model::{ModelParams, Prediction};

fn fmt_pred(p: Prediction) -> String {
    match p {
        Prediction::Stable(v) => format!("{v:.2}"),
        Prediction::Unstable => "UNSTABLE".into(),
    }
}

fn main() {
    pv_bench::no_args();
    let base = ModelParams::typical();
    println!("Parameter-space exploration around the typical database ({base})");
    println!();

    println!("per-parameter sweeps (steady-state P):");
    let sweeps: [(&str, Axis, Vec<f64>); 6] = [
        ("U", Axis::U, vec![1.0, 10.0, 100.0, 500.0, 900.0]),
        ("F", Axis::F, vec![1e-5, 1e-4, 1e-3, 1e-2]),
        ("I", Axis::I, vec![1e4, 1e5, 1e6, 1e7]),
        ("R", Axis::R, vec![1e-5, 1e-4, 1e-3, 1e-2]),
        ("Y", Axis::Y, vec![0.0, 0.25, 0.5, 1.0]),
        ("D", Axis::D, vec![0.0, 1.0, 10.0, 50.0, 99.0, 101.0]),
    ];
    for (name, axis, values) in &sweeps {
        let row: Vec<String> = sweep(&base, *axis, values)
            .into_iter()
            .map(|(v, p)| format!("{v}→{}", fmt_pred(p)))
            .collect();
        println!("  {name:>2}: {}", row.join("  "));
    }
    println!();

    println!("elasticities d ln P / d ln x at the typical point:");
    for axis in Axis::all() {
        match elasticity(&base, axis) {
            Some(e) => println!("  {:>2}: {e:+.4}", axis.name()),
            None => println!("  {:>2}: n/a (zero parameter or unstable)", axis.name()),
        }
    }
    println!();

    println!("stability boundary (where polytransaction creation outruns recovery):");
    for i in [1e4, 1e5, 1e6] {
        let p = base.with_i(i);
        println!(
            "  I = {i:>9}: D* = {:>8.1} at U = 10;  U* = {:>9.1} at D = 5",
            stability_boundary_d(&p),
            stability_boundary_u(&p.with_d(5.0)).unwrap_or(f64::INFINITY),
        );
    }
    println!();
    println!("Expected shape: P scales linearly in F, ~linearly in U, inversely in R;");
    println!("Y and D matter only near the stability boundary D* = (IR + UY)/U, far");
    println!("above realistic dependency fan-ins for the paper's typical parameters.");
}
