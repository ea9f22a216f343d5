//! Ablation: heterogeneous speed profiles. Runs SOS on a torus under
//! several speed distributions and reports convergence rounds, the
//! proportionality error, and how the spectral gap (and thus β_opt)
//! shifts with heterogeneity.

use sodiff_bench::ExpOpts;
use sodiff_core::prelude::*;
use sodiff_graph::generators;
use sodiff_linalg::spectral;

fn main() {
    let opts = ExpOpts::from_args();
    let side: usize = opts.scale(24, 48);
    let graph = generators::torus2d(side, side);
    let n = graph.node_count();
    println!("Ablation: speed profiles on torus {side}x{side}");
    println!(
        "{:<22} {:>8} {:>12} {:>10} {:>12} {:>16}",
        "profile", "s_max", "lambda", "beta", "rounds", "max rel error"
    );

    let profiles: Vec<(&str, Speeds)> = vec![
        ("uniform", Speeds::uniform(n)),
        ("two-class 4x/25%", Speeds::two_class(n, n / 4, 4.0)),
        ("two-class 16x/5%", Speeds::two_class(n, n / 20, 16.0)),
        ("linear ramp to 8", Speeds::linear_ramp(n, 8.0)),
        (
            "skewed max 8",
            Speeds::random_skewed(n, 8.0, 2.0, opts.seed),
        ),
    ];

    let mut rows = Vec::new();
    for (name, speeds) in profiles {
        let spec = spectral::lanczos_spectrum(&graph, &speeds);
        let beta = spec.beta_opt();
        let total = 500 * speeds.total() as i64;
        let mut sim = Experiment::on(&graph)
            .discrete(Rounding::randomized(opts.seed))
            .sos(beta)
            .speeds(speeds.clone())
            .init(InitialLoad::point(0, total))
            .build()
            .expect("valid experiment")
            .simulator();
        let report = sim.run_until(StopCondition::Plateau {
            window: 50,
            max_rounds: 200 * side,
        });
        let loads = sim.loads_i64().expect("discrete");
        let rel_err = loads
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                let ideal = total as f64 * speeds.get(i) / speeds.total();
                (x as f64 - ideal).abs() / ideal
            })
            .fold(0.0f64, f64::max);
        println!(
            "{name:<22} {:>8.0} {:>12.6} {:>10.4} {:>12} {:>16.4}",
            speeds.max(),
            spec.lambda,
            beta,
            report.rounds,
            rel_err
        );
        rows.push(format!(
            "{name},{},{},{},{},{}",
            speeds.max(),
            spec.lambda,
            beta,
            report.rounds,
            rel_err
        ));
    }
    sodiff_bench::write_table(
        &opts.path("ablation_speeds"),
        "profile,s_max,lambda,beta,rounds,max_rel_error",
        &rows,
    );
    println!("\nwrote {}", opts.path("ablation_speeds").display());
    println!("expected: all profiles balance proportionally; stronger");
    println!("heterogeneity shrinks the gap slightly and raises beta_opt.");
}
