//! Table I: graph classes, sizes, and the optimal SOS parameter β.
//!
//! Analytic spectra (tori, hypercube) are evaluated at the exact paper
//! sizes regardless of `--full`; the two random graph classes default to
//! scaled sizes (the paper's 10⁶-node configuration-model graph needs
//! `--full`).

use sodiff_bench::{write_table, ExpOpts};
use sodiff_graph::{generators, Speeds};
use sodiff_linalg::spectral;

fn main() {
    let opts = ExpOpts::from_args();
    let mut rows = Vec::new();
    println!(
        "{:<28} {:>10} {:>14} {:>14} {:>14}",
        "graph", "n", "lambda", "beta_opt", "beta (paper)"
    );

    let mut emit = |name: &str, n: usize, lambda: f64, beta: f64, paper: Option<f64>| {
        let paper_str = paper
            .map(|p| format!("{p:.10}"))
            .unwrap_or_else(|| "-".into());
        println!(
            "{:<28} {:>10} {:>14.10} {:>14.10} {:>14}",
            name, n, lambda, beta, paper_str
        );
        rows.push(format!(
            "{name},{n},{lambda},{beta},{}",
            paper.unwrap_or(f64::NAN)
        ));
    };

    // Tori and hypercube: closed forms at paper scale.
    let s = spectral::torus_spectrum(&[1000, 1000]);
    emit(
        "torus 1000x1000",
        1_000_000,
        s.lambda,
        s.beta_opt(),
        Some(1.9920836447),
    );
    let s = spectral::torus_spectrum(&[100, 100]);
    emit(
        "torus 100x100",
        10_000,
        s.lambda,
        s.beta_opt(),
        Some(1.9235874877),
    );
    let s = spectral::hypercube_spectrum(20);
    emit(
        "hypercube 2^20",
        1 << 20,
        s.lambda,
        s.beta_opt(),
        Some(1.4026054847),
    );

    // Random graph (CM), d = floor(log2 n): Lanczos.
    let n_cm = opts.scale(16_384, 1_000_000);
    let g = generators::random_graph_cm(n_cm, opts.seed).expect("valid CM parameters");
    let s = spectral::lanczos_spectrum(&g, &Speeds::uniform(n_cm));
    let paper = if opts.full { Some(1.0651965147) } else { None };
    emit(
        &format!("random graph (CM) d={}", g.max_degree()),
        n_cm,
        s.lambda,
        s.beta_opt(),
        paper,
    );

    // Random geometric graph, r = 4 (log n)^(1/4).
    let n_rgg = opts.scale(2_000, 10_000);
    let g = generators::rgg_paper(n_rgg, opts.seed);
    let s = spectral::lanczos_spectrum(&g, &Speeds::uniform(n_rgg));
    let paper = if opts.full { Some(1.9554636334) } else { None };
    emit(
        "random geometric graph",
        n_rgg,
        s.lambda,
        s.beta_opt(),
        paper,
    );

    write_table(
        &opts.path("table1"),
        "graph,n,lambda,beta_opt,beta_paper",
        &rows,
    );
    println!("\nwrote {}", opts.path("table1").display());
    println!("note: paper beta values are reproduced to ~1e-7 for the");
    println!("closed-form rows; random-graph rows depend on the instance");
    println!("(seed) and match the paper's order of magnitude.");
}
