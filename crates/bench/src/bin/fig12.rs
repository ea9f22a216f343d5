//! Figure 12: random graph in the configuration model with d = ⌊log₂ n⌋
//! (paper: n = 10⁶, d = 19; default here n = 10⁵). SOS, FOS, and the
//! switch to FOS at round 12. On these expander-like graphs FOS and SOS
//! behave almost identically.

use sodiff_bench::{save_recorder, ExpOpts};
use sodiff_core::prelude::*;
use sodiff_graph::generators;
use sodiff_linalg::spectral;

fn main() {
    let opts = ExpOpts::from_args();
    let n: usize = opts.scale(100_000, 1_000_000);
    let rounds = 100u64;
    let graph = generators::random_graph_cm(n, opts.seed).expect("CM parameters");
    let spec = spectral::lanczos_spectrum(&graph, &Speeds::uniform(n));
    let beta = spec.beta_opt();
    println!(
        "Figure 12: CM random graph n = {n}, d = {}, lambda = {:.6}, beta = {:.6}",
        graph.max_degree(),
        spec.lambda,
        beta
    );

    for (name, scheme, switch) in [
        ("fig12_sos", Scheme::sos(beta), None),
        ("fig12_fos", Scheme::fos(), None),
        ("fig12_fos_at12", Scheme::sos(beta), Some(12u64)),
    ] {
        let mut builder = Experiment::on(&graph)
            .discrete(Rounding::randomized(opts.seed))
            .scheme(scheme)
            .init(InitialLoad::paper_default(n))
            .stop(StopCondition::MaxRounds(rounds as usize));
        if let Some(at) = switch {
            builder = builder.hybrid(SwitchPolicy::AtRound(at));
        }
        let mut rec = Recorder::new();
        builder
            .build()
            .expect("valid experiment")
            .run_with(&mut rec);
        save_recorder(&opts, name, &rec);
    }

    println!();
    println!("expected shape (paper): all three curves drop within ~20-40");
    println!("rounds and end at the same small remaining imbalance — on");
    println!("graphs with a large spectral gap SOS buys almost nothing.");
}
