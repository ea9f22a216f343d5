//! Spectral analysis of diffusion matrices: the second-largest eigenvalue
//! magnitude `λ` that controls convergence rates and the optimal SOS
//! parameter `β_opt = 2/(1+√(1−λ²))` (paper Section II).
//!
//! Dispatch order:
//!
//! 1. analytic closed forms for generated tori, hypercubes, cycles, and
//!    complete graphs in the normalized homogeneous model (`s ≡ 1`),
//! 2. dense Jacobi eigendecomposition for graphs of at most
//!    [`DENSE_LIMIT`] nodes,
//! 3. otherwise one matrix-free Lanczos run on the symmetrized operator
//!    `B = S^{-1/2}·M·S^{1/2}` with the principal direction `√s` deflated:
//!    its largest Ritz value is `λ₂`, its smallest `λ_min`.

use std::f64::consts::PI;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sodiff_graph::{Graph, GraphKind, Speeds};

use crate::diffusion::DiffusionOperator;
use crate::jacobi;
use crate::vector::{axpy, dot, normalize, orthogonalize_against};

/// Above this node count the dense Jacobi path is skipped.
pub const DENSE_LIMIT: usize = 600;

/// How `λ` was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SpectralMethod {
    /// Closed form for a torus.
    AnalyticTorus,
    /// Closed form for a hypercube.
    AnalyticHypercube,
    /// Closed form for a cycle.
    AnalyticCycle,
    /// Closed form for the complete graph.
    AnalyticComplete,
    /// Dense Jacobi eigendecomposition of `B`.
    DenseJacobi,
    /// Lanczos iteration with deflation on `B`.
    Lanczos,
}

/// Spectral summary of a diffusion matrix.
#[derive(Debug, Clone, Copy)]
pub struct Spectrum {
    /// `λ`: the largest magnitude among non-principal eigenvalues,
    /// `max(|λ₂|, |λ_n|)`.
    pub lambda: f64,
    /// Second-largest eigenvalue (signed).
    pub lambda_2: f64,
    /// Smallest eigenvalue (signed).
    pub lambda_min: f64,
    /// Which solver produced the numbers.
    pub method: SpectralMethod,
}

impl Spectrum {
    /// The eigenvalue gap `1 − λ`.
    pub fn gap(&self) -> f64 {
        1.0 - self.lambda
    }

    /// The optimal SOS relaxation parameter for this spectrum.
    pub fn beta_opt(&self) -> f64 {
        beta_opt(self.lambda)
    }
}

/// `β_opt = 2 / (1 + √(1 − λ²))` (Muthukrishnan et al.; paper Section II).
///
/// # Panics
///
/// Panics unless `0 ≤ λ < 1`.
pub fn beta_opt(lambda: f64) -> f64 {
    assert!(
        (0.0..1.0).contains(&lambda),
        "beta_opt requires 0 <= lambda < 1, got {lambda}"
    );
    2.0 / (1.0 + (1.0 - lambda * lambda).sqrt())
}

/// Computes the spectrum of `M = I − L·S⁻¹` for the given network.
///
/// # Panics
///
/// Panics if the graph is disconnected (λ = 1: diffusion cannot balance
/// across components and `β_opt` is undefined), if it has fewer than two
/// nodes, or if `speeds.len() != graph.node_count()`.
pub fn analyze(graph: &Graph, speeds: &Speeds) -> Spectrum {
    assert!(
        graph.node_count() >= 2,
        "spectral analysis needs at least two nodes"
    );
    assert!(
        graph.is_connected(),
        "spectral analysis requires a connected graph"
    );
    if speeds.is_unit() {
        match graph.kind() {
            GraphKind::Torus(dims) if dims.iter().all(|&d| d >= 3) => {
                return torus_spectrum(dims);
            }
            GraphKind::Hypercube(dim) => return hypercube_spectrum(*dim),
            GraphKind::Cycle => return cycle_spectrum(graph.node_count()),
            GraphKind::Complete => {
                return Spectrum {
                    lambda: 0.0,
                    lambda_2: 0.0,
                    lambda_min: 0.0,
                    method: SpectralMethod::AnalyticComplete,
                };
            }
            _ => {}
        }
    }
    if graph.node_count() <= DENSE_LIMIT {
        dense_spectrum(graph, speeds)
    } else {
        lanczos_spectrum(graph, speeds)
    }
}

/// Spectrum of a k-dimensional torus (all sides ≥ 3, homogeneous model).
///
/// Degree is `2k`, `α = 1/(2k+1)`, and the Laplacian eigenvalues separate
/// per axis: `ℓ(p) = Σ_axis (2 − 2cos(2π·p_axis/len_axis))`.
pub fn torus_spectrum(dims: &[u32]) -> Spectrum {
    assert!(dims.iter().all(|&d| d >= 3));
    let k = dims.len() as f64;
    let alpha = 1.0 / (2.0 * k + 1.0);
    // Smallest non-zero Laplacian eigenvalue: one axis at mode 1 (pick the
    // longest side), the rest at 0.
    let min_nonzero = dims
        .iter()
        .map(|&len| 2.0 - 2.0 * (2.0 * PI / len as f64).cos())
        .fold(f64::INFINITY, f64::min);
    // Largest Laplacian eigenvalue: every axis at its extreme mode.
    let max_l: f64 = dims
        .iter()
        .map(|&len| {
            let p = len / 2; // integer mode with angle closest to π
            2.0 - 2.0 * (2.0 * PI * p as f64 / len as f64).cos()
        })
        .sum();
    let lambda_2 = 1.0 - alpha * min_nonzero;
    let lambda_min = 1.0 - alpha * max_l;
    Spectrum {
        lambda: lambda_2.abs().max(lambda_min.abs()),
        lambda_2,
        lambda_min,
        method: SpectralMethod::AnalyticTorus,
    }
}

/// Spectrum of the `dim`-dimensional hypercube (homogeneous model):
/// eigenvalues `1 − 2j/(dim+1)`, `j = 0..dim`.
pub fn hypercube_spectrum(dim: u32) -> Spectrum {
    assert!(dim >= 1);
    let d = dim as f64;
    let lambda_2 = 1.0 - 2.0 / (d + 1.0);
    let lambda_min = 1.0 - 2.0 * d / (d + 1.0);
    Spectrum {
        lambda: lambda_2.abs().max(lambda_min.abs()),
        lambda_2,
        lambda_min,
        method: SpectralMethod::AnalyticHypercube,
    }
}

/// Spectrum of the cycle on `n ≥ 3` nodes (homogeneous model):
/// eigenvalues `1 − (2/3)(1 − cos(2πp/n))`.
pub fn cycle_spectrum(n: usize) -> Spectrum {
    assert!(n >= 3);
    let lambda_2 = 1.0 - 2.0 / 3.0 * (1.0 - (2.0 * PI / n as f64).cos());
    let p = n / 2;
    let lambda_min = 1.0 - 2.0 / 3.0 * (1.0 - (2.0 * PI * p as f64 / n as f64).cos());
    Spectrum {
        lambda: lambda_2.abs().max(lambda_min.abs()),
        lambda_2,
        lambda_min,
        method: SpectralMethod::AnalyticCycle,
    }
}

/// Dense-Jacobi spectrum of an arbitrary small network.
pub fn dense_spectrum(graph: &Graph, speeds: &Speeds) -> Spectrum {
    let op = DiffusionOperator::new(graph, speeds);
    let b = op.to_dense_symmetrized();
    let eig = jacobi::eigen_symmetric(&b);
    // values are sorted descending; values[0] == 1 is the principal one.
    let lambda_2 = eig.values[1];
    let lambda_min = *eig.values.last().expect("n >= 2");
    Spectrum {
        lambda: lambda_2.abs().max(lambda_min.abs()),
        lambda_2,
        lambda_min,
        method: SpectralMethod::DenseJacobi,
    }
}

/// Lanczos iteration cap. Extreme Ritz values converge in about
/// `1/√gap` steps: 150–270 on 4096-node random graphs and grids, 700 on
/// a 200×200 grid (gap 5e-5), 1800 on an 1800-node path (gap 1e-6).
const LANCZOS_MAX_STEPS: usize = 10_000;
/// Steps between two looks at the tridiagonal's extreme eigenvalues.
const LANCZOS_CHECK_EVERY: usize = 10;
/// Both extreme Ritz values have settled once neither moved by more than
/// this over one check interval.
const LANCZOS_SETTLED: f64 = 1e-13;
/// A residual norm `β_{k+1}` at or below this means the Krylov space is
/// exhausted: it is invariant, and its Ritz values are eigenvalues.
const LANCZOS_EXHAUSTED: f64 = 1e-12;

/// Lanczos spectrum of a large network: `λ₂` and `λ_min` of
/// `B = S^{-1/2}·M·S^{1/2}` from one Krylov run (see [`lanczos_extremes`])
/// with the principal direction `√s/‖√s‖` deflated.
///
/// # Panics
///
/// Panics if the graph has fewer than two nodes.
pub fn lanczos_spectrum(graph: &Graph, speeds: &Speeds) -> Spectrum {
    let op = DiffusionOperator::new(graph, speeds);
    let principal = op.principal_symmetrized_eigenvector();
    let (lambda_min, lambda_2) =
        lanczos_extremes(op.len(), |x, y| op.apply_symmetrized(x, y), &principal);
    Spectrum {
        lambda: lambda_2.abs().max(lambda_min.abs()),
        lambda_2,
        lambda_min,
        method: SpectralMethod::Lanczos,
    }
}

/// The smallest and largest eigenvalue `(min, max)` of the symmetric
/// operator `apply` (of norm about 1) restricted to the orthogonal
/// complement of the unit vector `deflate`.
///
/// Plain three-term Lanczos recurrence (Golub & Van Loan, *Matrix
/// Computations* §10.1) from a fixed-seed random start vector: only the
/// last two Lanczos vectors and the tridiagonal `(α, β)` are kept, so the
/// extra memory is `O(n + steps)`. Without full reorthogonalization,
/// converged Ritz values reappear as ghost copies, but the extreme ones do
/// not move (Paige). Every new vector is reorthogonalized against
/// `deflate`; otherwise rounding lets that eigenvalue back in. The
/// extremes of the tridiagonal are read by Sturm-count bisection every
/// 10 steps; the run stops once both settled (moved by at most 1e-13),
/// the Krylov space is exhausted, or after 10 000 steps. Ritz
/// values lie inside the spectrum, so a run stopped early under-reports
/// `max` and over-reports `min`.
///
/// # Panics
///
/// Panics if the orthogonal complement of `deflate` is empty (`n < 2`).
pub fn lanczos_extremes<F>(n: usize, mut apply: F, deflate: &[f64]) -> (f64, f64)
where
    F: FnMut(&[f64], &mut [f64]),
{
    assert!(n >= 2, "Lanczos needs a non-trivial deflated space");
    let mut rng = StdRng::seed_from_u64(0x5eed);
    let mut v: Vec<f64> = (0..n).map(|_| rng.random_range(-1.0..1.0)).collect();
    orthogonalize_against(&mut v, deflate);
    normalize(&mut v);
    let mut prev = vec![0.0; n];
    let mut w = vec![0.0; n];
    let (mut alphas, mut betas) = (Vec::new(), Vec::<f64>::new());
    let mut extremes = (f64::NAN, f64::NAN);
    for step in 1..=LANCZOS_MAX_STEPS {
        apply(&v, &mut w);
        axpy(-betas.last().copied().unwrap_or(0.0), &prev, &mut w);
        let alpha = dot(&w, &v);
        axpy(-alpha, &v, &mut w);
        orthogonalize_against(&mut w, deflate);
        alphas.push(alpha);
        let beta = normalize(&mut w);
        let exhausted = beta <= LANCZOS_EXHAUSTED;
        if exhausted || step % LANCZOS_CHECK_EVERY == 0 || step == LANCZOS_MAX_STEPS {
            let now = tridiagonal_extremes(&alphas, &betas);
            let settled = (now.0 - extremes.0).abs() <= LANCZOS_SETTLED
                && (now.1 - extremes.1).abs() <= LANCZOS_SETTLED;
            extremes = now;
            if exhausted || settled {
                break;
            }
        }
        betas.push(beta);
        std::mem::swap(&mut prev, &mut v);
        std::mem::swap(&mut v, &mut w);
    }
    extremes
}

/// The smallest and largest eigenvalue `(min, max)` of the symmetric
/// tridiagonal matrix with diagonal `a` and off-diagonal `b`
/// (`b.len() + 1 == a.len()`), by Sturm-count bisection inside the
/// Gershgorin interval.
fn tridiagonal_extremes(a: &[f64], b: &[f64]) -> (f64, f64) {
    let radius = |i: usize| {
        let left = if i > 0 { b[i - 1].abs() } else { 0.0 };
        left + b.get(i).map_or(0.0, |x| x.abs())
    };
    let lo = (0..a.len())
        .map(|i| a[i] - radius(i))
        .fold(f64::INFINITY, f64::min)
        - 1.0;
    let hi = (0..a.len())
        .map(|i| a[i] + radius(i))
        .fold(f64::NEG_INFINITY, f64::max)
        + 1.0;
    // Eigenvalues below `x`: the negative pivots of the LDLᵀ factors of
    // `T − x·I` (a zero pivot is nudged below zero).
    let below = |x: f64| {
        let mut d = 1.0;
        let mut count = 0;
        for (i, &ai) in a.iter().enumerate() {
            let coupling = if i > 0 { b[i - 1] * b[i - 1] / d } else { 0.0 };
            d = ai - x - coupling;
            if d == 0.0 {
                d = -f64::MIN_POSITIVE;
            }
            if d < 0.0 {
                count += 1;
            }
        }
        count
    };
    // The `k`-th smallest eigenvalue lies in `(lo, hi]` while
    // `below(lo) <= k < below(hi)`; 64 halvings reach full precision.
    let kth = |k: usize| {
        let (mut lo, mut hi) = (lo, hi);
        for _ in 0..64 {
            let mid = 0.5 * (lo + hi);
            if below(mid) > k {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi
    };
    (kth(0), kth(a.len() - 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sodiff_graph::generators;

    /// Table I of the paper: β for the 1000×1000 torus. The paper's values
    /// come from their numerical solver; our closed form agrees to ~2e-7,
    /// which is the precision of the published digits.
    #[test]
    fn table1_torus_1000() {
        let s = torus_spectrum(&[1000, 1000]);
        let beta = s.beta_opt();
        assert!(
            (beta - 1.9920836447).abs() < 5e-7,
            "beta {beta} != paper value 1.9920836447"
        );
    }

    /// Table I: β for the 100×100 torus (see `table1_torus_1000` on the
    /// tolerance).
    #[test]
    fn table1_torus_100() {
        let beta = torus_spectrum(&[100, 100]).beta_opt();
        assert!(
            (beta - 1.9235874877).abs() < 1e-7,
            "beta {beta} != paper value 1.9235874877"
        );
    }

    /// Table I: β for the 2^20 hypercube.
    #[test]
    fn table1_hypercube_20() {
        let beta = hypercube_spectrum(20).beta_opt();
        assert!(
            (beta - 1.4026054847).abs() < 1e-9,
            "beta {beta} != paper value 1.4026054847"
        );
    }

    #[test]
    fn beta_opt_bounds() {
        assert_eq!(beta_opt(0.0), 1.0);
        assert!(beta_opt(0.999999) < 2.0);
        let betas: Vec<f64> = [0.1, 0.5, 0.9, 0.99].iter().map(|&l| beta_opt(l)).collect();
        assert!(betas.windows(2).all(|w| w[0] < w[1]), "beta_opt increases");
    }

    #[test]
    #[should_panic(expected = "beta_opt requires")]
    fn beta_opt_rejects_one() {
        beta_opt(1.0);
    }

    #[test]
    fn analytic_matches_dense_for_torus() {
        let g = generators::torus2d(4, 5);
        let s = Speeds::uniform(20);
        let analytic = analyze(&g, &s);
        assert_eq!(analytic.method, SpectralMethod::AnalyticTorus);
        let dense = dense_spectrum(&g, &s);
        assert!((analytic.lambda_2 - dense.lambda_2).abs() < 1e-9);
        assert!((analytic.lambda_min - dense.lambda_min).abs() < 1e-9);
    }

    #[test]
    fn analytic_matches_dense_for_hypercube() {
        let g = generators::hypercube(4);
        let s = Speeds::uniform(16);
        let a = analyze(&g, &s);
        assert_eq!(a.method, SpectralMethod::AnalyticHypercube);
        let d = dense_spectrum(&g, &s);
        assert!((a.lambda_2 - d.lambda_2).abs() < 1e-9);
        assert!((a.lambda_min - d.lambda_min).abs() < 1e-9);
    }

    #[test]
    fn analytic_matches_dense_for_cycle() {
        let g = generators::cycle(9);
        let s = Speeds::uniform(9);
        let a = analyze(&g, &s);
        assert_eq!(a.method, SpectralMethod::AnalyticCycle);
        let d = dense_spectrum(&g, &s);
        assert!((a.lambda_2 - d.lambda_2).abs() < 1e-9);
        assert!((a.lambda_min - d.lambda_min).abs() < 1e-9);
    }

    #[test]
    fn complete_graph_lambda_zero() {
        let g = generators::complete(8);
        let s = Speeds::uniform(8);
        let a = analyze(&g, &s);
        assert_eq!(a.lambda, 0.0);
        let d = dense_spectrum(&g, &s);
        assert!(d.lambda.abs() < 1e-10);
    }

    /// Asserts that Lanczos reproduces the dense spectrum to 1e-9.
    fn assert_lanczos_matches_dense(g: &Graph, s: &Speeds) {
        let d = dense_spectrum(g, s);
        let l = lanczos_spectrum(g, s);
        assert_eq!(l.method, SpectralMethod::Lanczos);
        assert!(
            (d.lambda_2 - l.lambda_2).abs() <= 1e-9,
            "lambda_2: dense {} vs Lanczos {}",
            d.lambda_2,
            l.lambda_2
        );
        assert!(
            (d.lambda_min - l.lambda_min).abs() <= 1e-9,
            "lambda_min: dense {} vs Lanczos {}",
            d.lambda_min,
            l.lambda_min
        );
    }

    #[test]
    fn lanczos_matches_dense_on_medium_graph() {
        let g = generators::random_regular(120, 6, 1).unwrap();
        assert_lanczos_matches_dense(&g, &Speeds::uniform(120));
    }

    /// A 24×24 grid: `λ₂` is doubly degenerate and the gap is small,
    /// the hard case for an iterative solver.
    #[test]
    fn lanczos_matches_dense_on_grid_24() {
        let g = generators::grid2d(24, 24);
        assert_lanczos_matches_dense(&g, &Speeds::uniform(576));
    }

    /// On paths of two and three nodes the deflated Krylov space is
    /// exhausted (`β_k = 0`) after one and two steps.
    #[test]
    fn lanczos_is_exact_on_tiny_graphs() {
        for n in [2, 3] {
            let g = generators::path(n);
            assert_lanczos_matches_dense(&g, &Speeds::uniform(n));
            assert_lanczos_matches_dense(&g, &Speeds::linear_ramp(n, 4.0));
        }
    }

    #[test]
    fn heterogeneous_dense_spectrum_is_real() {
        let g = generators::torus2d(4, 4);
        let s = Speeds::linear_ramp(16, 8.0);
        let spec = analyze(&g, &s);
        assert_eq!(spec.method, SpectralMethod::DenseJacobi);
        assert!(spec.lambda < 1.0);
        assert!(spec.lambda > 0.0);
        // Heterogeneous Lanczos agrees.
        assert_lanczos_matches_dense(&g, &s);
    }

    /// The second-difference matrix tridiag(−1, 2, −1) of order `n` has
    /// eigenvalues `2 − 2cos(jπ/(n+1))`, `j = 1..=n`.
    #[test]
    fn tridiagonal_extremes_of_second_difference() {
        let n = 50;
        let (lo, hi) = tridiagonal_extremes(&vec![2.0; n], &vec![-1.0; n - 1]);
        let eig = |j: f64| 2.0 - 2.0 * (j * PI / (n as f64 + 1.0)).cos();
        assert!((lo - eig(1.0)).abs() < 1e-14, "{lo}");
        assert!((hi - eig(n as f64)).abs() < 1e-14, "{hi}");
    }

    #[test]
    #[should_panic(expected = "connected")]
    fn rejects_disconnected() {
        let mut b = sodiff_graph::GraphBuilder::new(4);
        b.add_edge(0, 1).unwrap();
        b.add_edge(2, 3).unwrap();
        let g = b.build();
        analyze(&g, &Speeds::uniform(4));
    }

    #[test]
    fn small_torus_sides_fall_back_to_dense() {
        // torus2d(2, 2) degenerates to a 4-cycle whose analytic torus
        // formula does not apply; dispatch must go numeric.
        let g = generators::torus2d(2, 5);
        let s = Speeds::uniform(10);
        let spec = analyze(&g, &s);
        assert_eq!(spec.method, SpectralMethod::DenseJacobi);
    }
}
