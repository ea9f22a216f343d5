//! Property-based tests of the linear-algebra substrate.

use proptest::collection::vec;
use proptest::prelude::*;

use sodiff_graph::{GraphBuilder, Speeds};
use sodiff_linalg::dense::DenseMatrix;
use sodiff_linalg::diffusion::DiffusionOperator;
use sodiff_linalg::fourier::TorusModes;
use sodiff_linalg::jacobi::eigen_symmetric;
use sodiff_linalg::spectral::{dense_spectrum, lanczos_extremes, lanczos_spectrum};
use sodiff_linalg::vector;

fn random_symmetric(n: usize) -> impl Strategy<Value = DenseMatrix> {
    vec(-1.0f64..1.0, n * (n + 1) / 2).prop_map(move |upper| {
        let mut m = DenseMatrix::zeros(n, n);
        let mut it = upper.into_iter();
        for i in 0..n {
            for j in i..n {
                let x = it.next().unwrap();
                m[(i, j)] = x;
                m[(j, i)] = x;
            }
        }
        m
    })
}

/// Random connected graph (spanning tree + extras) on 2 to `max_n` nodes
/// with random speeds.
fn network(max_n: usize) -> impl Strategy<Value = (sodiff_graph::Graph, Speeds)> {
    (2usize..=max_n, any::<u64>(), 1.0f64..8.0).prop_map(|(n, seed, smax)| {
        let mut b = GraphBuilder::new(n);
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for i in 1..n as u32 {
            b.add_edge((next() % i as u64) as u32, i).unwrap();
        }
        for _ in 0..n / 2 {
            let u = (next() % n as u64) as u32;
            let v = (next() % n as u64) as u32;
            b.add_edge_dedup(u, v);
        }
        let speeds = Speeds::new(
            (0..n)
                .map(|_| 1.0 + (smax - 1.0) * (next() % 1000) as f64 / 1000.0)
                .collect(),
        );
        (b.build(), speeds)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Jacobi reconstructs A·v = λ·v and preserves the trace.
    #[test]
    fn jacobi_eigenpairs_are_valid(a in random_symmetric(8)) {
        let e = eigen_symmetric(&a);
        let trace: f64 = (0..8).map(|i| a[(i, i)]).sum();
        let sum: f64 = e.values.iter().sum();
        prop_assert!((trace - sum).abs() < 1e-8);
        for k in 0..8 {
            let v = e.vector(k);
            let mut av = vec![0.0; 8];
            a.matvec(&v, &mut av);
            for i in 0..8 {
                prop_assert!((av[i] - e.values[k] * v[i]).abs() < 1e-8);
            }
        }
    }

    /// Deflated Lanczos agrees with Jacobi on the extremes of the
    /// remaining spectrum of a random symmetric matrix.
    #[test]
    fn lanczos_matches_jacobi(a in random_symmetric(6)) {
        let e = eigen_symmetric(&a);
        let (lo, hi) = lanczos_extremes(6, |x, y| a.matvec(x, y), &e.vector(0));
        prop_assert!((hi - e.values[1]).abs() < 1e-9, "Lanczos {hi} vs jacobi {}", e.values[1]);
        prop_assert!((lo - e.values[5]).abs() < 1e-9, "Lanczos {lo} vs jacobi {}", e.values[5]);
    }

    /// The diffusion matrix always conserves load (column sums 1) and has
    /// spectral radius ≤ 1 for any network and speeds.
    #[test]
    fn diffusion_matrix_structure((g, speeds) in network(16)) {
        let n = g.node_count();
        let op = DiffusionOperator::new(&g, &speeds);
        let m = op.to_dense();
        for j in 0..n {
            let col: f64 = (0..n).map(|i| m[(i, j)]).sum();
            prop_assert!((col - 1.0).abs() < 1e-10, "column {j} sums to {col}");
        }
        // All eigenvalues of B in [-1, 1].
        let b = op.to_dense_symmetrized();
        let e = eigen_symmetric(&b);
        prop_assert!((e.values[0] - 1.0).abs() < 1e-8, "top eigenvalue {}", e.values[0]);
        prop_assert!(*e.values.last().unwrap() >= -1.0 - 1e-8);
    }

    /// Matrix-free apply matches the dense materialization.
    #[test]
    fn apply_matches_dense((g, speeds) in network(16), raw in vec(-50.0f64..50.0, 16)) {
        let n = g.node_count();
        let x: Vec<f64> = raw.into_iter().take(n).chain(std::iter::repeat(0.0)).take(n).collect();
        let op = DiffusionOperator::new(&g, &speeds);
        let mut fast = vec![0.0; n];
        op.apply(&x, &mut fast);
        let mut dense = vec![0.0; n];
        op.to_dense().matvec(&x, &mut dense);
        for (a, b) in fast.iter().zip(&dense) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    /// Parseval: the DFT coefficients preserve the energy of any torus
    /// load grid.
    #[test]
    fn fourier_parseval(
        rows in 3usize..8,
        cols in 3usize..8,
        raw in vec(-100.0f64..100.0, 64),
    ) {
        let loads: Vec<f64> = raw.into_iter().cycle().take(rows * cols).collect();
        let tm = TorusModes::new(rows, cols);
        let coeffs = tm.coefficients(&loads);
        let energy: f64 = coeffs.iter().map(|c| c.amplitude * c.amplitude).sum();
        let direct = vector::dot(&loads, &loads);
        prop_assert!(
            (energy - direct).abs() < 1e-6 * direct.max(1.0),
            "parseval: {energy} vs {direct}"
        );
    }

    /// The constant grid projects entirely onto the μ = 1 mode.
    #[test]
    fn fourier_constant_grid(rows in 3usize..8, cols in 3usize..8, c in -50.0f64..50.0) {
        let tm = TorusModes::new(rows, cols);
        let n = rows * cols;
        let coeffs = tm.coefficients(&vec![c; n]);
        prop_assert!((coeffs[0].amplitude - c.abs() * (n as f64).sqrt()).abs() < 1e-7);
        for m in &coeffs[1..] {
            prop_assert!(m.amplitude < 1e-7);
        }
    }

    /// vector helpers: Cauchy-Schwarz and normalization.
    #[test]
    fn vector_helpers(a in vec(-10.0f64..10.0, 8), b in vec(-10.0f64..10.0, 8)) {
        let dot = vector::dot(&a, &b);
        prop_assert!(dot.abs() <= vector::norm2(&a) * vector::norm2(&b) + 1e-9);
        let mut c = a.clone();
        let norm = vector::normalize(&mut c);
        if norm > 0.0 {
            prop_assert!((vector::norm2(&c) - 1.0).abs() < 1e-9);
            let unit = c.clone();
            vector::orthogonalize_against(&mut c, &unit);
            prop_assert!(vector::norm2(&c) < 1e-9);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Lanczos reproduces the dense `λ₂` and `λ_min` of random connected
    /// heterogeneous networks on up to 200 nodes.
    #[test]
    fn lanczos_matches_dense_on_random_networks((g, speeds) in network(200)) {
        let d = dense_spectrum(&g, &speeds);
        let l = lanczos_spectrum(&g, &speeds);
        prop_assert!(
            (d.lambda_2 - l.lambda_2).abs() <= 1e-9,
            "n = {}: lambda_2 dense {} vs Lanczos {}", g.node_count(), d.lambda_2, l.lambda_2
        );
        prop_assert!(
            (d.lambda_min - l.lambda_min).abs() <= 1e-9,
            "n = {}: lambda_min dense {} vs Lanczos {}", g.node_count(), d.lambda_min, l.lambda_min
        );
    }
}
