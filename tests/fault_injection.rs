//! Fault-injection subsystem: determinism across executors, conservation
//! under churn, graceful degradation, and crash-isolated batch driving.

use proptest::prelude::*;

use sodiff::core::{Driver, ScenarioFailure, EPOCH_LEN};
use sodiff::graph::generators;
use sodiff::prelude::*;
use sodiff::ScenarioSpec;

fn faulted_sim(g: &sodiff::graph::Graph, faults: FaultSpec, threads: usize) -> Simulator<'_> {
    faulted_sim_in(g, Mode::Discrete(Rounding::nearest()), faults, threads)
}

/// [`faulted_sim`] in the given mode.
fn faulted_sim_in(
    g: &sodiff::graph::Graph,
    mode: Mode,
    faults: FaultSpec,
    threads: usize,
) -> Simulator<'_> {
    let n = g.node_count();
    let e = Experiment::on(g);
    let e = match mode {
        Mode::Continuous => e.continuous(),
        Mode::Discrete(rounding) => e.discrete(rounding),
    };
    e.sos(1.7)
        .threads(threads)
        .init(InitialLoad::point(0, (n * 100) as i64))
        .faults(faults)
        .build()
        .unwrap()
        .simulator()
}

/// Any faulted run is bit-identical sequential vs pooled across thread
/// counts, in discrete and continuous mode alike: fault masks, crash
/// schedules, shocks, and stale drops are all drawn from counter-indexed
/// streams on the control thread, so the executor cannot influence them.
#[test]
fn faulted_runs_are_bit_identical_across_executors() {
    let g = generators::torus2d(6, 6);
    let combos = [
        FaultSpec::none().with_crash(0.2, 7),
        FaultSpec::none().with_edgedrop(0.3, 11),
        FaultSpec::none().with_shock(0.2, 5),
        FaultSpec::none().with_stale(0.25, 3),
        FaultSpec::none()
            .with_crash(0.15, 1)
            .with_edgedrop(0.1, 2)
            .with_shock(0.1, 3)
            .with_stale(0.1, 4),
    ];
    let modes = [Mode::Discrete(Rounding::nearest()), Mode::Continuous];
    for (mode, faults) in modes
        .into_iter()
        .flat_map(|mode| combos.map(|faults| (mode, faults)))
    {
        let mut reference = faulted_sim_in(&g, mode, faults, 1);
        for _ in 0..48 {
            reference.step();
        }
        for threads in [2usize, 3, 5] {
            let mut sim = faulted_sim_in(&g, mode, faults, threads);
            for _ in 0..48 {
                sim.step();
            }
            // Bit patterns, so continuous loads compare exactly.
            let bits = |s: &Simulator<'_>| -> Vec<u64> {
                s.loads_to_f64().iter().map(|x| x.to_bits()).collect()
            };
            assert_eq!(
                bits(&sim),
                bits(&reference),
                "{mode:?} {faults} loads diverged at {threads} threads"
            );
            assert_eq!(
                sim.previous_flows(),
                reference.previous_flows(),
                "{mode:?} {faults} flow memory diverged at {threads} threads"
            );
            assert_eq!(
                sim.fault_events(),
                reference.fault_events(),
                "{mode:?} {faults} event counts diverged at {threads} threads"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random fault-plan × scheme combinations stay executor-independent
    /// and conserve total load every round (masked edges carry no flow,
    /// dead nodes freeze, shocks and stale drops are symmetric).
    #[test]
    fn random_fault_plans_conserve_and_match_pooled(
        channels in 1u8..16,
        probs in (0.0f64..0.4, 0.0f64..0.4, 0.0f64..0.3, 0.0f64..0.4),
        seeds in (0u64..100, 0u64..100, 0u64..100, 0u64..100),
        sos in 0u8..2,
        threads in 2usize..5,
    ) {
        // `channels` is a bitmask picking a nonempty subset of the four
        // fault kinds, so every combination (including all-on) is drawn.
        let mut faults = FaultSpec::none();
        if channels & 1 != 0 { faults = faults.with_crash(probs.0, seeds.0); }
        if channels & 2 != 0 { faults = faults.with_edgedrop(probs.1, seeds.1); }
        if channels & 4 != 0 { faults = faults.with_shock(probs.2, seeds.2); }
        if channels & 8 != 0 { faults = faults.with_stale(probs.3, seeds.3); }
        let sos = sos == 1;
        let g = generators::torus2d(5, 5);
        let build = |threads: usize| {
            let e = Experiment::on(&g).discrete(Rounding::randomized(9));
            let e = if sos { e.sos(1.6) } else { e.fos() };
            e.threads(threads)
                .init(InitialLoad::point(0, 2500))
                .faults(faults)
                .build()
                .unwrap()
                .simulator()
        };
        let mut seq = build(1);
        let mut pooled = build(threads);
        for _ in 0..40 {
            seq.step();
            pooled.step();
            prop_assert_eq!(seq.total_load(), 2500.0, "sequential run leaked load");
            prop_assert_eq!(seq.loads_i64().unwrap(), pooled.loads_i64().unwrap());
        }
        prop_assert_eq!(seq.previous_flows(), pooled.previous_flows());
        prop_assert_eq!(seq.fault_events(), pooled.fault_events());
    }
}

/// Within an epoch, crashed nodes are frozen exactly as
/// [`FaultSpec::live_nodes`] predicts: their loads do not move between
/// churn events (epoch boundaries), and live-node totals are conserved
/// between them too.
#[test]
fn crash_churn_freezes_dead_nodes_between_epochs() {
    let g = generators::torus2d(6, 6);
    let n = g.node_count();
    let faults = FaultSpec::none().with_crash(0.25, 13);
    let mut sim = faulted_sim(&g, faults, 1);
    let epochs = 4u64;
    let mut saw_dead_node = false;
    for epoch in 0..epochs {
        let live = faults.live_nodes(epoch * EPOCH_LEN, n);
        let at_epoch_start = sim.loads_i64().unwrap().to_vec();
        let live_total: i64 = (0..n).filter(|&u| live[u]).map(|u| at_epoch_start[u]).sum();
        for _ in 0..EPOCH_LEN {
            sim.step();
            let now = sim.loads_i64().unwrap();
            for u in 0..n {
                if !live[u] {
                    saw_dead_node = true;
                    assert_eq!(
                        now[u], at_epoch_start[u],
                        "dead node {u} moved load mid-epoch {epoch}"
                    );
                }
            }
            let live_now: i64 = (0..n).filter(|&u| live[u]).map(|u| now[u]).sum();
            assert_eq!(live_now, live_total, "live total drifted in epoch {epoch}");
        }
    }
    assert!(
        saw_dead_node,
        "seed 13 @ p=0.25 should crash at least one node"
    );
    assert!(sim.fault_events().crashes > 0);
}

/// The divergence watchdog notices a fault-driven deviation burst and
/// degrades SOS to FOS through the ordinary hybrid switching machinery;
/// the clean twin of the same experiment stays undegraded.
#[test]
fn watchdog_degrades_sos_to_fos_under_shocks() {
    let g = generators::cycle(16);
    let run = |faults: FaultSpec| {
        Experiment::on(&g)
            .discrete(Rounding::nearest())
            .sos(1.9)
            .init(InitialLoad::EqualPerNode(1000))
            .faults(faults)
            .stop(StopCondition::MaxRounds(400))
            .build()
            .unwrap()
            .run()
    };
    let clean = run(FaultSpec::none());
    assert!(!clean.degraded, "clean run must not degrade");
    assert_eq!(clean.faults, FaultEvents::default());
    assert_eq!(clean.switch_round, None);

    // Starting balanced, the first load shock (post-watchdog-warmup) is a
    // deviation burst orders of magnitude above the window floor.
    let shocked = run(FaultSpec::none().with_shock(0.02, 40));
    assert!(shocked.faults.shocks > 0, "shock channel never fired");
    assert!(shocked.degraded, "watchdog missed the deviation burst");
    assert!(
        shocked.switch_round.is_some(),
        "degradation must fall back SOS→FOS"
    );
}

/// A batch containing a panicking scenario completes the rest and
/// reports the failure in input order — on both the sequential and the
/// concurrent driver.
#[test]
fn batch_survives_panicking_scenario() {
    let specs = ScenarioSpec::parse_many(
        "name=a topology=cycle:12 seed=1 stop=rounds:10\n\
         name=bomb topology=cycle:12 seed=2 stop=rounds:10\n\
         name=b topology=torus2d:4:4 seed=3 stop=rounds:10\n",
    )
    .unwrap();
    for driver in [Driver::new(), Driver::concurrent(3).unwrap()] {
        let batch = driver.run_batch_with(&specs, |spec| {
            if spec.name == "bomb" {
                panic!("simulated mid-run crash");
            }
            driver.run_spec(spec)
        });
        assert_eq!(batch.scenarios.len(), 2, "surviving scenarios completed");
        assert_eq!(batch.errors.len(), 1);
        let err = &batch.errors[0];
        assert_eq!((err.index, err.line), (1, Some(2)));
        assert!(matches!(&err.error, ScenarioFailure::Panicked(msg) if msg.contains("crash")));
    }
}

/// `sos_opt` on a disconnected graph (mean degree ≈ 1) is a typed build
/// failure, attempted once: a deterministic error is not retried as if it
/// were a crash.
#[test]
fn sos_opt_on_a_disconnected_graph_fails_typed_without_retries() {
    let specs = ScenarioSpec::parse_many(
        "name=sparse topology=erdos_renyi:2000:0.0005:3 scheme=sos_opt stop=rounds:5",
    )
    .unwrap();
    let batch = Driver::new().retries(3).run_batch(&specs);
    assert!(batch.scenarios.is_empty());
    assert_eq!(batch.errors.len(), 1);
    let err = &batch.errors[0];
    assert_eq!(err.attempts, 1, "a build error must not be retried");
    assert!(
        matches!(
            &err.error,
            ScenarioFailure::Build(BuildError::Scenario { source, .. })
                if matches!(**source, BuildError::Disconnected(_))
        ),
        "expected a typed Disconnected build error, got {:?}",
        err.error
    );
}

/// `sos_opt` on a one-node graph has no second eigenvalue: a typed build
/// failure, attempted once, not a panic in the spectral analysis.
#[test]
fn sos_opt_on_a_one_node_graph_fails_typed_without_retries() {
    for topology in ["grid2d:1:1", "complete:1", "hypercube:0"] {
        let specs = ScenarioSpec::parse_many(&format!(
            "name=single topology={topology} scheme=sos_opt stop=rounds:5"
        ))
        .unwrap();
        let batch = Driver::new().retries(3).run_batch(&specs);
        assert!(batch.scenarios.is_empty(), "{topology}");
        assert_eq!(batch.errors.len(), 1, "{topology}");
        let err = &batch.errors[0];
        assert_eq!(
            err.attempts, 1,
            "{topology}: a build error must not be retried"
        );
        assert!(
            matches!(
                &err.error,
                ScenarioFailure::Build(BuildError::Scenario { source, .. })
                    if matches!(**source, BuildError::TooFewNodes(1))
            ),
            "{topology}: expected a typed TooFewNodes build error, got {:?}",
            err.error
        );
    }
}

/// A run that completes with non-finite loads is reported as
/// [`ScenarioFailure::Diverged`], not returned as a success.
#[test]
fn non_finite_result_is_reported_as_diverged() {
    let specs = ScenarioSpec::parse_many("name=nan topology=cycle:8 seed=1 stop=rounds:5").unwrap();
    let driver = Driver::new();
    let batch = driver.run_batch_with(&specs, |spec| {
        let mut report = driver.run_spec(spec)?;
        report.report.final_metrics.max_minus_avg = f64::NAN;
        Ok(report)
    });
    assert!(batch.scenarios.is_empty());
    assert_eq!(batch.errors.len(), 1);
    assert!(matches!(
        &batch.errors[0].error,
        ScenarioFailure::Diverged(_)
    ));
}

/// Hostile scenario inputs surface as typed errors — parse errors with
/// context, build errors collected per scenario — never as panics.
#[test]
fn hostile_scenarios_fail_typed_never_panic() {
    // Rejected at parse time, with the offending key in the message.
    for (text, needle) in [
        ("topology=cycle:8 faults=crash:1.5:0", "in faults"),
        ("topology=cycle:8 faults=shock:nan:0", "in faults"),
        ("topology=cycle:8 faults=crash:0.1", "in faults"),
        ("topology=cycle:8 faults=meteor:0.1:0", "in faults"),
        (
            "topology=cycle:8 faults=crash:0.1:1+crash:0.2:2",
            "in faults",
        ),
        ("topology=cycle:8 stop=plateau:0:10", "invalid stop"),
    ] {
        let err = text.parse::<ScenarioSpec>().unwrap_err();
        assert!(
            err.message.contains(needle),
            "'{text}' -> '{}'",
            err.message
        );
    }
    // Parse fine, fail at build: collected per scenario, in input order.
    let specs = ScenarioSpec::parse_many(
        "name=noseed topology=cycle:8 rounding=randomized\n\
         name=badspeeds topology=cycle:8 seed=1 speeds=two_class:99:2\n\
         name=badinit topology=cycle:8 seed=1 init=point:99:10\n",
    )
    .unwrap();
    let batch = Driver::new().run_batch(&specs);
    assert!(batch.scenarios.is_empty());
    let kinds: Vec<(usize, bool)> = batch
        .errors
        .iter()
        .map(|e| (e.index, matches!(e.error, ScenarioFailure::Build(_))))
        .collect();
    assert_eq!(kinds, [(0, true), (1, true), (2, true)]);
    // Out-of-range probabilities set programmatically (parse already
    // rejects them in text form) are a typed build error, not a panic.
    let g = generators::cycle(8);
    let err = Experiment::on(&g)
        .discrete(Rounding::nearest())
        .faults(FaultSpec::none().with_crash(1.5, 0))
        .build()
        .unwrap_err();
    assert!(matches!(err, BuildError::InvalidFaults(_)), "{err:?}");
}

/// Fault scenarios flow end to end through the text pipeline: parse,
/// batch-drive, report churn counts.
#[test]
fn fault_scenarios_run_through_the_driver() {
    let specs = ScenarioSpec::parse_many(
        "name=churn topology=torus2d:6:6 scheme=sos:1.7 rounding=nearest \
         faults=crash:0.2:7+shock:0.1:3 stop=rounds:48\n\
         name=clean topology=torus2d:6:6 scheme=sos:1.7 rounding=nearest stop=rounds:48\n",
    )
    .unwrap();
    let batch = Driver::new().run_batch(&specs);
    assert!(batch.errors.is_empty(), "{:?}", batch.errors);
    let churn = &batch.scenarios[0].report;
    let clean = &batch.scenarios[1].report;
    assert!(churn.faults.churn_events() > 0, "faults never fired");
    assert_eq!(clean.faults, FaultEvents::default());
    // The faulted spec round-trips with its faults= key intact.
    let reparsed: ScenarioSpec = batch.scenarios[0].spec.parse().unwrap();
    assert_eq!(reparsed.faults, specs[0].faults);
}
