//! The named workloads: scenario text generated from the workload seed.
//!
//! Every workload is a closed loop — one process, one scenario at a time,
//! each scenario starting only after the previous one finished — on one
//! thread. Two-thread runs are too unsteady on a shared 2-core host to
//! gate on (the same run took 5.7 to 15.6 s while the hypervisor stole
//! up to 30% of the CPU), so the worker pool is measured in the traced
//! run instead, where every workload is repeated at two threads. The
//! seed changes every rounding, matching, fault, load and churn stream;
//! the problem sizes and graph instances stay fixed, so time and round
//! counts stay comparable across seeds.

/// One named workload.
pub struct Workload {
    pub name: &'static str,
    /// Scenario file text (one `ScenarioSpec` per line).
    pub text: String,
    /// The workload must stop every scenario on its balance threshold.
    pub expect_threshold: bool,
    /// Rounds over which untraced runs check the two-thread pool against
    /// the inline executor (0 for no check).
    pub thread_check_rounds: usize,
    /// Checkpoint directory the scenarios write, removed after each run.
    pub ckpt_dir: Option<String>,
}

pub const NAMES: [&str; 3] = ["paper_sweep", "torus_balance", "elastic_dynamic"];

/// Derives an independent sub-seed, so neighbouring workload seeds do
/// not produce overlapping streams.
fn sub_seed(seed: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) % 1_000_000_007
}

/// The torus time-to-balance problem. SOS with randomized rounding
/// plateaus at max − avg ≈ 17–24, so the threshold is 30. The side is
/// 192: its ~13 MB of per-round traffic still runs out of L2, and in
/// alternating runs its round time varied ±8% against ±13% at side 384,
/// whose ~50 MB per round tracks the shared host's memory traffic (its
/// median moved by 27% across ten runs).
fn torus_balance(seed: u64) -> String {
    format!(
        "name=torus_balance topology=torus2d:192:192 scheme=sos_opt mode=discrete \
         rounding=randomized seed={s} init=paper stop=balanced:30:3000\n",
        s = sub_seed(seed, 1)
    )
}

/// Seed of the sweep's random graphs and skewed speeds. It is fixed
/// because power-iteration time depends on the instance: over six seeds
/// the sweep took 7.7 to 25.5 s, which would drown every other change on
/// this workload. This instance's sweep (11.3 s) sits near their median.
const SWEEP_GRAPH_SEED: u64 = 900_016_442;

/// The paper's experiment matrix in miniature: five (topology, speeds)
/// pairs, each under two or three scheme/rounding/mode variants. The
/// fixed-length scenarios run long enough that the round loops fill about
/// a quarter of the sweep: at a tenth, their time varied by 12% between
/// runs.
fn paper_sweep(seed: u64) -> String {
    let g = SWEEP_GRAPH_SEED;
    let s = sub_seed(seed, 3);
    let cm = format!("topology=random_cm:4096:{g}");
    let rr = format!("topology=random_regular:4096:8:{g} speeds=skewed:8:2:{g}");
    let grid = "topology=grid2d:64:64";
    let torus = "topology=torus2d:128:128";
    let cube = "topology=hypercube:12";
    [
        format!("name=cm_sos_rand {cm} scheme=sos_opt rounding=randomized seed={s} stop=balanced:30:2000"),
        format!("name=cm_sos_near {cm} scheme=sos_opt rounding=nearest seed={s} stop=balanced:30:2000"),
        format!("name=cm_fos {cm} scheme=fos rounding=randomized seed={s} stop=rounds:800"),
        format!("name=rr_sos_rand {rr} scheme=sos_opt rounding=randomized seed={s} stop=balanced:30:2000"),
        format!("name=rr_sos_cont {rr} scheme=sos_opt mode=continuous stop=balanced:30:2000"),
        format!("name=rr_hybrid {rr} scheme=sos:1.7 rounding=randomized seed={s} hybrid=local_diff:20 stop=rounds:1200"),
        format!("name=grid_sos_rand {grid} scheme=sos_opt rounding=randomized seed={s} stop=balanced:30:3000"),
        format!("name=grid_sos_near {grid} scheme=sos_opt rounding=nearest seed={s} stop=balanced:30:3000"),
        format!("name=grid_fos {grid} scheme=fos rounding=randomized seed={s} stop=rounds:1600"),
        format!("name=torus_sos {torus} scheme=sos_opt rounding=randomized seed={s} stop=balanced:30:3000"),
        format!("name=torus_match {torus} scheme=matching:random:{s} rounding=randomized seed={s} stop=rounds:1600"),
        format!("name=cube_fos {cube} scheme=fos rounding=randomized seed={s} stop=balanced:30:2000"),
        format!("name=cube_match {cube} scheme=matching:random:{s} rounding=randomized seed={s} stop=rounds:800"),
    ]
    .map(|line| line + "\n")
    .concat()
}

/// Membership churn, dropped edges, Poisson load and checkpoints on a
/// torus, then random matchings with crashes on a hypercube. Churn and
/// crashes sit on different graphs: together on one torus, handoffs onto
/// crash-frozen nodes set the final max − avg, which then varied from 44
/// to 70 across seeds (29 to 33 apart). The churn is light (0.2% of
/// machines leave per epoch) for the same reason.
fn elastic_dynamic(seed: u64, ckpt_dir: &str) -> String {
    let s = sub_seed(seed, 4);
    format!(
        "name=elastic_torus topology=torus2d:256:256 scheme=sos_opt mode=discrete \
         rounding=randomized seed={s} init=equal:100 churn=flux:0.002:0.5:{c}:100 \
         faults=edgedrop:0.05:{e} load=poisson:2:{l} ckpt=every:256:{ckpt_dir} \
         stop=horizon:1024\n\
         name=elastic_cube topology=hypercube:14 scheme=matching:random:{m} mode=discrete \
         rounding=randomized seed={s} init=paper faults=crash:0.02:{f} stop=horizon:1024\n",
        c = sub_seed(seed, 5),
        f = sub_seed(seed, 6),
        e = sub_seed(seed, 7),
        l = sub_seed(seed, 8),
        m = sub_seed(seed, 9),
    )
}

/// Builds workload `name` from `seed`; `None` for an unknown name.
pub fn workload(name: &str, seed: u64) -> Option<Workload> {
    let plain = |name, text, expect_threshold, thread_check_rounds| Workload {
        name,
        text,
        expect_threshold,
        thread_check_rounds,
        ckpt_dir: None,
    };
    Some(match name {
        "paper_sweep" => plain("paper_sweep", paper_sweep(seed), false, 0),
        "torus_balance" => plain("torus_balance", torus_balance(seed), true, 64),
        "elastic_dynamic" => {
            // Relative to the working directory (the checkout root), and
            // unique per process so concurrent runs never share files.
            let dir = format!(".bench_tmp/ckpt-{}", std::process::id());
            Workload {
                name: "elastic_dynamic",
                text: elastic_dynamic(seed, &dir),
                expect_threshold: false,
                thread_check_rounds: 0,
                ckpt_dir: Some(dir),
            }
        }
        _ => return None,
    })
}
