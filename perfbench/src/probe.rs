//! Kernel phase probe: the round's phases timed one at a time through the
//! `#[doc(hidden)]` hot-path surface, on a workload's own graph and a
//! state captured mid-run, interleaved with the engine's own rounds from
//! the same state so both are timed under the same host conditions.

use std::hint::black_box;
use std::time::{Duration, Instant};

use sodiff_core::kernel::{self, FwScratch, KernelTables};
use sodiff_core::{matchgen, rng, FlowMemory, Simulator};
use sodiff_graph::{Graph, Speeds};

use crate::trace::Fixture;

/// Timed repetitions per phase; the median is reported.
const REPS: usize = 15;

/// Per-element phase costs in nanoseconds, plus the computed bytes one
/// round streams through them.
pub struct KernelPhases {
    pub edge_pass_ns_per_edge: f64,
    pub arc_round_ns_per_arc: f64,
    pub prev_copy_ns_per_edge: f64,
    pub apply_ns_per_node: f64,
    pub rng_fill_ns_per_node: f64,
    pub bytes_per_round: f64,
    /// Single-thread time of one round's phases (the RNG fill runs inside
    /// the arc round and is not added again).
    pub round_ns: f64,
    /// Median `Simulator::step` from the same state, inline and pooled.
    pub step_ns: f64,
    pub pool_step_ns: f64,
    /// The probe's loads equal the inline simulator's after the probe.
    pub matches_engine: bool,
}

fn median(mut v: Vec<Duration>) -> Duration {
    v.sort();
    v[v.len() / 2]
}

/// Median of `REPS` calls of `timed`, which returns the time of its
/// measured part (any reset it does first stays untimed).
fn time_phase(mut timed: impl FnMut() -> Duration) -> Duration {
    median((0..REPS).map(|_| timed()).collect())
}

/// Time of one call of `f`.
fn clock(f: impl FnOnce()) -> Duration {
    let start = Instant::now();
    f();
    start.elapsed()
}

/// Runs `REPS` rounds of the discrete SOS round with randomized rounding
/// (flow memory `Rounded`) from the captured state, phase by phase in
/// the engine's order — scatter edge pass, node-centric rounding,
/// flow-memory copy, apply — and reports each phase's median. The state
/// evolves as in the run, so every phase sees the caches the previous
/// one left, as it does inside a real round. Each probe round follows
/// one `step` of `inline` and of `pooled`, both restored to the same
/// state, so the phases and the whole round are timed side by side.
pub fn kernel_phases(
    inline: &mut Simulator<'_>,
    pooled: &mut Simulator<'_>,
    speeds: &Speeds,
    fixture: &Fixture,
    beta: f64,
    seed: u64,
) -> KernelPhases {
    let graph = inline.graph();
    let round = inline.round();
    let t = KernelTables::new(graph, speeds, true, inline.initial_total());
    let (n, m, arcs) = (t.n, t.m, graph.arc_count());
    let (mem, gain) = (beta - 1.0, beta);
    let mut loads = fixture.loads.clone();
    let mut prev = fixture.prev.clone();
    let mut arc_frac = vec![0.0; arcs];
    let mut flows = vec![0i64; m];
    let mut block_sums = vec![0.0; kernel::dev_blocks(n)];
    let mut scratch = FwScratch::new();
    let mut times = [(); 4].map(|()| Vec::with_capacity(REPS));
    let mut steps = Vec::with_capacity(REPS);
    let mut pool_steps = Vec::with_capacity(REPS);
    for k in 0..REPS as u64 {
        steps.push(clock(|| inline.step()));
        pool_steps.push(clock(|| pooled.step()));
        times[0].push(clock(|| {
            kernel::edge_pass_scatter(
                &t,
                0..m,
                mem,
                gain,
                FlowMemory::Rounded,
                |i| loads[i] as f64,
                &kernel::cells_f64(&mut arc_frac),
                &kernel::cells_i64(&mut flows),
                &kernel::cells_f64(&mut prev),
            )
        }));
        times[1].push(clock(|| {
            kernel::arc_round_streamed(
                &t,
                0..n,
                seed,
                round + k,
                &kernel::cells_f64(&mut arc_frac),
                &kernel::cells_i64(&mut flows),
                &mut scratch,
            )
        }));
        times[2].push(clock(|| {
            kernel::prev_from_flows(
                0..m,
                &kernel::cells_i64(&mut flows),
                &kernel::cells_f64(&mut prev),
            )
        }));
        times[3].push(clock(|| {
            black_box(kernel::apply_discrete(
                &t,
                0..n,
                |e| flows[e],
                &kernel::cells_i64(&mut loads),
                &kernel::cells_f64(&mut block_sums),
            ));
        }));
    }
    let [edge_pass, arc_round, prev_copy, apply] = times.map(median);
    let mut states = vec![0u64; n];
    let mut fill_round = round;
    let rng_fill = time_phase(|| {
        fill_round += 1;
        clock(|| {
            rng::fill_node_states(rng::round_key(seed, fill_round), 0, &mut states);
            black_box(states.last().copied());
        })
    });
    // Bytes each phase streams, counting every array it touches once:
    // edge pass 80 B/edge (tail, head, two coefficients, arc positions,
    // memory, two load gathers; two arc-frac and one flow store), flow
    // copy 16 B/edge, rounding 24 B/node (offsets, RNG states) + 13 B/arc
    // (frac, edge id, sign), apply 32 B/node (offsets, ideal, load
    // read/write) + 13 B/arc (edge id, sign, flow gather).
    let bytes = (m * (80 + 16) + n * (24 + 32) + arcs * (13 + 13)) as f64;
    let ns = |d: Duration| d.as_nanos() as f64;
    KernelPhases {
        edge_pass_ns_per_edge: ns(edge_pass) / m as f64,
        arc_round_ns_per_arc: ns(arc_round) / arcs as f64,
        prev_copy_ns_per_edge: ns(prev_copy) / m as f64,
        apply_ns_per_node: ns(apply) / n as f64,
        rng_fill_ns_per_node: ns(rng_fill) / n as f64,
        bytes_per_round: bytes,
        round_ns: ns(edge_pass) + ns(arc_round) + ns(prev_copy) + ns(apply),
        step_ns: ns(median(steps)),
        pool_step_ns: ns(median(pool_steps)),
        matches_engine: inline.loads_i64() == Some(&loads[..]),
    }
}

/// Per-edge cost of drawing one round's random maximal matching.
pub fn matchgen_ns_per_edge(graph: &Graph, seed: u64) -> f64 {
    let n = graph.node_count();
    let t = KernelTables::new(graph, &Speeds::uniform(n), false, 0.0);
    let uv = matchgen::edge_pairs(&t);
    let mut scratch = matchgen::MatchScratch::default();
    let mut round = 0u64;
    let d = time_phase(|| {
        round += 1;
        clock(|| {
            matchgen::fill_random_matching(seed, round, &t, &uv, &mut scratch);
            black_box(scratch.mask.last().copied());
        })
    });
    d.as_nanos() as f64 / t.m.max(1) as f64
}
