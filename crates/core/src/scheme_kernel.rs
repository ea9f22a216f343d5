//! The scheme-kernel layer: one object per simulation that owns the
//! per-round flow computation — edge pass, rounding hook, apply pass, and
//! barrier plan — for **every** balancing scheme.
//!
//! Before this layer existed, the flow computation was hard-wired through
//! the engine (sequential rounds) and the worker pool (chunked rounds):
//! adding a scheme meant re-threading its phase sequence through both by
//! hand. A [`SchemeKernel`] now captures the two orthogonal choices a
//! scheme makes, as plain enums dispatched statically:
//!
//! * [`FlowPass`] — *how* an active edge's flow is computed and rounded:
//!   the continuous pass, the fused edge-local discrete pass, or the
//!   three-phase randomized-framework pipeline. These call straight into
//!   the division-free kernels of [`crate::kernel`], so the diffusion
//!   paths keep their exact pre-refactor codegen (pinned bit-for-bit by
//!   `tests/golden_trace.rs`).
//! * [`ActivePlan`] — *which* edges are active each round: all of them
//!   (diffusion), a precomputed family of bitmasks swept round-robin
//!   (dimension exchange over the color classes of an edge coloring;
//!   matching-based balancing over maximal matchings), or a fresh random
//!   maximal matching drawn per round from a `(seed, round)`-keyed greedy
//!   order.
//! * [`crate::FaultSpec`] — *what goes wrong* each round:
//!   deterministic node crashes, per-round edge drops, load shocks, and
//!   stale-flow injection, all drawn from counter-indexed RNG streams
//!   (see the `fault` module). With `faults=none` every hot loop below
//!   takes exactly its original unperturbed path.
//! * [`crate::LoadSpec`] — *what work arrives* each round: Poisson
//!   arrivals/departures, periodic hotspot bursts, a diurnal swing, and
//!   an adversarial most-loaded-node injector (see the `load` module).
//!   With `load=none` every run takes exactly the pre-load code paths.
//! * [`crate::ChurnSpec`] — *which machines exist* each round: live
//!   topology churn over the graph's reserved node capacity, with
//!   epoch-aligned departures/(re)arrivals and conservation-exact
//!   handoff of a departing node's entire load to its active neighbors
//!   (see the `churn` module). With `churn=none` every hot loop takes
//!   exactly its pre-churn path.
//!
//! Crashes and churn meet in one membership model (the `membership`
//! module): a node takes part in an epoch iff it is crash-live and
//! churn-active, and an edge iff both endpoints take part. Once a crash
//! channel or churn is on, every plan reads the epoch's membership —
//! diffusion its edge mask, sweeps the family repaired against it, the
//! random plan its matching intersected with it — and edge drops are
//! taken out on top.
//!
//! A round has exactly one body, written once here:
//!
//! 1. [`SchemeKernel::prepare_round`] — control thread only: at an
//!    epoch boundary the crash draw, the churn transition and the
//!    membership rebuild; every round the shock and load injection; the
//!    load edits as `(node, delta)` pairs through one apply path; then
//!    the round's effective active-edge mask and stale words.
//! 2. [`SchemeKernel::run_phases`] — one participant's share of the
//!    phase sequence (edge pass, rounding, apply pass), separated by a
//!    phase sync. The worker pool runs it on every participant with
//!    `Barrier::wait` as the sync and the published mask in relaxed
//!    atomics; the one-thread executor ([`SchemeKernel::run_inline`])
//!    runs it once over every edge and node with a no-op sync and
//!    `Cell` handles (relaxed atomics would not vectorize).
//!
//! Each edge pass takes the round's coefficient tables and an
//! active-edge source: [`crate::kernel::all_edges`] (the constant `1`)
//! for an unmasked diffusion round, a bit of the published mask
//! otherwise. An inactive edge's flow is forced to zero with a branchless
//! bit test, and `x * 1.0` is exact, so the all-edges instance computes
//! the unmasked flow bit for bit. Both executors run the same kernel
//! calls in the same per-element order, so pooled results are
//! bit-identical to inline ones for every scheme — the property
//! `tests/determinism.rs` and the golden traces check.
//!
//! Pairwise schemes replace the diffusion coefficients `α_e/s` with the
//! λ-scaled harmonic-speed pair `coef_tail = λ·s_v/(s_u+s_v)`,
//! `coef_head = λ·s_u/(s_u+s_v)`, so an active edge schedules
//! `y = λ·(s_u·s_v/(s_u+s_v))·(x_u/s_u − x_v/s_v)` — exact pairwise
//! averaging at `λ = 1` under uniform speeds.
//!
//! See the "adding a scheme" walkthrough in the crate docs
//! ([`crate`]) for the end-to-end list of touch points.

use std::ops::Range;

use sodiff_graph::{matching, EdgeId, Graph, Speeds};

use crate::churn::{ChurnSpec, ChurnState};
use crate::engine::{FlowMemory, Mode};
use crate::error::BuildError;
use crate::fault::{FaultSpec, FaultState};
use crate::kernel::{self, BufF64, BufI64, FwScratch, KernelTables, LoadStats};
use crate::load::{LoadSpec, LoadState, LoadView};
use crate::matchgen::{self, mask_words, MatchScratch};
use crate::membership::Membership;
use crate::rounding::Rounding;
use crate::scheme::{MatchingStrategy, Scheme};

/// How an active edge's flow is computed and rounded (the per-mode phase
/// sequence).
#[derive(Debug, Clone, Copy)]
pub(crate) enum FlowPass {
    /// Continuous mode: the scheduled flow is the flow.
    Continuous,
    /// Discrete mode with an edge-local rounding: one fused sweep.
    EdgeLocal(Rounding),
    /// Discrete mode with the node-centric randomized framework: the
    /// streaming three-phase pipeline.
    Framework {
        /// RNG seed of the framework's per-(node, round) streams.
        seed: u64,
    },
}

/// Which edges are active each round.
pub(crate) enum ActivePlan {
    /// Every edge, every round (the diffusion schemes).
    All,
    /// Precomputed edge bitmasks swept round-robin: color classes for
    /// dimension exchange, maximal matchings for round-robin
    /// matching-based balancing. `masks[round % masks.len()]` is the
    /// round's active set.
    Sweep {
        /// The mask family.
        masks: Vec<Vec<u64>>,
        /// How the family reacts to node crashes: `true` re-covers freed
        /// live nodes after masking dead incidences out (matchings stay
        /// maximal-ish), `false` only masks out (color classes keep
        /// their one-neighbor-per-round structure).
        recover: bool,
    },
    /// A fresh random maximal matching per round (greedy over a
    /// `(seed, round)`-keyed random edge order, generated by the control
    /// thread).
    Random {
        /// Seed of the per-round matching draws.
        seed: u64,
    },
}

/// Everything a simulation's control thread needs between rounds: the
/// framework rounding scratch, the matching-generation scratch, the
/// fault, load and churn state, the epoch's membership, and the round's
/// pending load deltas.
#[derive(Default)]
pub(crate) struct RoundScratch {
    /// Participant-0 scratch of the randomized framework's rounding phase.
    pub fw: FwScratch,
    /// Random-matching generation scratch.
    pub matchgen: MatchScratch,
    /// Fault-injection state: per-round drop/stale masks and the
    /// accumulated event counters.
    pub fault: FaultState,
    /// Dynamic-workload state: the accumulated event counters and the
    /// injected-total account.
    pub load: LoadState,
    /// Topology-churn state: the active-node overlay and the accumulated
    /// event counters.
    pub churn: ChurnState,
    /// The epoch's membership: the crash-live words, the participating
    /// nodes and edges, and the repaired sweep family.
    pub membership: Membership,
    /// The load edits one planner emitted as `(node, delta)` pairs,
    /// applied and emptied before the next planner runs.
    pub deltas: Vec<(usize, f64)>,
}

impl RoundScratch {
    /// An empty scratch (buffers grow on first use and are then reused).
    pub fn new() -> Self {
        Self::default()
    }
}

/// One simulation's state handles as seen by one participant of
/// [`SchemeKernel::run_phases`]: `Cell` views on the inline executor,
/// relaxed atomics on the pool.
///
/// Generic over the handles so the compact (`mem=compact`) layout threads
/// its `i32`/`f32` storage through the *same* phase sequence the
/// full-width layout monomorphizes: the full-width instantiation keeps
/// its exact pre-compact codegen.
pub(crate) struct RoundBufs<LI, LF, P, F, A, B> {
    /// Integer loads (discrete mode; empty otherwise).
    pub loads_i: LI,
    /// Continuous loads (continuous mode; empty otherwise).
    pub loads_f: LF,
    /// Per-edge flow memory.
    pub prev: P,
    /// Arc-indexed fractional parts (framework flow pass only).
    pub arc_frac: A,
    /// Per-edge integral flows (discrete mode).
    pub flows: F,
    /// Per-[`crate::metrics::DEV_BLOCK`] squared-deviation partials
    /// written by the apply pass (one writer per block: node chunks are
    /// block-aligned), folded in block order after the round.
    pub block_sums: B,
}

/// The control thread's output of [`SchemeKernel::prepare_round`].
pub(crate) struct PreparedRound<'s> {
    /// The round's effective active-edge mask words (`None` = every edge
    /// active).
    pub mask: Option<&'s [u64]>,
    /// The round's stale-edge words (stale fault channel only).
    pub stale: Option<&'s [u64]>,
    /// Participant 0's framework rounding scratch.
    pub fw: &'s mut FwScratch,
}

/// The per-simulation scheme kernel; see the module docs above.
pub(crate) struct SchemeKernel {
    flow: FlowPass,
    plan: ActivePlan,
    /// λ-scaled pairwise coefficients (empty for diffusion, which uses
    /// the `α_e/s` tables baked into [`KernelTables`]).
    coef_tail: Vec<f64>,
    coef_head: Vec<f64>,
    /// Packed per-edge endpoints for the random-matching generator's
    /// greedy pass ([`matchgen::edge_pairs`]; empty for other plans).
    match_pairs: Vec<u64>,
    /// The fault-injection axis (`FaultSpec::none()` = unperturbed).
    pub faults: FaultSpec,
    /// The dynamic-workload axis (`LoadSpec::none()` = static load).
    pub loads: LoadSpec,
    /// The topology-churn axis (`ChurnSpec::none()` = fixed node set).
    pub churn: ChurnSpec,
}

/// Builds the edge bitmask of one active set.
fn class_mask(m: usize, edges: &[EdgeId]) -> Vec<u64> {
    let mut words = vec![0u64; mask_words(m)];
    for &e in edges {
        words[(e >> 6) as usize] |= 1u64 << (e & 63);
    }
    words
}

/// The λ-scaled harmonic-speed coefficient tables of the pairwise
/// schemes: `coef_tail[e] = λ·s_v/(s_u+s_v)`, `coef_head[e] = λ·s_u/(s_u+s_v)`,
/// so `y_e = coef_tail·x_u − coef_head·x_v = λ·(s_u·s_v/(s_u+s_v))·(x_u/s_u − x_v/s_v)`.
fn exchange_coefs(graph: &Graph, speeds: &Speeds, lambda: f64) -> (Vec<f64>, Vec<f64>) {
    let m = graph.edge_count();
    let mut coef_tail = Vec::with_capacity(m);
    let mut coef_head = Vec::with_capacity(m);
    for &(u, v) in graph.edges() {
        let su = speeds.get(u as usize);
        let sv = speeds.get(v as usize);
        coef_tail.push(lambda * sv / (su + sv));
        coef_head.push(lambda * su / (su + sv));
    }
    (coef_tail, coef_head)
}

/// The per-edge bit source of a bitset read word by word: edge `e` is in
/// the set iff bit `e % 64` of word `e / 64` is set.
fn edge_bits(words: impl Fn(usize) -> u64) -> impl Fn(usize) -> u64 {
    move |e| (words(e >> 6) >> (e & 63)) & 1
}

impl SchemeKernel {
    /// Validates `scheme` against `graph` without building anything: the
    /// builder-level check behind [`crate::ExperimentBuilder::build`].
    ///
    /// # Errors
    ///
    /// [`BuildError::InvalidBeta`] / [`BuildError::InvalidLambda`] for
    /// out-of-range parameters; [`BuildError::NoColoring`] /
    /// [`BuildError::NoMatching`] when a pairwise scheme meets an
    /// edgeless graph.
    pub fn validate(scheme: Scheme, graph: &Graph) -> Result<(), BuildError> {
        scheme.check()?;
        if graph.edge_count() == 0 {
            let why = format!("the graph has {} node(s) but no edges", graph.node_count());
            match scheme {
                Scheme::DimensionExchange { .. } => return Err(BuildError::NoColoring(why)),
                Scheme::Matching { .. } => return Err(BuildError::NoMatching(why)),
                Scheme::Fos | Scheme::Sos { .. } => {}
            }
        }
        Ok(())
    }

    /// Builds the kernel for one validated simulation.
    ///
    /// # Errors
    ///
    /// Everything [`SchemeKernel::validate`] reports.
    pub fn new(
        scheme: Scheme,
        mode: Mode,
        graph: &Graph,
        speeds: &Speeds,
        faults: FaultSpec,
        loads: LoadSpec,
        churn: ChurnSpec,
    ) -> Result<Self, BuildError> {
        Self::validate(scheme, graph)?;
        faults.check()?;
        loads.check()?;
        churn.check()?;
        let flow = match mode {
            Mode::Continuous => FlowPass::Continuous,
            Mode::Discrete(Rounding::RandomizedFramework { seed }) => FlowPass::Framework { seed },
            Mode::Discrete(rounding) => FlowPass::EdgeLocal(rounding),
        };
        let m = graph.edge_count();
        let (plan, lambda) = match scheme {
            Scheme::Fos | Scheme::Sos { .. } => (ActivePlan::All, None),
            Scheme::DimensionExchange { lambda } => {
                let coloring = matching::edge_coloring(graph);
                let masks = coloring
                    .classes()
                    .iter()
                    .map(|class| class_mask(m, class))
                    .collect();
                (
                    ActivePlan::Sweep {
                        masks,
                        recover: false,
                    },
                    Some(lambda),
                )
            }
            Scheme::Matching { lambda, strategy } => {
                let plan = match strategy {
                    MatchingStrategy::RoundRobin => {
                        let coloring = matching::edge_coloring(graph);
                        let masks = matching::maximal_matchings(graph, &coloring)
                            .iter()
                            .map(|matching| class_mask(m, matching))
                            .collect();
                        ActivePlan::Sweep {
                            masks,
                            recover: true,
                        }
                    }
                    MatchingStrategy::Random { seed } => ActivePlan::Random { seed },
                };
                (plan, Some(lambda))
            }
        };
        let (coef_tail, coef_head) = match lambda {
            Some(lambda) => exchange_coefs(graph, speeds, lambda),
            None => (Vec::new(), Vec::new()),
        };
        Ok(Self {
            flow,
            plan,
            coef_tail,
            coef_head,
            match_pairs: Vec::new(),
            faults,
            loads,
            churn,
        })
    }

    /// Builds the per-simulation matchgen endpoint table once the kernel
    /// tables exist (random-matching plan only; no-op otherwise).
    pub fn finish(&mut self, t: &KernelTables) {
        if matches!(self.plan, ActivePlan::Random { .. }) {
            self.match_pairs = matchgen::edge_pairs(t);
        }
    }

    /// Whether the flow pass needs the arc decomposition tables
    /// (`edge_arc_pos` / `arc_frac`) of the randomized framework.
    pub fn needs_arc_plan(&self) -> bool {
        matches!(self.flow, FlowPass::Framework { .. })
    }

    /// Whether a round's flow pass reads an active-edge mask: every plan
    /// but plain diffusion, and any plan once edge faults (crash or
    /// edgedrop) or churn are on. Fixed for the simulation's lifetime;
    /// [`SchemeKernel::prepare_round`] returns a mask exactly when this
    /// holds.
    pub fn masked(&self) -> bool {
        !matches!(self.plan, ActivePlan::All)
            || self.faults.has_edge_faults()
            || !self.churn.is_none()
    }

    /// The coefficient tables of the edge passes: the pairwise λ-scaled
    /// tables, or the diffusion `α_e/s` tables of [`KernelTables`].
    fn coefs<'a>(&'a self, t: &'a KernelTables) -> (&'a [f64], &'a [f64]) {
        if self.coef_tail.is_empty() {
            (&t.coef_tail, &t.coef_head)
        } else {
            (&self.coef_tail, &self.coef_head)
        }
    }

    /// The sweep family and its repair style, if the plan is a sweep.
    fn sweep_family(&self) -> Option<(&[Vec<u64>], bool)> {
        match &self.plan {
            ActivePlan::Sweep { masks, recover } => Some((masks, *recover)),
            _ => None,
        }
    }

    /// Whether rounds read the epoch's [`Membership`]: a crash channel or
    /// the churn axis is on.
    fn has_membership(&self) -> bool {
        self.faults.crash.is_some() || !self.churn.is_none()
    }

    /// Rebuilds the epoch's membership from the current crash words and
    /// churn overlay.
    fn rebuild_membership(&self, graph: &Graph, churn: &ChurnState, members: &mut Membership) {
        let active = (!self.churn.is_none()).then(|| churn.active_words());
        members.rebuild(
            graph,
            self.faults.crash.is_some(),
            active,
            self.sweep_family(),
        );
    }

    /// Re-enters `round`'s epoch after a checkpoint restore into a fresh
    /// `scratch`: the crash words are a pure per-epoch draw, so they are
    /// redrawn; the churn overlay is history-dependent, so the persisted
    /// words `active` are installed verbatim, never redrawn; the
    /// membership is rebuilt once from both. `round` is the last
    /// processed round, so the next round opens a new epoch exactly when
    /// an uninterrupted run would. The crash draw counts its events
    /// afresh; the caller then installs the snapshot's counters.
    pub(crate) fn restore_epoch(
        &self,
        graph: &Graph,
        round: u64,
        scratch: &mut RoundScratch,
        active: &[u64],
    ) {
        let RoundScratch {
            fault,
            churn,
            membership,
            ..
        } = scratch;
        if !self.has_membership() {
            return;
        }
        membership.advance(round);
        if self.faults.crash.is_some() {
            fault.draw_crash(&self.faults, round, graph.node_count(), membership);
        }
        if !self.churn.is_none() {
            churn.restore(graph.node_count(), active.to_vec());
        }
        self.rebuild_membership(graph, churn, membership);
    }

    /// The round's *effective* active mask (`None` = every edge active)
    /// with the round's stale words: the plan's mask (generating the
    /// random matching into `mg` when the plan draws one) read through
    /// the epoch's membership when one is kept, then minus the round's
    /// dropped edges (counting drop and stale events). Control-thread
    /// only; the membership and the fault state's round masks must
    /// already be current.
    fn round_mask<'a>(
        &'a self,
        round: u64,
        t: &KernelTables,
        mg: &'a mut MatchScratch,
        fault: &'a mut FaultState,
        members: &'a Membership,
    ) -> (Option<&'a [u64]>, Option<&'a [u64]>) {
        let member = self.has_membership();
        let mask = match &self.plan {
            ActivePlan::All => member.then(|| members.edges()),
            ActivePlan::Sweep { masks, .. } => {
                let idx = (round % masks.len() as u64) as usize;
                Some(if member {
                    members.repaired(idx)
                } else {
                    &masks[idx][..]
                })
            }
            ActivePlan::Random { seed } => {
                matchgen::fill_random_matching(*seed, round, t, &self.match_pairs, mg);
                if member {
                    for (word, &edges) in mg.mask.iter_mut().zip(members.edges()) {
                        *word &= edges;
                    }
                }
                Some(&mg.mask[..])
            }
        };
        fault.compose_eff(&self.faults, t.m, mask)
    }

    /// The control-thread half of a round, run before any participant
    /// starts it (on the pool: before the round's first barrier, with
    /// the workers parked). At an epoch boundary it draws the crash
    /// words, runs the churn transition and rebuilds the membership from
    /// both; every round it draws the drop/stale masks, the shock and the
    /// load injection, then builds the round's effective mask. Each load
    /// planner's `(node, delta)` edits are applied before the next
    /// planner runs, in the order shock → churn handoff and arrivals →
    /// injection, so every planner peeks at the loads its predecessors
    /// left. `loads_i` / `loads_f` are the simulation's loads; the one
    /// the mode does not use is empty.
    pub fn prepare_round<'s, LI: BufI64, LF: BufF64>(
        &'s self,
        t: &KernelTables,
        graph: &Graph,
        round: u64,
        scratch: &'s mut RoundScratch,
        loads_i: &LI,
        loads_f: &LF,
    ) -> PreparedRound<'s> {
        let RoundScratch {
            fw,
            matchgen,
            fault,
            load,
            churn,
            membership,
            deltas,
        } = scratch;
        let loads = LoadView {
            discrete: !matches!(self.flow, FlowPass::Continuous),
            ints: loads_i,
            floats: loads_f,
        };
        let peek = |i| loads.get(i);
        let boundary = self.has_membership() && membership.advance(round);
        if boundary && self.faults.crash.is_some() {
            fault.draw_crash(&self.faults, round, t.n, membership);
        }
        if !self.faults.is_none() {
            fault.begin_round(&self.faults, round, t.m);
            let crash = &membership.crash;
            fault.plan_shock(
                &self.faults,
                round,
                t.n,
                crash,
                loads.discrete,
                peek,
                deltas,
            );
            loads.apply(deltas);
        }
        if boundary {
            if !self.churn.is_none() {
                churn.transition(&self.churn, graph, round, loads.discrete, peek, deltas);
                loads.apply(deltas);
            }
            self.rebuild_membership(graph, churn, membership);
        }
        if !self.loads.is_none() {
            load.plan_round(&self.loads, round, t.n, loads.discrete, peek, deltas);
            loads.apply(deltas);
        }
        let (mask, stale) = self.round_mask(round, t, matchgen, fault, membership);
        PreparedRound { mask, stale, fw }
    }

    /// One whole round on the calling thread: [`SchemeKernel::prepare_round`],
    /// then [`SchemeKernel::run_phases`] over every edge and node with a
    /// no-op phase sync. Returns the round's fused load statistics.
    #[allow(clippy::too_many_arguments)] // the engine's full round state, flat by design
    pub fn run_inline<LI, LF, P, F, A, B>(
        &self,
        t: &KernelTables,
        graph: &Graph,
        mem: f64,
        gain: f64,
        round: u64,
        flow_memory: FlowMemory,
        bufs: &RoundBufs<LI, LF, P, F, A, B>,
        scratch: &mut RoundScratch,
    ) -> LoadStats
    where
        LI: BufI64,
        LF: BufF64,
        P: BufF64,
        F: BufI64,
        A: BufF64,
        B: BufF64,
    {
        let prep = self.prepare_round(t, graph, round, scratch, &bufs.loads_i, &bufs.loads_f);
        let mut stats = self.run_phases(
            t,
            || {},
            0..t.m,
            0..t.n,
            mem,
            gain,
            round,
            flow_memory,
            bufs,
            prep.mask.map(|words| move |w: usize| words[w]),
            prep.stale.map(|words| move |w: usize| words[w]),
            prep.fw,
        );
        stats.sum_sq_dev = kernel::fold_block_sums(kernel::dev_blocks(t.n), &bufs.block_sums);
        stats
    }

    /// One participant's share of a round: the edge pass over `edges`,
    /// the rounding and apply passes over `nodes`, with `sync` between
    /// phases (one sync for the edge-local and continuous passes, two for
    /// the framework pipeline — the flow-memory copy shares the apply
    /// pass's interval). `mask` and `stale` read word `w` of the round's
    /// active-edge and stale-edge sets (`None`: every edge active, none
    /// stale). Returns the chunk's fused load statistics; the caller
    /// folds `bufs.block_sums` into `sum_sq_dev`.
    #[allow(clippy::too_many_arguments)] // one participant's full round context
    pub fn run_phases<LI, LF, P, F, A, B, MW, SW>(
        &self,
        t: &KernelTables,
        sync: impl Fn(),
        edges: Range<usize>,
        nodes: Range<usize>,
        mem: f64,
        gain: f64,
        round: u64,
        flow_memory: FlowMemory,
        bufs: &RoundBufs<LI, LF, P, F, A, B>,
        mask: Option<MW>,
        stale: Option<SW>,
        scratch: &mut FwScratch,
    ) -> LoadStats
    where
        LI: BufI64,
        LF: BufF64,
        P: BufF64,
        F: BufI64,
        A: BufF64,
        B: BufF64,
        MW: Fn(usize) -> u64,
        SW: Fn(usize) -> u64,
    {
        // Monomorphize the phase sequence per edge source, so an unmasked
        // diffusion round compiles to the plain unmasked loops.
        macro_rules! phases {
            ($active:expr, $stale:expr) => {
                self.phases(
                    t,
                    sync,
                    edges,
                    nodes,
                    mem,
                    gain,
                    round,
                    flow_memory,
                    bufs,
                    $active,
                    $stale,
                    scratch,
                )
            };
        }
        match (mask, stale) {
            (None, None) => phases!(kernel::all_edges, kernel::no_edges),
            (Some(m), None) => phases!(edge_bits(m), kernel::no_edges),
            (None, Some(s)) => phases!(kernel::all_edges, edge_bits(s)),
            (Some(m), Some(s)) => phases!(edge_bits(m), edge_bits(s)),
        }
    }

    /// The phase sequence of [`SchemeKernel::run_phases`] over per-edge
    /// bit sources: `active(e)` is `1` for an edge that carries flow this
    /// round, `stale(e)` is `1` for an edge whose flow is lost in the
    /// apply pass.
    ///
    /// Kept out of line: each instance is called once, so the optimizer
    /// would otherwise fold all four edge-source instances into one
    /// ~70 KB `run_phases` body, which ran the benchmark's `paper_sweep`
    /// rounds 10–13% slower (medians of two five-pair runs on a 2-core
    /// Xeon; out of line: 1% faster than before the merge).
    #[allow(clippy::too_many_arguments)] // one participant's full round context
    #[inline(never)]
    fn phases<LI, LF, P, F, A, B>(
        &self,
        t: &KernelTables,
        sync: impl Fn(),
        edges: Range<usize>,
        nodes: Range<usize>,
        mem: f64,
        gain: f64,
        round: u64,
        flow_memory: FlowMemory,
        bufs: &RoundBufs<LI, LF, P, F, A, B>,
        active: impl Fn(usize) -> u64,
        stale: impl Fn(usize) -> u64,
        scratch: &mut FwScratch,
    ) -> LoadStats
    where
        LI: BufI64,
        LF: BufF64,
        P: BufF64,
        F: BufI64,
        A: BufF64,
        B: BufF64,
    {
        let (ct, ch) = self.coefs(t);
        let RoundBufs {
            loads_i,
            loads_f,
            prev,
            arc_frac,
            flows,
            block_sums,
        } = bufs;
        // Lossy apply: a stale edge's flow was computed and recorded in
        // the flow memory, but its tokens never land.
        let applied_i = |e: usize| flows.get(e) * (stale(e) ^ 1) as i64;
        let x_i = |i| loads_i.get(i) as f64;
        match self.flow {
            FlowPass::EdgeLocal(rounding) => {
                kernel::edge_pass_fused(
                    t,
                    ct,
                    ch,
                    edges,
                    active,
                    mem,
                    gain,
                    round,
                    rounding,
                    flow_memory,
                    x_i,
                    prev,
                    flows,
                );
                sync();
                kernel::apply_discrete(t, nodes, applied_i, loads_i, block_sums)
            }
            FlowPass::Framework { seed } => {
                kernel::edge_pass_scatter_with(
                    t,
                    ct,
                    ch,
                    edges.clone(),
                    active,
                    mem,
                    gain,
                    flow_memory,
                    x_i,
                    arc_frac,
                    flows,
                    prev,
                );
                sync();
                kernel::arc_round_streamed(t, nodes.clone(), seed, round, arc_frac, flows, scratch);
                sync();
                // Same phase interval as the apply pass: both only read
                // the flows (the copy writes `prev`, the apply writes
                // `loads` — disjoint).
                if matches!(flow_memory, FlowMemory::Rounded) {
                    kernel::prev_from_flows(edges, flows, prev);
                }
                kernel::apply_discrete(t, nodes, applied_i, loads_i, block_sums)
            }
            FlowPass::Continuous => {
                let x = |i| loads_f.get(i);
                kernel::edge_pass_continuous(t, ct, ch, edges, active, mem, gain, x, prev);
                sync();
                let applied = |e: usize| if stale(e) == 1 { 0.0 } else { prev.get(e) };
                kernel::apply_continuous(t, nodes, applied, loads_f, block_sums)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sodiff_graph::generators;

    fn tables(graph: &Graph) -> KernelTables {
        KernelTables::new(graph, &Speeds::uniform(graph.node_count()), false, 0.0)
    }

    /// One inline discrete round (`mem = 0`, `gain = 1`, rounded flow
    /// memory) over plain vectors.
    #[allow(clippy::too_many_arguments)] // the round's full state, flat
    fn discrete_round(
        k: &SchemeKernel,
        t: &KernelTables,
        g: &Graph,
        round: u64,
        loads: &mut [i64],
        prev: &mut [f64],
        flows: &mut [i64],
        scratch: &mut RoundScratch,
    ) -> LoadStats {
        let mut block_sums = vec![0.0; kernel::dev_blocks(t.n)];
        let bufs = RoundBufs {
            loads_i: kernel::cells_i64(loads),
            loads_f: kernel::CellsF64(&[]),
            prev: kernel::cells_f64(prev),
            arc_frac: kernel::CellsF64(&[]),
            flows: kernel::cells_i64(flows),
            block_sums: kernel::cells_f64(&mut block_sums),
        };
        k.run_inline(t, g, 0.0, 1.0, round, FlowMemory::Rounded, &bufs, scratch)
    }

    #[test]
    fn validate_rejects_pairwise_on_edgeless_graphs() {
        let g = generators::path(1);
        assert!(matches!(
            SchemeKernel::validate(Scheme::dimension_exchange(1.0), &g),
            Err(BuildError::NoColoring(_))
        ));
        assert!(matches!(
            SchemeKernel::validate(Scheme::matching_random(1, 1.0), &g),
            Err(BuildError::NoMatching(_))
        ));
        // Diffusion on an edgeless graph is a (trivial) no-op, not an error.
        assert!(SchemeKernel::validate(Scheme::fos(), &g).is_ok());
    }

    #[test]
    fn validate_rejects_bad_lambda() {
        let g = generators::cycle(4);
        assert!(matches!(
            SchemeKernel::validate(Scheme::dimension_exchange(0.0), &g),
            Err(BuildError::InvalidLambda(_))
        ));
        assert!(matches!(
            SchemeKernel::validate(Scheme::matching_round_robin(1.5), &g),
            Err(BuildError::InvalidLambda(_))
        ));
    }

    #[test]
    fn de_plan_sweeps_color_classes() {
        let g = generators::torus2d(4, 4);
        let k = SchemeKernel::new(
            Scheme::dimension_exchange(1.0),
            Mode::Discrete(Rounding::nearest()),
            &g,
            &Speeds::uniform(16),
            FaultSpec::none(),
            LoadSpec::none(),
            ChurnSpec::none(),
        )
        .unwrap();
        let ActivePlan::Sweep { masks, recover } = &k.plan else {
            panic!("DE should sweep masks");
        };
        assert!(!recover, "color classes are masked out, not re-covered");
        assert_eq!(masks.len(), 4, "even 2D torus: 4 color classes");
        // The classes partition the edges.
        let mut seen = vec![0u32; g.edge_count()];
        for words in masks {
            for e in 0..g.edge_count() {
                seen[e] += ((words[e >> 6] >> (e & 63)) & 1) as u32;
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn exchange_coefs_harmonic() {
        let g = generators::path(2);
        let speeds = Speeds::new(vec![1.0, 3.0]);
        let (ct, ch) = exchange_coefs(&g, &speeds, 0.5);
        // λ·s_v/(s_u+s_v) and λ·s_u/(s_u+s_v) for (s_u, s_v) = (1, 3).
        assert!((ct[0] - 0.5 * 3.0 / 4.0).abs() < 1e-15);
        assert!((ch[0] - 0.5 * 1.0 / 4.0).abs() < 1e-15);
    }

    #[test]
    fn de_sequential_round_conserves_and_averages_pairs() {
        // Uniform speeds, λ = 1: each active edge moves (x_u − x_v)/2,
        // rounded. One DE round on a 2-node path with loads (10, 0) moves
        // exactly 5 tokens.
        let g = generators::path(2);
        let speeds = Speeds::uniform(2);
        let k = SchemeKernel::new(
            Scheme::dimension_exchange(1.0),
            Mode::Discrete(Rounding::nearest()),
            &g,
            &speeds,
            FaultSpec::none(),
            LoadSpec::none(),
            ChurnSpec::none(),
        )
        .unwrap();
        let t = tables(&g);
        let mut loads = vec![10i64, 0];
        let mut prev = vec![0.0f64; 1];
        let mut flows = vec![0i64; 1];
        let mut scratch = RoundScratch::new();
        let stats = discrete_round(
            &k,
            &t,
            &g,
            0,
            &mut loads,
            &mut prev,
            &mut flows,
            &mut scratch,
        );
        assert_eq!(loads, vec![5, 5]);
        assert_eq!(flows, vec![5]);
        assert_eq!(prev, vec![5.0]);
        assert_eq!(stats.min_transient, 0.0); // node 1: 0 − 0; node 0: 10 − 5
    }

    #[test]
    fn inactive_color_class_moves_nothing() {
        // On a 4-cycle (2 color classes) only the active class's edges
        // carry flow each round.
        let g = generators::cycle(4);
        let speeds = Speeds::uniform(4);
        let k = SchemeKernel::new(
            Scheme::dimension_exchange(1.0),
            Mode::Discrete(Rounding::nearest()),
            &g,
            &speeds,
            FaultSpec::none(),
            LoadSpec::none(),
            ChurnSpec::none(),
        )
        .unwrap();
        let t = tables(&g);
        let mut loads = vec![100i64, 0, 0, 0];
        let mut prev = vec![0.0f64; 4];
        let mut flows = vec![0i64; 4];
        let mut scratch = RoundScratch::new();
        for round in 0..2 {
            discrete_round(
                &k,
                &t,
                &g,
                round,
                &mut loads,
                &mut prev,
                &mut flows,
                &mut scratch,
            );
            let ActivePlan::Sweep { masks, .. } = &k.plan else {
                unreachable!()
            };
            let words = &masks[(round % masks.len() as u64) as usize];
            for (e, &f) in flows.iter().enumerate() {
                let active = (words[e >> 6] >> (e & 63)) & 1 == 1;
                if !active {
                    assert_eq!(f, 0, "round {round}: inactive edge {e} moved {f}");
                }
            }
        }
        assert_eq!(loads.iter().sum::<i64>(), 100, "tokens conserved");
    }

    #[test]
    fn crashed_nodes_freeze_loads_and_conserve_total() {
        let g = generators::torus2d(4, 4);
        let faults = FaultSpec::none().with_crash(0.3, 9);
        let live = faults.live_nodes(0, 16);
        assert!(
            live.iter().any(|&l| !l),
            "seed 9 should kill someone in epoch 0"
        );
        let k = SchemeKernel::new(
            Scheme::fos(),
            Mode::Discrete(Rounding::nearest()),
            &g,
            &Speeds::uniform(16),
            faults,
            LoadSpec::none(),
            ChurnSpec::none(),
        )
        .unwrap();
        let t = tables(&g);
        let mut loads: Vec<i64> = (0..16).map(|i| i * 3).collect();
        let total: i64 = loads.iter().sum();
        let frozen = loads.clone();
        let mut prev = vec![0.0f64; t.m];
        let mut flows = vec![0i64; t.m];
        let mut scratch = RoundScratch::new();
        for round in 0..crate::fault::EPOCH_LEN {
            discrete_round(
                &k,
                &t,
                &g,
                round,
                &mut loads,
                &mut prev,
                &mut flows,
                &mut scratch,
            );
            assert_eq!(loads.iter().sum::<i64>(), total, "round {round}");
            for (v, &was) in frozen.iter().enumerate() {
                if !live[v] {
                    assert_eq!(loads[v], was, "dead node {v} moved in round {round}");
                }
            }
        }
        assert!(scratch.fault.events.crashes > 0);
    }
}
