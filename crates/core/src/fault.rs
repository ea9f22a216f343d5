//! Deterministic fault injection: node churn, edge drops, load shocks,
//! and stale-flow (lossy apply) perturbation.
//!
//! Every fault is drawn from a counter-indexed SplitMix64 stream (the
//! [`crate::rng`] design), keyed by `(seed ⊕ kind-salt, epoch-or-round,
//! id)` — no serial RNG state, so the sequential executor and the worker
//! pool see the *same* perturbations in the same order and stay
//! bit-identical. The four channels of a [`FaultSpec`]:
//!
//! * **crash** — node churn on fixed epochs of [`EPOCH_LEN`] rounds:
//!   each node is independently down for a whole epoch with probability
//!   `p` (fresh draws per epoch, so nodes crash *and* rejoin at epoch
//!   boundaries). A downed node's incident edges are masked out, which
//!   freezes its load; dimension-exchange color classes and round-robin
//!   matching families are repaired incrementally
//!   ([`sodiff_graph::matching::repair_matching`] /
//!   [`sodiff_graph::matching::mask_dead_edges`]) instead of recomputed.
//!   Contrast with the live-topology churn axis ([`crate::churn`]): a
//!   crash-frozen node keeps its slot and **returns with its frozen
//!   load**, whereas a churn departure hands its load away and a churn
//!   re-arrival starts from the configured initial load — so the two
//!   channels compose without double-counting in the conservation
//!   invariant (see the audit note on [`crate::ChurnEvents`]).
//! * **edgedrop** — each edge independently drops (carries no flow) for
//!   one round with probability `p`, drawn fresh every round.
//! * **shock** — with probability `p` per round, a hotspot burst moves a
//!   quarter of a random live donor's load to a random other live node
//!   before the round's flow computation. Shocks conserve the total
//!   load, so the balanced ideal is unchanged.
//! * **stale** — each edge's *applied* flow is independently lost for
//!   one round with probability `p`: the flow is computed and recorded
//!   in the flow memory as usual, but the loads are not updated (a lossy
//!   apply, as if the message carrying the tokens was dropped after
//!   both endpoints noted it). Stale losses are symmetric, so they also
//!   conserve the total.
//!
//! In scenario text the channels compose with `+`:
//! `faults=crash:0.05:7+edgedrop:0.01:9+shock:0.2:3+stale:0.02:5`; see
//! the grammar table in [`crate::scenario`]. `faults=none` (the default)
//! takes exactly the unperturbed code paths — the hook costs one
//! predictable branch per round, which the `sos_faults_none` perf gate
//! holds within 2% of the clean baseline.

use std::fmt;
use std::str::FromStr;

use sodiff_graph::{matching, Graph};

use crate::error::{BuildError, ParseError};
use crate::rng::{nth_u64, salted_stream_key, unit_f64};

/// Length of a crash epoch in rounds: the node churn schedule redraws
/// which nodes are down every `EPOCH_LEN` rounds, so crash/rejoin events
/// happen only at round numbers divisible by `EPOCH_LEN`.
pub const EPOCH_LEN: u64 = 16;

/// Per-kind seed salts so channels sharing one user seed decorrelate.
const CRASH_SALT: u64 = 0x6372_6173_685f_9d1c;
const DROP_SALT: u64 = 0x6564_6765_6472_6f70;
const SHOCK_SALT: u64 = 0x7368_6f63_6b5f_5f5f;
const STALE_SALT: u64 = 0x7374_616c_655f_5f5f;

/// One fault channel: an activation probability (or per-round rate) and
/// the RNG seed of its draw stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultChannel {
    /// Activation probability in `[0, 1]`.
    pub p: f64,
    /// Seed of the channel's counter-indexed draw stream.
    pub seed: u64,
}

/// A deterministic fault-injection plan: which perturbation channels are
/// active and with what probability/seed. See the module docs for the
/// semantics of each channel. [`FaultSpec::none`] (the default) injects
/// nothing and keeps every run on the unperturbed code paths.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultSpec {
    /// Node crash/rejoin churn on [`EPOCH_LEN`]-round epochs.
    pub crash: Option<FaultChannel>,
    /// Per-round independent edge drops.
    pub edgedrop: Option<FaultChannel>,
    /// Per-round load shocks (hotspot bursts).
    pub shock: Option<FaultChannel>,
    /// Per-round stale-flow (lossy apply) injection.
    pub stale: Option<FaultChannel>,
}

impl FaultSpec {
    /// The empty plan: no faults, unperturbed code paths.
    pub fn none() -> Self {
        Self::default()
    }

    /// Returns `true` if no channel is active.
    pub fn is_none(&self) -> bool {
        self.crash.is_none()
            && self.edgedrop.is_none()
            && self.shock.is_none()
            && self.stale.is_none()
    }

    /// Adds a node crash/rejoin channel (probability `p`, seed `seed`).
    pub fn with_crash(mut self, p: f64, seed: u64) -> Self {
        self.crash = Some(FaultChannel { p, seed });
        self
    }

    /// Adds a per-round edge-drop channel.
    pub fn with_edgedrop(mut self, p: f64, seed: u64) -> Self {
        self.edgedrop = Some(FaultChannel { p, seed });
        self
    }

    /// Adds a per-round load-shock channel (rate `p`).
    pub fn with_shock(mut self, p: f64, seed: u64) -> Self {
        self.shock = Some(FaultChannel { p, seed });
        self
    }

    /// Adds a per-round stale-flow channel.
    pub fn with_stale(mut self, p: f64, seed: u64) -> Self {
        self.stale = Some(FaultChannel { p, seed });
        self
    }

    /// Validates every channel's probability (finite, in `[0, 1]`).
    ///
    /// # Errors
    ///
    /// [`BuildError::InvalidFaults`] naming the offending channel.
    pub fn check(&self) -> Result<(), BuildError> {
        for (kind, channel) in self.channels() {
            let p = channel.p;
            if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                return Err(BuildError::InvalidFaults(format!(
                    "{kind} probability {p} outside [0, 1]"
                )));
            }
        }
        Ok(())
    }

    /// The crash schedule's live set for `round` on an `n`-node graph:
    /// `out[v]` is `true` iff node `v` is up. All-true when no crash
    /// channel is configured. This is the *exact* schedule the simulator
    /// uses (same draws), exposed so analyses and tests can reconstruct
    /// which nodes were frozen in any epoch.
    pub fn live_nodes(&self, round: u64, n: usize) -> Vec<bool> {
        match self.crash {
            None => vec![true; n],
            Some(FaultChannel { p, seed }) => {
                let key = salted_stream_key(seed, CRASH_SALT, round / EPOCH_LEN);
                let mut draws = vec![0u64; n];
                crate::rng::fill_first_draws(key, 0, &mut draws);
                draws.iter().map(|&d| unit_f64(d) >= p).collect()
            }
        }
    }

    /// Whether any channel forces per-round edge masking (crash or
    /// edgedrop).
    pub(crate) fn has_edge_faults(&self) -> bool {
        self.crash.is_some() || self.edgedrop.is_some()
    }

    fn channels(&self) -> impl Iterator<Item = (&'static str, FaultChannel)> {
        [
            ("crash", self.crash),
            ("edgedrop", self.edgedrop),
            ("shock", self.shock),
            ("stale", self.stale),
        ]
        .into_iter()
        .filter_map(|(kind, c)| c.map(|c| (kind, c)))
    }
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_none() {
            return write!(f, "none");
        }
        let mut first = true;
        for (kind, FaultChannel { p, seed }) in self.channels() {
            if !first {
                write!(f, "+")?;
            }
            write!(f, "{kind}:{p}:{seed}")?;
            first = false;
        }
        Ok(())
    }
}

impl FromStr for FaultSpec {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s == "none" {
            return Ok(Self::none());
        }
        let bad = |why: String| ParseError::new(format!("in faults '{s}': {why}"));
        let mut spec = Self::none();
        for part in s.split('+') {
            let mut fields = part.split(':');
            let kind = fields.next().unwrap_or("");
            let (p, seed) = match (fields.next(), fields.next(), fields.next()) {
                (Some(p), Some(seed), None) => (p, seed),
                _ => {
                    return Err(bad(format!(
                        "'{part}' should be <kind>:<probability>:<seed>"
                    )))
                }
            };
            let p: f64 = p
                .parse()
                .map_err(|_| bad(format!("bad probability '{p}'")))?;
            if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                return Err(bad(format!("{kind} probability {p} outside [0, 1]")));
            }
            let seed: u64 = seed
                .parse()
                .map_err(|_| bad(format!("bad seed '{seed}'")))?;
            let slot = match kind {
                "crash" => &mut spec.crash,
                "edgedrop" => &mut spec.edgedrop,
                "shock" => &mut spec.shock,
                "stale" => &mut spec.stale,
                other => {
                    return Err(bad(format!(
                        "unknown fault kind '{other}' \
                         (crash, edgedrop, shock, stale)"
                    )))
                }
            };
            if slot.is_some() {
                return Err(bad(format!("duplicate fault kind '{kind}'")));
            }
            *slot = Some(FaultChannel { p, seed });
        }
        Ok(spec)
    }
}

/// Counts of the fault events a run actually experienced, reported in
/// [`crate::RunReport::faults`]. All zero for `faults=none` runs. The
/// counters accumulate over the simulator's lifetime (across repeated
/// `run_until` calls on the same [`crate::Simulator`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultEvents {
    /// Nodes that went down at an epoch boundary.
    pub crashes: u64,
    /// Nodes that came back up at an epoch boundary.
    pub rejoins: u64,
    /// Scheduled-active edges that dropped for a round.
    pub edges_dropped: u64,
    /// Load shocks that moved tokens.
    pub shocks: u64,
    /// Active edges whose applied flow was lost for a round.
    pub stale_edges: u64,
}

impl FaultEvents {
    /// Total churn events (crashes + rejoins): the boundaries between
    /// which per-node load freezing and live-set conservation hold.
    pub fn churn_events(&self) -> u64 {
        self.crashes + self.rejoins
    }
}

/// Which base edge set the round's effective mask starts from; see
/// [`FaultState::compose_eff`].
pub(crate) enum EffBase<'a> {
    /// All edges (diffusion plans): the live-edge set under crash churn,
    /// every edge otherwise.
    All,
    /// The current epoch's repaired sweep mask at this index (crash
    /// churn active).
    Repaired(usize),
    /// An externally produced mask — a sweep class without crash churn,
    /// or the round's random matching (intersected with the live edges
    /// when crash churn is active).
    External(&'a [u64]),
}

/// Control-thread fault state carried between rounds: the current
/// epoch's live sets and repaired sweep masks, the round's drop/stale
/// masks, and the accumulated event counters. Lives in
/// [`crate::scheme_kernel::RoundScratch`], so the sequential executor
/// and the pool's control thread share one code path.
#[derive(Default)]
pub(crate) struct FaultState {
    /// Epoch whose live sets are materialized (`None` before round 0).
    epoch: Option<u64>,
    /// Live-node bitmask words (crash channel only).
    live_nodes: Vec<u64>,
    /// Edges with both endpoints live (crash channel only).
    live_edges: Vec<u64>,
    /// Per-epoch incrementally repaired sweep masks (crash + sweep plan).
    repaired: Vec<Vec<u64>>,
    /// The round's dropped-edge words (edgedrop channel only).
    drop: Vec<u64>,
    /// The round's stale-edge words (stale channel only), consumed by
    /// the apply passes.
    pub stale: Vec<u64>,
    /// The round's composed effective mask.
    eff: Vec<u64>,
    /// Raw draw scratch for the bulk RNG sweeps.
    draws: Vec<u64>,
    /// Live nodes in the current epoch.
    live_count: usize,
    /// Accumulated event counters.
    pub events: FaultEvents,
}

/// All bits of mask word `w` that correspond to a valid id below `len`.
#[inline]
fn valid_word(w: usize, len: usize) -> u64 {
    let base = w * 64;
    if base + 64 <= len {
        u64::MAX
    } else if base >= len {
        0
    } else {
        (1u64 << (len - base)) - 1
    }
}

impl FaultState {
    /// Per-round control-thread preparation: advances the crash epoch
    /// (recomputing live sets and repairing `sweep` masks at
    /// boundaries) and draws the round's drop and stale masks. Must run
    /// before the round's flow pass, in both executors.
    pub fn begin_round(
        &mut self,
        spec: &FaultSpec,
        graph: &Graph,
        round: u64,
        sweep: Option<(&[Vec<u64>], bool)>,
    ) {
        let m = graph.edge_count();
        if spec.crash.is_some() {
            self.ensure_epoch(spec, graph, round, sweep);
        }
        if let Some(FaultChannel { p, seed }) = spec.edgedrop {
            Self::fill_edge_mask(
                &mut self.drop,
                &mut self.draws,
                seed,
                DROP_SALT,
                p,
                round,
                m,
            );
        }
        if let Some(FaultChannel { p, seed }) = spec.stale {
            Self::fill_edge_mask(
                &mut self.stale,
                &mut self.draws,
                seed,
                STALE_SALT,
                p,
                round,
                m,
            );
        }
    }

    /// Recomputes the live sets for `round`'s epoch if it changed:
    /// fresh per-node draws, crash/rejoin counting against the previous
    /// epoch (everything live before round 0), the live-edge mask, and
    /// the incremental repair of the sweep masks.
    fn ensure_epoch(
        &mut self,
        spec: &FaultSpec,
        graph: &Graph,
        round: u64,
        sweep: Option<(&[Vec<u64>], bool)>,
    ) {
        let FaultChannel { p, seed } = spec.crash.expect("caller checked the crash channel");
        let epoch = round / EPOCH_LEN;
        if self.epoch == Some(epoch) {
            return;
        }
        let n = graph.node_count();
        let m = graph.edge_count();
        let nw = n.div_ceil(64).max(1);
        self.draws.resize(n.max(m).max(1), 0);
        crate::rng::fill_first_draws(
            salted_stream_key(seed, CRASH_SALT, epoch),
            0,
            &mut self.draws[..n],
        );
        let first = self.epoch.is_none();
        self.live_nodes.resize(nw, 0);
        let mut live_count = 0usize;
        for w in 0..nw {
            let valid = valid_word(w, n);
            let mut word = 0u64;
            let base = w * 64;
            for b in 0..64.min(n.saturating_sub(base)) {
                word |= u64::from(unit_f64(self.draws[base + b]) >= p) << b;
            }
            let old = if first { valid } else { self.live_nodes[w] };
            self.events.crashes += u64::from((old & !word).count_ones());
            self.events.rejoins += u64::from((!old & word & valid).count_ones());
            live_count += word.count_ones() as usize;
            self.live_nodes[w] = word;
        }
        self.live_count = live_count;
        let mw = m.div_ceil(64).max(1);
        self.live_edges.clear();
        self.live_edges.resize(mw, 0);
        for (e, &(u, v)) in graph.edges().iter().enumerate() {
            let both = self.live(u as usize) && self.live(v as usize);
            self.live_edges[e >> 6] |= u64::from(both) << (e & 63);
        }
        if let Some((masks, recover)) = sweep {
            self.repaired.resize(masks.len(), Vec::new());
            for (repaired, base) in self.repaired.iter_mut().zip(masks) {
                repaired.clone_from(base);
                if recover {
                    matching::repair_matching(graph, &self.live_nodes, repaired);
                } else {
                    matching::mask_dead_edges(graph, &self.live_nodes, repaired);
                }
            }
        }
        self.epoch = Some(epoch);
    }

    /// Draws one per-round Bernoulli edge mask (drop or stale).
    fn fill_edge_mask(
        out: &mut Vec<u64>,
        draws: &mut Vec<u64>,
        seed: u64,
        salt: u64,
        p: f64,
        round: u64,
        m: usize,
    ) {
        draws.resize(draws.len().max(m).max(1), 0);
        crate::rng::fill_first_draws(salted_stream_key(seed, salt, round), 0, &mut draws[..m]);
        let mw = m.div_ceil(64).max(1);
        out.clear();
        out.resize(mw, 0);
        for (e, &draw) in draws[..m].iter().enumerate() {
            out[e >> 6] |= u64::from(unit_f64(draw) < p) << (e & 63);
        }
    }

    /// Composes the round's effective active-edge mask:
    /// `base ∧ live-edges ∧ ¬dropped`, counting the dropped-while-active
    /// edges (and, fused here because the composed mask *is* the active
    /// set, the round's stale losses). Returns the mask the flow pass
    /// should use, with the round's stale words for the apply pass.
    pub fn compose_eff(
        &mut self,
        spec: &FaultSpec,
        m: usize,
        base: EffBase<'_>,
    ) -> (&[u64], &[u64]) {
        let mw = m.div_ceil(64).max(1);
        self.eff.resize(mw, 0);
        let crash = spec.crash.is_some();
        let dropping = spec.edgedrop.is_some();
        let staling = spec.stale.is_some();
        for w in 0..mw {
            let base_w = match base {
                EffBase::All => {
                    if crash {
                        self.live_edges[w]
                    } else {
                        valid_word(w, m)
                    }
                }
                EffBase::Repaired(i) => self.repaired[i][w],
                EffBase::External(ext) => {
                    if crash {
                        ext[w] & self.live_edges[w]
                    } else {
                        ext[w]
                    }
                }
            };
            let word = if dropping {
                self.events.edges_dropped += u64::from((base_w & self.drop[w]).count_ones());
                base_w & !self.drop[w]
            } else {
                base_w
            };
            if staling {
                self.events.stale_edges += u64::from((word & self.stale[w]).count_ones());
            }
            self.eff[w] = word;
        }
        (&self.eff, &self.stale)
    }

    /// Counts the round's stale losses among the active edges (`mask`
    /// `None` = all edges active). Call once per round when the stale
    /// channel is on, after the active mask is known.
    pub fn count_stale(&mut self, mask: Option<&[u64]>, m: usize) {
        let mw = m.div_ceil(64).max(1);
        for w in 0..mw {
            let active = mask.map_or_else(|| valid_word(w, m), |words| words[w]);
            self.events.stale_edges += u64::from((active & self.stale[w]).count_ones());
        }
    }

    /// The materialized epoch's live-node words (crash channel only;
    /// empty before the first `begin_round`). The churn axis intersects
    /// these with its activation overlay when repairing sweep schedules,
    /// so a crash-frozen node is never re-matched.
    pub fn live_node_words(&self) -> &[u64] {
        &self.live_nodes
    }

    /// Whether node `u` is live in the materialized epoch (only
    /// meaningful when the crash channel is on).
    #[inline]
    fn live(&self, u: usize) -> bool {
        (self.live_nodes[u >> 6] >> (u & 63)) & 1 == 1
    }

    /// Rejection-samples a live node id from `key`'s draw stream,
    /// starting at draw counter `k`, skipping `exclude`. Returns the
    /// node and the next unused counter; `None` after 128 rejections.
    fn pick_live(
        &self,
        crash: bool,
        key: u64,
        mut k: u64,
        n: usize,
        exclude: Option<usize>,
    ) -> Option<(usize, u64)> {
        for _ in 0..128 {
            let cand = (nth_u64(key, k) % n as u64) as usize;
            k += 1;
            if (!crash || self.live(cand)) && Some(cand) != exclude {
                return Some((cand, k));
            }
        }
        None
    }

    /// The round's shock, if one fires: a `(donor, hotspot)` pair of
    /// distinct live nodes. The caller moves a quarter of the donor's
    /// load to the hotspot (mode-specific arithmetic) and counts the
    /// event iff tokens moved. Requires [`FaultState::begin_round`] for
    /// this round to have run (live sets current).
    pub fn shock_targets(&self, spec: &FaultSpec, round: u64, n: usize) -> Option<(usize, usize)> {
        let FaultChannel { p, seed } = spec.shock?;
        let key = salted_stream_key(seed, SHOCK_SALT, round);
        if unit_f64(nth_u64(key, 0)) >= p {
            return None;
        }
        let crash = spec.crash.is_some();
        let live_count = if crash { self.live_count } else { n };
        if live_count < 2 {
            return None;
        }
        let (hotspot, k) = self.pick_live(crash, key, 1, n, None)?;
        let (donor, _) = self.pick_live(crash, key, k, n, Some(hotspot))?;
        Some((donor, hotspot))
    }
}

/// Window length of the divergence watchdog.
const WATCH_WINDOW: usize = 16;

/// The graceful-degradation watchdog of [`crate::Simulator`]'s run loop:
/// observes the fused per-round `max_dev` statistic (free since the
/// in-loop metrics reduction) and fires when the deviation is non-finite
/// or grew more than 8× over the best of the last [`WATCH_WINDOW`]
/// rounds (clamped below at 1.0 so settled runs never trip on noise).
/// Armed only while faults are injected, so clean runs are untouched.
#[derive(Clone)]
pub(crate) struct DivergenceWatch {
    armed: bool,
    window: [f64; WATCH_WINDOW],
    len: usize,
    pos: usize,
}

impl DivergenceWatch {
    /// Whether this watchdog can ever fire.
    pub fn armed(&self) -> bool {
        self.armed
    }

    /// The observation ring as raw parts `(armed, window, len, pos)` for
    /// checkpointing.
    pub fn raw_parts(&self) -> (bool, &[f64], usize, usize) {
        (self.armed, &self.window, self.len, self.pos)
    }

    /// Rebuilds a watchdog from checkpointed [`Self::raw_parts`];
    /// returns `None` when the parts are not a valid ring.
    pub fn from_raw_parts(armed: bool, window: &[f64], len: usize, pos: usize) -> Option<Self> {
        if window.len() != WATCH_WINDOW || len > WATCH_WINDOW || pos >= WATCH_WINDOW {
            return None;
        }
        let mut ring = [0.0; WATCH_WINDOW];
        ring.copy_from_slice(window);
        Some(Self {
            armed,
            window: ring,
            len,
            pos,
        })
    }

    /// A watchdog; `armed = false` never fires.
    pub fn new(armed: bool) -> Self {
        Self {
            armed,
            window: [0.0; WATCH_WINDOW],
            len: 0,
            pos: 0,
        }
    }

    /// Feeds one round's `max_dev`; returns `true` if the watchdog
    /// fires (divergence detected). The window resets after a firing so
    /// the fallback scheme gets a fresh observation period.
    pub fn observe(&mut self, max_dev: f64) -> bool {
        if !self.armed {
            return false;
        }
        if !max_dev.is_finite() {
            return true;
        }
        if self.len == WATCH_WINDOW {
            let min = self.window.iter().copied().fold(f64::INFINITY, f64::min);
            if max_dev > 8.0 * min.max(1.0) {
                self.len = 0;
                self.pos = 0;
                return true;
            }
        }
        self.window[self.pos] = max_dev;
        self.pos = (self.pos + 1) % WATCH_WINDOW;
        self.len = (self.len + 1).min(WATCH_WINDOW);
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sodiff_graph::generators;

    #[test]
    fn display_roundtrip() {
        for spec in [
            FaultSpec::none(),
            FaultSpec::none().with_crash(0.05, 7),
            FaultSpec::none().with_edgedrop(0.01, 9).with_stale(0.5, 3),
            FaultSpec::none()
                .with_crash(0.1, 1)
                .with_edgedrop(0.2, 2)
                .with_shock(0.3, 3)
                .with_stale(0.4, 4),
        ] {
            let text = spec.to_string();
            assert_eq!(text.parse::<FaultSpec>().unwrap(), spec, "{text}");
        }
        assert_eq!(FaultSpec::none().to_string(), "none");
        assert_eq!(
            FaultSpec::none().with_shock(0.25, 9).to_string(),
            "shock:0.25:9"
        );
    }

    #[test]
    fn parse_errors_carry_context() {
        for (text, needle) in [
            ("crash:0.1", "should be <kind>:<probability>:<seed>"),
            ("crash:0.1:2:3", "should be <kind>:<probability>:<seed>"),
            ("crash:x:1", "bad probability"),
            ("crash:1.5:1", "outside [0, 1]"),
            ("crash:-0.1:1", "outside [0, 1]"),
            ("crash:nan:1", "outside [0, 1]"),
            ("crash:0.1:z", "bad seed"),
            ("meteor:0.1:1", "unknown fault kind"),
            ("crash:0.1:1+crash:0.2:2", "duplicate fault kind"),
        ] {
            let err = text.parse::<FaultSpec>().unwrap_err();
            assert!(
                err.message.contains(needle),
                "{text}: {} should contain {needle}",
                err.message
            );
        }
    }

    #[test]
    fn check_rejects_out_of_range_probabilities() {
        assert!(FaultSpec::none().check().is_ok());
        assert!(FaultSpec::none().with_crash(1.0, 1).check().is_ok());
        let err = FaultSpec::none().with_shock(2.0, 1).check().unwrap_err();
        assert!(matches!(err, BuildError::InvalidFaults(_)));
        assert!(err.to_string().contains("shock"));
        assert!(FaultSpec::none().with_stale(f64::NAN, 1).check().is_err());
    }

    #[test]
    fn crash_schedule_is_per_epoch_and_deterministic() {
        let spec = FaultSpec::none().with_crash(0.3, 42);
        let n = 257;
        // Constant within an epoch, fresh draws across epochs.
        let a = spec.live_nodes(0, n);
        assert_eq!(a, spec.live_nodes(EPOCH_LEN - 1, n));
        let b = spec.live_nodes(EPOCH_LEN, n);
        assert_ne!(a, b, "new epoch redraws (p = 0.3 on 257 nodes)");
        assert_eq!(b, spec.live_nodes(2 * EPOCH_LEN - 1, n));
        // p = 0 keeps everyone up; p = 1 takes everyone down.
        assert!(FaultSpec::none()
            .with_crash(0.0, 1)
            .live_nodes(0, 64)
            .iter()
            .all(|&l| l));
        assert!(FaultSpec::none()
            .with_crash(1.0, 1)
            .live_nodes(0, 64)
            .iter()
            .all(|&l| !l));
    }

    #[test]
    fn fault_state_matches_public_schedule() {
        let spec = FaultSpec::none().with_crash(0.25, 7);
        let g = generators::torus2d(6, 6);
        let mut fs = FaultState::default();
        for round in [0, 5, 16, 40] {
            fs.begin_round(&spec, &g, round, None);
            let public = spec.live_nodes(round, g.node_count());
            for (v, &live) in public.iter().enumerate() {
                assert_eq!(fs.live(v), live, "round {round} node {v}");
            }
            assert_eq!(
                fs.live_count,
                public.iter().filter(|&&l| l).count(),
                "round {round}"
            );
        }
        // Churn events were counted at the two epoch transitions.
        assert!(fs.events.crashes > 0);
    }

    #[test]
    fn effective_mask_excludes_dead_and_dropped_edges() {
        let spec = FaultSpec::none().with_crash(0.3, 3).with_edgedrop(0.2, 5);
        let g = generators::torus2d(5, 5);
        let m = g.edge_count();
        let mut fs = FaultState::default();
        fs.begin_round(&spec, &g, 0, None);
        let drop = fs.drop.clone();
        let eff = fs.compose_eff(&spec, m, EffBase::All).0.to_vec();
        let live = spec.live_nodes(0, g.node_count());
        for (e, &(u, v)) in g.edges().iter().enumerate() {
            let bit = (eff[e >> 6] >> (e & 63)) & 1 == 1;
            let dropped = (drop[e >> 6] >> (e & 63)) & 1 == 1;
            assert_eq!(
                bit,
                live[u as usize] && live[v as usize] && !dropped,
                "edge {e}"
            );
        }
        assert!(fs.events.edges_dropped > 0);
    }

    #[test]
    fn shock_targets_are_live_distinct_and_rate_limited() {
        let g = generators::torus2d(6, 6);
        let n = g.node_count();
        let spec = FaultSpec::none().with_crash(0.3, 11).with_shock(0.5, 13);
        let mut fs = FaultState::default();
        let mut fired = 0u32;
        for round in 0..200 {
            fs.begin_round(&spec, &g, round, None);
            if let Some((donor, hotspot)) = fs.shock_targets(&spec, round, n) {
                fired += 1;
                assert_ne!(donor, hotspot);
                assert!(fs.live(donor), "round {round}");
                assert!(fs.live(hotspot), "round {round}");
            }
        }
        // Rate 0.5 over 200 rounds: the count concentrates around 100.
        assert!((60..=140).contains(&fired), "{fired} shocks at rate 0.5");
        // Rate 0 never fires.
        let quiet = FaultSpec::none().with_shock(0.0, 13);
        assert!(fs.shock_targets(&quiet, 0, n).is_none());
        // A single-node graph cannot host a donor/hotspot pair.
        assert!(fs.shock_targets(&spec, 0, 1).is_none());
    }

    #[test]
    fn watchdog_fires_on_growth_and_non_finite_only() {
        let mut w = DivergenceWatch::new(true);
        for _ in 0..WATCH_WINDOW {
            assert!(!w.observe(10.0));
        }
        assert!(!w.observe(50.0), "5x growth stays under the 8x bar");
        assert!(w.observe(200.0), "20x growth fires");
        // The window resets after firing: no immediate re-fire.
        assert!(!w.observe(200.0));
        let mut w = DivergenceWatch::new(true);
        assert!(w.observe(f64::NAN), "non-finite fires immediately");
        let mut disarmed = DivergenceWatch::new(false);
        assert!(!disarmed.observe(f64::INFINITY), "disarmed never fires");
        // Settled runs (deviation below 1) never trip on relative noise.
        let mut w = DivergenceWatch::new(true);
        for _ in 0..WATCH_WINDOW {
            assert!(!w.observe(0.01));
        }
        assert!(!w.observe(0.5), "50x growth below the absolute floor");
    }
}
