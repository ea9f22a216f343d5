//! Deterministic fault injection: node crashes, edge drops, load shocks,
//! and stale-flow (lossy apply) perturbation.
//!
//! Every fault is drawn from a counter-indexed SplitMix64 stream (the
//! [`crate::rng`] design), keyed by `(seed ⊕ kind-salt, epoch-or-round,
//! id)` — no serial RNG state, so the sequential executor and the worker
//! pool see the *same* perturbations in the same order and stay
//! bit-identical. The four channels of a [`FaultSpec`]:
//!
//! * **crash** — on fixed epochs of [`EPOCH_LEN`] rounds each node is
//!   independently down for the whole epoch with probability `p` (fresh
//!   draws per epoch, so nodes crash *and* rejoin at epoch boundaries).
//!   The draw is one of the two inputs of the epoch's membership
//!   ([`crate::membership`]): a node takes part iff it is crash-live and
//!   churn-active. A crash **freezes** the node's load: its incident
//!   edges carry no flow, and it returns with exactly the load it had
//!   (plus anything handed or injected onto it meanwhile) — unlike a
//!   churn departure, which hands its load off (see the audit note on
//!   [`crate::ChurnEvents`]).
//! * **edgedrop** — each edge independently drops (carries no flow) for
//!   one round with probability `p`, drawn fresh every round.
//! * **shock** — with probability `p` per round, a hotspot burst moves a
//!   quarter of a random crash-live donor's load (whole tokens in
//!   discrete mode) to a random other crash-live node, as two load
//!   deltas applied before the round's flow computation. Shocks conserve
//!   the total load, so the balanced ideal is unchanged.
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

use crate::error::{BuildError, ParseError};
use crate::membership::{valid_word, Membership};
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

/// Control-thread fault state carried between rounds: the round's
/// drop/stale masks, the composed effective mask, and the accumulated
/// event counters. The crash channel's live words live in the epoch's
/// [`Membership`], which this state draws into. Lives in
/// [`crate::scheme_kernel::RoundScratch`], so the sequential executor
/// and the pool's control thread share one code path.
#[derive(Default)]
pub(crate) struct FaultState {
    /// The round's dropped-edge words (edgedrop channel only).
    drop: Vec<u64>,
    /// The round's stale-edge words (stale channel only), consumed by
    /// the apply passes.
    stale: Vec<u64>,
    /// The round's effective mask (edgedrop channel only).
    eff: Vec<u64>,
    /// Raw draw scratch for the bulk RNG sweeps.
    draws: Vec<u64>,
    /// Accumulated event counters.
    pub events: FaultEvents,
}

/// Whether bit `u` of the node words `live` is set.
#[inline]
fn live(live: &[u64], u: usize) -> bool {
    (live[u >> 6] >> (u & 63)) & 1 == 1
}

impl FaultState {
    /// Draws the round's drop and stale masks. Must run before the
    /// round's flow pass, in both executors.
    pub fn begin_round(&mut self, spec: &FaultSpec, round: u64, m: usize) {
        for (channel, salt, out) in [
            (spec.edgedrop, DROP_SALT, &mut self.drop),
            (spec.stale, STALE_SALT, &mut self.stale),
        ] {
            let Some(FaultChannel { p, seed }) = channel else {
                continue;
            };
            self.draws.resize(self.draws.len().max(m).max(1), 0);
            let key = salted_stream_key(seed, salt, round);
            crate::rng::fill_first_draws(key, 0, &mut self.draws[..m]);
            out.clear();
            out.resize(m.div_ceil(64).max(1), 0);
            for (e, &draw) in self.draws[..m].iter().enumerate() {
                out[e >> 6] |= u64::from(unit_f64(draw) < p) << (e & 63);
            }
        }
    }

    /// Draws the crash channel's live-node words for `round`'s epoch
    /// into `members.crash`, counting crashes and rejoins against the
    /// words it held (everything live before the first epoch). Call at
    /// every epoch boundary when the crash channel is on.
    pub fn draw_crash(&mut self, spec: &FaultSpec, round: u64, n: usize, members: &mut Membership) {
        let FaultChannel { p, seed } = spec.crash.expect("caller checked the crash channel");
        self.draws.resize(self.draws.len().max(n).max(1), 0);
        let key = salted_stream_key(seed, CRASH_SALT, round / EPOCH_LEN);
        crate::rng::fill_first_draws(key, 0, &mut self.draws[..n]);
        let live = &mut members.crash;
        let first = live.is_empty();
        live.resize(n.div_ceil(64).max(1), 0);
        for (w, old) in live.iter_mut().enumerate() {
            let valid = valid_word(w, n);
            let mut word = 0u64;
            let base = w * 64;
            for b in 0..64.min(n.saturating_sub(base)) {
                word |= u64::from(unit_f64(self.draws[base + b]) >= p) << b;
            }
            let was = if first { valid } else { *old };
            self.events.crashes += u64::from((was & !word).count_ones());
            self.events.rejoins += u64::from((!was & word & valid).count_ones());
            *old = word;
        }
    }

    /// The round's effective active-edge mask and stale words: `base`
    /// (`None` = every edge) minus the round's dropped edges, counting
    /// the dropped-while-active edges and the round's stale losses among
    /// the edges left active. Without the edgedrop channel the mask is
    /// `base` itself. Call once per round, after [`Self::begin_round`].
    pub fn compose_eff<'a>(
        &'a mut self,
        spec: &FaultSpec,
        m: usize,
        base: Option<&'a [u64]>,
    ) -> (Option<&'a [u64]>, Option<&'a [u64]>) {
        let dropping = spec.edgedrop.is_some();
        let staling = spec.stale.is_some();
        if dropping {
            self.eff.resize(m.div_ceil(64).max(1), 0);
        }
        if dropping || staling {
            for w in 0..m.div_ceil(64).max(1) {
                let mut word = base.map_or_else(|| valid_word(w, m), |words| words[w]);
                if dropping {
                    self.events.edges_dropped += u64::from((word & self.drop[w]).count_ones());
                    word &= !self.drop[w];
                    self.eff[w] = word;
                }
                if staling {
                    self.events.stale_edges += u64::from((word & self.stale[w]).count_ones());
                }
            }
        }
        let mask = if dropping { Some(&self.eff[..]) } else { base };
        (mask, staling.then_some(&self.stale[..]))
    }

    /// Rejection-samples a crash-live node id (any node without a crash
    /// channel) from `key`'s draw stream, starting at draw counter `k`,
    /// skipping `exclude`. Returns the node and the next unused counter;
    /// `None` after 128 rejections.
    fn pick_live(
        crash: Option<&[u64]>,
        key: u64,
        mut k: u64,
        n: usize,
        exclude: Option<usize>,
    ) -> Option<(usize, u64)> {
        for _ in 0..128 {
            let cand = (nth_u64(key, k) % n as u64) as usize;
            k += 1;
            if crash.is_none_or(|words| live(words, cand)) && Some(cand) != exclude {
                return Some((cand, k));
            }
        }
        None
    }

    /// The round's shock targets, if one fires: a `(donor, hotspot)` pair
    /// of distinct crash-live nodes (`crash` = the epoch's crash-live
    /// words, current for this round).
    fn shock_targets(
        spec: &FaultSpec,
        round: u64,
        n: usize,
        crash: &[u64],
    ) -> Option<(usize, usize)> {
        let FaultChannel { p, seed } = spec.shock?;
        let key = salted_stream_key(seed, SHOCK_SALT, round);
        if unit_f64(nth_u64(key, 0)) >= p {
            return None;
        }
        let crash = spec.crash.is_some().then_some(crash);
        let live_count = crash.map_or(n, |words| {
            words.iter().map(|w| w.count_ones() as usize).sum()
        });
        if live_count < 2 {
            return None;
        }
        let (hotspot, k) = Self::pick_live(crash, key, 1, n, None)?;
        let (donor, _) = Self::pick_live(crash, key, k, n, Some(hotspot))?;
        Some((donor, hotspot))
    }

    /// Plans the round's shock, if one fires and moves tokens: a quarter
    /// of the donor's load (`peek`; truncated to whole tokens in
    /// discrete mode) leaves the donor and lands on the hotspot, as two
    /// deltas pushed onto `deltas`, counted as one shock. `crash` is the
    /// epoch's crash-live words, current for this round.
    #[allow(clippy::too_many_arguments)] // one planner's full round context
    pub fn plan_shock(
        &mut self,
        spec: &FaultSpec,
        round: u64,
        n: usize,
        crash: &[u64],
        discrete: bool,
        peek: impl Fn(usize) -> f64,
        deltas: &mut Vec<(usize, f64)>,
    ) {
        let Some((donor, hotspot)) = Self::shock_targets(spec, round, n, crash) else {
            return;
        };
        let quarter = peek(donor) / 4.0;
        let amt = if discrete { quarter.trunc() } else { quarter };
        if amt != 0.0 {
            deltas.push((donor, -amt));
            deltas.push((hotspot, amt));
            self.events.shocks += 1;
        }
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
        let n = 36;
        let mut fs = FaultState::default();
        let mut members = Membership::default();
        for round in [0, 5, 16, 40] {
            if members.advance(round) {
                fs.draw_crash(&spec, round, n, &mut members);
            }
            let public = spec.live_nodes(round, n);
            for (v, &up) in public.iter().enumerate() {
                assert_eq!(live(&members.crash, v), up, "round {round} node {v}");
            }
        }
        // Crash events were counted at the two epoch transitions.
        assert!(fs.events.crashes > 0);
    }

    #[test]
    fn effective_mask_excludes_dead_and_dropped_edges() {
        let spec = FaultSpec::none().with_crash(0.3, 3).with_edgedrop(0.2, 5);
        let g = generators::torus2d(5, 5);
        let m = g.edge_count();
        let mut fs = FaultState::default();
        let mut members = Membership::default();
        fs.draw_crash(&spec, 0, g.node_count(), &mut members);
        members.rebuild(&g, true, None, None);
        fs.begin_round(&spec, 0, m);
        let drop = fs.drop.clone();
        let eff = fs
            .compose_eff(&spec, m, Some(members.edges()))
            .0
            .unwrap()
            .to_vec();
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
        let n = 36;
        let spec = FaultSpec::none().with_crash(0.3, 11).with_shock(0.5, 13);
        let mut fs = FaultState::default();
        let mut members = Membership::default();
        let mut fired = 0u32;
        for round in 0..200 {
            if members.advance(round) {
                fs.draw_crash(&spec, round, n, &mut members);
            }
            let crash = &members.crash;
            if let Some((donor, hotspot)) = FaultState::shock_targets(&spec, round, n, crash) {
                fired += 1;
                assert_ne!(donor, hotspot);
                assert!(live(crash, donor), "round {round}");
                assert!(live(crash, hotspot), "round {round}");
            }
        }
        // Rate 0.5 over 200 rounds: the count concentrates around 100.
        assert!((60..=140).contains(&fired), "{fired} shocks at rate 0.5");
        // Rate 0 never fires.
        let quiet = FaultSpec::none().with_shock(0.0, 13);
        assert!(FaultState::shock_targets(&quiet, 0, n, &[]).is_none());
        // A single-node graph cannot host a donor/hotspot pair.
        assert!(FaultState::shock_targets(&spec, 0, 1, &[1]).is_none());
    }

    #[test]
    fn shock_moves_a_quarter_as_two_deltas() {
        // Rate 1 on two nodes: every round fires, between nodes 0 and 1.
        let spec = FaultSpec::none().with_shock(1.0, 4);
        let mut fs = FaultState::default();
        let mut deltas = Vec::new();
        for (discrete, load, moved) in [(true, 7.0, 1.0), (true, -9.0, -2.0), (false, 7.0, 1.75)] {
            deltas.clear();
            fs.plan_shock(&spec, 0, 2, &[], discrete, |_| load, &mut deltas);
            let (donor, out) = deltas[0];
            let (hotspot, inflow) = deltas[1];
            assert_ne!(donor, hotspot);
            assert_eq!(
                (out, inflow),
                (-moved, moved),
                "discrete={discrete} load={load}"
            );
        }
        // A whole-token quarter of zero moves nothing and is not counted.
        deltas.clear();
        fs.plan_shock(&spec, 0, 2, &[], true, |_| -3.0, &mut deltas);
        assert!(deltas.is_empty());
        assert_eq!(fs.events.shocks, 3);
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
