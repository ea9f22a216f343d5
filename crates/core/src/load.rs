//! Deterministic dynamic-workload injection: per-round load deltas drawn
//! on the control thread, plus the windowed steady-state statistics that
//! replace "rounds to convergence" as the figure of merit for runs under
//! sustained traffic.
//!
//! This is the fourth statically dispatched axis of the scheme-kernel
//! layer (`FlowPass × ActivePlan × FaultSpec × LoadSpec`). Every
//! generator draws from a counter-indexed SplitMix64 stream keyed by
//! `(seed ⊕ kind-salt, round)` — the exact salting discipline of
//! [`crate::fault`], shared through [`crate::rng::salted_stream_key`] —
//! and the deltas are planned *and applied by the control thread before
//! the round's flow pass* (before the pool's first barrier), so dynamic
//! runs stay bit-identical sequential vs pooled at any thread count. The
//! four generators of a [`LoadSpec`]:
//!
//! * **poisson** — open-system arrivals and departures: each round draws
//!   two independent Poisson(`rate`) counts; every arrival adds one
//!   token at a uniformly random node and every departure removes one
//!   from a uniformly random node. The net per-round delta is generally
//!   nonzero, which the injected-total accounting in [`LoadEvents`]
//!   tracks so conservation checks still hold
//!   (`total == initial + injected`).
//! * **hotspot** — a periodic burst: every `period` rounds, `burst`
//!   tokens arrive at a fixed node (`node`, taken modulo the node count)
//!   and the same `burst` departs from a random *other* node, modeling a
//!   traffic spike that concentrates load without changing the total.
//! * **diurnal** — a deterministic day/night swing, no seed: round `r`
//!   injects `amp · sin(2π·r/period)` tokens (rounded to the nearest
//!   integer in discrete mode) at the rotating node `r mod n`, so the
//!   system alternates between surplus and deficit phases.
//! * **adversarial** — an injector that fights the balancer: every
//!   `period` rounds it scans the *current* loads, adds `burst` tokens
//!   on the most-loaded node, and drains `burst` from a random other
//!   node. The scan runs only on firing rounds, on the control thread.
//!
//! Generators compose with each other and with every fault channel
//! (churn + traffic together). Injection is oblivious to crash churn: a
//! token arriving at a downed node queues there until the node rejoins
//! (its frozen load still changes only through injection, never through
//! balancing flows).
//!
//! In scenario text the generators compose with `+`:
//! `load=poisson:0.5:7+hotspot:0:100:16:3`; see the grammar table in
//! [`crate::scenario`]. `load=none` (the default) takes exactly the
//! pre-load code paths — one predictable branch per round, which the
//! `sos_load_none` perf gate holds within 2% of the fault-free baseline.
//! A sustained `load=poisson` run adds no per-round sweep beyond the
//! generator draws: steady-state statistics come from the already-fused
//! per-round `max_dev` of [`crate::kernel::LoadStats`], accumulated by
//! [`SteadyTracker`] and reported as [`SteadyStats`] (mean/max/p99 over
//! the stop condition's window).

use crate::error::{BuildError, ParseError};
use crate::kernel::{BufF64, BufI64};
use crate::rng::{nth_u64, salted_stream_key, unit_f64};
use std::fmt;
use std::str::FromStr;

/// Per-kind seed salts so generators sharing one user seed decorrelate
/// (ASCII-styled, like the fault channels').
const POISSON_SALT: u64 = 0x706f_6973_736f_6e5f;
const HOTSPOT_SALT: u64 = 0x686f_7473_706f_745f;
const ADVERSE_SALT: u64 = 0x6164_7665_7273_655f;

/// Upper bound on the Poisson rate (expected events per round); keeps
/// the per-round draw loop short and the arithmetic exact.
pub const MAX_RATE: f64 = 1024.0;

/// Upper bound on burst sizes and the diurnal amplitude; keeps every
/// delta exactly representable in both `i64` and `f64`.
pub const MAX_BURST: i64 = 1_000_000_000;

/// Hard safety cap on one round's Poisson count (the rate bound makes
/// reaching it astronomically unlikely).
const MAX_EVENTS_PER_DRAW: u64 = 4096;

/// The Poisson arrival/departure generator: `load=poisson:RATE:SEED`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoissonLoad {
    /// Expected arrivals per round (= expected departures per round),
    /// a finite value in `[0, MAX_RATE]`.
    pub rate: f64,
    /// Seed of the generator's counter-indexed draw stream.
    pub seed: u64,
}

/// The periodic hotspot burst: `load=hotspot:NODE:BURST:PERIOD:SEED`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HotspotLoad {
    /// Target node of the burst (taken modulo the node count).
    pub node: usize,
    /// Tokens moved per firing, in `[1, MAX_BURST]`.
    pub burst: i64,
    /// Firing period in rounds (fires when `round % period == 0`).
    pub period: u64,
    /// Seed of the donor-node draw stream.
    pub seed: u64,
}

/// The deterministic diurnal swing: `load=diurnal:AMP:PERIOD`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiurnalLoad {
    /// Peak injection amplitude in tokens, a finite value in
    /// `[0, MAX_BURST]`.
    pub amp: f64,
    /// Period of the sine swing in rounds.
    pub period: u64,
}

/// The adversarial most-loaded-region injector:
/// `load=adversarial:BURST:PERIOD:SEED`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdversarialLoad {
    /// Tokens piled onto the current argmax node per firing, in
    /// `[1, MAX_BURST]`.
    pub burst: i64,
    /// Firing period in rounds.
    pub period: u64,
    /// Seed of the donor-node draw stream.
    pub seed: u64,
}

/// A deterministic dynamic-workload plan: which load generators are
/// active and with what parameters. See the module docs for the
/// semantics of each generator. [`LoadSpec::none`] (the default)
/// injects nothing and keeps every run on the pre-load code paths.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LoadSpec {
    /// Poisson arrivals/departures at random nodes.
    pub poisson: Option<PoissonLoad>,
    /// Periodic burst onto a fixed node.
    pub hotspot: Option<HotspotLoad>,
    /// Deterministic sinusoidal surplus/deficit swing.
    pub diurnal: Option<DiurnalLoad>,
    /// Periodic burst onto the currently most-loaded node.
    pub adversarial: Option<AdversarialLoad>,
}

impl LoadSpec {
    /// The empty plan: no injection, pre-load code paths.
    pub fn none() -> Self {
        Self::default()
    }

    /// Returns `true` if no generator is active.
    pub fn is_none(&self) -> bool {
        self.poisson.is_none()
            && self.hotspot.is_none()
            && self.diurnal.is_none()
            && self.adversarial.is_none()
    }

    /// Adds a Poisson arrival/departure generator.
    pub fn with_poisson(mut self, rate: f64, seed: u64) -> Self {
        self.poisson = Some(PoissonLoad { rate, seed });
        self
    }

    /// Adds a periodic hotspot burst.
    pub fn with_hotspot(mut self, node: usize, burst: i64, period: u64, seed: u64) -> Self {
        self.hotspot = Some(HotspotLoad {
            node,
            burst,
            period,
            seed,
        });
        self
    }

    /// Adds a deterministic diurnal swing.
    pub fn with_diurnal(mut self, amp: f64, period: u64) -> Self {
        self.diurnal = Some(DiurnalLoad { amp, period });
        self
    }

    /// Adds an adversarial most-loaded-node injector.
    pub fn with_adversarial(mut self, burst: i64, period: u64, seed: u64) -> Self {
        self.adversarial = Some(AdversarialLoad {
            burst,
            period,
            seed,
        });
        self
    }

    /// Validates every generator's parameters (finite rates and
    /// amplitudes in range, positive bursts and periods).
    ///
    /// # Errors
    ///
    /// [`BuildError::InvalidLoad`] naming the offending generator.
    pub fn check(&self) -> Result<(), BuildError> {
        let bad = |why: String| Err(BuildError::InvalidLoad(why));
        if let Some(PoissonLoad { rate, .. }) = self.poisson {
            if !rate.is_finite() || !(0.0..=MAX_RATE).contains(&rate) {
                return bad(format!("poisson rate {rate} outside [0, {MAX_RATE}]"));
            }
        }
        if let Some(HotspotLoad { burst, period, .. }) = self.hotspot {
            if !(1..=MAX_BURST).contains(&burst) {
                return bad(format!("hotspot burst {burst} outside [1, {MAX_BURST}]"));
            }
            if period == 0 {
                return bad("hotspot period must be positive".into());
            }
        }
        if let Some(DiurnalLoad { amp, period }) = self.diurnal {
            if !amp.is_finite() || !(0.0..=MAX_BURST as f64).contains(&amp) {
                return bad(format!("diurnal amplitude {amp} outside [0, {MAX_BURST}]"));
            }
            if period == 0 {
                return bad("diurnal period must be positive".into());
            }
        }
        if let Some(AdversarialLoad { burst, period, .. }) = self.adversarial {
            if !(1..=MAX_BURST).contains(&burst) {
                return bad(format!(
                    "adversarial burst {burst} outside [1, {MAX_BURST}]"
                ));
            }
            if period == 0 {
                return bad("adversarial period must be positive".into());
            }
        }
        Ok(())
    }
}

impl fmt::Display for LoadSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_none() {
            return write!(f, "none");
        }
        let mut sep = "";
        if let Some(PoissonLoad { rate, seed }) = self.poisson {
            write!(f, "poisson:{rate}:{seed}")?;
            sep = "+";
        }
        if let Some(HotspotLoad {
            node,
            burst,
            period,
            seed,
        }) = self.hotspot
        {
            write!(f, "{sep}hotspot:{node}:{burst}:{period}:{seed}")?;
            sep = "+";
        }
        if let Some(DiurnalLoad { amp, period }) = self.diurnal {
            write!(f, "{sep}diurnal:{amp}:{period}")?;
            sep = "+";
        }
        if let Some(AdversarialLoad {
            burst,
            period,
            seed,
        }) = self.adversarial
        {
            write!(f, "{sep}adversarial:{burst}:{period}:{seed}")?;
        }
        Ok(())
    }
}

impl FromStr for LoadSpec {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s == "none" {
            return Ok(Self::none());
        }
        let bad = |why: String| ParseError::new(format!("in load '{s}': {why}"));
        fn num<T: FromStr>(field: &str, what: &str) -> Result<T, String> {
            field.parse().map_err(|_| format!("bad {what} '{field}'"))
        }
        let mut spec = Self::none();
        for part in s.split('+') {
            let fields: Vec<&str> = part.split(':').collect();
            let kind = fields[0];
            let arity = |shape: &str| bad(format!("'{part}' should be {shape}"));
            match kind {
                "poisson" => {
                    let [_, rate, seed] = fields[..] else {
                        return Err(arity("poisson:<rate>:<seed>"));
                    };
                    if spec.poisson.is_some() {
                        return Err(bad("duplicate load kind 'poisson'".into()));
                    }
                    spec.poisson = Some(PoissonLoad {
                        rate: num(rate, "rate").map_err(bad)?,
                        seed: num(seed, "seed").map_err(bad)?,
                    });
                }
                "hotspot" => {
                    let [_, node, burst, period, seed] = fields[..] else {
                        return Err(arity("hotspot:<node>:<burst>:<period>:<seed>"));
                    };
                    if spec.hotspot.is_some() {
                        return Err(bad("duplicate load kind 'hotspot'".into()));
                    }
                    spec.hotspot = Some(HotspotLoad {
                        node: num(node, "node").map_err(bad)?,
                        burst: num(burst, "burst").map_err(bad)?,
                        period: num(period, "period").map_err(bad)?,
                        seed: num(seed, "seed").map_err(bad)?,
                    });
                }
                "diurnal" => {
                    let [_, amp, period] = fields[..] else {
                        return Err(arity("diurnal:<amplitude>:<period>"));
                    };
                    if spec.diurnal.is_some() {
                        return Err(bad("duplicate load kind 'diurnal'".into()));
                    }
                    spec.diurnal = Some(DiurnalLoad {
                        amp: num(amp, "amplitude").map_err(bad)?,
                        period: num(period, "period").map_err(bad)?,
                    });
                }
                "adversarial" => {
                    let [_, burst, period, seed] = fields[..] else {
                        return Err(arity("adversarial:<burst>:<period>:<seed>"));
                    };
                    if spec.adversarial.is_some() {
                        return Err(bad("duplicate load kind 'adversarial'".into()));
                    }
                    spec.adversarial = Some(AdversarialLoad {
                        burst: num(burst, "burst").map_err(bad)?,
                        period: num(period, "period").map_err(bad)?,
                        seed: num(seed, "seed").map_err(bad)?,
                    });
                }
                other => {
                    return Err(bad(format!(
                        "unknown load kind '{other}' \
                         (poisson, hotspot, diurnal, adversarial)"
                    )))
                }
            }
        }
        // The same range checks as `LoadSpec::check`, surfaced at parse
        // time with the line-anchored message shape of scenario errors.
        if let Err(BuildError::InvalidLoad(why)) = spec.check() {
            return Err(bad(why));
        }
        Ok(spec)
    }
}

/// Counts and totals of the injection a run actually experienced,
/// reported in [`crate::RunReport::load`]. All zero for `load=none`
/// runs. The counters accumulate over the simulator's lifetime (across
/// repeated `run_until` calls on the same [`crate::Simulator`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LoadEvents {
    /// Positive injection events applied (Poisson arrivals, burst
    /// inflows, diurnal surplus rounds).
    pub arrivals: u64,
    /// Negative injection events applied (Poisson departures, burst
    /// outflows, diurnal deficit rounds).
    pub departures: u64,
    /// Cumulative net injected tokens: the exact amount by which the
    /// live total exceeds the initial total, so conservation checks
    /// become `total == initial + injected`. Integer-valued in discrete
    /// mode (every delta is a whole token count).
    pub injected: f64,
}

/// Samples a Poisson(`rate`) count from `key`'s draw stream starting at
/// counter `*k` (advanced past the draws used): the number of unit-rate
/// exponential inter-arrival gaps that fit into `rate`, accumulated in
/// log space so large rates stay stable.
fn poisson_count(key: u64, k: &mut u64, rate: f64) -> u64 {
    let mut count = 0u64;
    let mut acc = 0.0f64;
    loop {
        let u = unit_f64(nth_u64(key, *k));
        *k += 1;
        // u ∈ [0, 1) so 1 − u ∈ (0, 1] and the log is finite and ≤ 0.
        acc -= (1.0 - u).ln();
        if acc > rate || count >= MAX_EVENTS_PER_DRAW {
            return count;
        }
        count += 1;
    }
}

/// Draws a uniformly random node `≠ exclude` from one stream word
/// (exact distinct sampling, no rejection loop); requires `n ≥ 2`.
fn other_node(word: u64, n: usize, exclude: usize) -> usize {
    let d = (word % (n as u64 - 1)) as usize;
    if d >= exclude {
        d + 1
    } else {
        d
    }
}

/// The control thread's view of the simulation's loads while it plans a
/// round: reads for the planners' `peek`, and the one path by which every
/// control-thread load edit — shocks, churn handoffs and arrivals, and
/// injection — reaches the loads. Works over any [`BufI64`]/[`BufF64`]
/// storage: the one-thread executor's `Cell` slices, the pool's atomic
/// slots (before the round's first barrier, with the workers parked, so
/// `Relaxed` is exclusive access), and the compact `i32`/`f32` twins of
/// either. The storage the mode does not use is empty.
pub(crate) struct LoadView<'a, LI, LF> {
    /// Whether the loads are whole tokens (`ints`) or continuous
    /// (`floats`).
    pub discrete: bool,
    /// Discrete loads.
    pub ints: &'a LI,
    /// Continuous loads.
    pub floats: &'a LF,
}

impl<LI: BufI64, LF: BufF64> LoadView<'_, LI, LF> {
    /// Node `i`'s current load as `f64`.
    pub fn get(&self, i: usize) -> f64 {
        if self.discrete {
            self.ints.get(i) as f64
        } else {
            self.floats.get(i)
        }
    }

    /// Adds each `(node, delta)` to the node's load, in order, and
    /// empties `deltas`. Discrete deltas are whole tokens by
    /// construction, so the cast is exact (for loads within ±2^53, where
    /// `peek` is exact too); the read/add/write sequence is the same
    /// arithmetic in the same order on every storage, which keeps pooled
    /// runs bit-identical to one-thread ones.
    pub fn apply(&self, deltas: &mut Vec<(usize, f64)>) {
        for (node, delta) in deltas.drain(..) {
            if self.discrete {
                self.ints.set(node, self.ints.get(node) + delta as i64);
            } else {
                self.floats.set(node, self.floats.get(node) + delta);
            }
        }
    }
}

/// Control-thread injection state carried between rounds: the
/// accumulated event counters. Lives in
/// [`crate::scheme_kernel::RoundScratch`], so the sequential executor
/// and the pool's control thread share one code path.
#[derive(Default)]
pub(crate) struct LoadState {
    /// Accumulated event counters and the injected-total account.
    pub events: LoadEvents,
}

impl LoadState {
    /// Plans one round's injection events: draws every active
    /// generator's deltas from its counter-indexed stream and pushes them
    /// onto `deltas` (with the event accounting). Deltas are exact
    /// whole-token values in discrete mode (the diurnal generator rounds
    /// at plan time). `peek` reads a node's current load — it is only
    /// called on adversarial firing rounds. Control-thread only; must run
    /// before the round's flow pass in both executors.
    pub fn plan_round(
        &mut self,
        spec: &LoadSpec,
        round: u64,
        n: usize,
        discrete: bool,
        peek: impl Fn(usize) -> f64,
        deltas: &mut Vec<(usize, f64)>,
    ) {
        let events = &mut self.events;
        let mut push = |node: usize, delta: f64| {
            if delta > 0.0 {
                events.arrivals += 1;
            } else {
                events.departures += 1;
            }
            events.injected += delta;
            deltas.push((node, delta));
        };
        if let Some(PoissonLoad { rate, seed }) = spec.poisson {
            if rate > 0.0 {
                let key = salted_stream_key(seed, POISSON_SALT, round);
                let mut k = 0u64;
                let arrivals = poisson_count(key, &mut k, rate);
                for _ in 0..arrivals {
                    let node = (nth_u64(key, k) % n as u64) as usize;
                    k += 1;
                    push(node, 1.0);
                }
                let departures = poisson_count(key, &mut k, rate);
                for _ in 0..departures {
                    let node = (nth_u64(key, k) % n as u64) as usize;
                    k += 1;
                    push(node, -1.0);
                }
            }
        }
        if let Some(HotspotLoad {
            node,
            burst,
            period,
            seed,
        }) = spec.hotspot
        {
            if round.is_multiple_of(period) && n > 1 {
                let target = node % n;
                let key = salted_stream_key(seed, HOTSPOT_SALT, round);
                let donor = other_node(nth_u64(key, 0), n, target);
                push(target, burst as f64);
                push(donor, -(burst as f64));
            }
        }
        if let Some(DiurnalLoad { amp, period }) = spec.diurnal {
            let phase = (round % period) as f64 / period as f64;
            let raw = amp * (std::f64::consts::TAU * phase).sin();
            let delta = if discrete { raw.round() } else { raw };
            if delta != 0.0 {
                push((round % n as u64) as usize, delta);
            }
        }
        if let Some(AdversarialLoad {
            burst,
            period,
            seed,
        }) = spec.adversarial
        {
            if round.is_multiple_of(period) && n > 1 {
                let mut hot = 0usize;
                let mut best = peek(0);
                for i in 1..n {
                    let x = peek(i);
                    if x > best {
                        best = x;
                        hot = i;
                    }
                }
                let key = salted_stream_key(seed, ADVERSE_SALT, round);
                let donor = other_node(nth_u64(key, 0), n, hot);
                push(hot, burst as f64);
                push(donor, -(burst as f64));
            }
        }
    }
}

/// Windowed steady-state deviation statistics of a dynamic run,
/// reported in [`crate::RunReport::steady`] by the `steady:`/`horizon:`
/// stop modes: the mean, max, and 99th percentile of the fused
/// per-round `max_dev` (from [`crate::kernel::LoadStats`], so no extra
/// per-round sweep) over the window the run ended on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SteadyStats {
    /// Rounds the statistics cover (the trailing window for `steady:`,
    /// the whole horizon for `horizon:`; shorter if the run ended
    /// early).
    pub window: usize,
    /// Mean per-round `max_dev` over the window.
    pub mean_dev: f64,
    /// Largest per-round `max_dev` over the window.
    pub max_dev: f64,
    /// 99th-percentile per-round `max_dev` over the window.
    pub p99_dev: f64,
}

/// Accumulates the per-round fused `max_dev` for the steady-state stop
/// modes and computes [`SteadyStats`] at the end of the run.
///
/// In *steady* mode the ring holds the last `2·window` samples and
/// [`SteadyTracker::is_steady`] compares the trailing window's mean
/// against the preceding window's: once the newer window stops
/// improving on the older one by more than 1%, the deviation process is
/// declared steady. In *horizon* mode the ring holds the whole horizon
/// and the steadiness check never fires. Both maintain the window sums
/// incrementally (O(1) per round).
#[derive(Clone)]
pub(crate) struct SteadyTracker {
    /// The statistics window (`W` for steady, the horizon for horizon).
    window: usize,
    /// Sample ring: capacity `2W` (steady) or `W` (horizon).
    ring: Vec<f64>,
    pos: usize,
    len: usize,
    /// Running sum of the newest `window` samples.
    newer_sum: f64,
    /// Running sum of the preceding `window` samples (steady mode).
    older_sum: f64,
    /// Whether the steadiness trigger is evaluated (steady mode).
    check: bool,
}

impl SteadyTracker {
    /// A tracker for `stop=steady:window`.
    pub fn steady(window: usize) -> Self {
        Self::with_capacity(window, 2 * window, true)
    }

    /// A tracker for `stop=horizon:rounds`.
    pub fn horizon(rounds: usize) -> Self {
        Self::with_capacity(rounds, rounds, false)
    }

    /// Whether this tracker evaluates the steadiness trigger (steady
    /// mode) rather than recording a fixed horizon.
    pub fn checks_steadiness(&self) -> bool {
        self.check
    }

    /// The ring and running sums as raw parts
    /// `(window, ring, pos, len, newer_sum, older_sum, check)` for
    /// checkpointing.
    #[allow(clippy::type_complexity)]
    pub fn raw_parts(&self) -> (usize, &[f64], usize, usize, f64, f64, bool) {
        (
            self.window,
            &self.ring,
            self.pos,
            self.len,
            self.newer_sum,
            self.older_sum,
            self.check,
        )
    }

    /// Rebuilds a tracker from checkpointed [`Self::raw_parts`]; returns
    /// `None` when the parts are not a valid ring.
    pub fn from_raw_parts(
        window: usize,
        ring: Vec<f64>,
        pos: usize,
        len: usize,
        newer_sum: f64,
        older_sum: f64,
        check: bool,
    ) -> Option<Self> {
        if ring.is_empty() || pos >= ring.len() || len > ring.len() || window == 0 {
            return None;
        }
        Some(Self {
            window,
            ring,
            pos,
            len,
            newer_sum,
            older_sum,
            check,
        })
    }

    fn with_capacity(window: usize, capacity: usize, check: bool) -> Self {
        Self {
            window,
            ring: vec![0.0; capacity.max(1)],
            pos: 0,
            len: 0,
            newer_sum: 0.0,
            older_sum: 0.0,
            check,
        }
    }

    /// Feeds one round's fused `max_dev`.
    pub fn push(&mut self, max_dev: f64) {
        let cap = self.ring.len();
        if self.len == cap {
            // The slot about to be overwritten leaves the older window
            // (steady mode) or the horizon window.
            self.older_sum -= self.ring[self.pos];
        }
        if self.len >= self.window {
            // The sample pushed `window` rounds ago moves newer → older.
            let moving = self.ring[(self.pos + cap - self.window) % cap];
            self.newer_sum -= moving;
            self.older_sum += moving;
        }
        self.ring[self.pos] = max_dev;
        self.newer_sum += max_dev;
        self.pos = (self.pos + 1) % cap;
        self.len = (self.len + 1).min(cap);
    }

    /// Whether the deviation process has reached steady state: the ring
    /// is full and the trailing window's mean no longer improves on the
    /// preceding window's by more than 1%. Always `false` in horizon
    /// mode.
    pub fn is_steady(&self) -> bool {
        self.check && self.len == self.ring.len() && self.newer_sum >= 0.99 * self.older_sum
    }

    /// The statistics over the trailing window (recomputed exactly from
    /// the stored samples, not the running sums). `None` before any
    /// sample arrived.
    pub fn stats(&self) -> Option<SteadyStats> {
        if self.len == 0 {
            return None;
        }
        let cap = self.ring.len();
        let count = self.len.min(self.window);
        let mut samples: Vec<f64> = (0..count)
            .map(|back| self.ring[(self.pos + cap - 1 - back) % cap])
            .collect();
        samples.sort_by(f64::total_cmp);
        let mean = samples.iter().sum::<f64>() / count as f64;
        let p99_idx = ((count as f64 * 0.99).ceil() as usize).clamp(1, count) - 1;
        Some(SteadyStats {
            window: count,
            mean_dev: mean,
            max_dev: samples[count - 1],
            p99_dev: samples[p99_idx],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicI64, Ordering::Relaxed};

    /// One round's planned deltas.
    fn plan(
        state: &mut LoadState,
        spec: &LoadSpec,
        round: u64,
        n: usize,
        discrete: bool,
        peek: impl Fn(usize) -> f64,
    ) -> Vec<(usize, f64)> {
        let mut deltas = Vec::new();
        state.plan_round(spec, round, n, discrete, peek, &mut deltas);
        deltas
    }

    #[test]
    fn display_roundtrip() {
        for spec in [
            LoadSpec::none(),
            LoadSpec::none().with_poisson(0.5, 7),
            LoadSpec::none().with_hotspot(3, 100, 16, 9),
            LoadSpec::none().with_diurnal(8.5, 64),
            LoadSpec::none().with_adversarial(50, 32, 5),
            LoadSpec::none()
                .with_poisson(2.0, 1)
                .with_hotspot(0, 10, 4, 2)
                .with_diurnal(3.0, 48)
                .with_adversarial(7, 8, 4),
        ] {
            let text = spec.to_string();
            assert_eq!(text.parse::<LoadSpec>().unwrap(), spec, "{text}");
        }
        assert_eq!(LoadSpec::none().to_string(), "none");
        assert_eq!(
            LoadSpec::none().with_poisson(0.25, 9).to_string(),
            "poisson:0.25:9"
        );
    }

    #[test]
    fn parse_errors_carry_context() {
        for (text, needle) in [
            ("poisson:0.1", "should be poisson:<rate>:<seed>"),
            ("poisson:0.1:2:3", "should be poisson:<rate>:<seed>"),
            ("poisson:x:1", "bad rate"),
            ("poisson:-0.5:1", "outside [0, 1024]"),
            ("poisson:nan:1", "outside [0, 1024]"),
            ("poisson:0.1:z", "bad seed"),
            (
                "hotspot:0:5:4",
                "should be hotspot:<node>:<burst>:<period>:<seed>",
            ),
            ("hotspot:0:0:4:1", "outside [1, 1000000000]"),
            ("hotspot:0:5:0:1", "period must be positive"),
            ("diurnal:2", "should be diurnal:<amplitude>:<period>"),
            ("diurnal:inf:4", "outside [0, 1000000000]"),
            ("diurnal:2:0", "period must be positive"),
            (
                "adversarial:5:4",
                "should be adversarial:<burst>:<period>:<seed>",
            ),
            ("adversarial:-1:4:1", "outside [1, 1000000000]"),
            ("meteor:0.1:1", "unknown load kind"),
            ("poisson:0.1:1+poisson:0.2:2", "duplicate load kind"),
        ] {
            let err = text.parse::<LoadSpec>().unwrap_err();
            assert!(
                err.message.contains(needle),
                "{text}: {} should contain {needle}",
                err.message
            );
        }
    }

    #[test]
    fn check_rejects_out_of_range_parameters() {
        assert!(LoadSpec::none().check().is_ok());
        assert!(LoadSpec::none().with_poisson(0.0, 1).check().is_ok());
        assert!(LoadSpec::none().with_poisson(MAX_RATE, 1).check().is_ok());
        let err = LoadSpec::none().with_poisson(-1.0, 1).check().unwrap_err();
        assert!(matches!(err, BuildError::InvalidLoad(_)));
        assert!(err.to_string().contains("poisson"));
        assert!(LoadSpec::none().with_poisson(f64::NAN, 1).check().is_err());
        assert!(LoadSpec::none().with_hotspot(0, 0, 4, 1).check().is_err());
        assert!(LoadSpec::none().with_hotspot(0, 5, 0, 1).check().is_err());
        assert!(LoadSpec::none().with_diurnal(-2.0, 4).check().is_err());
        assert!(LoadSpec::none().with_diurnal(2.0, 0).check().is_err());
        assert!(LoadSpec::none()
            .with_adversarial(MAX_BURST + 1, 4, 1)
            .check()
            .is_err());
        assert!(LoadSpec::none().with_adversarial(5, 0, 1).check().is_err());
    }

    #[test]
    fn poisson_plan_is_deterministic_and_rate_plausible() {
        let spec = LoadSpec::none().with_poisson(2.0, 11);
        let mut a = LoadState::default();
        let mut b = LoadState::default();
        let mut arrivals = 0u64;
        for round in 0..200 {
            let da = plan(&mut a, &spec, round, 36, true, |_| 0.0);
            let db = plan(&mut b, &spec, round, 36, true, |_| 0.0);
            assert_eq!(da, db, "round {round}");
            arrivals = a.events.arrivals;
        }
        // Rate 2 over 200 rounds: the arrival count concentrates near 400.
        assert!(
            (280..=520).contains(&arrivals),
            "{arrivals} arrivals at rate 2"
        );
        // Injected stays integral and equals arrivals − departures.
        assert_eq!(
            a.events.injected,
            a.events.arrivals as f64 - a.events.departures as f64
        );
        // Rate 0 never fires.
        let quiet = LoadSpec::none().with_poisson(0.0, 11);
        let mut c = LoadState::default();
        assert!(plan(&mut c, &quiet, 0, 36, true, |_| 0.0).is_empty());
    }

    #[test]
    fn hotspot_fires_on_period_and_conserves() {
        let spec = LoadSpec::none().with_hotspot(40, 25, 8, 3);
        let mut state = LoadState::default();
        let n = 16;
        for round in 0..32 {
            let deltas = plan(&mut state, &spec, round, n, true, |_| 0.0);
            if round % 8 == 0 {
                assert_eq!(deltas.len(), 2, "round {round}");
                let (target, inflow) = deltas[0];
                let (donor, outflow) = deltas[1];
                assert_eq!(target, 40 % n, "node is taken modulo n");
                assert_eq!(inflow, 25.0);
                assert_eq!(outflow, -25.0);
                assert_ne!(donor, target);
            } else {
                assert!(deltas.is_empty(), "round {round}");
            }
        }
        assert_eq!(state.events.injected, 0.0, "bursts conserve the total");
        assert_eq!(state.events.arrivals, 4);
        assert_eq!(state.events.departures, 4);
    }

    #[test]
    fn diurnal_swings_and_rounds_in_discrete_mode() {
        let spec = LoadSpec::none().with_diurnal(10.0, 8);
        let mut state = LoadState::default();
        let mut saw_surplus = false;
        let mut saw_deficit = false;
        for round in 0..8 {
            for (_, delta) in plan(&mut state, &spec, round, 4, true, |_| 0.0) {
                assert_eq!(delta, delta.round(), "discrete deltas are integral");
                saw_surplus |= delta > 0.0;
                saw_deficit |= delta < 0.0;
            }
        }
        assert!(saw_surplus && saw_deficit, "a full period swings both ways");
        // A full sine period integrates to (near) zero injected load.
        assert_eq!(state.events.injected, 0.0);
        // Continuous mode keeps the fractional amplitude.
        let mut c = LoadState::default();
        let (node, delta) = plan(&mut c, &spec, 1, 4, false, |_| 0.0)[0];
        assert_eq!(node, 1, "delta lands on the rotating node");
        assert!((delta - 10.0 * (std::f64::consts::TAU / 8.0).sin()).abs() < 1e-12);
    }

    #[test]
    fn adversarial_targets_the_most_loaded_node() {
        let spec = LoadSpec::none().with_adversarial(30, 4, 7);
        let loads = [5.0, 80.0, 2.0, 80.0, 1.0];
        let mut state = LoadState::default();
        let deltas = plan(&mut state, &spec, 0, loads.len(), true, |i| loads[i]);
        let (hot, inflow) = deltas[0];
        let (donor, outflow) = deltas[1];
        assert_eq!(hot, 1, "first argmax wins ties");
        assert_eq!(inflow, 30.0);
        assert_eq!(outflow, -30.0);
        assert_ne!(donor, hot);
        // Off-period rounds stay quiet (and never touch `peek`).
        assert!(plan(&mut state, &spec, 1, loads.len(), true, |_| unreachable!()).is_empty());
    }

    #[test]
    fn applied_deltas_match_across_representations() {
        let spec = LoadSpec::none()
            .with_poisson(1.5, 3)
            .with_hotspot(2, 10, 2, 4);
        let n = 9;
        let mut seq = vec![100i64; n];
        let atomics: Vec<AtomicI64> = (0..n).map(|_| AtomicI64::new(100)).collect();
        let mut state = LoadState::default();
        for round in 0..24 {
            let deltas = plan(&mut state, &spec, round, n, true, |i| seq[i] as f64);
            let floats = &crate::kernel::CellsF64(&[]);
            let cells = &crate::kernel::cells_i64(&mut seq);
            let slots = &crate::kernel::AtomicsI64(&atomics);
            LoadView {
                discrete: true,
                ints: cells,
                floats,
            }
            .apply(&mut deltas.clone());
            LoadView {
                discrete: true,
                ints: slots,
                floats,
            }
            .apply(&mut deltas.clone());
        }
        let pooled: Vec<i64> = atomics.iter().map(|a| a.load(Relaxed)).collect();
        assert_eq!(seq, pooled);
        // The injected account matches the realized totals exactly.
        let total: i64 = seq.iter().sum();
        assert_eq!(total as f64, 100.0 * n as f64 + state.events.injected);
    }

    #[test]
    fn steady_tracker_detects_flat_windows_and_reports_stats() {
        let mut t = SteadyTracker::steady(4);
        // Steep decay: every newer window improves by far more than 1%.
        for x in [100.0, 80.0, 60.0, 40.0, 20.0, 10.0, 5.0, 2.0] {
            t.push(x);
            assert!(!t.is_steady(), "still improving at {x}");
        }
        // Flat tail: the trigger compares the newest window against the
        // one before it, so it trips only once *both* windows are flat —
        // after 2·window − 1 flat rounds here (the older window still
        // holds decaying samples until then).
        for _ in 0..6 {
            t.push(2.0);
            assert!(!t.is_steady(), "older window still decaying");
        }
        t.push(2.0);
        assert!(t.is_steady());
        let stats = t.stats().unwrap();
        assert_eq!(stats.window, 4);
        assert_eq!(stats.mean_dev, 2.0);
        assert_eq!(stats.max_dev, 2.0);
        assert_eq!(stats.p99_dev, 2.0);
    }

    #[test]
    fn horizon_tracker_covers_the_whole_run() {
        let mut t = SteadyTracker::horizon(10);
        for i in 0..10 {
            t.push(i as f64);
            assert!(!t.is_steady(), "horizon mode never self-stops");
        }
        let stats = t.stats().unwrap();
        assert_eq!(stats.window, 10);
        assert_eq!(stats.mean_dev, 4.5);
        assert_eq!(stats.max_dev, 9.0);
        assert_eq!(stats.p99_dev, 9.0);
        // A short run reports over what it saw.
        let mut t = SteadyTracker::horizon(10);
        t.push(3.0);
        t.push(5.0);
        let stats = t.stats().unwrap();
        assert_eq!((stats.window, stats.mean_dev, stats.max_dev), (2, 4.0, 5.0));
        assert!(SteadyTracker::horizon(5).stats().is_none());
    }
}
