//! The epoch's membership: which nodes and edges take part in balancing.
//!
//! A node takes part in an epoch iff it is **crash-live** (the crash
//! channel of [`crate::fault`] did not take it down for the epoch) and
//! **churn-active** (the churn overlay of [`crate::churn`] holds a
//! machine in its slot). An edge takes part iff both of its endpoints
//! do. The two inputs differ only in what happens to a node's load when
//! it stops taking part: a crash freezes the load on the node until it
//! rejoins, a churn departure hands the load off to its active
//! neighbors. Neither input changes the CSR arrays; a node that does not
//! take part simply has every incident edge masked out of the flow pass.
//!
//! [`Membership`] holds both inputs and everything derived from them.
//! The crash words are drawn per epoch by the fault state; the churn
//! overlay is advanced and checkpointed by the churn state and passed in.
//! At each [`EPOCH_LEN`] boundary, once both inputs are current,
//! [`Membership::rebuild`] derives:
//!
//! * the participating node words (crash-live ∧ churn-active);
//! * the edge mask of edges whose two endpoints both participate;
//! * the sweep family (color classes or round-robin matchings) repaired
//!   against the participating nodes, re-derived from the pristine family
//!   each epoch ([`matching::repair_matching`] re-covers freed nodes,
//!   [`matching::mask_dead_edges`] only masks out).
//!
//! Every active plan reads this one source: diffusion rounds use the
//! edge mask, sweep rounds the repaired family, random-matching rounds
//! the drawn matching intersected with the edge mask.

use sodiff_graph::{matching, Graph, NodeId};

use crate::fault::EPOCH_LEN;

/// All bits of mask word `w` that correspond to a valid id below `len`.
#[inline]
pub(crate) fn valid_word(w: usize, len: usize) -> u64 {
    let base = w * 64;
    if base + 64 <= len {
        u64::MAX
    } else if base >= len {
        0
    } else {
        (1u64 << (len - base)) - 1
    }
}

/// The epoch's membership; see the module docs. Lives in
/// [`crate::scheme_kernel::RoundScratch`] and is used only while a crash
/// channel or the churn axis is on.
#[derive(Default)]
pub(crate) struct Membership {
    /// Epoch the derived masks describe (`None` before the first round).
    epoch: Option<u64>,
    /// The crash channel's live-node words for the epoch, drawn by
    /// [`crate::fault::FaultState::draw_crash`] (empty without a crash
    /// channel).
    pub crash: Vec<u64>,
    /// Participating node words: crash-live ∧ churn-active.
    nodes: Vec<u64>,
    /// Edges whose two endpoints both participate.
    edges: Vec<u64>,
    /// The sweep family repaired against `nodes` (sweep plans only).
    repaired: Vec<Vec<u64>>,
}

impl Membership {
    /// Moves to `round`'s epoch; returns `true` if that opens a new epoch
    /// (the crash draw, churn transition and [`Membership::rebuild`] are
    /// then due).
    pub fn advance(&mut self, round: u64) -> bool {
        let epoch = round / EPOCH_LEN;
        let fresh = self.epoch != Some(epoch);
        self.epoch = Some(epoch);
        fresh
    }

    /// Re-derives the participating nodes, the edge mask and the repaired
    /// `sweep` family from the crash words (if `crash`) and the churn
    /// overlay words `churn` (if the churn axis is on).
    pub fn rebuild(
        &mut self,
        graph: &Graph,
        crash: bool,
        churn: Option<&[u64]>,
        sweep: Option<(&[Vec<u64>], bool)>,
    ) {
        let n = graph.node_count();
        self.nodes.clear();
        self.nodes.extend((0..n.div_ceil(64).max(1)).map(|w| {
            let mut word = valid_word(w, n);
            if crash {
                word &= self.crash[w];
            }
            if let Some(active) = churn {
                word &= active[w];
            }
            word
        }));
        self.edges.clear();
        self.edges.resize(graph.edge_count().div_ceil(64).max(1), 0);
        for (e, &(u, v)) in graph.edges().iter().enumerate() {
            let both = self.takes_part(u) && self.takes_part(v);
            self.edges[e >> 6] |= u64::from(both) << (e & 63);
        }
        if let Some((masks, recover)) = sweep {
            self.repaired.resize(masks.len(), Vec::new());
            for (repaired, base) in self.repaired.iter_mut().zip(masks) {
                repaired.clone_from(base);
                if recover {
                    matching::repair_matching(graph, &self.nodes, repaired);
                } else {
                    matching::mask_dead_edges(graph, &self.nodes, repaired);
                }
            }
        }
    }

    /// Whether node `u` takes part in the epoch.
    #[inline]
    fn takes_part(&self, u: NodeId) -> bool {
        (self.nodes[(u >> 6) as usize] >> (u & 63)) & 1 == 1
    }

    /// The epoch's participating-edge mask words.
    pub fn edges(&self) -> &[u64] {
        &self.edges
    }

    /// The epoch's repaired sweep mask at family index `i`.
    pub fn repaired(&self, i: usize) -> &[u64] {
        &self.repaired[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sodiff_graph::generators;

    /// Node words with bit `v` set iff `keep(v)`.
    fn words(n: usize, keep: impl Fn(usize) -> bool) -> Vec<u64> {
        let mut out = vec![0u64; n.div_ceil(64).max(1)];
        for v in (0..n).filter(|&v| keep(v)) {
            out[v >> 6] |= 1 << (v & 63);
        }
        out
    }

    #[test]
    fn advance_opens_an_epoch_only_at_boundaries() {
        let mut m = Membership::default();
        let opened: Vec<u64> = (0..3 * EPOCH_LEN).filter(|&r| m.advance(r)).collect();
        assert_eq!(opened, [0, EPOCH_LEN, 2 * EPOCH_LEN]);
        // A restore re-enters the last processed round's epoch.
        let mut m = Membership::default();
        assert!(m.advance(EPOCH_LEN + 3));
        assert!(!m.advance(EPOCH_LEN + 4));
    }

    #[test]
    fn a_node_takes_part_iff_crash_live_and_churn_active() {
        let g = generators::torus2d(9, 9);
        let n = g.node_count();
        let crash = words(n, |v| !v.is_multiple_of(3));
        let churn = words(n, |v| !v.is_multiple_of(5));
        let mut m = Membership {
            crash: crash.clone(),
            ..Default::default()
        };
        for (with_crash, with_churn) in [(true, true), (true, false), (false, true)] {
            m.rebuild(&g, with_crash, with_churn.then_some(&churn[..]), None);
            let part = |v: usize| {
                (!with_crash || !v.is_multiple_of(3)) && (!with_churn || !v.is_multiple_of(5))
            };
            for v in 0..n {
                assert_eq!(m.takes_part(v as NodeId), part(v), "node {v}");
            }
            for (e, &(u, v)) in g.edges().iter().enumerate() {
                let bit = (m.edges()[e >> 6] >> (e & 63)) & 1 == 1;
                assert_eq!(bit, part(u as usize) && part(v as usize), "edge {e}");
            }
        }
    }

    #[test]
    fn repaired_families_stay_matchings_over_participating_nodes() {
        let g = generators::torus2d(4, 4);
        let coloring = matching::edge_coloring(&g);
        let masks: Vec<Vec<u64>> = matching::maximal_matchings(&g, &coloring)
            .iter()
            .map(|f| {
                let mut words = vec![0u64; g.edge_count().div_ceil(64).max(1)];
                for &e in f {
                    words[(e >> 6) as usize] |= 1u64 << (e & 63);
                }
                words
            })
            .collect();
        let mut m = Membership {
            crash: words(16, |v| v != 5),
            ..Default::default()
        };
        let churn = words(16, |v| v != 10);
        m.rebuild(&g, true, Some(&churn), Some((&masks, true)));
        for i in 0..masks.len() {
            let repaired: Vec<_> = (0..g.edge_count())
                .filter(|&e| (m.repaired(i)[e >> 6] >> (e & 63)) & 1 == 1)
                .map(|e| e as sodiff_graph::EdgeId)
                .collect();
            assert!(matching::is_matching(&g, &repaired));
            for &e in &repaired {
                let (u, v) = g.edge(e);
                assert!(m.takes_part(u) && m.takes_part(v), "edge {e}");
            }
        }
    }
}
