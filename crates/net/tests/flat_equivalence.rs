//! Property-based equivalence oracle: [`FlatTopology`] must be an exact
//! drop-in for the pointer-tree `Topology` on random irregular trees —
//! same post-order, same per-node metadata, same repair plans under
//! random crash sets — and the [`Engine`] must produce byte-identical
//! epoch outcomes at every thread count, under a scheme whose merge
//! depends on input order.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sies_net::engine::Engine;
use sies_net::scheme::{AggregationScheme, EvaluatedSum, SchemeError};
use sies_net::{FlatTopology, NodeId, Role, Threads, Topology};
use std::collections::HashSet;

/// A cheap transparent scheme whose PSR preserves merge structure
/// (weighted sum + count), so any reordering or regrouping of merge
/// inputs that slipped through would still be caught by the sum even
/// though SUM itself is commutative: positions weight the values.
struct WeightedSum;

#[derive(Clone, Copy, Debug, PartialEq)]
struct WPsr {
    sum: u64,
    count: u64,
    /// Order-sensitive fingerprint: each merge hashes its inputs in
    /// sequence, so child-order mistakes change this even when `sum`
    /// stays the same.
    fingerprint: u64,
}

fn mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29)
}

impl AggregationScheme for WeightedSum {
    type Psr = WPsr;

    fn name(&self) -> &'static str {
        "WSUM"
    }

    fn source_init(&self, source: u32, epoch: u64, value: u64) -> WPsr {
        WPsr {
            sum: value,
            count: 1,
            fingerprint: mix(mix(epoch, source as u64), value),
        }
    }

    fn merge(&self, psrs: &[WPsr]) -> WPsr {
        let mut fingerprint = 0xA5A5_A5A5u64;
        for p in psrs {
            fingerprint = mix(fingerprint, p.fingerprint);
        }
        WPsr {
            sum: psrs.iter().map(|p| p.sum).sum(),
            count: psrs.iter().map(|p| p.count).sum(),
            fingerprint,
        }
    }

    fn evaluate(
        &self,
        final_psr: &WPsr,
        _epoch: u64,
        contributors: &[u32],
    ) -> Result<EvaluatedSum, SchemeError> {
        if final_psr.count != contributors.len() as u64 {
            return Err(SchemeError::VerificationFailed("count mismatch".into()));
        }
        Ok(EvaluatedSum {
            sum: final_psr.sum as f64,
            integrity_checked: true,
        })
    }

    fn psr_wire_size(&self, _psr: &WPsr) -> usize {
        24
    }

    fn tamper(&self, psr: &mut WPsr) {
        psr.sum += 1;
    }
}

fn random_topology(seed: u64, n: u64, fanout: usize) -> Topology {
    let mut rng = StdRng::seed_from_u64(seed);
    Topology::random_tree(&mut rng, n, fanout)
}

/// Nodes in the pointer-tree subtree rooted at `id`, itself included.
fn subtree_size(topo: &Topology, id: NodeId) -> usize {
    1 + topo
        .node(id)
        .children
        .iter()
        .map(|&c| subtree_size(topo, c))
        .sum::<usize>()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn arena_mirrors_legacy_on_random_trees(
        seed in any::<u64>(),
        n in 1u64..120,
        fanout in 2usize..7,
    ) {
        let topo = random_topology(seed, n, fanout);
        let flat = FlatTopology::from_topology(&topo);
        flat.validate().expect("arena invariants");

        prop_assert_eq!(flat.num_nodes(), topo.nodes().len());
        prop_assert_eq!(flat.root(), topo.root());
        prop_assert_eq!(flat.num_sources(), n);

        let legacy_post = topo.post_order();
        let flat_post: Vec<NodeId> =
            flat.post_order().iter().map(|&id| id as NodeId).collect();
        prop_assert_eq!(&flat_post, &legacy_post);

        for id in 0..topo.nodes().len() {
            let node = topo.node(id);
            prop_assert_eq!(flat.parent(id), node.parent);
            prop_assert_eq!(flat.depth(id), node.depth);
            let sid = match node.role {
                Role::Source(sid) => Some(sid),
                Role::Aggregator => None,
            };
            prop_assert_eq!(flat.source_id(id), sid);
            let kids: Vec<NodeId> =
                flat.children(id).iter().map(|&c| c as NodeId).collect();
            prop_assert_eq!(&kids, &node.children);
            prop_assert_eq!(flat.sources_under(id), topo.sources_under(id));
            // Subtree contiguity: the flat range holds exactly the
            // post-order positions of the legacy subtree.
            let range = flat.subtree_range(id);
            prop_assert_eq!(range.len(), subtree_size(&topo, id));
            prop_assert_eq!(*flat_post[range].last().unwrap(), id);
        }
    }

    #[test]
    fn repair_plans_match_on_random_crash_sets(
        seed in any::<u64>(),
        n in 1u64..80,
        fanout in 2usize..6,
        crash_bits in any::<u64>(),
    ) {
        let topo = random_topology(seed, n, fanout);
        let flat = FlatTopology::from_topology(&topo);
        // Derive a pseudo-random crash set from the bits; the sink may
        // crash too (the stranded branch).
        let crashed: HashSet<NodeId> = (0..topo.nodes().len())
            .filter(|id| (crash_bits >> (id % 64)) & 1 == 1)
            .collect();
        prop_assert_eq!(flat.repair_plan(&crashed), topo.repair_plan(&crashed));
        for orphan in 0..topo.nodes().len() {
            prop_assert_eq!(
                flat.backup_parent(orphan, &crashed),
                topo.backup_parent(orphan, &crashed)
            );
        }
    }

    #[test]
    fn engine_epochs_match_across_thread_counts_on_random_trees(
        seed in any::<u64>(),
        n in 1u64..90,
        fanout in 2usize..6,
    ) {
        let topo = random_topology(seed, n, fanout);
        let run = |threads: usize| {
            let mut engine =
                Engine::new(&WeightedSum, &topo).with_threads(Threads::fixed(threads));
            (0..3u64)
                .map(|epoch| {
                    let values: Vec<u64> =
                        (0..n).map(|i| mix(seed ^ epoch, i) & 0xFFFF).collect();
                    let out = engine.run_epoch(epoch, &values);
                    (
                        engine.last_final_psr().copied(),
                        out.result,
                        out.stats.contributors,
                    )
                })
                .collect::<Vec<_>>()
        };
        let serial = run(1);
        for threads in [2, 8] {
            prop_assert!(run(threads) == serial, "threads = {} diverged from serial", threads);
        }
    }
}
