//! Fast-vs-reference planner equivalence: on the same tree the CSR-direct
//! generator must be byte-identical to flattening the reference generator,
//! and through the full pipeline (fast tree sweep included) the fast plan
//! must validate with the same `n + r` makespan.

use gossip_core::{concurrent_updown, concurrent_updown_flat, GossipPlanner};
use gossip_graph::{min_depth_spanning_tree, ChildOrder, Graph, RootedTree, NO_PARENT};
use gossip_model::{CommModel, FlatSchedule, SimKernel};
use gossip_telemetry::NoopRecorder;
use gossip_workloads::random_connected;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

fn diff_flat(fast: &FlatSchedule, reference: &FlatSchedule) -> Option<String> {
    if fast == reference {
        return None;
    }
    if fast.rounds() != reference.rounds() {
        return Some(format!(
            "rounds differ: fast {} vs reference {}",
            fast.rounds(),
            reference.rounds()
        ));
    }
    for t in 0..fast.rounds() {
        let (fr, rr) = (fast.round_range(t), reference.round_range(t));
        if fr.len() != rr.len() {
            return Some(format!(
                "round {t}: {} vs {} transmissions",
                fr.len(),
                rr.len()
            ));
        }
        for (a, b) in fr.zip(rr) {
            if fast.msg_of(a) != reference.msg_of(b)
                || fast.from_of(a) != reference.from_of(b)
                || fast.dests_of(a) != reference.dests_of(b)
            {
                return Some(format!(
                    "round {t}: tx (msg {} from {} -> {:?}) vs (msg {} from {} -> {:?})",
                    fast.msg_of(a),
                    fast.from_of(a),
                    fast.dests_of(a),
                    reference.msg_of(b),
                    reference.from_of(b),
                    reference.dests_of(b),
                ));
            }
        }
    }
    Some("arrays differ outside per-round content (offsets/metadata)".to_string())
}

/// A seeded tree of `n >= 2` vertices in one of six shapes, with vertex
/// ids permuted so that label space differs from vertex space, and half
/// the time with each vertex's children in shuffled order.
///
/// The shape is built over build indices `0..n` (index 0 is the root and
/// every parent index is lower than its child's), then index `v` becomes
/// vertex `perm[v]`. Paths, brooms and spiders put many vertices on the
/// leftmost path (the `i = k` own-last case); deep random trees and
/// caterpillars give long D2 deferral chains.
fn shaped_tree(n: usize, shape: u64, seed: u64) -> RootedTree {
    let mut rng = SmallRng::seed_from_u64(seed);
    let parent_index = |v: usize, rng: &mut SmallRng| -> usize {
        match shape {
            // Random recursive tree.
            0 => rng.gen_range(0..v),
            // Path rooted at an end.
            1 => v - 1,
            // Broom: a handle of `h` edges, the rest fanned out at its end.
            2 => {
                let h = (seed as usize % n).max(1);
                if v <= h {
                    v - 1
                } else {
                    h
                }
            }
            // Caterpillar: a spine of `s` vertices, each other vertex a
            // leaf on a random spine vertex.
            3 => {
                let s = (seed as usize % n).max(1);
                if v < s {
                    v - 1
                } else {
                    rng.gen_range(0..s)
                }
            }
            // Deep random tree: each parent among the last three vertices.
            4 => rng.gen_range(v.saturating_sub(3)..v),
            // Spider: `legs` paths hanging off the root.
            _ => {
                let legs = (seed as usize % 5) + 1;
                v.saturating_sub(legs)
            }
        }
    };
    let mut perm: Vec<u32> = (0..n as u32).collect();
    perm.shuffle(&mut rng);
    let mut parents = vec![NO_PARENT; n];
    let mut children = vec![Vec::new(); n];
    for v in 1..n {
        let p = perm[parent_index(v, &mut rng)];
        parents[perm[v] as usize] = p;
        children[p as usize].push(perm[v]);
    }
    if rng.gen_bool(0.5) {
        // Children out of id order, so label order among siblings differs
        // from the ascending-id order of destination sets.
        for kids in &mut children {
            kids.shuffle(&mut rng);
        }
        RootedTree::from_parents_with_child_order(perm[0] as usize, &parents, children).unwrap()
    } else {
        RootedTree::from_parents(perm[0] as usize, &parents).unwrap()
    }
}

fn assert_equivalent_on(g: &Graph) {
    let tree = min_depth_spanning_tree(g, ChildOrder::ById).unwrap();
    let fast = concurrent_updown_flat(&tree, &NoopRecorder);
    let reference = FlatSchedule::from_schedule(&concurrent_updown(&tree));
    if let Some(d) = diff_flat(&fast, &reference) {
        panic!("CSR mismatch on n = {}: {d}", g.n());
    }
    assert_eq!(fast.digest(), reference.digest());
}

#[test]
fn csr_direct_matches_reference_on_random_graphs() {
    for (n, p, seed) in [
        (64, 0.10, 7u64),
        (128, 0.05, 11),
        (256, 0.02, 13),
        (512, 0.05, 77),
        (512, 0.104, 77),
        (300, 0.01, 42),
    ] {
        assert_equivalent_on(&random_connected(n, p, seed));
    }
}

#[test]
fn fast_plan_validates_with_same_bound_on_random_graphs() {
    for (n, p, seed) in [(96usize, 0.08, 3u64), (200, 0.03, 9), (400, 0.015, 21)] {
        let g = random_connected(n, p, seed);
        let planner = GossipPlanner::new(&g).unwrap();
        let reference = planner.plan().unwrap();
        let fast = planner.plan_fast().unwrap();
        assert_eq!(fast.radius, reference.radius, "n = {n}");
        assert_eq!(fast.makespan(), reference.makespan(), "n = {n}");
        assert!(fast.makespan() <= fast.guarantee());
        fast.schedule.validate(&g, CommModel::Multicast, n).unwrap();
        let mut kernel =
            SimKernel::with_origins(&g, CommModel::Multicast, &fast.origin_of_message).unwrap();
        let outcome = kernel.run_prevalidated(&fast.schedule).unwrap();
        assert!(outcome.complete, "n = {n}");
        if fast.tree == reference.tree {
            let ref_flat = FlatSchedule::from_schedule(&reference.schedule);
            if let Some(d) = diff_flat(&fast.schedule, &ref_flat) {
                panic!("pipeline CSR mismatch on n = {n}: {d}");
            }
        }
    }
}

#[test]
fn csr_direct_matches_reference_on_every_tree_shape() {
    for shape in 0..6 {
        for (n, seed) in [(2usize, 1u64), (3, 2), (17, 3), (64, 4), (129, 5)] {
            let tree = shaped_tree(n, shape, seed);
            let fast = concurrent_updown_flat(&tree, &NoopRecorder);
            let reference = FlatSchedule::from_schedule(&concurrent_updown(&tree));
            if let Some(d) = diff_flat(&fast, &reference) {
                panic!("CSR mismatch on shape {shape}, n = {n}: {d}");
            }
        }
    }
}

proptest! {
    // 48 cases per CI run; the nightly property job raises this through
    // the global PROPTEST_CASES override (see vendor/proptest).
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On arbitrary seeded connected G(n, p): the fast plan validates,
    /// meets the reference's exact makespan (n + r by Theorem 1), and —
    /// whenever the root tie-break picked the same tree — is
    /// byte-identical to the reference flatten.
    fn fast_and_reference_agree_on_random_connected(
        n in 4usize..72,
        p_mille in 20u64..250,
        seed in 0u64..1u64 << 48,
    ) {
        let g = random_connected(n, p_mille as f64 / 1000.0, seed);
        let planner = GossipPlanner::new(&g).unwrap();
        let reference = planner.plan().unwrap();
        let fast = planner.plan_fast().unwrap();
        prop_assert_eq!(fast.radius, reference.radius);
        prop_assert_eq!(fast.makespan(), reference.makespan());
        prop_assert!(fast.makespan() <= fast.guarantee());
        fast.schedule.validate(&g, CommModel::Multicast, n).unwrap();
        if fast.tree == reference.tree {
            let ref_flat = FlatSchedule::from_schedule(&reference.schedule);
            if let Some(d) = diff_flat(&fast.schedule, &ref_flat) {
                return Err(format!("CSR mismatch: {d}"));
            }
        }
    }

    /// On arbitrary tree shapes (random recursive, path, broom,
    /// caterpillar, deep random, spider) with permuted vertex ids, the
    /// CSR-direct generator is byte-identical to the reference flatten.
    fn csr_direct_matches_reference_on_arbitrary_trees(
        n in 2usize..300,
        shape in 0u64..6,
        seed in 0u64..1u64 << 48,
    ) {
        let tree = shaped_tree(n, shape, seed);
        let fast = concurrent_updown_flat(&tree, &NoopRecorder);
        let reference = FlatSchedule::from_schedule(&concurrent_updown(&tree));
        if let Some(d) = diff_flat(&fast, &reference) {
            return Err(format!("CSR mismatch on shape {shape}, n = {n}: {d}"));
        }
        prop_assert_eq!(fast.digest(), reference.digest());
    }
}
