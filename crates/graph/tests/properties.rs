//! Property-based tests for the graph substrate: every algorithm is checked
//! against a brute-force oracle on random graphs.

use gossip_graph::{
    articulation_points, bfs, components, distance_metrics, distance_metrics_parallel,
    is_connected, min_depth_spanning_tree, ChildOrder, Graph, GraphBuilder, RootedTree, NO_PARENT,
    UNREACHABLE,
};
use proptest::prelude::*;

/// Random graph on up to `max_n` vertices with each edge present w.p. ~p.
fn arb_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (2..=max_n).prop_flat_map(|n| {
        let pairs: Vec<(usize, usize)> = (0..n)
            .flat_map(|u| ((u + 1)..n).map(move |v| (u, v)))
            .collect();
        let len = pairs.len();
        proptest::collection::vec(proptest::bool::weighted(0.4), len).prop_map(move |mask| {
            let mut b = GraphBuilder::new(n);
            for (on, &(u, v)) in mask.iter().zip(&pairs) {
                if *on {
                    b.add_edge_unchecked(u, v).unwrap();
                }
            }
            b.build()
        })
    })
}

/// Random connected graph: random tree + extra edges.
fn arb_connected(max_n: usize) -> impl Strategy<Value = Graph> {
    (2..=max_n).prop_flat_map(|n| {
        let parents: Vec<BoxedStrategy<usize>> = (1..n).map(|i| (0..i).boxed()).collect();
        let pairs: Vec<(usize, usize)> = (0..n)
            .flat_map(|u| ((u + 1)..n).map(move |v| (u, v)))
            .collect();
        let len = pairs.len();
        (
            parents,
            proptest::collection::vec(proptest::bool::weighted(0.2), len),
        )
            .prop_map(move |(ps, mask)| {
                let mut b = GraphBuilder::new(n);
                let mut present = std::collections::HashSet::new();
                for (i, p) in ps.into_iter().enumerate() {
                    b.add_edge_unchecked(p, i + 1).unwrap();
                    present.insert((p.min(i + 1), p.max(i + 1)));
                }
                for (on, &(u, v)) in mask.iter().zip(&pairs) {
                    if *on && !present.contains(&(u, v)) {
                        b.add_edge_unchecked(u, v).unwrap();
                    }
                }
                b.build()
            })
    })
}

/// Floyd–Warshall oracle.
fn all_pairs_oracle(g: &Graph) -> Vec<Vec<u32>> {
    let n = g.n();
    let inf = u32::MAX / 4;
    let mut d = vec![vec![inf; n]; n];
    for (v, row) in d.iter_mut().enumerate() {
        row[v] = 0;
    }
    for (u, v) in g.edges() {
        d[u][v] = 1;
        d[v][u] = 1;
    }
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                d[i][j] = d[i][j].min(d[i][k].saturating_add(d[k][j]));
            }
        }
    }
    d
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bfs_matches_floyd_warshall(g in arb_graph(9)) {
        let oracle = all_pairs_oracle(&g);
        for (s, row) in oracle.iter().enumerate() {
            let r = bfs(&g, s);
            for (v, &dist) in row.iter().enumerate() {
                let expected = if dist >= u32::MAX / 4 { UNREACHABLE } else { dist };
                prop_assert_eq!(r.dist[v], expected, "dist({}, {})", s, v);
            }
        }
    }

    #[test]
    fn bfs_paths_are_shortest_and_valid(g in arb_connected(10)) {
        let r = bfs(&g, 0);
        for v in 0..g.n() {
            let p = r.path_to(v).unwrap();
            prop_assert_eq!(p.len() as u32, r.dist[v] + 1);
            prop_assert_eq!(p[0], 0);
            prop_assert_eq!(*p.last().unwrap(), v);
            for w in p.windows(2) {
                prop_assert!(g.has_edge(w[0], w[1]));
            }
        }
    }

    #[test]
    fn radius_diameter_relation(g in arb_connected(10)) {
        let m = distance_metrics(&g).unwrap();
        prop_assert!(m.radius <= m.diameter);
        prop_assert!(m.diameter <= 2 * m.radius);
        for &c in &m.center {
            prop_assert_eq!(m.ecc[c], m.radius);
        }
        prop_assert_eq!(distance_metrics_parallel(&g).unwrap(), m);
    }

    #[test]
    fn spanning_tree_height_equals_radius(g in arb_connected(10)) {
        let m = distance_metrics(&g).unwrap();
        let t = min_depth_spanning_tree(&g, ChildOrder::ById).unwrap();
        prop_assert_eq!(t.height(), m.radius);
        prop_assert!(t.is_spanning_tree_of(&g));
    }

    #[test]
    fn articulation_points_match_deletion_oracle(g in arb_graph(9)) {
        let (_, base) = components(&g);
        let mut expected = Vec::new();
        for v in 0..g.n() {
            let mut b = GraphBuilder::new(g.n());
            for (x, y) in g.edges() {
                if x != v && y != v {
                    b.add_edge_unchecked(x, y).unwrap();
                }
            }
            let (_, k) = components(&b.build());
            if k - 1 > base - (g.degree(v) == 0) as usize {
                expected.push(v);
            }
        }
        prop_assert_eq!(articulation_points(&g), expected);
    }

    #[test]
    fn rooted_tree_invariants(parents in (2usize..20).prop_flat_map(|n| {
        let ps: Vec<BoxedStrategy<u32>> = (1..n).map(|i| (0..i as u32).boxed()).collect();
        ps.prop_map(move |v| {
            let mut parent = vec![NO_PARENT; n];
            for (i, p) in v.into_iter().enumerate() {
                parent[i + 1] = p;
            }
            parent
        })
    })) {
        let t = RootedTree::from_parents(0, &parents).unwrap();
        let n = t.n();
        // Labels are a permutation; label >= level; ranges nest.
        let mut seen = vec![false; n];
        for v in 0..n {
            let l = t.label(v) as usize;
            prop_assert!(!seen[l]);
            seen[l] = true;
            prop_assert!(t.label(v) >= t.level(v));
            let (i, j) = t.subtree_range(v);
            prop_assert!(i <= j);
            prop_assert_eq!(t.subtree_size(v) as u32, j - i + 1);
            if let Some(p) = t.parent(v) {
                let (pi, pj) = t.subtree_range(p);
                prop_assert!(pi < i && j <= pj, "child range inside parent");
            }
        }
        // Round trip through the edge graph preserves the spanning property.
        let g = t.to_graph();
        prop_assert_eq!(g.m(), n - 1);
        prop_assert!(is_connected(&g));
        prop_assert!(t.is_spanning_tree_of(&g));
    }

    #[test]
    fn components_partition(g in arb_graph(10)) {
        let (comp, k) = components(&g);
        for (u, v) in g.edges() {
            prop_assert_eq!(comp[u], comp[v]);
        }
        let max = comp.iter().copied().max().map(|m| m as usize + 1).unwrap_or(0);
        prop_assert_eq!(max, k);
        prop_assert_eq!(is_connected(&g), k <= 1);
    }
}
