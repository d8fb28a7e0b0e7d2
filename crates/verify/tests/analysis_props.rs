//! Property tests: the worklist dataflow analyses against brute-force
//! oracles.
//!
//! The liveness and dominator solvers are clever (chaotic iteration,
//! Cooper-Harvey-Kennedy intersection); the oracles here are dumb
//! (per-register path search, dominance by vertex deletion). Agreement on
//! randomly generated MiniC kernels and random digraphs is the evidence
//! that the clever versions compute the textbook relations.

use flexprot_isa::Rng64;
use flexprot_verify::flow::Flow;
use flexprot_verify::{domtree, liveness};

mod common;
use common::random_minic;

// ------------------------------------------------------------- liveness

/// Brute-force `live_in`: register bit `bit` is live entering `start`
/// iff some path from `start` reaches a use before any definition.
///
/// A visited set is sound because the continue/stop decision at a node
/// depends only on the node, never on the path that reached it.
fn brute_live_in(flow: &Flow, start: usize, bit: u32) -> bool {
    let mut stack = vec![start];
    let mut visited = vec![false; flow.decoded.len()];
    while let Some(n) = stack.pop() {
        if visited[n] {
            continue;
        }
        visited[n] = true;
        if liveness::uses_mask(flow.decoded[n]) & bit != 0 {
            return true;
        }
        if liveness::def_mask(flow.decoded[n]) & bit != 0 {
            continue;
        }
        for edge in &flow.succs[n] {
            stack.push(edge.to);
        }
    }
    false
}

/// Checks the solver against the oracle for every (word, register) pair.
fn assert_liveness_matches(name: &str, flow: &Flow) {
    let live = liveness::analyze(flow);
    for i in 0..flow.decoded.len() {
        for reg in 0..32u32 {
            let bit = 1 << reg;
            assert_eq!(
                live.live_in[i] & bit != 0,
                brute_live_in(flow, i, bit),
                "{name}: live_in mismatch at word {i}, register {reg}"
            );
            let brute_out = flow.succs[i]
                .iter()
                .any(|edge| brute_live_in(flow, edge.to, bit));
            assert_eq!(
                live.live_out[i] & bit != 0,
                brute_out,
                "{name}: live_out mismatch at word {i}, register {reg}"
            );
        }
    }
}

fn flow_of_source(name: &str, source: &str) -> Flow {
    let image = flexprot_cc::compile_to_image(source).unwrap_or_else(|e| panic!("{name}: {e}"));
    Flow::recover(&image, &image.text)
}

#[test]
fn liveness_matches_brute_force_on_reference_kernels() {
    for (name, source) in flexprot_cc::kernels::all() {
        let flow = flow_of_source(name, source);
        assert_liveness_matches(name, &flow);
    }
}

#[test]
fn liveness_matches_brute_force_on_random_kernels() {
    let mut rng = Rng64::new(0xC0FF_EE00_D00D_0001);
    for case in 0..12 {
        let source = random_minic(&mut rng);
        let name = format!("random-{case}");
        let flow = flow_of_source(&name, &source);
        assert_liveness_matches(&name, &flow);
    }
}

// ------------------------------------------------------------ dominators

/// Random digraph on `n` nodes rooted at 0, out-degree ≤ 3.
fn random_digraph(rng: &mut Rng64, n: usize) -> Vec<Vec<usize>> {
    (0..n)
        .map(|_| {
            let degree = rng.index(4);
            let mut targets: Vec<usize> = (0..degree).map(|_| rng.index(n)).collect();
            targets.sort_unstable();
            targets.dedup();
            targets
        })
        .collect()
}

/// Which nodes `from` reaches, optionally with one vertex deleted.
fn reachable_avoiding(succs: &[Vec<usize>], from: usize, avoid: Option<usize>) -> Vec<bool> {
    let mut seen = vec![false; succs.len()];
    if Some(from) == avoid {
        return seen;
    }
    let mut stack = vec![from];
    seen[from] = true;
    while let Some(n) = stack.pop() {
        for &m in &succs[n] {
            if Some(m) != avoid && !seen[m] {
                seen[m] = true;
                stack.push(m);
            }
        }
    }
    seen
}

#[test]
fn dominators_match_vertex_deletion_on_random_digraphs() {
    let mut rng = Rng64::new(0x0D01_1A12_5EED);
    for _ in 0..40 {
        let n = 2 + rng.index(30);
        let succs = random_digraph(&mut rng, n);
        let doms = domtree::dominators(0, &succs);
        let from_root = reachable_avoiding(&succs, 0, None);
        for d in 0..n {
            let cut = reachable_avoiding(&succs, 0, Some(d));
            for (target, &rooted) in from_root.iter().enumerate() {
                // d dominates target iff target is reachable, and deleting
                // d cuts every path from the root to target (with
                // d == target dominating itself trivially).
                let expected = rooted && (d == target || !cut[target]);
                assert_eq!(
                    doms.dominates(d, target),
                    expected,
                    "dominates({d}, {target}) on {succs:?}"
                );
            }
        }
        for (target, &rooted) in from_root.iter().enumerate() {
            assert_eq!(doms.reachable(target), rooted, "{succs:?}");
        }
    }
}

/// Whether `from` can reach any natural exit (empty successor list),
/// optionally with one vertex deleted.
fn reaches_exit_avoiding(succs: &[Vec<usize>], from: usize, avoid: Option<usize>) -> bool {
    reachable_avoiding(succs, from, avoid)
        .iter()
        .enumerate()
        .any(|(n, &seen)| seen && succs[n].is_empty())
}

#[test]
fn post_dominators_match_vertex_deletion_on_random_digraphs() {
    let mut rng = Rng64::new(0x9057_D0D0_1337_0002);
    for _ in 0..40 {
        let n = 2 + rng.index(30);
        let succs = random_digraph(&mut rng, n);
        let (pdoms, _exit) = domtree::post_dominators(&succs);
        for d in 0..n {
            for target in 0..n {
                // d post-dominates target iff target can terminate, and
                // deleting d leaves it no path to any exit.
                let expected = reaches_exit_avoiding(&succs, target, None)
                    && (d == target || !reaches_exit_avoiding(&succs, target, Some(d)));
                assert_eq!(
                    pdoms.dominates(d, target),
                    expected,
                    "post-dominates({d}, {target}) on {succs:?}"
                );
            }
        }
    }
}
