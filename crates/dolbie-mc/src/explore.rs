//! Exhaustive exploration of the decision tree with visited-state
//! pruning.
//!
//! The explorer enumerates decision prefixes (see [`crate::replay()`]):
//! after replaying a prefix it scans the recorded trail *from the prefix
//! boundary onward* and, for every decision point it has not cut, pushes
//! one child prefix per untaken alternative. The cut rule is the partial
//! order reduction: at each delivery choice the simulator reports a
//! canonical state fingerprint (shares + α + per-round protocol state +
//! the in-flight message multiset + membership/crash masks); if that
//! fingerprint was seen before, a previous run already expanded every
//! decision downstream of the state, so the scan stops and the hit is
//! counted as pruned. Binary fault coins between two delivery choices
//! are always expanded first — their alternatives lead to genuinely
//! unvisited intermediate states — and collapse at the *next* delivery
//! choice when (as with drop/duplicate faults inside the retry envelope,
//! which are delay-only) they reconverge to a visited state.
//!
//! Every replayed run is complete and invariant-checked regardless of
//! where its expansion was cut, so pruning never skips a *check*, only
//! redundant re-expansion.
//!
//! The scan reads fingerprints only from the prefix boundary to the
//! cut, so each run is replayed knowing the visited set — in DFS the
//! current one, in BFS the one the wave started from, borrowed
//! read-only by every replay of the wave — and its simulator
//! fingerprints only that stretch ([`crate::replay::DecisionRecord::fp`]).
//! A replay stops observing at the first state that is visited or that
//! it passed earlier in the same run, which is where the scan cuts: at
//! merge time the visited set holds at least what the replay knew.
//!
//! Children branch only inside that same stretch, so a run saves its
//! simulator world at each step boundary there (`Snapshot`), and each
//! child on the DFS stack or BFS frontier carries, beside its prefix,
//! the latest world its parent saved at or before the child's branch
//! point — or, for a branch before the first save, the world the parent
//! itself started from. The child starts from a clone of it instead of
//! re-simulating the shared prefix; a world is dropped with the last
//! child holding it. Starting from a saved world changes no record,
//! trace or verdict of a run, so the counters and visit order do not
//! move either.

use crate::config::McConfig;
use crate::replay::{replay_knowing, ExplorerRun, FpHasher, FpSet, Snapshot};
use dolbie_core::parallel::parallel_map_items;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::Arc;

/// First trajectory digest and prefix seen per fault signature.
type Confluence = HashMap<u64, (u64, Vec<u32>), BuildHasherDefault<FpHasher>>;

/// Search order over the decision tree. A completed exploration visits
/// the same *set* of reachable states under either strategy; run counts
/// and visit order legitimately differ (cuts land in different places).
/// Each strategy is individually deterministic — byte-identical counters
/// and visit order at any thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Depth-first: a sequential stack, minimal frontier memory.
    Dfs,
    /// Breadth-first in waves: each wave of prefixes replays on the
    /// deterministic parallel harness (`dolbie_core::parallel`) and is
    /// merged sequentially in index order, so counts and visit order are
    /// byte-identical at any `--threads`.
    Bfs,
}

/// Counters from one exploration.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// Complete runs executed (= prefixes replayed).
    pub runs: usize,
    /// Distinct canonical states first-visited at delivery choices.
    pub states_explored: usize,
    /// Visited-state hits: scans cut because the state had been reached
    /// on another path. `explored + pruned` is what a naive stateless
    /// enumeration would have had to keep expanding.
    pub states_pruned: usize,
    /// Longest decision trail observed.
    pub max_depth: usize,
    /// Fingerprints in first-visit order — the determinism regression
    /// compares this byte-for-byte across thread counts.
    pub visit_order: Vec<u64>,
}

impl ExploreStats {
    /// `explored + pruned`: the state encounters a naive enumeration
    /// (no visited set) would expand.
    #[must_use]
    pub fn naive_states(&self) -> usize {
        self.states_explored + self.states_pruned
    }
}

/// A found violation: the decision prefix that reproduces it and the
/// invariant message.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Decision prefix to feed [`crate::replay()`].
    pub prefix: Vec<u32>,
    /// The invariant-checker (or panic, or confluence) message.
    pub message: String,
}

/// The result of exploring one configuration.
#[derive(Debug)]
pub struct Exploration {
    /// Counters.
    pub stats: ExploreStats,
    /// The first violation found, if any; exploration stops on it.
    pub violation: Option<Violation>,
    /// `true` when the frontier drained without tripping
    /// [`McConfig::max_runs`] — the state space was covered exhaustively
    /// (up to the configured horizon).
    pub complete: bool,
}

/// A prefix waiting to run, and the saved world it starts from (`None`:
/// a fresh one).
struct Pending {
    prefix: Vec<u32>,
    from: Option<Arc<Snapshot>>,
}

impl Pending {
    fn run(&self, config: &McConfig, visited: &FpSet) -> ExplorerRun {
        replay_knowing(config, &self.prefix, visited, self.from.as_deref())
    }
}

/// Shared per-run bookkeeping: check the verdict, check confluence,
/// scan-and-expand the trail. Returns a violation or pushes children,
/// each with the latest world its parent saved at or before the child's
/// branch point (or the world the parent itself started from).
fn merge_run(
    pending: &Pending,
    run: &ExplorerRun,
    visited: &mut FpSet,
    confluence: &mut Confluence,
    stats: &mut ExploreStats,
    children: &mut Vec<Pending>,
) -> Option<Violation> {
    let (prefix, outcome) = (pending.prefix.as_slice(), &run.outcome);
    stats.runs += 1;
    stats.max_depth = stats.max_depth.max(outcome.trail.len());
    if let Err(message) = &outcome.verdict {
        return Some(Violation { prefix: prefix.to_vec(), message: message.clone() });
    }
    // Confluence (invariant 4 within one architecture): paths whose
    // crash + membership outcomes agree must produce bitwise-identical
    // trajectories — delivery order and in-envelope wire faults are
    // delay-only.
    if let Some(digest) = outcome.trace_digest() {
        match confluence.entry(outcome.fault_signature()) {
            Entry::Occupied(e) => {
                if e.get().0 != digest {
                    return Some(Violation {
                        prefix: prefix.to_vec(),
                        message: format!(
                            "agreement: trajectory diverges from fault-equivalent prefix {:?}",
                            e.get().1
                        ),
                    });
                }
            }
            Entry::Vacant(v) => {
                v.insert((digest, prefix.to_vec()));
            }
        }
    }
    let mut from = pending.from.as_ref();
    let mut saved = run.saved.iter().peekable();
    for (i, d) in outcome.trail.iter().enumerate().skip(prefix.len()) {
        if d.is_delivery() {
            let fp = d.fp.expect("a replay observes every delivery choice up to the scan's cut");
            if !visited.insert(fp) {
                stats.states_pruned += 1;
                return None; // cut: a previous run owns everything downstream
            }
            stats.states_explored += 1;
            stats.visit_order.push(fp);
        }
        while let Some(snapshot) = saved.next_if(|s| s.decisions() <= i) {
            from = Some(snapshot);
        }
        for alt in (d.chosen + 1)..d.options {
            let mut child: Vec<u32> = outcome.trail[..i].iter().map(|r| r.chosen).collect();
            child.push(alt);
            children.push(Pending { prefix: child, from: from.cloned() });
        }
    }
    None
}

/// Explores the configuration's full decision tree under the chosen
/// strategy, checking every reachable run against the chaos invariants
/// and the confluence rule. Stops at the first violation.
#[must_use]
pub fn explore(config: &McConfig, strategy: Strategy) -> Exploration {
    let mut stats = ExploreStats::default();
    let mut visited = FpSet::default();
    let mut confluence = Confluence::default();
    let root = Pending { prefix: Vec::new(), from: None };
    match strategy {
        Strategy::Dfs => {
            let mut stack = vec![root];
            let mut children = Vec::new();
            while let Some(pending) = stack.pop() {
                if stats.runs >= config.max_runs {
                    return Exploration { stats, violation: None, complete: false };
                }
                let run = pending.run(config, &visited);
                if let Some(v) = merge_run(
                    &pending,
                    &run,
                    &mut visited,
                    &mut confluence,
                    &mut stats,
                    &mut children,
                ) {
                    return Exploration { stats, violation: Some(v), complete: false };
                }
                // Reverse so the lowest-index alternative is explored first.
                stack.extend(children.drain(..).rev());
            }
        }
        Strategy::Bfs => {
            let mut frontier = vec![root];
            while !frontier.is_empty() {
                let runs = parallel_map_items(&frontier, |pending| pending.run(config, &visited));
                let mut next = Vec::new();
                for (pending, run) in frontier.iter().zip(&runs) {
                    if stats.runs >= config.max_runs {
                        return Exploration { stats, violation: None, complete: false };
                    }
                    if let Some(v) = merge_run(
                        pending,
                        run,
                        &mut visited,
                        &mut confluence,
                        &mut stats,
                        &mut next,
                    ) {
                        return Exploration { stats, violation: Some(v), complete: false };
                    }
                }
                frontier = next;
            }
        }
    }
    Exploration { stats, violation: None, complete: true }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Arch;

    /// The smallest interesting space: N=2 master-worker, one round,
    /// lossless. Exploration must terminate, visit more than one run
    /// (there is at least one delivery reordering), and find nothing.
    #[test]
    fn tiny_lossless_space_is_clean_and_finite() {
        let config = McConfig::new(Arch::MasterWorker, 2, 1);
        let ex = explore(&config, Strategy::Dfs);
        assert!(ex.complete);
        assert!(ex.violation.is_none());
        assert!(ex.stats.runs >= 1);
        assert_eq!(ex.stats.states_explored, ex.stats.visit_order.len());
    }

    /// DFS and BFS cover the same state space on the same configuration.
    #[test]
    fn dfs_and_bfs_agree_on_coverage() {
        let config = McConfig::new(Arch::Ring, 3, 2);
        let dfs = explore(&config, Strategy::Dfs);
        let bfs = explore(&config, Strategy::Bfs);
        assert!(dfs.complete && bfs.complete);
        assert!(dfs.violation.is_none() && bfs.violation.is_none());
        // Both strategies must visit the identical set of reachable
        // states (visit *order* and run counts legitimately differ —
        // cuts land in different places).
        let dfs_set: std::collections::HashSet<u64> =
            dfs.stats.visit_order.iter().copied().collect();
        let bfs_set: std::collections::HashSet<u64> =
            bfs.stats.visit_order.iter().copied().collect();
        assert_eq!(dfs_set, bfs_set);
        assert_eq!(dfs.stats.states_explored, bfs.stats.states_explored);
    }

    /// The run cap reports an honest incomplete exploration.
    #[test]
    fn max_runs_reports_incomplete() {
        let config = McConfig::new(Arch::MasterWorker, 3, 3).with_max_runs(2);
        let ex = explore(&config, Strategy::Bfs);
        assert!(!ex.complete);
        assert!(ex.violation.is_none());
        assert!(ex.stats.runs <= 2);
    }
}
