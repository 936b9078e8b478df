//! Atomically adjustable per-stage caps: the region a lease-holding
//! node admits against.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use frap_core::lease::UNIT_SCALE;
use frap_core::region::RegionTest;

/// Matches `frap_core::lease`'s cap slack: float summation across
/// shards can read a fully charged stage a few ulps above its cap.
const CAP_EPSILON: f64 = 1e-9;

/// A box region whose per-stage caps are shared atomics in budget
/// units, so the lease layer can grow and shrink a node's admissible
/// box while an `AdmissionService` keeps admitting against it — no
/// rebuild, no hot-path change.
///
/// Memory-ordering note: every access is `SeqCst`. Lock-free decisions
/// take no gate, so nothing but the accesses' own ordering keeps the
/// lease layer's shrink-then-measure discipline sound. The node lowers
/// a cap (a SeqCst RMW) and then reads a stable utilization snapshot
/// (SeqCst loads); an admit charges the totals (SeqCst RMWs) and then
/// reads the caps here (SeqCst loads). All four sit in one total order:
/// if the admit's cap load comes before the shrink, its charge came
/// before the shrink too, so the node's later snapshot counts it; if it
/// comes after, the admit tests against the smaller cap. With `Relaxed`
/// cap accesses this is the store-buffering pattern, and the memory
/// model lets each side miss the other's write (see `DESIGN.md` §13).
/// A SeqCst load compiles to a plain load on x86, so the decision path
/// pays nothing for it.
#[derive(Debug, Clone)]
pub struct SharedStageCaps {
    units: Arc<Vec<AtomicU64>>,
}

impl SharedStageCaps {
    /// `stages` caps, all zero — a node admits nothing until granted a
    /// lease.
    pub fn new(stages: usize) -> SharedStageCaps {
        SharedStageCaps {
            units: Arc::new((0..stages).map(|_| AtomicU64::new(0)).collect()),
        }
    }

    /// Caps from explicit unit values.
    pub fn from_units(units: &[u64]) -> SharedStageCaps {
        SharedStageCaps {
            units: Arc::new(units.iter().map(|&u| AtomicU64::new(u)).collect()),
        }
    }

    /// Number of stages.
    pub fn stages(&self) -> usize {
        self.units.len()
    }

    /// Current cap of `stage`, in units.
    pub fn get(&self, stage: usize) -> u64 {
        self.units[stage].load(Ordering::SeqCst)
    }

    /// Snapshot of every cap, in units.
    pub fn units(&self) -> Vec<u64> {
        self.units
            .iter()
            .map(|u| u.load(Ordering::SeqCst))
            .collect()
    }

    /// Overwrites one stage's cap.
    pub fn store(&self, stage: usize, units: u64) {
        self.units[stage].store(units, Ordering::SeqCst);
    }

    /// Grows one stage's cap by `delta` units.
    pub fn add(&self, stage: usize, delta: u64) {
        self.units[stage].fetch_add(delta, Ordering::SeqCst);
    }

    /// Shrinks one stage's cap by `delta` units, saturating at zero.
    pub fn sub_saturating(&self, stage: usize, delta: u64) {
        let _ = self.units[stage].fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| {
            Some(v.saturating_sub(delta))
        });
    }

    /// Zeroes every cap — the node's admit-nothing state (lease expired
    /// or not yet granted).
    pub fn zero_all(&self) {
        for u in self.units.iter() {
            u.store(0, Ordering::SeqCst);
        }
    }
}

impl RegionTest for SharedStageCaps {
    fn stages(&self) -> usize {
        self.units.len()
    }

    /// Pointwise `U_j ≤ cap_j` against the current caps — monotone for
    /// any fixed cap snapshot.
    fn feasible(&self, utilizations: &[f64]) -> bool {
        debug_assert_eq!(utilizations.len(), self.units.len());
        utilizations.iter().zip(self.units.iter()).all(|(&u, cap)| {
            u <= cap.load(Ordering::SeqCst) as f64 / UNIT_SCALE as f64 + CAP_EPSILON
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caps_start_closed_and_open_with_grants() {
        let caps = SharedStageCaps::new(2);
        assert!(!caps.feasible(&[0.001, 0.0]));
        assert!(caps.feasible(&[0.0, 0.0]));
        caps.add(0, UNIT_SCALE / 10);
        caps.add(1, UNIT_SCALE / 5);
        assert!(caps.feasible(&[0.1, 0.2]));
        assert!(!caps.feasible(&[0.11, 0.0]));
        caps.sub_saturating(0, UNIT_SCALE); // saturates at zero
        assert_eq!(caps.get(0), 0);
    }

    #[test]
    fn clones_share_the_same_caps() {
        let caps = SharedStageCaps::new(1);
        let peer = caps.clone();
        caps.store(0, 42);
        assert_eq!(peer.get(0), 42);
        peer.zero_all();
        assert_eq!(caps.units(), vec![0]);
    }
}
