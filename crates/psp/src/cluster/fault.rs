//! Per-backend failure injection for the cluster, mirroring the PR 6
//! service gate's kill -9 discipline in-process: a [`FaultPlan`] holds
//! one optional [`Fault`] slot per backend, consulted on every
//! share-store and share-fetch. Tests arm faults mid-workload and the
//! cluster's oracles assert that acknowledged uploads still reconstruct
//! byte-identically as long as ≤ n−k backends are down.

use parking_lot::Mutex;
use std::time::Duration;

/// What a faulty backend does on its next operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The backend is dead: every store/fetch against it errors.
    Kill,
    /// The backend serves its share with bytes flipped (caught by the
    /// share integrity tag — a corrupting backend must look like a dead
    /// one to the reconstructor, never like a healthy one).
    Corrupt,
    /// The backend answers after sleeping this many milliseconds
    /// (exercises the fetch path's tolerance of slow quorum members).
    Delay(u64),
}

/// One fault slot per backend; `None` means healthy.
#[derive(Debug)]
pub struct FaultPlan {
    slots: Vec<Mutex<Option<Fault>>>,
}

impl FaultPlan {
    /// A plan with `n` healthy backends.
    pub fn healthy(n: usize) -> Self {
        FaultPlan {
            slots: (0..n).map(|_| Mutex::new(None)).collect(),
        }
    }

    /// Arms `fault` on `backend` (replacing any existing fault).
    ///
    /// # Panics
    /// Panics if `backend` is out of range — faults are a test-harness
    /// construct and a bad index is harness misuse.
    pub fn set(&self, backend: usize, fault: Fault) {
        *self.slots[backend].lock() = Some(fault);
    }

    /// Heals `backend`.
    pub fn clear(&self, backend: usize) {
        *self.slots[backend].lock() = None;
    }

    /// The currently armed fault for `backend`, if any.
    pub fn get(&self, backend: usize) -> Option<Fault> {
        *self.slots[backend].lock()
    }

    /// Applies the armed fault to an operation against `backend`:
    /// sleeps through `Delay` then reports the backend usable, reports
    /// `Kill` as unusable, and hands `Corrupt` back for the caller to
    /// mangle the share bytes (stores ignore it; fetches flip bits so
    /// the tag check fires).
    pub fn apply(&self, backend: usize) -> FaultOutcome {
        match self.get(backend) {
            None => FaultOutcome::Healthy,
            Some(Fault::Kill) => FaultOutcome::Dead,
            Some(Fault::Corrupt) => FaultOutcome::Corrupting,
            Some(Fault::Delay(ms)) => {
                std::thread::sleep(Duration::from_millis(ms));
                FaultOutcome::Healthy
            }
        }
    }
}

/// Result of consulting the plan for one operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOutcome {
    /// Proceed normally (any delay already served).
    Healthy,
    /// The backend must error.
    Dead,
    /// The backend serves, but the caller corrupts the bytes in flight.
    Corrupting,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arm_clear_cycle() {
        let plan = FaultPlan::healthy(3);
        assert_eq!(plan.apply(1), FaultOutcome::Healthy);
        plan.set(1, Fault::Kill);
        assert_eq!(plan.apply(1), FaultOutcome::Dead);
        plan.set(2, Fault::Corrupt);
        assert_eq!(plan.apply(2), FaultOutcome::Corrupting);
        assert_eq!(plan.get(1), Some(Fault::Kill));
        plan.clear(1);
        assert_eq!(plan.apply(1), FaultOutcome::Healthy);
        assert_eq!(plan.get(1), None);
        plan.clear(2);
        assert_eq!(plan.apply(2), FaultOutcome::Healthy);
    }

    #[test]
    fn delay_serves_after_sleeping() {
        let plan = FaultPlan::healthy(1);
        plan.set(0, Fault::Delay(1));
        let t0 = std::time::Instant::now();
        assert_eq!(plan.apply(0), FaultOutcome::Healthy);
        assert!(t0.elapsed() >= Duration::from_millis(1));
    }
}
