//! Versioned model registry with atomic hot-swap.
//!
//! Workers take an `Arc` snapshot per batch, so a swap never tears a batch:
//! every request in one megabatch is answered by exactly one model version.
//! Swaps build on [`routenet::persist`]'s atomic save/load — a file being
//! replaced on disk is either the old or the new model, never a torn one.

use crate::sync::{read_recover, write_recover};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Shared, swappable model slot.
pub struct ModelRegistry<M> {
    slot: RwLock<Arc<M>>,
    version: AtomicU64,
}

impl<M> ModelRegistry<M> {
    /// Registry serving `model` as version 1.
    pub fn new(model: M) -> Self {
        Self {
            slot: RwLock::new(Arc::new(model)),
            version: AtomicU64::new(1),
        }
    }

    /// The current model and its version. The `Arc` keeps the snapshot alive
    /// for as long as a batch needs it, independent of later swaps.
    pub fn snapshot(&self) -> (Arc<M>, u64) {
        // Poison recovery, not propagation: the slot only ever holds a whole
        // `Arc`, so a panic elsewhere can never leave it half-written.
        let guard = read_recover(&self.slot);
        // Version is read under the lock so the pair is consistent.
        let version = self.version.load(Ordering::Acquire);
        (Arc::clone(&guard), version)
    }

    /// Currently served version (1-based; bumps on every swap).
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Atomically replace the served model; returns the new version.
    /// In-flight batches keep predicting with the snapshot they took.
    pub fn swap(&self, model: M) -> u64 {
        let mut guard = write_recover(&self.slot);
        *guard = Arc::new(model);
        self.version.fetch_add(1, Ordering::AcqRel) + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn swap_bumps_version_and_replaces_snapshot() {
        let reg = ModelRegistry::new(10usize);
        let (m1, v1) = reg.snapshot();
        assert_eq!((*m1, v1), (10, 1));
        assert_eq!(reg.swap(20), 2);
        let (m2, v2) = reg.snapshot();
        assert_eq!((*m2, v2), (20, 2));
        // The old snapshot stays alive and unchanged.
        assert_eq!(*m1, 10);
    }

    #[test]
    fn concurrent_readers_see_a_consistent_pair() {
        let reg = Arc::new(ModelRegistry::new(0u64));
        std::thread::scope(|s| {
            for _ in 0..2 {
                let reg = Arc::clone(&reg);
                s.spawn(move || {
                    for _ in 0..500 {
                        let (m, v) = reg.snapshot();
                        // Models are swapped in as their version number, so a
                        // consistent pair must satisfy `*m + 1 == v`... except
                        // the initial model 0 at version 1.
                        assert_eq!(*m + 1, v, "torn snapshot");
                    }
                });
            }
            for ver in 1..50u64 {
                reg.swap(ver);
            }
        });
        assert_eq!(reg.version(), 50);
    }
}
