//! Benchmark-side instruments: the optimizer-step clock around a model,
//! the process's peak resident memory, and the label digest.

use rn_autograd::{Graph, Var};
use rn_dataset::{Dataset, Normalizer, Sample};
use rn_nn::Layer;
use rn_tensor::Matrix;
use routenet::entities::SamplePlan;
use routenet::features::FeatureScales;
use routenet::{ModelConfig, PathPredictor};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A model wrapper that timestamps every optimizer step.
///
/// `routenet::train` hands the model's parameters to the optimizer exactly
/// once per step (`params_mut`), so the gaps between consecutive stamps are
/// the wall time of whole steps: composition claim, forward, backward,
/// gradient merge and the update. Every other call is forwarded unchanged,
/// so training is bitwise the same as with the bare model.
#[derive(Clone)]
pub struct StepClock<M> {
    /// The wrapped model.
    pub inner: M,
    stamps: Arc<Mutex<Vec<Instant>>>,
}

impl<M> StepClock<M> {
    /// Wrap `inner` with an empty stamp log.
    pub fn new(inner: M) -> Self {
        Self {
            inner,
            stamps: Arc::default(),
        }
    }

    /// Milliseconds between consecutive optimizer steps so far. The first
    /// stamp has no predecessor inside the step loop (it follows
    /// preprocessing and planning), so it opens the first gap.
    pub fn step_gaps_ms(&self) -> Vec<f64> {
        let stamps = self.stamps.lock().expect("step clock poisoned");
        stamps
            .windows(2)
            .map(|w| (w[1] - w[0]).as_secs_f64() * 1e3)
            .collect()
    }

    /// Optimizer steps stamped so far.
    pub fn steps(&self) -> usize {
        self.stamps.lock().expect("step clock poisoned").len()
    }
}

impl<M: PathPredictor> Layer for StepClock<M> {
    type Bound = M::Bound;

    fn bind(&self, g: &mut Graph) -> M::Bound {
        self.inner.bind(g)
    }

    fn params(&self) -> Vec<&Matrix> {
        self.inner.params()
    }

    fn params_mut(&mut self) -> Vec<&mut Matrix> {
        self.stamps
            .lock()
            .expect("step clock poisoned")
            .push(Instant::now());
        self.inner.params_mut()
    }

    fn bound_vars(bound: &M::Bound) -> Vec<Var> {
        M::bound_vars(bound)
    }
}

impl<M: PathPredictor> PathPredictor for StepClock<M> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn config(&self) -> &ModelConfig {
        self.inner.config()
    }

    fn preprocessing(&self) -> (&FeatureScales, &Normalizer) {
        self.inner.preprocessing()
    }

    fn fit_preprocessing(&mut self, train: &Dataset, min_packets: u64) {
        self.inner.fit_preprocessing(train, min_packets)
    }

    fn set_normalizer(&mut self, normalizer: Normalizer) {
        self.inner.set_normalizer(normalizer)
    }

    fn forward(&self, g: &mut Graph, bound: &M::Bound, plan: &SamplePlan) -> Var {
        self.inner.forward(g, bound, plan)
    }

    fn forward_unfused(&self, g: &mut Graph, bound: &M::Bound, plan: &SamplePlan) -> Var {
        self.inner.forward_unfused(g, bound, plan)
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// FNV-1a over a byte stream.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold `bytes` in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of every simulated label in `samples`: per-path delay, jitter,
/// loss and delivered count, plus per-class statistics for QoS scenarios.
/// The simulator is seeded, so a given seed must reproduce it exactly; a
/// change that only speeds the simulator up leaves it unchanged.
pub fn label_digest<'a>(samples: impl IntoIterator<Item = &'a Sample>) -> u64 {
    let mut h = Fnv::default();
    for s in samples {
        for t in &s.targets {
            h.bytes(&t.mean_delay_s.to_bits().to_le_bytes());
            h.bytes(&t.jitter_s.to_bits().to_le_bytes());
            h.bytes(&t.loss_ratio.to_bits().to_le_bytes());
            h.bytes(&t.delivered.to_le_bytes());
        }
        if let Some(qos) = &s.qos {
            let classes =
                serde_json::to_string(&qos.class_targets).expect("class statistics serialize");
            h.bytes(classes.as_bytes());
        }
    }
    h.finish()
}

/// Packets the simulator delivered (after warm-up) across `samples`.
pub fn delivered_packets(samples: &[Sample]) -> u64 {
    samples
        .iter()
        .flat_map(|s| &s.targets)
        .map(|t| t.delivered)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        let mut h = Fnv::default();
        h.bytes(b"");
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv::default();
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn peak_rss_is_reported_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb().expect("VmHWM") > 0.0);
        }
    }
}
