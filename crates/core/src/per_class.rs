//! Per-class monitors: one abstraction per output class.
//!
//! The DATE 2019 on-off monitor keeps a separate pattern set per output
//! class and, in operation, checks the observed pattern against the set of
//! the class the network *predicts*. This wrapper provides that dispatch
//! for any monitor family.

use crate::builder::AnyMonitor;
use crate::error::MonitorError;
use crate::monitor::{Monitor, QueryScratch, Verdict};
use napmon_nn::Network;
use serde::{Deserialize, Serialize};

/// One monitor per class; queries dispatch on the predicted class.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PerClassMonitor {
    monitors: Vec<AnyMonitor>,
}

impl PerClassMonitor {
    /// Wraps per-class monitors (index = class).
    ///
    /// # Panics
    ///
    /// Panics if `monitors` is empty.
    pub fn new(monitors: Vec<AnyMonitor>) -> Self {
        assert!(
            !monitors.is_empty(),
            "per-class monitor needs at least one class"
        );
        Self { monitors }
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.monitors.len()
    }

    /// The monitor of one class.
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range.
    pub fn class_monitor(&self, class: usize) -> &AnyMonitor {
        &self.monitors[class]
    }

    /// Mutable access to the per-class monitors (source reattachment and
    /// `&mut` absorption paths).
    pub(crate) fn monitors_mut(&mut self) -> &mut [AnyMonitor] {
        &mut self.monitors
    }

    /// Runs the network, picks the predicted class, and returns that
    /// class's verdict. The class prediction reuses the scratch's forward
    /// buffers too.
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::DimensionMismatch`] for malformed inputs or
    /// [`MonitorError::InvalidConfig`] if the network predicts a class with
    /// no monitor.
    pub fn verdict_scratch(
        &self,
        net: &Network,
        input: &[f64],
        scratch: &mut QueryScratch,
    ) -> Result<Verdict, MonitorError> {
        if input.len() != net.input_dim() {
            return Err(MonitorError::DimensionMismatch {
                context: "per-class query input".into(),
                expected: net.input_dim(),
                actual: input.len(),
            });
        }
        let class = {
            let out = net.forward_prefix_into(input, net.num_layers(), &mut scratch.forward);
            napmon_tensor::vector::argmax(out)
        };
        let monitor = self.monitors.get(class).ok_or_else(|| {
            MonitorError::InvalidConfig(format!(
                "predicted class {class} has no monitor ({} classes)",
                self.monitors.len()
            ))
        })?;
        monitor.verdict_scratch(net, input, scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::MonitorKind;
    use crate::spec::{ComposedMonitor, MonitorSpec};
    use napmon_nn::{Activation, LayerSpec, Network};

    fn setup() -> (Network, PerClassMonitor, Vec<Vec<f64>>) {
        let net = Network::seeded(
            61,
            2,
            &[
                LayerSpec::dense(6, Activation::Relu),
                LayerSpec::dense(2, Activation::Identity),
            ],
        );
        // Synthesize inputs until both classes appear.
        let mut data = Vec::new();
        for i in 0..64 {
            let x = vec![(i as f64 / 32.0) - 1.0, ((i * 7 % 64) as f64 / 32.0) - 1.0];
            data.push(x);
        }
        let labels: Vec<usize> = data.iter().map(|x| net.predict_class(x)).collect();
        assert!(
            labels.contains(&0) && labels.contains(&1),
            "need both classes"
        );
        let spec = MonitorSpec::new(2, MonitorKind::min_max()).per_class(2);
        let ComposedMonitor::PerClass(pc) = spec.build_with_labels(&net, &data, &labels).unwrap()
        else {
            unreachable!("per-class spec")
        };
        (net, pc, data)
    }

    fn verdict(pc: &PerClassMonitor, net: &Network, x: &[f64]) -> Result<Verdict, MonitorError> {
        pc.verdict_scratch(net, x, &mut QueryScratch::new())
    }

    fn warns(pc: &PerClassMonitor, net: &Network, x: &[f64]) -> bool {
        verdict(pc, net, x).unwrap().warning
    }

    #[test]
    fn training_inputs_do_not_warn() {
        let (net, pc, data) = setup();
        for x in &data {
            assert!(!warns(&pc, &net, x));
        }
    }

    #[test]
    fn num_classes_and_access() {
        let (_, pc, _) = setup();
        assert_eq!(pc.num_classes(), 2);
        assert!(pc.class_monitor(0).as_min_max().is_some());
    }

    #[test]
    fn wrong_input_dimension_errors() {
        let (net, pc, _) = setup();
        assert!(verdict(&pc, &net, &[1.0]).is_err());
    }

    #[test]
    fn far_inputs_warn() {
        let (net, pc, _) = setup();
        assert!(warns(&pc, &net, &[100.0, -100.0]));
    }

    #[test]
    #[should_panic(expected = "at least one class")]
    fn empty_class_list_panics() {
        PerClassMonitor::new(vec![]);
    }
}
