//! Multi-layer monitoring: one monitor per boundary, combined by a vote.
//!
//! The paper's §III-A notes that "extensions such as configuring to
//! multi-layer monitoring … are straightforward"; this module provides
//! that configuration. Each member monitor watches its own boundary (and
//! possibly its own neuron subset); an operational input is checked
//! against all of them and the verdicts are combined by a [`Vote`].

use crate::builder::AnyMonitor;
use crate::error::MonitorError;
use crate::monitor::{Monitor, QueryScratch, Verdict};
use napmon_nn::Network;
use serde::{Deserialize, Serialize};

/// How per-layer verdicts combine into one decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Vote {
    /// Warn if *any* member warns (most sensitive; unions the evidence).
    Any,
    /// Warn only if *all* members warn (most conservative).
    All,
    /// Warn if at least `k` members warn.
    AtLeast(usize),
}

impl Vote {
    fn decide(self, warnings: usize, members: usize) -> bool {
        match self {
            Vote::Any => warnings > 0,
            Vote::All => warnings == members,
            Vote::AtLeast(k) => warnings >= k,
        }
    }
}

/// Monitors over several boundaries of the same network, combined by a
/// vote.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MultiLayerMonitor {
    members: Vec<AnyMonitor>,
    vote: Vote,
}

impl MultiLayerMonitor {
    /// Combines member monitors under the given vote.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty or an `AtLeast(k)` vote demands more
    /// members than exist.
    pub fn new(members: Vec<AnyMonitor>, vote: Vote) -> Self {
        assert!(
            !members.is_empty(),
            "multi-layer monitor needs at least one member"
        );
        if let Vote::AtLeast(k) = vote {
            assert!(
                k >= 1 && k <= members.len(),
                "AtLeast({k}) with {} members",
                members.len()
            );
        }
        Self { members, vote }
    }

    /// Number of member monitors.
    pub fn num_members(&self) -> usize {
        self.members.len()
    }

    /// The voting rule.
    pub fn vote(&self) -> Vote {
        self.vote
    }

    /// The member monitors in order.
    pub fn members(&self) -> &[AnyMonitor] {
        &self.members
    }

    /// Mutable access to the member monitors (source reattachment and
    /// `&mut` absorption paths).
    pub(crate) fn members_mut(&mut self) -> &mut [AnyMonitor] {
        &mut self.members
    }

    /// Runs the network once for every member boundary and combines the
    /// member verdicts under the vote. The forward pass is shared up to
    /// each monitored boundary via [`Network::boundary_values`], so an
    /// `m`-member monitor costs one full forward pass, not `m`; every
    /// member's feature projection and abstraction word reuse the scratch.
    /// The boundary snapshot itself still allocates per query — the
    /// multi-layer path is not yet fully allocation-free.
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::DimensionMismatch`] for malformed inputs.
    pub fn verdict_scratch(
        &self,
        net: &Network,
        input: &[f64],
        scratch: &mut QueryScratch,
    ) -> Result<Verdict, MonitorError> {
        if input.len() != net.input_dim() {
            return Err(MonitorError::DimensionMismatch {
                context: "multi-layer query input".into(),
                expected: net.input_dim(),
                actual: input.len(),
            });
        }
        let boundaries = net.boundary_values(input);
        let mut warnings = 0usize;
        let mut evidence = Vec::new();
        let mut features = std::mem::take(&mut scratch.features);
        for member in &self.members {
            let fx = member.extractor();
            fx.project_into(&boundaries[fx.layer()], &mut features);
            let v = member.verdict_features_scratch(&features, scratch);
            if v.warning {
                warnings += 1;
                evidence.extend(v.violations);
            }
        }
        scratch.features = features;
        if self.vote.decide(warnings, self.members.len()) {
            Ok(Verdict::warn(evidence))
        } else {
            Ok(Verdict::ok())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::MonitorKind;
    use crate::spec::MonitorSpec;
    use napmon_nn::{Activation, LayerSpec, Network};
    use napmon_tensor::Prng;

    fn setup() -> (Network, Vec<Vec<f64>>) {
        let net = Network::seeded(
            71,
            3,
            &[
                LayerSpec::dense(8, Activation::Relu),
                LayerSpec::dense(4, Activation::Relu),
                LayerSpec::dense(2, Activation::Identity),
            ],
        );
        let mut rng = Prng::seed(72);
        let data = (0..48).map(|_| rng.uniform_vec(3, -0.5, 0.5)).collect();
        (net, data)
    }

    fn multi(net: &Network, data: &[Vec<f64>], vote: Vote) -> MultiLayerMonitor {
        let member = |layer| {
            let spec = MonitorSpec::new(layer, MonitorKind::min_max());
            spec.build(net, data).unwrap().as_single().cloned().unwrap()
        };
        MultiLayerMonitor::new(vec![member(2), member(4)], vote)
    }

    fn verdict(mm: &MultiLayerMonitor, net: &Network, x: &[f64]) -> Result<Verdict, MonitorError> {
        mm.verdict_scratch(net, x, &mut QueryScratch::new())
    }

    fn warns(mm: &MultiLayerMonitor, net: &Network, x: &[f64]) -> Result<bool, MonitorError> {
        Ok(verdict(mm, net, x)?.warning)
    }

    #[test]
    fn training_data_never_warns_under_any_vote() {
        let (net, data) = setup();
        for vote in [Vote::Any, Vote::All, Vote::AtLeast(1), Vote::AtLeast(2)] {
            let mm = multi(&net, &data, vote);
            for x in &data {
                assert!(!warns(&mm, &net, x).unwrap(), "{vote:?}");
            }
        }
    }

    #[test]
    fn far_input_warns_and_any_is_most_sensitive() {
        let (net, data) = setup();
        let any = multi(&net, &data, Vote::Any);
        let all = multi(&net, &data, Vote::All);
        let far = vec![100.0, -100.0, 100.0];
        assert!(warns(&any, &net, &far).unwrap());
        // ANY warns whenever ALL warns.
        let mut rng = Prng::seed(73);
        for _ in 0..100 {
            let probe = rng.uniform_vec(3, -3.0, 3.0);
            if warns(&all, &net, &probe).unwrap() {
                assert!(warns(&any, &net, &probe).unwrap());
            }
        }
    }

    #[test]
    fn at_least_interpolates_between_any_and_all() {
        let (net, data) = setup();
        let any = multi(&net, &data, Vote::Any);
        let two = multi(&net, &data, Vote::AtLeast(2));
        let all = multi(&net, &data, Vote::All);
        let mut rng = Prng::seed(74);
        for _ in 0..100 {
            let probe = rng.uniform_vec(3, -3.0, 3.0);
            let (a, t, l) = (
                warns(&any, &net, &probe).unwrap(),
                warns(&two, &net, &probe).unwrap(),
                warns(&all, &net, &probe).unwrap(),
            );
            // With two members AtLeast(2) == All, and All implies Any.
            assert_eq!(t, l);
            if l {
                assert!(a);
            }
        }
    }

    #[test]
    fn verdict_collects_member_evidence() {
        let (net, data) = setup();
        let mm = multi(&net, &data, Vote::Any);
        let v = verdict(&mm, &net, &[100.0, -100.0, 100.0]).unwrap();
        assert!(v.warning);
        assert!(!v.violations.is_empty());
    }

    #[test]
    fn wrong_dimension_is_an_error() {
        let (net, data) = setup();
        let mm = multi(&net, &data, Vote::Any);
        assert!(warns(&mm, &net, &[1.0]).is_err());
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn empty_members_panic() {
        MultiLayerMonitor::new(vec![], Vote::Any);
    }

    #[test]
    fn serde_round_trip() {
        let (net, data) = setup();
        let mm = multi(&net, &data, Vote::AtLeast(1));
        let json = serde_json::to_string(&mm).unwrap();
        let back: MultiLayerMonitor = serde_json::from_str(&json).unwrap();
        let mut rng = Prng::seed(75);
        for _ in 0..50 {
            let probe = rng.uniform_vec(3, -2.0, 2.0);
            assert_eq!(
                warns(&mm, &net, &probe).unwrap(),
                warns(&back, &net, &probe).unwrap()
            );
        }
    }
}
