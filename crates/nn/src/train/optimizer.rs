//! Gradient-descent optimizers.

use crate::layer::LayerGrad;
use crate::network::Network;
use napmon_tensor::{vector, Matrix};

/// First-order optimizer configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Optimizer {
    /// Stochastic gradient descent with classical momentum.
    Sgd {
        /// Learning rate.
        lr: f64,
        /// Momentum factor in `[0, 1)`; `0.0` recovers plain SGD.
        momentum: f64,
    },
    /// Adam (Kingma & Ba, 2015).
    Adam {
        /// Learning rate.
        lr: f64,
        /// First-moment decay, typically `0.9`.
        beta1: f64,
        /// Second-moment decay, typically `0.999`.
        beta2: f64,
        /// Numerical-stability constant.
        eps: f64,
    },
}

impl Optimizer {
    /// SGD with the given learning rate and no momentum.
    pub fn sgd(lr: f64) -> Self {
        Optimizer::Sgd { lr, momentum: 0.0 }
    }

    /// Adam with default hyper-parameters and the given learning rate.
    pub fn adam(lr: f64) -> Self {
        Optimizer::Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
        }
    }
}

/// Per-parameter optimizer state for one network.
#[derive(Debug, Clone)]
pub(crate) struct OptimizerState {
    config: Optimizer,
    /// Adam step counter.
    t: u64,
    /// First-moment / momentum buffers per layer (matching `(dw, db)`).
    m: Vec<Option<(Matrix, Vec<f64>)>>,
    /// Second-moment buffers (Adam only).
    v: Vec<Option<(Matrix, Vec<f64>)>>,
}

impl OptimizerState {
    pub(crate) fn new(config: Optimizer, num_layers: usize) -> Self {
        Self {
            config,
            t: 0,
            m: vec![None; num_layers],
            v: vec![None; num_layers],
        }
    }

    /// Applies one optimizer step given the per-layer gradients (already
    /// averaged over the batch). `grads[i]` must be `None` exactly for
    /// parameterless layers.
    ///
    /// # Panics
    ///
    /// Panics if `grads.len()` does not match the network's layer count or
    /// a gradient shape disagrees with its layer.
    pub(crate) fn step(&mut self, net: &mut Network, grads: &[Option<LayerGrad>]) {
        assert_eq!(
            grads.len(),
            net.num_layers(),
            "optimizer step: gradient count"
        );
        self.t += 1;
        for (i, layer) in net.layers_mut().iter_mut().enumerate() {
            let Some(grad) = &grads[i] else { continue };
            let updated = layer.update_params(|w, b| self.apply(i, grad, w, b));
            assert!(updated, "gradient provided for parameterless layer {i}");
        }
    }

    /// One layer's step: moves `(w, b)` against `grad` and updates layer
    /// `i`'s moment buffers.
    fn apply(&mut self, i: usize, grad: &LayerGrad, w: &mut [f64], b: &mut [f64]) {
        match self.config {
            Optimizer::Sgd { lr, momentum } => {
                if momentum == 0.0 {
                    vector::axpy(w, -lr, grad.dw.as_slice());
                    for (bi, gi) in b.iter_mut().zip(&grad.db) {
                        *bi -= lr * gi;
                    }
                } else {
                    let (mw, mb) = self.m[i].get_or_insert_with(|| {
                        (
                            Matrix::zeros(grad.dw.rows(), grad.dw.cols()),
                            vec![0.0; grad.db.len()],
                        )
                    });
                    mw.scale(momentum);
                    mw.axpy(1.0, &grad.dw);
                    for (mbi, gi) in mb.iter_mut().zip(&grad.db) {
                        *mbi = momentum * *mbi + gi;
                    }
                    vector::axpy(w, -lr, mw.as_slice());
                    for (bi, mbi) in b.iter_mut().zip(mb.iter()) {
                        *bi -= lr * mbi;
                    }
                }
            }
            Optimizer::Adam {
                lr,
                beta1,
                beta2,
                eps,
            } => {
                let (mw, mb) = self.m[i].get_or_insert_with(|| {
                    (
                        Matrix::zeros(grad.dw.rows(), grad.dw.cols()),
                        vec![0.0; grad.db.len()],
                    )
                });
                let (vw, vb) = self.v[i].get_or_insert_with(|| {
                    (
                        Matrix::zeros(grad.dw.rows(), grad.dw.cols()),
                        vec![0.0; grad.db.len()],
                    )
                });
                let bc1 = 1.0 - beta1.powi(self.t as i32);
                let bc2 = 1.0 - beta2.powi(self.t as i32);
                // Weights.
                let moments = mw.as_mut_slice().iter_mut().zip(vw.as_mut_slice());
                for ((w, &g), (m, v)) in w.iter_mut().zip(grad.dw.as_slice()).zip(moments) {
                    *m = beta1 * *m + (1.0 - beta1) * g;
                    *v = beta2 * *v + (1.0 - beta2) * g * g;
                    let mhat = *m / bc1;
                    let vhat = *v / bc2;
                    *w -= lr * mhat / (vhat.sqrt() + eps);
                }
                // Biases.
                for idx in 0..grad.db.len() {
                    let g = grad.db[idx];
                    mb[idx] = beta1 * mb[idx] + (1.0 - beta1) * g;
                    vb[idx] = beta2 * vb[idx] + (1.0 - beta2) * g * g;
                    let mhat = mb[idx] / bc1;
                    let vhat = vb[idx] / bc2;
                    b[idx] -= lr * mhat / (vhat.sqrt() + eps);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::network::{LayerSpec, Network};

    fn grad_of(net: &Network, idx: usize) -> Vec<Option<LayerGrad>> {
        // A unit gradient for one dense layer, zeros elsewhere.
        let mut grads: Vec<Option<LayerGrad>> = vec![None; net.num_layers()];
        let Some(crate::layer::Layer::Dense(d)) = net.layers().get(idx) else {
            panic!()
        };
        grads[idx] = Some(LayerGrad {
            dw: Matrix::from_fn(d.out_dim(), d.in_dim(), |_, _| 1.0),
            db: vec![1.0; d.out_dim()],
        });
        grads
    }

    #[test]
    fn sgd_moves_against_gradient() {
        let mut net = Network::seeded(1, 2, &[LayerSpec::dense(2, Activation::Identity)]);
        let before = net.layers()[0].clone();
        let mut st = OptimizerState::new(Optimizer::sgd(0.1), net.num_layers());
        let g = grad_of(&net, 0);
        st.step(&mut net, &g);
        let crate::layer::Layer::Dense(b) = &before else {
            panic!()
        };
        let crate::layer::Layer::Dense(a) = &net.layers()[0] else {
            panic!()
        };
        for (pa, pb) in a.weights().as_slice().iter().zip(b.weights().as_slice()) {
            assert!((pa - (pb - 0.1)).abs() < 1e-12);
        }
        assert!((a.bias()[0] - (b.bias()[0] - 0.1)).abs() < 1e-12);
    }

    #[test]
    fn momentum_accelerates_repeated_steps() {
        let mut plain = Network::seeded(1, 2, &[LayerSpec::dense(2, Activation::Identity)]);
        let mut heavy = plain.clone();
        let mut st_plain = OptimizerState::new(
            Optimizer::Sgd {
                lr: 0.1,
                momentum: 0.0,
            },
            1,
        );
        let mut st_heavy = OptimizerState::new(
            Optimizer::Sgd {
                lr: 0.1,
                momentum: 0.9,
            },
            1,
        );
        for _ in 0..5 {
            let g = grad_of(&plain, 0);
            st_plain.step(&mut plain, &g);
            let g = grad_of(&heavy, 0);
            st_heavy.step(&mut heavy, &g);
        }
        let crate::layer::Layer::Dense(p) = &plain.layers()[0] else {
            panic!()
        };
        let crate::layer::Layer::Dense(h) = &heavy.layers()[0] else {
            panic!()
        };
        // Same gradient every step: momentum must have travelled further.
        assert!(h.weights()[(0, 0)] < p.weights()[(0, 0)]);
    }

    #[test]
    fn adam_first_step_is_lr_sized() {
        let mut net = Network::seeded(1, 2, &[LayerSpec::dense(2, Activation::Identity)]);
        let before = net.layers()[0].clone();
        let mut st = OptimizerState::new(Optimizer::adam(0.01), 1);
        let g = grad_of(&net, 0);
        st.step(&mut net, &g);
        let crate::layer::Layer::Dense(b) = &before else {
            panic!()
        };
        let crate::layer::Layer::Dense(a) = &net.layers()[0] else {
            panic!()
        };
        // With constant unit gradient, Adam's bias-corrected first step is
        // exactly lr (up to eps).
        let step = b.weights()[(0, 0)] - a.weights()[(0, 0)];
        assert!((step - 0.01).abs() < 1e-6, "step {step}");
    }

    #[test]
    fn a_stepped_dense_layer_forwards_its_updated_weights() {
        let mut net = Network::seeded(3, 5, &[LayerSpec::dense(19, Activation::Relu)]);
        let mut st = OptimizerState::new(Optimizer::adam(0.01), net.num_layers());
        let g = grad_of(&net, 0);
        st.step(&mut net, &g);
        let crate::layer::Layer::Dense(d) = &net.layers()[0] else {
            panic!()
        };
        // The reference loop on the stepped `W`: a forward pass still
        // reading the transposed copy from before the step fails here.
        let xs = [0.3, -1.2, 0.7, 2.0, -0.4, 1.1, 0.0, -2.5, 0.9, 0.2];
        let mut batch = Vec::new();
        d.forward_batch_into(&xs, 2, &mut batch);
        for (i, x) in xs.chunks(5).enumerate() {
            let want: Vec<f64> = d
                .weights()
                .matvec(x)
                .iter()
                .zip(d.bias())
                .map(|(y, b)| y + b)
                .collect();
            assert_eq!(d.forward(x), want, "input {i}");
            assert_eq!(batch[i * 19..(i + 1) * 19], want[..], "batch row {i}");
        }
    }

    #[test]
    #[should_panic(expected = "parameterless layer")]
    fn gradient_for_activation_layer_panics() {
        let mut net = Network::seeded(1, 2, &[LayerSpec::dense(2, Activation::Relu)]);
        // Layer 1 is the ReLU activation.
        let mut grads: Vec<Option<LayerGrad>> = vec![None; net.num_layers()];
        grads[1] = Some(LayerGrad {
            dw: Matrix::zeros(1, 1),
            db: vec![0.0],
        });
        let mut st = OptimizerState::new(Optimizer::sgd(0.1), net.num_layers());
        st.step(&mut net, &grads);
    }
}
