//! Abstract interpretation for the perturbation estimate of the paper's
//! Definition 1.
//!
//! Given a point `v` at boundary `kp` of a network and a perturbation budget
//! `Δ` (per-dimension, L∞), the monitors need a *sound* per-neuron bound on
//! everything `G^{kp+1→k}` can produce over the box `[v-Δ, v+Δ]`. The paper
//! names three suitable machineries — boxed abstraction / interval bound
//! propagation [Gowal et al. 2018], zonotopes [AI² , Gehr et al. 2018] and
//! star sets [Tran et al. 2019] — and implements the first; this crate
//! implements all three behind the [`Domain`] selector:
//!
//! - [`BoxBounds`] ([`Domain::Box`]): interval bound propagation with
//!   **outward-rounded** floating-point arithmetic, so the computed bounds
//!   are sound with respect to exact real arithmetic, not merely one
//!   f64 evaluation order. This is the domain monitors use by default, and
//!   the one the "provably" in the paper's title rests on.
//! - [`Zonotope`] ([`Domain::Zonotope`]): affine forms with shared noise
//!   symbols, exact through affine layers, DeepZ-style relaxation at ReLU;
//!   floating-point rounding slack is folded into a fresh noise symbol per
//!   affine layer, keeping the result sound.
//! - [`StarSet`] ([`Domain::Star`]): affine transform of a constrained
//!   symbol box; bounds are computed with an exact-arithmetic-free simplex
//!   LP ([`simplex`]) and inflated by a documented epsilon. Tightest of the
//!   three on unstable ReLU patterns, at LP cost.
//!
//! The entry point `napmon-core` uses is
//! [`Propagator::bounds_batch`](propagate::Propagator::bounds_batch): one
//! call bounds a whole training set, with the box bounds batched across
//! inputs at vector width. [`propagate_bounds`] is the one-input call.
//!
//! ```
//! use napmon_absint::{propagate_bounds, BoxBounds, Domain};
//! use napmon_nn::{Activation, LayerSpec, Network};
//!
//! let net = Network::seeded(3, 2, &[LayerSpec::dense(4, Activation::Relu)]);
//! let input = BoxBounds::from_center_radius(&[0.2, -0.1], 0.05);
//! let out = propagate_bounds(&net, 0, net.num_layers(), &input, Domain::Box);
//! // The concrete image of the center is inside the bounds.
//! let y = net.forward(&[0.2, -0.1]);
//! assert!(out.contains(&y));
//! ```

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod affine;
pub mod boxdom;
pub mod interval;
pub mod poly;
pub mod propagate;
pub mod simplex;
pub mod star;
pub mod zonotope;

pub use boxdom::BoxBounds;
pub use interval::Interval;
pub use poly::{poly_bounds, PolyAnalysis};
pub use propagate::{propagate_bounds, Domain};
pub use simplex::{LpError, LpSolution, Simplex};
pub use star::StarSet;
pub use zonotope::Zonotope;
