//! Dense linear-algebra primitives for the `napmon` workspace.
//!
//! Everything in the workspace operates on `f64` data: networks are small
//! (the paper monitors close-to-output layers of perception networks, and the
//! monitored feature vectors have tens-to-hundreds of dimensions), so a
//! simple row-major [`Matrix`] plus slice-based vector helpers beats pulling
//! in a BLAS. The [`rng`] module wraps a seeded PRNG with the handful of
//! distributions the workspace needs so that every experiment is
//! reproducible from a single `u64` seed.
//!
//! ```
//! use napmon_tensor::{Matrix, vector};
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let y = a.matvec(&[1.0, 1.0]);
//! assert_eq!(y, vec![3.0, 7.0]);
//! assert!((vector::dot(&y, &y) - 58.0).abs() < 1e-12);
//! ```

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod init;
pub mod matrix;
pub mod rng;
pub mod stats;
pub mod vector;

pub use matrix::Matrix;
pub use rng::Prng;
