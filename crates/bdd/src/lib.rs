//! Reduced ordered binary decision diagrams (ROBDDs).
//!
//! The on-off and multi-bit activation-pattern monitors of the paper store
//! *sets of Boolean words* — one word per visited activation pattern — and
//! the robust construction inserts whole *cubes* (words with don't-care
//! positions) at once. Following the paper (and Bryant's classic
//! construction [ACM Comp. Surv. 1992]), the sets live in a BDD:
//!
//! - inserting a cube is linear in the number of variables, regardless of
//!   how many concrete words the don't-cares expand to (the paper's
//!   footnote 2: `word2set` causes no exponential blow-up);
//! - membership queries walk at most one node per variable;
//! - [`Bdd::satcount`] measures how much of the pattern space a monitor
//!   admits — the "monitor efficiency" metric discussed in the paper's
//!   conclusion.
//!
//! ```
//! use napmon_bdd::Bdd;
//!
//! let mut bdd = Bdd::new(3);
//! let f = Bdd::FALSE;
//! // Insert the cube 1-0 (x0=1, x1 free, x2=0): two words at once.
//! let set = bdd.insert_cube(f, &[Some(true), None, Some(false)]);
//! assert!(bdd.eval(set, &[true, false, false]));
//! assert!(bdd.eval(set, &[true, true, false]));
//! assert!(!bdd.eval(set, &[true, true, true]));
//! assert_eq!(bdd.satcount(set), 2.0);
//! ```

#![deny(clippy::undocumented_unsafe_blocks)]

mod bitslice;
mod dot;
mod fxhash;
mod manager;
mod word;

pub use bitslice::{BitSliceSet, QueryMasks, LANES, SUPERBLOCK_PATTERNS};
pub use dot::to_dot;
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use manager::{Bdd, CacheStats, NodeId};
pub use word::{AsBits, BitWord, INLINE_BITS, INLINE_WORDS};
