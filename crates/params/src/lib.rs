//! Tunable parameter spaces and simplex geometry for on-line parameter tuning.
//!
//! This crate implements the *parameter description* layer of an
//! Active-Harmony-style tuning system, following Tabatabaee, Tiwari &
//! Hollingsworth, *"Parallel Parameter Tuning for Applications with
//! Performance Variability"* (SC 2005):
//!
//! * [`ParamDef`] / [`ParamKind`] — a single tunable parameter: continuous,
//!   integer-stepped, or an explicit list of admissible levels,
//! * [`ParamSpace`] — the admissible region (the constrained optimization
//!   domain), including the paper's **projection operator** `Π(·)`
//!   (§3.2.1) that maps arbitrary points produced by simplex transforms
//!   back onto admissible points, rounding discrete coordinates *toward
//!   the transformation center*,
//! * [`Point`] — a point in `R^N` with the affine arithmetic used by the
//!   rank-ordering transforms,
//! * [`Simplex`] — the vertex set maintained by direct-search algorithms,
//!   with reflection / expansion / shrink transforms around the best
//!   vertex (§3.2, Fig. 2) and degeneracy (span) checking,
//! * [`init`] — initial-simplex constructions: the minimal `N+1`-vertex
//!   simplex and the symmetric `2N`-vertex simplex of §3.2.3 / §6.1.
//!
//! * [`spec`] — a compact textual space specification
//!   (`"ntheta int 16 128 step 8; nodes levels 1,2,4"`) for CLI tools
//!   and config files.
//!
//! The crate is dependency-free; randomness is injected by callers through
//! unit-interval coordinates (see [`ParamSpace::point_from_unit`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod param;
mod point;
mod simplex;
mod space;

pub mod init;
pub mod spec;

pub use error::ParamError;
pub use param::{ParamDef, ParamKind};
pub use point::{Point, PointBuildHasher, PointHasher, PointKey, PointMap};
pub use simplex::{Simplex, StepKind};
pub use space::{LatticeIter, ParamSpace, Rounding};
