//! # diic-geom — integer geometry kernel for layout verification
//!
//! This crate is the geometric substrate of the DIIC (Design Integrity and
//! Immunity Checking) system, a reproduction of McGrath & Whitney,
//! *"Design Integrity and Immunity Checking"*, DAC 1980.
//!
//! All coordinates are `i64` database units (1 unit = 1 centimicron, the CIF
//! convention). Squared distances are computed in `i128`, so no practical
//! layout can overflow.
//!
//! The kernel provides:
//!
//! * primitive types: [`Point`], [`Vector`], [`Rect`], [`Segment`],
//!   [`Polygon`], [`Wire`], [`Transform`];
//! * [`Region`]: a canonical set of disjoint axis-aligned rectangles with
//!   Boolean operations (union / intersection / difference / xor) computed by
//!   a sweep-line algorithm (see [`boolean`]);
//! * sizing (expand / shrink) in both *orthogonal* (L∞, square-corner) and
//!   *Euclidean* (L2, round-corner) flavours (see [`size`] and [`raster`]) —
//!   the two techniques whose corner pathologies the paper's Figs. 3–4
//!   illustrate;
//! * width checking: the exact edge-pair algorithm used by the DIIC pipeline
//!   and the *shrink-expand-compare* baseline the paper critiques
//!   (see [`width`]);
//! * spacing checking: distance predicates in L2 and L∞ metrics and the
//!   *expand-check-overlap* baseline (see [`spacing`]);
//! * skeletal connectivity (paper Fig. 11): an element's *skeleton* is the
//!   element shrunk by half the minimum width of its layer; two elements are
//!   legally connected iff their skeletons touch, overlap, or enclose one
//!   another (see [`skeleton`]);
//! * a uniform-grid spatial index for interaction searches (see [`index`]);
//! * batch kernels over rectangle column slices — pair sweeps, closest
//!   approach, branch-free run filters — for columnar element stores
//!   (see [`batch`]).
//!
//! # Example
//!
//! ```
//! use diic_geom::{Rect, Region};
//!
//! let a = Rect::new(0, 0, 100, 100);
//! let b = Rect::new(50, 50, 150, 150);
//! let union = Region::from_rect(a).union(&Region::from_rect(b));
//! assert_eq!(union.area(), 100 * 100 + 100 * 100 - 50 * 50);
//! ```

pub mod batch;
pub mod boolean;
pub mod distance;
pub mod edge;
pub mod index;
pub mod point;
pub mod polygon;
pub mod raster;
pub mod rect;
pub mod region;
pub mod size;
pub mod skeleton;
pub mod spacing;
pub mod transform;
pub mod width;
pub mod wire;

pub use edge::Segment;
pub use index::{FlatGrid, GridIndex};
pub use point::{Point, Vector};
pub use polygon::Polygon;
pub use raster::Raster;
pub use rect::Rect;
pub use region::Region;
pub use size::SizingMode;
pub use transform::{Orientation, Transform};
pub use wire::Wire;

/// Database-unit coordinate type (1 unit = 1 centimicron, as in CIF).
pub type Coord = i64;

/// The largest coordinate magnitude the text front ends hand on: 2⁵².
/// The CIF parser bounds every coordinate, box corner and composed call
/// translation by it, and the deck compiler every rule distance. A
/// point placed through 256 levels of calls (the parser's call-depth
/// bound) then lies within `±2⁶¹`, so the sums and differences the
/// checker forms from such points and distances fit a [`Coord`].
pub const MAX_COORD: Coord = 1 << 52;

/// Errors produced by geometric constructors and algorithms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GeomError {
    /// A polygon had fewer than three vertices.
    TooFewVertices(usize),
    /// A polygon has zero area (all vertices collinear).
    DegeneratePolygon,
    /// A polygon is not rectilinear where a rectilinear one is required.
    NotRectilinear,
    /// A wire had no points or a non-positive width.
    InvalidWire,
    /// A sizing amount was negative.
    NegativeSize(Coord),
}

impl std::fmt::Display for GeomError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GeomError::TooFewVertices(n) => {
                write!(f, "polygon has {n} vertices, need at least 3")
            }
            GeomError::DegeneratePolygon => write!(f, "polygon has zero area"),
            GeomError::NotRectilinear => {
                write!(
                    f,
                    "polygon is not rectilinear (axis-parallel edges required)"
                )
            }
            GeomError::InvalidWire => write!(f, "wire needs at least one point and positive width"),
            GeomError::NegativeSize(d) => write!(f, "sizing amount {d} is negative"),
        }
    }
}

impl std::error::Error for GeomError {}
