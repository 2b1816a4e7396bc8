//! # diic-netlist — hierarchical net lists and electrical rules for DIIC
//!
//! The paper: "each element in the design is assigned a unique net
//! identifier using a dot notation to reference elements in an instance
//! from a higher level in the hierarchy (e.g. `a.b` refers to element `b`
//! in the instance `a`). With this hierarchical net list available, it is
//! now possible to check electrical construction rules or to check the net
//! list against an input net list for consistency."
//!
//! This crate provides:
//!
//! * [`UnionFind`] — the merge structure under net-identifier unification;
//! * [`Netlist`] — nets (with dot-notation aliases), devices and
//!   terminals as flat columns of spans over **one text buffer**: no
//!   `String` per name; read through [`Netlist::net`] /
//!   [`Netlist::device`] ([`NetRef`], [`DeviceRef`]: `&str` accessors),
//!   equal when the content is (see [`graph`] for the layout);
//! * [`assemble_netlist`] — the single from-scratch canonicalisation
//!   (components, canonical names, canonical order), [`NetlistBuilder`]
//!   its string-keyed front end, [`canonical_nets`] its net half, and
//!   [`NetlistWriter`] the from-scratch way rows are written;
//!   [`Netlist::patch`] is the other way — an edit session's splice
//!   merges the nets it re-derived into its list in place, the kept
//!   rows moved as blocks, not rewritten;
//! * [`compare`] — net-list consistency checking (extracted vs intended),
//!   both name-based and structural (iterative refinement);
//! * [`erc`] — the paper's non-geometric construction rules:
//!   1. a net must have at least two "devices" on it,
//!   2. power and ground must not be shorted,
//!   3. a "bus" may not connect to power or ground,
//!   4. a depletion device may not connect to ground.

pub mod compare;
pub mod erc;
pub mod graph;
pub mod unionfind;

pub use compare::{compare_by_structure, NetlistDiff};
pub use erc::{check_erc, check_erc_net, ErcRule, ErcViolation};
pub use graph::{
    assemble_netlist, canonical_nets, AssembleDevice, DeviceId, DeviceRef, NetId, NetRef, Netlist,
    NetlistBuilder, NetlistWriter, Patched,
};
pub use unionfind::UnionFind;
