//! Hierarchy validation and statistics.
//!
//! The paper exploits design hierarchy to avoid redundant checks; this
//! module provides the structural groundwork: cycle detection, topological
//! order (children before parents), per-symbol bounding boxes, and instance
//! counts (how many times each symbol is ultimately instantiated on the
//! chip — the flat-equivalent size).

use crate::layout::{Item, Layout, SymbolId};
use diic_geom::{Orientation, Rect};
use std::collections::HashMap;

/// The longest call chain a symbol table may hold, in symbols. Every
/// hierarchy walk after the parse ([`topological_order`], [`stats`], the
/// checker's template build) recurses once per level, and a service
/// connection's 2 MiB thread overflows at a few thousand (≈ 3 000 in
/// release, ≈ 1 000 in debug): the parser and the edit session reject
/// deeper tables where they enter, through [`check_acyclic`].
pub const MAX_CALL_DEPTH: usize = 256;

/// The most elements a layout may instantiate flat — its
/// [`HierarchyStats::flat_element_count`], ≈ 6.7 × 10⁷. That is above
/// the 10⁷-element chips the scale smoke checks, and far below what a
/// few hundred bytes of CIF can ask for: 30 levels of a symbol calling
/// its child twice are 2³⁰ elements, each cheap to stamp and all of them
/// resident. The parser and the edit session count a layout with
/// [`flat_elements`] where they enter, before any template is built,
/// and reject one past this.
pub const MAX_FLAT_ELEMENTS: u64 = 1 << 26;

/// Why a symbol table is not a hierarchy the checker can walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HierarchyError {
    /// A symbol on a call cycle.
    Cycle(SymbolId),
    /// A symbol whose longest call chain is more than [`MAX_CALL_DEPTH`]
    /// symbols long.
    TooDeep(SymbolId),
}

/// Verifies, on a heap stack, that the calls of a symbol table form a
/// DAG no more than [`MAX_CALL_DEPTH`] symbols deep — `calls(s)` lists
/// the callees of symbol `s`, each below `symbols`.
///
/// # Errors
///
/// The first cycle or over-deep chain the walk meets; it stops there.
pub fn check_acyclic<I: Iterator<Item = SymbolId>>(
    symbols: usize,
    calls: impl Fn(usize) -> I,
) -> Result<(), HierarchyError> {
    // 0 = not reached, ON_CHAIN = on the current call chain, otherwise
    // the finished symbol's longest chain (1 for a symbol that calls
    // nothing).
    const ON_CHAIN: usize = usize::MAX;
    let mut depth = vec![0; symbols];
    for root in 0..symbols {
        if depth[root] != 0 {
            continue;
        }
        depth[root] = ON_CHAIN;
        // (symbol, its callees not yet visited, its depth so far)
        let mut chain = vec![(root, calls(root), 1)];
        while let Some((symbol, rest, deepest)) = chain.last_mut() {
            let Some(target) = rest.next() else {
                let done = *deepest;
                depth[*symbol] = done;
                chain.pop();
                if let Some((_, _, caller)) = chain.last_mut() {
                    *caller = (*caller).max(done + 1);
                }
                continue;
            };
            let callee = target.0 as usize;
            // The root's chain through `callee`, if it is finished.
            let through = match depth[callee] {
                0 => {
                    depth[callee] = ON_CHAIN;
                    chain.push((callee, calls(callee), 1));
                    chain.len()
                }
                ON_CHAIN => return Err(HierarchyError::Cycle(target)),
                done => {
                    *deepest = (*deepest).max(done + 1);
                    chain.len() + done
                }
            };
            if through > MAX_CALL_DEPTH {
                return Err(HierarchyError::TooDeep(SymbolId(root as u32)));
            }
        }
    }
    Ok(())
}

/// The flat-equivalent element count of one instance of each of
/// `symbols` symbols — its own elements plus those of everything it
/// calls, saturating at `u64::MAX` — given each symbol's body,
/// `items(s)`. The calls must form a DAG no deeper than
/// [`MAX_CALL_DEPTH`] ([`check_acyclic`]): the count recurses once per
/// level.
pub fn flat_elements<'a>(symbols: usize, items: impl Fn(usize) -> &'a [Item]) -> Vec<u64> {
    fn count<'a>(s: usize, items: &impl Fn(usize) -> &'a [Item], memo: &mut [Option<u64>]) -> u64 {
        if let Some(n) = memo[s] {
            return n;
        }
        let mut n: u64 = 0;
        for item in items(s) {
            let k = match item {
                Item::Element(_) => 1,
                Item::Call(c) => count(c.target.0 as usize, items, memo),
            };
            n = n.saturating_add(k);
        }
        memo[s] = Some(n);
        n
    }
    let mut memo = vec![None; symbols];
    (0..symbols).map(|s| count(s, &items, &mut memo)).collect()
}

/// How many elements `item` instantiates flat, given each symbol's
/// [`flat_elements`] count.
pub fn item_flat_elements(item: &Item, flat: &[u64]) -> u64 {
    match item {
        Item::Element(_) => 1,
        Item::Call(c) => flat[c.target.0 as usize],
    }
}

/// Returns the symbols in topological order: every symbol appears after all
/// symbols it calls (children first). Assumes an acyclic layout.
pub fn topological_order(layout: &Layout) -> Vec<SymbolId> {
    let n = layout.symbols().len();
    let mut order = Vec::with_capacity(n);
    let mut visited = vec![false; n];

    fn visit(layout: &Layout, id: SymbolId, visited: &mut [bool], order: &mut Vec<SymbolId>) {
        if visited[id.0 as usize] {
            return;
        }
        visited[id.0 as usize] = true;
        for call in layout.symbol(id).calls() {
            visit(layout, call.target, visited, order);
        }
        order.push(id);
    }

    for i in 0..n {
        visit(layout, SymbolId(i as u32), &mut visited, &mut order);
    }
    order
}

/// Per-symbol and chip statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierarchyStats {
    /// The symbols in [`topological_order`]: children first.
    pub order: Vec<SymbolId>,
    /// Bounding box of each symbol's own + called geometry (None if empty).
    pub symbol_bbox: HashMap<SymbolId, Option<Rect>>,
    /// How many times each symbol is instantiated on the chip (through
    /// all hierarchy paths) under each **absolute** orientation (the
    /// composition of every call transform on its hierarchy path),
    /// indexed by `SymbolId.0` then `Orientation as usize` — read it
    /// through [`Self::placements`]. Instances counted in one entry
    /// differ by a translation only. Saturates at `u64::MAX`.
    pub placement_counts: Vec<[u64; 8]>,
    /// Flat-equivalent element count of one instance of each symbol
    /// (its own elements plus those of everything it calls), indexed by
    /// `SymbolId.0`. Saturates at `u64::MAX`.
    pub flat_elements: Vec<u64>,
    /// Chip bounding box.
    pub chip_bbox: Option<Rect>,
    /// Flat-equivalent element count (elements × instantiations).
    /// Saturates at `u64::MAX`.
    pub flat_element_count: u64,
    /// Hierarchical (as-stored) element count.
    pub stored_element_count: u64,
}

impl HierarchyStats {
    /// How many times `symbol` is instantiated on the chip under the
    /// absolute orientation `orient`.
    pub fn placements(&self, symbol: SymbolId, orient: Orientation) -> u64 {
        self.placement_counts[symbol.0 as usize][orient as usize]
    }
}

/// Computes hierarchy statistics bottom-up without flattening.
///
/// Every count saturates: a call chain multiplies instances per level
/// (symbol *n* calling *n − 1* twice is 2ⁿ of the leaf in a few hundred
/// bytes of CIF), so the sums are input-controlled.
pub fn stats(layout: &Layout) -> HierarchyStats {
    let order = topological_order(layout);
    let symbols = layout.symbols();
    let flat_elements = flat_elements(symbols.len(), |s| &symbols[s].items);
    let mut symbol_bbox: HashMap<SymbolId, Option<Rect>> = HashMap::new();
    for id in &order {
        let mut bbox: Option<Rect> = None;
        for item in &layout.symbol(*id).items {
            let b = match item {
                Item::Element(e) => Some(e.shape.bbox()),
                Item::Call(c) => (symbol_bbox.get(&c.target).copied().flatten())
                    .map(|child| c.transform.apply_rect(&child)),
            };
            if let Some(b) = b {
                bbox = Some(bbox.map_or(b, |acc| acc.bounding_union(&b)));
            }
        }
        symbol_bbox.insert(*id, bbox);
    }

    // Placement counts: push multiplicities down the DAG, parents before
    // children (reverse topological order), starting from the top level,
    // composing orientations along the way.
    let mut placement_counts: Vec<[u64; 8]> = vec![[0; 8]; layout.symbols().len()];
    for item in layout.top_items() {
        if let Item::Call(c) = item {
            let n = &mut placement_counts[c.target.0 as usize][c.transform.orient as usize];
            *n = n.saturating_add(1);
        }
    }
    for id in order.iter().rev() {
        let counts = placement_counts[id.0 as usize];
        for (orient, m) in Orientation::ALL.into_iter().zip(counts) {
            if m == 0 {
                continue;
            }
            for call in layout.symbol(*id).calls() {
                let child = orient.after(call.transform.orient);
                let n = &mut placement_counts[call.target.0 as usize][child as usize];
                *n = n.saturating_add(m);
            }
        }
    }

    let mut chip_bbox: Option<Rect> = None;
    let mut flat_element_count: u64 = 0;
    let mut stored_element_count: u64 = layout
        .symbols()
        .iter()
        .map(|s| s.elements().count() as u64)
        .sum();
    for item in layout.top_items() {
        flat_element_count =
            flat_element_count.saturating_add(item_flat_elements(item, &flat_elements));
        match item {
            Item::Element(e) => {
                let b = e.shape.bbox();
                chip_bbox = Some(chip_bbox.map_or(b, |acc| acc.bounding_union(&b)));
                stored_element_count += 1;
            }
            Item::Call(c) => {
                if let Some(child) = symbol_bbox.get(&c.target).copied().flatten() {
                    let tb = c.transform.apply_rect(&child);
                    chip_bbox = Some(chip_bbox.map_or(tb, |acc| acc.bounding_union(&tb)));
                }
            }
        }
    }

    HierarchyStats {
        order,
        symbol_bbox,
        placement_counts,
        flat_elements,
        chip_bbox,
        flat_element_count,
        stored_element_count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// How many times `symbol` is instantiated, under any orientation.
    fn instances(s: &HierarchyStats, symbol: SymbolId) -> u64 {
        (Orientation::ALL.iter()).fold(0, |n, &o| n.saturating_add(s.placements(symbol, o)))
    }
    use crate::parse;

    #[test]
    fn topological_children_first() {
        let l = parse("DS 1; DF; DS 2; C 1; DF; DS 3; C 2; C 1; DF; C 3; E").unwrap();
        let order = topological_order(&l);
        let pos = |cif: u32| {
            order
                .iter()
                .position(|id| l.symbol(*id).cif_id == cif)
                .unwrap()
        };
        assert!(pos(1) < pos(2));
        assert!(pos(2) < pos(3));
    }

    #[test]
    fn check_acyclic_finds_cycles_and_over_deep_chains() {
        // 0 → 1 → 2, 0 → 2, 3 alone.
        let edges: [&[u32]; 4] = [&[1, 2], &[2], &[], &[]];
        let calls = |s: usize| edges[s].iter().map(|&t| SymbolId(t));
        assert_eq!(check_acyclic(4, calls), Ok(()));
        let cycle: [&[u32]; 3] = [&[1], &[2], &[0]];
        let calls = |s: usize| cycle[s].iter().map(|&t| SymbolId(t));
        assert_eq!(
            check_acyclic(3, calls),
            Err(HierarchyError::Cycle(SymbolId(0)))
        );
        // Symbol s calls s + 1: n symbols make a chain n deep.
        let chain = |n: usize| move |s: usize| (s + 1 < n).then_some(SymbolId(s as u32 + 1));
        let deep = |n| check_acyclic(n, |s| chain(n)(s).into_iter());
        assert_eq!(deep(MAX_CALL_DEPTH), Ok(()));
        let too_deep = Err(HierarchyError::TooDeep(SymbolId(0)));
        assert_eq!(deep(MAX_CALL_DEPTH + 1), too_deep);
        // A million-deep chain stops at the bound, on the heap.
        assert_eq!(deep(1_000_000), too_deep);
        // A chain that passes the bound through a finished callee: the
        // walk from 0 finishes 0 → 1 → … (as deep as allowed) before
        // root `last` calls 0.
        let last = MAX_CALL_DEPTH;
        let extended = |s: usize| match s {
            _ if s == last => Some(SymbolId(0)),
            _ => chain(last)(s),
        };
        let extended = check_acyclic(last + 1, |s| extended(s).into_iter());
        assert_eq!(
            extended,
            Err(HierarchyError::TooDeep(SymbolId(last as u32)))
        );
    }

    #[test]
    fn stats_instance_counts_multiply() {
        // leaf called 2x by mid; mid called 3x at top => leaf 6, mid 3.
        let l = parse(
            "DS 1; L ND; B 2 2 0 0; DF;
             DS 2; C 1 T 0 0; C 1 T 10 0; DF;
             C 2; C 2 T 100 0; C 2 T 200 0; E",
        )
        .unwrap();
        let s = stats(&l);
        let leaf = l.symbol_by_cif_id(1).unwrap();
        let mid = l.symbol_by_cif_id(2).unwrap();
        assert_eq!(instances(&s, leaf), 6);
        assert_eq!(instances(&s, mid), 3);
        assert_eq!(s.flat_element_count, 6);
        assert_eq!(s.stored_element_count, 1);
    }

    #[test]
    fn stats_placement_counts_compose_orientations() {
        // leaf under mid at R90; mid at top once plain and twice mirrored:
        // the leaf's absolute orientations are R90 (x1) and MX∘R90 (x2).
        let l = parse(
            "DS 1; L ND; B 2 2 0 0; DF;
             DS 2; C 1 R 0 1; B 2 2 9 9; DF;
             C 2; C 2 MX T 100 0; C 2 MX T 200 0; E",
        )
        .unwrap();
        let s = stats(&l);
        let leaf = l.symbol_by_cif_id(1).unwrap();
        let mid = l.symbol_by_cif_id(2).unwrap();
        assert_eq!(s.placements(mid, Orientation::R0), 1);
        assert_eq!(s.placements(mid, Orientation::MR0), 2);
        let mirrored = Orientation::MR0.after(Orientation::R90);
        assert_eq!(s.placements(leaf, Orientation::R90), 1);
        assert_eq!(s.placements(leaf, mirrored), 2);
        let nonzero = s.placement_counts.iter().flatten().filter(|&&m| m > 0);
        assert_eq!(nonzero.count(), 4);
        assert_eq!(instances(&s, leaf), 3);
        assert_eq!(instances(&s, mid), 3);
        assert_eq!(s.flat_elements[mid.0 as usize], 2);
        assert_eq!(s.flat_elements[leaf.0 as usize], 1);
    }

    #[test]
    fn stats_saturate_on_a_doubling_call_chain() {
        // Symbol n calls n-1 twice, 70 deep: 2^69 leaves from a few
        // hundred bytes. The counts must pin at u64::MAX — no debug
        // panic, no release wrap-around. (The parser refuses such a
        // layout, on these counts; built here by hand.)
        use crate::layout::{Call, Element, Shape, Symbol};
        use diic_geom::Transform;
        let mut l = Layout::new();
        let layer = l.intern_layer("ND");
        let box_item = Item::Element(Element {
            layer,
            shape: Shape::Box(Rect::new(0, 0, 2, 2)),
            net: None,
        });
        let call = |target| {
            Item::Call(Call {
                target,
                transform: Transform::IDENTITY,
                name: "c".to_string(),
            })
        };
        let mut child = l.add_symbol(Symbol {
            cif_id: 1,
            name: None,
            device: None,
            items: vec![box_item],
        });
        for n in 2..=70 {
            child = l.add_symbol(Symbol {
                cif_id: n,
                name: None,
                device: None,
                items: vec![call(child), call(child)],
            });
        }
        l.push_top(call(child));
        let s = stats(&l);
        let leaf = l.symbol_by_cif_id(1).unwrap();
        let top = l.symbol_by_cif_id(70).unwrap();
        assert_eq!(s.flat_element_count, u64::MAX);
        assert_eq!(s.flat_elements[top.0 as usize], u64::MAX);
        assert_eq!(instances(&s, leaf), u64::MAX);
        assert_eq!(s.placements(leaf, Orientation::R0), u64::MAX);
        assert_eq!(instances(&s, top), 1);
        assert_eq!(s.stored_element_count, 1);
    }

    #[test]
    fn stats_bbox_through_transforms() {
        let l = parse("DS 1; L ND; B 10 10 5 5; DF; C 1 T 100 100; E").unwrap();
        let s = stats(&l);
        assert_eq!(s.chip_bbox, Some(Rect::new(100, 100, 110, 110)));
    }

    #[test]
    fn empty_layout_stats() {
        let l = parse("E").unwrap();
        let s = stats(&l);
        assert_eq!(s.chip_bbox, None);
        assert_eq!(s.flat_element_count, 0);
    }

    #[test]
    fn uninstantiated_symbol_counts_zero() {
        let l = parse("DS 1; L ND; B 2 2 0 0; DF; E").unwrap();
        let s = stats(&l);
        let id = l.symbol_by_cif_id(1).unwrap();
        assert_eq!(instances(&s, id), 0);
        assert_eq!(s.flat_element_count, 0);
        assert_eq!(s.stored_element_count, 1);
    }
}
