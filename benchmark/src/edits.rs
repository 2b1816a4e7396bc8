//! The seeded do/undo edit stream the `edit-session` and `service-mix`
//! workloads replay.
//!
//! `diic_gen::random_edit_set` was tried first and rejected: its adds
//! outnumber its removes, so the chip grew about 4x over a run and the
//! tail latency drifted with it. Here every edit is followed within
//! four ops by its exact inverse (pending inverses form a stack at most
//! two deep), so after every closed group of ops the layout — and
//! therefore the report — is back at its start. A stream can be cut at
//! any point by applying the inverses [`EditStream::close`] returns, and
//! replayed cyclically for as long as a run measures.

use diic_cif::{Item, Layout, SymbolId};
use diic_core::EditSet;
use diic_gen::l;
use diic_geom::{Rect, Transform, Vector};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngCore, SeedableRng};

/// A mix with exact proportions: a shuffled deck of choices, dealt one
/// at a time and reshuffled when it runs out. A per-op random draw made
/// the count of rare, slow choices (rebuilds, session opens) vary from
/// seed to seed, and the tail percentile with it.
#[derive(Debug)]
pub struct Deck<T> {
    cards: Vec<T>,
    dealt: usize,
}

impl<T: Copy> Deck<T> {
    /// A deck holding `n` copies of each `(choice, n)`.
    pub fn new(mix: &[(T, usize)]) -> Deck<T> {
        let cards: Vec<T> = mix
            .iter()
            .flat_map(|&(choice, n)| std::iter::repeat_n(choice, n))
            .collect();
        Deck {
            dealt: cards.len(),
            cards,
        }
    }

    /// The next choice.
    pub fn deal(&mut self, rng: &mut StdRng) -> T {
        if self.dealt == self.cards.len() {
            self.cards.shuffle(rng);
            self.dealt = 0;
        }
        self.dealt += 1;
        self.cards[self.dealt - 1]
    }
}

/// What a stream op does; an inverse carries the kind of the edit it
/// undoes, so a kind's latency covers the edit and its undo.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EditKind {
    /// Translate an existing top-level item (60 %).
    Move,
    /// Add a metal wire, one in five below minimum width (25 %).
    Add,
    /// Instantiate an existing symbol (11 %).
    AddCall,
    /// Replace a symbol body with a nudged copy (4 %).
    Replace,
}

impl EditKind {
    /// All kinds, in reporting order.
    pub const ALL: [EditKind; 4] = [
        EditKind::Move,
        EditKind::Add,
        EditKind::AddCall,
        EditKind::Replace,
    ];
}

/// One op of the stream: a single-edit [`EditSet`].
#[derive(Debug, Clone)]
pub struct StreamOp {
    /// The kind of the edit this op does or undoes.
    pub kind: EditKind,
    /// The edit batch handed to the checker.
    pub edits: EditSet,
}

/// A do/undo stream over one start layout, replayed cyclically.
#[derive(Debug)]
pub struct EditStream {
    ops: Vec<StreamOp>,
    /// `pending[i]` holds the inverses still pending after `ops[i]`,
    /// innermost first — what [`EditStream::close`] returns.
    pending: Vec<Vec<StreamOp>>,
    cursor: usize,
}

impl EditStream {
    /// Builds `len` ops (plus the inverses needed to close the last
    /// group) against `layout`, deterministically from `seed`.
    pub fn new(layout: &Layout, seed: u64, len: usize) -> EditStream {
        let mut rng = StdRng::seed_from_u64(seed);
        let n0 = layout.top_items().len();
        assert!(
            n0 > 0 && !layout.symbols().is_empty(),
            "the stream edits existing items and symbols"
        );
        let mut kinds = Deck::new(&[
            (EditKind::Move, 60),
            (EditKind::Add, 25),
            (EditKind::AddCall, 11),
            (EditKind::Replace, 4),
        ]);
        // Added geometry lands inside the chip's extent.
        let bounds = diic_cif::flatten(layout)
            .iter()
            .map(|e| e.shape.bbox())
            .reduce(|a, b| a.bounding_union(&b))
            .unwrap_or_else(|| Rect::new(0, 0, l(40), l(40)));
        let mut ops = Vec::with_capacity(len + 2);
        let mut pending = Vec::with_capacity(len + 2);
        let mut stack: Vec<StreamOp> = Vec::new();
        while ops.len() < len || !stack.is_empty() {
            let close = ops.len() >= len
                || stack.len() == 2
                || (!stack.is_empty() && rng.next_below(2) == 0);
            if close {
                // invariant: `close` is only true with a non-empty stack.
                ops.push(stack.pop().expect("an inverse is pending"));
            } else {
                let adds_pending = stack
                    .iter()
                    .filter(|op| matches!(op.kind, EditKind::Add | EditKind::AddCall))
                    .count();
                let kind = kinds.deal(&mut rng);
                let appended = n0 + adds_pending;
                let (op, inverse) = fresh_edit(layout, &bounds, kind, appended, &mut rng);
                ops.push(op);
                stack.push(inverse);
            }
            pending.push(stack.iter().rev().cloned().collect());
        }
        EditStream {
            ops,
            pending,
            cursor: 0,
        }
    }

    /// The index [`EditStream::next_op`] returns next.
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    /// All ops of one cycle, in order (for pre-encoding wire bodies).
    pub fn ops(&self) -> &[StreamOp] {
        &self.ops
    }

    /// The next op; the stream wraps around at the end of a cycle,
    /// where every group is closed.
    pub fn next_op(&mut self) -> &StreamOp {
        let op = &self.ops[self.cursor];
        self.cursor = (self.cursor + 1) % self.ops.len();
        op
    }

    /// Inverses still pending at the cursor, innermost first.
    fn pending_at_cursor(&self) -> &[StreamOp] {
        match self.cursor {
            0 => &[],
            c => &self.pending[c - 1],
        }
    }

    /// Cuts the stream here: returns the inverses that take the layout
    /// back to its start, innermost first, and rewinds to the start of
    /// a cycle.
    pub fn close(&mut self) -> Vec<StreamOp> {
        let inverses = self.pending_at_cursor().to_vec();
        self.cursor = 0;
        inverses
    }
}

/// Uniform coordinate in `lo..=hi`, snapped to quarter-λ.
fn coord_in(rng: &mut StdRng, lo: i64, hi: i64) -> i64 {
    let raw = lo + rng.next_below((hi - lo).max(1) as u64) as i64;
    raw - raw.rem_euclid(l(1) / 4)
}

/// One fresh edit of `kind` and its exact inverse. `appended` is the
/// index the next appended item lands on: the start layout's item
/// count plus the appended items still pending.
fn fresh_edit(
    layout: &Layout,
    bounds: &Rect,
    kind: EditKind,
    appended: usize,
    rng: &mut StdRng,
) -> (StreamOp, StreamOp) {
    let (mut edit, mut undo) = (EditSet::new(), EditSet::new());
    let symbols = layout.symbols().len() as u64;
    match kind {
        EditKind::Move => {
            // Only items of the start layout move: their indices hold
            // whatever is appended behind them.
            let index = rng.next_below(layout.top_items().len() as u64) as usize;
            let (dx, dy) = loop {
                let d = (rng.next_below(17) as i64 - 8, rng.next_below(17) as i64 - 8);
                if d != (0, 0) {
                    break d;
                }
            };
            edit.translate(index, l(dx), l(dy));
            undo.translate(index, -l(dx), -l(dy));
        }
        EditKind::AddCall => {
            let symbol = SymbolId(rng.next_below(symbols) as u32);
            let at = Vector::new(
                coord_in(rng, bounds.x1, bounds.x2),
                coord_in(rng, bounds.y1, bounds.y2),
            );
            edit.add_call(
                symbol,
                Transform::translate(at),
                &format!("bench{appended}c"),
            );
            undo.remove(appended);
        }
        EditKind::Replace => {
            let symbol = SymbolId(rng.next_below(symbols) as u32);
            let nudge = Transform::translate(Vector::new(
                l(rng.next_below(3) as i64 - 1),
                l(rng.next_below(3) as i64 - 1),
            ));
            let original = layout.symbol(symbol).items.clone();
            let nudged = original
                .iter()
                .map(|item| match item {
                    Item::Element(e) => {
                        let mut e = e.clone();
                        e.shape = e.shape.transformed(&nudge);
                        Item::Element(e)
                    }
                    Item::Call(c) => {
                        let mut c = c.clone();
                        c.transform = nudge.after(&c.transform);
                        Item::Call(c)
                    }
                })
                .collect();
            edit.replace_symbol(symbol, nudged);
            undo.replace_symbol(symbol, original);
        }
        EditKind::Add => {
            let (x, y) = (
                coord_in(rng, bounds.x1, bounds.x2),
                coord_in(rng, bounds.y1, bounds.y2),
            );
            // Metal needs 3λ; one wire in five is 50 units short of it.
            let height = if rng.next_below(5) == 0 {
                l(3) - 50
            } else {
                l(3)
            };
            let net = (rng.next_below(2) == 0).then(|| format!("IO_BENCH{appended}"));
            edit.add_box("NM", Rect::new(x, y, x + l(8), y + height), net.as_deref());
            undo.remove(appended);
        }
    }
    (
        StreamOp { kind, edits: edit },
        StreamOp { kind, edits: undo },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use diic_core::{CheckOptions, CheckSession};

    fn start_layout(seed: u64) -> Layout {
        let chip = diic_gen::generate(&diic_gen::ChipSpec::with_errors(
            4,
            3,
            vec![
                diic_gen::ErrorKind::NarrowWire,
                diic_gen::ErrorKind::CloseSpacing,
            ],
            seed,
        ));
        diic_cif::parse(&chip.cif).expect("generated chips always parse")
    }

    #[test]
    fn every_cut_point_drains_back_to_the_start_layout() {
        let tech = diic_tech::nmos::nmos_technology();
        for seed in [1u64, 2, 3] {
            let start = start_layout(seed);
            let mut stream = EditStream::new(&start, seed, 120);
            let mut session = CheckSession::new(start.clone(), &tech, &CheckOptions::default());
            for _ in 0..stream.ops().len() + 7 {
                let op = stream.next_op().clone();
                session.apply(&op.edits).expect("stream edits are valid");
                // Cut here: replay the pending inverses on a copy.
                let mut cut = session.layout().clone();
                let mut probe = CheckSession::new(cut.clone(), &tech, &CheckOptions::default());
                for inverse in stream.pending_at_cursor() {
                    probe.apply(&inverse.edits).expect("inverses are valid");
                }
                cut = probe.layout().clone();
                assert_eq!(cut, start, "seed {seed}: cut at op {}", stream.cursor());
            }
        }
    }

    #[test]
    fn an_edit_is_undone_within_four_ops_and_the_mix_is_as_stated() {
        let start = start_layout(9);
        let stream = EditStream::new(&start, 9, 4000);
        let mut depth_max = 0;
        for pending in &stream.pending {
            depth_max = depth_max.max(pending.len());
        }
        assert!(depth_max <= 2, "pending inverses nest {depth_max} deep");
        assert!(stream.pending.last().expect("non-empty").is_empty());
        let share = |kind| {
            stream.ops.iter().filter(|op| op.kind == kind).count() as f64
                / stream.ops().len() as f64
        };
        assert!((share(EditKind::Move) - 0.60).abs() < 0.04);
        assert!((share(EditKind::Add) - 0.25).abs() < 0.04);
        assert!((share(EditKind::AddCall) - 0.11).abs() < 0.03);
        assert!((share(EditKind::Replace) - 0.04).abs() < 0.02);
    }
}
