//! Binding a parsed layout to a technology, and the instantiated chip view.
//!
//! Stages 3–6 of the pipeline work on *instantiated* elements — but unlike
//! a flat checker, every instantiated element keeps its topology: the
//! instance path of the calls that placed it, the device instance it
//! belongs to, its net key, and its skeleton. "The information about what
//! symbol the piece of geometry came from is never lost": an element's
//! position says it — the top-level item whose run holds it, and its
//! place in that definition's walk — so no column repeats it per element.
//!
//! # The view's memory floor: interned strings, columnar elements
//!
//! The [`ChipView`] is the pipeline's one intentionally O(chip) artefact
//! (it *is* the chip), so its per-element cost is the resident-set floor
//! at million-element scale. Two storage decisions squeeze that floor
//! without changing a byte of rendered output:
//!
//! * **Interned strings.** The topology strings — instance `path`, net
//!   key, device type — are massively shared (every element of an
//!   instance repeats its path; every instance of a symbol repeats its
//!   device type), so the view stores them once in a [`StringInterner`]
//!   and elements / [`DeviceInstance`]s carry 4-byte [`Istr`] handles
//!   instead of owned `String`s. Handles from one view compare equal iff
//!   the strings are equal; render them with [`ChipView::str`]. The
//!   table itself is an arena: its strings lie end to end in one text
//!   buffer behind a column of end offsets, so a distinct string costs
//!   its bytes, an offset and a bucket — never a heap object of its own
//!   (at a million elements that was 1.4 million small allocations, and
//!   as many frees when the view dropped).
//!
//! * **Columnar elements.** Elements live in [`ElementColumns`] — a
//!   struct-of-arrays store with one dense, fixed-width column per
//!   field (`layer`, `bbox`, `net_key`, `path`, flag bits, a sentinel-
//!   encoded device index) and the variable-length geometry
//!   (covered rectangles, skeleton rectangles) packed into two shared
//!   arenas addressed by `(offset, len)` ranges. An element's id is its
//!   position — the walk and the incremental session's run splicing
//!   both preserve position, so no id column is stored at all. Hot stages sweep the dense columns (the
//!   [`diic_geom::batch`] kernels); anything that wants one element's
//!   fields together borrows a zero-cost [`ElementRef`] view.
//!
//! # Instantiation: derive once, stamp by translation
//!
//! [`instantiate`] derives each repeated definition's geometry and key
//! text once, into a `Template`, and builds the view by stamping
//! templates (columns copied, the call's offset added, its instance
//! path spliced into the strings); the recursive walk remains the only
//! geometry derivation — it builds the templates and handles whatever is
//! used once. See [`instantiate`] for the rule.
//!
//! The walk writes each element straight into the columns: its covered
//! rectangles onto the arena, then one `ElementColumns::push` for the
//! rest. There is no boxed per-element record.

use crate::library::{CellDefinitions, Definition};
use crate::violations::{CheckStage, Violation, ViolationKind};
use diic_cif::hierarchy::{self, HierarchyStats};
use diic_cif::{Call, Item, LayerRef, Layout, Shape, SymbolId};
use diic_geom::skeleton::Skeleton;
use diic_geom::{Orientation, Point, Rect, Region, Transform, Vector};
use diic_tech::{DeviceClass, LayerId, Technology};
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
use std::sync::Arc;

/// A `u32`-keyed handle into a [`StringInterner`]: the interned form of
/// an element's `path` / `net_key` and a [`DeviceInstance`]'s
/// `path` / `device_type`. Two handles from the **same** interner are
/// equal iff their strings are equal (the interner deduplicates), so
/// hot paths compare and hash 4-byte ids instead of strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Istr(u32);

impl Istr {
    /// The raw index into the owning interner.
    pub fn index(self) -> u32 {
        self.0
    }

    /// Rebuilds a handle from a raw index (crate-internal: the net
    /// graph stores its node ids as bare `u32`s).
    pub(crate) fn from_index(index: u32) -> Istr {
        Istr(index)
    }
}

/// Passes a `u64` key through unchanged: the interner's bucket map is
/// keyed by string hashes (`StringInterner::hash_of`) already computed
/// and mixed, so hashing them again would only cost time.
#[derive(Debug, Clone, Copy, Default)]
struct PrehashedKey(u64);

impl Hasher for PrehashedKey {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        // invariant: the only key type of the map is `u64`.
        unreachable!("the bucket map is keyed by u64 string hashes only")
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

/// An append-only hash-consing table: each distinct string is stored
/// exactly once and addressed by a stable [`Istr`] handle.
///
/// **Layout.** The strings lie end to end, in handle order, in one text
/// buffer; `ends[i]` is where string `i` stops (it starts where string
/// `i − 1` stopped, string 0 at byte 0). The text and its offsets are
/// two buffers however many strings the table holds: a miss appends, a
/// read slices (bounds- and boundary-checked — the table has no `unsafe`).
/// Offsets are `u32`, **checked**: a table whose text would pass 4 GiB
/// panics instead of wrapping.
///
/// Lookup is by hash bucket with a full-string compare (no second copy
/// of the key inside a map), so unique strings — auto net keys are
/// mostly unique — cost their bytes plus an offset and bucket
/// bookkeeping, while shared strings (instance paths, device types)
/// collapse to one entry however many elements reference them. Handles
/// are never invalidated: an edit session keeps one interner alive
/// across applies and stale strings simply stop being referenced.
///
/// Every string is hashed **once**, a machine word at a time, and the
/// bucket map takes that hash as is. The strings come from outside the
/// program (call names, net names), so the hash is keyed per table with
/// process-random bits: a file cannot be prepared ahead of time to pile
/// its strings into one bucket. Nothing observable depends on hash values — handles are
/// numbered by insertion order.
#[derive(Debug, Clone)]
pub struct StringInterner {
    /// Every string, end to end, in handle order.
    text: String,
    /// End offset in `text` of each string.
    ends: Vec<u32>,
    /// String hash → first id with that hash. Full-`u64` collisions are
    /// vanishingly rare, so the common case costs one flat map entry
    /// per distinct string; the rare extra ids live in `overflow`.
    first: HashMap<u64, u32, BuildHasherDefault<PrehashedKey>>,
    /// `(hash, id)` pairs beyond the first per hash — scanned only when
    /// the first id's string mismatches.
    overflow: Vec<(u64, u32)>,
    /// This table's hash key (see the type docs).
    key: u64,
    /// Tests replace the hash to pile strings into a few buckets, so
    /// every path that hashes — compaction too — runs through the
    /// overflow list.
    #[cfg(test)]
    forced_hash: Option<fn(&str) -> u64>,
}

impl Default for StringInterner {
    fn default() -> Self {
        StringInterner {
            text: String::new(),
            ends: Vec::new(),
            first: HashMap::default(),
            overflow: Vec::new(),
            key: std::collections::hash_map::RandomState::new()
                .build_hasher()
                .finish(),
            #[cfg(test)]
            forced_hash: None,
        }
    }
}

/// String `id` of a table laid out as `text` / `ends` (see
/// [`StringInterner`]).
fn slice_of<'a>(text: &'a str, ends: &[u32], id: u32) -> &'a str {
    let start = match id {
        0 => 0,
        _ => ends[id as usize - 1],
    };
    &text[start as usize..ends[id as usize] as usize]
}

impl StringInterner {
    /// Rotate-xor-multiply over 8-byte words (the tail zero-padded, the
    /// length folded into the start state), then an avalanche so both
    /// the low bits (the map's bucket) and the top seven (its control
    /// tag) depend on every input bit.
    fn hash_of(&self, s: &str) -> u64 {
        #[cfg(test)]
        if let Some(forced) = self.forced_hash {
            return forced(s);
        }
        const K: u64 = 0x9E37_79B9_7F4A_7C15;
        let mix =
            |h: u64, word: [u8; 8]| (h.rotate_left(5) ^ u64::from_le_bytes(word)).wrapping_mul(K);
        let mut h = self.key ^ s.len() as u64;
        let mut words = s.as_bytes().chunks_exact(8);
        for word in &mut words {
            // invariant: `chunks_exact(8)` yields 8-byte slices.
            h = mix(h, word.try_into().expect("an 8-byte chunk"));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            h = mix(h, word);
        }
        h ^= h >> 32;
        h = h.wrapping_mul(K);
        h ^ (h >> 29)
    }

    /// Interns a string, returning the stable handle of its single
    /// stored copy.
    pub fn intern(&mut self, s: &str) -> Istr {
        let hash = self.hash_of(s);
        self.intern_hashed(s, hash)
    }

    /// [`StringInterner::intern`] with the hash supplied (tests force
    /// equal hashes through here; nothing else picks its own).
    fn intern_hashed(&mut self, s: &str, hash: u64) -> Istr {
        let id = self.ends.len() as u32;
        match self.first.entry(hash) {
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(id);
            }
            std::collections::hash_map::Entry::Occupied(e) => {
                let hit =
                    Self::find_from(&self.text, &self.ends, &self.overflow, *e.get(), s, hash);
                if let Some(hit) = hit {
                    return hit;
                }
                self.overflow.push((hash, id));
            }
        }
        // The check that keeps the offsets honest: past 4 GiB of text
        // this stops, it does not wrap.
        let end = u32::try_from(self.text.len() + s.len())
            .expect("an interner holds less than 4 GiB of text");
        self.text.push_str(s);
        self.ends.push(end);
        Istr(id)
    }

    /// Makes room for `additional` fresh strings, so a caller that knows
    /// how many it is about to intern pays for the growth once — not for
    /// a rehash of everything the table already holds half-way through.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.ends.reserve(additional);
        self.first.reserve(additional);
    }

    /// The stored copy of `s` among the ids sharing `hash`: the
    /// bucket's `first` id, then the overflow list.
    fn find_from(
        text: &str,
        ends: &[u32],
        overflow: &[(u64, u32)],
        first: u32,
        s: &str,
        hash: u64,
    ) -> Option<Istr> {
        if slice_of(text, ends, first) == s {
            return Some(Istr(first));
        }
        overflow
            .iter()
            .find(|&&(oh, oid)| oh == hash && slice_of(text, ends, oid) == s)
            .map(|&(_, oid)| Istr(oid))
    }

    /// The string behind a handle.
    pub fn get(&self, id: Istr) -> &str {
        slice_of(&self.text, &self.ends, id.0)
    }

    /// Every stored string, in handle order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &str> + Clone {
        (0..self.ends.len() as u32).map(|id| slice_of(&self.text, &self.ends, id))
    }

    /// The handle a string is already interned under, if any (read-only
    /// — [`StringInterner::intern`] to insert).
    pub fn lookup(&self, s: &str) -> Option<Istr> {
        self.lookup_hashed(s, self.hash_of(s))
    }

    /// [`StringInterner::lookup`] with the hash supplied.
    fn lookup_hashed(&self, s: &str, hash: u64) -> Option<Istr> {
        let first = *self.first.get(&hash)?;
        Self::find_from(&self.text, &self.ends, &self.overflow, first, s, hash)
    }

    /// Number of distinct strings stored.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Bytes of the stored strings themselves — exactly the length of
    /// the text buffer (bookkeeping is [`StringInterner::table_bytes`]).
    pub fn heap_bytes(&self) -> usize {
        self.text.len()
    }

    /// Bytes of the bookkeeping around the text: the offset column, the
    /// bucket map's slots (a key, an id and a control byte each) and the
    /// overflow list, as allocated.
    pub fn table_bytes(&self) -> usize {
        use std::mem::size_of;
        self.ends.capacity() * size_of::<u32>()
            + self.first.capacity() * (size_of::<(u64, u32)>() + 1)
            + self.overflow.capacity() * size_of::<(u64, u32)>()
    }

    /// Rebuilds the table keeping only the strings `keep` approves,
    /// renumbering the survivors densely **in their original order**,
    /// and returns the old-handle → new-handle map — `None` for evicted
    /// strings (the remap [`diic_geom::GridIndex::compact`] hands back too).
    /// Any caller still holding handles must remap them; handles of
    /// evicted strings are dead.
    pub fn compact<F>(&mut self, mut keep: F) -> Vec<Option<Istr>>
    where
        F: FnMut(Istr, &str) -> bool,
    {
        let old_text = std::mem::take(&mut self.text);
        let old_ends = std::mem::take(&mut self.ends);
        self.first.clear();
        self.overflow.clear();
        let mut map = vec![None; old_ends.len()];
        for (old_id, slot) in map.iter_mut().enumerate() {
            let s = slice_of(&old_text, &old_ends, old_id as u32);
            if keep(Istr(old_id as u32), s) {
                // invariant: the table was emptied above, so every kept
                // string is a miss and ids come out dense in old order.
                *slot = Some(self.intern(s));
            }
        }
        map
    }
}

/// Maps layout layer references to technology layers.
#[derive(Debug, Clone)]
pub struct LayerBinding {
    map: Vec<Option<LayerId>>,
}

impl LayerBinding {
    /// Builds the binding; unknown CIF layer names produce violations.
    pub fn bind(layout: &Layout, tech: &Technology) -> (LayerBinding, Vec<Violation>) {
        let mut map = Vec::with_capacity(layout.layer_names().len());
        let mut violations = Vec::new();
        for name in layout.layer_names() {
            let id = tech.layer_by_cif(name);
            if id.is_none() {
                violations.push(Violation {
                    stage: CheckStage::Elements,
                    kind: ViolationKind::UnknownLayer {
                        cif_name: name.clone(),
                    },
                    location: None,
                    context: String::new(),
                });
            }
            map.push(id);
        }
        (LayerBinding { map }, violations)
    }

    /// Resolves a layout layer reference.
    pub fn layer(&self, r: LayerRef) -> Option<LayerId> {
        self.map.get(r.0 as usize).copied().flatten()
    }
}

/// A packed bit column (one flag bit per element) — the storage behind
/// [`ElementColumns`]' boolean fields.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct BitColumn {
    words: Vec<u64>,
    len: usize,
}

impl BitColumn {
    fn push(&mut self, v: bool) {
        let (w, b) = (self.len / 64, self.len % 64);
        if w == self.words.len() {
            self.words.push(0);
        }
        self.words[w] |= (v as u64) << b;
        self.len += 1;
    }

    fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.words[i / 64] >> (i % 64)) & 1 != 0
    }

    fn set(&mut self, i: usize, v: bool) {
        debug_assert!(i < self.len);
        let bit = 1u64 << (i % 64);
        if v {
            self.words[i / 64] |= bit;
        } else {
            self.words[i / 64] &= !bit;
        }
    }

    /// Moves the bits from `at` on into a column of their own. The bits
    /// left past `at` in the last word are cleared: `push` ors into it.
    fn split_off(&mut self, at: usize) -> BitColumn {
        let mut tail = BitColumn::default();
        for i in at..self.len {
            tail.push(self.get(i));
        }
        self.len = at.min(self.len);
        self.words.truncate(self.len.div_ceil(64));
        let partial = !self.len.is_multiple_of(64);
        if let Some(last) = self.words.last_mut().filter(|_| partial) {
            *last &= (1u64 << (self.len % 64)) - 1;
        }
        tail
    }
}

/// Sentinel for "no device" in the fixed-width device column
/// (a `u32` index column beats `Vec<Option<usize>>` by 12 bytes per
/// element and keeps the column densely comparable).
const NONE_U32: u32 = u32::MAX;

/// A block-local device column entry renumbered to follow the `before`
/// devices already in the destination view.
fn device_after(before: usize, d: u32) -> u32 {
    if d == NONE_U32 {
        NONE_U32
    } else {
        d + before as u32
    }
}

/// A device column entry of a run moved to where its devices now start
/// `delta` places away.
fn device_shifted(d: u32, delta: i64) -> u32 {
    if d == NONE_U32 {
        NONE_U32
    } else {
        (d as i64 + delta) as u32
    }
}

/// The arena slice the `(offset, len)` runs `ranges` cover. Every producer
/// appends an element's arena run as it appends the element, so the runs
/// of consecutive elements are consecutive and the slice is contiguous.
fn arena_span(ranges: &[(u32, u32)]) -> std::ops::Range<usize> {
    debug_assert!(
        ranges.windows(2).all(|w| w[0].0 + w[0].1 == w[1].0),
        "arena runs are packed in element order"
    );
    match (ranges.first(), ranges.last()) {
        (Some(&(start, _)), Some(&(off, len))) => start as usize..(off + len) as usize,
        _ => 0..0,
    }
}

/// Appends the arena runs `ranges` of `arena` to `dst` in one copy, with
/// their offsets rebased onto where they land.
fn append_arena(
    dst: &mut Vec<Rect>,
    dst_ranges: &mut Vec<(u32, u32)>,
    arena: &[Rect],
    ranges: &[(u32, u32)],
) {
    let span = arena_span(ranges);
    let base = dst.len() as u32;
    dst.extend_from_slice(&arena[span.clone()]);
    let start = span.start as u32;
    dst_ranges.extend(ranges.iter().map(|&(o, l)| (o - start + base, l)));
}

/// Struct-of-arrays storage for the instantiated elements.
///
/// One dense, fixed-width column per element field, with the
/// variable-length geometry packed into two shared arenas:
///
/// ```text
/// layer        Vec<LayerId>      2 B   dense column
/// bbox         Vec<Rect>        32 B   dense column (the hot sweep)
/// net_key      Vec<Istr>         4 B   interner handle
/// path         Vec<Istr>         4 B   interner handle
/// net_declared BitColumn       1 bit   flag bits
/// device       Vec<u32>          4 B   u32::MAX = none
/// rect_range   Vec<(u32, u32)>   8 B   (offset, len) into `rects`
/// skel_range   Vec<(u32, u32)>   8 B   (offset, len) into `skel`; len 0 = no skeleton
/// rects        Vec<Rect>               shared arena, chip coordinates
/// skel         Vec<Rect>               shared arena, scaled skeleton grid
/// ```
///
/// An element's **id is its position** — every producer preserves
/// position (the walk appends, the incremental session writes a
/// re-walked item over its own run or lays whole per-item runs back
/// after a split), so no id column is stored. Arena runs are packed in
/// element order, so a run of elements owns one contiguous slice of
/// each arena. `len == 0` skeleton ranges encode "no skeleton" exactly
/// (no constructor produces an empty skeleton —
/// [`Skeleton::from_scaled_rects`] returns `None` for an empty run).
///
/// Hot consumers iterate the columns directly ([`ElementColumns::bboxes`]
/// with the [`diic_geom::batch`] kernels); per-element field access goes
/// through the borrowed [`ElementRef`] view, which renders reports
/// byte-identically to the old boxed storage.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ElementColumns {
    layer: Vec<LayerId>,
    bbox: Vec<Rect>,
    net_key: Vec<Istr>,
    path: Vec<Istr>,
    net_declared: BitColumn,
    device: Vec<u32>,
    rect_range: Vec<(u32, u32)>,
    skel_range: Vec<(u32, u32)>,
    rects: Vec<Rect>,
    skel: Vec<Rect>,
}

impl ElementColumns {
    /// Number of elements stored.
    pub fn len(&self) -> usize {
        self.bbox.len()
    }

    /// True if no elements are stored.
    pub fn is_empty(&self) -> bool {
        self.bbox.is_empty()
    }

    /// Borrowed view of one element's fields. Panics if `id` is out of
    /// bounds.
    pub fn get(&self, id: usize) -> ElementRef<'_> {
        assert!(id < self.len(), "element id {id} out of bounds");
        ElementRef { cols: self, id }
    }

    /// Iterates the elements as [`ElementRef`] views, in id order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = ElementRef<'_>> + Clone {
        (0..self.len()).map(move |id| ElementRef { cols: self, id })
    }

    /// The dense bounding-box column — the sweep surface for grid
    /// insertion, tile filtering ([`diic_geom::batch::touching_in_run`])
    /// and halo probes.
    pub fn bboxes(&self) -> &[Rect] {
        &self.bbox
    }

    /// The dense layer column.
    pub fn layers(&self) -> &[LayerId] {
        &self.layer
    }

    /// The dense net-key column (interner handles).
    pub fn net_keys(&self) -> &[Istr] {
        &self.net_key
    }

    /// The dense path column (interner handles).
    pub fn paths(&self) -> &[Istr] {
        &self.path
    }

    /// Remaps the `net_key` / `path` handle columns through an interner
    /// compaction map ([`StringInterner::compact`]). The caller must
    /// have built the keep set from these very columns, so every stored
    /// handle survives.
    pub fn remap_strings(&mut self, remap: &[Option<Istr>]) {
        for h in self.net_key.iter_mut().chain(self.path.iter_mut()) {
            // invariant: column handles are in the compaction keep set.
            *h = remap[h.index() as usize].expect("live column handles survive compaction");
        }
    }

    /// One element's covered rectangles (a contiguous arena run).
    pub fn rects_of(&self, id: usize) -> &[Rect] {
        let (off, len) = self.rect_range[id];
        &self.rects[off as usize..off as usize + len as usize]
    }

    /// One element's skeleton rectangles in the scaled grid (empty =
    /// no skeleton; see [`Skeleton::scaled_rects`]).
    pub fn skeleton_of(&self, id: usize) -> &[Rect] {
        let (off, len) = self.skel_range[id];
        &self.skel[off as usize..off as usize + len as usize]
    }

    /// Payload bytes of the columnar store: every dense column plus the
    /// two arenas (excludes `Vec` growth slack — what an edit session's
    /// memory accounting reports for its view).
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.layer.len() * size_of::<LayerId>()
            + self.bbox.len() * size_of::<Rect>()
            + self.net_key.len() * size_of::<Istr>()
            + self.path.len() * size_of::<Istr>()
            + self.net_declared.words.len() * size_of::<u64>()
            + self.device.len() * size_of::<u32>()
            + self.rect_range.len() * size_of::<(u32, u32)>()
            + self.skel_range.len() * size_of::<(u32, u32)>()
            + self.rects.len() * size_of::<Rect>()
            + self.skel.len() * size_of::<Rect>()
    }

    /// Appends one element whose covered rectangles the caller has just
    /// appended to the rect arena: the run after the last element's. Ids
    /// are positions, so the element is number `len()` before the call.
    fn push(
        &mut self,
        layer: LayerId,
        bbox: Rect,
        (net_key, net_declared): (Istr, bool),
        path: Istr,
        device: Option<usize>,
        skeleton: Option<Skeleton>,
    ) {
        let r0 = self.rect_range.last().map_or(0, |&(at, len)| at + len);
        self.rect_range.push((r0, self.rects.len() as u32 - r0));
        self.layer.push(layer);
        self.bbox.push(bbox);
        self.net_key.push(net_key);
        self.path.push(path);
        self.net_declared.push(net_declared);
        self.device.push(device.map_or(NONE_U32, |d| d as u32));
        let s0 = self.skel.len() as u32;
        if let Some(sk) = skeleton {
            self.skel.extend(sk.into_scaled_rects());
        }
        self.skel_range.push((s0, self.skel.len() as u32 - s0));
    }

    /// Rewrites one element's net key (the auto-key ordinal pass).
    pub(crate) fn set_net_key(&mut self, id: usize, key: Istr) {
        self.net_key[id] = key;
    }

    /// Appends a whole block of columns translated by `by`, one column
    /// `extend` at a time instead of one push per element — a template
    /// stamp. `strings[h]`
    /// is this view's handle for the block's string handle `h` (filled
    /// for every handle the block's columns hold) and `device` maps the
    /// block's device column. Skeleton rectangles live in the doubled
    /// grid, so they move by `2 * by`.
    fn append_translated(
        &mut self,
        block: &ElementColumns,
        by: Vector,
        strings: &[Istr],
        device: impl Fn(u32) -> u32,
    ) {
        self.layer.extend_from_slice(&block.layer);
        self.bbox.extend(block.bbox.iter().map(|r| r.translate(by)));
        self.net_key
            .extend(block.net_key.iter().map(|k| strings[k.0 as usize]));
        self.path
            .extend(block.path.iter().map(|p| strings[p.0 as usize]));
        for i in 0..block.net_declared.len {
            self.net_declared.push(block.net_declared.get(i));
        }
        self.device.extend(block.device.iter().map(|&d| device(d)));
        let r0 = self.rects.len() as u32;
        self.rects
            .extend(block.rects.iter().map(|r| r.translate(by)));
        self.rect_range
            .extend(block.rect_range.iter().map(|&(o, l)| (o + r0, l)));
        let s0 = self.skel.len() as u32;
        let by2 = by * 2;
        self.skel
            .extend(block.skel.iter().map(|r| r.translate(by2)));
        self.skel_range
            .extend(block.skel_range.iter().map(|&(o, l)| (o + s0, l)));
    }

    /// Copies a contiguous run of elements from `other` (the incremental
    /// session's view patch: the runs after the first one whose length
    /// an edit changed are split off and laid back one item at a time,
    /// ids renumbering implicitly to their new positions). Device
    /// indices shift by `device_delta`; each arena run arrives in one
    /// copy.
    pub(crate) fn append_run_from(
        &mut self,
        other: &ElementColumns,
        range: std::ops::Range<usize>,
        device_delta: i64,
    ) {
        self.layer.extend_from_slice(&other.layer[range.clone()]);
        self.bbox.extend_from_slice(&other.bbox[range.clone()]);
        self.net_key
            .extend_from_slice(&other.net_key[range.clone()]);
        self.path.extend_from_slice(&other.path[range.clone()]);
        for i in range.clone() {
            self.net_declared.push(other.net_declared.get(i));
        }
        self.device
            .extend((other.device[range.clone()].iter()).map(|&d| device_shifted(d, device_delta)));
        let (rects, skel) = (&other.rect_range[range.clone()], &other.skel_range[range]);
        append_arena(&mut self.rects, &mut self.rect_range, &other.rects, rects);
        append_arena(&mut self.skel, &mut self.skel_range, &other.skel, skel);
    }

    /// Moves the elements from `at` on into columns of their own, arena
    /// runs rebased onto the moved arenas.
    pub(crate) fn split_off(&mut self, at: usize) -> ElementColumns {
        let arena_at = |ranges: &[(u32, u32)], arena: &[Rect]| {
            ranges.get(at).map_or(arena.len(), |&(o, _)| o as usize)
        };
        let r = arena_at(&self.rect_range, &self.rects);
        let s = arena_at(&self.skel_range, &self.skel);
        let rebased = |mut ranges: Vec<(u32, u32)>, base: usize| {
            for (o, _) in &mut ranges {
                *o -= base as u32;
            }
            ranges
        };
        ElementColumns {
            layer: self.layer.split_off(at),
            bbox: self.bbox.split_off(at),
            net_key: self.net_key.split_off(at),
            path: self.path.split_off(at),
            net_declared: self.net_declared.split_off(at),
            device: self.device.split_off(at),
            rect_range: rebased(self.rect_range.split_off(at), r),
            skel_range: rebased(self.skel_range.split_off(at), s),
            rects: self.rects.split_off(r),
            skel: self.skel.split_off(s),
        }
    }

    /// Writes `block` — one item walked into columns of its own — over
    /// the run `run`: an edited item goes back into its own run. Device
    /// indices shift by `device_delta`. Only a block that fits is taken —
    /// as many elements as the run, filling as much of each arena — so
    /// nothing after the run moves; false, with nothing changed,
    /// otherwise.
    pub(crate) fn overwrite_run(
        &mut self,
        run: std::ops::Range<usize>,
        block: &ElementColumns,
        device_delta: i64,
    ) -> bool {
        let r_run = arena_span(&self.rect_range[run.clone()]);
        let s_run = arena_span(&self.skel_range[run.clone()]);
        if run.len() != block.len()
            || r_run.len() != block.rects.len()
            || s_run.len() != block.skel.len()
        {
            return false;
        }
        self.layer[run.clone()].copy_from_slice(&block.layer);
        self.bbox[run.clone()].copy_from_slice(&block.bbox);
        self.net_key[run.clone()].copy_from_slice(&block.net_key);
        self.path[run.clone()].copy_from_slice(&block.path);
        self.rects[r_run.clone()].copy_from_slice(&block.rects);
        self.skel[s_run.clone()].copy_from_slice(&block.skel);
        let (r0, s0) = (r_run.start as u32, s_run.start as u32);
        for (i, to) in run.enumerate() {
            self.net_declared.set(to, block.net_declared.get(i));
            self.device[to] = device_shifted(block.device[i], device_delta);
            let ((ro, rl), (so, sl)) = (block.rect_range[i], block.skel_range[i]);
            self.rect_range[to] = (ro + r0, rl);
            self.skel_range[to] = (so + s0, sl);
        }
        true
    }
}

impl<'a> IntoIterator for &'a ElementColumns {
    type Item = ElementRef<'a>;
    type IntoIter =
        std::iter::Map<std::ops::Range<usize>, Box<dyn FnMut(usize) -> ElementRef<'a> + 'a>>;

    fn into_iter(self) -> Self::IntoIter {
        (0..self.len()).map(Box::new(move |id| ElementRef { cols: self, id }))
    }
}

/// A borrowed view of one element inside [`ElementColumns`] — two words
/// (columns pointer + id), `Copy`, with accessor methods named after
/// the old struct fields so call sites read the same.
#[derive(Clone, Copy)]
pub struct ElementRef<'a> {
    cols: &'a ElementColumns,
    id: usize,
}

impl<'a> ElementRef<'a> {
    /// The element's id (its column position).
    pub fn id(&self) -> usize {
        self.id
    }

    /// Technology layer.
    pub fn layer(&self) -> LayerId {
        self.cols.layer[self.id]
    }

    /// Bounding box in chip coordinates.
    pub fn bbox(&self) -> Rect {
        self.cols.bbox[self.id]
    }

    /// Covered rectangles (a contiguous arena run).
    pub fn rects(&self) -> &'a [Rect] {
        self.cols.rects_of(self.id)
    }

    /// Skeleton rectangles in the scaled grid; empty means the element
    /// is under-width and has no skeleton. Feed pairs of these runs to
    /// [`diic_geom::batch::any_overlap`] for the legal-connection test.
    pub fn skeleton(&self) -> &'a [Rect] {
        self.cols.skeleton_of(self.id)
    }

    /// True if the element has a skeleton (is at least minimum width).
    pub fn has_skeleton(&self) -> bool {
        !self.skeleton().is_empty()
    }

    /// Interned net key.
    pub fn net_key(&self) -> Istr {
        self.cols.net_key[self.id]
    }

    /// True if the net was declared via `9N` (vs auto-generated).
    pub fn net_declared(&self) -> bool {
        self.cols.net_declared.get(self.id)
    }

    /// Interned instance path.
    pub fn path(&self) -> Istr {
        self.cols.path[self.id]
    }

    /// Index into [`ChipView::devices`] if the element lives inside a
    /// device symbol instance.
    pub fn device(&self) -> Option<usize> {
        let d = self.cols.device[self.id];
        (d != NONE_U32).then_some(d as usize)
    }
}

impl std::fmt::Debug for ElementRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ElementRef")
            .field("id", &self.id)
            .field("layer", &self.layer())
            .field("bbox", &self.bbox())
            .finish_non_exhaustive()
    }
}

/// An instantiated device (one per call of a device symbol).
#[derive(Debug, Clone)]
pub struct DeviceInstance {
    /// Instance path (dot notation), interned in the owning view.
    pub path: Istr,
    /// Declared `9D` type, interned in the owning view (one entry per
    /// distinct type however many instances share it).
    pub device_type: Istr,
    /// Archetype class if the technology knows the type.
    pub class: Option<DeviceClass>,
    /// Immunity flag (`9C`).
    pub checked: bool,
    /// Terminals in chip coordinates; the name is interned in the owning
    /// view, beside `path` and `device_type` (an instance carries a
    /// handle, not a copy of each name).
    pub terminals: Vec<(Istr, LayerId, Point)>,
    /// Ids of this instance's elements in [`ChipView::elements`].
    pub element_ids: Vec<usize>,
    /// Placement transform (chip ← symbol).
    pub transform: Transform,
}

/// The instantiated chip: all elements and device instances, topology
/// intact.
#[derive(Debug, Clone, Default)]
pub struct ChipView {
    /// All instantiated elements, in columnar storage.
    pub elements: ElementColumns,
    /// All device instances.
    pub devices: Vec<DeviceInstance>,
    /// Violations discovered during instantiation (unknown layers on
    /// terminals, non-rectilinear polygons treated as bboxes, …).
    pub violations: Vec<Violation>,
    /// The interner behind every [`Istr`] in `elements` and `devices`
    /// — and, once the netgen stage has run, behind the net graph's
    /// node keys too (one table end to end; see
    /// [`crate::netgen::NetParts`]).
    pub strings: StringInterner,
    /// How [`instantiate`] built this view. (A view an edit session
    /// patched counts only the items that patch re-walked.)
    pub instantiate_stats: InstantiateStats,
}

impl ChipView {
    /// Renders an interned string of this view.
    pub fn str(&self, s: Istr) -> &str {
        self.strings.get(s)
    }

    /// Borrowed view of one element (see [`ElementColumns::get`]).
    pub fn element(&self, id: usize) -> ElementRef<'_> {
        self.elements.get(id)
    }
}

/// Exact counters of one [`instantiate`] call — what the template cache
/// was worth: `elements_stamped` out of the view's element count is the
/// share of the chip that arrived by copy, and `elements_walked` is
/// every derivation that was actually paid for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InstantiateStats {
    /// Templates derived: one per `(symbol, orientation)` pair that
    /// [`diic_cif::hierarchy::stats`] counts more than once.
    pub templates_built: usize,
    /// Calls answered by stamping a template into the view (a stamp
    /// brings the whole instance, nested calls included — those are not
    /// counted again).
    pub instances_stamped: usize,
    /// View elements that arrived by a stamp.
    pub elements_stamped: usize,
    /// Elements whose geometry the walk derived — once per template for
    /// a templated definition, once per instance otherwise.
    pub elements_walked: usize,
    /// Distinct strings this call added to the view's table (a seeded
    /// table's earlier entries are not counted).
    pub strings_interned: usize,
}

impl std::fmt::Display for InstantiateStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} templates built, {} instances stamped, {} elements stamped + {} walked, \
             {} strings interned",
            self.templates_built,
            self.instances_stamped,
            self.elements_stamped,
            self.elements_walked,
            self.strings_interned
        )
    }
}

/// Instantiates the layout against a technology: the view, and the
/// `(elements, devices)` run length of each top-level item (the unit of
/// reuse the incremental session's view patching is built on; other
/// callers drop it).
///
/// Elements on unknown layers are skipped (the binding already reported
/// them). Device symbols instantiate a [`DeviceInstance`] per call;
/// elements inside them are tagged with it. Auto net keys are final on
/// return.
///
/// **Each definition is derived once.** For every `(symbol,
/// orientation)` pair the hierarchy instantiates more than once
/// ([`diic_cif::hierarchy::stats`]) the walk runs one time, at offset
/// zero, into a private `Template`; every call to such a pair — at any
/// depth, inside other templates too — then *stamps* the template:
/// columns copied with the call's offset added to every coordinate and
/// its instance path spliced into every string. Only translation is ever
/// applied to derived geometry (slab decomposition and wire rectangles
/// do not commute with rotation, so the orientation is part of the
/// template's key, never of the stamp). Symbols used once and loose
/// top-level elements take the plain walk; there is no other derivation.
/// Templates live for this call only — in a library session, for the
/// session once a second cell presents the definition (see
/// [`crate::library::LibraryCache`]).
///
/// The top-level items are walked in order on the calling thread.
///
/// **Seed.** `seed` becomes the view's string table — pass
/// `StringInterner::default()` to start cold. The library batch driver
/// passes a worker's session interner (the paths, net names and device
/// types of the cells it already checked) so repeated strings re-intern
/// into existing entries. Handle *values* then differ from a cold run,
/// which is invisible in rendered output: violations carry resolved
/// strings and the net-list assembly canonicalises purely by key strings
/// ([`crate::netgen`]).
pub fn instantiate(
    layout: &Layout,
    tech: &Technology,
    binding: &LayerBinding,
    seed: StringInterner,
) -> (ChipView, Vec<(usize, usize)>) {
    instantiate_in(layout, tech, binding, seed, None)
}

/// [`instantiate`], with the templates of a library session's cell
/// taken from, and kept in, the session's cache when `shared` is given.
/// A kept template is the one the walk derived for an earlier cell under
/// the same content key, so the view is the same either way.
pub(crate) fn instantiate_in(
    layout: &Layout,
    tech: &Technology,
    binding: &LayerBinding,
    seed: StringInterner,
    shared: Option<&CellDefinitions<'_>>,
) -> (ChipView, Vec<(usize, usize)>) {
    let hier = hierarchy::stats(layout);
    let templates = build_templates(layout, tech, binding, &hier, shared);
    let walker = Walker {
        layout,
        tech,
        binding,
        templates: &templates,
    };
    let items = layout.top_items();
    let seeded = seed.len();
    let mut view = ChipView {
        strings: seed,
        ..ChipView::default()
    };
    let mut runs = Vec::with_capacity(items.len());
    let mut scratch = StampScratch::default();
    for item in items {
        let (e0, d0) = (view.elements.len(), view.devices.len());
        walker.walk_with(item, Scope::TOP, &mut view, &mut scratch);
        runs.push((view.elements.len() - e0, view.devices.len() - d0));
    }
    number_fresh_auto_keys(&mut view.elements, &mut view.strings);
    let stats = &mut view.instantiate_stats;
    stats.templates_built = templates.len();
    stats.elements_walked += templates
        .values()
        .map(|t| t.block.instantiate_stats.elements_walked)
        .sum::<usize>();
    stats.strings_interned = view.strings.len() - seeded;
    (view, runs)
}

impl ChipView {
    /// A handle-free rendering of the elements from `e0` and the devices
    /// from `d0` on, with ids and device indices relative to those
    /// starts — equal for two views exactly when the walk and a stamp
    /// (or two interners) produced the same thing.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn resolved_tail(&self, e0: usize, d0: usize) -> Vec<String> {
        let elements = (e0..self.elements.len()).map(|id| {
            let e = self.elements.get(id);
            format!(
                "{:?}",
                (
                    (e.layer(), e.bbox(), e.rects(), e.skeleton()),
                    (self.str(e.net_key()), e.net_declared(), self.str(e.path())),
                    e.device().map(|d| d as i64 - d0 as i64),
                )
            )
        });
        let devices = self.devices[d0..].iter().map(|d| {
            let ids: Vec<i64> = d
                .element_ids
                .iter()
                .map(|&id| id as i64 - e0 as i64)
                .collect();
            let terminals: Vec<_> = (d.terminals.iter())
                .map(|&(name, layer, at)| (self.str(name), layer, at))
                .collect();
            format!(
                "{:?}",
                (
                    (self.str(d.path), self.str(d.device_type)),
                    (d.class, d.checked, terminals, ids, d.transform),
                )
            )
        });
        elements.chain(devices).collect()
    }
}

/// The instance path a [`Template`] is walked under. Any non-empty
/// string would do: the walk branches on whether a path is empty, never
/// on what it says, so under this root it takes exactly the branches it
/// takes under a real (non-empty) instance path, and a stamp swaps the
/// root for that path **by position**, never by searching for it.
const TEMPLATE_ROOT: &str = "~";

/// One definition, derived once: the walk of a call of `symbol` under
/// `Transform::new(orient, Vector::ZERO)` and the instance path
/// [`TEMPLATE_ROOT`], kept as a private view. Its geometry is the
/// instance's at offset zero; its path strings read `~` + *relative
/// path*, its declared keys `~.` + *…name*, its auto keys `#~` +
/// *relative path* + `:{layer}:{x1},{y1},{x2},{y2}` — each the
/// instance's own string with the root where the instance path goes.
pub(crate) struct Template {
    block: ChipView,
    /// The handles of `block.strings` that elements and devices use as
    /// paths, each once — a stamp interns one string per distinct path,
    /// not one per element.
    paths: Vec<Istr>,
    /// Set by the first stamp, which is checked against a plain walk of
    /// the same call.
    #[cfg(debug_assertions)]
    verified: std::sync::atomic::AtomicBool,
}

type Templates = HashMap<(SymbolId, Orientation), Arc<Template>>;

/// The buffers a [`Template::stamp`] fills and leaves behind — the text
/// of the string being re-rooted and the two handle tables — kept by the
/// walk from one stamp to the next, so a stamp allocates for what it
/// adds to the view and nothing else.
#[derive(Default)]
struct StampScratch {
    text: String,
    /// Per string of the block: its re-rooted handle in the view.
    handles: Vec<Istr>,
    /// Per string of the block: its handle in the view as it is.
    verbatim: Vec<Istr>,
}

/// Derives a template for every `(symbol, orientation)` the hierarchy
/// instantiates more than once, children before parents — so a parent's
/// walk finds its children's templates and stamps them, and total work
/// is one derivation per definition plus copying. With `shared`, a
/// library session's cache answers the definitions it keeps.
fn build_templates(
    layout: &Layout,
    tech: &Technology,
    binding: &LayerBinding,
    hier: &HierarchyStats,
    shared: Option<&CellDefinitions<'_>>,
) -> Templates {
    let mut templates = Templates::new();
    for symbol in hierarchy::topological_order(layout) {
        for orient in Orientation::ALL {
            if hier.placements(symbol, orient) < 2 {
                continue;
            }
            let walker = Walker {
                layout,
                tech,
                binding,
                templates: &templates,
            };
            let derive = || Template::derive(&walker, symbol, orient);
            let template = match shared {
                Some(shared) => shared.template(symbol, orient, derive),
                None => Arc::new(derive()),
            };
            templates.insert((symbol, orient), template);
        }
    }
    templates
}

impl Template {
    /// The walk of a call of `symbol` under `Transform::new(orient,
    /// Vector::ZERO)` and the path [`TEMPLATE_ROOT`], stamping the
    /// templates `walker` holds.
    fn derive(walker: &Walker<'_>, symbol: SymbolId, orient: Orientation) -> Template {
        let call = Item::Call(Call {
            target: symbol,
            transform: Transform::new(orient, Vector::ZERO),
            name: TEMPLATE_ROOT.to_string(),
        });
        let mut block = ChipView::default();
        walker.walk(&call, Scope::TOP, &mut block);
        let mut seen = vec![false; block.strings.len()];
        let paths = (block.elements.paths().iter())
            .chain(block.devices.iter().map(|d| &d.path))
            .filter(|p| !std::mem::replace(&mut seen[p.0 as usize], true))
            .copied()
            .collect();
        Template {
            block,
            paths,
            #[cfg(debug_assertions)]
            verified: Default::default(),
        }
    }

    /// Appends one instance to `view`: the block translated by `offset`,
    /// `path` (non-empty) in place of the root in every string. Under an
    /// enclosing `device` the instance's elements join that device and
    /// its own device rows are dropped — what the walk does with devices
    /// nested in a device.
    fn stamp(
        &self,
        path: &str,
        offset: Vector,
        device: Option<usize>,
        view: &mut ChipView,
        scratch: &mut StampScratch,
    ) {
        let block = &self.block;
        let (e0, d0) = (view.elements.len(), view.devices.len());
        let count = block.elements.len();
        let StampScratch {
            text,
            handles,
            verbatim,
        } = scratch;

        // `head` bytes (the `#` of an auto key) precede the root.
        let mut rerooted = |h: Istr, head: usize, table: &mut StringInterner| {
            let s = block.str(h);
            text.clear();
            text.push_str(&s[..head]);
            text.push_str(path);
            text.push_str(&s[head + TEMPLATE_ROOT.len()..]);
            table.intern(text)
        };
        handles.clear();
        handles.resize(block.strings.len(), Istr(NONE_U32));
        for &p in &self.paths {
            handles[p.0 as usize] = rerooted(p, 0, &mut view.strings);
        }
        for e in block.elements.iter() {
            // A declared key can be a path's text; it then re-roots to
            // the same string, so one table serves both.
            let slot = &mut handles[e.net_key().0 as usize];
            if slot.0 == NONE_U32 {
                let head = if e.net_declared() { 0 } else { 1 };
                *slot = rerooted(e.net_key(), head, &mut view.strings);
            }
        }

        match device {
            Some(d) => {
                view.elements
                    .append_translated(&block.elements, offset, handles, |_| d as u32);
                view.devices[d].element_ids.extend(e0..e0 + count);
            }
            None => {
                view.elements
                    .append_translated(&block.elements, offset, handles, |d| device_after(d0, d));
                // Device types and terminal names go across as they are,
                // each interned once per stamp — in a table of their own,
                // since a name may spell a path.
                verbatim.clear();
                verbatim.resize(block.strings.len(), Istr(NONE_U32));
                let mut as_is = |h: Istr, table: &mut StringInterner| {
                    let slot = &mut verbatim[h.0 as usize];
                    if slot.0 == NONE_U32 {
                        *slot = table.intern(block.str(h));
                    }
                    *slot
                };
                for dv in &block.devices {
                    let terminals = (dv.terminals.iter())
                        .map(|&(name, layer, at)| {
                            (as_is(name, &mut view.strings), layer, at + offset)
                        })
                        .collect();
                    view.devices.push(DeviceInstance {
                        path: handles[dv.path.0 as usize],
                        device_type: as_is(dv.device_type, &mut view.strings),
                        class: dv.class,
                        checked: dv.checked,
                        terminals,
                        element_ids: dv.element_ids.iter().map(|id| id + e0).collect(),
                        transform: Transform::new(
                            dv.transform.orient,
                            dv.transform.offset + offset,
                        ),
                    });
                }
            }
        }
        view.violations.extend(block.violations.iter().cloned());
        view.instantiate_stats.instances_stamped += 1;
        view.instantiate_stats.elements_stamped += count;
    }
}

impl Definition for Template {
    #[cfg(debug_assertions)]
    fn assert_same(&self, fresh: &Template) {
        let paths = |t: &Template| -> Vec<String> {
            t.paths
                .iter()
                .map(|&p| t.block.str(p).to_string())
                .collect()
        };
        assert_eq!(
            (self.block.resolved_tail(0, 0), paths(self)),
            (fresh.block.resolved_tail(0, 0), paths(fresh)),
            "a kept template must equal the walk of its definition"
        );
        assert_eq!(self.block.violations, fresh.block.violations);
        assert_eq!(self.block.instantiate_stats, fresh.block.instantiate_stats);
    }
}

/// Instantiates a single top-level item, appending its elements and
/// device instances to `view` (the incremental checker's entry point for
/// regenerating one dirty item's run) by the plain walk, no templates.
/// Auto net keys are **not** assigned here — run
/// [`assign_auto_net_keys`] over the assembled columns afterwards.
pub(crate) fn instantiate_item(
    layout: &Layout,
    tech: &Technology,
    binding: &LayerBinding,
    item: &Item,
    view: &mut ChipView,
) {
    let walker = Walker {
        layout,
        tech,
        binding,
        templates: &Templates::new(),
    };
    walker.walk(item, Scope::TOP, view);
}

/// The ordinal-free base of an auto net key: strips a trailing `:<n>`
/// duplicate ordinal. Unambiguous because a base's own last `:` segment
/// is the four comma-joined bbox coordinates — never bare digits.
fn auto_key_base(key: &str) -> &str {
    if let Some(pos) = key.rfind(':') {
        let tail = &key[pos + 1..];
        if !tail.is_empty() && tail.bytes().all(|b| b.is_ascii_digit()) {
            return &key[..pos];
        }
    }
    key
}

/// Appends duplicate ordinals to the auto net keys of columns **fresh
/// from the walk**, where every undeclared element's key is still its
/// base (see [`assign_auto_net_keys`] for what a key is): equal bases
/// share one handle, so duplicates are counted per handle and only the
/// `:n` keys are ever formatted.
fn number_fresh_auto_keys(elements: &mut ElementColumns, strings: &mut StringInterner) {
    let mut seen = vec![0u32; strings.len()];
    for id in 0..elements.len() {
        let e = elements.get(id);
        if e.net_declared() {
            continue;
        }
        let base = e.net_key();
        let n = seen[base.0 as usize];
        seen[base.0 as usize] += 1;
        if n > 0 {
            let key = format!("{}:{n}", strings.get(base));
            elements.set_net_key(id, strings.intern(&key));
        }
    }
}

/// Re-derives the auto (undeclared) net keys of the identity groups an
/// edit touched — appending ordinals where exact duplicates share a key
/// base — and returns the ids whose key changed.
///
/// The key is a pure function of the element's *identity* — instance
/// path, layer, and definition-local bounding box (the base the walk
/// stored in `net_key`), with an ordinal disambiguating exact
/// duplicates — never of its position in the columns. That
/// stability is what lets an edit session reuse the net graph of
/// untouched elements: adding or removing an element elsewhere does not
/// rename every auto net after it (the old scheme's `#e{id}` did), and
/// moving an instance does not rename its internals at all (local
/// coordinates).
///
/// `candidates` (ascending ids) are the elements whose keys are
/// re-derived — an edit session passes the ones sharing layer and
/// bounding box with an element the edit touched, from its element
/// index, so it pays for the edit, not for re-formatting every auto key
/// on the chip. They must hold every member of each identity group they
/// hold one of: duplicate ordinals shift only within one group, and
/// duplicates by definition share path, layer, and bbox. Declared
/// elements among them are skipped.
pub(crate) fn assign_auto_net_keys(
    elements: &mut ElementColumns,
    strings: &mut StringInterner,
    candidates: &[usize],
) -> Vec<usize> {
    let mut ordinals: HashMap<String, u32> = HashMap::new();
    let mut rekeyed = Vec::new();
    for &id in candidates {
        let e = elements.get(id);
        if e.net_declared() {
            continue;
        }
        // Derive the desired key while borrowing the current string,
        // then intern only when it actually changed — an unchanged key
        // costs no interner traffic and stays off the rekeyed list.
        let desired: Option<String> = {
            let current = strings.get(e.net_key());
            let base = auto_key_base(current);
            match ordinals.get_mut(base) {
                None => {
                    // Ordinal 0: the base itself is the key.
                    let want_base = base.len() != current.len();
                    let base = base.to_string();
                    let changed_key = want_base.then(|| base.clone());
                    ordinals.insert(base, 1);
                    changed_key
                }
                Some(n) => {
                    let key = format!("{base}:{n}");
                    *n += 1;
                    (key != current).then_some(key)
                }
            }
        };
        if let Some(key) = desired {
            elements.set_net_key(id, strings.intern(&key));
            rekeyed.push(id);
        }
    }
    rekeyed
}

/// Where the walk stands: the accumulated transform, the instance path,
/// and the enclosing device instance.
#[derive(Clone, Copy)]
struct Scope<'a> {
    t: Transform,
    path: &'a str,
    device: Option<usize>,
}

impl Scope<'static> {
    /// The top level of the chip.
    const TOP: Scope<'static> = Scope {
        t: Transform::IDENTITY,
        path: "",
        device: None,
    };
}

/// The instantiation walk — the one place element geometry is derived.
/// With templates it stamps the calls they cover; without
/// ([`instantiate_item`], and the reference the tests compare against)
/// it is the plain recursive walk.
#[derive(Clone, Copy)]
struct Walker<'a> {
    layout: &'a Layout,
    tech: &'a Technology,
    binding: &'a LayerBinding,
    templates: &'a Templates,
}

impl Walker<'_> {
    fn walk(&self, item: &Item, scope: Scope<'_>, view: &mut ChipView) {
        self.walk_with(item, scope, view, &mut StampScratch::default());
    }

    fn walk_with(
        &self,
        item: &Item,
        scope: Scope<'_>,
        view: &mut ChipView,
        scratch: &mut StampScratch,
    ) {
        let Scope { t, path, device } = scope;
        match item {
            Item::Element(e) => {
                let Some(layer) = self.binding.layer(e.layer) else {
                    return; // unknown layer, already reported
                };
                // Auto-key base in *local* (definition) coordinates: stable
                // under instance moves, so dragging a call does not rename
                // its internal nets.
                let local_bbox = e.shape.bbox();
                let shape = e.shape.transformed(&t);
                let cols = &mut view.elements;
                let first = cols.rects.len();
                match &shape {
                    Shape::Box(r) => cols.rects.push(*r),
                    Shape::Wire(w) => cols.rects.extend(w.to_rects()),
                    Shape::Polygon(p) => match p.to_rects() {
                        Ok(rs) => cols.rects.extend(rs),
                        Err(_) => cols.rects.push(p.bbox()), // non-rectilinear: bbox cover
                    },
                }
                let half = self.tech.layer(layer).half_min_width();
                let skeleton = match &shape {
                    Shape::Box(r) => Skeleton::of_rect(r, half),
                    Shape::Wire(w) => Skeleton::of_wire(w, half),
                    Shape::Polygon(_) => {
                        let rects = cols.rects[first..].iter().copied();
                        Skeleton::of_region(&Region::from_rects(rects), half)
                    }
                };
                let id = cols.len();
                // Undeclared elements get their key *base* (path, layer and
                // local bbox — never the element's position in the columns);
                // the ordinal pass appends `:n` where exact duplicates
                // collide once the element list is complete.
                let (net_key, net_declared) = match &e.net {
                    Some(n) if path.is_empty() => (n.clone(), true),
                    Some(n) => (format!("{path}.{n}"), true),
                    None => (
                        format!(
                            "#{}:{}:{},{},{},{}",
                            path,
                            layer.0,
                            local_bbox.x1,
                            local_bbox.y1,
                            local_bbox.x2,
                            local_bbox.y2
                        ),
                        false,
                    ),
                };
                let net_key = view.strings.intern(&net_key);
                let path = view.strings.intern(path);
                let net = (net_key, net_declared);
                (view.elements).push(layer, shape.bbox(), net, path, device, skeleton);
                if let Some(d) = device {
                    view.devices[d].element_ids.push(id);
                }
                view.instantiate_stats.elements_walked += 1;
            }
            Item::Call(c) => {
                let sym = self.layout.symbol(c.target);
                let child_path = if path.is_empty() {
                    c.name.clone()
                } else {
                    format!("{path}.{}", c.name)
                };
                let child_t = t.after(&c.transform);
                // A stamp splices the instance path in where the walk
                // took its non-empty-path branches, so an instance whose
                // path is empty (an unnamed call at the top) is walked.
                if !child_path.is_empty() {
                    if let Some(template) = self.templates.get(&(c.target, child_t.orient)) {
                        #[cfg(debug_assertions)]
                        let start = (view.elements.len(), view.devices.len());
                        template.stamp(&child_path, child_t.offset, device, view, scratch);
                        #[cfg(debug_assertions)]
                        self.verify_first_stamp(template, item, scope, view, start);
                        return;
                    }
                }
                let child_device = if let Some(decl) = &sym.device {
                    // A nested device inside a device keeps the outermost
                    // instance (the paper's primitive symbols contain only
                    // geometry; nesting is reported by primitive checks).
                    if device.is_some() {
                        device
                    } else {
                        let idx = view.devices.len();
                        let terminals = decl
                            .terminals
                            .iter()
                            .filter_map(|term| {
                                let layer = self.binding.layer(term.layer)?;
                                let name = view.strings.intern(&term.name);
                                Some((name, layer, child_t.apply_point(term.position)))
                            })
                            .collect();
                        view.devices.push(DeviceInstance {
                            path: view.strings.intern(&child_path),
                            device_type: view.strings.intern(&decl.device_type),
                            class: self.tech.device(&decl.device_type).map(|a| a.class),
                            checked: decl.checked,
                            terminals,
                            element_ids: Vec::new(),
                            transform: child_t,
                        });
                        Some(idx)
                    }
                } else {
                    device
                };
                let child = Scope {
                    t: child_t,
                    path: &child_path,
                    device: child_device,
                };
                for item in &sym.items {
                    self.walk_with(item, child, view, scratch);
                }
            }
        }
    }

    /// The debug-build oracle: the first stamp of every template must
    /// equal the plain walk of the call it answered. (A stamp under an
    /// enclosing device is left to the next one — its device indices
    /// point outside the stamped run.)
    #[cfg(debug_assertions)]
    fn verify_first_stamp(
        &self,
        template: &Template,
        call: &Item,
        scope: Scope<'_>,
        view: &ChipView,
        (e0, d0): (usize, usize),
    ) {
        use std::sync::atomic::Ordering;
        if scope.device.is_some() || template.verified.swap(true, Ordering::Relaxed) {
            return;
        }
        let plain = Walker {
            templates: &Templates::new(),
            ..*self
        };
        let mut walked = ChipView::default();
        plain.walk(call, scope, &mut walked);
        debug_assert_eq!(
            view.resolved_tail(e0, d0),
            walked.resolved_tail(0, 0),
            "a stamped instance must equal the walk of its call"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diic_cif::{parse, DeviceDecl, Element, Symbol, Terminal};
    use diic_geom::{Polygon, Wire};
    use diic_tech::nmos::nmos_technology;
    use proptest::prelude::*;

    fn view_of(cif: &str) -> (ChipView, Vec<Violation>) {
        let layout = parse(cif).unwrap();
        let tech = nmos_technology();
        let (binding, v) = LayerBinding::bind(&layout, &tech);
        let (view, _) = instantiate(&layout, &tech, &binding, StringInterner::default());
        (view, v)
    }

    #[test]
    fn unknown_layer_reported_and_skipped() {
        let (view, v) = view_of("L XX; B 500 500 0 0; E");
        assert_eq!(v.len(), 1);
        assert!(matches!(v[0].kind, ViolationKind::UnknownLayer { .. }));
        assert!(view.elements.is_empty());
    }

    #[test]
    fn elements_get_nets_and_skeletons() {
        let (view, v) = view_of("L NM; 9N VDD; B 1000 750 0 0; B 100 100 5000 5000; E");
        assert!(v.is_empty());
        assert_eq!(view.elements.len(), 2);
        let rail = view.elements.get(0);
        assert_eq!(view.str(rail.net_key()), "VDD");
        assert!(rail.net_declared());
        assert!(rail.has_skeleton());
        let tiny = view.elements.get(1);
        assert!(!tiny.net_declared());
        assert!(!tiny.has_skeleton()); // under metal min width 750
    }

    #[test]
    fn device_instances_created_per_call() {
        let cif = "
        DS 1; 9 ct; 9D CONTACT_D; 9T A NM 250 250; 9T B ND 250 250;
        L NC; B 500 500 250 250; L ND; B 1000 1000 250 250; L NM; B 1000 1000 250 250; DF;
        C 1 T 0 0; C 1 T 5000 0; E";
        let (view, v) = view_of(cif);
        assert!(v.is_empty());
        assert_eq!(view.devices.len(), 2);
        assert_eq!(view.str(view.devices[0].path), "i0");
        assert_eq!(view.str(view.devices[1].path), "i1");
        assert_eq!(view.devices[0].element_ids.len(), 3);
        // Terminal transformed to chip coords.
        let (name, _, pos) = view.devices[1].terminals[0];
        let name = view.str(name);
        assert_eq!(name, "A");
        assert_eq!(pos, Point::new(5250, 250));
        // Elements tagged with the device.
        for &eid in &view.devices[1].element_ids {
            assert_eq!(view.elements.get(eid).device(), Some(1));
        }
    }

    #[test]
    fn nested_instance_paths() {
        let cif = "
        DS 1; L NM; 9N out; B 1000 750 0 0; DF;
        DS 2; C 1 T 0 0; DF;
        C 2 T 0 0; E";
        let (view, _) = view_of(cif);
        assert_eq!(view.elements.len(), 1);
        assert_eq!(view.str(view.elements.get(0).path()), "i0.i0");
        assert_eq!(view.str(view.elements.get(0).net_key()), "i0.i0.out");
    }

    /// The plain recursive walk of every top-level item, no templates,
    /// with ordinals from the string-grouped pass over the whole view —
    /// what [`instantiate`] must equal.
    fn reference_view(layout: &Layout, tech: &Technology, binding: &LayerBinding) -> ChipView {
        let plain = Walker {
            layout,
            tech,
            binding,
            templates: &Templates::new(),
        };
        let mut view = ChipView::default();
        for item in layout.top_items() {
            plain.walk(item, Scope::TOP, &mut view);
        }
        let all: Vec<usize> = (0..view.elements.len()).collect();
        assign_auto_net_keys(&mut view.elements, &mut view.strings, &all);
        view
    }

    /// A table that already holds strings (some of them the view's own),
    /// as a library worker's session interner does.
    fn warm_interner() -> StringInterner {
        let mut t = StringInterner::default();
        for s in [
            "i0",
            "i1",
            "CONTACT_D",
            "#i0:3:0,0,500,500",
            "unrelated",
            "",
        ] {
            t.intern(s);
        }
        t
    }

    #[test]
    fn seeded_instantiation_is_byte_identical() {
        // Mixed top level (device calls, nested calls, loose geometry,
        // duplicate shapes with auto-key ordinals): a warm string table
        // must build the view a cold one builds — ids, device indices,
        // back-references, resolved strings — and both must equal the
        // plain walk.
        let cif = "
        DS 1; 9 ct; 9D CONTACT_D; 9T A NM 250 250; 9T B ND 250 250;
        L NC; B 500 500 250 250; L ND; B 1000 1000 250 250; L NM; B 1000 1000 250 250; DF;
        DS 2; C 1 T 0 0; L NM; B 1000 750 3000 0; DF;
        C 1 T 0 0; C 2 T 8000 0; C 1 T 16000 0;
        L NM; B 1000 750 24000 0; L NM; B 1000 750 24000 0;
        C 2 T 30000 0; C 1 MX T 40000 0;
        E";
        let layout = parse(cif).unwrap();
        let tech = nmos_technology();
        let (binding, _) = LayerBinding::bind(&layout, &tech);
        let reference = reference_view(&layout, &tech, &binding).resolved_tail(0, 0);
        let (cold, cold_runs) = instantiate(&layout, &tech, &binding, StringInterner::default());
        assert!(!cold.elements.is_empty() && !cold.devices.is_empty());
        assert_eq!(cold.resolved_tail(0, 0), reference);
        let (warm, warm_runs) = instantiate(&layout, &tech, &binding, warm_interner());
        assert_eq!(warm.resolved_tail(0, 0), reference);
        assert_eq!(warm_runs, cold_runs);
        assert!(warm.instantiate_stats.strings_interned < cold.instantiate_stats.strings_interned);
        assert_eq!(
            InstantiateStats {
                strings_interned: 0,
                ..warm.instantiate_stats
            },
            InstantiateStats {
                strings_interned: 0,
                ..cold.instantiate_stats
            }
        );
    }

    #[test]
    fn repeated_definitions_are_derived_once_and_stamped() {
        // 3 x cell, each cell = 2 contacts + a strap; one loose box.
        let cif = "
        DS 1; 9 ct; 9D CONTACT_D; 9T A NM 250 250;
        L NC; B 500 500 250 250; L NM; B 1000 1000 250 250; DF;
        DS 2; C 1 T 0 0; C 1 T 4000 0; L NM; B 5000 750 2250 250; DF;
        DS 3; L NP; B 500 500 0 0; DF;
        C 2 T 0 0; C 2 T 0 9000; C 2 T 0 18000; C 3 T 90000 0;
        L NM; B 1000 750 50000 0;
        E";
        let layout = parse(cif).unwrap();
        let tech = nmos_technology();
        let (binding, _) = LayerBinding::bind(&layout, &tech);
        let (view, runs) = instantiate(&layout, &tech, &binding, StringInterner::default());
        assert_eq!(runs, vec![(5, 2), (5, 2), (5, 2), (1, 0), (1, 0)]);
        assert_eq!(
            view.instantiate_stats,
            InstantiateStats {
                templates_built: 2,   // the cell and the contact, both at R0
                instances_stamped: 3, // the three top-level cells
                elements_stamped: 15,
                // contact (2) + the cell's own strap (1) + the symbol
                // used once (1) + the loose box (1)
                elements_walked: 5,
                strings_interned: view.strings.len(),
            }
        );
        assert_eq!(
            view.resolved_tail(0, 0),
            reference_view(&layout, &tech, &binding).resolved_tail(0, 0)
        );
    }

    #[test]
    fn interner_dedups_and_keeps_handles_stable() {
        let mut t = StringInterner::default();
        let first = t.intern("s0");
        let ids: Vec<Istr> = (0..100).map(|i| t.intern(&format!("s{i}"))).collect();
        assert_eq!(ids[0], first, "re-interning must hit the stored copy");
        assert_eq!(t.len(), 100);
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(t.get(id), format!("s{i}"));
            assert_eq!(t.lookup(&format!("s{i}")), Some(id));
            assert_eq!(t.intern(&format!("s{i}")), id, "no duplicate entry");
        }
        assert_eq!(t.lookup("never-interned"), None);
        // s0..s9 are two bytes each, s10..s99 three: the text is exact.
        assert_eq!(t.heap_bytes(), 10 * 2 + 90 * 3);
        assert!(t.table_bytes() >= 100 * 2 * std::mem::size_of::<u32>());
        // Strings that differ only past a word boundary, or only in
        // length of a shared zero-padded tail, stay distinct.
        let a = t.intern("12345678");
        let b = t.intern("12345678\0");
        let c = t.intern("123456789");
        assert!(a != b && b != c && a != c);
    }

    #[test]
    fn interner_resolves_equal_hashes_through_the_overflow_list() {
        // Every string under one hash: the first owns the bucket, the
        // rest live in `overflow` and are found by full compare.
        const H: u64 = 0xDEAD_BEEF;
        let mut t = StringInterner::default();
        let ids: Vec<Istr> = (0..20)
            .map(|i| t.intern_hashed(&format!("k{i}"), H))
            .collect();
        assert_eq!(t.len(), 20);
        assert_eq!(t.first.len(), 1);
        assert_eq!(t.overflow.len(), 19);
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(id.index() as usize, i);
            assert_eq!(
                t.intern_hashed(&format!("k{i}"), H),
                id,
                "hit, not a new entry"
            );
            assert_eq!(t.lookup_hashed(&format!("k{i}"), H), Some(id));
        }
        assert_eq!(t.len(), 20);
        assert_eq!(t.lookup_hashed("absent", H), None);
    }

    #[test]
    fn interner_compact_remaps_handles_and_keeps_order() {
        // The remap GridIndex::compact hands back too: survivors renumber densely in
        // original order, the returned map translates old handles, and
        // evicted handles come back None.
        let mut t = StringInterner::default();
        let ids: Vec<Istr> = (0..50).map(|i| t.intern(&format!("k{i}"))).collect();
        let map = t.compact(|_, s| !s.ends_with('3'));
        assert_eq!(map.len(), 50);
        let mut expect_new = 0u32;
        for (i, &id) in ids.iter().enumerate() {
            if format!("k{i}").ends_with('3') {
                assert_eq!(map[id.index() as usize], None);
            } else {
                let new = map[id.index() as usize].expect("survivor remaps");
                assert_eq!(new.index(), expect_new, "dense, in original order");
                assert_eq!(t.get(new), format!("k{i}"));
                expect_new += 1;
            }
        }
        assert_eq!(t.len(), expect_new as usize);
        // The rebuilt index still dedups: re-interning a survivor hits
        // its new handle, an evicted string re-enters fresh.
        assert_eq!(t.intern("k0"), map[ids[0].index() as usize].unwrap());
        assert_eq!(t.lookup("k3"), None);
        let back = t.intern("k3");
        assert_eq!(back.index(), expect_new);
    }

    #[test]
    fn class_resolved_from_technology() {
        let cif = "
        DS 1; 9D NMOS_ENH; L NP; B 1500 500 0 0; L ND; B 500 2000 0 0; DF;
        C 1; E";
        let (view, _) = view_of(cif);
        assert_eq!(view.devices[0].class, Some(DeviceClass::MosEnhancement));
        let cif2 = "DS 1; 9D FROB; L NP; B 500 500 0 0; DF; C 1; E";
        let (view2, _) = view_of(cif2);
        assert_eq!(view2.devices[0].class, None);
    }
    /// A random two- or three-level layout built through the `Layout`
    /// API (so call names can repeat, be empty or contain dots, which
    /// the CIF parser never produces): leaf symbols of boxes, odd-width
    /// wires, rectilinear and non-rectilinear polygons with declared
    /// and auto keys and exact duplicates, some of them devices; mid
    /// symbols calling leaves (and earlier mids) under any orientation,
    /// some of them devices too, so devices nest in plain symbols and
    /// in devices; a top level of calls at offsets up to ±2⁴⁰ and loose
    /// elements.
    fn random_layout(rng: &mut TestRng) -> Layout {
        let mut layout = Layout::new();
        let layers: Vec<LayerRef> = ["NM", "NP", "ND", "NC", "XX"]
            .iter()
            .map(|name| layout.intern_layer(name))
            .collect();
        let pick = |rng: &mut TestRng, n: usize| rng.below(n as u64) as usize;
        let coord = |rng: &mut TestRng| rng.below(6000) as i64 - 3000;
        let element = |rng: &mut TestRng| {
            let at = Point::new(coord(rng), coord(rng));
            let shape = match pick(rng, 4) {
                0 => {
                    let (w, h) = (100 + rng.below(2500) as i64, 100 + rng.below(2500) as i64);
                    Shape::Box(Rect::new(at.x, at.y, at.x + w, at.y + h))
                }
                1 => {
                    let width = [299, 500, 751, 1001][pick(rng, 4)];
                    let mut points = vec![at];
                    for k in 0..pick(rng, 4) {
                        let last = points[k];
                        let step = 500 + rng.below(3000) as i64;
                        points.push(if k % 2 == 0 {
                            Point::new(last.x + step, last.y)
                        } else {
                            Point::new(last.x, last.y - step)
                        });
                    }
                    Shape::Wire(Wire::new(width, points).unwrap())
                }
                2 => {
                    // An L: rectilinear, decomposes into two slabs.
                    let (a, b) = (800 + rng.below(2000) as i64, 800 + rng.below(2000) as i64);
                    let (c, d) = (a / 2, b + 600 + rng.below(1500) as i64);
                    let pts = [(0, 0), (a, 0), (a, b), (c, b), (c, d), (0, d)];
                    let pts = pts.iter().map(|&(x, y)| Point::new(at.x + x, at.y + y));
                    Shape::Polygon(Polygon::new(pts.collect()).unwrap())
                }
                _ => {
                    let pts = [(0, 0), (2000, 0), (700, 1500)];
                    let pts = pts.iter().map(|&(x, y)| Point::new(at.x + x, at.y + y));
                    Shape::Polygon(Polygon::new(pts.collect()).unwrap())
                }
            };
            Element {
                layer: layers[pick(rng, layers.len())],
                shape,
                net: (pick(rng, 3) == 0).then(|| format!("n{}", pick(rng, 2))),
            }
        };
        let elements = |rng: &mut TestRng, max: usize| {
            let mut items = Vec::new();
            for _ in 0..pick(rng, max + 1) {
                let e = element(rng);
                if pick(rng, 4) == 0 {
                    items.push(Item::Element(e.clone())); // an exact duplicate
                }
                items.push(Item::Element(e));
            }
            items
        };
        let device = |rng: &mut TestRng| {
            (pick(rng, 3) == 0).then(|| DeviceDecl {
                device_type: ["NMOS_ENH", "CONTACT_D", "FROB"][pick(rng, 3)].to_string(),
                checked: pick(rng, 2) == 0,
                terminals: (0..pick(rng, 3))
                    .map(|k| Terminal {
                        name: format!("T{k}"),
                        layer: layers[pick(rng, layers.len())],
                        position: Point::new(coord(rng), coord(rng)),
                    })
                    .collect(),
            })
        };
        let call = |rng: &mut TestRng, targets: &[SymbolId], k: usize, reach: i64| {
            let name = match pick(rng, 8) {
                0 => "dup".to_string(),
                1 => String::new(),
                2 => format!("a.{k}"),
                _ => format!("i{k}"),
            };
            let offset = Vector::new(
                rng.below(2 * reach as u64) as i64 - reach,
                rng.below(2 * reach as u64) as i64 - reach,
            );
            Item::Call(Call {
                target: targets[pick(rng, targets.len())],
                transform: Transform::new(Orientation::ALL[pick(rng, 8)], offset),
                name,
            })
        };

        let mut symbols: Vec<SymbolId> = Vec::new();
        for n in 0..2 + pick(rng, 3) {
            let mut items = elements(rng, 4);
            items.push(Item::Element(element(rng)));
            symbols.push(layout.add_symbol(Symbol {
                cif_id: n as u32 + 1,
                name: None,
                device: device(rng),
                items,
            }));
        }
        for n in 0..1 + pick(rng, 3) {
            let mut items = elements(rng, 2);
            for k in 0..2 + pick(rng, 3) {
                // Targets include earlier mids: a third level.
                items.push(call(rng, &symbols, k, 20_000));
            }
            let id = layout.add_symbol(Symbol {
                cif_id: 100 + n as u32,
                name: None,
                device: device(rng),
                items,
            });
            symbols.push(id);
        }
        for k in 0..2 + pick(rng, 6) {
            let reach = if pick(rng, 3) == 0 { 1 << 40 } else { 100_000 };
            layout.push_top(call(rng, &symbols, k, reach));
            for item in elements(rng, 1) {
                layout.push_top(item);
            }
        }
        layout
    }

    /// What a [`StringInterner`] must behave as: strings in insertion
    /// order, the id of each.
    #[derive(Default)]
    struct InternerModel {
        ids: HashMap<String, u32>,
        strings: Vec<String>,
    }

    impl InternerModel {
        fn intern(&mut self, s: &str) -> u32 {
            *self.ids.entry(s.to_string()).or_insert_with(|| {
                self.strings.push(s.to_string());
                self.strings.len() as u32 - 1
            })
        }

        /// Keeps what `keep(id)` approves, in order; the old id → new id
        /// map.
        fn compact(&mut self, keep: impl Fn(u32) -> bool) -> Vec<Option<u32>> {
            let old = std::mem::take(self);
            (0..old.strings.len())
                .map(|id| keep(id as u32).then(|| self.intern(&old.strings[id])))
                .collect()
        }
    }

    /// A short string over a small alphabet — so repeats are common —
    /// of one- to four-byte characters; sometimes empty.
    fn random_name(rng: &mut TestRng) -> String {
        const PIECES: [&str; 8] = ["a", "b", ".", "é", "ß", "日", "🦀", "ab"];
        (0..rng.below(4))
            .map(|_| PIECES[rng.below(PIECES.len() as u64) as usize])
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// Stamped ≡ walked: columns, arenas, devices and every
        /// resolved string of the templated view equal the plain
        /// recursive walk's, from a cold string table and a warm one —
        /// in release builds too, where the first-stamp `debug_assert`
        /// is compiled out.
        #[test]
        fn stamped_view_equals_the_plain_walk(seed in 0u64..u64::MAX) {
            let layout = random_layout(&mut TestRng::for_case(seed, 0));
            let tech = nmos_technology();
            let (binding, _) = LayerBinding::bind(&layout, &tech);
            let reference = reference_view(&layout, &tech, &binding);
            let want = reference.resolved_tail(0, 0);
            let (view, runs) = instantiate(&layout, &tech, &binding, StringInterner::default());
            prop_assert_eq!(view.resolved_tail(0, 0), want.clone());
            prop_assert_eq!(view.violations.len(), reference.violations.len());
            prop_assert_eq!(runs.len(), layout.top_items().len());
            prop_assert_eq!(
                runs.iter().fold((0, 0), |a, r| (a.0 + r.0, a.1 + r.1)),
                (view.elements.len(), view.devices.len())
            );
            let stats = view.instantiate_stats;
            prop_assert!(stats.elements_stamped <= view.elements.len());
            prop_assert_eq!(stats.templates_built == 0, stats.instances_stamped == 0);
            let (warm, warm_runs) = instantiate(&layout, &tech, &binding, warm_interner());
            prop_assert_eq!(warm.resolved_tail(0, 0), want);
            prop_assert_eq!(&warm_runs, &runs);
        }

        /// The interner against a `HashMap<String, u32>` + `Vec<String>`
        /// model, under random sequences of every operation it has:
        /// handles are dense in insertion order, every string reads back
        /// (the empty one, and multi-byte ones lying side by side in the
        /// buffer), the text is exact, and compaction's remap is the
        /// model's and keeps order. Every other case
        /// piles all strings into two hash buckets, so the same holds
        /// through the overflow list.
        #[test]
        fn interner_matches_its_model(seed in 0u64..u64::MAX) {
            let rng = &mut TestRng::for_case(seed, 0);
            let collide = rng.below(2) == 0;
            let table = || {
                let mut t = StringInterner::default();
                if collide {
                    t.forced_hash = Some(|s| s.len() as u64 % 2);
                }
                t
            };
            let mut t = table();
            let mut model = InternerModel::default();
            for _ in 0..48 {
                match rng.below(7) {
                    0..=3 => {
                        let s = random_name(rng);
                        let id = t.intern(&s);
                        prop_assert_eq!(id.index(), model.intern(&s), "intern {:?}", s);
                    }
                    4 => {
                        let s = random_name(rng);
                        let want = model.ids.get(&s).copied();
                        prop_assert_eq!(t.lookup(&s).map(Istr::index), want, "lookup {:?}", s);
                    }
                    5 => t.reserve(rng.below(40) as usize),
                    _ => {
                        let mask = rng.next_u64();
                        let keep = |id: u32| mask >> (id % 64) & 1 == 1;
                        let remap = t.compact(|id, s| {
                            assert_eq!(s, model.strings[id.index() as usize]);
                            keep(id.index())
                        });
                        let want = model.compact(keep);
                        prop_assert_eq!(remap.iter().map(|n| n.map(Istr::index)).collect::<Vec<_>>(), want);
                    }
                }
                prop_assert_eq!(t.len(), model.strings.len());
                prop_assert_eq!(t.is_empty(), model.strings.is_empty());
                prop_assert!(t.iter().eq(model.strings.iter().map(String::as_str)));
                for (id, s) in model.strings.iter().enumerate() {
                    prop_assert_eq!(t.get(Istr(id as u32)), s);
                    prop_assert_eq!(t.lookup(s), Some(Istr(id as u32)));
                }
                prop_assert_eq!(t.heap_bytes(), model.strings.iter().map(String::len).sum::<usize>());
                prop_assert!(!collide || t.first.len() <= 2);
            }
        }

        /// Counting duplicate ordinals per handle (the fresh-walk pass)
        /// names every element exactly as grouping them by key string
        /// (the masked pass, here with everything marked) does.
        #[test]
        fn handle_counted_ordinals_equal_string_grouped(seed in 0u64..u64::MAX) {
            let layout = random_layout(&mut TestRng::for_case(seed, 0));
            let tech = nmos_technology();
            let (binding, _) = LayerBinding::bind(&layout, &tech);
            let plain = Walker { layout: &layout, tech: &tech, binding: &binding, templates: &Templates::new() };
            let mut by_handle = ChipView::default();
            for item in layout.top_items() {
                plain.walk(item, Scope::TOP, &mut by_handle);
            }
            let mut by_string = by_handle.clone();
            number_fresh_auto_keys(&mut by_handle.elements, &mut by_handle.strings);
            let all: Vec<usize> = (0..by_string.elements.len()).collect();
            assign_auto_net_keys(&mut by_string.elements, &mut by_string.strings, &all);
            prop_assert_eq!(by_handle.resolved_tail(0, 0), by_string.resolved_tail(0, 0));
        }
    }
}
