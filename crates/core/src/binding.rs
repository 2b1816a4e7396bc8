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
//! # The view's memory floor: hierarchical names, columnar elements
//!
//! The [`ChipView`] is the pipeline's one intentionally O(chip) artefact
//! (it *is* the chip), so its per-element cost is the resident-set floor
//! at million-element scale. Two storage decisions squeeze that floor
//! without changing a byte of rendered output:
//!
//! * **Hierarchical names.** "Each element in the design is assigned a
//!   unique net identifier using a dot notation to reference elements
//!   in an instance from a higher level in the hierarchy" — so a name
//!   is what the hierarchy says it is: an instance and a string local to
//!   its definition. A stamped element's net key and path, and a stamped
//!   device's path and terminal keys, are a [`Name`] — two `u32`s, the
//!   instance and a string of its template's own table, which holds each
//!   of the definition's names once however often it is placed. The
//!   view's instance table holds one entry per placement: its path,
//!   interned once into the view's [`StringInterner`], and the first of
//!   its net-graph nodes. What no instance spells — the walk's names of
//!   a definition placed once, labels — is a string of that table, as
//!   are device types and terminal names. Text is made only where it
//!   leaves the process ([`ChipView::write_name`]): report contexts, the
//!   net list, the wire. A view holds one form per text (a walked or
//!   top-level name that spells an instance's string is rooted at that
//!   instance), so two names are equal exactly when their texts are, and
//!   nothing is ever renumbered — every holder keeps a name for the
//!   view's life. The table is an arena: its strings lie end to end in
//!   one text buffer behind a column of end offsets, so a distinct
//!   string costs its bytes, an offset and a bucket — never a heap
//!   object of its own.
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
//! [`instantiate`] derives each repeated definition's geometry and names
//! once, into a `Template`, and builds the view by stamping templates
//! (columns copied, the call's offset added, one instance appended for
//! the names); the recursive walk remains the only geometry derivation —
//! it builds the templates and handles whatever is used once. See
//! [`instantiate`] for the rule.
//!
//! The walk writes each element straight into the columns: its covered
//! rectangles onto the arena, then one `ElementColumns::push` for the
//! rest. There is no boxed per-element record.

use crate::connect::is_joining_class;
use crate::library::{ContentKey, Definition, Definitions, TemplateKey};
use crate::violations::{CheckStage, Violation, ViolationKind};
use diic_cif::{hierarchy, Call, Item, LayerRef, Layout, Shape, SymbolId};
use diic_geom::skeleton::Skeleton;
use diic_geom::{Orientation, Point, Rect, Region, Transform, Vector};
use diic_tech::{DeviceClass, LayerId, Technology};
use std::collections::HashMap;
use std::fmt::Write;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
use std::sync::Arc;

/// A `u32`-keyed handle into a [`StringInterner`]: a device type or
/// terminal name, the path of an instance, or a name no instance spells
/// (see [`Name`]). Two handles from the **same** interner are
/// equal iff their strings are equal (the interner deduplicates), so
/// hot paths compare and hash 4-byte ids instead of strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Istr(u32);

impl Istr {
    /// The raw index into the owning interner.
    pub fn index(self) -> u32 {
        self.0
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
/// are never invalidated or renumbered: an edit session keeps one
/// interner alive across applies, stale strings simply stop being
/// referenced, and the session sheds them by reopening on a fresh table
/// ([`crate::CheckSession::compact_memory`]).
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
    /// every path that hashes runs through the overflow list.
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
}

/// An element's net key or instance path, or a device's path or
/// terminal key, as the hierarchy holds it: an instance of the view's
/// instance table and a string local to that instance's template, two
/// `u32`s — or, for a name no instance spells (the walk's, a label's),
/// a string of the view's own table ([`ChipView::strings`]).
///
/// A view keeps every name in one form only: a name that spells an
/// instance's local string is rooted at that instance, whoever produced
/// it. So two names of one view are equal exactly when their texts are
/// ([`ChipView::name_text`] renders one), and a net key names one
/// net-graph node ([`ChipView::node`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Name {
    /// The instance, or [`Name::OWN`] for a string of the view's table.
    inst: u32,
    /// The string, in the instance's template or in the view's table.
    local: u32,
}

impl Name {
    /// The `inst` of a name held as a string of the view's own table.
    const OWN: u32 = u32::MAX;

    /// A string of the view's own table.
    fn own(s: Istr) -> Name {
        Name {
            inst: Name::OWN,
            local: s.0,
        }
    }

    /// The view's string behind a name held as one.
    fn as_own(self) -> Option<Istr> {
        (self.inst == Name::OWN).then_some(Istr(self.local))
    }
}

/// The names one template defines, each once: the walk's strings under
/// the root [`TEMPLATE_ROOT`] (paths `~…`, declared keys `~.…`, auto keys
/// `#~…`, terminal keys `~….T`), shared by every instance stamped from
/// it, and the net-graph node each net key takes within an instance.
pub(crate) struct LocalNames {
    strings: StringInterner,
    /// Per string: its node within an instance (`NIL`: no net key).
    node: Vec<u32>,
    /// Per node: its string.
    key: Vec<u32>,
    /// Per string: how many of the template's elements have it as
    /// their auto key's base.
    copies: Vec<u32>,
}

/// Where a text is rooted ([`ChipView::root_of`]): the instance, and the
/// length of its path, the text's prefix it spells.
type Root = (u32, usize);

/// One stamped placement: where its names and its nodes start.
#[derive(Debug, Clone, Copy)]
struct Instance {
    /// The instance path, in the view's table.
    path: Istr,
    /// Its template's names, in [`Names::templates`].
    template: u32,
    /// Its first node; its template's `n` nodes follow.
    base: u32,
}

/// Marks an owner of [`Names::blocks`] as a string of the view's own
/// table rather than an instance.
const OWN_BLOCK: u32 = 1 << 31;

/// The view's side of [`Name`]: the instance table, and the net-graph
/// node space — an instance's nodes are its base plus its template's
/// local nodes, a string of the view's table takes the next node when
/// it first names a net. Nodes are only ever appended, never
/// renumbered, so a node holds for the view's life (an edit session's
/// too).
#[derive(Debug, Clone, Default)]
pub(crate) struct Names {
    instances: Vec<Instance>,
    templates: Vec<Arc<LocalNames>>,
    /// Per string of the view's table: the instance it is the path of
    /// (`NIL`: none; short tables read as `NIL`).
    instance_of: Vec<u32>,
    /// Per string of the view's table: bit 0 — some name is placed at
    /// this path; bit 1 — a proper dotted prefix of such a path.
    path_use: Vec<u8>,
    /// Per string of the view's table: its node (`NIL`: none yet).
    own_node: Vec<u32>,
    /// The node space in blocks, ascending: `(first node, owner)`, the
    /// owner an instance or `OWN_BLOCK | string`.
    blocks: Vec<(u32, u32)>,
    /// Nodes allocated.
    nodes: u32,
    /// The buffer a name's local text is spelled into while it settles.
    local: String,
}

/// `table[i]`, or `NIL` past its end.
fn entry(table: &[u32], i: u32) -> u32 {
    table.get(i as usize).copied().unwrap_or(NONE_U32)
}

/// Sets `table[i]`, growing the table with `fill`.
fn set_entry<T: Copy>(table: &mut Vec<T>, i: u32, value: T, fill: T) {
    if i as usize >= table.len() {
        table.resize(i as usize + 1, fill);
    }
    table[i as usize] = value;
}

impl Names {
    /// Nodes allocated so far: the length of every node-indexed table.
    pub(crate) fn node_count(&self) -> usize {
        self.nodes as usize
    }

    /// The node of `s`, a string of the view's table, allocated on first
    /// use.
    fn own_node(&mut self, s: Istr) -> u32 {
        let node = entry(&self.own_node, s.0);
        if node != NONE_U32 {
            return node;
        }
        let node = self.nodes;
        assert!(s.0 < OWN_BLOCK, "a view holds fewer than 2^31 strings");
        self.blocks.push((node, OWN_BLOCK | s.0));
        self.nodes = node.checked_add(1).expect("fewer than 2^32 nodes");
        set_entry(&mut self.own_node, s.0, node, NONE_U32);
        node
    }

    /// True if the path `s` (text `text`) may root an instance: nothing
    /// is placed at it yet, it is no proper prefix of a path something
    /// is placed at, and no proper prefix of it roots an instance — so
    /// no two instances, and no instance and a walked name, spell one
    /// text two ways.
    fn may_root(&self, s: Istr, text: &str, strings: &StringInterner) -> bool {
        let prefixes = text.match_indices('.').map(|(at, _)| &text[..at]);
        let mut prefixes = prefixes.filter_map(|p| strings.lookup(p));
        self.path_use.get(s.0 as usize).copied().unwrap_or(0) == 0
            && !prefixes.any(|p| entry(&self.instance_of, p.0) != NONE_U32)
    }

    /// Records that something is placed at path `s` (text `text`):
    /// its proper dotted prefixes are marked too, so no instance roots
    /// at one of them later.
    fn place_at(&mut self, s: Istr, text: &str, strings: &mut StringInterner) {
        if self.path_use.get(s.0 as usize).is_some_and(|&u| u & 1 != 0) {
            return;
        }
        set_entry(&mut self.path_use, s.0, 1, 0);
        for (at, _) in text.match_indices('.') {
            let p = strings.intern(&text[..at]);
            let flags = self.path_use.get(p.0 as usize).copied().unwrap_or(0);
            set_entry(&mut self.path_use, p.0, flags | 2, 0);
        }
    }

    /// Appends an instance of `template` at `path` and its nodes.
    fn add_instance(&mut self, path: Istr, template: u32) -> u32 {
        let inst = self.instances.len() as u32;
        assert!(inst < OWN_BLOCK, "a view holds fewer than 2^31 instances");
        let base = self.nodes;
        let n = self.templates[template as usize].key.len() as u32;
        self.instances.push(Instance {
            path,
            template,
            base,
        });
        self.blocks.push((base, inst));
        self.nodes = base.checked_add(n).expect("fewer than 2^32 nodes");
        set_entry(&mut self.instance_of, path.0, inst, NONE_U32);
        inst
    }

    fn local(&self, inst: u32) -> (&Instance, &LocalNames) {
        let i = &self.instances[inst as usize];
        (i, &self.templates[i.template as usize])
    }

    /// The name behind node `node` of block `b` (which holds it).
    fn name_in_block(&self, b: usize, node: u32) -> Name {
        let (first, owner) = self.blocks[b];
        if owner & OWN_BLOCK != 0 {
            return Name::own(Istr(owner & !OWN_BLOCK));
        }
        let (_, names) = self.local(owner);
        Name {
            inst: owner,
            local: names.key[(node - first) as usize],
        }
    }

    /// The name of every node of `nodes` (ascending), in order, by one
    /// walk along the blocks that skips by binary search to the block
    /// holding the next node — sparse nodes cost a search each, dense
    /// ones a step.
    pub(crate) fn names_of<'a, I>(&'a self, nodes: I) -> impl Iterator<Item = Name> + Clone + 'a
    where
        I: IntoIterator<Item = u32> + 'a,
        I::IntoIter: Clone,
    {
        let mut b = 0;
        nodes.into_iter().map(move |node| {
            if self
                .blocks
                .get(b + 1)
                .is_some_and(|&(first, _)| first <= node)
            {
                b += self.blocks[b + 1..].partition_point(|&(first, _)| first <= node);
            }
            self.name_in_block(b, node)
        })
    }

    /// Heap bytes of the tables and of the templates' names they keep
    /// alive, as payload bytes.
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let templates = self.templates.iter().map(|t| {
            let tables = t.node.len() + t.key.len() + t.copies.len();
            t.strings.heap_bytes() + t.strings.table_bytes() + tables * size_of::<u32>()
        });
        templates.sum::<usize>()
            + self.instances.len() * size_of::<Instance>()
            + (self.instance_of.len() + self.own_node.len()) * size_of::<u32>()
            + self.path_use.len()
            + self.blocks.len() * size_of::<(u32, u32)>()
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
/// net_key      Vec<Name>         8 B   instance + local string
/// path         Vec<Name>         8 B   instance + local string
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
    net_key: Vec<Name>,
    path: Vec<Name>,
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

    /// The dense net-key column.
    pub fn net_keys(&self) -> &[Name] {
        &self.net_key
    }

    /// The dense path column.
    pub fn paths(&self) -> &[Name] {
        &self.path
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
            + self.net_key.len() * size_of::<Name>()
            + self.path.len() * size_of::<Name>()
            + self.net_declared.words.len() * size_of::<u64>()
            + self.device.len() * size_of::<u32>()
            + self.rect_range.len() * size_of::<(u32, u32)>()
            + self.skel_range.len() * size_of::<(u32, u32)>()
            + self.rects.len() * size_of::<Rect>()
            + self.skel.len() * size_of::<Rect>()
    }

    /// Makes room for `n` more elements of one rectangle and one
    /// skeleton rectangle each, so the columns of a view whose size is
    /// known grow once instead of by copying doublings.
    fn reserve(&mut self, n: usize) {
        self.layer.reserve(n);
        self.bbox.reserve(n);
        self.net_key.reserve(n);
        self.path.reserve(n);
        self.net_declared.words.reserve(n.div_ceil(64));
        self.device.reserve(n);
        self.rect_range.reserve(n);
        self.skel_range.reserve(n);
        self.rects.reserve(n);
        self.skel.reserve(n);
    }

    /// Appends one element whose covered rectangles the caller has just
    /// appended to the rect arena: the run after the last element's. Ids
    /// are positions, so the element is number `len()` before the call.
    fn push(
        &mut self,
        layer: LayerId,
        bbox: Rect,
        (net_key, net_declared): (Name, bool),
        path: Name,
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
    pub(crate) fn set_net_key(&mut self, id: usize, key: Name) {
        self.net_key[id] = key;
    }

    /// Rewrites one element's path (a walked name settling into the
    /// instance it spells).
    pub(crate) fn set_path(&mut self, id: usize, path: Name) {
        self.path[id] = path;
    }

    /// Appends a whole block of columns translated by `by`, one column
    /// `extend` at a time instead of one push per element — a template
    /// stamp. `net_key` gives the view's key of each block element (by
    /// its position and block key) and `path` and `device` map the
    /// block's paths and device column. Skeleton rectangles live in the
    /// doubled grid, so they move by `2 * by`.
    fn append_translated(
        &mut self,
        block: &ElementColumns,
        by: Vector,
        net_key: impl Fn(usize, Name) -> Name,
        path: impl Fn(Name) -> Name,
        device: impl Fn(u32) -> u32,
    ) {
        self.layer.extend_from_slice(&block.layer);
        self.bbox.extend(block.bbox.iter().map(|r| r.translate(by)));
        (self.net_key).extend(
            block
                .net_key
                .iter()
                .enumerate()
                .map(|(e, &k)| net_key(e, k)),
        );
        self.path.extend(block.path.iter().map(|&p| path(p)));
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

    /// Net key.
    pub fn net_key(&self) -> Name {
        self.cols.net_key[self.id]
    }

    /// True if the net was declared via `9N` (vs auto-generated).
    pub fn net_declared(&self) -> bool {
        self.cols.net_declared.get(self.id)
    }

    /// Instance path.
    pub fn path(&self) -> Name {
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
    /// Instance path (dot notation).
    pub path: Name,
    /// Declared `9D` type, interned in the owning view (one entry per
    /// distinct type however many instances share it).
    pub device_type: Istr,
    /// Archetype class if the technology knows the type.
    pub class: Option<DeviceClass>,
    /// Immunity flag (`9C`).
    pub checked: bool,
    /// Terminals in chip coordinates: the name, interned in the owning
    /// view beside `device_type` (an instance carries a handle, not a
    /// copy of each name), the layer, the position and the terminal's
    /// net key — `{path}.{name}`, or a joining device's `net`.
    pub terminals: Vec<(Istr, LayerId, Point, Name)>,
    /// A joining-class device's one net key, `{path}.#` (`None` for a
    /// device whose terminals are nets of their own).
    pub net: Option<Name>,
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
    /// The view's own strings: instance paths, device types, terminal
    /// and label names, and the names no instance spells (see [`Name`]).
    pub strings: StringInterner,
    /// The instance table and the node space behind every [`Name`].
    pub(crate) names: Names,
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

    /// The text of `name` in three pieces, end to end: an instance's
    /// path spliced into its template's string where the root stands —
    /// the first byte, or the second after an auto key's `#`.
    fn name_parts(&self, name: Name) -> [&str; 3] {
        self.name_parts_in(&self.strings, name)
    }

    /// [`ChipView::name_parts`] with `strings` as the view's own table (a
    /// template's block, whose strings its names hold).
    fn name_parts_in<'a>(&'a self, strings: &'a StringInterner, name: Name) -> [&'a str; 3] {
        match name.as_own() {
            Some(s) => [strings.get(s), "", ""],
            None => {
                let (inst, names) = self.names.local(name.inst);
                let local = names.strings.get(Istr(name.local));
                let head = usize::from(local.as_bytes()[0] == b'#');
                let tail = &local[head + TEMPLATE_ROOT.len()..];
                [&local[..head], strings.get(inst.path), tail]
            }
        }
    }

    /// Appends the text of `name` to `out`.
    pub fn write_name(&self, name: Name, out: &mut String) {
        self.name_parts(name)
            .iter()
            .for_each(|part| out.push_str(part));
    }

    /// The length of `name`'s text, in bytes.
    pub(crate) fn name_len(&self, name: Name) -> usize {
        self.name_parts(name).iter().map(|part| part.len()).sum()
    }

    /// The bytes of `name`'s text, without making it.
    fn name_bytes(&self, name: Name) -> impl Iterator<Item = u8> + '_ {
        self.name_parts(name).into_iter().flat_map(str::bytes)
    }

    /// How the texts of two names order, without making them.
    pub(crate) fn cmp_names(&self, a: Name, b: Name) -> std::cmp::Ordering {
        match a == b {
            true => std::cmp::Ordering::Equal,
            false => self.name_bytes(a).cmp(self.name_bytes(b)),
        }
    }

    /// The text of `name`.
    pub fn name_text(&self, name: Name) -> std::borrow::Cow<'_, str> {
        match name.as_own() {
            Some(s) => std::borrow::Cow::Borrowed(self.str(s)),
            None => {
                let mut text = String::new();
                self.write_name(name, &mut text);
                std::borrow::Cow::Owned(text)
            }
        }
    }

    /// The name this view holds for `text`, if any (read-only): the
    /// instance's local string it spells, or the string of the view's
    /// table.
    pub fn lookup_name(&self, text: &str) -> Option<Name> {
        self.rooted(text, &mut String::new())
            .or_else(|| self.strings.lookup(text).map(Name::own))
    }

    /// The instance's local name `text` spells, if any: a dotted prefix
    /// of its path part is an instance's path ([`ChipView::root_of`]),
    /// and the rest, behind the root, is a string of that instance's
    /// template.
    fn rooted(&self, text: &str, local: &mut String) -> Option<Name> {
        let root = self.root_of(text)?;
        self.rooted_at(text, root, local)
    }

    /// The instance a dotted prefix of `text`'s path part is the path
    /// of, and where that prefix ends behind an auto key's `#`. There is
    /// at most one: no instance roots at a prefix of another's path
    /// ([`Names::may_root`]).
    fn root_of(&self, text: &str) -> Option<Root> {
        if self.names.instances.is_empty() {
            return None;
        }
        let path = match text.strip_prefix('#') {
            // `{path}:{layer}:{x1},{y1},{x2},{y2}`, maybe `:{n}`: a call
            // named through the API may put a `:` in the path, so the
            // layer and the box come off the right.
            Some(body) => {
                let base = auto_key_base(body);
                base.rsplitn(3, ':').nth(2).unwrap_or(base)
            }
            None => text,
        };
        let dots = path.match_indices('.').map(|(at, _)| at);
        dots.chain([path.len()]).find_map(|at| {
            let prefix = self.strings.lookup(&path[..at])?;
            let inst = entry(&self.names.instance_of, prefix.0);
            (inst != NONE_U32).then_some((inst, at))
        })
    }

    /// The string of instance `inst`'s template that `text` spells with
    /// the root in place of its first `at` bytes behind the `#`, if any.
    fn rooted_at(&self, text: &str, (inst, at): Root, local: &mut String) -> Option<Name> {
        let head = usize::from(text.starts_with('#'));
        let (_, names) = self.names.local(inst);
        local.clear();
        local.push_str(&text[..head]);
        local.push_str(TEMPLATE_ROOT);
        local.push_str(&text[head + at..]);
        let s = names.strings.lookup(local)?;
        Some(Name { inst, local: s.0 })
    }

    /// `name` in its one form: rooted at the instance whose local string
    /// it spells, if any, as it is otherwise.
    fn settled(&mut self, name: Name) -> Name {
        let Some(s) = name.as_own() else {
            return name;
        };
        let mut local = std::mem::take(&mut self.names.local);
        let rooted = self.rooted(self.str(s), &mut local);
        self.names.local = local;
        rooted.unwrap_or(name)
    }

    /// [`ChipView::settled`] for a net key, which also takes its node.
    fn settled_key(&mut self, name: Name) -> Name {
        let name = self.settled(name);
        if let Some(s) = name.as_own() {
            self.names.own_node(s);
        }
        name
    }

    /// The settled net key of `text`, interned into the view's table if
    /// no instance spells it (a label's net, a re-numbered auto key).
    pub(crate) fn key_of_text(&mut self, text: &str) -> Name {
        let mut local = std::mem::take(&mut self.names.local);
        let rooted = self.rooted(text, &mut local);
        self.names.local = local;
        rooted.unwrap_or_else(|| {
            let s = self.strings.intern(text);
            self.names.own_node(s);
            Name::own(s)
        })
    }

    /// The net-graph node of a net key: its instance's base plus its
    /// template-local node, or the node its string took.
    #[inline]
    pub fn node(&self, key: Name) -> u32 {
        match key.as_own() {
            // invariant: every net key a view holds is settled, which
            // gives a string of the view's table its node.
            Some(s) => entry(&self.names.own_node, s.0),
            None => {
                let (inst, names) = self.names.local(key.inst);
                inst.base + names.node[key.local as usize]
            }
        }
    }

    /// Nodes allocated so far (every node-indexed table's length).
    pub fn node_count(&self) -> usize {
        self.names.node_count()
    }

    /// Settles the names of the elements `elements` and the devices
    /// `devices`, fresh from the walk (see [`Name`]). With `number` — a
    /// whole fresh view, whose walked auto keys are bases still — they
    /// take their duplicate ordinals here ([`AutoOrdinals`]); otherwise
    /// [`assign_auto_net_keys`] numbers them afterwards.
    pub(crate) fn settle(
        &mut self,
        elements: impl IntoIterator<Item = usize>,
        devices: impl IntoIterator<Item = usize>,
        number: bool,
    ) {
        let mut ordinals = number.then(|| AutoOrdinals::new(self));
        // The walk lays an instance's elements out together, so the last
        // path's root is the next element's as a rule: its key, whose
        // path part begins with the path, has the same root, if any.
        let mut last: Option<(Name, Name, Option<Root>)> = None;
        let mut local = std::mem::take(&mut self.names.local);
        for id in elements {
            let e = self.elements.get(id);
            let (key, path, declared) = (e.net_key(), e.path(), e.net_declared());
            let (path, root) = match last {
                Some((walked, settled, root)) if walked == path => (settled, root),
                _ => {
                    let root = path.as_own().and_then(|s| self.root_of(self.str(s)));
                    let at = |r| self.rooted_at(self.str(path.as_own()?), r, &mut local);
                    let settled = root.and_then(at).unwrap_or(path);
                    last = Some((path, settled, root));
                    (settled, root)
                }
            };
            let key = match (&mut ordinals, key.as_own(), root) {
                (Some(ordinals), Some(_), _) if !declared => ordinals.key(self, key),
                (_, Some(s), Some(root)) => {
                    let rooted = self.rooted_at(self.str(s), root, &mut local);
                    rooted.unwrap_or_else(|| {
                        self.names.own_node(s);
                        key
                    })
                }
                _ => self.settled_key(key),
            };
            self.elements.set_net_key(id, key);
            self.elements.set_path(id, path);
        }
        self.names.local = local;
        for d in devices {
            let mut terminals = std::mem::take(&mut self.devices[d].terminals);
            for t in &mut terminals {
                t.3 = self.settled_key(t.3);
            }
            let (path, net) = (self.devices[d].path, self.devices[d].net);
            let path = self.settled(path);
            let net = net.map(|n| self.settled_key(n));
            let device = &mut self.devices[d];
            (device.terminals, device.path, device.net) = (terminals, path, net);
        }
    }
}

/// The duplicate-ordinal count of a fresh view's walked elements (see
/// [`assign_auto_net_keys`] for what a key is): per base, how many
/// elements before have it. Equal settled bases are equal names, so
/// duplicates are counted per name, not grouped by text, and only the
/// `:n` keys are ever formatted. A stamp numbered its instance's keys
/// already; a walked base that spells one of an instance's strings (a
/// call walked because another took its path) counts after that
/// instance's own copies.
struct AutoOrdinals {
    /// Per string of the view's table.
    own: Vec<u32>,
    /// Per rooted base.
    rooted: HashMap<Name, u32>,
    text: String,
}

impl AutoOrdinals {
    fn new(view: &ChipView) -> AutoOrdinals {
        AutoOrdinals {
            own: vec![0; view.strings.len()],
            rooted: HashMap::new(),
            text: String::new(),
        }
    }

    /// The settled key of the next element whose walked base is `base`.
    fn key(&mut self, view: &mut ChipView, base: Name) -> Name {
        let base = view.settled_key(base);
        let seen = match base.as_own() {
            Some(s) => &mut self.own[s.0 as usize],
            None => self.rooted.entry(base).or_insert_with(|| {
                let (_, names) = view.names.local(base.inst);
                names.copies[base.local as usize]
            }),
        };
        let n = *seen;
        *seen += 1;
        if n == 0 {
            return base;
        }
        self.text.clear();
        view.write_name(base, &mut self.text);
        write!(self.text, ":{n}").expect("writing to a String cannot fail");
        view.key_of_text(&self.text)
    }
}

/// Exact counters of one [`instantiate`] call — what the template cache
/// was worth: `elements_stamped` out of the view's element count is the
/// share of the chip that arrived by copy, and `elements_walked` is
/// every derivation that was actually paid for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InstantiateStats {
    /// Templates derived: one per `(definition, orientation)` the
    /// hierarchy places more than once ([`Definitions`]).
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
    /// table's earlier entries are not counted): instance paths, device
    /// types and terminal names, and the walked names no instance
    /// spells — never one per stamped element.
    pub strings_interned: usize,
    /// Strings the templates hold between them, each template's once
    /// (its local names, which every instance of it shares).
    pub template_strings: usize,
}

impl std::fmt::Display for InstantiateStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} templates built, {} instances stamped, {} elements stamped + {} walked, \
             {} strings interned + {} template strings",
            self.templates_built,
            self.instances_stamped,
            self.elements_stamped,
            self.elements_walked,
            self.strings_interned,
            self.template_strings
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
/// return, and every name is settled (see [`Name`]).
///
/// **Each definition is derived once.** For every `(definition,
/// orientation)` the hierarchy instantiates more than once — placements
/// summed over the symbols sharing a content key ([`Definitions`]) —
/// the walk runs one time, at offset
/// zero, into a private `Template`; every call to such a pair — at any
/// depth, inside other templates too — then *stamps* the template:
/// columns copied with the call's offset added to every coordinate.
/// Only translation is ever
/// applied to derived geometry (slab decomposition and wire rectangles
/// do not commute with rotation, so the orientation is part of the
/// template's key, never of the stamp). Definitions placed once and loose
/// top-level elements take the plain walk; there is no other derivation.
/// Templates live for this call only — in a library session, for the
/// session once a second cell presents the definition (see
/// [`crate::library::LibraryCache`]).
///
/// **Names are the hierarchy's.** A stamp into the view appends one
/// instance — its path interned once — and its elements' and devices'
/// names are that instance and the template's own strings: no name is
/// formatted or interned per element. (A stamp into another template
/// splices its path into the strings, once per derivation.) A call
/// whose path something else is placed at already (a duplicate call
/// name, which only a layout built through the API can have) is walked
/// instead, so no two instances spell one text two ways.
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
    definitions: &Definitions<'_>,
    seed: StringInterner,
) -> (ChipView, Vec<(usize, usize)>) {
    let templates = build_templates(layout, tech, binding, definitions);
    let walker = Walker {
        layout,
        tech,
        binding,
        keys: &definitions.keys,
        templates: &templates,
        roots: true,
    };
    let items = layout.top_items();
    let seeded = seed.len();
    let mut view = ChipView {
        strings: seed,
        ..ChipView::default()
    };
    view.names.templates = (templates.list.iter())
        .map(|t| Arc::clone(&t.names))
        .collect();
    let symbols = layout.symbols();
    let flat = hierarchy::flat_elements(symbols.len(), |s| &symbols[s].items);
    let elements = (items.iter())
        .map(|item| hierarchy::item_flat_elements(item, &flat))
        .fold(0u64, u64::saturating_add);
    let limit = hierarchy::MAX_FLAT_ELEMENTS;
    view.elements.reserve(elements.min(limit) as usize);
    let mut runs = Vec::with_capacity(items.len());
    let mut scratch = StampScratch::default();
    for item in items {
        let (e0, d0) = (view.elements.len(), view.devices.len());
        walker.walk_with(item, Scope::TOP, &mut view, &mut scratch);
        runs.push((view.elements.len() - e0, view.devices.len() - d0));
    }
    // Stamped names are settled and numbered already.
    let StampScratch { walked, .. } = scratch;
    view.settle(walked.0, walked.1, true);
    let stats = &mut view.instantiate_stats;
    stats.templates_built = templates.list.len();
    stats.elements_walked += (templates.list.iter())
        .map(|t| t.block.instantiate_stats.elements_walked)
        .sum::<usize>();
    stats.strings_interned = view.strings.len() - seeded;
    stats.template_strings = (templates.list.iter()).map(|t| t.names.strings.len()).sum();
    (view, runs)
}

impl ChipView {
    /// A handle-free rendering of the elements from `e0` and the devices
    /// from `d0` on, with ids and device indices relative to those
    /// starts — equal for two views exactly when the walk and a stamp
    /// (or two interners) produced the same thing.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn resolved_tail(&self, e0: usize, d0: usize) -> Vec<String> {
        self.resolved_tail_in(&self.strings, e0, d0)
    }

    /// [`ChipView::resolved_tail`] with `strings` as the view's own table.
    #[cfg(any(test, debug_assertions))]
    fn resolved_tail_in(&self, strings: &StringInterner, e0: usize, d0: usize) -> Vec<String> {
        let text = |name: Name| NameText(self.name_parts_in(strings, name));
        let elements = (e0..self.elements.len()).map(|id| {
            let e = self.elements.get(id);
            format!(
                "{:?}",
                (
                    (e.layer(), e.bbox(), e.rects(), e.skeleton()),
                    (text(e.net_key()), e.net_declared(), text(e.path())),
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
                .map(|&(name, layer, at, key)| (strings.get(name), layer, at, text(key)))
                .collect();
            format!(
                "{:?}",
                (
                    (text(d.path), strings.get(d.device_type), d.net.map(text)),
                    (d.class, d.checked, terminals, ids, d.transform),
                )
            )
        });
        elements.chain(devices).collect()
    }
}

/// A name's text as [`ChipView::resolved_tail`] prints it: quoted, as
/// a `String` would be, without making one.
#[cfg(any(test, debug_assertions))]
struct NameText<'a>([&'a str; 3]);

#[cfg(any(test, debug_assertions))]
impl std::fmt::Debug for NameText<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("\"")?;
        self.0.iter().try_for_each(|part| f.write_str(part))?;
        f.write_str("\"")
    }
}

/// The instance path a [`Template`] is walked under, and the root of
/// every string of its [`LocalNames`]. Any non-empty string would do:
/// the walk branches on whether a path is empty, never on what it says,
/// so under this root it takes exactly the branches it takes under a
/// real (non-empty) instance path, and an instance's path replaces the
/// root **by position** — the first byte, or the second after an auto
/// key's `#` — never by searching for it.
const TEMPLATE_ROOT: &str = "~";

/// Appends `local`, a string under [`TEMPLATE_ROOT`], with `path` in
/// place of the root.
fn reroot(local: &str, path: &str, out: &mut String) {
    let head = usize::from(local.as_bytes()[0] == b'#');
    out.push_str(&local[..head]);
    out.push_str(path);
    out.push_str(&local[head + TEMPLATE_ROOT.len()..]);
}

/// One definition, derived once: the walk of a call of `symbol` under
/// `Transform::new(orient, Vector::ZERO)` and the instance path
/// [`TEMPLATE_ROOT`], kept as a private view whose strings are the
/// template's [`LocalNames`]. Its geometry is the instance's at offset
/// zero; its path strings read `~` + *relative path*, its declared keys
/// `~.` + *…name*, its auto keys `#~` + *relative path* +
/// `:{layer}:{x1},{y1},{x2},{y2}`, its terminal keys `~` + *relative
/// path* + `.{terminal}` (`.#` for a joining device) — each an
/// instance's own string with the root where the instance path goes.
pub(crate) struct Template {
    /// The walk, its strings moved to `names`; its auto keys are bases,
    /// which a stamp into another template numbers with that template's.
    block: ChipView,
    names: Arc<LocalNames>,
    /// Per block element: its net key in an instance, duplicate ordinal
    /// appended.
    keys: Vec<u32>,
    /// Set by the first stamp, which is checked against a plain walk of
    /// the same call.
    #[cfg(debug_assertions)]
    verified: std::sync::atomic::AtomicBool,
}

impl std::fmt::Debug for LocalNames {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalNames")
            .field("strings", &self.strings.len())
            .field("nodes", &self.key.len())
            .finish()
    }
}

/// The templates of one [`instantiate`] call, by definition and
/// orientation; a view's instances name them by their place in `list`.
#[derive(Default)]
struct Templates {
    by_key: HashMap<TemplateKey, u32>,
    list: Vec<Arc<Template>>,
}

impl Templates {
    fn get(&self, key: &TemplateKey) -> Option<(u32, &Template)> {
        let at = *self.by_key.get(key)?;
        Some((at, &self.list[at as usize]))
    }
}

/// The buffers a [`Template::stamp`] fills and leaves behind, kept by
/// the walk from one stamp to the next, so a stamp allocates for what
/// it adds to the view and nothing else.
#[derive(Default)]
struct StampScratch {
    text: String,
    /// Per string of the block: its re-rooted handle in the view.
    handles: Vec<Istr>,
    /// Per string of the block: its handle in the view as it is.
    plain: Vec<Istr>,
    /// Per template of the view: its device types and terminal names'
    /// handles in the view, by block string, filled at its first stamp.
    verbatim: Vec<Vec<Istr>>,
    /// The elements and devices the walk made, ascending.
    walked: (Vec<usize>, Vec<usize>),
}

/// Derives a template for every `(definition, orientation)` the
/// hierarchy instantiates more than once ([`Definitions`]),
/// children before parents — so a parent's walk finds its children's
/// templates and stamps them, and total work is one derivation per
/// definition plus copying. A library session's cache answers the
/// definitions it keeps.
fn build_templates(
    layout: &Layout,
    tech: &Technology,
    binding: &LayerBinding,
    definitions: &Definitions<'_>,
) -> Templates {
    let mut templates = Templates::default();
    for &(symbol, orient) in &definitions.repeated {
        let walker = Walker {
            layout,
            tech,
            binding,
            keys: &definitions.keys,
            templates: &templates,
            roots: false,
        };
        let key = (definitions.keys[symbol.0 as usize], orient);
        let template = definitions.template(key, || Template::derive(&walker, symbol, orient));
        templates.by_key.insert(key, templates.list.len() as u32);
        templates.list.push(template);
    }
    templates
}

impl Template {
    /// The walk of a call of `symbol` under `Transform::new(orient,
    /// Vector::ZERO)` and the path [`TEMPLATE_ROOT`], stamping the
    /// templates `walker` holds, and its names: each element's key with
    /// its duplicate ordinal, and a node for every net key.
    fn derive(walker: &Walker<'_>, symbol: SymbolId, orient: Orientation) -> Template {
        let call = Item::Call(Call {
            target: symbol,
            transform: Transform::new(orient, Vector::ZERO),
            name: TEMPLATE_ROOT.to_string(),
        });
        let mut block = ChipView::default();
        walker.walk(&call, Scope::TOP, &mut block);
        let mut copies = vec![0u32; block.strings.len()];
        let mut text = String::new();
        let keys = (0..block.elements.len())
            .map(|id| {
                let e = block.elements.get(id);
                let key = e.net_key().local;
                if e.net_declared() {
                    return key;
                }
                let n = copies[key as usize];
                copies[key as usize] += 1;
                if n == 0 {
                    return key;
                }
                text.clear();
                text.push_str(block.strings.get(Istr(key)));
                write!(text, ":{n}").expect("writing to a String cannot fail");
                block.strings.intern(&text).0
            })
            .collect::<Vec<u32>>();
        let mut node = vec![NONE_U32; block.strings.len()];
        let mut key = Vec::new();
        let terminals = block.devices.iter().flat_map(|d| {
            let terms = d.terminals.iter().map(|t| t.3.local);
            terms.chain(d.net.map(|n| n.local))
        });
        for s in keys.iter().copied().chain(terminals) {
            if node[s as usize] == NONE_U32 {
                node[s as usize] = key.len() as u32;
                key.push(s);
            }
        }
        copies.resize(block.strings.len(), 0);
        let names = LocalNames {
            strings: std::mem::take(&mut block.strings),
            node,
            key,
            copies,
        };
        Template {
            block,
            names: Arc::new(names),
            keys,
            #[cfg(debug_assertions)]
            verified: Default::default(),
        }
    }

    /// Appends one instance to `view`, a chip: the block translated by
    /// `offset`, its names the instance `path` (non-empty) and the
    /// template's own strings. Under an enclosing `device` the
    /// instance's elements join that device and its own device rows are
    /// dropped — what the walk does with devices nested in a device.
    /// False, with nothing done, if `path` may not root an instance.
    fn stamp(
        &self,
        (template, path): (u32, &str),
        offset: Vector,
        device: Option<usize>,
        view: &mut ChipView,
        scratch: &mut StampScratch,
    ) -> bool {
        let at = view.strings.intern(path);
        if !view.names.may_root(at, path, &view.strings) {
            return false;
        }
        view.names.place_at(at, path, &mut view.strings);
        let inst = view.names.add_instance(at, template);
        let rooted = |n: Name| Name {
            inst,
            local: n.local,
        };
        let key = |e: usize, _| Name {
            inst,
            local: self.keys[e],
        };
        let verbatim = &mut scratch.verbatim;
        if verbatim.len() <= template as usize {
            verbatim.resize(template as usize + 1, Vec::new());
        }
        let verbatim = &mut verbatim[template as usize];
        if verbatim.is_empty() && !self.block.devices.is_empty() {
            *verbatim = self.verbatim(&mut view.strings);
        }
        self.append(view, offset, device, key, rooted, |h| {
            verbatim[h.0 as usize]
        });
        true
    }

    /// [`Template::stamp`] into `view`, another template's block: the
    /// instance `path` is spliced into every string where the root
    /// stands, each distinct string once.
    fn stamp_into_template(
        &self,
        path: &str,
        offset: Vector,
        device: Option<usize>,
        view: &mut ChipView,
        scratch: &mut StampScratch,
    ) {
        let StampScratch {
            text,
            handles,
            plain,
            ..
        } = scratch;
        let local = &self.names.strings;
        for table in [&mut *handles, &mut *plain] {
            table.clear();
            table.resize(local.len(), Istr(NONE_U32));
        }
        // Rooted strings and the ones taken as written (device types,
        // terminal names) in tables of their own: a name may spell both.
        let mut fill =
            |table: &mut Vec<Istr>, h: Istr, rooted: bool, strings: &mut StringInterner| {
                if table[h.0 as usize].0 == NONE_U32 {
                    text.clear();
                    match rooted {
                        true => reroot(local.get(h), path, text),
                        false => text.push_str(local.get(h)),
                    }
                    table[h.0 as usize] = strings.intern(text);
                }
            };
        for e in self.block.elements.iter() {
            for n in [e.net_key(), e.path()] {
                fill(handles, Istr(n.local), true, &mut view.strings);
            }
        }
        for d in &self.block.devices {
            let keys = d.terminals.iter().map(|t| t.3).chain([d.path]).chain(d.net);
            for n in keys {
                fill(handles, Istr(n.local), true, &mut view.strings);
            }
            for h in d.terminals.iter().map(|t| t.0).chain([d.device_type]) {
                fill(plain, h, false, &mut view.strings);
            }
        }
        let name = |n: Name| Name::own(handles[n.local as usize]);
        let verbatim = |h: Istr| plain[h.0 as usize];
        self.append(view, offset, device, |_, k| name(k), name, verbatim);
    }

    /// Appends the block to `view`, translated by `offset`: element keys
    /// from `key`, every other name through `name`, device types and
    /// terminal names through `verbatim`.
    fn append<K, N, V>(
        &self,
        view: &mut ChipView,
        offset: Vector,
        device: Option<usize>,
        key: K,
        name: N,
        verbatim: V,
    ) where
        K: Fn(usize, Name) -> Name,
        N: Fn(Name) -> Name + Copy,
        V: Fn(Istr) -> Istr,
    {
        let block = &self.block;
        let (e0, d0) = (view.elements.len(), view.devices.len());
        let count = block.elements.len();
        match device {
            Some(d) => {
                (view.elements).append_translated(&block.elements, offset, key, name, |_| d as u32);
                view.devices[d].element_ids.extend(e0..e0 + count);
            }
            None => {
                let shift = |d| device_after(d0, d);
                (view.elements).append_translated(&block.elements, offset, key, name, shift);
                for dv in &block.devices {
                    let terminals = (dv.terminals.iter())
                        .map(|&(t, layer, at, k)| (verbatim(t), layer, at + offset, name(k)))
                        .collect();
                    view.devices.push(DeviceInstance {
                        path: name(dv.path),
                        device_type: verbatim(dv.device_type),
                        class: dv.class,
                        checked: dv.checked,
                        terminals,
                        net: dv.net.map(name),
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

    /// The view's handles of the block's device types and terminal
    /// names, by block string (`NIL` for every other string).
    fn verbatim(&self, strings: &mut StringInterner) -> Vec<Istr> {
        let mut table = vec![Istr(NONE_U32); self.names.strings.len()];
        for d in &self.block.devices {
            for h in d.terminals.iter().map(|t| t.0).chain([d.device_type]) {
                table[h.0 as usize] = strings.intern(self.names.strings.get(h));
            }
        }
        table
    }
}

impl Definition for Template {
    #[cfg(debug_assertions)]
    fn assert_same(&self, fresh: &Template) {
        let keys = |t: &Template| -> Vec<String> {
            (t.keys.iter())
                .map(|&k| t.names.strings.get(Istr(k)).to_string())
                .collect()
        };
        let resolved = |t: &Template| t.block.resolved_tail_in(&t.names.strings, 0, 0);
        assert_eq!(
            (resolved(self), keys(self)),
            (resolved(fresh), keys(fresh)),
            "a kept template must equal the walk of its definition"
        );
        assert_eq!(self.block.violations, fresh.block.violations);
        assert_eq!(self.block.instantiate_stats, fresh.block.instantiate_stats);
    }
}

/// Instantiates a single top-level item, appending its elements and
/// device instances to `view` (the incremental checker's entry point for
/// regenerating one dirty item's run) by the plain walk, no templates.
/// Its names are the walk's strings, neither settled nor numbered: run
/// [`ChipView::settle`], then [`assign_auto_net_keys`] over the
/// assembled columns, afterwards.
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
        keys: &[],
        templates: &Templates::default(),
        roots: false,
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
/// `candidates` (ascending ids, their names settled) are the elements
/// whose keys are re-derived — an edit session passes the ones sharing
/// layer and bounding box with an element the edit touched, from its
/// element index, so it pays for the edit, not for re-formatting every
/// auto key on the chip. They must hold every member of each identity
/// group they hold one of: duplicate ordinals shift only within one
/// group, and duplicates by definition share path, layer, and bbox.
/// Declared elements among them are skipped.
pub(crate) fn assign_auto_net_keys(view: &mut ChipView, candidates: &[usize]) -> Vec<usize> {
    let mut ordinals: HashMap<String, u32> = HashMap::new();
    let mut rekeyed = Vec::new();
    let (mut current, mut desired) = (String::new(), String::new());
    for &id in candidates {
        let e = view.elements.get(id);
        if e.net_declared() {
            continue;
        }
        current.clear();
        view.write_name(e.net_key(), &mut current);
        let base = auto_key_base(&current);
        desired.clear();
        desired.push_str(base);
        match ordinals.get_mut(base) {
            None => {
                // Ordinal 0: the base itself is the key.
                ordinals.insert(base.to_string(), 1);
            }
            Some(n) => {
                write!(desired, ":{n}").expect("writing to a String cannot fail");
                *n += 1;
            }
        }
        // Only a key that changed is looked up: an unchanged one costs
        // no table traffic and stays off the rekeyed list.
        if desired != current {
            let key = view.key_of_text(&desired);
            view.elements.set_net_key(id, key);
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
    /// The content key of each symbol, which `templates` are keyed by
    /// (none for the plain walk).
    keys: &'a [ContentKey],
    templates: &'a Templates,
    /// True when walking a chip, whose stamps append instances; false
    /// when walking a template, whose stamps splice their paths in.
    roots: bool,
}

impl Walker<'_> {
    fn walk(&self, item: &Item, scope: Scope<'_>, view: &mut ChipView) {
        self.walk_with(item, scope, view, &mut StampScratch::default());
    }

    /// The walk's name of `text` placed at path `path`: a string of the
    /// view's table, the path marked as placed at on a chip.
    fn placed(&self, view: &mut ChipView, path: &str) -> Name {
        let at = view.strings.intern(path);
        if self.roots {
            view.names.place_at(at, path, &mut view.strings);
        }
        Name::own(at)
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
                let key = &mut scratch.text;
                key.clear();
                let net_declared = match &e.net {
                    Some(n) if path.is_empty() => {
                        key.push_str(n);
                        true
                    }
                    Some(n) => {
                        write!(key, "{path}.{n}").expect("writing to a String cannot fail");
                        true
                    }
                    None => {
                        let b = local_bbox;
                        let (x1, y1, x2, y2) = (b.x1, b.y1, b.x2, b.y2);
                        write!(key, "#{path}:{}:{x1},{y1},{x2},{y2}", layer.0)
                            .expect("writing to a String cannot fail");
                        false
                    }
                };
                let net_key = Name::own(view.strings.intern(key));
                let path = self.placed(view, path);
                let net = (net_key, net_declared);
                (view.elements).push(layer, shape.bbox(), net, path, device, skeleton);
                scratch.walked.0.push(id);
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
                // A stamp puts the instance path where the walk took its
                // non-empty-path branches, so an instance whose path is
                // empty (an unnamed call at the top) is walked.
                if !child_path.is_empty() {
                    let key = self.keys.get(c.target.0 as usize);
                    if let Some((at, template)) =
                        key.and_then(|&k| self.templates.get(&(k, child_t.orient)))
                    {
                        #[cfg(debug_assertions)]
                        let start = (view.elements.len(), view.devices.len());
                        let (offset, path) = (child_t.offset, child_path.as_str());
                        let stamped = match self.roots {
                            true => template.stamp((at, path), offset, device, view, scratch),
                            false => {
                                template.stamp_into_template(path, offset, device, view, scratch);
                                true
                            }
                        };
                        if stamped {
                            #[cfg(debug_assertions)]
                            self.verify_first_stamp(template, item, scope, view, start);
                            return;
                        }
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
                        let class = self.tech.device(&decl.device_type).map(|a| a.class);
                        // A joining device is one net; any other's
                        // terminals are nets of their own.
                        let mut key = |view: &mut ChipView, tail: &str| {
                            let key = &mut scratch.text;
                            key.clear();
                            write!(key, "{child_path}.{tail}")
                                .expect("writing to a String cannot fail");
                            Name::own(view.strings.intern(key))
                        };
                        let net = is_joining_class(class).then(|| key(view, "#"));
                        let terminals = decl
                            .terminals
                            .iter()
                            .filter_map(|term| {
                                let layer = self.binding.layer(term.layer)?;
                                let name = view.strings.intern(&term.name);
                                let at = child_t.apply_point(term.position);
                                let tkey = net.unwrap_or_else(|| key(view, &term.name));
                                Some((name, layer, at, tkey))
                            })
                            .collect();
                        let path = self.placed(view, &child_path);
                        view.devices.push(DeviceInstance {
                            path,
                            device_type: view.strings.intern(&decl.device_type),
                            class,
                            checked: decl.checked,
                            terminals,
                            net,
                            element_ids: Vec::new(),
                            transform: child_t,
                        });
                        scratch.walked.1.push(idx);
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
    /// equal the plain walk of the call it answered, its auto keys
    /// numbered as a chip's stamp numbers them. (A stamp under an
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
            keys: &[],
            templates: &Templates::default(),
            roots: false,
            ..*self
        };
        let mut walked = ChipView::default();
        plain.walk(call, scope, &mut walked);
        if self.roots {
            walked.settle(0..walked.elements.len(), 0..walked.devices.len(), true);
        }
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

    /// [`instantiate`] under the layout's own definitions.
    fn instantiated(
        layout: &Layout,
        tech: &Technology,
        binding: &LayerBinding,
        seed: StringInterner,
    ) -> (ChipView, Vec<(usize, usize)>) {
        let definitions = Definitions::new(layout, binding, None);
        instantiate(layout, tech, binding, &definitions, seed)
    }

    fn view_of(cif: &str) -> (ChipView, Vec<Violation>) {
        let layout = parse(cif).unwrap();
        let tech = nmos_technology();
        let (binding, v) = LayerBinding::bind(&layout, &tech);
        let (view, _) = instantiated(&layout, &tech, &binding, StringInterner::default());
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
        assert_eq!(view.name_text(rail.net_key()), "VDD");
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
        assert_eq!(view.name_text(view.devices[0].path), "i0");
        assert_eq!(view.name_text(view.devices[1].path), "i1");
        assert_eq!(view.devices[0].element_ids.len(), 3);
        // Terminal transformed to chip coords.
        let (name, _, pos, _) = view.devices[1].terminals[0];
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
        assert_eq!(view.name_text(view.elements.get(0).path()), "i0.i0");
        assert_eq!(view.name_text(view.elements.get(0).net_key()), "i0.i0.out");
    }

    /// Numbers the duplicate auto keys of a view fresh from the plain
    /// walk, as [`instantiate`] does its walked elements.
    fn number_fresh_auto_keys(view: &mut ChipView) {
        view.settle(0..view.elements.len(), 0..view.devices.len(), true);
    }

    /// The plain recursive walk of every top-level item, no templates,
    /// with ordinals from the string-grouped pass over the whole view —
    /// what [`instantiate`] must equal.
    fn reference_view(layout: &Layout, tech: &Technology, binding: &LayerBinding) -> ChipView {
        let plain = Walker {
            layout,
            tech,
            binding,
            keys: &[],
            templates: &Templates::default(),
            roots: false,
        };
        let mut view = ChipView::default();
        for item in layout.top_items() {
            plain.walk(item, Scope::TOP, &mut view);
        }
        let all: Vec<usize> = (0..view.elements.len()).collect();
        assign_auto_net_keys(&mut view, &all);
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
        let (cold, cold_runs) = instantiated(&layout, &tech, &binding, StringInterner::default());
        assert!(!cold.elements.is_empty() && !cold.devices.is_empty());
        assert_eq!(cold.resolved_tail(0, 0), reference);
        let (warm, warm_runs) = instantiated(&layout, &tech, &binding, warm_interner());
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
        let (view, runs) = instantiated(&layout, &tech, &binding, StringInterner::default());
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
                // the contact's 6 (its path, 2 auto keys, its net
                // key, type and terminal name) and the cell's 12
                template_strings: 18,
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
            let (view, runs) = instantiated(&layout, &tech, &binding, StringInterner::default());
            prop_assert_eq!(view.resolved_tail(0, 0), want.clone());
            prop_assert_eq!(view.violations.len(), reference.violations.len());
            prop_assert_eq!(runs.len(), layout.top_items().len());
            prop_assert_eq!(
                runs.iter().fold((0, 0), |a, r| (a.0 + r.0, a.1 + r.1)),
                (view.elements.len(), view.devices.len())
            );
            let stats = view.instantiate_stats;
            prop_assert!(stats.elements_stamped <= view.elements.len());
            // A template may stamp nothing: its calls' paths can be taken
            // by a duplicate call name, which walks them instead.
            prop_assert!(stats.templates_built > 0 || stats.instances_stamped == 0);
            let (warm, warm_runs) = instantiated(&layout, &tech, &binding, warm_interner());
            prop_assert_eq!(warm.resolved_tail(0, 0), want);
            prop_assert_eq!(&warm_runs, &runs);
        }

        /// The interner against a `HashMap<String, u32>` + `Vec<String>`
        /// model, under random sequences of every operation it has:
        /// handles are dense in insertion order, every string reads back
        /// (the empty one, and multi-byte ones lying side by side in the
        /// buffer) and the text is exact. Every other case piles all
        /// strings into two hash buckets, so the same holds
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
                match rng.below(5) {
                    0..=3 => {
                        let s = random_name(rng);
                        let id = t.intern(&s);
                        prop_assert_eq!(id.index(), model.intern(&s), "intern {:?}", s);
                    }
                    _ => {
                        let s = random_name(rng);
                        let want = model.ids.get(&s).copied();
                        prop_assert_eq!(t.lookup(&s).map(Istr::index), want, "lookup {:?}", s);
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
            let plain = Walker { layout: &layout, tech: &tech, binding: &binding, keys: &[], templates: &Templates::default(), roots: false };
            let mut by_handle = ChipView::default();
            for item in layout.top_items() {
                plain.walk(item, Scope::TOP, &mut by_handle);
            }
            let mut by_string = by_handle.clone();
            number_fresh_auto_keys(&mut by_handle);
            let all: Vec<usize> = (0..by_string.elements.len()).collect();
            assign_auto_net_keys(&mut by_string, &all);
            prop_assert_eq!(by_handle.resolved_tail(0, 0), by_string.resolved_tail(0, 0));
        }
    }
}
