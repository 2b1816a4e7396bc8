//! Net-list model: nets, devices, terminals — flat columns over one
//! text buffer.
//!
//! A [`Netlist`] owns no string per name. Every name it carries — net
//! aliases, device paths, device types, terminal names — is a *span* of
//! one text buffer, and its nets, aliases, devices and terminals are
//! rows of flat columns:
//!
//! * a **net row** is a name span (the span of its canonical alias), and
//!   its range of the **alias column** (spans, sorted by text within the
//!   net) and of the **net-terminal column** (`(device, terminal-name
//!   span)`, in device order);
//! * a **device row** is a name span, a type span, a class, and its
//!   range of the **device-terminal column** (`(terminal-name span,
//!   net key)`, in terminal order).
//!
//! A terminal names its net by the net's **key**, not its id, and a key
//! table maps keys to ids: a net keeps its key for as long as it lives
//! while the list renumbers around it, so a renumbering rewrites one
//! table entry per net, never one per terminal. A written list's keys
//! are its ids. The key is also how an edit session names a net
//! between edits (`diic_core::netgen::NetIndex` holds a key per graph
//! node, and reads ids through [`Netlist::net_of_key`]): no patch and no
//! text compaction changes a live net's key.
//!
//! Ranges are contiguous and ascending — row *i*'s range starts where
//! row *i − 1*'s ended — so a row stores only where its range ends.
//! Nets are ordered by canonical name. Reads go through
//! [`Netlist::net`] / [`Netlist::device`] and the [`NetRef`] /
//! [`DeviceRef`] accessors, which slice the text (checked).
//!
//! A list is written two ways. From scratch, a [`NetlistWriter`] appends
//! in canonical order — all nets, then all devices, each item's text as
//! the item is appended — and derives the net-terminal column from the
//! device-terminal column by a counting sort at the end. An edit
//! session's list is then brought up to date in place by
//! [`Netlist::patch`]: the nets and devices it keeps stay where they lie
//! in the text and move in their columns as blocks, keeping their keys,
//! and only the rows of the nets and devices it replaces are written. Text is append-only
//! under a patch — a dropped name stays in the buffer — so a patched
//! list may carry garbage text up to the size of its live text; past
//! that the next patch rewrites the text once through a writer, every
//! net keeping its key.
//!
//! Two net lists are **equal** when they say the same thing — the same
//! names, aliases, terminals, types and classes in the same order — not
//! when their buffers happen to be laid out alike.

use crate::unionfind::UnionFind;
use diic_tech::DeviceClass;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::OnceLock;

/// Identifier of a net in a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub u32);

/// Identifier of a device in a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DeviceId(pub u32);

/// A run of bytes of a net list's text. Built only where the text is
/// appended to ([`Netlist::push_text`], [`Netlist::patch`]), which
/// checks that it stays under 4 GiB — so `start + len` cannot wrap.
#[derive(Debug, Clone, Copy)]
struct Span {
    start: u32,
    len: u32,
}

impl Span {
    fn range(self) -> Range<usize> {
        self.start as usize..self.start as usize + self.len as usize
    }
}

#[derive(Debug, Clone, Copy)]
struct NetRow {
    /// The span of the canonical alias.
    name: Span,
    /// The net's key (see the [module docs](self)).
    key: u32,
    /// Where this net's run of the alias column ends.
    aliases_end: u32,
    /// Where this net's run of the net-terminal column ends.
    terminals_end: u32,
}

#[derive(Debug, Clone, Copy)]
struct DeviceRow {
    name: Span,
    device_type: Span,
    class: DeviceClass,
    /// Where this device's run of the device-terminal column ends.
    terminals_end: u32,
}

/// Rows `ids`' range of a column whose ranges are contiguous and
/// ascending: from where row `ids.start − 1`'s ended to where the last
/// one's does.
fn runs_of<T>(rows: &[T], ids: Range<usize>, end: impl Fn(&T) -> u32) -> Range<usize> {
    let start = |i: usize| i.checked_sub(1).map_or(0, |prev| end(&rows[prev]) as usize);
    start(ids.start)..start(ids.end)
}

/// Row `i`'s range of such a column.
fn run_of<T>(rows: &[T], i: usize, end: impl Fn(&T) -> u32) -> Range<usize> {
    runs_of(rows, i..i + 1, end)
}

/// A net or device id no row holds: a placeholder while a patch runs.
const NIL: u32 = u32::MAX;

/// An extracted or intended net list (see the [module docs](self) for
/// the layout).
///
/// Equality compares **content** — net names, aliases and terminals,
/// device names, types, classes and terminals, in order — through the
/// accessors; where the text lies in the buffer is not part of the
/// value. The name-lookup index is derived data, built lazily on the
/// first [`Netlist::net_by_name`] call — net-list construction is on the
/// incremental re-check path, where most rebuilt lists are never queried
/// by name — and a clone starts without it.
#[derive(Default)]
pub struct Netlist {
    text: String,
    /// Bytes of `text` no row names any more (see [`Netlist::patch`]).
    garbage: usize,
    nets: Vec<NetRow>,
    aliases: Vec<Span>,
    net_terminals: Vec<(DeviceId, Span)>,
    devices: Vec<DeviceRow>,
    /// `(terminal-name span, net key)`.
    device_terminals: Vec<(Span, u32)>,
    /// Per net key, the net's id (`NIL`: a key no net holds).
    key_net: Vec<u32>,
    /// The keys no net holds.
    free_keys: Vec<u32>,
    /// Alias-column positions ordered by alias text (then position).
    by_name: OnceLock<Vec<u32>>,
}

impl Clone for Netlist {
    fn clone(&self) -> Self {
        Netlist {
            text: self.text.clone(),
            garbage: self.garbage,
            nets: self.nets.clone(),
            aliases: self.aliases.clone(),
            net_terminals: self.net_terminals.clone(),
            devices: self.devices.clone(),
            device_terminals: self.device_terminals.clone(),
            key_net: self.key_net.clone(),
            free_keys: self.free_keys.clone(),
            by_name: OnceLock::new(),
        }
    }
}

impl PartialEq for Netlist {
    fn eq(&self, other: &Self) -> bool {
        self.nets.len() == other.nets.len()
            && self.devices.len() == other.devices.len()
            && self.nets().zip(other.nets()).all(|(a, b)| {
                a.name() == b.name()
                    && a.aliases().eq(b.aliases())
                    && a.terminals().eq(b.terminals())
            })
            && self.devices().zip(other.devices()).all(|(a, b)| {
                a.name() == b.name()
                    && a.device_type() == b.device_type()
                    && a.class() == b.class()
                    && a.terminals().eq(b.terminals())
            })
    }
}

impl Eq for Netlist {}

impl std::fmt::Debug for Netlist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Netlist")
            .field("nets", &self.nets().collect::<Vec<_>>())
            .field("devices", &self.devices().collect::<Vec<_>>())
            .finish()
    }
}

impl Netlist {
    fn str(&self, span: Span) -> &str {
        &self.text[span.range()]
    }

    /// A span's bytes, which compare as its text does (UTF-8 keeps the
    /// order) without the slice's checks of char boundaries.
    fn bytes(&self, span: Span) -> &[u8] {
        &self.text.as_bytes()[span.range()]
    }

    /// All nets, in canonical-name order.
    pub fn nets(&self) -> impl ExactSizeIterator<Item = NetRef<'_>> + Clone {
        (0..self.nets.len() as u32).map(move |id| NetRef { list: self, id })
    }

    /// All devices, in id order.
    pub fn devices(&self) -> impl ExactSizeIterator<Item = DeviceRef<'_>> + Clone {
        (0..self.devices.len() as u32).map(move |id| DeviceRef { list: self, id })
    }

    /// A net by id.
    ///
    /// # Panics
    ///
    /// Panics if the list has no such net.
    pub fn net(&self, id: NetId) -> NetRef<'_> {
        assert!((id.0 as usize) < self.nets.len(), "no net {id:?}");
        NetRef {
            list: self,
            id: id.0,
        }
    }

    /// A device by id.
    ///
    /// # Panics
    ///
    /// Panics if the list has no such device.
    pub fn device(&self, id: DeviceId) -> DeviceRef<'_> {
        assert!((id.0 as usize) < self.devices.len(), "no device {id:?}");
        DeviceRef {
            list: self,
            id: id.0,
        }
    }

    /// Finds the net that has `name` among its aliases (the last such
    /// net, should several carry it).
    ///
    /// The first call sorts the alias column's *positions* by alias
    /// text; every call is then a binary search over the spans. No
    /// string is copied.
    pub fn net_by_name(&self, name: &str) -> Option<NetId> {
        let alias = |k: u32| self.str(self.aliases[k as usize]);
        let order = self.by_name.get_or_init(|| {
            let mut order: Vec<u32> = (0..self.aliases.len() as u32).collect();
            order.sort_unstable_by(|&a, &b| alias(a).cmp(alias(b)).then(a.cmp(&b)));
            order
        });
        let after = order.partition_point(|&k| alias(k) <= name);
        let k = *order[..after].last().filter(|&&k| alias(k) == name)?;
        // Alias ranges are contiguous and ascending: the net holding
        // position `k` is the first whose range ends past it.
        let net = self.nets.partition_point(|row| row.aliases_end <= k);
        Some(NetId(net as u32))
    }

    /// Number of nets.
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// Number of devices.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// Number of aliases over all nets.
    pub fn alias_count(&self) -> usize {
        self.aliases.len()
    }

    /// The key of net `id` (see the [module docs](self)): the name it
    /// keeps while the list renumbers around it.
    ///
    /// # Panics
    ///
    /// Panics if the list has no such net.
    pub fn key_of(&self, id: NetId) -> u32 {
        self.nets[id.0 as usize].key
    }

    /// The net that holds `key`; `None` for a key no net holds.
    pub fn net_of_key(&self, key: u32) -> Option<NetId> {
        let id = *self.key_net.get(key as usize)?;
        (id != NIL).then_some(NetId(id))
    }

    /// Bytes of name text the list holds — on a patched list, the names
    /// it dropped too, up to as many bytes again as it names.
    pub fn text_bytes(&self) -> usize {
        self.text.len()
    }

    /// Where `len` more bytes of text would end — checked: a list whose
    /// text would pass 4 GiB stops here, its offsets do not wrap.
    fn end_after(&self, len: usize) -> u32 {
        u32::try_from(self.text.len() + len).expect("a net list holds less than 4 GiB of text")
    }

    fn push_text(&mut self, s: &str) -> Span {
        let end = self.end_after(s.len());
        self.text.push_str(s);
        Span {
            start: end - s.len() as u32,
            len: s.len() as u32,
        }
    }

    /// Brings the list up to date in place: the nets `retired`
    /// (ascending) give way to the nets of `fresh` (a device-less list
    /// in canonical order, as [`canonical_nets`] builds one), merged in
    /// by name, and the devices become `devices` — per new device, its
    /// id in this list, or `None` for a device `new_device` describes,
    /// its terminals' nets given as ids into `fresh`. Surviving devices
    /// keep their order and rows; a survivor's terminal that was on a
    /// retired net moves to the fresh net `moved_terminal(device,
    /// terminal)` names (new device id, place among its terminals).
    ///
    /// Every net this list keeps must keep its aliases and terminals —
    /// only its id and its terminals' device ids may change — which is
    /// what a splice that retires every net a changed row touches
    /// guarantees. The kept rows stay where their text lies and move in
    /// their columns as blocks, their range ends shifted; their
    /// terminals keep naming their nets' keys (the key table renumbers
    /// one entry per net), and their device ids are renumbered only when
    /// the device count moved. The rows of the fresh nets and new
    /// devices are the only ones written, and the fresh nets' terminals
    /// are counted out on their own. The dropped
    /// nets' and devices' text stays behind as garbage, until it passes
    /// the live text and the text is rewritten once through a
    /// [`NetlistWriter`], every net keeping its key.
    ///
    /// # Panics
    ///
    /// Panics if the text would pass 4 GiB.
    pub fn patch<'a, T>(
        &mut self,
        retired: &[NetId],
        fresh: &Netlist,
        devices: &[Option<usize>],
        new_device: impl FnMut(DeviceId) -> AssembleDevice<'a, T>,
        mut moved_terminal: impl FnMut(DeviceId, usize) -> NetId,
    ) -> Patched
    where
        T: IntoIterator<Item = (&'a str, NetId)>,
    {
        debug_assert!(
            retired.windows(2).all(|w| w[0] < w[1]),
            "retired nets ascend"
        );
        debug_assert!(fresh.devices.is_empty(), "fresh nets come without devices");
        let net_edits = self.net_edits(retired, fresh);
        let device_edits = self.device_edits(devices);
        for (removed, _) in &net_edits {
            let aliases = runs_of(&self.nets, removed.clone(), |row| row.aliases_end);
            self.garbage += self.aliases[aliases]
                .iter()
                .map(|span| span.len as usize)
                .sum::<usize>();
        }
        for (removed, _) in &device_edits {
            let rows = &self.devices[removed.clone()];
            let terminals = runs_of(&self.devices, removed.clone(), |row| row.terminals_end);
            self.garbage += (rows.iter())
                .map(|row| (row.name.len + row.device_type.len) as usize)
                .chain(
                    self.device_terminals[terminals]
                        .iter()
                        .map(|(name, _)| name.len as usize),
                )
                .sum::<usize>();
        }

        // The new net ids — a kept net's, and a fresh one's by its id in
        // `fresh` (the fresh nets land in their own order) — and the
        // keys that follow them: a kept net's to its new id, a fresh
        // net's taken from the free ones, a retired net's freed (its
        // terminals still name it, `NIL` now, until they move below).
        let net_segments = segments(net_edits, self.nets.len());
        let mut fresh_new = Vec::with_capacity(fresh.nets.len());
        for s in &net_segments {
            for old in s.kept.clone() {
                self.key_net[self.nets[old].key as usize] = shifted(old, s.shift) as u32;
            }
            fresh_new.extend(s.inserted.clone().map(|new| NetId(new as u32)));
        }
        let fresh_keys: Vec<u32> = (fresh_new.iter())
            .map(|new| {
                let key = self.free_keys.pop().unwrap_or_else(|| {
                    self.key_net.push(NIL);
                    self.key_net.len() as u32 - 1
                });
                self.key_net[key as usize] = new.0;
                key
            })
            .collect();
        for net in retired {
            let key = self.nets[net.0 as usize].key;
            self.key_net[key as usize] = NIL;
            self.free_keys.push(key);
        }

        // Device ids renumbered in the net-terminal column (a dropped
        // device was on retired nets only) — unless every edit of the
        // device column puts back as many rows as it takes, as a
        // re-instantiated call does, which leaves every survivor's id.
        if (device_edits.iter()).any(|(removed, count)| removed.len() != *count) {
            let mut new_of_old = vec![NIL; self.devices.len()];
            for (new, old) in devices.iter().enumerate() {
                if let Some(old) = *old {
                    new_of_old[old] = new as u32;
                }
            }
            for (device, _) in &mut self.net_terminals {
                device.0 = new_of_old[device.0 as usize];
            }
        }
        // The devices with a terminal on a fresh net, by new id: the
        // survivors that had one on a retired net (and, when no id
        // moved, the dropped devices, whose places the new ones take),
        // and the new ones.
        let mut on_retired = vec![0u64; self.devices.len().div_ceil(64)];
        for net in retired {
            let run = run_of(&self.nets, net.0 as usize, |row| row.terminals_end);
            for &(device, _) in &self.net_terminals[run] {
                if device.0 != NIL {
                    on_retired[device.0 as usize / 64] |= 1 << (device.0 % 64);
                }
            }
        }
        let device_segments = segments(device_edits, self.devices.len());
        let mut written = self.insert_devices(&device_segments, new_device, &fresh_keys);
        let mut new = vec![0u64; self.devices.len().div_ceil(64)];
        for d in device_segments.iter().flat_map(|s| s.inserted.clone()) {
            new[d / 64] |= 1 << (d % 64);
        }
        on_retired.resize(new.len(), 0);

        // Their terminals on fresh nets — a survivor's moved there now —
        // as `(net, position, device)` in device order, then by net.
        let mut in_device_order = Vec::new();
        for (word, (&survivors, &new)) in on_retired.iter().zip(&new).enumerate() {
            let mut bits = survivors | new;
            while bits != 0 {
                let d = (word * 64) as u32 + bits.trailing_zeros();
                bits &= bits - 1;
                let is_new = new & (1 << (d % 64)) != 0;
                let run = run_of(&self.devices, d as usize, |row| row.terminals_end);
                for (k, t) in run.enumerate() {
                    let key = &mut self.device_terminals[t].1;
                    let net = if self.key_net[*key as usize] == NIL {
                        let to = moved_terminal(DeviceId(d), k).0 as usize;
                        *key = fresh_keys[to];
                        written += 1;
                        fresh_new[to].0
                    } else if is_new {
                        self.key_net[*key as usize]
                    } else {
                        continue;
                    };
                    in_device_order.push((net, t as u32, d));
                }
            }
        }
        let on_fresh = by_net(&in_device_order, &fresh_new);
        written += self.insert_nets(fresh, &net_segments, &fresh_new, &fresh_keys, &on_fresh);
        debug_assert!(
            (self.device_terminals.iter()).all(|&(_, key)| self.key_net[key as usize] != NIL)
        );
        debug_assert!(self.net_terminals.iter().all(|(device, _)| device.0 != NIL));

        self.by_name = OnceLock::new();
        if self.garbage > self.text.len() - self.garbage {
            self.compact();
        }
        Patched {
            fresh: fresh_new,
            rows_written: written,
        }
    }

    /// The device half of a patch: the new devices `new_device`
    /// describes staged (their text appended, their terminals put on
    /// the keys `fresh_keys` gives their fresh nets), the device and
    /// device-terminal columns reshaped around them by
    /// `device_segments`, and the kept rows' range ends shifted.
    /// Returns the rows written.
    fn insert_devices<'a, T>(
        &mut self,
        device_segments: &[Segment],
        mut new_device: impl FnMut(DeviceId) -> AssembleDevice<'a, T>,
        fresh_keys: &[u32],
    ) -> usize
    where
        T: IntoIterator<Item = (&'a str, NetId)>,
    {
        let edits = &device_segments[..device_segments.len() - 1];
        if edits.is_empty() {
            return 0;
        }
        let (mut rows, mut terms) = (Vec::new(), Vec::new());
        let mut term_edits = Vec::with_capacity(edits.len());
        for s in edits {
            let staged = terms.len();
            for d in s.inserted.clone() {
                let device = new_device(DeviceId(d as u32));
                let name = self.push_text(device.name);
                let device_type = self.push_text(device.device_type);
                for (terminal, net) in device.terminals {
                    terms.push((self.push_text(terminal), fresh_keys[net.0 as usize]));
                }
                rows.push(DeviceRow {
                    name,
                    device_type,
                    class: device.class,
                    terminals_end: terms.len() as u32,
                });
            }
            let removed = runs_of(&self.devices, s.removed.clone(), |row| row.terminals_end);
            term_edits.push((removed, terms.len() - staged));
        }
        let term_segments = segments(term_edits, self.device_terminals.len());
        let empty = Span { start: 0, len: 0 };
        reshape(&mut self.device_terminals, &term_segments, (empty, NIL));
        let blank = DeviceRow {
            name: empty,
            device_type: empty,
            class: DeviceClass::Capacitor,
            terminals_end: 0,
        };
        reshape(&mut self.devices, device_segments, blank);
        let (mut staged_rows, mut staged_terms) = (0, 0);
        for (ds, ts) in device_segments.iter().zip(&term_segments) {
            rebase(&mut self.devices[kept_at(ds)], ts.shift, |row| {
                &mut row.terminals_end
            });
            let landed = &terms[staged_terms..staged_terms + ts.inserted.len()];
            self.device_terminals[ts.inserted.clone()].copy_from_slice(landed);
            let base = ts.inserted.start as isize - staged_terms as isize;
            let staged = &rows[staged_rows..staged_rows + ds.inserted.len()];
            for (slot, row) in self.devices[ds.inserted.clone()].iter_mut().zip(staged) {
                *slot = DeviceRow {
                    terminals_end: shifted(row.terminals_end as usize, base) as u32,
                    ..*row
                };
            }
            staged_rows += ds.inserted.len();
            staged_terms += ts.inserted.len();
        }
        rows.len() + terms.len()
    }

    /// The net half of a patch: `fresh`'s text appended in one piece,
    /// the net, alias and net-terminal columns reshaped by
    /// `net_segments`, the fresh nets' rows (keys `fresh_keys`) and
    /// aliases written, their terminals counted out of `on_fresh`
    /// (grouped by net), and the kept rows' range ends shifted. Returns
    /// the rows written.
    fn insert_nets(
        &mut self,
        fresh: &Netlist,
        net_segments: &[Segment],
        fresh_new: &[NetId],
        fresh_keys: &[u32],
        on_fresh: &[(u32, u32, u32)],
    ) -> usize {
        let base = self.end_after(fresh.text.len()) - fresh.text.len() as u32;
        self.text.push_str(&fresh.text);
        let landed = |span: Span| Span {
            start: span.start + base,
            len: span.len,
        };
        // A segment's fresh nets by their ids in `fresh`, and their
        // runs of its columns.
        let fresh_ids = |s: &Segment| {
            let first = fresh_new.partition_point(|net| (net.0 as usize) < s.inserted.start);
            first..first + s.inserted.len()
        };
        let fresh_aliases = |s: &Segment| runs_of(&fresh.nets, fresh_ids(s), |row| row.aliases_end);
        let on_fresh_below = |net: usize| on_fresh.partition_point(|&(n, ..)| (n as usize) < net);
        let edits = &net_segments[..net_segments.len() - 1];
        let alias_segments = segments(
            (edits.iter()).map(|s| {
                let removed = runs_of(&self.nets, s.removed.clone(), |row| row.aliases_end);
                (removed, fresh_aliases(s).len())
            }),
            self.aliases.len(),
        );
        let terminal_segments = segments(
            (edits.iter()).map(|s| {
                let removed = runs_of(&self.nets, s.removed.clone(), |row| row.terminals_end);
                (
                    removed,
                    on_fresh_below(s.inserted.end) - on_fresh_below(s.inserted.start),
                )
            }),
            self.net_terminals.len(),
        );
        let empty = Span { start: 0, len: 0 };
        reshape(&mut self.aliases, &alias_segments, empty);
        reshape(
            &mut self.net_terminals,
            &terminal_segments,
            (DeviceId(NIL), empty),
        );
        let blank = NetRow {
            name: empty,
            key: NIL,
            aliases_end: 0,
            terminals_end: 0,
        };
        reshape(&mut self.nets, net_segments, blank);
        for ((ns, als), ts) in net_segments
            .iter()
            .zip(&alias_segments)
            .zip(&terminal_segments)
        {
            let kept = &mut self.nets[kept_at(ns)];
            rebase(kept, als.shift, |row| &mut row.aliases_end);
            rebase(kept, ts.shift, |row| &mut row.terminals_end);
            let aliases = fresh_aliases(ns);
            for (slot, &span) in
                (self.aliases[als.inserted.clone()].iter_mut()).zip(&fresh.aliases[aliases.clone()])
            {
                *slot = landed(span);
            }
            let first_terminal = on_fresh_below(ns.inserted.start);
            for (slot, &(_, t, d)) in (self.net_terminals[ts.inserted.clone()].iter_mut())
                .zip(&on_fresh[first_terminal..])
            {
                *slot = (DeviceId(d), self.device_terminals[t as usize].0);
            }
            let alias_base = als.inserted.start as isize - aliases.start as isize;
            let terminal_base = ts.inserted.start as isize - first_terminal as isize;
            for (new, f) in ns.inserted.clone().zip(fresh_ids(ns)) {
                let row = fresh.nets[f];
                self.nets[new] = NetRow {
                    name: landed(row.name),
                    key: fresh_keys[f],
                    aliases_end: shifted(row.aliases_end as usize, alias_base) as u32,
                    terminals_end: shifted(on_fresh_below(new + 1), terminal_base) as u32,
                };
            }
        }
        fresh.aliases.len() + on_fresh.len()
    }

    /// `(removed, inserted)` edits of the net column, ascending: the
    /// `retired` nets give way, and `fresh`'s nets, taken in order, each
    /// go before the first kept net that names after it.
    fn net_edits(&self, retired: &[NetId], fresh: &Netlist) -> Vec<(Range<usize>, usize)> {
        let place_of = |f: usize| {
            let name = fresh.bytes(fresh.nets.get(f)?.name);
            Some(self.nets.partition_point(|row| self.bytes(row.name) < name))
        };
        let mut edits = Vec::new();
        let (mut retired, mut f) = (retired.iter().peekable(), 0);
        let mut fresh_at = place_of(0);
        loop {
            let next = retired.peek().map(|net| net.0 as usize);
            match (next, fresh_at) {
                (None, None) => return edits,
                (Some(at), place) if place.is_none_or(|place| at <= place) => {
                    edit_at(&mut edits, at).0.end = at + 1;
                    retired.next();
                }
                (_, place) => {
                    let at = place.expect("a fresh net is left");
                    edit_at(&mut edits, at).1 += 1;
                    f += 1;
                    fresh_at = place_of(f);
                }
            }
        }
    }

    /// `(removed, inserted)` edits of the device column, ascending, that
    /// take it to `devices` (per new device, its old id or `None`).
    fn device_edits(&self, devices: &[Option<usize>]) -> Vec<(Range<usize>, usize)> {
        let mut edits = Vec::new();
        let mut next = 0;
        for old in devices {
            match *old {
                Some(old) => {
                    debug_assert!(old >= next, "surviving devices keep their order");
                    if old > next {
                        edit_at(&mut edits, next).0.end = old;
                    }
                    next = old + 1;
                }
                None => edit_at(&mut edits, next).1 += 1,
            }
        }
        if next < self.devices.len() {
            edit_at(&mut edits, next).0.end = self.devices.len();
        }
        edits
    }

    /// The same list with its text written anew, garbage gone, and
    /// every net under its key still: the writer keys nets by id, so
    /// each row and terminal takes back the key it had, and the key
    /// table and the free keys carry over.
    fn compact(&mut self) {
        let mut list = NetlistWriter {
            list: Netlist {
                text: String::with_capacity(self.text.len() - self.garbage),
                nets: Vec::with_capacity(self.nets.len()),
                key_net: Vec::with_capacity(self.nets.len()),
                aliases: Vec::with_capacity(self.aliases.len()),
                devices: Vec::with_capacity(self.devices.len()),
                device_terminals: Vec::with_capacity(self.device_terminals.len()),
                ..Netlist::default()
            },
        };
        for net in self.nets() {
            list.net(net.aliases());
        }
        for device in self.devices() {
            list.device(device.name(), device.device_type(), device.class());
            for (name, net) in device.terminals() {
                list.terminal(name, net);
            }
        }
        let mut list = list.finish();
        for (row, old) in list.nets.iter_mut().zip(&self.nets) {
            row.key = old.key;
        }
        for (terminal, old) in (list.device_terminals.iter_mut()).zip(&self.device_terminals) {
            terminal.1 = old.1;
        }
        list.key_net = std::mem::take(&mut self.key_net);
        list.free_keys = std::mem::take(&mut self.free_keys);
        *self = list;
    }
}

/// What a [`Netlist::patch`] did: where the fresh nets went, and how
/// many rows it wrote. A kept net is found again by its key
/// ([`Netlist::net_of_key`]).
#[derive(Debug, Clone, Default)]
pub struct Patched {
    /// Per net of `fresh`, its id in the patched list — ascending: the
    /// fresh nets land in their own order.
    pub fresh: Vec<NetId>,
    /// Rows the patch wrote: the fresh nets' aliases and terminals, the
    /// new devices and their terminals, and the survivors' terminals it
    /// moved onto fresh nets. The rows it kept — moved as blocks, their
    /// ids renumbered — are not counted, nor what a compaction rewrote.
    pub rows_written: usize,
}

/// `terminals` — `(net, position, device)`, in device order — grouped
/// by net, in the order of `nets` (ascending; every terminal's net is
/// among them), each net's in device order still: a counting sort.
fn by_net(terminals: &[(u32, u32, u32)], nets: &[NetId]) -> Vec<(u32, u32, u32)> {
    let index = |net: u32| nets.partition_point(|n| n.0 < net);
    let mut next = vec![0; nets.len() + 1];
    for &(net, ..) in terminals {
        next[index(net) + 1] += 1;
    }
    for i in 0..nets.len() {
        next[i + 1] += next[i];
    }
    let mut out = vec![(0, 0, 0); terminals.len()];
    for &terminal in terminals {
        let slot = &mut next[index(terminal.0)];
        out[*slot] = terminal;
        *slot += 1;
    }
    out
}

/// The edit of `edits` (ascending `(removed, inserted)` pairs) at
/// position `at`: the last one, if no kept row lies between it and
/// `at`, else a new empty one.
fn edit_at(edits: &mut Vec<(Range<usize>, usize)>, at: usize) -> &mut (Range<usize>, usize) {
    if edits.last().is_none_or(|(removed, _)| at > removed.end) {
        edits.push((at..at, 0));
    }
    edits.last_mut().expect("an edit was just pushed")
}

/// One edit of a column under a patch: the rows `kept` (old positions)
/// before it move by `shift`, then the rows `removed` give way to the
/// rows `inserted` (new positions), which the patch writes.
#[derive(Debug, Clone)]
struct Segment {
    kept: Range<usize>,
    shift: isize,
    removed: Range<usize>,
    inserted: Range<usize>,
}

/// `at` moved by `shift`.
fn shifted(at: usize, shift: isize) -> usize {
    at.checked_add_signed(shift)
        .expect("a row lands inside its column")
}

/// Where a segment's kept rows land.
fn kept_at(s: &Segment) -> Range<usize> {
    shifted(s.kept.start, s.shift)..shifted(s.kept.end, s.shift)
}

/// The segments of a column of `len` rows under `edits` — ascending,
/// disjoint `(removed, inserted)` pairs — one per edit and one more for
/// the rows after the last, its edit empty.
fn segments(edits: impl IntoIterator<Item = (Range<usize>, usize)>, len: usize) -> Vec<Segment> {
    let edits = edits.into_iter();
    let (mut start, mut shift) = (0, 0isize);
    let mut out = Vec::with_capacity(edits.size_hint().0 + 1);
    for (removed, count) in edits.chain([(len..len, 0)]) {
        let at = shifted(removed.start, shift);
        out.push(Segment {
            kept: start..removed.start,
            shift,
            inserted: at..at + count,
            removed: removed.clone(),
        });
        shift += count as isize - removed.len() as isize;
        start = removed.end;
    }
    out
}

/// Rewrites `column` in place to `segments`' shape. Every block of kept
/// rows moves once, in one piece — the ones moving left front to back,
/// then the ones moving right back to front, so none lands on rows not
/// moved yet — and the inserted rows hold `fill` or stale rows until
/// the caller writes them.
fn reshape<T: Copy>(column: &mut Vec<T>, segments: &[Segment], fill: T) {
    let len = segments.last().map_or(column.len(), |s| s.inserted.end);
    if len > column.len() {
        column.resize(len, fill);
    }
    for s in segments.iter().filter(|s| s.shift < 0) {
        column.copy_within(s.kept.clone(), kept_at(s).start);
    }
    for s in segments.iter().rev().filter(|s| s.shift > 0) {
        column.copy_within(s.kept.clone(), kept_at(s).start);
    }
    column.truncate(len);
}

/// Moves the range end `end` picks out of every row by `shift`.
fn rebase<T>(rows: &mut [T], shift: isize, end: impl Fn(&mut T) -> &mut u32) {
    if shift != 0 {
        for row in rows {
            let end = end(row);
            *end = shifted(*end as usize, shift) as u32;
        }
    }
}

/// One net of a [`Netlist`]: its canonical name (the shortest, then
/// lexicographically smallest alias, which favours short top-level names
/// like `VDD` over deep `a.b.c` paths), all its aliases (the dot-notation
/// identifiers that were merged into it), and the device terminals on it.
#[derive(Clone, Copy)]
pub struct NetRef<'a> {
    list: &'a Netlist,
    id: u32,
}

impl<'a> NetRef<'a> {
    fn row(self) -> &'a NetRow {
        &self.list.nets[self.id as usize]
    }

    /// The net's id.
    pub fn id(self) -> NetId {
        NetId(self.id)
    }

    /// Canonical name.
    pub fn name(self) -> &'a str {
        self.list.str(self.row().name)
    }

    /// All identifiers merged into this net, sorted.
    pub fn aliases(self) -> impl ExactSizeIterator<Item = &'a str> + Clone {
        let list = self.list;
        let run = run_of(&list.nets, self.id as usize, |row| row.aliases_end);
        list.aliases[run].iter().map(move |&span| list.str(span))
    }

    /// `(device, terminal-name)` pairs attached to this net, in device
    /// order.
    pub fn terminals(self) -> impl ExactSizeIterator<Item = (DeviceId, &'a str)> + Clone {
        let list = self.list;
        let run = run_of(&list.nets, self.id as usize, |row| row.terminals_end);
        (list.net_terminals[run].iter()).map(move |&(device, name)| (device, list.str(name)))
    }
}

impl std::fmt::Debug for NetRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Net")
            .field("name", &self.name())
            .field("aliases", &self.aliases().collect::<Vec<_>>())
            .field("terminals", &self.terminals().collect::<Vec<_>>())
            .finish()
    }
}

/// One device instance of a [`Netlist`] with its typed terminals.
#[derive(Clone, Copy)]
pub struct DeviceRef<'a> {
    list: &'a Netlist,
    id: u32,
}

impl<'a> DeviceRef<'a> {
    fn row(self) -> &'a DeviceRow {
        &self.list.devices[self.id as usize]
    }

    /// The device's id.
    pub fn id(self) -> DeviceId {
        DeviceId(self.id)
    }

    /// Instance path (dot notation).
    pub fn name(self) -> &'a str {
        self.list.str(self.row().name)
    }

    /// The `9D` type name (e.g. `NMOS_ENH`).
    pub fn device_type(self) -> &'a str {
        self.list.str(self.row().device_type)
    }

    /// Electrical class.
    pub fn class(self) -> DeviceClass {
        self.row().class
    }

    /// `(terminal-name, net)` pairs, in terminal order.
    pub fn terminals(self) -> impl ExactSizeIterator<Item = (&'a str, NetId)> + Clone {
        let list = self.list;
        let run = run_of(&list.devices, self.id as usize, |row| row.terminals_end);
        (list.device_terminals[run].iter())
            .map(move |&(name, key)| (list.str(name), NetId(list.key_net[key as usize])))
    }
}

impl std::fmt::Debug for DeviceRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Device")
            .field("name", &self.name())
            .field("device_type", &self.device_type())
            .field("class", &self.class())
            .field("terminals", &self.terminals().collect::<Vec<_>>())
            .finish()
    }
}

/// True if alias `a` names a net ahead of alias `b`: the shorter wins,
/// then the lexicographically smaller.
fn names_ahead_of(a: &str, b: &str) -> bool {
    (a.len(), a) < (b.len(), b)
}

/// The from-scratch way to write a [`Netlist`]: append its nets, then
/// its devices, **in canonical order**, and [`NetlistWriter::finish`].
///
/// The caller owes the order — nets ascending by canonical name, each
/// net's aliases sorted, devices in id order, every terminal's net
/// already appended ([`assemble_netlist`] is the reference a written
/// list must equal). The writer owes the layout: each item's text is
/// appended as the item is; a net's name is picked here (the alias that
/// names ahead of all the others); and the net-terminal column is
/// derived at the end. An edit session's list, once written, is kept
/// up to date by [`Netlist::patch`] instead.
#[derive(Debug, Default)]
pub struct NetlistWriter {
    list: Netlist,
}

impl NetlistWriter {
    /// A writer of an empty list.
    pub fn new() -> Self {
        NetlistWriter::default()
    }

    /// Makes room for `bytes` more of text.
    pub fn reserve_text(&mut self, bytes: usize) {
        self.list.text.reserve(bytes);
    }

    /// Appends a net of the given aliases (at least one; sorted).
    pub fn net<'a>(&mut self, aliases: impl IntoIterator<Item = &'a str>) -> NetId {
        debug_assert!(self.list.devices.is_empty(), "nets come before devices");
        let mut name: Option<(Span, &str)> = None;
        for alias in aliases {
            let span = self.list.push_text(alias);
            self.list.aliases.push(span);
            if name.is_none_or(|(_, best)| names_ahead_of(alias, best)) {
                name = Some((span, alias));
            }
        }
        let (name, _) = name.expect("a net has at least one alias");
        let id = self.list.nets.len() as u32;
        self.list.nets.push(NetRow {
            name,
            key: id,
            aliases_end: self.list.aliases.len() as u32,
            terminals_end: 0,
        });
        self.list.key_net.push(id);
        NetId(id)
    }

    /// Appends a device; its terminals follow through
    /// [`NetlistWriter::terminal`].
    pub fn device(&mut self, name: &str, device_type: &str, class: DeviceClass) -> DeviceId {
        let row = DeviceRow {
            name: self.list.push_text(name),
            device_type: self.list.push_text(device_type),
            class,
            terminals_end: self.list.device_terminals.len() as u32,
        };
        self.list.devices.push(row);
        DeviceId(self.list.devices.len() as u32 - 1)
    }

    /// Appends a terminal, on `net`, to the device appended last.
    pub fn terminal(&mut self, name: &str, net: NetId) {
        let name = self.list.push_text(name);
        // A written list's keys are its ids.
        self.list.device_terminals.push((name, net.0));
        let device = self.list.devices.last_mut();
        device.expect("a terminal follows its device").terminals_end += 1;
    }

    /// The written list, its net-terminal column derived from the device
    /// terminals by a counting sort — which is what puts every net's
    /// terminals in device order.
    ///
    /// # Panics
    ///
    /// Panics if a terminal names a net that was never appended.
    pub fn finish(self) -> Netlist {
        let mut list = self.list;
        // A written list's keys are its ids.
        let mut next = vec![0u32; list.nets.len() + 1];
        for &(_, net) in &list.device_terminals {
            next[net as usize + 1] += 1;
        }
        for net in 0..list.nets.len() {
            next[net + 1] += next[net];
            list.nets[net].terminals_end = next[net + 1];
        }
        // `next[net]` is now where net `net`'s run starts, and steps
        // through it as the terminals land.
        let empty = Span { start: 0, len: 0 };
        list.net_terminals = vec![(DeviceId(0), empty); list.device_terminals.len()];
        for device in 0..list.devices.len() {
            let run = run_of(&list.devices, device, |row| row.terminals_end);
            for &(name, net) in &list.device_terminals[run] {
                let slot = &mut next[net as usize];
                list.net_terminals[*slot as usize] = (DeviceId(device as u32), name);
                *slot += 1;
            }
        }
        list
    }
}

/// A device staged in the builder: path, type, class, and terminal
/// `(name, interned net key)` pairs.
type StagedDevice = (String, String, DeviceClass, Vec<(String, u32)>);

/// A device staged for [`assemble_netlist`], borrowing its strings;
/// `terminals` is anything that yields its `(terminal-name, node)`
/// pairs — nothing is collected per device.
#[derive(Debug, Clone)]
pub struct AssembleDevice<'a, T> {
    /// Instance path (dot notation).
    pub name: &'a str,
    /// The `9D` type name.
    pub device_type: &'a str,
    /// Electrical class.
    pub class: DeviceClass,
    /// `(terminal-name, node)` pairs.
    pub terminals: T,
}

/// The canonical nets of a node graph as a device-less [`Netlist`], plus
/// the per-node net resolution (aligned with `nodes`): the connected
/// components, each named by its shortest (then lexicographically
/// smallest) alias, aliases sorted, nets ordered by canonical name.
///
/// This is the one place the ordering rules live. [`assemble_netlist`]
/// runs it over the whole graph; the edit session's splice runs it over
/// the affected components only and merges the result into the nets it
/// kept ([`Netlist::patch`]). Node ids may be
/// sparse — every edge endpoint must appear in `nodes`.
pub fn canonical_nets(nodes: &[(u32, &str)], edges: &[(u32, u32)]) -> (Netlist, Vec<NetId>) {
    let (nets, node_nets, _) = components(nodes, edges);
    (nets.finish(), node_nets)
}

/// [`canonical_nets`], still open for devices, plus the dense node-id →
/// position-in-`nodes` table it resolved edges through (`u32::MAX` for
/// absent ids).
fn components(
    nodes: &[(u32, &str)],
    edges: &[(u32, u32)],
) -> (NetlistWriter, Vec<NetId>, Vec<u32>) {
    // Dense remap so union-find stays compact under sparse node ids.
    let max_node = nodes.iter().map(|&(n, _)| n).max().map_or(0, |n| n + 1);
    let mut dense: Vec<u32> = vec![u32::MAX; max_node as usize];
    let mut uf = UnionFind::with_nodes(nodes.len());
    for (at, (node, _)) in nodes.iter().enumerate() {
        dense[*node as usize] = at as u32;
    }
    for (a, b) in edges {
        uf.union(dense[*a as usize], dense[*b as usize]);
    }

    // Group the nodes by component root with a counting sort: `members`
    // holds node positions, root `r`'s between `start[r]` and
    // `start[r + 1]`.
    let roots: Vec<u32> = (0..nodes.len() as u32).map(|at| uf.find(at)).collect();
    let mut start = vec![0u32; nodes.len() + 1];
    for &root in &roots {
        start[root as usize + 1] += 1;
    }
    for root in 0..nodes.len() {
        start[root + 1] += start[root];
    }
    let mut next = start.clone();
    let mut members = vec![0u32; nodes.len()];
    for (at, &root) in roots.iter().enumerate() {
        let slot = &mut next[root as usize];
        members[*slot as usize] = at as u32;
        *slot += 1;
    }
    let name = |at: u32| nodes[at as usize].1;
    let group = |root: u32| start[root as usize] as usize..start[root as usize + 1] as usize;

    // Deterministic net order: by canonical (shortest, then smallest)
    // alias.
    let mut order: Vec<(&str, u32)> = (0..nodes.len() as u32)
        .filter(|&root| !group(root).is_empty())
        .map(|root| {
            let aliases = members[group(root)].iter().map(|&at| name(at));
            let canon = aliases.reduce(|best, alias| match names_ahead_of(alias, best) {
                true => alias,
                false => best,
            });
            (canon.expect("group is non-empty"), root)
        })
        .collect();
    order.sort_unstable_by(|a, b| a.0.cmp(b.0));

    let mut nets = NetlistWriter::new();
    nets.reserve_text(nodes.iter().map(|(_, name)| name.len()).sum());
    nets.list.aliases.reserve(nodes.len());
    nets.list.nets.reserve(order.len());
    nets.list.key_net.reserve(order.len());
    let mut root_to_net: Vec<NetId> = vec![NetId(u32::MAX); nodes.len()];
    for (_, root) in order {
        let aliases = &mut members[group(root)];
        aliases.sort_unstable_by(|&a, &b| name(a).cmp(name(b)));
        root_to_net[root as usize] = nets.net(aliases.iter().map(|&at| name(at)));
    }

    let node_nets = roots.iter().map(|&root| root_to_net[root as usize]);
    (nets, node_nets.collect(), dense)
}

/// Assembles a canonical [`Netlist`] from an explicit node/edge/device
/// graph, returning it together with the per-node net resolution
/// (aligned with the `nodes` slice).
///
/// This is the single **from-scratch** canonicalisation:
/// [`NetlistBuilder::finish`] is a thin wrapper over it, and the batch
/// engine, an edit session's open and its full-rebuild fallback all
/// call it with a persistently interned graph. A session's ordinary
/// edits splice instead (`diic_core::netgen::NetIndex::splice`: the
/// same [`canonical_nets`] over the affected components, patched into
/// the session's list in place by [`Netlist::patch`]) and in debug
/// builds assert the spliced list equal to this function's — a pure
/// function of (live nodes, connectivity, devices) — which is why a
/// patched session net list is byte-identical to a from-scratch build.
///
/// Canonical form: nets are the connected components of the node graph;
/// a net's canonical name is its shortest (then lexicographically
/// smallest) alias; aliases are sorted; nets are ordered by canonical
/// name; terminals appear in device order. Node ids may be sparse —
/// edge/terminal endpoints must all appear in `nodes`.
pub fn assemble_netlist<'a, T>(
    nodes: &[(u32, &str)],
    edges: &[(u32, u32)],
    devices: impl IntoIterator<Item = AssembleDevice<'a, T>>,
) -> (Netlist, Vec<NetId>)
where
    T: IntoIterator<Item = (&'a str, u32)>,
{
    let (mut list, node_nets, dense) = components(nodes, edges);
    for device in devices {
        list.device(device.name, device.device_type, device.class);
        for (name, node) in device.terminals {
            list.terminal(name, node_nets[dense[node as usize] as usize]);
        }
    }
    (list.finish(), node_nets)
}

/// Builder: intern net keys, merge them as connections are discovered, add
/// devices, then [`NetlistBuilder::finish`] into a canonical [`Netlist`].
#[derive(Debug, Clone, Default)]
pub struct NetlistBuilder {
    uf: UnionFind,
    keys: HashMap<String, u32>,
    names: Vec<String>,
    edges: Vec<(u32, u32)>,
    devices: Vec<StagedDevice>,
}

impl NetlistBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        NetlistBuilder::default()
    }

    /// Interns a net identifier, returning its node.
    pub fn node(&mut self, key: &str) -> u32 {
        if let Some(&n) = self.keys.get(key) {
            return n;
        }
        let n = self.uf.make();
        debug_assert_eq!(n as usize, self.names.len());
        self.keys.insert(key.to_string(), n);
        self.names.push(key.to_string());
        n
    }

    /// Records that two net identifiers are connected (merges their nets).
    pub fn connect(&mut self, a: &str, b: &str) {
        let na = self.node(a);
        let nb = self.node(b);
        self.edges.push((na, nb));
        self.uf.union(na, nb);
    }

    /// True if two identifiers are currently on the same net.
    pub fn connected(&mut self, a: &str, b: &str) -> bool {
        let na = self.node(a);
        let nb = self.node(b);
        self.uf.same(na, nb)
    }

    /// Adds a device with `(terminal-name, net-key)` pairs.
    pub fn add_device(
        &mut self,
        name: &str,
        device_type: &str,
        class: DeviceClass,
        terminals: &[(&str, &str)],
    ) {
        let terms: Vec<(String, u32)> = terminals
            .iter()
            .map(|(t, key)| (t.to_string(), self.node(key)))
            .collect();
        self.devices
            .push((name.to_string(), device_type.to_string(), class, terms));
    }

    /// Produces the canonical net list (through [`assemble_netlist`],
    /// the same path the incremental checker's patched graph takes).
    pub fn finish(self) -> Netlist {
        let nodes: Vec<(u32, &str)> = self
            .names
            .iter()
            .enumerate()
            .map(|(i, n)| (i as u32, n.as_str()))
            .collect();
        let devices =
            (self.devices.iter()).map(|(name, device_type, class, terms)| AssembleDevice {
                name,
                device_type,
                class: *class,
                terminals: terms.iter().map(|(t, n)| (t.as_str(), *n)),
            });
        assemble_netlist(&nodes, &self.edges, devices).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inverter_netlist() -> Netlist {
        let mut b = NetlistBuilder::new();
        b.add_device(
            "pullup",
            "NMOS_DEP",
            DeviceClass::MosDepletion,
            &[("G", "out"), ("S", "out"), ("D", "VDD")],
        );
        b.add_device(
            "pulldown",
            "NMOS_ENH",
            DeviceClass::MosEnhancement,
            &[("G", "in"), ("S", "GND"), ("D", "out")],
        );
        b.finish()
    }

    #[test]
    fn build_inverter() {
        let n = inverter_netlist();
        assert_eq!(n.device_count(), 2);
        assert_eq!(n.net_count(), 4); // VDD, GND, in, out
        let out = n.net_by_name("out").unwrap();
        assert_eq!(n.net(out).terminals().len(), 3);
    }

    #[test]
    fn connect_merges_aliases() {
        let mut b = NetlistBuilder::new();
        b.connect("a.out", "b.in");
        b.connect("b.in", "x");
        let n = b.finish();
        assert_eq!(n.net_count(), 1);
        let id = n.net_by_name("x").unwrap();
        assert_eq!(n.net_by_name("a.out"), Some(id));
        assert_eq!(n.net(id).name(), "x"); // shortest alias wins
        assert!(n.net(id).aliases().eq(["a.out", "b.in", "x"]));
    }

    #[test]
    fn canonical_name_prefers_short_toplevel() {
        let mut b = NetlistBuilder::new();
        b.connect("i3.i2.vdd", "VDD");
        let n = b.finish();
        assert_eq!(n.net(NetId(0)).name(), "VDD");
    }

    #[test]
    fn device_terminals_resolve_through_merges() {
        let mut b = NetlistBuilder::new();
        b.add_device(
            "t1",
            "NMOS_ENH",
            DeviceClass::MosEnhancement,
            &[("G", "g1"), ("S", "s1"), ("D", "d1")],
        );
        b.connect("d1", "wire");
        b.connect("wire", "g2");
        b.add_device(
            "t2",
            "NMOS_ENH",
            DeviceClass::MosEnhancement,
            &[("G", "g2"), ("S", "s2"), ("D", "d2")],
        );
        let n = b.finish();
        let d1 = n.net_by_name("d1").unwrap();
        let g2 = n.net_by_name("g2").unwrap();
        assert_eq!(d1, g2);
        // Both devices appear on the shared net.
        let net = n.net(d1);
        assert!(net.terminals().eq([(DeviceId(0), "D"), (DeviceId(1), "G")]));
    }

    #[test]
    fn patching_reuses_the_keys_it_frees() {
        // A net retired and built fresh again, round after round, takes
        // back a key the rounds before freed: the key table stays the
        // size of the list, plus the keys one patch takes.
        let mut list = inverter_netlist();
        let nets = list.net_count();
        for _ in 0..100 {
            let out = list.net_by_name("out").expect("an inverter has an output");
            let (fresh, _) = canonical_nets(&[(0, "out")], &[]);
            let devices: Vec<Option<usize>> = (0..list.device_count()).map(Some).collect();
            list.patch(
                &[out],
                &fresh,
                &devices,
                |_| -> AssembleDevice<'_, [(&str, NetId); 0]> { unreachable!("no new device") },
                |_, _| NetId(0),
            );
            assert!(
                list.key_net.len() <= nets + 1,
                "{} keys",
                list.key_net.len()
            );
        }
        assert_eq!(list, inverter_netlist());
    }

    #[test]
    fn deterministic_order() {
        let a = inverter_netlist();
        let b = inverter_netlist();
        assert_eq!(a, b);
    }
}
