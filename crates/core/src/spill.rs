//! On-disk report runs: the spill-file format and the k-way merge
//! behind [`SpillingSink`](crate::engine::SpillingSink).
//!
//! The bounded-memory report story so far
//! ([`StreamingSink`](crate::engine::StreamingSink)) flushes
//! canonically sorted *chunks*,
//! so the writer sees a partially ordered report and a fully sorted one
//! still has to be materialised somewhere. This module removes that
//! last O(chip) term: each chunk becomes a **sorted run** appended to
//! one unlinked temp file, and at finish a k-way merge (binary heap
//! over per-run cursors, ordered by the same canonical key as
//! [`crate::report::canonical_sort`]) streams the *fully sorted* report
//! to the output writer — no point in the run ever holds more than one
//! budget of violations plus O(runs) merge cursors in memory.
//!
//! ## Run-file format
//!
//! A [`SpillFile`] is a single anonymous temp file holding every run of
//! one report back to back; a run is a contiguous segment of
//! length-prefixed records, tracked as `(offset, bytes, records)` in
//! memory:
//!
//! ```text
//! record  := len: u32 LE, payload[len]
//! payload := stage: u8 (report stage rank)
//!            kind: u8 tag, kind fields (strings len-prefixed, coords i64 LE)
//!            location: u8 flag [, x1 y1 x2 y2: i64 LE]
//!            context: u32 LE len, utf8 bytes
//! ```
//!
//! Records are **self-contained**: every string is copied into the
//! record, so merging needs no chip view, interner, or layout alive —
//! a run written during the pipeline can be merged after every other
//! artefact of the check has been dropped. Decoding validates tags and
//! UTF-8 and surfaces corruption as [`std::io::ErrorKind::InvalidData`]
//! rather than panicking: run files are I/O, and I/O is allowed to
//! fail.
//!
//! ## Merge invariants
//!
//! * Every run is canonically sorted when appended
//!   ([`SpillFile::append_run`] debug-asserts it); the heap pops
//!   records in global canonical order, so the merged stream equals
//!   [`canonical_sort`](crate::report::canonical_sort) of the
//!   concatenation byte for byte.
//! * Ties (byte-identical violations) are broken by run index, which
//!   renders the merge deterministic; since equal keys are equal debug
//!   renderings of equal values, tie order cannot change the output
//!   bytes.
//! * Cursors read through one shared file handle with an explicit seek
//!   per buffer refill (the merge is single-threaded), so a thousand
//!   runs cost one file descriptor, not a thousand.
//!
//! The temp file is unlinked immediately after creation on Unix (the
//! kernel reclaims it even if the process aborts mid-merge); elsewhere
//! it is deleted on drop.

use crate::report::stage_rank;
use crate::violations::{CheckStage, Violation, ViolationKind};
use diic_geom::Rect;
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

// ---------------------------------------------------------------------
// Record codec
// ---------------------------------------------------------------------

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn stage_tag(stage: CheckStage) -> u8 {
    stage_rank(stage) as u8
}

fn stage_from_tag(tag: u8) -> io::Result<CheckStage> {
    Ok(match tag {
        0 => CheckStage::Elements,
        1 => CheckStage::PrimitiveSymbols,
        2 => CheckStage::Connections,
        3 => CheckStage::NetList,
        4 => CheckStage::Interactions,
        5 => CheckStage::Composition,
        other => return Err(bad_data(format!("unknown stage tag {other}"))),
    })
}

fn erc_tag(rule: diic_netlist::ErcRule) -> u8 {
    use diic_netlist::ErcRule::*;
    match rule {
        DanglingNet => 0,
        PowerGroundShort => 1,
        BusToRail => 2,
        DepletionToGround => 3,
    }
}

fn erc_from_tag(tag: u8) -> io::Result<diic_netlist::ErcRule> {
    use diic_netlist::ErcRule::*;
    Ok(match tag {
        0 => DanglingNet,
        1 => PowerGroundShort,
        2 => BusToRail,
        3 => DepletionToGround,
        other => return Err(bad_data(format!("unknown ERC rule tag {other}"))),
    })
}

fn bad_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("spill record: {msg}"))
}

/// Appends one length-prefixed record for `v` to `buf`.
pub fn encode_violation(v: &Violation, buf: &mut Vec<u8>) {
    let len_at = buf.len();
    put_u32(buf, 0); // patched below
    buf.push(stage_tag(v.stage));
    use ViolationKind::*;
    match &v.kind {
        Width {
            layer,
            measured,
            required,
        } => {
            buf.push(0);
            put_str(buf, layer);
            put_i64(buf, *measured);
            put_i64(buf, *required);
        }
        Spacing {
            layer_a,
            layer_b,
            measured,
            required,
            same_net,
        } => {
            buf.push(1);
            put_str(buf, layer_a);
            put_str(buf, layer_b);
            put_i64(buf, *measured);
            put_i64(buf, *required);
            buf.push(*same_net as u8);
        }
        IllegalConnection { layer } => {
            buf.push(2);
            put_str(buf, layer);
        }
        ImpliedDevice { layer_a, layer_b } => {
            buf.push(3);
            put_str(buf, layer_a);
            put_str(buf, layer_b);
        }
        DeviceOnlyLayer { layer } => {
            buf.push(4);
            put_str(buf, layer);
        }
        NonManhattan => buf.push(5),
        UnknownLayer { cif_name } => {
            buf.push(6);
            put_str(buf, cif_name);
        }
        UnknownDeviceType { type_name } => {
            buf.push(7);
            put_str(buf, type_name);
        }
        DeviceRule { device_type, rule } => {
            buf.push(8);
            put_str(buf, device_type);
            put_str(buf, rule);
        }
        TerminalOutsideDevice { terminal } => {
            buf.push(9);
            put_str(buf, terminal);
        }
        Erc { rule, detail } => {
            buf.push(10);
            buf.push(erc_tag(*rule));
            put_str(buf, detail);
        }
        NetlistMismatch { detail } => {
            buf.push(11);
            put_str(buf, detail);
        }
        MaskOddCycle {
            layer,
            measured,
            required,
            cycle,
        } => {
            buf.push(12);
            put_str(buf, layer);
            put_i64(buf, *measured);
            put_i64(buf, *required);
            put_u32(buf, *cycle as u32);
        }
    }
    match &v.location {
        None => buf.push(0),
        Some(r) => {
            buf.push(1);
            put_i64(buf, r.x1);
            put_i64(buf, r.y1);
            put_i64(buf, r.x2);
            put_i64(buf, r.y2);
        }
    }
    put_str(buf, &v.context);
    let payload = (buf.len() - len_at - 4) as u32;
    buf[len_at..len_at + 4].copy_from_slice(&payload.to_le_bytes());
}

/// A bounds-checked reader over one record payload.
struct Payload<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Payload<'a> {
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| bad_data("truncated payload".into()))?;
        let slice = &self.bytes[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> io::Result<u32> {
        // invariant: take(4) returned exactly 4 bytes.
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn i64(&mut self) -> io::Result<i64> {
        // invariant: take(8) returned exactly 8 bytes.
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// A flag byte: 0 or 1, nothing else (a record has one encoding).
    fn flag(&mut self) -> io::Result<bool> {
        match self.u8()? {
            b @ (0 | 1) => Ok(b == 1),
            other => Err(bad_data(format!("bad flag byte {other}"))),
        }
    }

    fn string(&mut self) -> io::Result<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| bad_data("string not UTF-8".into()))
    }

    fn finish(self) -> io::Result<()> {
        if self.at == self.bytes.len() {
            Ok(())
        } else {
            Err(bad_data("trailing bytes in record".into()))
        }
    }
}

/// Decodes one record payload (everything after the length prefix).
pub fn decode_violation(payload: &[u8]) -> io::Result<Violation> {
    let mut p = Payload {
        bytes: payload,
        at: 0,
    };
    let stage = stage_from_tag(p.u8()?)?;
    use ViolationKind::*;
    let kind = match p.u8()? {
        0 => Width {
            layer: p.string()?,
            measured: p.i64()?,
            required: p.i64()?,
        },
        1 => Spacing {
            layer_a: p.string()?,
            layer_b: p.string()?,
            measured: p.i64()?,
            required: p.i64()?,
            same_net: p.flag()?,
        },
        2 => IllegalConnection { layer: p.string()? },
        3 => ImpliedDevice {
            layer_a: p.string()?,
            layer_b: p.string()?,
        },
        4 => DeviceOnlyLayer { layer: p.string()? },
        5 => NonManhattan,
        6 => UnknownLayer {
            cif_name: p.string()?,
        },
        7 => UnknownDeviceType {
            type_name: p.string()?,
        },
        8 => DeviceRule {
            device_type: p.string()?,
            rule: p.string()?,
        },
        9 => TerminalOutsideDevice {
            terminal: p.string()?,
        },
        10 => Erc {
            rule: erc_from_tag(p.u8()?)?,
            detail: p.string()?,
        },
        11 => NetlistMismatch {
            detail: p.string()?,
        },
        12 => MaskOddCycle {
            layer: p.string()?,
            measured: p.i64()?,
            required: p.i64()?,
            cycle: p.u32()? as usize,
        },
        other => return Err(bad_data(format!("unknown kind tag {other}"))),
    };
    let location = match p.flag()? {
        false => None,
        true => {
            let (x1, y1, x2, y2) = (p.i64()?, p.i64()?, p.i64()?, p.i64()?);
            // Written in order: `Rect::new` would hide a corrupt corner.
            if x1 > x2 || y1 > y2 {
                return Err(bad_data("location corners out of order".into()));
            }
            Some(Rect::new(x1, y1, x2, y2))
        }
    };
    let context = p.string()?;
    p.finish()?;
    Ok(Violation {
        stage,
        kind,
        location,
        context,
    })
}

// ---------------------------------------------------------------------
// Spill file: one temp file, many sorted runs
// ---------------------------------------------------------------------

/// One run inside the spill file: a contiguous segment of records.
#[derive(Debug, Clone, Copy)]
struct Segment {
    offset: u64,
    bytes: u64,
    records: u64,
}

/// Sequence number distinguishing concurrent spill files of one process
/// (the PID alone is not enough: parallel tests spill at once).
static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

/// The on-disk half of a spilling report: an anonymous temp file whose
/// contents are canonically sorted runs, plus the in-memory segment
/// table. Created lazily by
/// [`SpillingSink`](crate::engine::SpillingSink) on first spill.
#[derive(Debug)]
pub struct SpillFile {
    file: File,
    /// Kept only on platforms where the file cannot be unlinked while
    /// open; deleted on drop.
    path: Option<PathBuf>,
    segments: Vec<Segment>,
    tail: u64,
}

impl SpillFile {
    /// Creates the spill file in `dir` (defaults to
    /// [`std::env::temp_dir`]). On Unix the path is unlinked
    /// immediately, so the disk space is reclaimed even if the process
    /// dies mid-run.
    pub fn create_in(dir: Option<&std::path::Path>) -> io::Result<SpillFile> {
        let dir = dir
            .map(|d| d.to_path_buf())
            .unwrap_or_else(std::env::temp_dir);
        let seq = SPILL_SEQ.fetch_add(1, Ordering::Relaxed);
        let name = format!("diic-spill-{}-{}.run", std::process::id(), seq);
        let path = dir.join(name);
        let file = File::options()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)?;
        let path = if cfg!(unix) {
            // invariant: on Unix an open file survives unlinking — the
            // handle stays valid and the kernel reclaims the blocks
            // when it closes, crash included.
            std::fs::remove_file(&path)?;
            None
        } else {
            Some(path)
        };
        Ok(SpillFile {
            file,
            path,
            segments: Vec::new(),
            tail: 0,
        })
    }

    /// Appends one canonically sorted chunk as a new run (one
    /// `write_all` of the whole encoded segment).
    pub fn append_run(&mut self, sorted: &[Violation]) -> io::Result<()> {
        debug_assert!(
            sorted
                .windows(2)
                .all(|w| crate::report::canonical_key(&w[0]) <= crate::report::canonical_key(&w[1])),
            "spill runs must be canonically sorted"
        );
        if sorted.is_empty() {
            return Ok(());
        }
        let mut buf = Vec::with_capacity(sorted.len() * 96);
        for v in sorted {
            encode_violation(v, &mut buf);
        }
        self.file.seek(SeekFrom::Start(self.tail))?;
        self.file.write_all(&buf)?;
        self.segments.push(Segment {
            offset: self.tail,
            bytes: buf.len() as u64,
            records: sorted.len() as u64,
        });
        self.tail += buf.len() as u64;
        Ok(())
    }

    /// Number of runs written so far.
    pub fn runs(&self) -> usize {
        self.segments.len()
    }

    /// Total bytes spilled so far.
    pub fn bytes(&self) -> u64 {
        self.tail
    }

    /// Total records spilled so far.
    pub fn records(&self) -> u64 {
        self.segments.iter().map(|s| s.records).sum()
    }

    /// Streams every spilled violation to `emit` in **global canonical
    /// order** — the k-way merge. Consumes the segment table. The
    /// callback receives the violation *and* its debug rendering (the
    /// canonical sort key, which the merge has already paid for — the
    /// report line format), and may return a writer error to abort the
    /// merge.
    pub fn merge(
        &mut self,
        emit: &mut dyn FnMut(Violation, String) -> io::Result<()>,
    ) -> io::Result<()> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let segments = std::mem::take(&mut self.segments);
        let mut cursors: Vec<RunCursor> = segments.iter().map(|s| RunCursor::new(*s)).collect();

        // Heap entries carry the canonical key (stage rank + debug
        // rendering) so each record is rendered exactly once; the run
        // index breaks ties deterministically.
        let mut heap: BinaryHeap<Reverse<(usize, String, usize)>> =
            BinaryHeap::with_capacity(cursors.len());
        let mut staged: Vec<Option<Violation>> = Vec::with_capacity(cursors.len());
        for (i, c) in cursors.iter_mut().enumerate() {
            staged.push(match c.next(&self.file)? {
                Some(v) => {
                    heap.push(Reverse((stage_rank(v.stage), format!("{v:?}"), i)));
                    Some(v)
                }
                None => None,
            });
        }
        while let Some(Reverse((_, line, i))) = heap.pop() {
            // invariant: a cursor enters the heap only right after
            // staging its next record.
            let v = staged[i].take().expect("heap entry has a staged record");
            emit(v, line)?;
            if let Some(next) = cursors[i].next(&self.file)? {
                heap.push(Reverse((stage_rank(next.stage), format!("{next:?}"), i)));
                staged[i] = Some(next);
            }
        }
        Ok(())
    }
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        if let Some(path) = &self.path {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Read cursor over one segment, buffering through the shared file
/// handle (explicit seek per refill — the merge is single-threaded, so
/// one descriptor serves every run).
struct RunCursor {
    next_at: u64,
    end: u64,
    buf: Vec<u8>,
    off: usize,
}

/// Refill granularity for run cursors (records larger than this are
/// read with an exactly sized request).
const CURSOR_BUF: usize = 64 * 1024;

impl RunCursor {
    fn new(seg: Segment) -> RunCursor {
        RunCursor {
            next_at: seg.offset,
            end: seg.offset + seg.bytes,
            buf: Vec::new(),
            off: 0,
        }
    }

    /// Ensures at least `need` unread bytes are buffered.
    fn fill(&mut self, file: &File, need: usize) -> io::Result<()> {
        let have = self.buf.len() - self.off;
        if have >= need {
            return Ok(());
        }
        self.buf.drain(..self.off);
        self.off = 0;
        let remaining = (self.end - self.next_at) as usize;
        let want = need.max(CURSOR_BUF).min(self.buf.len() + remaining);
        if self.buf.len() >= want {
            return Err(bad_data("record extends past its segment".into()));
        }
        let mut chunk = vec![0u8; want - self.buf.len()];
        let mut f = file;
        f.seek(SeekFrom::Start(self.next_at))?;
        f.read_exact(&mut chunk)?;
        self.next_at += chunk.len() as u64;
        self.buf.extend_from_slice(&chunk);
        if self.buf.len() - self.off < need {
            return Err(bad_data("truncated segment".into()));
        }
        Ok(())
    }

    /// Decodes the next record, or `None` at the end of the segment.
    fn next(&mut self, file: &File) -> io::Result<Option<Violation>> {
        let unread = (self.end - self.next_at) as usize + (self.buf.len() - self.off);
        if unread == 0 {
            return Ok(None);
        }
        self.fill(file, 4)?;
        // invariant: fill errored unless 4 bytes are now buffered.
        let len =
            u32::from_le_bytes(self.buf[self.off..self.off + 4].try_into().expect("4")) as usize;
        self.off += 4;
        self.fill(file, len)?;
        let v = decode_violation(&self.buf[self.off..self.off + len])?;
        self.off += len;
        Ok(Some(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{canonical_key, canonical_sort};

    fn sample_kinds() -> Vec<Violation> {
        use ViolationKind::*;
        let loc = Some(Rect::new(-5, 0, 10, 20));
        let mk = |stage, kind, location, context: &str| Violation {
            stage,
            kind,
            location,
            context: context.into(),
        };
        vec![
            mk(
                CheckStage::Elements,
                Width {
                    layer: "metal".into(),
                    measured: 700,
                    required: 750,
                },
                loc,
                "r0c0",
            ),
            mk(
                CheckStage::Interactions,
                Spacing {
                    layer_a: "poly".into(),
                    layer_b: "diff".into(),
                    measured: 200,
                    required: 250,
                    same_net: true,
                },
                loc,
                "i3.i1",
            ),
            mk(
                CheckStage::Connections,
                IllegalConnection {
                    layer: "metal".into(),
                },
                None,
                "",
            ),
            mk(
                CheckStage::Connections,
                ImpliedDevice {
                    layer_a: "poly".into(),
                    layer_b: "diff".into(),
                },
                loc,
                "x",
            ),
            mk(
                CheckStage::Connections,
                DeviceOnlyLayer {
                    layer: "contact".into(),
                },
                loc,
                "",
            ),
            mk(CheckStage::Elements, NonManhattan, None, "w"),
            mk(
                CheckStage::Elements,
                UnknownLayer {
                    cif_name: "XX".into(),
                },
                None,
                "",
            ),
            mk(
                CheckStage::PrimitiveSymbols,
                UnknownDeviceType {
                    type_name: "FOO".into(),
                },
                None,
                "",
            ),
            mk(
                CheckStage::PrimitiveSymbols,
                DeviceRule {
                    device_type: "NMOS_ENH".into(),
                    rule: "gate overhang".into(),
                },
                loc,
                "t1",
            ),
            mk(
                CheckStage::PrimitiveSymbols,
                TerminalOutsideDevice {
                    terminal: "G".into(),
                },
                loc,
                "t1",
            ),
            mk(
                CheckStage::Composition,
                Erc {
                    rule: diic_netlist::ErcRule::PowerGroundShort,
                    detail: "net VDD".into(),
                },
                None,
                "VDD",
            ),
            mk(
                CheckStage::NetList,
                NetlistMismatch {
                    detail: "missing device".into(),
                },
                None,
                "",
            ),
            mk(
                CheckStage::Interactions,
                MaskOddCycle {
                    layer: "metal".into(),
                    measured: 950,
                    required: 1250,
                    cycle: 3,
                },
                loc,
                "i2",
            ),
        ]
    }

    #[test]
    fn codec_round_trips_every_kind() {
        for v in sample_kinds() {
            let mut buf = Vec::new();
            encode_violation(&v, &mut buf);
            let len = u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize;
            assert_eq!(len + 4, buf.len());
            let back = decode_violation(&buf[4..]).unwrap();
            assert_eq!(back, v);
        }
    }

    #[test]
    fn decode_rejects_corruption() {
        let mut buf = Vec::new();
        encode_violation(&sample_kinds()[0], &mut buf);
        // Truncated payload.
        assert!(decode_violation(&buf[4..buf.len() - 1]).is_err());
        // Unknown kind tag.
        let mut bad = buf[4..].to_vec();
        bad[1] = 200;
        assert!(decode_violation(&bad).is_err());
        // Unknown stage tag.
        let mut bad = buf[4..].to_vec();
        bad[0] = 99;
        assert!(decode_violation(&bad).is_err());
        // Trailing bytes.
        let mut bad = buf[4..].to_vec();
        bad.push(0);
        assert!(decode_violation(&bad).is_err());

        // Swept over every kind: each corruption below is refused, or
        // decodes to a violation whose record is exactly the corrupted
        // bytes (a changed number, a changed letter) — never a panic, and
        // never a violation that means other bytes.
        let refused_or_exact = |bytes: &[u8], what: &str| {
            if let Ok(v) = decode_violation(bytes) {
                let mut again = Vec::new();
                encode_violation(&v, &mut again);
                assert_eq!(&again[4..], bytes, "{what} decoded to {v:?}");
            }
        };
        for (k, v) in sample_kinds().iter().enumerate() {
            let mut buf = Vec::new();
            encode_violation(v, &mut buf);
            let payload = &buf[4..];
            for len in 0..payload.len() {
                let cut = &payload[..len];
                assert!(decode_violation(cut).is_err(), "kind {k} cut at {len}");
            }
            for at in 0..payload.len() {
                for byte in [0x00, 0x80, 0xFF] {
                    let mut bad = payload.to_vec();
                    bad[at] = byte;
                    refused_or_exact(&bad, &format!("kind {k}, byte {at} = {byte:#x}"));
                }
            }
            // Every 4-byte window set to `u32::MAX`: string lengths among
            // them, each then far past the record's end.
            for at in 0..payload.len().saturating_sub(3) {
                let mut bad = payload.to_vec();
                bad[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
                refused_or_exact(&bad, &format!("kind {k}, u32::MAX at {at}"));
            }
        }
    }

    #[test]
    fn multi_run_merge_is_globally_sorted() {
        let mut all = sample_kinds();
        // Duplicate a few so the merge sees ties across runs.
        all.extend(sample_kinds().into_iter().take(3));
        canonical_sort(&mut all);

        // Split into interleaved runs (every 3rd record per run) so no
        // single run is already the answer.
        let mut spill = SpillFile::create_in(None).unwrap();
        for lane in 0..3usize {
            let run: Vec<Violation> = all
                .iter()
                .enumerate()
                .filter(|(i, _)| i % 3 == lane)
                .map(|(_, v)| v.clone())
                .collect();
            spill.append_run(&run).unwrap();
        }
        assert_eq!(spill.runs(), 3);
        assert_eq!(spill.records(), all.len() as u64);
        assert!(spill.bytes() > 0);

        let mut merged = Vec::new();
        spill
            .merge(&mut |v, line| {
                assert_eq!(line, format!("{v:?}"), "key is the rendering");
                merged.push(v);
                Ok(())
            })
            .unwrap();
        assert_eq!(merged, all);
        assert!(merged
            .windows(2)
            .all(|w| canonical_key(&w[0]) <= canonical_key(&w[1])));
    }

    #[test]
    fn single_record_runs_merge() {
        // The budget=1 degenerate shape: every violation its own run.
        let mut all = sample_kinds();
        canonical_sort(&mut all);
        let mut spill = SpillFile::create_in(None).unwrap();
        // Append in a scrambled order: run order must not matter.
        for i in (0..all.len()).rev() {
            spill.append_run(std::slice::from_ref(&all[i])).unwrap();
        }
        let mut merged = Vec::new();
        spill
            .merge(&mut |v, _| {
                merged.push(v);
                Ok(())
            })
            .unwrap();
        assert_eq!(merged, all);
    }

    #[test]
    fn empty_runs_are_skipped() {
        let mut spill = SpillFile::create_in(None).unwrap();
        spill.append_run(&[]).unwrap();
        assert_eq!(spill.runs(), 0);
        let mut n = 0usize;
        spill
            .merge(&mut |_, _| {
                n += 1;
                Ok(())
            })
            .unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn merge_propagates_emit_errors() {
        let mut spill = SpillFile::create_in(None).unwrap();
        spill.append_run(&sample_kinds()[..1]).unwrap();
        let err = spill
            .merge(&mut |_, _| Err(io::Error::other("writer full")))
            .expect_err("emit error must abort the merge");
        assert_eq!(err.to_string(), "writer full");
    }
}
