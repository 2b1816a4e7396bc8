//! The session registry: the service's shared state.
//!
//! One [`CheckSession`] per open layout, keyed by a **sequential**
//! `u64` id — sequential so the id space itself discriminates the two
//! miss cases: an id at or above the allocator watermark was never
//! issued (`404`), an id below it that is no longer present was
//! evicted or deleted (`410`). No tombstone set to grow without bound.
//!
//! # Locking discipline
//!
//! The registry map lock is held only for map operations — never
//! across a check. Each entry carries its own session mutex (one
//! writer per session; distinct sessions check fully in parallel) plus
//! a **pin count**: a request pins its entry for its whole lifetime —
//! including a streamed report body still being written after the
//! handler returned — and the sweeper never evicts a pinned entry, so
//! eviction cannot yank a session mid-request. Backpressure is
//! two-level: a service-wide concurrent-request bound (`503` from
//! [`SessionRegistry::admit`]) and a per-session queued-writer bound
//! (`429` from [`SessionPin::lock`]).
//!
//! A request that panics holding a session's mutex poisons it, and may
//! have left the session half-patched (an apply takes its view apart
//! before it lays it back). Such a session is never served again: the
//! next [`SessionRegistry::pin`] or [`SessionPin::lock`] of it, or the
//! next sweep, unlinks it, and its id answers `410` from then on.
//!
//! # Eviction
//!
//! [`SessionRegistry::sweep`] runs opportunistically (every open, plus
//! on demand): idle-TTL eviction first, then — when the pool is still
//! over its memory budget — **compaction before eviction**:
//! [`CheckSession::compact_memory`] reopens the least-recently-used
//! session that edits have patched, which sheds its churn garbage
//! (orphaned interner strings, spatial-index tombstones), and only if
//! the pool is *still* over budget (or over the session-count cap)
//! does the LRU session get evicted outright. A reopen re-checks the
//! whole layout (about 7 ms on a 24 × 12 chip) and the sweep runs
//! inside the request that opens a session, so one sweep reopens at
//! most [`REOPENS_PER_SWEEP`] session; past that it goes on to
//! eviction as if no patched session were left. `/stats`
//! `compactions` counts the reopens.

use crate::error::{ApiError, FrontEnd};
use crate::wire;
use diic_core::{CheckSession, LibrarySession};
use diic_tech::Technology;
use serde_json::Value;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// The open sessions by id, shared with every [`SessionPin`] so a pin
/// can unlink a poisoned session.
type Sessions = Arc<Mutex<HashMap<u64, Arc<SessionEntry>>>>;

/// Removes `id` from the map; true if it was there.
fn unlink(sessions: &Sessions, id: u64) -> bool {
    let mut sessions = sessions.lock().unwrap_or_else(|p| p.into_inner());
    sessions.remove(&id).is_some()
}

/// How many sessions one [`SessionRegistry::sweep`] reopens at most:
/// each reopen is a whole check, paid by the request the sweep runs in.
pub const REOPENS_PER_SWEEP: usize = 1;

/// Bounds and budgets for the registry.
#[derive(Debug, Clone, Copy)]
pub struct RegistryConfig {
    /// Open-session cap; beyond it the LRU unpinned session is evicted.
    pub max_sessions: usize,
    /// Idle eviction: sessions untouched this long are evicted by the
    /// sweep.
    pub idle_ttl: Duration,
    /// Pool memory budget (sum of [`CheckSession::memory_bytes`]):
    /// past it the sweep reopens the LRU patched session
    /// ([`CheckSession::compact_memory`], at most
    /// [`REOPENS_PER_SWEEP`] a sweep), then evicts.
    pub memory_budget_bytes: usize,
    /// Service-wide concurrent-request bound (`503` beyond it).
    pub max_concurrent_requests: usize,
    /// Per-session queued-request bound (`429` beyond it).
    pub max_session_queue: usize,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        RegistryConfig {
            max_sessions: 64,
            idle_ttl: Duration::from_secs(600),
            memory_budget_bytes: 1 << 30,
            max_concurrent_requests: 256,
            max_session_queue: 8,
        }
    }
}

/// One open session and its bookkeeping.
struct SessionEntry {
    id: u64,
    session: Mutex<CheckSession>,
    /// Millisecond monotonic stamp of the last touch (LRU order).
    last_used: AtomicU64,
    /// Requests currently holding this entry (never evict while > 0).
    pins: AtomicUsize,
    /// Requests queued on (or holding) the session mutex.
    queue: AtomicUsize,
}

/// A pinned reference to a live session: holding one keeps the entry
/// safe from eviction (deletion only unlinks the id — the session
/// itself lives until the last pin drops).
pub struct SessionPin {
    entry: Arc<SessionEntry>,
    sessions: Sessions,
    max_queue: usize,
}

impl SessionPin {
    /// The session id.
    pub fn id(&self) -> u64 {
        self.entry.id
    }

    /// Acquires the per-session writer lock, or fails with `429` when
    /// the session's queue is already at its bound. (The bound counts
    /// both the holder and the waiters; the check-then-increment is
    /// approximate under races, which can only let a short burst
    /// through — it never deadlocks and never under-admits.) A session
    /// whose mutex a panicking request poisoned is unlinked instead, and
    /// the answer is `410`.
    pub fn lock(&self) -> Result<MutexGuard<'_, CheckSession>, ApiError> {
        let id = self.entry.id;
        if self.entry.queue.load(Ordering::Relaxed) >= self.max_queue {
            return Err(ApiError::session_busy(id));
        }
        self.entry.queue.fetch_add(1, Ordering::Relaxed);
        let locked = self.entry.session.lock();
        self.entry.queue.fetch_sub(1, Ordering::Relaxed);
        locked.map_err(|poisoned| {
            // Release the session before taking the map lock: the two
            // are never held at once.
            drop(poisoned);
            unlink(&self.sessions, id);
            ApiError::session_gone(id)
        })
    }
}

impl Drop for SessionPin {
    fn drop(&mut self) {
        self.entry.pins.fetch_sub(1, Ordering::Release);
    }
}

/// A slot in the service-wide request budget; dropping it releases the
/// slot. Streamed responses move theirs into the body writer so the
/// budget covers the whole stream, not just the handler.
pub struct RequestPermit {
    active: Arc<AtomicUsize>,
}

impl Drop for RequestPermit {
    fn drop(&mut self) {
        self.active.fetch_sub(1, Ordering::Release);
    }
}

/// Counters the `/stats` endpoint reports.
#[derive(Debug, Default)]
struct Counters {
    evicted_idle: AtomicU64,
    evicted_pressure: AtomicU64,
    compactions: AtomicU64,
    sessions_opened: AtomicU64,
}

/// The registry itself. All methods take `&self`; internal locking is
/// per the module doc.
pub struct SessionRegistry {
    config: RegistryConfig,
    sessions: Sessions,
    next_id: AtomicU64,
    active_requests: Arc<AtomicUsize>,
    counters: Counters,
    /// Shared library sessions keyed by deck source, least recently
    /// used first and at most [`MAX_LIBRARY_DECKS`] of them: batch
    /// verification over the same deck reuses one content-keyed cache
    /// across requests (and across concurrent requests — the cache is
    /// internally concurrent).
    libraries: Mutex<Vec<(String, Arc<LibraryEntry>)>>,
    epoch: Instant,
}

/// How many distinct decks keep a shared [`LibrarySession`] alive at
/// once. A deck is a few KB of client-supplied text and its session's
/// cache grows with every batch, so the map must not grow with the
/// number of distinct texts ever posted; past the cap the least
/// recently used deck is dropped and simply recompiles (cold cache,
/// same reports) if it is posted again.
pub const MAX_LIBRARY_DECKS: usize = 8;

/// A shared batch-verification context for one compiled deck.
pub struct LibraryEntry {
    /// The compiled technology.
    pub tech: Technology,
    /// The shared session (content-keyed cache inside).
    pub session: LibrarySession,
}

impl SessionRegistry {
    /// An empty registry.
    pub fn new(config: RegistryConfig) -> SessionRegistry {
        SessionRegistry {
            config,
            sessions: Sessions::default(),
            next_id: AtomicU64::new(0),
            active_requests: Arc::new(AtomicUsize::new(0)),
            counters: Counters::default(),
            libraries: Mutex::new(Vec::new()),
            epoch: Instant::now(),
        }
    }

    /// The configured bounds.
    pub fn config(&self) -> &RegistryConfig {
        &self.config
    }

    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// Admits a request against the service-wide bound (`503` past
    /// it). Every handler calls this first and holds the permit for
    /// the request's lifetime.
    pub fn admit(&self) -> Result<RequestPermit, ApiError> {
        // Increment-then-check: overshoot by racing requests is at most
        // the racer count, and the failed admit decrements right away.
        let active = Arc::clone(&self.active_requests);
        if active.fetch_add(1, Ordering::AcqRel) >= self.config.max_concurrent_requests {
            active.fetch_sub(1, Ordering::Release);
            return Err(ApiError::overloaded());
        }
        Ok(RequestPermit { active })
    }

    /// Opens a session, returning its id. Runs a sweep first so the
    /// new session lands inside the bounds.
    pub fn open(&self, session: CheckSession) -> u64 {
        self.sweep();
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let entry = Arc::new(SessionEntry {
            id,
            session: Mutex::new(session),
            last_used: AtomicU64::new(self.now_ms()),
            pins: AtomicUsize::new(0),
            queue: AtomicUsize::new(0),
        });
        self.sessions
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .insert(id, entry);
        self.counters
            .sessions_opened
            .fetch_add(1, Ordering::Relaxed);
        id
    }

    /// Looks up and pins a session: `404` for never-issued ids, `410`
    /// for evicted/deleted ones and for a poisoned one, which this
    /// unlinks. Touches the LRU stamp.
    pub fn pin(&self, id: u64) -> Result<SessionPin, ApiError> {
        let mut sessions = self.sessions.lock().unwrap_or_else(|p| p.into_inner());
        match sessions.get(&id) {
            Some(entry) if entry.session.is_poisoned() => {
                sessions.remove(&id);
                Err(ApiError::session_gone(id))
            }
            Some(entry) => {
                entry.pins.fetch_add(1, Ordering::Acquire);
                entry.last_used.store(self.now_ms(), Ordering::Relaxed);
                Ok(SessionPin {
                    entry: Arc::clone(entry),
                    sessions: Arc::clone(&self.sessions),
                    max_queue: self.config.max_session_queue,
                })
            }
            None if id < self.next_id.load(Ordering::Relaxed) => Err(ApiError::session_gone(id)),
            None => Err(ApiError::unknown_session(id)),
        }
    }

    /// Deletes a session (`404`/`410` as in [`SessionRegistry::pin`]).
    /// In-flight requests holding pins finish against the unlinked
    /// entry; the id answers `410` from then on.
    pub fn delete(&self, id: u64) -> Result<(), ApiError> {
        if unlink(&self.sessions, id) {
            return Ok(());
        }
        if id < self.next_id.load(Ordering::Relaxed) {
            Err(ApiError::session_gone(id))
        } else {
            Err(ApiError::unknown_session(id))
        }
    }

    /// The eviction/compaction sweep (see the module doc). Safe to call
    /// from any thread at any time; entries that are pinned or whose
    /// session mutex is held are skipped (busy means recently used).
    /// Poisoned entries are unlinked, pinned or not.
    pub fn sweep(&self) {
        let now = self.now_ms();
        let ttl_ms = self.config.idle_ttl.as_millis() as u64;

        // Snapshot the entries; never hold the map lock across a
        // session lock.
        let entries: Vec<Arc<SessionEntry>> = {
            let sessions = self.sessions.lock().unwrap_or_else(|p| p.into_inner());
            sessions.values().map(Arc::clone).collect()
        };

        // Pass 1: poisoned sessions out, then idle-TTL eviction.
        for entry in &entries {
            if entry.session.is_poisoned() {
                unlink(&self.sessions, entry.id);
                continue;
            }
            let idle = now.saturating_sub(entry.last_used.load(Ordering::Relaxed));
            if idle >= ttl_ms
                && entry.pins.load(Ordering::Acquire) == 0
                && self.unlink_if_unpinned(entry.id)
            {
                self.counters.evicted_idle.fetch_add(1, Ordering::Relaxed);
            }
        }

        // Pass 2: memory pressure. Survivors, LRU first.
        let mut survivors: Vec<(u64, u64, usize)> = Vec::new(); // (last_used, id, bytes)
        {
            let sessions = self.sessions.lock().unwrap_or_else(|p| p.into_inner());
            for entry in sessions.values() {
                let bytes = match entry.session.try_lock() {
                    Ok(s) => s.memory_bytes(),
                    Err(_) => continue, // busy: in use, neither idle nor evictable
                };
                survivors.push((entry.last_used.load(Ordering::Relaxed), entry.id, bytes));
            }
        }
        survivors.sort_unstable();
        let mut total: usize = survivors.iter().map(|&(_, _, b)| b).sum();

        // Compact before evicting: reopen patched sessions LRU-first and
        // re-measure, up to the reopen bound; only a pool still over
        // budget loses sessions.
        if total > self.config.memory_budget_bytes {
            let mut reopens = 0;
            for &(_, id, bytes) in &survivors {
                if total <= self.config.memory_budget_bytes || reopens == REOPENS_PER_SWEEP {
                    break;
                }
                let Some(entry) = self.get(id) else { continue };
                let Ok(mut session) = entry.session.try_lock() else {
                    continue;
                };
                if session.compact_memory() {
                    reopens += 1;
                    self.counters.compactions.fetch_add(1, Ordering::Relaxed);
                    total = total - bytes + session.memory_bytes();
                }
            }
        }

        // Evict LRU-first past either bound.
        let mut open = {
            let sessions = self.sessions.lock().unwrap_or_else(|p| p.into_inner());
            sessions.len()
        };
        for &(_, id, bytes) in &survivors {
            let over_count = open > self.config.max_sessions;
            let over_memory = total > self.config.memory_budget_bytes;
            if !over_count && !over_memory {
                break;
            }
            if self.unlink_if_unpinned(id) {
                self.counters
                    .evicted_pressure
                    .fetch_add(1, Ordering::Relaxed);
                open -= 1;
                total = total.saturating_sub(bytes);
            }
        }
    }

    fn get(&self, id: u64) -> Option<Arc<SessionEntry>> {
        self.sessions
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .get(&id)
            .map(Arc::clone)
    }

    /// Removes `id` from the map unless a request pinned it since the
    /// sweep snapshot (the pin check and the unlink happen under the
    /// map lock, and [`SessionRegistry::pin`] pins under that same
    /// lock, so a pinned entry can never be unlinked).
    fn unlink_if_unpinned(&self, id: u64) -> bool {
        let mut sessions = self.sessions.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(entry) = sessions.get(&id) {
            if entry.pins.load(Ordering::Acquire) == 0 {
                sessions.remove(&id);
                return true;
            }
        }
        false
    }

    /// The shared library context for a deck source, compiling it on
    /// first use (and again after [`MAX_LIBRARY_DECKS`] other decks
    /// pushed it out; a request still holding an evicted entry
    /// finishes against it). The error carries the caret-rendered deck
    /// diagnostic.
    pub fn library_for_deck(&self, deck_source: &str) -> Result<Arc<LibraryEntry>, ApiError> {
        // A hit moves the deck to the most-recently-used end.
        let touch = |libraries: &mut Vec<(String, Arc<LibraryEntry>)>| {
            let at = libraries.iter().position(|(deck, _)| deck == deck_source)?;
            let hit = libraries.remove(at);
            let entry = Arc::clone(&hit.1);
            libraries.push(hit);
            Some(entry)
        };
        if let Some(entry) = touch(&mut self.libraries.lock().unwrap_or_else(|p| p.into_inner())) {
            return Ok(entry);
        }
        // Compile outside the lock; a racing duplicate compile is
        // harmless (the first insert wins, both entries are equivalent).
        let tech = diic_tech::deck::compile_str(deck_source)
            .map_err(|e| ApiError::rejected(FrontEnd::Deck, "deck", deck_source, &e))?;
        let session = LibrarySession::new(&tech);
        let entry = Arc::new(LibraryEntry { tech, session });
        let mut libraries = self.libraries.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(raced) = touch(&mut libraries) {
            return Ok(raced);
        }
        if libraries.len() == MAX_LIBRARY_DECKS {
            libraries.remove(0);
        }
        libraries.push((deck_source.to_string(), Arc::clone(&entry)));
        Ok(entry)
    }

    /// The `/stats` payload.
    pub fn stats(&self) -> Value {
        let (open, memory_bytes) = {
            let sessions = self.sessions.lock().unwrap_or_else(|p| p.into_inner());
            let mut bytes = 0usize;
            for entry in sessions.values() {
                if let Ok(s) = entry.session.try_lock() {
                    bytes += s.memory_bytes();
                }
            }
            (sessions.len(), bytes)
        };
        let (library_decks, libraries) = {
            let libraries = self.libraries.lock().unwrap_or_else(|p| p.into_inner());
            let fills = (libraries.iter()).map(|(_, l)| wire::fill_stats(l.session.cache.fills()));
            (libraries.len(), Value::array(fills))
        };
        Value::object([
            ("open_sessions", Value::from(open)),
            (
                "sessions_opened",
                Value::from(self.counters.sessions_opened.load(Ordering::Relaxed)),
            ),
            ("memory_bytes", Value::from(memory_bytes)),
            (
                "evicted_idle",
                Value::from(self.counters.evicted_idle.load(Ordering::Relaxed)),
            ),
            (
                "evicted_pressure",
                Value::from(self.counters.evicted_pressure.load(Ordering::Relaxed)),
            ),
            (
                "compactions",
                Value::from(self.counters.compactions.load(Ordering::Relaxed)),
            ),
            (
                "active_requests",
                Value::from(self.active_requests.load(Ordering::Relaxed)),
            ),
            ("library_decks", Value::from(library_decks)),
            ("libraries", libraries),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn library_decks_evict_least_recently_used() {
        let registry = SessionRegistry::new(RegistryConfig::default());
        let deck = |n: usize| format!("{}\n# deck {n}\n", diic_tech::deck::NMOS_DECK);
        let entry = |n: usize| registry.library_for_deck(&deck(n)).unwrap();
        let decks = || registry.libraries.lock().unwrap().len();

        let first: Vec<_> = (0..MAX_LIBRARY_DECKS).map(entry).collect();
        assert_eq!(decks(), MAX_LIBRARY_DECKS);
        // A hit returns the shared entry and makes deck 0 the most
        // recently used, so the next new deck pushes out deck 1.
        assert!(Arc::ptr_eq(&entry(0), &first[0]));
        entry(MAX_LIBRARY_DECKS);
        assert_eq!(decks(), MAX_LIBRARY_DECKS);
        assert!(Arc::ptr_eq(&entry(0), &first[0]), "deck 0 was just used");
        assert!(
            !Arc::ptr_eq(&entry(1), &first[1]),
            "deck 1 was evicted and compiled afresh"
        );
        assert_eq!(entry(1).tech, first[1].tech);
        assert_eq!(decks(), MAX_LIBRARY_DECKS);
    }
}
