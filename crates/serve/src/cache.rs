//! Content-addressed response cache with single-flight deduplication.
//!
//! The cache maps a request's content address to its answer: the
//! structural FNV-1a hash of `(kind, plan, input)` from
//! [`Request::cache_key`](crate::wire::Request::cache_key), which is
//! process-local and never persisted or sent. Concurrent requests for
//! the same key coalesce: exactly one caller becomes the *leader* and
//! computes; the rest block on a condvar and receive the leader's answer.
//! A leader that fails *abandons* the slot — errors are never cached, and
//! one of the waiters is promoted to leader so a transient failure cannot
//! wedge the key forever.

use std::collections::{HashMap, VecDeque};
use std::mem::size_of;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use parbounds_models::{CostLedger, Word};

use crate::wire::{Answer, WireDiag};

/// Approximate resident heap bytes of one cached answer: the enum's own
/// footprint plus the heap its owned collections carry. An estimate (it
/// ignores allocator rounding and `Vec` spare capacity), but it moves with
/// the quantities that actually grow — ledger phases, output words,
/// diagnostic strings — which is what a capacity dashboard needs.
pub fn approx_answer_bytes(answer: &Answer) -> usize {
    fn ledger(l: &CostLedger) -> usize {
        // A streaming ledger retains no per-phase vector; phases() is
        // then empty and the ledger contributes only its inline struct,
        // already counted in size_of::<Answer>().
        std::mem::size_of_val(l.phases())
    }
    fn words(w: &[Word]) -> usize {
        std::mem::size_of_val(w)
    }
    fn diag(d: &WireDiag) -> usize {
        size_of::<WireDiag>() + d.severity.len() + d.rule.len() + d.message.len()
    }
    let heap = match answer {
        Answer::Ledger { ledger: l } => ledger(l),
        Answer::Lint { diagnostics } => diagnostics.iter().map(diag).sum(),
        Answer::Certificate { .. } => 0,
        Answer::Run { ledger: l, output } => ledger(l) + words(output),
        Answer::Compare {
            predicted,
            measured,
            output,
            ..
        } => ledger(predicted) + ledger(measured) + words(output),
        Answer::Symbolic {
            family,
            derived,
            fixture,
            ..
        } => family.len() + derived.len() + fixture.len(),
        Answer::Audit {
            family,
            lower,
            upper,
            verdict,
            ..
        } => family.len() + lower.len() + upper.len() + verdict.len(),
    };
    size_of::<Answer>() + heap
}

/// What [`OracleCache::get_or_begin`] hands back.
#[derive(Debug)]
pub enum Lease {
    /// The answer was already cached (or a leader just produced it).
    Hit(Arc<Answer>),
    /// The caller is the leader for this key: it must compute the answer
    /// and then call [`OracleCache::fulfill`] or [`OracleCache::abandon`]
    /// — exactly one of the two, or waiters block until promoted by an
    /// abandon.
    Lead,
}

enum Slot {
    /// A leader is computing the answer.
    InFlight,
    /// The answer, ready to clone out, with its approximate byte size
    /// (computed once at publish so eviction can subtract it exactly).
    Ready(Arc<Answer>, usize),
}

struct CacheState {
    slots: HashMap<u64, Slot>,
    /// Ready keys in insertion order, for FIFO eviction.
    order: VecDeque<u64>,
    /// Approximate bytes held by all ready entries.
    resident_bytes: usize,
    /// High-water mark of `resident_bytes`.
    peak_resident_bytes: usize,
}

/// A point-in-time view of the cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheSnapshot {
    /// Answers served from the cache (including single-flight waiters).
    pub hits: u64,
    /// Requests that had to compute (leaders).
    pub misses: u64,
    /// Hits that waited for an in-flight leader rather than finding a
    /// ready entry.
    pub coalesced: u64,
    /// Ready entries evicted to stay under the capacity cap.
    pub evictions: u64,
    /// Ready entries currently resident.
    pub entries: usize,
    /// Approximate bytes held by resident entries (see
    /// [`approx_answer_bytes`]).
    pub resident_bytes: usize,
    /// High-water mark of `resident_bytes` over the cache's lifetime.
    pub peak_resident_bytes: usize,
}

impl CacheSnapshot {
    /// Hit rate over all lookups, in [0, 1]; 0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The single-flight content-addressed cache.
pub struct OracleCache {
    state: Mutex<CacheState>,
    cv: Condvar,
    cap: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for OracleCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OracleCache")
            .field("cap", &self.cap)
            .field("stats", &self.stats())
            .finish()
    }
}

impl OracleCache {
    /// A cache holding at most `cap` ready answers (at least 1).
    pub fn new(cap: usize) -> Self {
        OracleCache {
            state: Mutex::new(CacheState {
                slots: HashMap::new(),
                order: VecDeque::new(),
                resident_bytes: 0,
                peak_resident_bytes: 0,
            }),
            cv: Condvar::new(),
            cap: cap.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Looks up `key`. Returns [`Lease::Hit`] with the answer, possibly
    /// after blocking behind an in-flight leader; returns [`Lease::Lead`]
    /// when the caller must compute.
    pub fn get_or_begin(&self, key: u64) -> Lease {
        let mut waited = false;
        let mut state = self.state.lock().expect("cache lock poisoned");
        loop {
            match state.slots.get(&key) {
                Some(Slot::Ready(answer, _)) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    if waited {
                        self.coalesced.fetch_add(1, Ordering::Relaxed);
                    }
                    return Lease::Hit(Arc::clone(answer));
                }
                Some(Slot::InFlight) => {
                    waited = true;
                    state = self.cv.wait(state).expect("cache lock poisoned");
                }
                None => {
                    state.slots.insert(key, Slot::InFlight);
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    return Lease::Lead;
                }
            }
        }
    }

    /// Publishes the leader's answer and wakes every waiter. Evicts the
    /// oldest ready entries beyond the capacity cap.
    pub fn fulfill(&self, key: u64, answer: Arc<Answer>) {
        let bytes = approx_answer_bytes(&answer);
        let mut state = self.state.lock().expect("cache lock poisoned");
        state.slots.insert(key, Slot::Ready(answer, bytes));
        state.resident_bytes += bytes;
        state.peak_resident_bytes = state.peak_resident_bytes.max(state.resident_bytes);
        state.order.push_back(key);
        while state.order.len() > self.cap {
            if let Some(old) = state.order.pop_front() {
                // Only ready slots sit in `order`; an in-flight reinsert
                // under the same key would have replaced the ready slot,
                // which fulfill never does, so this remove is safe.
                if matches!(state.slots.get(&old), Some(Slot::Ready(..))) {
                    if let Some(Slot::Ready(_, old_bytes)) = state.slots.remove(&old) {
                        state.resident_bytes -= old_bytes;
                        self.evictions.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
        drop(state);
        self.cv.notify_all();
    }

    /// Drops the leader's in-flight slot without publishing anything:
    /// failed computations are never cached. Waiters wake and race to
    /// become the next leader.
    pub fn abandon(&self, key: u64) {
        let mut state = self.state.lock().expect("cache lock poisoned");
        if matches!(state.slots.get(&key), Some(Slot::InFlight)) {
            state.slots.remove(&key);
        }
        drop(state);
        self.cv.notify_all();
    }

    /// True when `key` has a ready (published) entry right now.
    pub fn contains(&self, key: u64) -> bool {
        let state = self.state.lock().expect("cache lock poisoned");
        matches!(state.slots.get(&key), Some(Slot::Ready(..)))
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> CacheSnapshot {
        let (entries, resident_bytes, peak_resident_bytes) = {
            let state = self.state.lock().expect("cache lock poisoned");
            let entries = state
                .slots
                .values()
                .filter(|s| matches!(s, Slot::Ready(..)))
                .count();
            (entries, state.resident_bytes, state.peak_resident_bytes)
        };
        CacheSnapshot {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries,
            resident_bytes,
            peak_resident_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parbounds_models::CostLedger;
    use std::sync::atomic::AtomicUsize;
    use std::thread;

    fn dummy_answer() -> Arc<Answer> {
        Arc::new(Answer::Ledger {
            ledger: CostLedger::new(),
        })
    }

    #[test]
    fn leader_computes_once_waiters_coalesce() {
        let cache = Arc::new(OracleCache::new(8));
        let computed = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let cache = Arc::clone(&cache);
            let computed = Arc::clone(&computed);
            handles.push(thread::spawn(move || match cache.get_or_begin(7) {
                Lease::Hit(_) => {}
                Lease::Lead => {
                    computed.fetch_add(1, Ordering::SeqCst);
                    thread::sleep(std::time::Duration::from_millis(20));
                    cache.fulfill(7, dummy_answer());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(computed.load(Ordering::SeqCst), 1, "single flight");
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 7);
    }

    #[test]
    fn abandon_promotes_a_waiter() {
        let cache = Arc::new(OracleCache::new(8));
        assert!(matches!(cache.get_or_begin(3), Lease::Lead));
        let waiter = {
            let cache = Arc::clone(&cache);
            thread::spawn(move || cache.get_or_begin(3))
        };
        thread::sleep(std::time::Duration::from_millis(20));
        cache.abandon(3);
        // The waiter must be promoted to leader, not deadlock.
        assert!(matches!(waiter.join().unwrap(), Lease::Lead));
        assert!(!cache.contains(3), "abandoned slot leaves no entry");
    }

    #[test]
    fn eviction_is_fifo_and_bounded() {
        let cache = OracleCache::new(2);
        for key in 0..5u64 {
            assert!(matches!(cache.get_or_begin(key), Lease::Lead));
            cache.fulfill(key, dummy_answer());
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 2, "capacity respected");
        assert_eq!(stats.evictions, 3);
        assert!(!cache.contains(0) && !cache.contains(1) && !cache.contains(2));
        assert!(cache.contains(3) && cache.contains(4));
    }

    #[test]
    fn resident_bytes_track_insert_and_eviction() {
        let small = dummy_answer();
        let big = Arc::new(Answer::Run {
            ledger: CostLedger::new(),
            output: vec![0; 1024],
        });
        let small_bytes = approx_answer_bytes(&small);
        let big_bytes = approx_answer_bytes(&big);
        assert!(
            big_bytes >= small_bytes + 1024 * size_of::<Word>(),
            "output words must be charged"
        );

        let cache = OracleCache::new(2);
        assert!(matches!(cache.get_or_begin(0), Lease::Lead));
        cache.fulfill(0, big);
        assert!(matches!(cache.get_or_begin(1), Lease::Lead));
        cache.fulfill(1, Arc::clone(&small));
        assert_eq!(cache.stats().resident_bytes, big_bytes + small_bytes);

        // Evicting the big entry reclaims exactly its accounted bytes. The
        // peak remembers the publish-before-evict high-water mark (the new
        // entry lands before the oldest is pushed out).
        assert!(matches!(cache.get_or_begin(2), Lease::Lead));
        cache.fulfill(2, small);
        let stats = cache.stats();
        assert_eq!(stats.resident_bytes, 2 * small_bytes);
        assert_eq!(stats.peak_resident_bytes, big_bytes + 2 * small_bytes);
    }
}
