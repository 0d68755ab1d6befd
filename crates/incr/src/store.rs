//! Artifact stores: fingerprint → encoded-entry byte maps.
//!
//! The store deals only in opaque byte blobs — validation (magic,
//! version, checksum) happens in [`crate::entry::decode_entry`], so a
//! store never has to trust its own contents. Stores are best-effort: a
//! failed write loses a future hit, never correctness.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use ccm2_support::codec;
use ccm2_support::hash::Fp128;
use parking_lot::Mutex;

/// A persistent (or test-scoped) map from stream fingerprints to encoded
/// cache entries.
pub trait ArtifactStore: Send + Sync + std::fmt::Debug {
    /// Loads the entry stored under `fp`, if any.
    fn load(&self, fp: Fp128) -> Option<Vec<u8>>;
    /// Stores (or replaces) the entry under `fp`. Best-effort.
    fn store(&self, fp: Fp128, bytes: &[u8]);
    /// Sets aside the entry under `fp` after it failed validation
    /// (checksum/version mismatch), so a corrupted blob is never served
    /// again and remains available for inspection. Best-effort; the
    /// default discards nothing.
    fn quarantine(&self, fp: Fp128) {
        let _ = fp;
    }
}

/// A byte-budgeted least-recently-used index over fingerprinted entries.
///
/// The index tracks *sizes and recency only* — payloads live with the
/// caller (a `HashMap` in `ccm2-serve`'s `SharedStore`, files on disk in
/// [`DiskStore`]). Admission is strict: the tracked total never exceeds
/// the budget, not even transiently, because [`ByteBudgetLru::admit`]
/// reports what must be evicted *before* the new entry is accounted.
/// Recency ticks are a monotonic counter, so eviction order is
/// deterministic for a deterministic access sequence.
#[derive(Debug)]
pub struct ByteBudgetLru {
    budget: u64,
    total: u64,
    tick: u64,
    evictions: u64,
    entries: HashMap<Fp128, (u64, u64)>, // fp -> (bytes, last-use tick)
}

impl ByteBudgetLru {
    /// Creates an empty index with the given byte budget.
    pub fn new(budget: u64) -> ByteBudgetLru {
        ByteBudgetLru {
            budget,
            total: 0,
            tick: 0,
            evictions: 0,
            entries: HashMap::new(),
        }
    }

    /// The configured byte budget.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Bytes currently accounted to live entries (always ≤ budget).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the index has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Evictions performed so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Whether `fp` is tracked.
    pub fn contains(&self, fp: Fp128) -> bool {
        self.entries.contains_key(&fp)
    }

    /// Marks `fp` most-recently-used (a load hit). No-op when untracked.
    pub fn touch(&mut self, fp: Fp128) {
        self.tick += 1;
        let tick = self.tick;
        if let Some(e) = self.entries.get_mut(&fp) {
            e.1 = tick;
        }
    }

    /// Admits an entry of `bytes` under `fp`, replacing any previous
    /// entry for the same fingerprint. The caller must evict the
    /// returned fingerprints' payloads; when `accepted` is false the
    /// entry alone exceeds the whole budget and must not be stored (a
    /// stale previous payload under the same fingerprint is still listed
    /// for eviction).
    pub fn admit(&mut self, fp: Fp128, bytes: u64) -> Admission {
        if bytes > self.budget {
            // An oversize replacement still drops the stale previous entry.
            let evict = match self.entries.remove(&fp) {
                Some((old, _)) => {
                    self.total -= old;
                    vec![fp]
                }
                None => Vec::new(),
            };
            return Admission {
                accepted: false,
                evict,
            };
        }
        self.tick += 1;
        if let Some((old, _)) = self.entries.remove(&fp) {
            self.total -= old;
        }
        let mut evict = Vec::new();
        while self.total + bytes > self.budget {
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, &(_, tick))| tick)
                .map(|(&fp, _)| fp)
                .expect("total > 0 implies a victim exists");
            let (sz, _) = self.entries.remove(&victim).expect("victim tracked");
            self.total -= sz;
            self.evictions += 1;
            evict.push(victim);
        }
        self.entries.insert(fp, (bytes, self.tick));
        self.total += bytes;
        Admission {
            accepted: true,
            evict,
        }
    }

    /// Untracks `fp` (the caller already removed the payload).
    pub fn remove(&mut self, fp: Fp128) {
        if let Some((bytes, _)) = self.entries.remove(&fp) {
            self.total -= bytes;
        }
    }

    /// Live entries in recency order, least recently used first. A
    /// consumer that replays `admit`/`store` calls in this order
    /// rebuilds an index with the same eviction order — this is how a
    /// service snapshot preserves LRU behavior across a restart.
    pub fn entries_by_recency(&self) -> Vec<Fp128> {
        let mut v: Vec<(u64, Fp128)> = self
            .entries
            .iter()
            .map(|(fp, &(_, tick))| (tick, *fp))
            .collect();
        v.sort_unstable();
        v.into_iter().map(|(_, fp)| fp).collect()
    }
}

/// The outcome of [`ByteBudgetLru::admit`].
#[derive(Debug)]
pub struct Admission {
    /// Whether the entry may be stored at all (false = oversize).
    pub accepted: bool,
    /// Fingerprints whose payloads the caller must evict.
    pub evict: Vec<Fp128>,
}

/// An in-memory store for tests and simulation runs.
#[derive(Debug, Default)]
pub struct MemStore {
    map: Mutex<HashMap<Fp128, Vec<u8>>>,
    loads: AtomicU64,
    stores: AtomicU64,
    quarantined: AtomicU64,
}

impl MemStore {
    /// Creates an empty store.
    pub fn new() -> MemStore {
        MemStore::default()
    }

    /// Number of entries currently stored.
    pub fn entry_count(&self) -> usize {
        self.map.lock().len()
    }

    /// `(loads, stores)` performed so far (test observability).
    pub fn op_counts(&self) -> (u64, u64) {
        (
            self.loads.load(Ordering::Relaxed),
            self.stores.load(Ordering::Relaxed),
        )
    }

    /// Corrupts the entry under `fp` by XOR-flipping one payload byte —
    /// used by corruption-tolerance tests.
    pub fn corrupt(&self, fp: Fp128, byte_index: usize) -> bool {
        let mut map = self.map.lock();
        match map.get_mut(&fp) {
            Some(bytes) if byte_index < bytes.len() => {
                bytes[byte_index] ^= 0x55;
                true
            }
            _ => false,
        }
    }

    /// All stored fingerprints (test observability).
    pub fn fingerprints(&self) -> Vec<Fp128> {
        let mut v: Vec<Fp128> = self.map.lock().keys().copied().collect();
        v.sort();
        v
    }

    /// Entries quarantined so far.
    pub fn quarantined(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed)
    }
}

impl ArtifactStore for MemStore {
    fn load(&self, fp: Fp128) -> Option<Vec<u8>> {
        self.loads.fetch_add(1, Ordering::Relaxed);
        self.map.lock().get(&fp).cloned()
    }

    fn store(&self, fp: Fp128, bytes: &[u8]) {
        self.stores.fetch_add(1, Ordering::Relaxed);
        self.map.lock().insert(fp, bytes.to_vec());
    }

    fn quarantine(&self, fp: Fp128) {
        if self.map.lock().remove(&fp).is_some() {
            self.quarantined.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A file-per-entry on-disk store: `<dir>/<fp hex>.bin`.
///
/// Writes go through a temporary file in the same directory followed by a
/// rename, so a crash mid-write leaves either the old entry or none — a
/// torn write can only surface as a missing or checksum-failing entry,
/// both of which degrade to a miss.
///
/// The store is size-bounded: entries beyond the byte budget are evicted
/// least-recently-used (recency is tracked in memory per handle and
/// seeded from file modification times on open, oldest first), so a
/// long-lived service cannot fill the disk. [`DiskStore::new`] applies
/// [`DiskStore::DEFAULT_BUDGET`]; use [`DiskStore::with_budget`] to pick
/// the bound, or [`DiskStore::unbounded`] for the pre-eviction behaviour
/// (test fixtures, externally garbage-collected directories).
#[derive(Debug)]
pub struct DiskStore {
    dir: PathBuf,
    tmp_seq: AtomicU64,
    /// `None` = unbounded (explicitly requested).
    lru: Option<Mutex<ByteBudgetLru>>,
    /// Entries moved to `quarantine/` after failing validation.
    quarantined: AtomicU64,
    /// Fault plan queried at `store:{fp hex}` sites: entries are
    /// corrupted *before* they are persisted (fault injection).
    faults: Option<std::sync::Arc<ccm2_faults::FaultPlan>>,
}

impl DiskStore {
    /// Default byte budget applied by [`DiskStore::new`]: 256 MiB, far
    /// above any single build's working set but a hard ceiling for a
    /// long-lived service's cache directory.
    pub const DEFAULT_BUDGET: u64 = 256 * 1024 * 1024;

    /// Opens (creating if needed) a store rooted at `dir`, bounded by
    /// [`DiskStore::DEFAULT_BUDGET`].
    pub fn new(dir: impl Into<PathBuf>) -> std::io::Result<DiskStore> {
        DiskStore::with_budget(dir, DiskStore::DEFAULT_BUDGET)
    }

    /// Opens a store bounded by `budget` bytes. Existing entries are
    /// indexed oldest-first (by modification time, then name, so the
    /// seeding order is deterministic) and evicted immediately if they
    /// already exceed the budget.
    pub fn with_budget(dir: impl Into<PathBuf>, budget: u64) -> std::io::Result<DiskStore> {
        let store = DiskStore::open(dir, Some(budget))?;
        store.seed_lru();
        Ok(store)
    }

    /// Opens a store with no size bound. Growth is then the caller's
    /// problem; prefer [`DiskStore::with_budget`] for anything long-lived.
    pub fn unbounded(dir: impl Into<PathBuf>) -> std::io::Result<DiskStore> {
        DiskStore::open(dir, None)
    }

    fn open(dir: impl Into<PathBuf>, budget: Option<u64>) -> std::io::Result<DiskStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(DiskStore {
            dir,
            tmp_seq: AtomicU64::new(0),
            lru: budget.map(|b| Mutex::new(ByteBudgetLru::new(b))),
            quarantined: AtomicU64::new(0),
            faults: None,
        })
    }

    /// Attaches a fault plan: every subsequent `store` queries
    /// `store:{fp hex}` and applies any [`ccm2_faults::FaultKind::Corrupt`]
    /// decision to the bytes before persisting them.
    pub fn set_faults(&mut self, plan: std::sync::Arc<ccm2_faults::FaultPlan>) {
        self.faults = Some(plan);
    }

    /// Entries moved to quarantine by this handle.
    pub fn quarantined(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed)
    }

    /// How many quarantined entries are kept before the oldest are
    /// dropped (bounded forensic buffer, not a second cache).
    pub const QUARANTINE_CAP: usize = 16;

    /// Number of files currently held in `quarantine/`.
    pub fn quarantine_count(&self) -> usize {
        codec::quarantined_count(&self.dir)
    }

    /// Drops the oldest quarantined files until at most
    /// [`DiskStore::QUARANTINE_CAP`] remain.
    fn trim_quarantine(&self) {
        let Ok(rd) = std::fs::read_dir(codec::quarantine_dir(&self.dir)) else {
            return;
        };
        let mut found: Vec<(std::time::SystemTime, PathBuf)> = rd
            .filter_map(|e| e.ok())
            .map(|e| {
                let mtime = e
                    .metadata()
                    .and_then(|m| m.modified())
                    .unwrap_or(std::time::SystemTime::UNIX_EPOCH);
                (mtime, e.path())
            })
            .collect();
        if found.len() <= DiskStore::QUARANTINE_CAP {
            return;
        }
        found.sort();
        for (_, path) in &found[..found.len() - DiskStore::QUARANTINE_CAP] {
            let _ = std::fs::remove_file(path);
        }
    }

    /// Indexes pre-existing entries into the LRU, oldest first, evicting
    /// whatever no longer fits.
    fn seed_lru(&self) {
        let Some(lru) = &self.lru else { return };
        let Ok(rd) = std::fs::read_dir(&self.dir) else {
            return;
        };
        let mut found: Vec<(std::time::SystemTime, String, Fp128, u64)> = rd
            .filter_map(|e| e.ok())
            .filter_map(|e| {
                let name = e.file_name().to_string_lossy().into_owned();
                let fp = Fp128::from_hex(name.strip_suffix(".bin")?)?;
                let meta = e.metadata().ok()?;
                let mtime = meta.modified().unwrap_or(std::time::SystemTime::UNIX_EPOCH);
                Some((mtime, name, fp, meta.len()))
            })
            .collect();
        found.sort();
        let mut lru = lru.lock();
        for (_, _, fp, len) in found {
            let admission = lru.admit(fp, len);
            let mut evict = admission.evict;
            if !admission.accepted {
                evict.push(fp);
            }
            for victim in evict {
                let _ = std::fs::remove_file(self.entry_path(victim));
            }
        }
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The configured byte budget (`None` = unbounded).
    pub fn budget(&self) -> Option<u64> {
        self.lru.as_ref().map(|l| l.lock().budget())
    }

    /// Bytes currently accounted to tracked entries (`None` = unbounded
    /// store, which does not track sizes).
    pub fn bytes_in_use(&self) -> Option<u64> {
        self.lru.as_ref().map(|l| l.lock().total())
    }

    /// Evictions performed by this handle.
    pub fn evictions(&self) -> u64 {
        self.lru.as_ref().map_or(0, |l| l.lock().evictions())
    }

    fn entry_path(&self, fp: Fp128) -> PathBuf {
        self.dir.join(format!("{}.bin", fp.to_hex()))
    }

    /// Number of `.bin` entries on disk (test/report observability).
    pub fn entry_count(&self) -> usize {
        std::fs::read_dir(&self.dir)
            .map(|it| {
                it.filter_map(|e| e.ok())
                    .filter(|e| e.path().extension().is_some_and(|x| x == "bin"))
                    .count()
            })
            .unwrap_or(0)
    }
}

impl ArtifactStore for DiskStore {
    fn load(&self, fp: Fp128) -> Option<Vec<u8>> {
        let bytes = std::fs::read(self.entry_path(fp)).ok()?;
        if let Some(lru) = &self.lru {
            let mut lru = lru.lock();
            if lru.contains(fp) {
                lru.touch(fp);
            } else {
                // Another handle (or process) wrote it; adopt it so the
                // budget keeps covering everything in the directory.
                let admission = lru.admit(fp, bytes.len() as u64);
                let mut evict = admission.evict;
                if !admission.accepted {
                    evict.push(fp);
                }
                for victim in evict {
                    if victim != fp {
                        let _ = std::fs::remove_file(self.entry_path(victim));
                    }
                }
                if !admission.accepted {
                    let _ = std::fs::remove_file(self.entry_path(fp));
                }
            }
        }
        Some(bytes)
    }

    fn store(&self, fp: Fp128, bytes: &[u8]) {
        // Fault injection: corrupt the payload before persisting it.
        let mut corrupted: Vec<u8>;
        let mut bytes = bytes;
        if let Some(plan) = &self.faults {
            if let Some(ccm2_faults::FaultKind::Corrupt { byte }) =
                plan.at(&format!("store:{}", fp.to_hex()))
            {
                corrupted = bytes.to_vec();
                if byte == usize::MAX {
                    corrupted.truncate(corrupted.len() / 2);
                } else if !corrupted.is_empty() {
                    let ix = byte % corrupted.len();
                    corrupted[ix] ^= 0x55;
                }
                bytes = &corrupted;
            }
        }
        // Decide admission before touching the filesystem so the
        // directory never transiently exceeds the budget.
        if let Some(lru) = &self.lru {
            let admission = lru.lock().admit(fp, bytes.len() as u64);
            for victim in admission.evict.iter().filter(|&&v| v != fp) {
                let _ = std::fs::remove_file(self.entry_path(*victim));
            }
            if !admission.accepted {
                let _ = std::fs::remove_file(self.entry_path(fp));
                return;
            }
        }
        let seq = self.tmp_seq.fetch_add(1, Ordering::Relaxed);
        let tmp = self
            .dir
            .join(format!(".{}.{}.{seq}.tmp", fp.to_hex(), std::process::id()));
        if codec::write_atomic(&tmp, &self.entry_path(fp), bytes).is_err() {
            if let Some(lru) = &self.lru {
                lru.lock().remove(fp);
            }
        }
    }

    fn quarantine(&self, fp: Fp128) {
        let src = self.entry_path(fp);
        if src.exists() && codec::quarantine(&self.dir, &src).is_ok() {
            self.quarantined.fetch_add(1, Ordering::Relaxed);
            if let Some(lru) = &self.lru {
                lru.lock().remove(fp);
            }
            self.trim_quarantine();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(n: u64) -> Fp128 {
        Fp128 { hi: n, lo: !n }
    }

    #[test]
    fn mem_store_round_trip_and_corruption_hook() {
        let s = MemStore::new();
        assert_eq!(s.load(fp(1)), None);
        s.store(fp(1), b"abc");
        assert_eq!(s.load(fp(1)).as_deref(), Some(&b"abc"[..]));
        assert_eq!(s.entry_count(), 1);
        assert!(s.corrupt(fp(1), 0));
        assert_ne!(s.load(fp(1)).as_deref(), Some(&b"abc"[..]));
        assert!(!s.corrupt(fp(2), 0), "missing entry not corruptible");
        let (loads, stores) = s.op_counts();
        assert_eq!((loads, stores), (3, 1));
    }

    #[test]
    fn lru_admission_never_exceeds_budget() {
        let mut lru = ByteBudgetLru::new(100);
        assert!(lru.admit(fp(1), 40).accepted);
        assert!(lru.admit(fp(2), 40).accepted);
        assert_eq!(lru.total(), 80);
        // Touch 1 so 2 becomes the LRU victim.
        lru.touch(fp(1));
        let a = lru.admit(fp(3), 40);
        assert!(a.accepted);
        assert_eq!(a.evict, vec![fp(2)]);
        assert!(lru.total() <= lru.budget());
        assert_eq!(lru.evictions(), 1);
        assert!(lru.contains(fp(1)) && lru.contains(fp(3)));
        // Replacing an entry re-accounts its size instead of leaking it.
        assert!(lru.admit(fp(1), 60).accepted);
        assert!(lru.total() <= 100);
    }

    #[test]
    fn lru_recency_order_survives_replay() {
        let mut lru = ByteBudgetLru::new(100);
        lru.admit(fp(1), 10);
        lru.admit(fp(2), 10);
        lru.admit(fp(3), 10);
        lru.touch(fp(1)); // order is now 2, 3, 1 (oldest first)
        assert_eq!(lru.entries_by_recency(), vec![fp(2), fp(3), fp(1)]);
        // Re-admitting in that order rebuilds the same recency order.
        let mut rebuilt = ByteBudgetLru::new(100);
        for f in lru.entries_by_recency() {
            rebuilt.admit(f, 10);
        }
        assert_eq!(rebuilt.entries_by_recency(), lru.entries_by_recency());
    }

    #[test]
    fn lru_rejects_oversize_and_drops_stale_twin() {
        let mut lru = ByteBudgetLru::new(50);
        assert!(lru.admit(fp(1), 20).accepted);
        let a = lru.admit(fp(1), 500);
        assert!(!a.accepted);
        assert_eq!(a.evict, vec![fp(1)], "stale payload must go");
        assert_eq!(lru.total(), 0);
        assert!(!lru.admit(fp(2), 51).accepted);
        assert!(lru.is_empty());
    }

    #[test]
    fn disk_store_evicts_lru_within_budget() {
        let dir = std::env::temp_dir().join(format!(
            "ccm2-incr-budget-test-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let payload = vec![0xAB; 100];
        let s = DiskStore::with_budget(&dir, 250).expect("create");
        s.store(fp(1), &payload);
        s.store(fp(2), &payload);
        assert_eq!(s.entry_count(), 2);
        s.load(fp(1)); // 1 becomes MRU; 2 is the next victim
        s.store(fp(3), &payload);
        assert_eq!(s.entry_count(), 2, "one entry evicted");
        assert!(s.load(fp(2)).is_none(), "victim was the LRU entry");
        assert!(s.load(fp(1)).is_some() && s.load(fp(3)).is_some());
        assert!(s.bytes_in_use().expect("bounded") <= 250);
        assert_eq!(s.evictions(), 1);
        // Oversize entries are rejected, not stored.
        s.store(fp(4), &vec![0u8; 300]);
        assert!(s.load(fp(4)).is_none());
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn disk_store_reopen_seeds_index_and_enforces_budget() {
        let dir = std::env::temp_dir().join(format!(
            "ccm2-incr-reseed-test-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let s = DiskStore::unbounded(&dir).expect("create");
            for i in 0..6u64 {
                s.store(fp(i), &[i as u8; 100]);
            }
            assert_eq!(s.entry_count(), 6);
        }
        // Reopening with a budget trims the directory to fit.
        let s = DiskStore::with_budget(&dir, 250).expect("reopen");
        assert!(s.entry_count() <= 2, "seeded index evicted the overflow");
        assert!(s.bytes_in_use().expect("bounded") <= 250);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn disk_store_quarantines_bit_flipped_entry() {
        let dir = std::env::temp_dir().join(format!(
            "ccm2-incr-quarantine-test-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let s = DiskStore::new(&dir).expect("create");
        s.store(fp(1), b"good bytes with a checksum");
        // Bit-flip the on-disk entry (simulated disk corruption).
        let path = s.entry_path(fp(1));
        let mut bytes = std::fs::read(&path).expect("entry on disk");
        bytes[3] ^= 0x55;
        std::fs::write(&path, &bytes).expect("rewrite");
        // A loader that notices the mismatch quarantines the entry:
        // it moves aside, is no longer served, and is counted.
        s.quarantine(fp(1));
        assert_eq!(s.quarantined(), 1);
        assert_eq!(s.quarantine_count(), 1);
        assert!(s.load(fp(1)).is_none(), "quarantined entry never served");
        assert!(
            dir.join("quarantine")
                .join(format!("{}.bin", fp(1).to_hex()))
                .exists(),
            "blob preserved for inspection"
        );
        // Quarantining a missing entry is a no-op.
        s.quarantine(fp(2));
        assert_eq!(s.quarantined(), 1);
        // The quarantine buffer is bounded.
        for i in 10..(12 + DiskStore::QUARANTINE_CAP as u64) {
            s.store(fp(i), b"x");
            s.quarantine(fp(i));
        }
        assert!(s.quarantine_count() <= DiskStore::QUARANTINE_CAP);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn disk_store_fault_plan_corrupts_before_persist() {
        let dir = std::env::temp_dir().join(format!(
            "ccm2-incr-faultstore-test-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut s = DiskStore::new(&dir).expect("create");
        s.set_faults(std::sync::Arc::new(ccm2_faults::FaultPlan::single(
            format!("store:{}", fp(1).to_hex()),
            ccm2_faults::FaultKind::Corrupt { byte: 2 },
        )));
        s.store(fp(1), b"payload");
        let mut want = b"payload".to_vec();
        want[2] ^= 0x55;
        assert_eq!(s.load(fp(1)).as_deref(), Some(&want[..]));
        // Untargeted entries are untouched; truncation mode halves.
        s.store(fp(2), b"payload");
        assert_eq!(s.load(fp(2)).as_deref(), Some(&b"payload"[..]));
        s.set_faults(std::sync::Arc::new(ccm2_faults::FaultPlan::single(
            format!("store:{}", fp(3).to_hex()),
            ccm2_faults::FaultKind::Corrupt { byte: usize::MAX },
        )));
        s.store(fp(3), b"12345678");
        assert_eq!(s.load(fp(3)).as_deref(), Some(&b"1234"[..]));
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn mem_store_quarantine_removes_and_counts() {
        let s = MemStore::new();
        s.store(fp(1), b"abc");
        s.quarantine(fp(1));
        assert_eq!(s.quarantined(), 1);
        assert!(s.load(fp(1)).is_none());
        s.quarantine(fp(1));
        assert_eq!(s.quarantined(), 1, "missing entry not double-counted");
    }

    #[test]
    fn disk_store_round_trip_and_hex_naming() {
        let dir = std::env::temp_dir().join(format!("ccm2-incr-store-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let s = DiskStore::new(&dir).expect("create store dir");
        assert_eq!(s.load(fp(7)), None);
        s.store(fp(7), b"payload");
        assert_eq!(s.load(fp(7)).as_deref(), Some(&b"payload"[..]));
        assert_eq!(s.entry_count(), 1);
        // Entries are addressable by fingerprint hex, so a second store
        // handle (a later compiler run) sees them.
        let again = DiskStore::new(&dir).expect("reopen");
        assert_eq!(again.load(fp(7)).as_deref(), Some(&b"payload"[..]));
        s.store(fp(7), b"replaced");
        assert_eq!(again.load(fp(7)).as_deref(), Some(&b"replaced"[..]));
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
