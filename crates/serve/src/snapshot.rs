//! Crash-safe [`SharedStore`] snapshots: the service-restart half of
//! the self-healing recovery plane.
//!
//! A snapshot is a single checksummed, versioned image of the shared
//! artifact store, kept in an [`ImageDir`] as `snap-{seq:08}.img`. A
//! save is crash-atomic (temp file, sync, rename), so a crash leaves
//! either the previous image set or the complete new one.
//!
//! # Image format (version 2)
//!
//! ```text
//! magic      8 bytes   b"CCM2SNAP"
//! version    u32 LE    2
//! delta_seq  u64 LE    store delta sequence number at the cut
//! count      u32 LE    number of entries
//! entry*     hi u64 LE, lo u64 LE, len u32 LE, bytes   (count times)
//! checksum   hi u64 LE, lo u64 LE   Fp128 of everything above
//! ```
//!
//! Version 1 images (no `delta_seq` field) still decode, with a delta
//! sequence of 0. The sequence number is the seam between full images
//! and the incremental [`DeltaJournal`](crate::DeltaJournal): a restart
//! loads the newest valid image and replays only the journaled delta
//! ops with higher sequence numbers — usually far fewer bytes than a
//! fresh full image.
//!
//! Entries are stored **in LRU recency order, least recently used
//! first** ([`SharedStore::export`]), so replaying them in file order
//! on restore rebuilds the same eviction order — LRU behavior survives
//! the restart.
//!
//! Every image is kept. [`ImageDir::load_latest`] walks them
//! newest-first: an image that fails validation (truncated,
//! bit-flipped, wrong version) is moved into `quarantine/` for
//! post-mortem and recovery falls back to the next older image.

use std::io;
use std::path::PathBuf;

use ccm2_support::codec::{CodecError, Envelope, ImageDir, ImageFormat};
use ccm2_support::hash::Fp128;

use crate::store::SharedStore;

const MAGIC: &[u8; 8] = b"CCM2SNAP";
/// Bump on any change to the snapshot encoding; ci.sh greps for a
/// matching `snap_version_{N}_mismatch_quarantined` test. Version-1
/// images (no `delta_seq`) still decode.
pub const SNAP_FORMAT_VERSION: u32 = 2;
const SNAP: Envelope = Envelope::new(MAGIC, Some("ccm2-snapshot/v1"));

/// The `CCM2SNAP` image format: a whole [`SharedStore`].
#[derive(Debug)]
pub enum SnapFormat {}

/// A directory of store snapshot images plus their quarantine.
pub type SnapshotStore = ImageDir<SnapFormat>;

impl ImageFormat for SnapFormat {
    const PREFIX: &'static str = "snap";
    const KEEP: Option<usize> = None;
    type Source = SharedStore;
    /// Entries in LRU order, oldest-recency first, and the store delta
    /// sequence number at the cut (0 for version-1 images): delta
    /// replay resumes after it.
    type Value = (Vec<(Fp128, Vec<u8>)>, u64);

    fn encode(store: &SharedStore) -> Vec<u8> {
        let entries = store.export();
        let body = 8 + 4 + entries.iter().map(|(_, b)| 20 + b.len()).sum::<usize>();
        let mut w = SNAP.writer(SNAP_FORMAT_VERSION, body);
        w.u64(store.delta_seq());
        w.u32(entries.len() as u32);
        for (fp, bytes) in &entries {
            w.fp(*fp);
            w.bytes(bytes);
        }
        SNAP.seal(w)
    }

    /// Strict validation: magic, version, exact length accounting and
    /// the trailer checksum must all hold. Anything else — a torn tail,
    /// a flipped byte, a future version — is an error and the image is
    /// quarantined.
    fn decode(buf: &[u8]) -> Result<Self::Value, CodecError> {
        let (mut r, delta_seq) = match SNAP.open(buf, SNAP_FORMAT_VERSION) {
            Ok(mut r) => {
                let delta_seq = r.u64()?;
                (r, delta_seq)
            }
            // Version 1 predates the delta journal: no `delta_seq`.
            Err(CodecError::Version { found: 1 }) => (SNAP.open(buf, 1)?, 0),
            Err(e) => return Err(e),
        };
        let count = r.count(16 + 4)?;
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            entries.push((r.fp()?, r.bytes()?.to_vec()));
        }
        r.end()?;
        Ok((entries, delta_seq))
    }
}

impl crate::service::CompileService {
    /// Persists the shared store into a new snapshot image (crash-atomic
    /// write); returns the image path. Call at any point — the store
    /// mutex makes the export a consistent cut.
    pub fn snapshot(&self, snaps: &SnapshotStore) -> io::Result<PathBuf> {
        snaps.save(self.store())
    }

    /// Starts a service whose store is restored from the newest valid
    /// snapshot in `snaps` (torn images are quarantined, recovery falls
    /// back to the last good one; a fresh directory starts cold). LRU
    /// recency order is preserved across the restart.
    pub fn restore(
        config: crate::service::ServeConfig,
        snaps: &SnapshotStore,
    ) -> io::Result<crate::service::CompileService> {
        let store = SharedStore::new(config.store_budget);
        if let Some((entries, delta_seq)) = snaps.load_latest()?.value {
            store.import(&entries);
            store.resume_delta_seq(delta_seq);
        }
        Ok(crate::service::CompileService::start_with_store(
            config,
            std::sync::Arc::new(store),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn fp(n: u64) -> Fp128 {
        Fp128 { hi: n, lo: !n }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ccm2-snap-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn round_trip_preserves_entries_and_order() {
        let dir = tmp_dir("rt");
        let snaps = SnapshotStore::new(&dir).unwrap();
        let store = SharedStore::new(1024);
        use ccm2_incr::ArtifactStore as _;
        store.store(fp(1), b"one");
        store.store(fp(2), b"two");
        store.load(fp(1)); // recency order now 2, 1
        let path = snaps.save(&store).unwrap();
        assert!(path.ends_with("snap-00000001.img"));
        let loaded = snaps.load_latest().unwrap();
        assert!(loaded.quarantined.is_empty());
        let (entries, delta_seq) = loaded.value.unwrap();
        assert_eq!(
            entries,
            vec![(fp(2), b"two".to_vec()), (fp(1), b"one".to_vec())]
        );
        assert_eq!(delta_seq, 2, "two logged insertions at the cut");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_image_is_quarantined_and_older_good_image_wins() {
        let dir = tmp_dir("torn");
        let snaps = SnapshotStore::new(&dir).unwrap();
        let store = SharedStore::new(1024);
        use ccm2_incr::ArtifactStore as _;
        store.store(fp(7), b"good");
        snaps.save(&store).unwrap();
        // A newer image, torn mid-write (no atomic rename would ever
        // produce this; simulate external damage / partial disk).
        let good = SnapFormat::encode(&store);
        fs::write(dir.join("snap-00000002.img"), &good[..good.len() / 2]).unwrap();
        let loaded = snaps.load_latest().unwrap();
        assert_eq!(loaded.quarantined.len(), 1);
        assert_eq!(snaps.quarantined_count(), 1);
        assert_eq!(loaded.value.unwrap().0, vec![(fp(7), b"good".to_vec())]);
        // The torn image is gone from the active set: a second load
        // does not re-quarantine.
        assert!(snaps.load_latest().unwrap().quarantined.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_and_version_skew_fail_validation() {
        let store = SharedStore::new(1024);
        use ccm2_incr::ArtifactStore as _;
        store.store(fp(3), b"payload");
        let good = SnapFormat::encode(&store);
        assert!(SnapFormat::decode(&good).is_ok());
        let mut flipped = good.clone();
        flipped[MAGIC.len() + 9] ^= 0x01;
        assert!(SnapFormat::decode(&flipped).is_err(), "bit flip detected");
        let mut vskew = good.clone();
        vskew[MAGIC.len()] = 99; // version byte
        assert!(
            SnapFormat::decode(&vskew).is_err(),
            "future version rejected"
        );
        assert!(
            SnapFormat::decode(&good[..10]).is_err(),
            "truncation detected"
        );
        assert!(SnapFormat::decode(b"").is_err());
        let _ = &good;
    }

    #[test]
    fn version_1_images_still_decode_with_zero_delta_seq() {
        // Hand-build a v1 image (no delta_seq field) with the v1 layout.
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes()); // count
        buf.extend_from_slice(&fp(5).hi.to_le_bytes());
        buf.extend_from_slice(&fp(5).lo.to_le_bytes());
        buf.extend_from_slice(&3u32.to_le_bytes());
        buf.extend_from_slice(b"old");
        let sum = SNAP.checksum(&buf);
        buf.extend_from_slice(&sum.hi.to_le_bytes());
        buf.extend_from_slice(&sum.lo.to_le_bytes());
        let (entries, delta_seq) = SnapFormat::decode(&buf).expect("v1 accepted");
        assert_eq!(entries, vec![(fp(5), b"old".to_vec())]);
        assert_eq!(delta_seq, 0, "v1 predates the delta journal");
    }

    #[test]
    fn delta_seq_survives_the_snapshot_round_trip() {
        let store = SharedStore::new(1024);
        use ccm2_incr::ArtifactStore as _;
        store.store(fp(1), b"a");
        store.store(fp(2), b"b");
        let img = SnapFormat::encode(&store);
        let (_, seq) = SnapFormat::decode(&img).unwrap();
        assert_eq!(seq, store.delta_seq());
    }

    /// Re-seals `img` after `edit` so only the field checks can reject it.
    fn forge(img: &[u8], edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut body = img[..img.len() - 16].to_vec();
        edit(&mut body);
        let sum = SNAP.checksum(&body);
        body.extend_from_slice(&sum.hi.to_le_bytes());
        body.extend_from_slice(&sum.lo.to_le_bytes());
        body
    }

    // CI greps for a `snap_version_{N}_mismatch_quarantined` test
    // matching the current SNAP_FORMAT_VERSION: bumping the constant
    // without a fresh cross-version test fails the gate (ci.sh).
    #[test]
    fn snap_version_2_mismatch_quarantined() {
        assert_eq!(SNAP_FORMAT_VERSION, 2);
        let dir = tmp_dir("vskew");
        let snaps = SnapshotStore::new(&dir).unwrap();
        // A well-formed image claiming a future version, with a valid
        // checksum: the version guard, not the integrity check, must
        // reject it.
        let at = MAGIC.len();
        let store = SharedStore::new(1024);
        use ccm2_incr::ArtifactStore as _;
        store.store(fp(4), b"four");
        let img = forge(&SnapFormat::encode(&store), |b| {
            b[at..at + 4].copy_from_slice(&3u32.to_le_bytes())
        });
        assert_eq!(
            SnapFormat::decode(&img).err(),
            Some(CodecError::Version { found: 3 }),
            "the checksum is valid; only the version guard rejects it"
        );
        fs::write(dir.join("snap-00000001.img"), &img).unwrap();
        let loaded = snaps.load_latest().unwrap();
        assert!(loaded.value.is_none());
        assert_eq!(loaded.quarantined.len(), 1, "skewed image quarantined");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn forged_entry_count_is_rejected_without_preallocating() {
        // A valid checksum over a count of u32::MAX entries and no entry
        // bytes: the count must be checked against the bytes left.
        let at = MAGIC.len() + 4 + 8;
        let img = forge(&SnapFormat::encode(&SharedStore::new(1024)), |b| {
            b[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes())
        });
        assert!(
            SNAP.open(&img, SNAP_FORMAT_VERSION).is_ok(),
            "checksum is valid"
        );
        assert_eq!(
            SnapFormat::decode(&img).err(),
            Some(CodecError::OutOfBounds)
        );
    }

    #[test]
    fn empty_dir_restores_cold() {
        let dir = tmp_dir("cold");
        let snaps = SnapshotStore::new(&dir).unwrap();
        let loaded = snaps.load_latest().unwrap();
        assert!(loaded.value.is_none());
        assert!(loaded.quarantined.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }
}
