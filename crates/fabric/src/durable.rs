//! `CCM2RLOG` — durable replica logs: the router-crash half of the
//! fabric's recovery plane.
//!
//! A shard's per-origin [`ReplicaLog`](crate::ReplicaLog)s are pure
//! potential energy: they only matter at failover, which is exactly
//! when the process holding them may itself have just restarted. This
//! module persists the full replica map in an [`ImageDir`], like the
//! `CCM2SNAP` store snapshots, so a shard (or the whole fleet) can come
//! back up holding every delta op it had parked for its peers — a
//! router kill between ship and absorb loses zero ops.
//!
//! # Image format (version 1)
//!
//! ```text
//! magic      8 bytes   b"CCM2RLOG"
//! version    u32 LE    1
//! count      u32 LE    number of per-origin logs
//! log*                 (count times)
//!   origin     u32 LE    shard the ops came from
//!   last_seq   u64 LE    origin sequence after the last op
//!   gaps       u64 LE    tolerated sequence gaps observed
//!   gapped     u8        log has lost ops; absorb must not replay it
//!   batch      u32 LE length + bytes   `ccm2_incr::encode_delta(0, ops)`
//! checksum   hi u64 LE, lo u64 LE   Fp128 of everything above
//! ```
//!
//! Images are named `rlog-{seq:08}.img`. A save prunes to the new
//! image plus one fallback: the logs are rewritten whole on every
//! mutation, so only the newest image carries information.

use std::collections::HashMap;

use ccm2_incr::{decode_delta, encode_delta};
use ccm2_support::codec::{CodecError, Envelope, ImageDir, ImageFormat};

use crate::shard::ReplicaLog;

const MAGIC: &[u8; 8] = b"CCM2RLOG";
/// Bump on any change to the persisted replica-log encoding; ci.sh
/// greps for a matching `rlog_version_{N}_mismatch_quarantined` test.
pub const RLOG_FORMAT_VERSION: u32 = 1;
const RLOG: Envelope = Envelope::new(MAGIC, Some("ccm2-rlog/v1"));

/// The `CCM2RLOG` image format: one shard's whole replica map.
#[derive(Debug)]
pub enum RlogFormat {}

/// A directory of replica-log images plus their quarantine.
pub type ReplicaLogStore = ImageDir<RlogFormat>;

impl ImageFormat for RlogFormat {
    const PREFIX: &'static str = "rlog";
    const KEEP: Option<usize> = Some(2);
    type Source = HashMap<u32, ReplicaLog>;
    type Value = HashMap<u32, ReplicaLog>;

    fn encode(logs: &HashMap<u32, ReplicaLog>) -> Vec<u8> {
        let mut w = RLOG.writer(RLOG_FORMAT_VERSION, 0);
        // Deterministic image bytes: origins in ascending order.
        let mut origins: Vec<u32> = logs.keys().copied().collect();
        origins.sort_unstable();
        w.u32(origins.len() as u32);
        for origin in origins {
            let log = &logs[&origin];
            w.u32(origin);
            w.u64(log.last_seq);
            w.u64(log.gaps);
            w.bool(log.gapped);
            w.bytes(&encode_delta(0, &log.ops));
        }
        RLOG.seal(w)
    }

    /// Strict validation: magic, version, exact length accounting, the
    /// trailer checksum, and every embedded `CCM2DELT` batch must all
    /// hold; anything else is an error and the image is quarantined.
    fn decode(buf: &[u8]) -> Result<HashMap<u32, ReplicaLog>, CodecError> {
        let mut r = RLOG.open(buf, RLOG_FORMAT_VERSION)?;
        let count = r.count(4 + 8 + 8 + 1 + 4)?;
        let mut logs = HashMap::with_capacity(count);
        for _ in 0..count {
            let origin = r.u32()?;
            let log = ReplicaLog {
                last_seq: r.u64()?,
                gaps: r.u64()?,
                gapped: r.bool()?,
                ops: decode_delta(r.bytes()?).ok_or(CodecError::Invalid)?.1,
            };
            if logs.insert(origin, log).is_some() {
                return Err(CodecError::Invalid); // duplicate origin: framing bug or tampering
            }
        }
        r.end()?;
        Ok(logs)
    }
}

// ---- CCM2MBRS: durable membership images ------------------------------

const MBRS_MAGIC: &[u8; 8] = b"CCM2MBRS";
/// Bump on any change to the persisted membership encoding; ci.sh greps
/// for a matching `mbrs_version_{N}_mismatch_quarantined` test.
pub const MBRS_FORMAT_VERSION: u32 = 1;
const MBRS: Envelope = Envelope::new(MBRS_MAGIC, Some("ccm2-mbrs/v1"));

/// One durable membership record: the lease epoch it was written under,
/// the router that wrote it, and the ring membership at that moment.
/// This is the state a standby router mirrors and a freshly promoted
/// leader restores — the durable half of router failover, kept in an
/// [`ImageDir`] like the `CCM2RLOG` logs (crash-atomic writes, Fp128
/// trailer, quarantine + newest fallback, prune to newest+1).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MembershipImage {
    /// Lease epoch the writer held.
    pub epoch: u64,
    /// The writing router's id.
    pub leader: u32,
    /// Ring members at write time, ascending.
    pub members: Vec<u32>,
}

/// A directory of membership images plus their quarantine.
pub type MembershipStore = ImageDir<MembershipImage>;

impl ImageFormat for MembershipImage {
    const PREFIX: &'static str = "mbrs";
    const KEEP: Option<usize> = Some(2);
    type Source = MembershipImage;
    type Value = MembershipImage;

    fn encode(image: &MembershipImage) -> Vec<u8> {
        // Deterministic image bytes: members in ascending order.
        let mut members = image.members.clone();
        members.sort_unstable();
        let mut w = MBRS.writer(MBRS_FORMAT_VERSION, 8 + 4 + 4 + 4 * members.len());
        w.u64(image.epoch);
        w.u32(image.leader);
        w.u32(members.len() as u32);
        for m in members {
            w.u32(m);
        }
        MBRS.seal(w)
    }

    /// Strict validation, mirroring the replica-log decoder: magic,
    /// version, exact length accounting and the trailer checksum.
    fn decode(buf: &[u8]) -> Result<MembershipImage, CodecError> {
        let mut r = MBRS.open(buf, MBRS_FORMAT_VERSION)?;
        let epoch = r.u64()?;
        let leader = r.u32()?;
        let count = r.count(4)?;
        let mut members = Vec::with_capacity(count);
        for _ in 0..count {
            members.push(r.u32()?);
        }
        if members.windows(2).any(|w| w[0] >= w[1]) {
            return Err(CodecError::Invalid); // unsorted or duplicated members: tampering
        }
        r.end()?;
        Ok(MembershipImage {
            epoch,
            leader,
            members,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccm2_incr::DeltaOp;
    use ccm2_support::hash::Fp128;
    use std::fs;
    use std::path::PathBuf;

    fn fp(n: u64) -> Fp128 {
        Fp128 { hi: n, lo: !n }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ccm2-rlog-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_logs() -> HashMap<u32, ReplicaLog> {
        let mut logs = HashMap::new();
        logs.insert(
            2,
            ReplicaLog {
                last_seq: 11,
                ops: vec![
                    DeltaOp::Insert {
                        fp: fp(1),
                        bytes: b"one".to_vec(),
                    },
                    DeltaOp::Evict { fp: fp(9) },
                ],
                gaps: 0,
                gapped: false,
            },
        );
        logs.insert(
            5,
            ReplicaLog {
                last_seq: 40,
                ops: vec![DeltaOp::Insert {
                    fp: fp(3),
                    bytes: b"three".to_vec(),
                }],
                gaps: 2,
                gapped: true,
            },
        );
        logs
    }

    fn assert_same(a: &HashMap<u32, ReplicaLog>, b: &HashMap<u32, ReplicaLog>) {
        assert_eq!(a.len(), b.len());
        for (origin, log) in a {
            let other = b.get(origin).expect("origin survives");
            assert_eq!(log.last_seq, other.last_seq);
            assert_eq!(log.ops, other.ops);
            assert_eq!(log.gaps, other.gaps);
            assert_eq!(log.gapped, other.gapped);
        }
    }

    #[test]
    fn round_trip_preserves_every_log_field() {
        let dir = tmp_dir("rt");
        let store = ReplicaLogStore::new(&dir).unwrap();
        let logs = sample_logs();
        let path = store.save(&logs).unwrap();
        assert!(path.ends_with("rlog-00000001.img"));
        let loaded = store.load_latest().unwrap();
        assert!(loaded.quarantined.is_empty());
        assert_same(&logs, &loaded.value.expect("image loads"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_image_quarantined_and_fallback_wins() {
        let dir = tmp_dir("torn");
        let store = ReplicaLogStore::new(&dir).unwrap();
        let logs = sample_logs();
        store.save(&logs).unwrap();
        let good = RlogFormat::encode(&logs);
        fs::write(dir.join("rlog-00000002.img"), &good[..good.len() / 2]).unwrap();
        let loaded = store.load_latest().unwrap();
        assert_eq!(loaded.quarantined.len(), 1);
        assert_eq!(store.quarantined_count(), 1);
        assert_same(&logs, &loaded.value.expect("fallback image loads"));
        assert!(store.load_latest().unwrap().quarantined.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn saves_prune_to_newest_plus_one_fallback() {
        let dir = tmp_dir("prune");
        let store = ReplicaLogStore::new(&dir).unwrap();
        for _ in 0..5 {
            store.save(&sample_logs()).unwrap();
        }
        let left = store.images().unwrap();
        assert_eq!(
            left.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![4, 5],
            "older images pruned"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    // CI greps for an `rlog_version_{N}_mismatch_quarantined` test
    // matching the current RLOG_FORMAT_VERSION: bumping the constant
    // without a fresh cross-version test fails the gate (ci.sh).
    #[test]
    fn rlog_version_1_mismatch_quarantined() {
        assert_eq!(RLOG_FORMAT_VERSION, 1);
        let dir = tmp_dir("vskew");
        let store = ReplicaLogStore::new(&dir).unwrap();
        // A well-formed image claiming a future version, with a valid
        // checksum — the version guard (not the integrity check) must
        // reject it.
        let mut img = RlogFormat::encode(&sample_logs());
        img.truncate(img.len() - 16);
        img[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&2u32.to_le_bytes());
        let sum = RLOG.checksum(&img);
        img.extend_from_slice(&sum.hi.to_le_bytes());
        img.extend_from_slice(&sum.lo.to_le_bytes());
        assert!(RlogFormat::decode(&img).is_err(), "future version rejected");
        fs::write(dir.join("rlog-00000001.img"), &img).unwrap();
        let loaded = store.load_latest().unwrap();
        assert!(loaded.value.is_none());
        assert_eq!(loaded.quarantined.len(), 1, "skewed image quarantined");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flips_and_bad_embedded_batches_fail_validation() {
        let logs = sample_logs();
        let good = RlogFormat::encode(&logs);
        assert!(RlogFormat::decode(&good).is_ok());
        for i in (0..good.len()).step_by(7) {
            let mut bad = good.clone();
            bad[i] ^= 0x10;
            assert!(
                RlogFormat::decode(&bad).is_err(),
                "flip at byte {i} undetected"
            );
        }
        assert!(RlogFormat::decode(&good[..good.len() - 1]).is_err(), "torn");
        assert!(RlogFormat::decode(b"").is_err());
    }

    #[test]
    fn empty_dir_loads_cold() {
        let dir = tmp_dir("cold");
        let store = ReplicaLogStore::new(&dir).unwrap();
        let loaded = store.load_latest().unwrap();
        assert!(loaded.value.is_none());
        assert!(loaded.quarantined.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    fn sample_membership() -> MembershipImage {
        MembershipImage {
            epoch: 7,
            leader: 2,
            members: vec![0, 1, 4],
        }
    }

    #[test]
    fn membership_round_trips_and_prunes() {
        let dir = tmp_dir("mbrs-rt");
        let store = MembershipStore::new(&dir).unwrap();
        assert!(store.load_latest().unwrap().value.is_none(), "cold start");
        for _ in 0..4 {
            store.save(&sample_membership()).unwrap();
        }
        let loaded = store.load_latest().unwrap();
        assert!(loaded.quarantined.is_empty());
        assert_eq!(loaded.value, Some(sample_membership()));
        assert_eq!(
            store.images().unwrap().len(),
            2,
            "pruned to newest + fallback"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_membership_quarantined_and_fallback_wins() {
        let dir = tmp_dir("mbrs-torn");
        let store = MembershipStore::new(&dir).unwrap();
        store.save(&sample_membership()).unwrap();
        let good = MembershipImage::encode(&sample_membership());
        fs::write(dir.join("mbrs-00000002.img"), &good[..good.len() / 2]).unwrap();
        let loaded = store.load_latest().unwrap();
        assert_eq!(loaded.quarantined.len(), 1);
        assert_eq!(store.quarantined_count(), 1);
        assert_eq!(loaded.value, Some(sample_membership()));
        for i in (0..good.len()).step_by(5) {
            let mut bad = good.clone();
            bad[i] ^= 0x20;
            assert!(
                MembershipImage::decode(&bad).is_err(),
                "flip at byte {i} undetected"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    // CI greps for an `mbrs_version_{N}_mismatch_quarantined` test
    // matching the current MBRS_FORMAT_VERSION: bumping the constant
    // without a fresh cross-version test fails the gate (ci.sh).
    #[test]
    fn mbrs_version_1_mismatch_quarantined() {
        assert_eq!(MBRS_FORMAT_VERSION, 1);
        let dir = tmp_dir("mbrs-vskew");
        let store = MembershipStore::new(&dir).unwrap();
        let mut img = MembershipImage::encode(&sample_membership());
        img.truncate(img.len() - 16);
        img[MBRS_MAGIC.len()..MBRS_MAGIC.len() + 4].copy_from_slice(&2u32.to_le_bytes());
        let sum = MBRS.checksum(&img);
        img.extend_from_slice(&sum.hi.to_le_bytes());
        img.extend_from_slice(&sum.lo.to_le_bytes());
        assert!(
            MembershipImage::decode(&img).is_err(),
            "future version rejected"
        );
        fs::write(dir.join("mbrs-00000001.img"), &img).unwrap();
        let loaded = store.load_latest().unwrap();
        assert!(loaded.value.is_none());
        assert_eq!(loaded.quarantined.len(), 1, "skewed image quarantined");
        let _ = fs::remove_dir_all(&dir);
    }
}
