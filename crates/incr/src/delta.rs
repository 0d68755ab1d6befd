//! Store-delta entry format: the incremental half of the `CCM2SNAP`
//! journal.
//!
//! A full snapshot image replays an *entire* artifact store; a **delta
//! batch** replays only what changed since a sequence number —
//! insertions (with their bytes) and evictions/quarantines (key only).
//! The same encoded batch serves three consumers:
//!
//! * the on-disk delta journal (`ccm2-serve`), where snapshot + delta
//!   replay is the cheap restart path;
//! * the `ccm2-fabric` replication stream, where shards ship batches to
//!   peers inside `CCM2WIRE` frames;
//! * tests, which forge torn/bit-flipped batches to prove validation
//!   degrades to a miss instead of misdecoding.
//!
//! # Batch format (version 1)
//!
//! ```text
//! magic      8 bytes   b"CCM2DELT"
//! version    u32 LE    1
//! base_seq   u64 LE    sequence number *before* the first op
//! count      u32 LE    number of ops
//! op*        tag u8 (1=insert, 2=evict), fp hi u64 LE, fp lo u64 LE,
//!            [insert only: len u32 LE, bytes]
//! checksum   hi u64 LE, lo u64 LE   Fp128 of everything above
//! ```
//!
//! Ops are consecutive: the op at index `i` has sequence number
//! `base_seq + i + 1`, so a reader can verify chain contiguity across
//! batches without per-op sequence fields.

use ccm2_support::codec::{CodecError, Envelope};
use ccm2_support::hash::Fp128;

/// Magic prefix of an encoded delta batch.
pub const DELTA_MAGIC: &[u8; 8] = b"CCM2DELT";
/// Bump on any change to the encoding; readers treat other versions as
/// invalid (quarantine / miss), never as data.
pub const DELTA_FORMAT_VERSION: u32 = 1;

const ENVELOPE: Envelope = Envelope::new(DELTA_MAGIC, Some("ccm2-delta/v1"));

/// One store mutation, in replay order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeltaOp {
    /// An entry was admitted (insertion or replacement).
    Insert {
        /// Content-address of the artifact.
        fp: Fp128,
        /// The artifact bytes.
        bytes: Vec<u8>,
    },
    /// An entry was removed (LRU eviction or quarantine).
    Evict {
        /// Content-address of the removed artifact.
        fp: Fp128,
    },
}

impl DeltaOp {
    /// The content-address this op touches.
    pub fn fp(&self) -> Fp128 {
        match self {
            DeltaOp::Insert { fp, .. } | DeltaOp::Evict { fp } => *fp,
        }
    }

    /// Encoded size of this op in a batch, in bytes.
    pub fn encoded_len(&self) -> usize {
        match self {
            DeltaOp::Insert { bytes, .. } => 1 + 16 + 4 + bytes.len(),
            DeltaOp::Evict { .. } => 1 + 16,
        }
    }
}

/// Encodes `ops` as one checksummed batch whose first op has sequence
/// number `base_seq + 1`.
pub fn encode_delta(base_seq: u64, ops: &[DeltaOp]) -> Vec<u8> {
    let body = 8 + 4 + ops.iter().map(DeltaOp::encoded_len).sum::<usize>();
    let mut w = ENVELOPE.writer(DELTA_FORMAT_VERSION, body);
    w.u64(base_seq);
    w.u32(ops.len() as u32);
    for op in ops {
        match op {
            DeltaOp::Insert { fp, bytes } => {
                w.u8(1);
                w.fp(*fp);
                w.bytes(bytes);
            }
            DeltaOp::Evict { fp } => {
                w.u8(2);
                w.fp(*fp);
            }
        }
    }
    ENVELOPE.seal(w)
}

/// Decodes a batch, returning `(base_seq, ops)`. Strict validation —
/// magic, version, exact length accounting and the trailer checksum must
/// all hold; anything else (torn tail, bit flip, future version, a
/// count larger than the batch) is `None` and the caller degrades to a
/// miss / quarantines the segment.
pub fn decode_delta(buf: &[u8]) -> Option<(u64, Vec<DeltaOp>)> {
    read_ops(buf).ok()
}

fn read_ops(buf: &[u8]) -> Result<(u64, Vec<DeltaOp>), CodecError> {
    let mut r = ENVELOPE.open(buf, DELTA_FORMAT_VERSION)?;
    let base_seq = r.u64()?;
    let count = r.count(1 + 16)?;
    let mut ops = Vec::with_capacity(count);
    for _ in 0..count {
        let tag = r.u8()?;
        let fp = r.fp()?;
        ops.push(match tag {
            1 => DeltaOp::Insert {
                fp,
                bytes: r.bytes()?.to_vec(),
            },
            2 => DeltaOp::Evict { fp },
            _ => return Err(CodecError::Invalid),
        });
    }
    r.end()?;
    Ok((base_seq, ops))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(n: u64) -> Fp128 {
        Fp128 { hi: n, lo: !n }
    }

    fn sample() -> Vec<DeltaOp> {
        vec![
            DeltaOp::Insert {
                fp: fp(1),
                bytes: b"alpha".to_vec(),
            },
            DeltaOp::Evict { fp: fp(2) },
            DeltaOp::Insert {
                fp: fp(3),
                bytes: Vec::new(),
            },
        ]
    }

    #[test]
    fn round_trip_preserves_ops_and_base_seq() {
        let ops = sample();
        let buf = encode_delta(41, &ops);
        assert_eq!(decode_delta(&buf), Some((41, ops)));
    }

    #[test]
    fn empty_batch_round_trips() {
        let buf = encode_delta(0, &[]);
        assert_eq!(decode_delta(&buf), Some((0, Vec::new())));
    }

    #[test]
    fn corruption_and_version_skew_fail_validation() {
        let good = encode_delta(7, &sample());
        assert!(decode_delta(&good).is_some());
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x01;
            assert!(decode_delta(&bad).is_none(), "flip at byte {i} undetected");
        }
        assert!(decode_delta(&good[..good.len() - 1]).is_none(), "torn tail");
        assert!(decode_delta(&good[..10]).is_none(), "truncation");
        assert!(decode_delta(b"").is_none());
        let mut vskew = good.clone();
        vskew[DELTA_MAGIC.len()] = 99;
        assert!(decode_delta(&vskew).is_none(), "future version rejected");
    }

    /// Re-seals `buf` after `edit` so only the field checks can reject it.
    fn forge(buf: &[u8], edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut body = buf[..buf.len() - 16].to_vec();
        edit(&mut body);
        let sum = ENVELOPE.checksum(&body);
        body.extend_from_slice(&sum.hi.to_le_bytes());
        body.extend_from_slice(&sum.lo.to_le_bytes());
        body
    }

    // CI greps for a `delta_version_{N}_mismatch_rejected` test matching
    // the current DELTA_FORMAT_VERSION: bumping the constant without a
    // fresh cross-version test fails the gate (ci.sh).
    #[test]
    fn delta_version_1_mismatch_rejected() {
        assert_eq!(DELTA_FORMAT_VERSION, 1);
        let good = encode_delta(7, &sample());
        // A well-formed batch claiming a future version, with a valid
        // checksum: the version guard, not the integrity check, must
        // reject it.
        let at = DELTA_MAGIC.len();
        let future = forge(&good, |b| {
            b[at..at + 4].copy_from_slice(&2u32.to_le_bytes())
        });
        assert_eq!(
            ENVELOPE.open(&future, DELTA_FORMAT_VERSION).err(),
            Some(CodecError::Version { found: 2 }),
            "the checksum is valid; only the version guard rejects it"
        );
        assert!(decode_delta(&future).is_none(), "future version rejected");
    }

    #[test]
    fn forged_op_count_is_rejected_without_preallocating() {
        // An empty batch re-sealed to claim u32::MAX ops: the count
        // must be checked against the bytes left, not trusted.
        let empty = encode_delta(0, &[]);
        let at = DELTA_MAGIC.len() + 4 + 8;
        let forged = forge(&empty, |b| {
            b[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes())
        });
        assert_eq!(forged.len(), 40);
        assert!(ENVELOPE.open(&forged, DELTA_FORMAT_VERSION).is_ok());
        assert!(decode_delta(&forged).is_none());
    }

    #[test]
    fn encoded_len_matches_actual_encoding() {
        let ops = sample();
        let buf = encode_delta(0, &ops);
        let overhead = DELTA_MAGIC.len() + 4 + 8 + 4 + 16;
        assert_eq!(
            buf.len(),
            overhead + ops.iter().map(DeltaOp::encoded_len).sum::<usize>()
        );
    }
}
