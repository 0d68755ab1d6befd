//! Versioned, checksummed wire encoding for [`UnitSummary`] — the
//! per-procedure digest cached through `ccm2-incr`.
//!
//! The bytes ride inside an incremental cache entry as an *opaque*
//! field, so this format guards itself exactly like the outer entry
//! does:
//!
//! ```text
//! magic "CCM2LOCK" · version u32 · payload · checksum Fp128
//! ```
//!
//! Spans are encoded **relative to a caller-supplied base** (the
//! stream's carve start), mirroring how cached diagnostics store
//! carve-relative offsets: a cached summary stays valid when unrelated
//! edits shift the procedure inside the file, and the driver rebases it
//! at splice time via the same `carve.lo` it uses for diagnostics.
//!
//! Bumping [`SUMMARY_FORMAT_VERSION`] invalidates every cached summary:
//! the driver treats an undecodable summary as a cache miss for the
//! whole entry and recompiles that stream. `ci.sh` greps this constant
//! and requires the matching `summary_version_N_mismatch_invalidates`
//! test below, so the constant cannot change without the test renaming
//! to prove the invalidation path.

use ccm2_support::codec::{ByteReader, ByteWriter, CodecError, Envelope};
use ccm2_support::source::Span;

use crate::callgraph::{CallSite, LockAcquire, UnitSummary};

/// Bump on ANY change to the summary encoding below, and rename the
/// `summary_version_N_mismatch_invalidates` test to match.
pub const SUMMARY_FORMAT_VERSION: u32 = 1;

const MAGIC: &[u8; 8] = b"CCM2LOCK";
const ENVELOPE: Envelope = Envelope::new(MAGIC, None);

/// Why a summary blob was rejected. Every variant is a cache *miss*,
/// never a panic: the driver recompiles the stream and reports a Note.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SummaryDecodeError {
    /// Shorter than magic + version + checksum.
    TooShort,
    /// Leading magic bytes are not `CCM2LOCK`.
    BadMagic,
    /// Encoded by a different summary format version.
    Version {
        /// The version found in the blob.
        found: u32,
    },
    /// Trailing checksum does not match the body.
    Checksum,
    /// Structurally invalid payload.
    Malformed(&'static str),
}

impl std::fmt::Display for SummaryDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SummaryDecodeError::TooShort => write!(f, "summary truncated"),
            SummaryDecodeError::BadMagic => write!(f, "bad summary magic"),
            SummaryDecodeError::Version { found } => {
                write!(
                    f,
                    "summary format version {found} (expected {SUMMARY_FORMAT_VERSION})"
                )
            }
            SummaryDecodeError::Checksum => write!(f, "summary checksum mismatch"),
            SummaryDecodeError::Malformed(what) => write!(f, "malformed summary: {what}"),
        }
    }
}

impl From<CodecError> for SummaryDecodeError {
    fn from(e: CodecError) -> SummaryDecodeError {
        match e {
            CodecError::TooShort => SummaryDecodeError::TooShort,
            CodecError::BadMagic => SummaryDecodeError::BadMagic,
            CodecError::Checksum => SummaryDecodeError::Checksum,
            CodecError::Version { found } => SummaryDecodeError::Version { found },
            CodecError::Utf8 => SummaryDecodeError::Malformed("non-utf8 string"),
            CodecError::OutOfBounds | CodecError::Invalid => {
                SummaryDecodeError::Malformed("out of bounds")
            }
        }
    }
}

type DecodeResult<T> = Result<T, SummaryDecodeError>;

fn put_strs(w: &mut ByteWriter, v: &[String]) {
    w.u32(v.len() as u32);
    for s in v {
        w.str(s);
    }
}

fn put_span(w: &mut ByteWriter, span: Span, base: u32) {
    w.u32(span.lo.saturating_sub(base));
    w.u32(span.hi.saturating_sub(base));
}

fn strs(r: &mut ByteReader<'_>) -> DecodeResult<Vec<String>> {
    let n = r.count(4)?;
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        v.push(r.str()?.to_owned());
    }
    Ok(v)
}

/// Reads a span and rebases it onto `base`. The checksum is not a MAC,
/// so a forged span may overflow or end before it starts.
fn span(r: &mut ByteReader<'_>, base: u32) -> DecodeResult<Span> {
    let lo = base.checked_add(r.u32()?);
    let hi = base.checked_add(r.u32()?);
    match (lo, hi) {
        (Some(lo), Some(hi)) if lo <= hi => Ok(Span::new(lo, hi)),
        _ => Err(SummaryDecodeError::Malformed("span")),
    }
}

/// Serializes one unit summary with spans stored relative to `base`
/// (the stream's carve start; pass 0 for absolute spans).
pub fn encode_summary(s: &UnitSummary, base: u32) -> Vec<u8> {
    let mut w = ENVELOPE.writer(SUMMARY_FORMAT_VERSION, 36);
    w.str(&s.unit);
    w.u32(s.acquires.len() as u32);
    for a in &s.acquires {
        put_strs(&mut w, &a.held);
        w.str(&a.lock);
        put_span(&mut w, a.span, base);
    }
    w.u32(s.calls.len() as u32);
    for c in &s.calls {
        put_strs(&mut w, &c.held);
        w.str(&c.callee);
        put_span(&mut w, c.span, base);
    }
    ENVELOPE.seal(w)
}

/// Deserializes a summary, validating magic, checksum and version, and
/// rebasing every span onto `base`. Never panics on malformed input.
pub fn decode_summary(bytes: &[u8], base: u32) -> DecodeResult<UnitSummary> {
    let mut r = ENVELOPE.open(bytes, SUMMARY_FORMAT_VERSION)?;
    let unit = r.str()?.to_owned();
    let n_acquires = r.count(4 + 4 + 8)?;
    let mut acquires = Vec::with_capacity(n_acquires);
    for _ in 0..n_acquires {
        let held = strs(&mut r)?;
        let lock = r.str()?.to_owned();
        let span = span(&mut r, base)?;
        acquires.push(LockAcquire { held, lock, span });
    }
    let n_calls = r.count(4 + 4 + 8)?;
    let mut calls = Vec::with_capacity(n_calls);
    for _ in 0..n_calls {
        let held = strs(&mut r)?;
        let callee = r.str()?.to_owned();
        let span = span(&mut r, base)?;
        calls.push(CallSite { held, callee, span });
    }
    if !r.is_done() {
        return Err(SummaryDecodeError::Malformed("trailing bytes"));
    }
    Ok(UnitSummary {
        unit,
        acquires,
        calls,
        from_cache: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> UnitSummary {
        UnitSummary {
            unit: String::from("M.P"),
            acquires: vec![LockAcquire {
                held: vec![String::from("muA")],
                lock: String::from("muB"),
                span: Span::new(110, 140),
            }],
            calls: vec![CallSite {
                held: vec![String::from("muA"), String::from("muB")],
                callee: String::from("Q"),
                span: Span::new(120, 121),
            }],
            from_cache: false,
        }
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let s = sample();
        let bytes = encode_summary(&s, 0);
        let back = decode_summary(&bytes, 0).expect("roundtrip");
        assert_eq!(back, s);
    }

    #[test]
    fn spans_rebase_through_base() {
        // Encode relative to carve start 100, splice back at 250.
        let s = sample();
        let bytes = encode_summary(&s, 100);
        let back = decode_summary(&bytes, 250).expect("roundtrip");
        assert_eq!(back.acquires[0].span, Span::new(260, 290));
        assert_eq!(back.calls[0].span, Span::new(270, 271));
    }

    #[test]
    fn summary_version_1_mismatch_invalidates() {
        // Guard: SUMMARY_FORMAT_VERSION must change in lockstep with the
        // encoding, and a version mismatch must read as a cache miss.
        // When bumping the constant, rename this test to the new version
        // after confirming old-format blobs are rejected.
        assert_eq!(SUMMARY_FORMAT_VERSION, 1);
        let bytes = encode_summary(&sample(), 0);
        // Forge a blob claiming the next version, checksum recomputed so
        // only the version check can reject it.
        let mut forged = bytes[..bytes.len() - 16].to_vec();
        let at = MAGIC.len();
        forged[at..at + 4].copy_from_slice(&(SUMMARY_FORMAT_VERSION + 1).to_le_bytes());
        let checksum = ENVELOPE.checksum(&forged);
        forged.extend_from_slice(&checksum.hi.to_le_bytes());
        forged.extend_from_slice(&checksum.lo.to_le_bytes());
        assert_eq!(
            decode_summary(&forged, 0),
            Err(SummaryDecodeError::Version {
                found: SUMMARY_FORMAT_VERSION + 1
            })
        );
    }

    #[test]
    fn every_corruption_is_detected() {
        let bytes = encode_summary(&sample(), 0);
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(
                decode_summary(&bad, 0).is_err(),
                "flip at byte {i} went undetected"
            );
        }
        for len in 0..bytes.len() {
            assert!(
                decode_summary(&bytes[..len], 0).is_err(),
                "truncation to {len} went undetected"
            );
        }
    }

    #[test]
    fn forged_spans_are_rejected_without_panicking() {
        for (lo, hi, base) in [(10, 5, 0), (u32::MAX, u32::MAX, 1)] {
            let mut w = ENVELOPE.writer(SUMMARY_FORMAT_VERSION, 0);
            w.str("M.P");
            w.u32(1); // one acquire
            w.u32(0); // nothing held
            w.str("mu");
            w.u32(lo);
            w.u32(hi);
            w.u32(0); // no calls
            assert_eq!(
                decode_summary(&ENVELOPE.seal(w), base),
                Err(SummaryDecodeError::Malformed("span"))
            );
        }
    }

    #[test]
    fn empty_summary_roundtrips() {
        let s = UnitSummary::new("M");
        let back = decode_summary(&encode_summary(&s, 0), 0).expect("roundtrip");
        assert_eq!(back, s);
    }
}
