//! Versioned, checksummed, interner-independent cache-entry encoding.
//!
//! [`ccm2_support::Symbol`]s are run-local indices, so an on-disk entry
//! must never contain one: every symbol is written as its resolved string
//! and re-interned into the *current* run's interner at decode time.
//! Layout (all integers little-endian, strings length-prefixed UTF-8):
//!
//! ```text
//! magic "CCM2INCR" · version u32 · payload · checksum Fp128
//! ```
//!
//! The trailing checksum covers everything before it, so a truncated or
//! bit-flipped file fails [`decode_entry`] before any field is trusted;
//! the driver degrades such entries to cache misses. Bump
//! [`FORMAT_VERSION`] whenever the payload layout changes — old entries
//! then fail with [`DecodeError::Version`] instead of misdecoding, and
//! `ci.sh` insists on a `version_<N>_…` invalidation test matching the
//! constant.

use ccm2_codegen::ir::{CodeUnit, Instr, Shape};
use ccm2_codegen::merge::ModuleImage;
use ccm2_sema::builtins::Builtin;
use ccm2_support::codec::{ByteReader, ByteWriter, CodecError, Envelope};
use ccm2_support::{Interner, Severity, Symbol};

/// On-disk format version. See the module docs before touching this.
/// v2: added the opaque interprocedural lock-summary blob (`summary`).
pub const FORMAT_VERSION: u32 = 2;

const MAGIC: &[u8; 8] = b"CCM2INCR";
const ENVELOPE: Envelope = Envelope::new(MAGIC, None);

/// A diagnostic recorded for replay, with spans relative to the stream's
/// carve start (offsets shift between edits; content does not).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CachedDiag {
    /// Severity class.
    pub severity: Severity,
    /// `span.lo - carve.lo` at record time.
    pub rel_lo: u32,
    /// `span.hi - carve.lo` at record time.
    pub rel_hi: u32,
    /// The message, verbatim.
    pub message: String,
}

/// Everything a cache hit must reproduce for one stream: the code unit,
/// the diagnostics its tasks would have reported, and the lint data (the
/// unit's used-name set feeds the whole-module unused-import check, and
/// `findings` keeps lint counts exact in reports).
#[derive(Clone, Debug, PartialEq)]
pub struct CacheEntryData {
    /// The compiled unit.
    pub unit: CodeUnit,
    /// Diagnostics to replay, carve-relative.
    pub diags: Vec<CachedDiag>,
    /// Resolved names the unit's analysis marked as used (sorted).
    pub used: Vec<String>,
    /// Lint findings the unit's analysis reported.
    pub findings: u32,
    /// The unit's interprocedural lock summary, in the self-validating
    /// `ccm2-analysis` wire format (`summary::encode_summary`, spans
    /// carve-relative). Opaque here: this crate never interprets it, the
    /// driver decodes it at splice time. Empty when analysis was off.
    pub summary: Vec<u8>,
}

/// Why an entry failed to decode. All variants are handled identically by
/// the driver (degrade to a miss + note); they are distinguished for
/// tests and the corruption diagnostic's message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// Shorter than magic + version + checksum.
    TooShort,
    /// Magic bytes absent — not a cache entry at all.
    BadMagic,
    /// Written by a different format version.
    Version {
        /// The version found in the entry.
        found: u32,
    },
    /// Checksum mismatch: truncated or bit-flipped payload.
    Checksum,
    /// Structurally invalid payload (should be unreachable once the
    /// checksum passes, but decoding stays total anyway).
    Malformed(&'static str),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::TooShort => write!(f, "entry too short"),
            DecodeError::BadMagic => write!(f, "bad magic"),
            DecodeError::Version { found } => {
                write!(f, "format version {found} (expected {FORMAT_VERSION})")
            }
            DecodeError::Checksum => write!(f, "checksum mismatch"),
            DecodeError::Malformed(what) => write!(f, "malformed {what}"),
        }
    }
}

impl From<CodecError> for DecodeError {
    fn from(e: CodecError) -> DecodeError {
        match e {
            CodecError::TooShort => DecodeError::TooShort,
            CodecError::BadMagic => DecodeError::BadMagic,
            CodecError::Checksum => DecodeError::Checksum,
            CodecError::Version { found } => DecodeError::Version { found },
            CodecError::Utf8 => DecodeError::Malformed("utf-8 string"),
            CodecError::OutOfBounds | CodecError::Invalid => DecodeError::Malformed("length"),
        }
    }
}

fn put_sym(w: &mut ByteWriter, s: Symbol, interner: &Interner) {
    w.str(&interner.resolve(s));
}

#[inline]
fn sym(r: &mut ByteReader<'_>, interner: &Interner) -> Result<Symbol, DecodeError> {
    Ok(interner.intern(r.str()?))
}

fn write_shape(w: &mut ByteWriter, shape: &Shape) {
    match shape {
        Shape::Int => w.u8(0),
        Shape::Real => w.u8(1),
        Shape::Bool => w.u8(2),
        Shape::Char => w.u8(3),
        Shape::Set => w.u8(4),
        Shape::Ptr => w.u8(5),
        Shape::ProcVal => w.u8(6),
        Shape::Str => w.u8(7),
        Shape::Addr => w.u8(8),
        Shape::Array(elem, len) => {
            w.u8(9);
            write_shape(w, elem);
            w.u32(*len);
        }
        Shape::Record(fields) => {
            w.u8(10);
            w.u32(fields.len() as u32);
            for f in fields {
                write_shape(w, f);
            }
        }
    }
}

fn read_shape(r: &mut ByteReader<'_>, depth: u32) -> Result<Shape, DecodeError> {
    if depth > 64 {
        return Err(DecodeError::Malformed("shape nesting"));
    }
    Ok(match r.u8()? {
        0 => Shape::Int,
        1 => Shape::Real,
        2 => Shape::Bool,
        3 => Shape::Char,
        4 => Shape::Set,
        5 => Shape::Ptr,
        6 => Shape::ProcVal,
        7 => Shape::Str,
        8 => Shape::Addr,
        9 => {
            let elem = read_shape(r, depth + 1)?;
            Shape::Array(Box::new(elem), r.u32()?)
        }
        10 => {
            let n = r.count(1)?;
            let mut fields = Vec::with_capacity(n);
            for _ in 0..n {
                fields.push(read_shape(r, depth + 1)?);
            }
            Shape::Record(fields)
        }
        _ => return Err(DecodeError::Malformed("shape tag")),
    })
}

fn builtin_name(b: Builtin) -> &'static str {
    Builtin::ALL
        .iter()
        .find(|(_, known)| *known == b)
        .map(|(name, _)| *name)
        .unwrap_or("?")
}

fn builtin_by_name(name: &str) -> Option<Builtin> {
    Builtin::ALL
        .iter()
        .find(|(known, _)| *known == name)
        .map(|(_, b)| *b)
}

fn write_instr(w: &mut ByteWriter, instr: &Instr, interner: &Interner) {
    match instr {
        Instr::PushInt(v) => {
            w.u8(0);
            w.i64(*v);
        }
        Instr::PushReal(bits) => {
            w.u8(1);
            w.u64(*bits);
        }
        Instr::PushBool(v) => {
            w.u8(2);
            w.u8(u8::from(*v));
        }
        Instr::PushChar(c) => {
            w.u8(3);
            w.u8(*c);
        }
        Instr::PushStr(s) => {
            w.u8(4);
            put_sym(w, *s, interner);
        }
        Instr::PushNil => w.u8(5),
        Instr::PushSet(bits) => {
            w.u8(6);
            w.u64(*bits);
        }
        Instr::PushProc(s) => {
            w.u8(7);
            put_sym(w, *s, interner);
        }
        Instr::PushAddr { level_up, slot } => {
            w.u8(8);
            w.u32(*level_up);
            w.u32(*slot);
        }
        Instr::PushGlobalAddr { module, slot } => {
            w.u8(9);
            put_sym(w, *module, interner);
            w.u32(*slot);
        }
        Instr::AddrField(ix) => {
            w.u8(10);
            w.u32(*ix);
        }
        Instr::AddrIndex { lo, len } => {
            w.u8(11);
            w.i64(*lo);
            w.i64(*len);
        }
        Instr::AddrDeref => w.u8(12),
        Instr::Load => w.u8(13),
        Instr::Store => w.u8(14),
        Instr::Dup => w.u8(15),
        Instr::Pop => w.u8(16),
        Instr::Add => w.u8(17),
        Instr::Sub => w.u8(18),
        Instr::Mul => w.u8(19),
        Instr::DivInt => w.u8(20),
        Instr::ModInt => w.u8(21),
        Instr::DivReal => w.u8(22),
        Instr::Neg => w.u8(23),
        Instr::Not => w.u8(24),
        Instr::CmpEq => w.u8(25),
        Instr::CmpNe => w.u8(26),
        Instr::CmpLt => w.u8(27),
        Instr::CmpLe => w.u8(28),
        Instr::CmpGt => w.u8(29),
        Instr::CmpGe => w.u8(30),
        Instr::InSet => w.u8(31),
        Instr::SetIncl => w.u8(32),
        Instr::SetInclRange => w.u8(33),
        Instr::Jump(t) => {
            w.u8(34);
            w.u32(*t);
        }
        Instr::JumpIfFalse(t) => {
            w.u8(35);
            w.u32(*t);
        }
        Instr::JumpIfTrue(t) => {
            w.u8(36);
            w.u32(*t);
        }
        Instr::Call {
            target,
            argc,
            link_up,
        } => {
            w.u8(37);
            put_sym(w, *target, interner);
            w.u32(*argc);
            w.u32(*link_up);
        }
        Instr::CallIndirect { argc } => {
            w.u8(38);
            w.u32(*argc);
        }
        Instr::CallBuiltin { builtin, argc } => {
            w.u8(39);
            w.str(builtin_name(*builtin));
            w.u32(*argc);
        }
        Instr::Return => w.u8(40),
        Instr::ReturnValue => w.u8(41),
        Instr::Halt => w.u8(42),
        Instr::NewCell { shape } => {
            w.u8(43);
            w.u32(*shape);
        }
        Instr::DisposeCell => w.u8(44),
        Instr::Nop => w.u8(45),
    }
}

fn read_instr(r: &mut ByteReader<'_>, interner: &Interner) -> Result<Instr, DecodeError> {
    Ok(match r.u8()? {
        0 => Instr::PushInt(r.i64()?),
        1 => Instr::PushReal(r.u64()?),
        2 => Instr::PushBool(r.u8()? != 0),
        3 => Instr::PushChar(r.u8()?),
        4 => Instr::PushStr(sym(r, interner)?),
        5 => Instr::PushNil,
        6 => Instr::PushSet(r.u64()?),
        7 => Instr::PushProc(sym(r, interner)?),
        8 => Instr::PushAddr {
            level_up: r.u32()?,
            slot: r.u32()?,
        },
        9 => Instr::PushGlobalAddr {
            module: sym(r, interner)?,
            slot: r.u32()?,
        },
        10 => Instr::AddrField(r.u32()?),
        11 => Instr::AddrIndex {
            lo: r.i64()?,
            len: r.i64()?,
        },
        12 => Instr::AddrDeref,
        13 => Instr::Load,
        14 => Instr::Store,
        15 => Instr::Dup,
        16 => Instr::Pop,
        17 => Instr::Add,
        18 => Instr::Sub,
        19 => Instr::Mul,
        20 => Instr::DivInt,
        21 => Instr::ModInt,
        22 => Instr::DivReal,
        23 => Instr::Neg,
        24 => Instr::Not,
        25 => Instr::CmpEq,
        26 => Instr::CmpNe,
        27 => Instr::CmpLt,
        28 => Instr::CmpLe,
        29 => Instr::CmpGt,
        30 => Instr::CmpGe,
        31 => Instr::InSet,
        32 => Instr::SetIncl,
        33 => Instr::SetInclRange,
        34 => Instr::Jump(r.u32()?),
        35 => Instr::JumpIfFalse(r.u32()?),
        36 => Instr::JumpIfTrue(r.u32()?),
        37 => Instr::Call {
            target: sym(r, interner)?,
            argc: r.u32()?,
            link_up: r.u32()?,
        },
        38 => Instr::CallIndirect { argc: r.u32()? },
        39 => {
            let name = r.str()?;
            let builtin = builtin_by_name(name).ok_or(DecodeError::Malformed("builtin name"))?;
            Instr::CallBuiltin {
                builtin,
                argc: r.u32()?,
            }
        }
        40 => Instr::Return,
        41 => Instr::ReturnValue,
        42 => Instr::Halt,
        43 => Instr::NewCell { shape: r.u32()? },
        44 => Instr::DisposeCell,
        45 => Instr::Nop,
        _ => return Err(DecodeError::Malformed("instruction tag")),
    })
}

fn write_unit(w: &mut ByteWriter, unit: &CodeUnit, interner: &Interner) {
    put_sym(w, unit.name, interner);
    w.u32(unit.level);
    w.u32(unit.param_count);
    w.u32(unit.frame.len() as u32);
    for s in &unit.frame {
        write_shape(w, s);
    }
    w.u32(unit.shapes.len() as u32);
    for s in &unit.shapes {
        write_shape(w, s);
    }
    w.u32(unit.code.len() as u32);
    for i in &unit.code {
        write_instr(w, i, interner);
    }
}

fn read_unit(r: &mut ByteReader<'_>, interner: &Interner) -> Result<CodeUnit, DecodeError> {
    let name = sym(r, interner)?;
    let level = r.u32()?;
    let param_count = r.u32()?;
    let read_shapes = |r: &mut ByteReader<'_>| -> Result<Vec<Shape>, DecodeError> {
        let n = r.count(1)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(read_shape(r, 0)?);
        }
        Ok(v)
    };
    let frame = read_shapes(r)?;
    let shapes = read_shapes(r)?;
    let n = r.count(1)?;
    let mut code = Vec::with_capacity(n);
    for _ in 0..n {
        code.push(read_instr(r, interner)?);
    }
    Ok(CodeUnit {
        name,
        level,
        param_count,
        frame,
        shapes,
        code,
    })
}

/// Serializes a cache entry (see the module docs for the layout).
pub fn encode_entry(entry: &CacheEntryData, interner: &Interner) -> Vec<u8> {
    let mut w = ENVELOPE.writer(FORMAT_VERSION, 0);
    write_unit(&mut w, &entry.unit, interner);
    w.u32(entry.diags.len() as u32);
    for d in &entry.diags {
        w.u8(match d.severity {
            Severity::Note => 0,
            Severity::Warning => 1,
            Severity::Error => 2,
        });
        w.u32(d.rel_lo);
        w.u32(d.rel_hi);
        w.str(&d.message);
    }
    w.u32(entry.used.len() as u32);
    for name in &entry.used {
        w.str(name);
    }
    w.u32(entry.findings);
    w.bytes(&entry.summary);
    ENVELOPE.seal(w)
}

/// Deserializes a cache entry, validating magic, version and checksum
/// before trusting any field. Symbols are interned into `interner`.
pub fn decode_entry(bytes: &[u8], interner: &Interner) -> Result<CacheEntryData, DecodeError> {
    let mut r = ENVELOPE.open(bytes, FORMAT_VERSION)?;
    let unit = read_unit(&mut r, interner)?;
    let n = r.count(13)?;
    let mut diags = Vec::with_capacity(n);
    for _ in 0..n {
        let severity = match r.u8()? {
            0 => Severity::Note,
            1 => Severity::Warning,
            2 => Severity::Error,
            _ => return Err(DecodeError::Malformed("severity")),
        };
        diags.push(CachedDiag {
            severity,
            rel_lo: r.u32()?,
            rel_hi: r.u32()?,
            message: r.str()?.to_owned(),
        });
    }
    let n = r.count(4)?;
    let mut used = Vec::with_capacity(n);
    for _ in 0..n {
        used.push(r.str()?.to_owned());
    }
    let findings = r.u32()?;
    let summary = r.bytes()?.to_vec();
    if !r.is_done() {
        return Err(DecodeError::Malformed("trailing bytes"));
    }
    Ok(CacheEntryData {
        unit,
        diags,
        used,
        findings,
        summary,
    })
}

/// Encodes a whole [`ModuleImage`] with the same interner-independent
/// conventions as cache entries. Two images encode to the same bytes iff
/// they are semantically identical, regardless of which interner (or
/// symbol-registration order) produced them — the basis of the
/// warm-vs-cold byte-identity tests.
pub fn encode_image(image: &ModuleImage, interner: &Interner) -> Vec<u8> {
    let mut w = ByteWriter::default();
    put_sym(&mut w, image.name, interner);
    put_sym(&mut w, image.entry, interner);
    w.u32(image.units.len() as u32);
    for unit in &image.units {
        write_unit(&mut w, unit, interner);
    }
    w.u32(image.globals.len() as u32);
    for g in &image.globals {
        put_sym(&mut w, g.module, interner);
        w.u32(g.slots.len() as u32);
        for s in &g.slots {
            write_shape(&mut w, s);
        }
    }
    w.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_entry(interner: &Interner) -> CacheEntryData {
        let name = interner.intern("M.P");
        let callee = interner.intern("M.Q");
        let unit = CodeUnit {
            name,
            level: 1,
            param_count: 2,
            frame: vec![
                Shape::Int,
                Shape::Addr,
                Shape::Array(Box::new(Shape::Record(vec![Shape::Int, Shape::Real])), 4),
            ],
            shapes: vec![Shape::Record(vec![Shape::Ptr])],
            code: vec![
                Instr::PushInt(-7),
                Instr::PushStr(interner.intern("hello")),
                Instr::PushGlobalAddr {
                    module: interner.intern("Lib0"),
                    slot: 3,
                },
                Instr::Call {
                    target: callee,
                    argc: 2,
                    link_up: u32::MAX,
                },
                Instr::CallBuiltin {
                    builtin: Builtin::WriteLn,
                    argc: 0,
                },
                Instr::NewCell { shape: 0 },
                Instr::ReturnValue,
            ],
        };
        CacheEntryData {
            unit,
            diags: vec![CachedDiag {
                severity: Severity::Warning,
                rel_lo: 10,
                rel_hi: 14,
                message: "local variable `l9` is never used".into(),
            }],
            used: vec!["Lib0".into(), "Q".into()],
            findings: 1,
            // Opaque to this crate; any bytes round-trip.
            summary: vec![0xCC, 0x4D, 0x32, 0x4C],
        }
    }

    #[test]
    fn round_trip_through_a_fresh_interner() {
        let a = Interner::new();
        let entry = sample_entry(&a);
        let bytes = encode_entry(&entry, &a);

        // Decode into a *different* interner whose indices cannot match.
        let b = Interner::new();
        b.intern("decoy0");
        b.intern("decoy1");
        let back = decode_entry(&bytes, &b).expect("round trip");
        assert_eq!(back.diags, entry.diags);
        assert_eq!(back.used, entry.used);
        assert_eq!(back.findings, entry.findings);
        assert_eq!(back.summary, entry.summary);
        assert_eq!(b.resolve(back.unit.name), "M.P");
        assert_eq!(back.unit.frame, entry.unit.frame);
        assert_eq!(back.unit.code.len(), entry.unit.code.len());
        match &back.unit.code[3] {
            Instr::Call {
                target,
                argc,
                link_up,
            } => {
                assert_eq!(b.resolve(*target), "M.Q");
                assert_eq!((*argc, *link_up), (2, u32::MAX));
            }
            other => panic!("expected Call, got {other:?}"),
        }
    }

    #[test]
    fn every_corruption_is_detected() {
        let interner = Interner::new();
        let bytes = encode_entry(&sample_entry(&interner), &interner);
        assert!(decode_entry(&bytes, &interner).is_ok());

        // Flip every single byte in turn: nothing may decode successfully,
        // and (more importantly) nothing may panic.
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(
                decode_entry(&bad, &interner).is_err(),
                "byte {i} flip went undetected"
            );
        }
        // Truncations at every length.
        for n in 0..bytes.len() {
            assert!(decode_entry(&bytes[..n], &interner).is_err());
        }
        assert_eq!(decode_entry(b"", &interner), Err(DecodeError::TooShort));
    }

    #[test]
    fn version_2_mismatch_invalidates_entry() {
        // Forge an otherwise-valid entry claiming a future format version:
        // the checksum is recomputed so only the version check can reject
        // it. This test's name is pinned to FORMAT_VERSION by ci.sh —
        // bumping the constant without writing the new version's
        // invalidation/migration test fails CI.
        assert_eq!(FORMAT_VERSION, 2, "rename this test when bumping");
        let interner = Interner::new();
        let bytes = encode_entry(&sample_entry(&interner), &interner);
        let mut forged = bytes[..bytes.len() - 16].to_vec();
        forged[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        let checksum = ENVELOPE.checksum(&forged);
        forged.extend_from_slice(&checksum.hi.to_le_bytes());
        forged.extend_from_slice(&checksum.lo.to_le_bytes());
        assert_eq!(
            decode_entry(&forged, &interner),
            Err(DecodeError::Version {
                found: FORMAT_VERSION + 1
            })
        );
    }

    #[test]
    fn image_encoding_is_interner_independent() {
        let a = Interner::new();
        let entry = sample_entry(&a);
        let image_a = ModuleImage {
            name: a.intern("M"),
            units: vec![entry.unit.clone()],
            globals: vec![],
            entry: a.intern("M"),
        };
        let enc_a = encode_image(&image_a, &a);

        let b = Interner::new();
        b.intern("shift");
        b.intern("the");
        b.intern("indices");
        let rebuilt = decode_entry(&encode_entry(&entry, &a), &b).expect("decode");
        let image_b = ModuleImage {
            name: b.intern("M"),
            units: vec![rebuilt.unit],
            globals: vec![],
            entry: b.intern("M"),
        };
        assert_eq!(enc_a, encode_image(&image_b, &b));
    }
}
