//! The one codec behind every `CCM2*` byte format: cache entries
//! (INCR), lock summaries (LOCK), delta batches (DELT), store
//! snapshots (SNAP), replica logs (RLOG), membership images (MBRS) and
//! fabric frames (WIRE) all share one shape:
//!
//! ```text
//! magic 8 bytes | version u32 LE | body | checksum: Fp128 of everything before it
//! ```
//!
//! [`Envelope`] seals and opens that shape. Each format names its own
//! checksum domain (or none, for the untagged `Fp128::of` of INCR and
//! LOCK). [`ByteWriter`] and [`ByteReader`] encode the body:
//! little-endian integers, `Fp128`s, and `u32`-length-prefixed bytes
//! and strings, read with bounds checks. [`ImageDir`] is the durable
//! half: numbered images written crash-atomically ([`write_atomic`])
//! and loaded newest-valid-first, with damaged ones quarantined.
//!
//! The checksum is an integrity check, not a MAC: anyone can forge a
//! valid trailer. So no decoder trusts a count from its input:
//! [`ByteReader::count`] bounds every preallocation by the bytes left.

use std::fs;
use std::io::{self, Write as _};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};

use crate::hash::{Fp128, StableHasher};

/// A format's magic, checksum domain and framing; see the module docs.
#[derive(Clone, Copy, Debug)]
pub struct Envelope {
    magic: &'static [u8; 8],
    domain: Option<&'static str>,
}

/// Why decoding failed. [`Envelope::open`] checks for the first four,
/// in order; [`ByteReader`] reads fail with the last three.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// Shorter than magic + version + checksum.
    TooShort,
    /// The magic bytes are not this format's.
    BadMagic,
    /// The trailer does not match the bytes before it.
    Checksum,
    /// Written by another version of the format.
    Version {
        /// The version found.
        found: u32,
    },
    /// A read ran past the end of the body.
    OutOfBounds,
    /// A string was not UTF-8.
    Utf8,
    /// A value outside its domain (a bad tag or boolean byte), or bytes
    /// left over after the last field.
    Invalid,
}

impl Envelope {
    /// Bytes outside the body: magic, version and checksum trailer.
    const OVERHEAD: usize = 8 + 4 + 16;

    /// A format whose checksum is seeded with `domain`, or is plain
    /// `Fp128::of` without one (INCR and LOCK).
    pub const fn new(magic: &'static [u8; 8], domain: Option<&'static str>) -> Envelope {
        Envelope { magic, domain }
    }

    /// The format's checksum over `bytes`.
    pub fn checksum(&self, bytes: &[u8]) -> Fp128 {
        let Some(domain) = self.domain else {
            return Fp128::of(bytes);
        };
        let mut h = StableHasher::new();
        h.write_str(domain);
        h.write(bytes);
        h.finish()
    }

    /// Starts a message: a writer holding the magic and `version`, with
    /// room for `body` more bytes.
    pub fn writer(&self, version: u32, body: usize) -> ByteWriter {
        let mut w = ByteWriter {
            buf: Vec::with_capacity(Envelope::OVERHEAD + body),
        };
        w.raw(self.magic);
        w.u32(version);
        w
    }

    /// Appends the checksum trailer and returns the finished bytes.
    pub fn seal(&self, w: ByteWriter) -> Vec<u8> {
        let mut buf = w.buf;
        let sum = self.checksum(&buf);
        buf.extend_from_slice(&sum.hi.to_le_bytes());
        buf.extend_from_slice(&sum.lo.to_le_bytes());
        buf
    }

    /// Checks length, magic, checksum and `version`, in that order, and
    /// returns a reader over the body.
    pub fn open<'a>(&self, buf: &'a [u8], version: u32) -> Result<ByteReader<'a>, CodecError> {
        if buf.len() < Envelope::OVERHEAD {
            return Err(CodecError::TooShort);
        }
        let (body, trailer) = buf.split_at(buf.len() - 16);
        if &body[..8] != self.magic {
            return Err(CodecError::BadMagic);
        }
        if ByteReader::new(trailer).fp() != Ok(self.checksum(body)) {
            return Err(CodecError::Checksum);
        }
        let mut r = ByteReader { buf: body, pos: 8 };
        match r.u32()? {
            found if found == version => Ok(r),
            found => Err(CodecError::Version { found }),
        }
    }
}

/// Little-endian field writer; see the module docs.
#[derive(Clone, Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Appends one byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a boolean as one byte, 0 or 1.
    #[inline]
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Appends a `u32`.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i64`.
    #[inline]
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a fingerprint, `hi` then `lo`.
    #[inline]
    pub fn fp(&mut self, fp: Fp128) {
        self.u64(fp.hi);
        self.u64(fp.lo);
    }

    /// Appends `bytes` with a `u32` length prefix.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.u32(bytes.len() as u32);
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a string with a `u32` length prefix.
    #[inline]
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// Appends `bytes` verbatim, with no length prefix.
    #[inline]
    fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked little-endian field reader; see the module docs.
#[derive(Clone, Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if n > self.remaining() {
            return Err(CodecError::OutOfBounds);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let mut a = [0; N];
        a.copy_from_slice(self.take(N)?);
        Ok(a)
    }

    /// Reads one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a boolean byte; anything but 0 or 1 is [`CodecError::Invalid`].
    #[inline]
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Invalid),
        }
    }

    /// Reads a `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Reads a `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Reads an `i64`.
    #[inline]
    pub fn i64(&mut self) -> Result<i64, CodecError> {
        Ok(i64::from_le_bytes(self.array()?))
    }

    /// Reads a fingerprint, `hi` then `lo`.
    #[inline]
    pub fn fp(&mut self) -> Result<Fp128, CodecError> {
        Ok(Fp128 {
            hi: self.u64()?,
            lo: self.u64()?,
        })
    }

    /// Reads `u32`-length-prefixed bytes.
    #[inline]
    pub fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    /// Reads a `u32`-length-prefixed UTF-8 string.
    #[inline]
    pub fn str(&mut self) -> Result<&'a str, CodecError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| CodecError::Utf8)
    }

    /// Reads a `u32` element count, refusing any count whose elements
    /// (each at least `min_len` bytes) could not fit in what is left.
    /// The result is safe to pass to `Vec::with_capacity`: it is
    /// bounded by the input's length, whatever the input claims.
    #[inline]
    pub fn count(&mut self, min_len: usize) -> Result<usize, CodecError> {
        let n = self.u32()? as usize;
        if n > self.remaining() / min_len.max(1) {
            return Err(CodecError::OutOfBounds);
        }
        Ok(n)
    }

    /// Bytes not yet read.
    #[inline]
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been read.
    #[inline]
    pub fn is_done(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Fails with [`CodecError::Invalid`] unless every byte has been
    /// read: trailing bytes mean a framing bug or tampering.
    #[inline]
    pub fn end(&self) -> Result<(), CodecError> {
        if self.is_done() {
            Ok(())
        } else {
            Err(CodecError::Invalid)
        }
    }
}

/// A durable image format kept in an [`ImageDir`].
pub trait ImageFormat {
    /// File-name prefix: images are named `{PREFIX}-{seq:08}.img`.
    const PREFIX: &'static str;
    /// How many images survive a save, the new one included; `None`
    /// keeps every image.
    const KEEP: Option<usize>;
    /// What a save encodes.
    type Source: ?Sized;
    /// What a load yields.
    type Value;
    /// Encodes one image.
    fn encode(source: &Self::Source) -> Vec<u8>;
    /// Decodes and fully validates one image; an error quarantines it.
    fn decode(bytes: &[u8]) -> Result<Self::Value, CodecError>;
}

/// What [`ImageDir::load_latest`] found.
#[derive(Debug)]
pub struct Loaded<T> {
    /// The newest valid image; `None` when no image validates (a fresh
    /// directory, or every image damaged).
    pub value: Option<T>,
    /// Images that failed validation and were quarantined by this call.
    pub quarantined: Vec<PathBuf>,
}

/// A directory of numbered images of one [`ImageFormat`], plus their
/// quarantine; see the module docs.
#[derive(Debug)]
pub struct ImageDir<F> {
    dir: PathBuf,
    format: PhantomData<fn() -> F>,
}

impl<F: ImageFormat> ImageDir<F> {
    /// Opens (creating if needed) an image directory.
    pub fn new(dir: impl Into<PathBuf>) -> io::Result<ImageDir<F>> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(ImageDir {
            dir,
            format: PhantomData,
        })
    }

    /// `(sequence, path)` of every image present, ascending.
    pub fn images(&self) -> io::Result<Vec<(u64, PathBuf)>> {
        let mut v = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            if let Some(seq) = name
                .to_string_lossy()
                .strip_prefix(F::PREFIX)
                .and_then(|r| r.strip_prefix('-'))
                .and_then(|r| r.strip_suffix(".img"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                v.push((seq, entry.path()));
            }
        }
        v.sort();
        Ok(v)
    }

    /// Writes the next image of `source` with [`write_atomic`], prunes
    /// to [`ImageFormat::KEEP`], and returns the new image's path.
    pub fn save(&self, source: &F::Source) -> io::Result<PathBuf> {
        let existing = self.images()?;
        let seq = existing.last().map_or(1, |(s, _)| s + 1);
        let prefix = F::PREFIX;
        let path = self.dir.join(format!("{prefix}-{seq:08}.img"));
        let tmp = self
            .dir
            .join(format!(".{prefix}-{seq:08}.{}.tmp", std::process::id()));
        write_atomic(&tmp, &path, &F::encode(source))?;
        if let Some(keep) = F::KEEP {
            for (_, old) in existing.iter().rev().skip(keep.saturating_sub(1)) {
                let _ = fs::remove_file(old);
            }
        }
        Ok(path)
    }

    /// Loads the newest valid image, quarantining every damaged one
    /// found on the way down.
    pub fn load_latest(&self) -> io::Result<Loaded<F::Value>> {
        let mut quarantined = Vec::new();
        for (_, path) in self.images()?.into_iter().rev() {
            if let Ok(value) = F::decode(&fs::read(&path)?) {
                return Ok(Loaded {
                    value: Some(value),
                    quarantined,
                });
            }
            quarantined.push(quarantine(&self.dir, &path)?);
        }
        Ok(Loaded {
            value: None,
            quarantined,
        })
    }

    /// Number of quarantined files currently on disk.
    pub fn quarantined_count(&self) -> usize {
        quarantined_count(&self.dir)
    }
}

/// Writes `bytes` to `dest` crash-atomically: into `tmp` (which must be
/// on the same filesystem), synced to disk, then renamed over `dest`.
/// A crash leaves either the old `dest` or the complete new one. On
/// failure `tmp` is removed.
pub fn write_atomic(tmp: &Path, dest: &Path, bytes: &[u8]) -> io::Result<()> {
    let write = || -> io::Result<()> {
        let mut f = fs::File::create(tmp)?;
        f.write_all(bytes)?;
        // A filesystem that cannot sync still gets the atomic rename.
        f.sync_data().ok();
        fs::rename(tmp, dest)
    };
    let result = write();
    if result.is_err() {
        let _ = fs::remove_file(tmp);
    }
    result
}

/// The quarantine subdirectory of `dir`.
pub fn quarantine_dir(dir: &Path) -> PathBuf {
    dir.join("quarantine")
}

/// Moves `file` into the quarantine of `dir`, keeping its name, and
/// returns its new path.
pub fn quarantine(dir: &Path, file: &Path) -> io::Result<PathBuf> {
    let qdir = quarantine_dir(dir);
    fs::create_dir_all(&qdir)?;
    let name = file.file_name().ok_or(io::ErrorKind::InvalidInput)?;
    let dest = qdir.join(name);
    fs::rename(file, &dest)?;
    Ok(dest)
}

/// Number of files in the quarantine of `dir`.
pub fn quarantined_count(dir: &Path) -> usize {
    fs::read_dir(quarantine_dir(dir)).map_or(0, |rd| rd.count())
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEMO: Envelope = Envelope::new(b"CCM2TEST", Some("ccm2-test/v1"));

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ccm2-codec-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fields_round_trip() {
        let mut w = DEMO.writer(7, 0);
        w.u8(9);
        w.bool(true);
        w.u32(u32::MAX);
        w.u64(1 << 40);
        w.i64(-5);
        w.fp(Fp128 { hi: 1, lo: 2 });
        w.bytes(b"raw");
        w.str("text");
        let bytes = DEMO.seal(w);
        let mut r = DEMO.open(&bytes, 7).unwrap();
        assert_eq!(r.u8(), Ok(9));
        assert_eq!(r.bool(), Ok(true));
        assert_eq!(r.u32(), Ok(u32::MAX));
        assert_eq!(r.u64(), Ok(1 << 40));
        assert_eq!(r.i64(), Ok(-5));
        assert_eq!(r.fp(), Ok(Fp128 { hi: 1, lo: 2 }));
        assert_eq!(r.bytes(), Ok(&b"raw"[..]));
        assert_eq!(r.str(), Ok("text"));
        assert!(r.is_done());
        assert_eq!(r.u8(), Err(CodecError::OutOfBounds));
    }

    #[test]
    fn open_checks_length_then_magic_then_checksum_then_version() {
        let bytes = DEMO.seal(DEMO.writer(1, 0));
        assert!(DEMO.open(&bytes, 1).is_ok());
        assert_eq!(DEMO.open(&bytes[1..], 1).err(), Some(CodecError::TooShort));
        let other = Envelope::new(b"CCM2OTHR", Some("ccm2-test/v1"));
        assert_eq!(other.open(&bytes, 1).err(), Some(CodecError::BadMagic));
        let untagged = Envelope::new(b"CCM2TEST", None);
        assert_eq!(untagged.open(&bytes, 1).err(), Some(CodecError::Checksum));
        assert_eq!(
            DEMO.open(&bytes, 2).err(),
            Some(CodecError::Version { found: 1 })
        );
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x08;
            assert!(DEMO.open(&bad, 1).is_err(), "flip at byte {i} undetected");
        }
    }

    #[test]
    fn counts_are_bounded_by_the_input() {
        let mut w = ByteWriter::default();
        w.u32(u32::MAX);
        w.raw(&[0; 8]);
        let bytes = w.into_bytes();
        assert_eq!(
            ByteReader::new(&bytes).count(1),
            Err(CodecError::OutOfBounds)
        );
        let mut w = ByteWriter::default();
        w.u32(2);
        w.raw(&[0; 8]);
        let bytes = w.into_bytes();
        assert_eq!(ByteReader::new(&bytes).count(4), Ok(2));
        assert_eq!(
            ByteReader::new(&bytes).count(5),
            Err(CodecError::OutOfBounds)
        );
    }

    #[derive(Debug)]
    struct Note;

    impl ImageFormat for Note {
        const PREFIX: &'static str = "note";
        const KEEP: Option<usize> = Some(2);
        type Source = str;
        type Value = String;
        fn encode(text: &str) -> Vec<u8> {
            let mut w = DEMO.writer(1, text.len() + 4);
            w.str(text);
            DEMO.seal(w)
        }
        fn decode(bytes: &[u8]) -> Result<String, CodecError> {
            let mut r = DEMO.open(bytes, 1)?;
            let text = r.str()?.to_owned();
            r.end()?;
            Ok(text)
        }
    }

    #[test]
    fn image_dir_prunes_quarantines_and_falls_back() {
        let dir = tmp_dir("images");
        let images = ImageDir::<Note>::new(&dir).unwrap();
        assert!(images.load_latest().unwrap().value.is_none(), "cold start");
        for text in ["one", "two", "three"] {
            images.save(text).unwrap();
        }
        let seqs: Vec<u64> = images.images().unwrap().iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![2, 3], "pruned to newest plus one fallback");
        fs::write(dir.join("note-00000004.img"), b"torn").unwrap();
        let loaded = images.load_latest().unwrap();
        assert_eq!(loaded.value.as_deref(), Some("three"));
        assert_eq!(loaded.quarantined.len(), 1);
        assert_eq!(images.quarantined_count(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_atomic_write_leaves_no_temp_file() {
        let dir = tmp_dir("atomic");
        fs::create_dir_all(dir.join("target.img")).unwrap();
        fs::write(dir.join("target.img").join("keep"), b"x").unwrap();
        let tmp = dir.join(".target.tmp");
        assert!(write_atomic(&tmp, &dir.join("target.img"), b"bytes").is_err());
        assert!(!tmp.exists(), "temp file removed after a failed rename");
        write_atomic(&tmp, &dir.join("ok.img"), b"bytes").unwrap();
        assert_eq!(fs::read(dir.join("ok.img")).unwrap(), b"bytes");
        assert!(!tmp.exists());
        let _ = fs::remove_dir_all(&dir);
    }
}
