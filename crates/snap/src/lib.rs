//! # vpr-snap — checkpoint/restore substrate
//!
//! The simulator's snapshot subsystem: a tiny, dependency-free binary
//! serialisation layer (the build environment has no serde) plus the
//! versioned [`Snapshot`] envelope every checkpoint travels in.
//!
//! Every state-holding crate of the workspace implements [`Snap`] for its
//! types; `vpr_core::Processor::snapshot` walks the whole machine —
//! pipeline, reorder buffer, instruction queue, functional units, all four
//! renaming schemes, cache/MSHRs/LSQ/store buffer, branch state, trace
//! generator position and statistics — into one payload, and
//! `Processor::restore` rebuilds a processor that continues **bit-identically**
//! to the uninterrupted run (pinned by `crates/bench/tests/snapshot_roundtrip.rs`).
//!
//! ## Snapshot format
//!
//! A snapshot is a flat little-endian byte stream:
//!
//! ```text
//! [ 8-byte magic "VPRSNAP\0" ][ u32 format version ][ u64 FNV-1a checksum of payload ]
//! [ u64 payload length ][ payload bytes ... ]
//! ```
//!
//! The payload itself is an unframed concatenation of fields in a fixed
//! order — the encoder writes no field names or tags, so the format is
//! compact but **not** self-describing. Sequences are length-prefixed
//! (`u64` count); `Option` is a one-byte presence flag; enums are a
//! one-byte discriminant followed by their fields.
//!
//! ## Versioning rules
//!
//! * [`FORMAT_VERSION`] names the payload layout. **Any** change to what a
//!   `Snap` impl writes — a new field, a reordering, a widened integer —
//!   must bump it; there is no skipping or defaulting of unknown fields.
//! * Readers reject snapshots whose version differs from their own
//!   ([`SnapError::Version`]): cross-version restore is intentionally
//!   unsupported. Snapshots are experiment artefacts (a sampling run, a
//!   checkpointed sweep, a `.vprsnap` checkpoint directory), not an
//!   archival format — regenerating them is always possible and cheap
//!   relative to maintaining decoders for old layouts.
//! * The checksum guards against truncation/corruption in transit
//!   ([`SnapError::Checksum`]); decoding a corrupt payload that passes the
//!   checksum is treated as a logic error and panics.
//!
//! ## `.vprsnap` files and the checkpoint manifest
//!
//! A snapshot written to disk keeps the same envelope byte-for-byte; by
//! convention such files carry the `.vprsnap` extension and live in a
//! *checkpoint directory* next to a `checkpoints.json` manifest
//! ([`manifest::Manifest`]) recording, per artefact, the experiment key it
//! belongs to, the configuration hash it was taken under, the trace cursor
//! it stands at, and the envelope's payload checksum — so stale artefacts
//! are rejected at load rather than silently reused. The full format is
//! documented in `docs/snapshot-format.md`.
//!
//! ## Traits
//!
//! * [`Snap`] — fixed-layout save/load for a state type.
//! * [`Resumable`] — implemented by trace generators: saves the workload
//!   *position* (RNG state, loop cursors) so a checkpoint captures where
//!   the instruction stream stands, and restores it into a freshly built
//!   generator of the same program.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod faults;
pub mod manifest;

use std::collections::VecDeque;
use std::fmt;
use std::io;
use std::path::Path;

/// Magic bytes leading every serialised snapshot.
pub const MAGIC: [u8; 8] = *b"VPRSNAP\0";

/// Payload-layout version. Bump on **any** change to any `Snap` impl's
/// field set or ordering (see the module docs' versioning rules).
pub const FORMAT_VERSION: u32 = 1;

/// Why a snapshot could not be opened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The byte stream does not start with [`MAGIC`].
    Magic,
    /// The snapshot was written by a different [`FORMAT_VERSION`].
    Version {
        /// Version found in the envelope.
        found: u32,
        /// Version this reader supports.
        supported: u32,
    },
    /// The envelope is shorter than its header claims.
    Truncated,
    /// The payload checksum does not match.
    Checksum,
    /// The restore target does not match the snapshot (e.g. a renamer tag
    /// disagreeing with the serialised configuration).
    Mismatch(String),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Magic => write!(f, "not a vpr snapshot (bad magic)"),
            SnapError::Version { found, supported } => write!(
                f,
                "snapshot format v{found} is not readable by this build (supports v{supported})"
            ),
            SnapError::Truncated => write!(f, "snapshot truncated"),
            SnapError::Checksum => write!(f, "snapshot payload checksum mismatch"),
            SnapError::Mismatch(what) => write!(f, "snapshot does not fit restore target: {what}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// FNV-1a over `bytes` — the envelope's corruption guard, public so the
/// checkpoint manifest can record (and later re-derive) configuration
/// hashes and payload checksums without a second hash implementation.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_0000_01b3);
    }
    h
}

// ----------------------------------------------------------------------
// Crash-safe file writes
// ----------------------------------------------------------------------

/// Replaces `path` with `bytes` crash-safely: write a `.tmp` sibling,
/// fsync it, then atomically rename it over the destination. A crash (or
/// an injected [`faults::FaultKind::PartialRename`]) at any point leaves
/// either the complete old file or the complete new file at `path` —
/// never a torn mixture. Every artefact writer in the workspace
/// (`Snapshot::write_to`, the checkpoint manifest) routes through here.
///
/// The rename-based protocol is atomic on POSIX filesystems when the temp
/// file lives in the same directory as the destination, which is why the
/// temp name is `<name>.tmp` next to `path` rather than in a shared
/// scratch directory.
///
/// # Errors
///
/// Propagates the underlying I/O error; the temp file is cleaned up on
/// failure where possible (a leftover `<name>.tmp` after a real crash is
/// harmless and is swept by `checkpoint repair`).
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    use std::io::Write as _;

    let mut bytes = bytes.to_vec();
    let disposition = faults::on_write(path, &mut bytes)?;

    let file_name = path.file_name().ok_or_else(|| {
        io::Error::other(format!("cannot write to {}: no file name", path.display()))
    })?;
    let mut tmp_name = file_name.to_os_string();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);

    let write_tmp = (|| -> io::Result<()> {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&bytes)?;
        // Data must be durable before the rename publishes it, otherwise a
        // crash can expose a renamed-but-empty file.
        f.sync_all()
    })();
    if let Err(e) = write_tmp {
        let _ = std::fs::remove_file(&tmp);
        return Err(io::Error::new(
            e.kind(),
            format!("writing {}: {e}", tmp.display()),
        ));
    }

    if disposition == faults::WriteDisposition::CrashBeforeRename {
        // Simulated crash between fsync and rename: the temp file stays
        // behind, the destination is untouched.
        return Err(io::Error::other(format!(
            "injected crash before rename of {}",
            path.display()
        )));
    }

    std::fs::rename(&tmp, path).map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        io::Error::new(e.kind(), format!("renaming over {}: {e}", path.display()))
    })?;

    // Make the rename itself durable. Failure here is not fatal to
    // correctness (the file content is already consistent), so ignore
    // platforms/filesystems where directories cannot be fsynced.
    if let Some(parent) = path.parent() {
        if let Ok(dir) = std::fs::File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    Ok(())
}

// ----------------------------------------------------------------------
// Encoder / Decoder
// ----------------------------------------------------------------------

/// Appends fixed-layout little-endian fields to a byte buffer.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u16`, little-endian.
    #[inline]
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u32`, little-endian.
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64` (platform-independent layout).
    #[inline]
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Writes a `bool` as one byte.
    #[inline]
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Writes an `f64` as its IEEE-754 bits.
    #[inline]
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }
}

/// Reads fields written by [`Encoder`], in the same order.
///
/// Decoding methods panic on truncation: the [`Snapshot`] envelope has
/// already validated length and checksum, so running out of bytes mid-field
/// means the writer and reader disagree on layout — a bug, not an input
/// error.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Starts decoding at the front of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    #[inline]
    fn take(&mut self, n: usize) -> &'a [u8] {
        assert!(
            self.pos + n <= self.buf.len(),
            "snapshot payload exhausted: layout mismatch between writer and reader"
        );
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        s
    }

    /// Reads one byte.
    #[inline]
    pub fn take_u8(&mut self) -> u8 {
        self.take(1)[0]
    }

    /// Reads a little-endian `u16`.
    #[inline]
    pub fn take_u16(&mut self) -> u16 {
        u16::from_le_bytes(self.take(2).try_into().expect("2 bytes"))
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn take_u32(&mut self) -> u32 {
        u32::from_le_bytes(self.take(4).try_into().expect("4 bytes"))
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn take_u64(&mut self) -> u64 {
        u64::from_le_bytes(self.take(8).try_into().expect("8 bytes"))
    }

    /// Reads a `usize` written by [`Encoder::put_usize`].
    #[inline]
    pub fn take_usize(&mut self) -> usize {
        let v = self.take_u64();
        usize::try_from(v).expect("snapshot usize overflows this platform")
    }

    /// Reads a `bool`.
    #[inline]
    pub fn take_bool(&mut self) -> bool {
        match self.take_u8() {
            0 => false,
            1 => true,
            other => panic!("snapshot bool field holds {other}: layout mismatch"),
        }
    }

    /// Reads an `f64` from its IEEE-754 bits.
    #[inline]
    pub fn take_f64(&mut self) -> f64 {
        f64::from_bits(self.take_u64())
    }
}

// ----------------------------------------------------------------------
// Snap trait + blanket container impls
// ----------------------------------------------------------------------

/// Fixed-layout binary serialisation of one state type.
///
/// Implementations must write and read the **same fields in the same
/// order**; any change to that layout bumps [`FORMAT_VERSION`].
pub trait Snap: Sized {
    /// Appends this value's fields to `enc`.
    fn save(&self, enc: &mut Encoder);
    /// Reads a value previously written by [`Snap::save`].
    fn load(dec: &mut Decoder<'_>) -> Self;
}

macro_rules! snap_prim {
    ($($t:ty => $put:ident / $take:ident),* $(,)?) => {$(
        impl Snap for $t {
            #[inline]
            fn save(&self, enc: &mut Encoder) {
                enc.$put(*self);
            }
            #[inline]
            fn load(dec: &mut Decoder<'_>) -> Self {
                dec.$take()
            }
        }
    )*};
}

snap_prim!(
    u8 => put_u8 / take_u8,
    u16 => put_u16 / take_u16,
    u32 => put_u32 / take_u32,
    u64 => put_u64 / take_u64,
    usize => put_usize / take_usize,
    bool => put_bool / take_bool,
    f64 => put_f64 / take_f64,
);

impl<T: Snap> Snap for Option<T> {
    fn save(&self, enc: &mut Encoder) {
        match self {
            None => enc.put_u8(0),
            Some(v) => {
                enc.put_u8(1);
                v.save(enc);
            }
        }
    }

    fn load(dec: &mut Decoder<'_>) -> Self {
        match dec.take_u8() {
            0 => None,
            1 => Some(T::load(dec)),
            other => panic!("snapshot Option flag holds {other}: layout mismatch"),
        }
    }
}

impl<T: Snap> Snap for Vec<T> {
    fn save(&self, enc: &mut Encoder) {
        enc.put_usize(self.len());
        for v in self {
            v.save(enc);
        }
    }

    fn load(dec: &mut Decoder<'_>) -> Self {
        let n = dec.take_usize();
        (0..n).map(|_| T::load(dec)).collect()
    }
}

impl<T: Snap> Snap for VecDeque<T> {
    fn save(&self, enc: &mut Encoder) {
        enc.put_usize(self.len());
        for v in self {
            v.save(enc);
        }
    }

    fn load(dec: &mut Decoder<'_>) -> Self {
        let n = dec.take_usize();
        (0..n).map(|_| T::load(dec)).collect()
    }
}

impl<T: Snap, const N: usize> Snap for [T; N] {
    fn save(&self, enc: &mut Encoder) {
        for v in self {
            v.save(enc);
        }
    }

    fn load(dec: &mut Decoder<'_>) -> Self {
        std::array::from_fn(|_| T::load(dec))
    }
}

impl<A: Snap, B: Snap> Snap for (A, B) {
    fn save(&self, enc: &mut Encoder) {
        self.0.save(enc);
        self.1.save(enc);
    }

    fn load(dec: &mut Decoder<'_>) -> Self {
        (A::load(dec), B::load(dec))
    }
}

impl<A: Snap, B: Snap, C: Snap> Snap for (A, B, C) {
    fn save(&self, enc: &mut Encoder) {
        self.0.save(enc);
        self.1.save(enc);
        self.2.save(enc);
    }

    fn load(dec: &mut Decoder<'_>) -> Self {
        (A::load(dec), B::load(dec), C::load(dec))
    }
}

// ----------------------------------------------------------------------
// Resumable streams
// ----------------------------------------------------------------------

/// A workload source whose *position* can be checkpointed.
///
/// Static structure (the program, the seed schedule) is **not** saved:
/// restore happens into a freshly built generator of the same program, and
/// only the dynamic cursor state (RNG, loop position, emitted count) moves
/// across. Implementations should assert shape compatibility where cheap.
pub trait Resumable {
    /// Saves the stream position.
    fn save_state(&self, enc: &mut Encoder);
    /// Restores a position previously saved from an identically-built
    /// stream.
    fn restore_state(&mut self, dec: &mut Decoder<'_>);
}

// ----------------------------------------------------------------------
// Snapshot envelope
// ----------------------------------------------------------------------

/// A versioned, checksummed snapshot payload.
///
/// ```
/// use vpr_snap::{Encoder, Snapshot};
/// let mut enc = Encoder::new();
/// enc.put_u64(42);
/// let snap = Snapshot::new(enc.into_bytes());
/// let bytes = snap.to_bytes();
/// let back = Snapshot::from_bytes(&bytes).unwrap();
/// assert_eq!(back.payload(), snap.payload());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    payload: Vec<u8>,
}

impl Snapshot {
    /// Wraps an encoded payload, releasing its spare capacity (an
    /// [`Encoder`] grows by doubling, and a snapshot can be held for a
    /// whole sweep).
    pub fn new(mut payload: Vec<u8>) -> Self {
        payload.shrink_to_fit();
        Self { payload }
    }

    /// The raw payload (hand to a [`Decoder`]).
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// FNV-1a checksum of the payload — the same value the serialised
    /// envelope carries, exposed so checkpoint manifests can pin the exact
    /// artefact they were written against.
    pub fn checksum(&self) -> u64 {
        fnv1a(&self.payload)
    }

    /// Serialises the envelope: magic, version, checksum, length, payload.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(MAGIC.len() + 4 + 8 + 8 + self.payload.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&fnv1a(&self.payload).to_le_bytes());
        out.extend_from_slice(&(self.payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Opens a serialised envelope, validating magic, version, length and
    /// checksum.
    ///
    /// # Errors
    ///
    /// See [`SnapError`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapError> {
        let header = MAGIC.len() + 4 + 8 + 8;
        if bytes.len() < header {
            return Err(if bytes.starts_with(&MAGIC) {
                SnapError::Truncated
            } else {
                SnapError::Magic
            });
        }
        if bytes[..MAGIC.len()] != MAGIC {
            return Err(SnapError::Magic);
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if version != FORMAT_VERSION {
            return Err(SnapError::Version {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let checksum = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
        let len = u64::from_le_bytes(bytes[20..28].try_into().expect("8 bytes")) as usize;
        let payload = bytes
            .get(header..header + len)
            .ok_or(SnapError::Truncated)?;
        if fnv1a(payload) != checksum {
            return Err(SnapError::Checksum);
        }
        Ok(Self {
            payload: payload.to_vec(),
        })
    }

    /// Writes the envelope to a file, crash-safely (see [`atomic_write`]).
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        atomic_write(path, &self.to_bytes())
    }

    /// Reads an envelope from a file.
    ///
    /// # Errors
    ///
    /// I/O errors are wrapped in [`std::io::Error`] and name the path;
    /// format errors (torn, truncated, or corrupt envelopes) come back as
    /// [`std::io::ErrorKind::InvalidData`].
    pub fn read_from(path: &std::path::Path) -> std::io::Result<Self> {
        let mut bytes = std::fs::read(path)
            .map_err(|e| io::Error::new(e.kind(), format!("reading {}: {e}", path.display())))?;
        faults::on_read(path, &mut bytes)?;
        Self::from_bytes(&bytes).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: {e}", path.display()),
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut enc = Encoder::new();
        7u8.save(&mut enc);
        1234u16.save(&mut enc);
        0xdead_beefu32.save(&mut enc);
        u64::MAX.save(&mut enc);
        42usize.save(&mut enc);
        true.save(&mut enc);
        false.save(&mut enc);
        (-1.5f64).save(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(u8::load(&mut dec), 7);
        assert_eq!(u16::load(&mut dec), 1234);
        assert_eq!(u32::load(&mut dec), 0xdead_beef);
        assert_eq!(u64::load(&mut dec), u64::MAX);
        assert_eq!(usize::load(&mut dec), 42);
        assert!(bool::load(&mut dec));
        assert!(!bool::load(&mut dec));
        assert_eq!(f64::load(&mut dec), -1.5);
        assert_eq!(dec.remaining(), 0);
    }

    #[test]
    fn containers_round_trip() {
        let mut enc = Encoder::new();
        let v: Vec<u64> = vec![1, 2, 3];
        let d: VecDeque<u16> = VecDeque::from([9, 8]);
        let o: Option<u32> = Some(5);
        let n: Option<u32> = None;
        let a: [bool; 3] = [true, false, true];
        let t = (1u8, 2u64, 3u16);
        v.save(&mut enc);
        d.save(&mut enc);
        o.save(&mut enc);
        n.save(&mut enc);
        a.save(&mut enc);
        t.save(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(Vec::<u64>::load(&mut dec), v);
        assert_eq!(VecDeque::<u16>::load(&mut dec), d);
        assert_eq!(Option::<u32>::load(&mut dec), o);
        assert_eq!(Option::<u32>::load(&mut dec), n);
        assert_eq!(<[bool; 3]>::load(&mut dec), a);
        assert_eq!(<(u8, u64, u16)>::load(&mut dec), t);
        assert_eq!(dec.remaining(), 0);
    }

    #[test]
    fn envelope_round_trips_and_validates() {
        let snap = Snapshot::new(vec![1, 2, 3, 4, 5]);
        let bytes = snap.to_bytes();
        assert_eq!(Snapshot::from_bytes(&bytes).unwrap(), snap);

        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert_eq!(Snapshot::from_bytes(&bad), Err(SnapError::Magic));

        // Wrong version.
        let mut bad = bytes.clone();
        bad[8] ^= 0xff;
        assert!(matches!(
            Snapshot::from_bytes(&bad),
            Err(SnapError::Version { .. })
        ));

        // Flipped payload bit.
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        assert_eq!(Snapshot::from_bytes(&bad), Err(SnapError::Checksum));

        // Truncated payload.
        let short = &bytes[..bytes.len() - 2];
        assert_eq!(Snapshot::from_bytes(short), Err(SnapError::Truncated));

        // Not a snapshot at all.
        assert_eq!(Snapshot::from_bytes(b"hello"), Err(SnapError::Magic));
    }

    #[test]
    fn empty_payload_is_fine() {
        let snap = Snapshot::new(Vec::new());
        let bytes = snap.to_bytes();
        assert_eq!(
            Snapshot::from_bytes(&bytes).unwrap().payload(),
            &[] as &[u8]
        );
    }
}
