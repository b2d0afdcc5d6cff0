//! Backing storage for zero-copy snapshots: aligned buffers and typed
//! arrays that either own their elements or borrow them from a buffer.
//!
//! The `.pspk` format lays its sections out as 8-byte-aligned
//! little-endian arrays so a loader can validate checksums once and then
//! *borrow* typed views straight out of one buffer — no per-element
//! deserialization. Two pieces make that safe:
//!
//! * [`SnapshotBuf`] — the one buffer the whole snapshot lives in. Either
//!   an owned allocation whose base address is 8-byte aligned (backed by
//!   a `Vec<u64>`, so the alignment is a type-system fact, not a hope),
//!   or a read-only memory mapping obtained through a raw `mmap(2)`
//!   syscall (std-only, Linux/x86-64; everywhere else the owned read is
//!   the portable fallback). Page alignment ≥ 8 covers the mapped case.
//! * [`Slab<T>`] — a typed array that is either an owned `Vec<T>` or a
//!   `(buffer, offset, length)` view into an [`Arc<SnapshotBuf>`].
//!   Alignment and bounds are checked **once at construction**; after
//!   that [`Slab::as_slice`] is a pointer cast. Only [`Plain`] element
//!   types (`u8`, `u32`, [`TyId`], `[u32; N]` records — every bit pattern
//!   valid, no padding) can be viewed this way, and only on little-endian
//!   targets, where the on-disk and in-memory representations coincide.
//!   Big-endian builds get `None` from [`Slab::borrowed`], and
//!   [`Slab::load`] decodes them into owned storage instead. A borrowed
//!   slab is never written through: [`Slab::make_mut`] copies it to owned
//!   storage first.
//!
//! This is the one module of the crate allowed `unsafe` code; every
//! block states the argument that makes it sound.

use std::marker::PhantomData;
use std::path::Path;
use std::sync::Arc;

use crate::TyId;

/// The single allocation (or mapping) a zero-copy snapshot borrows from.
///
/// The base address is always at least 8-byte aligned: owned storage is a
/// `Vec<u64>`, mappings are page-aligned. Section offsets inside the
/// buffer therefore only need to be 8-byte multiples for every `u32`/`u64`
/// view to be properly aligned.
pub struct SnapshotBuf {
    inner: BufInner,
}

enum BufInner {
    /// `words` owns `len` meaningful bytes (the tail of the last word is
    /// zero padding).
    Owned { words: Vec<u64>, len: usize },
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    Mapped { ptr: *const u8, len: usize },
}

// SAFETY: the mapped variant is a private read-only mapping that nothing
// mutates; the owned variant is a Vec. Shared references hand out `&[u8]`
// only.
unsafe impl Send for SnapshotBuf {}
unsafe impl Sync for SnapshotBuf {}

impl std::fmt::Debug for SnapshotBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotBuf")
            .field("len", &self.len())
            .field("mapped", &self.is_mapped())
            .finish()
    }
}

impl SnapshotBuf {
    fn owned_with_len(len: usize) -> SnapshotBuf {
        let words = vec![0u64; len.div_ceil(8)];
        SnapshotBuf { inner: BufInner::Owned { words, len } }
    }

    /// Copies `bytes` into fresh 8-byte-aligned owned storage.
    #[must_use]
    pub fn from_bytes(bytes: &[u8]) -> SnapshotBuf {
        let mut buf = Self::owned_with_len(bytes.len());
        buf.as_mut_slice().copy_from_slice(bytes);
        buf
    }

    /// Reads a whole file into 8-byte-aligned owned storage (the portable
    /// loading path).
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O failure.
    pub fn read_file(path: &Path) -> std::io::Result<SnapshotBuf> {
        use std::io::Read as _;
        let mut file = std::fs::File::open(path)?;
        let len = usize::try_from(file.metadata()?.len()).map_err(|_| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "file too large for memory")
        })?;
        let mut buf = Self::owned_with_len(len);
        file.read_exact(buf.as_mut_slice())?;
        buf
            .check_eof(&mut file)
            .map_err(|_| std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "file grew while being read",
            ))?;
        Ok(buf)
    }

    fn check_eof(&self, file: &mut std::fs::File) -> Result<(), ()> {
        use std::io::Read as _;
        let mut probe = [0u8; 1];
        match file.read(&mut probe) {
            Ok(0) => Ok(()),
            _ => Err(()),
        }
    }

    /// Memory-maps a whole file read-only where the raw-syscall wrapper
    /// is available, falling back to [`SnapshotBuf::read_file`] anywhere
    /// else (or if the mapping fails). The returned flag says whether the
    /// buffer is actually a mapping.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O failure from the fallback read.
    pub fn map_file(path: &Path) -> std::io::Result<(SnapshotBuf, bool)> {
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        {
            if let Some(buf) = Self::try_map(path) {
                return Ok((buf, true));
            }
        }
        Ok((Self::read_file(path)?, false))
    }

    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    fn try_map(path: &Path) -> Option<SnapshotBuf> {
        use std::os::fd::AsRawFd as _;
        let file = std::fs::File::open(path).ok()?;
        let len = usize::try_from(file.metadata().ok()?.len()).ok()?;
        if len == 0 {
            // mmap(2) rejects zero-length mappings; the owned path
            // represents an empty buffer fine.
            return None;
        }
        // SAFETY: read-only private mapping of an open fd; the pointer is
        // owned by the returned SnapshotBuf, which munmaps on drop. The
        // fd can be closed immediately after — the mapping keeps the file
        // alive.
        let ptr = unsafe { sys::mmap_readonly(file.as_raw_fd(), len) }?;
        Some(SnapshotBuf { inner: BufInner::Mapped { ptr, len } })
    }

    /// The buffer's bytes. The base pointer is at least 8-byte aligned.
    #[must_use]
    pub fn as_slice(&self) -> &[u8] {
        match &self.inner {
            BufInner::Owned { words, len } => {
                // SAFETY: the Vec owns at least `len` initialized bytes
                // (constructors zero-fill, then overwrite).
                unsafe { std::slice::from_raw_parts(words.as_ptr().cast::<u8>(), *len) }
            }
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            BufInner::Mapped { ptr, len } => {
                // SAFETY: the mapping is `len` bytes, read-only, and live
                // until drop.
                unsafe { std::slice::from_raw_parts(*ptr, *len) }
            }
        }
    }

    fn as_mut_slice(&mut self) -> &mut [u8] {
        match &mut self.inner {
            BufInner::Owned { words, len } => {
                // SAFETY: as in `as_slice`, plus exclusive access.
                unsafe { std::slice::from_raw_parts_mut(words.as_mut_ptr().cast::<u8>(), *len) }
            }
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            BufInner::Mapped { .. } => unreachable!("mapped buffers are never mutated"),
        }
    }

    /// Number of bytes in the buffer.
    #[must_use]
    pub fn len(&self) -> usize {
        match &self.inner {
            BufInner::Owned { len, .. } => *len,
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            BufInner::Mapped { len, .. } => *len,
        }
    }

    /// Whether the buffer is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the buffer is an actual memory mapping (vs owned storage).
    #[must_use]
    pub fn is_mapped(&self) -> bool {
        match &self.inner {
            BufInner::Owned { .. } => false,
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            BufInner::Mapped { .. } => true,
        }
    }
}

impl Drop for SnapshotBuf {
    fn drop(&mut self) {
        match &self.inner {
            BufInner::Owned { .. } => {}
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            BufInner::Mapped { ptr, len } => {
                // SAFETY: exactly the region mmap returned, unmapped once.
                unsafe { sys::munmap(*ptr, *len) };
            }
        }
    }
}

/// Raw `mmap(2)` / `munmap(2)` syscall wrappers — std-only, no libc.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sys {
    const SYS_MMAP: usize = 9;
    const SYS_MUNMAP: usize = 11;
    const PROT_READ: usize = 1;
    const MAP_PRIVATE: usize = 2;

    /// Maps `len` bytes of `fd` read-only/private. `None` on failure;
    /// the kernel itself rejects a closed or unreadable `fd` and a zero
    /// `len`, so those need no promise from the caller.
    ///
    /// # Safety
    ///
    /// The caller owns the returned mapping and must [`munmap`] it
    /// exactly once, with this `len`. Only the bytes the file backs may
    /// be read through it: a page wholly past the end faults.
    pub unsafe fn mmap_readonly(fd: i32, len: usize) -> Option<*const u8> {
        let ret: isize;
        // SAFETY: plain syscall; the kernel validates every argument and
        // reports failure through the return value.
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") SYS_MMAP as isize => ret,
                in("rdi") 0usize,          // addr: let the kernel pick
                in("rsi") len,
                in("rdx") PROT_READ,
                in("r10") MAP_PRIVATE,
                in("r8") fd as isize,
                in("r9") 0usize,           // offset
                out("rcx") _,
                out("r11") _,
                options(nostack),
            );
        }
        // Errors come back as -errno in the top page of the address space.
        if (-4095..0).contains(&ret) {
            None
        } else {
            Some(ret as *const u8)
        }
    }

    /// Unmaps a region previously returned by [`mmap_readonly`].
    ///
    /// # Safety
    ///
    /// `(ptr, len)` must be exactly one live mapping from
    /// [`mmap_readonly`].
    pub unsafe fn munmap(ptr: *const u8, len: usize) {
        let ret: isize;
        // SAFETY: as above.
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") SYS_MUNMAP as isize => ret,
                in("rdi") ptr,
                in("rsi") len,
                out("rcx") _,
                out("r11") _,
                options(nostack),
            );
        }
        debug_assert_eq!(ret, 0, "munmap of a live mapping cannot fail");
    }
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for u8 {}
    impl Sealed for u32 {}
    impl Sealed for crate::TyId {}
    impl<const N: usize> Sealed for [u32; N] {}
}

/// Element types a [`Slab`] may view directly out of a byte buffer:
/// every bit pattern is a valid value and the type has no padding, so a
/// pointer cast from checked-aligned bytes is sound. [`TyId`] qualifies
/// because it is a `#[repr(transparent)]` `u32`; a `[u32; N]` is a
/// fixed-width record of `N` words.
pub trait Plain: Copy + PartialEq + std::fmt::Debug + sealed::Sealed + 'static {
    /// Decodes one element from its `size_of::<Self>()` little-endian
    /// bytes: the owned fallback where a view is impossible.
    fn from_le(bytes: &[u8]) -> Self;
}

fn le_word(bytes: &[u8], i: usize) -> u32 {
    u32::from_le_bytes(bytes[i * 4..i * 4 + 4].try_into().expect("4 bytes"))
}

impl Plain for u8 {
    fn from_le(bytes: &[u8]) -> Self {
        bytes[0]
    }
}

impl Plain for u32 {
    fn from_le(bytes: &[u8]) -> Self {
        le_word(bytes, 0)
    }
}

impl Plain for TyId {
    fn from_le(bytes: &[u8]) -> Self {
        TyId(le_word(bytes, 0))
    }
}

impl<const N: usize> Plain for [u32; N] {
    fn from_le(bytes: &[u8]) -> Self {
        std::array::from_fn(|i| le_word(bytes, i))
    }
}

/// A typed array backed either by an owned `Vec<T>` or by a borrowed
/// range of an [`Arc<SnapshotBuf>`] (zero-copy). Cloning a borrowed slab
/// is an `Arc` bump.
#[derive(Clone)]
pub struct Slab<T: Plain> {
    inner: SlabInner<T>,
}

#[derive(Clone)]
enum SlabInner<T: Plain> {
    Owned(Vec<T>),
    Borrowed {
        buf: Arc<SnapshotBuf>,
        /// Byte offset of the first element; `align_of::<T>()`-aligned.
        off: usize,
        /// Element (not byte) count.
        len: usize,
        _marker: PhantomData<T>,
    },
}

impl<T: Plain> Slab<T> {
    /// Wraps an owned vector.
    #[must_use]
    pub fn from_vec(v: Vec<T>) -> Slab<T> {
        Slab { inner: SlabInner::Owned(v) }
    }

    /// Borrows `len` elements starting `byte_off` bytes into `buf` —
    /// the zero-copy constructor. Returns `None` (caller falls back to
    /// owned decoding) when the range is out of bounds, the offset is
    /// misaligned for `T`, or the target is big-endian (the on-disk
    /// representation is little-endian).
    #[must_use]
    pub fn borrowed(buf: &Arc<SnapshotBuf>, byte_off: usize, len: usize) -> Option<Slab<T>> {
        if cfg!(target_endian = "big") {
            return None;
        }
        let byte_len = len.checked_mul(std::mem::size_of::<T>())?;
        let end = byte_off.checked_add(byte_len)?;
        if end > buf.len() || !byte_off.is_multiple_of(std::mem::align_of::<T>()) {
            return None;
        }
        Some(Slab {
            inner: SlabInner::Borrowed {
                buf: Arc::clone(buf),
                off: byte_off,
                len,
                _marker: PhantomData,
            },
        })
    }

    /// `len` elements starting `byte_off` bytes into `buf`: borrowed
    /// where [`Slab::borrowed`] can view them, otherwise decoded from
    /// little-endian bytes into owned storage. `None` only when the range
    /// does not fit the buffer.
    #[must_use]
    pub fn load(buf: &Arc<SnapshotBuf>, byte_off: usize, len: usize) -> Option<Slab<T>> {
        if let Some(slab) = Slab::borrowed(buf, byte_off, len) {
            return Some(slab);
        }
        let size = std::mem::size_of::<T>();
        let end = len.checked_mul(size)?.checked_add(byte_off)?;
        let bytes = buf.as_slice().get(byte_off..end)?;
        Some(Slab::from_vec(bytes.chunks_exact(size).map(T::from_le).collect()))
    }

    /// The elements as an owned vector to mutate, copying them out of the
    /// snapshot buffer first if this slab borrows (copy on first write).
    pub fn make_mut(&mut self) -> &mut Vec<T> {
        if let SlabInner::Borrowed { .. } = self.inner {
            self.inner = SlabInner::Owned(self.as_slice().to_vec());
        }
        match &mut self.inner {
            SlabInner::Owned(v) => v,
            SlabInner::Borrowed { .. } => unreachable!("converted to owned above"),
        }
    }

    /// The elements, however they are stored.
    #[must_use]
    pub fn as_slice(&self) -> &[T] {
        match &self.inner {
            SlabInner::Owned(v) => v,
            SlabInner::Borrowed { buf, off, len, .. } => {
                // SAFETY: construction checked bounds and alignment; `T`
                // is `Plain` (every bit pattern valid); the buffer lives
                // as long as `self` via the Arc.
                unsafe {
                    std::slice::from_raw_parts(
                        buf.as_slice().as_ptr().add(*off).cast::<T>(),
                        *len,
                    )
                }
            }
        }
    }

    /// Whether this slab borrows from a snapshot buffer (vs owning).
    #[must_use]
    pub fn is_borrowed(&self) -> bool {
        matches!(self.inner, SlabInner::Borrowed { .. })
    }
}

impl<T: Plain> std::ops::Deref for Slab<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Plain> Default for Slab<T> {
    fn default() -> Self {
        Slab::from_vec(Vec::new())
    }
}

impl<T: Plain> PartialEq for Slab<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Plain> std::fmt::Debug for Slab<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Slab({} x {}", self.len(), std::any::type_name::<T>())?;
        if self.is_borrowed() {
            write!(f, ", borrowed")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owned_buf_is_aligned_and_round_trips() {
        let bytes: Vec<u8> = (0..=41).collect();
        let buf = SnapshotBuf::from_bytes(&bytes);
        assert_eq!(buf.as_slice(), &bytes[..]);
        assert_eq!(buf.as_slice().as_ptr() as usize % 8, 0, "base must be 8-aligned");
        assert!(!buf.is_mapped());
        assert!(!buf.is_empty());
    }

    #[test]
    fn map_file_reads_back_identical_bytes() {
        let dir = std::env::temp_dir().join("prospector-slab-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("map.bin");
        let bytes: Vec<u8> = (0u16..3000).map(|i| (i % 251) as u8).collect();
        std::fs::write(&path, &bytes).expect("write");
        let (buf, mapped) = SnapshotBuf::map_file(&path).expect("map");
        assert_eq!(buf.as_slice(), &bytes[..]);
        assert_eq!(buf.is_mapped(), mapped);
        assert_eq!(buf.as_slice().as_ptr() as usize % 8, 0);
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        assert!(mapped, "the raw mmap path must engage on linux/x86-64");
        std::fs::remove_file(&path).ok();
    }

    /// A scratch directory of its own for each test that touches files.
    fn scratch_dir(test: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("prospector-slab-{test}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    #[test]
    fn mmap_of_a_closed_fd_is_none() {
        // No fd table reaches `i32::MAX` (`fs.nr_open` is capped below
        // it), so this number is closed in every process.
        // SAFETY: nothing is mapped, so there is nothing to unmap.
        let mapped = unsafe { sys::mmap_readonly(i32::MAX, 4096) };
        assert_eq!(mapped, None);
    }

    #[test]
    fn map_file_of_an_empty_file_is_an_owned_empty_buffer() {
        let dir = scratch_dir("empty");
        let path = dir.join("empty.bin");
        std::fs::write(&path, b"").expect("write");
        let (buf, mapped) = SnapshotBuf::map_file(&path).expect("an empty file reads");
        assert!(!mapped && !buf.is_mapped());
        assert!(buf.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn map_file_of_a_missing_path_is_not_found() {
        let path = std::env::temp_dir()
            .join(format!("prospector-slab-missing-{}.bin", std::process::id()));
        let err = SnapshotBuf::map_file(&path).expect_err("nothing to map or read");
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
    }

    #[test]
    fn map_file_of_a_directory_is_the_fallback_reads_error() {
        let dir = scratch_dir("dir");
        let err = SnapshotBuf::map_file(&dir).expect_err("a directory is no snapshot");
        assert_eq!(err.kind(), std::io::ErrorKind::IsADirectory);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn borrowed_slab_views_the_buffer_without_copying() {
        let words: Vec<u32> = vec![7, 11, 13, 17];
        let mut bytes = Vec::new();
        for w in &words {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        let buf = Arc::new(SnapshotBuf::from_bytes(&bytes));
        let slab = Slab::<u32>::borrowed(&buf, 0, 4).expect("aligned in-bounds view");
        if cfg!(target_endian = "little") {
            assert_eq!(slab.as_slice(), &words[..]);
            assert!(slab.is_borrowed());
            assert_eq!(
                slab.as_slice().as_ptr().cast::<u8>(),
                buf.as_slice().as_ptr(),
                "a borrowed slab must point into the buffer itself"
            );
        }
    }

    #[test]
    fn load_borrows_records_or_decodes_them() {
        let words: Vec<u32> = (1..=7).collect();
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let buf = Arc::new(SnapshotBuf::from_bytes(&bytes));
        let records = Slab::<[u32; 3]>::load(&buf, 4, 2).expect("in bounds");
        assert_eq!(records.as_slice(), [[2, 3, 4], [5, 6, 7]]);
        assert_eq!(records.is_borrowed(), cfg!(target_endian = "little"));
        let ids = Slab::<TyId>::load(&buf, 0, 2).expect("in bounds");
        assert_eq!(ids.as_slice(), [TyId(1), TyId(2)]);
        // A misaligned range cannot be viewed, so it is decoded.
        let shifted = Slab::<u32>::load(&buf, 1, 1).expect("in bounds");
        assert!(!shifted.is_borrowed());
        assert_eq!(shifted.as_slice(), [u32::from_le_bytes([0, 0, 0, 2])]);
        assert!(Slab::<[u32; 3]>::load(&buf, 4, 3).is_none(), "past the end");
        assert!(Slab::<u32>::load(&buf, 0, usize::MAX).is_none(), "length overflow");
    }

    #[test]
    fn make_mut_copies_a_borrowed_slab_once() {
        let buf = Arc::new(SnapshotBuf::from_bytes(&[1, 0, 0, 0, 2, 0, 0, 0]));
        let mut slab = Slab::<u32>::load(&buf, 0, 2).expect("in bounds");
        slab.make_mut().push(3);
        slab.make_mut()[0] = 9;
        assert!(!slab.is_borrowed());
        assert_eq!(slab.as_slice(), [9, 2, 3]);
        assert_eq!(buf.as_slice()[..4], [1, 0, 0, 0], "the buffer is never written");
    }

    #[test]
    fn borrowed_slab_rejects_misalignment_and_overflow() {
        let buf = Arc::new(SnapshotBuf::from_bytes(&[0u8; 16]));
        assert!(Slab::<u32>::borrowed(&buf, 2, 1).is_none(), "misaligned offset");
        assert!(Slab::<u32>::borrowed(&buf, 8, 3).is_none(), "past the end");
        assert!(Slab::<u32>::borrowed(&buf, 0, usize::MAX).is_none(), "length overflow");
        assert!(Slab::<u8>::borrowed(&buf, 3, 13).is_some(), "u8 views need no alignment");
    }
}
