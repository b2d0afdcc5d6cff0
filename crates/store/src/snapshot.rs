//! The `.pspk` section layout: encoding a mined engine to bytes and
//! validating/decoding it back.
//!
//! # Format v3
//!
//! All integers little-endian. The file header is 16 bytes:
//!
//! ```text
//! magic "PSPK" | version u32 | section_count u32 | reserved u32 (zero)
//! ```
//!
//! then, per section, in fixed order, a 24-byte frame followed by the
//! payload and zero padding:
//!
//! ```text
//! tag u32 | pad u32 | payload_len u64 | crc32 u32 | reserved u32 (zero)
//! payload | pad zero bytes
//! ```
//!
//! `pad = (8 - payload_len % 8) % 8`, so payload + padding is always a
//! multiple of 8. Header (16) and frame (24) sizes are multiples of 8
//! too, which makes **every payload start 8-byte-aligned in the file**.
//! That alignment is the point of the format: the string pool, the type
//! and member tables and the CSR are flat little-endian arrays a loader
//! can hand out as typed views borrowed directly from one aligned read or
//! an mmap'd region — validate the CRCs once, copy nothing. The
//! CRC32 covers tag bytes + payload (padding excluded); padding must be
//! zero and is checked separately, so a flipped pad byte is a typed
//! [`StoreError::Corrupt`] naming the section.
//!
//! | tag | section    | payload layout                                      |
//! |-----|------------|-----------------------------------------------------|
//! | 1   | `strings`  | count u64, (count+1)×u32 byte offsets, UTF-8 blob   |
//! | 2   | `types`    | package, type and interface counts (3×u64); package |
//! |     |            | name ids u32, 6×u32 type records, interface ids u32 |
//! | 3   | `members`  | method, parameter, parameter-name and field counts  |
//! |     |            | (4×u64); 6×u32 method records, parameter type ids   |
//! |     |            | u32, parameter name ids u32, 4×u32 field records    |
//! | 4   | `graph`    | byte-wise (config, counts, mined bases)             |
//! | 5   | `csr`      | counts, offset/endpoint u32 arrays, packed 4×u32    |
//! |     |            | jungloid quads, then the u8 cost arrays last        |
//! | 6   | `examples` | seq/elem counts, (count+1)×u32 offsets, 4×u32 quads |
//! | 7   | `suffixes` | same layout as `examples`                           |
//!
//! Names in the `types` and `members` records are ids into the `strings`
//! pool. The records are the in-memory ones, word for word
//! ([`TypeRecord`](jungloid_typesys::TypeRecord),
//! [`MethodRecord`](jungloid_apidef::MethodRecord),
//! [`FieldRecord`](jungloid_apidef::FieldRecord)). The loader borrows the pool, the
//! table arrays and the CSR as slabs — no rebuild, no per-element copies
//! — and builds only the type-name and per-type member indexes;
//! [`JungloidGraph::from_snapshot`] serves from the borrowed CSR, the
//! same arrays a built graph holds, so a warm-started engine is
//! byte-identical to the one that was saved.
//!
//! v3 is the only format this build reads or writes. A file with any
//! other version — the retired v1 and v2 layouts included — is a typed
//! [`StoreError::UnsupportedVersion`]; there is no migration, because a
//! snapshot is a cache of a deterministic build that `index build`
//! regenerates.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use jungloid_apidef::{Api, ElemJungloid, InputSlot, FIELD_RECORD_WORDS, METHOD_RECORD_WORDS};
use jungloid_typesys::{NameArena, Plain, Slab, SnapshotBuf, TyId, TypeTable, TYPE_RECORD_WORDS};
use prospector_core::elems::{decode_quad, encode_quad, ElemSeq};
use prospector_core::graph::{CsrAdjacency, JungloidGraph, NodeId};
use prospector_core::GraphConfig;
use prospector_obs::{Counter, Gauge, Stage};

use crate::crc32::Crc32;
use crate::error::StoreError;
use crate::rw::{Reader, Writer};

/// The four magic bytes every snapshot starts with.
pub const MAGIC: [u8; 4] = *b"PSPK";

/// The one format version this build reads and writes; any other is
/// [`StoreError::UnsupportedVersion`].
pub const FORMAT_VERSION: u32 = 3;

/// `(tag, name)` of every section, in file order.
const SECTIONS: [(u32, &str); 7] = [
    (1, "strings"),
    (2, "types"),
    (3, "members"),
    (4, "graph"),
    (5, "csr"),
    (6, "examples"),
    (7, "suffixes"),
];

const HEADER_BYTES: usize = 16;
const SECTION_HEADER_BYTES: usize = 24;

/// A fully decoded snapshot: everything needed to warm-start an engine.
#[derive(Debug)]
pub struct Snapshot {
    /// The API model (type table + members).
    pub api: Api,
    /// The jungloid graph, CSR reconstructed verbatim (no rebuild). Its
    /// arrays borrow from the snapshot buffer.
    pub graph: JungloidGraph,
    /// The raw mined example jungloids the engine was built from, kept
    /// for provenance/inspection (the generalized splices live in the
    /// graph itself).
    pub mined_examples: Vec<Vec<ElemJungloid>>,
}

/// Size/checksum breakdown of one stored section.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SectionInfo {
    /// Section name (matches the table in the module docs).
    pub name: &'static str,
    /// Payload bytes (headers and padding excluded).
    pub bytes: u64,
    /// Stored (and verified) CRC32 over tag + payload.
    pub crc32: u32,
    /// File offset where the payload starts: a multiple of 8, the
    /// alignment that makes zero-copy views possible.
    pub offset: u64,
    /// Zero bytes appended after the payload.
    pub pad_bytes: u32,
}

/// What `index inspect` prints: the validated file structure, without
/// necessarily decoding the payloads.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Manifest {
    /// Format version found in the header.
    pub version: u32,
    /// Whole-file size in bytes.
    pub total_bytes: u64,
    /// Per-section breakdown, in file order.
    pub sections: Vec<SectionInfo>,
}

// --- encoding -----------------------------------------------------------

/// Deduplicating string pool; all other sections store `u32` refs into it.
#[derive(Default)]
struct StringPool {
    strings: Vec<String>,
    index: HashMap<String, u32>,
}

impl StringPool {
    fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.index.get(s) {
            return id;
        }
        let id = u32::try_from(self.strings.len()).expect("string pool fits u32");
        self.strings.push(s.to_owned());
        self.index.insert(s.to_owned(), id);
        id
    }
}

/// Types: package, type and interface counts, then the three arrays
/// as [`TypeTable::from_slabs`] takes them back.
fn encode_types(types: &TypeTable, pool: &mut StringPool) -> Vec<u8> {
    let a = types.to_arrays(|s| pool.intern(s));
    let mut w = Writer::new();
    for len in [a.packages.len(), a.records.len(), a.interfaces.len()] {
        w.u64(len as u64);
    }
    w.u32s(&a.packages);
    w.u32s(a.records.as_flattened());
    w.u32s(&a.interfaces.iter().map(|t| t.index() as u32).collect::<Vec<_>>());
    w.into_bytes()
}

/// Members: method, parameter, parameter-name and field counts, then
/// the four arrays as [`Api::from_slabs`] takes them back.
fn encode_members(api: &Api, pool: &mut StringPool) -> Vec<u8> {
    let a = api.members_to_arrays(|s| pool.intern(s));
    let mut w = Writer::new();
    for len in [a.methods.len(), a.params.len(), a.param_names.len(), a.fields.len()] {
        w.u64(len as u64);
    }
    w.u32s(a.methods.as_flattened());
    w.u32s(&a.params.iter().map(|t| t.index() as u32).collect::<Vec<_>>());
    w.u32s(&a.param_names);
    w.u32s(a.fields.as_flattened());
    w.into_bytes()
}

fn encode_graph_meta(graph: &JungloidGraph) -> Vec<u8> {
    let mut w = Writer::new();
    let config = graph.config();
    w.u8(u8::from(config.include_protected));
    w.u8(u8::from(config.restrict_weak_params));
    let ty_count = graph.node_count() - graph.mined_node_count();
    w.index(ty_count);
    w.index(graph.mined_node_count());
    for i in 0..graph.mined_node_count() {
        let base = graph.base_ty(NodeId::Mined(u32::try_from(i).expect("mined fits u32")));
        w.index(base.index());
    }
    w.u64(graph.edge_count() as u64);
    w.into_bytes()
}

/// Strings: `count u64 | (count+1)×u32 cumulative byte offsets |
/// UTF-8 blob`. Offsets let a borrowed view slice any string in O(1).
fn encode_strings(pool: &StringPool) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(pool.strings.len() as u64);
    let mut acc: u32 = 0;
    w.u32(acc);
    for s in &pool.strings {
        acc = acc
            .checked_add(u32::try_from(s.len()).expect("string fits u32"))
            .expect("string blob fits u32");
        w.u32(acc);
    }
    for s in &pool.strings {
        w.bytes(s.as_bytes());
    }
    w.into_bytes()
}

/// CSR: `node_count u64 | edge_count u64`, then the u32 arrays
/// (forward offsets, forward targets, packed 4×u32 jungloid quads,
/// reverse offsets, reverse sources), then the two u8 cost arrays
/// *last* so every u32 array stays 4-byte-aligned without internal
/// padding. Each array is the in-memory one, copied as is.
fn encode_csr(csr: &CsrAdjacency) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(csr.node_count() as u64);
    w.u64(csr.edge_count() as u64);
    w.u32s(csr.out_offsets());
    w.u32s(csr.out_to());
    w.u32s(csr.out_elem().quads().as_flattened());
    w.u32s(csr.in_offsets());
    w.u32s(csr.in_from());
    w.bytes(csr.out_cost());
    w.bytes(csr.in_cost());
    w.into_bytes()
}

/// Examples/suffixes: `seq_count u64 | total_elems u64 |
/// (seq_count+1)×u32 cumulative element offsets | total_elems packed
/// 4×u32 quads`.
fn encode_examples(examples: &[Vec<ElemJungloid>]) -> Vec<u8> {
    let total: usize = examples.iter().map(Vec::len).sum();
    let mut w = Writer::new();
    w.u64(examples.len() as u64);
    w.u64(total as u64);
    let mut acc: u32 = 0;
    w.u32(acc);
    for steps in examples {
        acc = acc
            .checked_add(u32::try_from(steps.len()).expect("example fits u32"))
            .expect("example arena fits u32");
        w.u32(acc);
    }
    for steps in examples {
        for &step in steps {
            for word in encode_quad(step) {
                w.u32(word);
            }
        }
    }
    w.into_bytes()
}

/// Padding bytes needed after a `len`-byte payload to reach the next
/// 8-byte boundary.
#[must_use]
pub fn pad_for(len: usize) -> usize {
    (8 - len % 8) % 8
}

fn emit_section(out: &mut Vec<u8>, tag: u32, payload: &[u8]) {
    let pad = pad_for(payload.len());
    let mut crc = Crc32::new();
    crc.update(&tag.to_le_bytes());
    crc.update(payload);
    out.extend_from_slice(&tag.to_le_bytes());
    out.extend_from_slice(&u32::try_from(pad).expect("pad < 8").to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc.finish().to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&[0u8; 8][..pad]);
}

/// Encodes a mined engine (API + graph + raw mined examples) to snapshot
/// bytes.
#[must_use]
pub fn to_bytes(api: &Api, graph: &JungloidGraph, mined_examples: &[Vec<ElemJungloid>]) -> Vec<u8> {
    let mut pool = StringPool::default();
    // Sections that intern strings are encoded first; the pool itself is
    // then emitted as section 1, ahead of everything that references it.
    let types = encode_types(api.types(), &mut pool);
    let members = encode_members(api, &mut pool);
    let graph_meta = encode_graph_meta(graph);
    let csr = encode_csr(graph.csr());
    let examples = encode_examples(mined_examples);
    let suffixes = encode_examples(graph.examples());
    let strings = encode_strings(&pool);

    let payloads = [&strings, &types, &members, &graph_meta, &csr, &examples, &suffixes];
    let total = HEADER_BYTES
        + payloads
            .iter()
            .map(|p| SECTION_HEADER_BYTES + p.len() + pad_for(p.len()))
            .sum::<usize>();
    let mut out = Vec::with_capacity(total);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&u32::try_from(SECTIONS.len()).expect("few sections").to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());
    for ((tag, _), payload) in SECTIONS.iter().zip(payloads) {
        emit_section(&mut out, *tag, payload);
    }
    out
}

// --- walking (framing validation) ---------------------------------------

fn verify_crc(name: &'static str, tag: u32, payload: &[u8], stored: u32) -> Result<(), StoreError> {
    let mut crc = Crc32::new();
    crc.update(&tag.to_le_bytes());
    crc.update(payload);
    let found = crc.finish();
    if found != stored {
        return Err(StoreError::ChecksumMismatch { section: name, expected: stored, found });
    }
    Ok(())
}

/// Validates the header and every section frame (tag order, length
/// bounds, padding, CRC32), returning the manifest. Payload *contents*
/// are not decoded. The version is checked right after the magic, so a
/// file of any other version — even one too short for this header — is
/// [`StoreError::UnsupportedVersion`].
fn walk(bytes: &[u8]) -> Result<Manifest, StoreError> {
    if bytes.len() < 8 {
        return Err(StoreError::Truncated { context: "header", offset: bytes.len() });
    }
    if bytes[..4] != MAGIC {
        return Err(StoreError::BadMagic { found: bytes[..4].try_into().expect("4 bytes") });
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return Err(StoreError::UnsupportedVersion { found: version, supported: FORMAT_VERSION });
    }
    if bytes.len() < HEADER_BYTES {
        return Err(StoreError::Truncated { context: "header", offset: bytes.len() });
    }
    let count = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if count as usize != SECTIONS.len() {
        return Err(StoreError::Corrupt {
            section: "header",
            detail: format!("{count} sections recorded, this format has {}", SECTIONS.len()),
        });
    }
    let reserved = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes"));
    if reserved != 0 {
        return Err(StoreError::Corrupt {
            section: "header",
            detail: format!("reserved header word must be zero, found {reserved:#x}"),
        });
    }
    let mut infos = Vec::with_capacity(SECTIONS.len());
    let mut pos = HEADER_BYTES;
    for &(expected_tag, name) in &SECTIONS {
        let Some(header) = bytes.get(pos..pos + SECTION_HEADER_BYTES) else {
            return Err(StoreError::Truncated { context: name, offset: pos });
        };
        let tag = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
        let pad = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
        let len = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
        let stored_crc = u32::from_le_bytes(header[16..20].try_into().expect("4 bytes"));
        let reserved = u32::from_le_bytes(header[20..24].try_into().expect("4 bytes"));
        if tag != expected_tag {
            return Err(StoreError::Corrupt {
                section: name,
                detail: format!("expected section tag {expected_tag}, found {tag}"),
            });
        }
        if reserved != 0 {
            return Err(StoreError::Corrupt {
                section: name,
                detail: format!("reserved frame word must be zero, found {reserved:#x}"),
            });
        }
        let len = usize::try_from(len).map_err(|_| StoreError::Corrupt {
            section: name,
            detail: format!("section length {len} exceeds addressable memory"),
        })?;
        if pad as usize != pad_for(len) {
            return Err(StoreError::Corrupt {
                section: name,
                detail: format!(
                    "padding of {pad} bytes disagrees with payload length {len} (expected {})",
                    pad_for(len)
                ),
            });
        }
        let start = pos + SECTION_HEADER_BYTES;
        let Some(payload) = start.checked_add(len).and_then(|end| bytes.get(start..end)) else {
            return Err(StoreError::Truncated { context: name, offset: bytes.len() - start });
        };
        let end = start + len;
        let Some(padding) = end.checked_add(pad as usize).and_then(|pe| bytes.get(end..pe))
        else {
            return Err(StoreError::Truncated { context: name, offset: bytes.len() - end });
        };
        if let Some(i) = padding.iter().position(|&b| b != 0) {
            return Err(StoreError::Corrupt {
                section: name,
                detail: format!(
                    "padding byte {i} is {:#04x}, padding must be zero (and is outside the CRC)",
                    padding[i]
                ),
            });
        }
        verify_crc(name, tag, payload, stored_crc)?;
        infos.push(SectionInfo {
            name,
            bytes: payload.len() as u64,
            crc32: stored_crc,
            offset: start as u64,
            pad_bytes: pad,
        });
        pos = end + pad as usize;
    }
    if pos != bytes.len() {
        return Err(StoreError::Corrupt {
            section: "header",
            detail: format!("{} trailing bytes after the last section", bytes.len() - pos),
        });
    }
    Ok(Manifest { version: FORMAT_VERSION, total_bytes: bytes.len() as u64, sections: infos })
}

/// Validates file structure (magic, version, section frames, padding,
/// checksums) and returns the per-section breakdown without decoding
/// payloads.
///
/// # Errors
///
/// Any framing-level [`StoreError`].
pub fn manifest(bytes: &[u8]) -> Result<Manifest, StoreError> {
    walk(bytes)
}

// --- decoding -----------------------------------------------------------

/// `len` elements of `T` starting `at` bytes into `buf`: borrowed on a
/// little-endian host, decoded into owned storage otherwise.
fn slab<T: Plain>(
    buf: &Arc<SnapshotBuf>,
    section: &'static str,
    at: usize,
    len: usize,
) -> Result<Slab<T>, StoreError> {
    Slab::load(buf, at, len).ok_or(StoreError::Truncated { context: section, offset: at })
}

/// Lays out a payload made of `N` u64 counts followed by `N` arrays of
/// u32 words, array `i` holding `count[i]` elements of `words[i]` words:
/// each array's byte offset in the buffer and its element count. The
/// sizes must add up to the payload exactly, in checked arithmetic.
fn word_arrays<const N: usize>(
    buf: &SnapshotBuf,
    info: &SectionInfo,
    words: [usize; N],
) -> Result<[(usize, usize); N], StoreError> {
    let section = info.name;
    let payload = section_payload(buf.as_slice(), info);
    if payload.len() < 8 * N {
        return Err(StoreError::Truncated { context: section, offset: payload.len() });
    }
    let mut arrays = [(0, 0); N];
    let mut at = 8 * N;
    for (i, &width) in words.iter().enumerate() {
        let raw = u64::from_le_bytes(payload[8 * i..8 * i + 8].try_into().expect("8 bytes"));
        let sized = usize::try_from(raw)
            .ok()
            .and_then(|count| Some((count, count.checked_mul(4 * width)?)))
            .filter(|&(_, bytes)| bytes <= payload.len() - at);
        let Some((count, bytes)) = sized else {
            return Err(StoreError::Corrupt {
                section,
                detail: format!("count {raw} (word {i}) cannot fit the payload"),
            });
        };
        arrays[i] = (section_start(info) + at, count);
        at += bytes;
    }
    if at != payload.len() {
        return Err(StoreError::Corrupt {
            section,
            detail: format!("{} bytes past the last array", payload.len() - at),
        });
    }
    Ok(arrays)
}

/// The string pool, borrowed: `count u64 | (count+1)×u32 offsets |
/// UTF-8 blob`, checked by [`NameArena::from_slabs`].
fn decode_strings(buf: &Arc<SnapshotBuf>, info: &SectionInfo) -> Result<NameArena, StoreError> {
    let section = "strings";
    let payload = section_payload(buf.as_slice(), info);
    if payload.len() < 8 {
        return Err(StoreError::Truncated { context: section, offset: payload.len() });
    }
    let count = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
    let offsets_len = usize::try_from(count)
        .ok()
        .and_then(|c| c.checked_add(1)?.checked_mul(4))
        .filter(|&len| len <= payload.len() - 8)
        .ok_or_else(|| StoreError::Corrupt {
            section,
            detail: format!("string count {count} cannot fit the payload"),
        })?;
    let offsets_at = section_start(info) + 8;
    let blob_len = payload.len() - 8 - offsets_len;
    NameArena::from_slabs(
        slab(buf, section, offsets_at, offsets_len / 4)?,
        slab(buf, section, offsets_at + offsets_len, blob_len)?,
    )
    .map_err(|e| StoreError::Corrupt { section, detail: e.to_string() })
}

/// The type table, its arrays borrowed; names point into `names`.
fn decode_types(
    buf: &Arc<SnapshotBuf>,
    info: &SectionInfo,
    names: &NameArena,
) -> Result<TypeTable, StoreError> {
    let section = "types";
    let [(pk_at, pk), (ty_at, ty), (if_at, ifs)] =
        word_arrays(buf, info, [1, TYPE_RECORD_WORDS, 1])?;
    TypeTable::from_slabs(
        names.clone(),
        slab(buf, section, pk_at, pk)?,
        slab(buf, section, ty_at, ty)?,
        slab(buf, section, if_at, ifs)?,
    )
    .map_err(|e| StoreError::Corrupt { section, detail: e.to_string() })
}

/// The member tables, their arrays borrowed; names point into `names`.
fn decode_members(
    buf: &Arc<SnapshotBuf>,
    info: &SectionInfo,
    types: TypeTable,
    names: NameArena,
) -> Result<Api, StoreError> {
    let section = "members";
    let [(m_at, m), (p_at, p), (pn_at, pn), (f_at, f)] =
        word_arrays(buf, info, [METHOD_RECORD_WORDS, 1, 1, FIELD_RECORD_WORDS])?;
    Api::from_slabs(
        types,
        names,
        slab(buf, section, m_at, m)?,
        slab(buf, section, p_at, p)?,
        slab(buf, section, pn_at, pn)?,
        slab(buf, section, f_at, f)?,
    )
    .map_err(|e| StoreError::Corrupt { section, detail: e.to_string() })
}

fn decode_ty(r: &Reader<'_>, raw: u32, arena_len: usize) -> Result<TyId, StoreError> {
    if (raw as usize) < arena_len {
        Ok(TyId::from_index(raw as usize))
    } else {
        Err(r.corrupt(format!("type reference {raw} out of range ({arena_len} slots)")))
    }
}

/// Validates that a quad-decoded jungloid's references are all in range
/// for `api`. Must run before `api.method(...)`-style lookups.
fn check_elem(section: &'static str, api: &Api, elem: ElemJungloid) -> Result<(), StoreError> {
    let arena_len = api.types().len();
    let fail = |detail: String| Err(StoreError::Corrupt { section, detail });
    match elem {
        ElemJungloid::FieldAccess { field } => {
            if field.index() >= api.field_count() {
                return fail(format!(
                    "field index {} out of range ({})",
                    field.index(),
                    api.field_count()
                ));
            }
        }
        ElemJungloid::Call { method, input } => {
            if method.index() >= api.method_count() {
                return fail(format!(
                    "method index {} out of range ({})",
                    method.index(),
                    api.method_count()
                ));
            }
            if let Some(InputSlot::Arg(i)) = input {
                if i >= api.method(method).params().len() {
                    return fail(format!("parameter slot {i} out of range"));
                }
            }
        }
        ElemJungloid::Widen { from, to } | ElemJungloid::Downcast { from, to } => {
            for t in [from, to] {
                if t.index() >= arena_len {
                    return fail(format!(
                        "type reference {} out of range ({arena_len} slots)",
                        t.index()
                    ));
                }
            }
        }
    }
    Ok(())
}

struct GraphMeta {
    config: GraphConfig,
    mined_base: Vec<TyId>,
    edge_count: u64,
}

fn decode_graph_meta(payload: &[u8], api: &Api) -> Result<GraphMeta, StoreError> {
    let mut r = Reader::new("graph", payload);
    let config = GraphConfig {
        include_protected: r.u8()? != 0,
        restrict_weak_params: r.u8()? != 0,
    };
    let ty_count = r.u32()? as usize;
    if ty_count != api.types().len() {
        return Err(r.corrupt(format!(
            "graph was saved over {ty_count} types but the snapshot API declares {}",
            api.types().len()
        )));
    }
    let mined_count = r.count(4)?;
    let mut mined_base = Vec::with_capacity(mined_count);
    for _ in 0..mined_count {
        let raw = r.u32()?;
        mined_base.push(decode_ty(&r, raw, ty_count)?);
    }
    let edge_count = r.u64()?;
    r.finish()?;
    Ok(GraphMeta { config, mined_base, edge_count })
}

/// Decodes the CSR section into slabs borrowed from `buf` — the
/// zero-copy core of the format. One O(edges) scan validates every
/// packed quad (shape and reference ranges) before any of them can reach
/// the query hot path; the structural offset/cost invariants are then
/// enforced by [`CsrAdjacency::from_slabs`].
fn decode_csr(
    buf: &Arc<SnapshotBuf>,
    info: &SectionInfo,
    api: &Api,
    meta: &GraphMeta,
) -> Result<CsrAdjacency, StoreError> {
    let section = "csr";
    let fail = |detail: String| Err(StoreError::Corrupt { section, detail });
    let payload_off = section_start(info);
    let payload = section_payload(buf.as_slice(), info);
    let payload_len = payload.len();
    if payload.len() < 16 {
        return Err(StoreError::Truncated { context: section, offset: payload.len() });
    }
    let node_count = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
    let edge_count = u64::from_le_bytes(payload[8..16].try_into().expect("8 bytes"));
    let expected_nodes = api.types().len() + meta.mined_base.len();
    let n = usize::try_from(node_count)
        .ok()
        .filter(|&n| n == expected_nodes)
        .ok_or_else(|| StoreError::Corrupt {
            section,
            detail: format!(
                "CSR covers {node_count} nodes, graph metadata implies {expected_nodes}"
            ),
        })?;
    // Total size closes the arithmetic: 16-byte counts, two (n+1)-entry
    // u32 offset arrays, two e-entry u32 endpoint arrays, e packed
    // 16-byte quads, two e-entry u8 cost arrays.
    let e = usize::try_from(edge_count)
        .ok()
        .and_then(|e| {
            let arrays = 8usize
                .checked_mul(n + 1)?
                .checked_add(e.checked_mul(4 + 4 + 16 + 1 + 1)?)?
                .checked_add(16)?;
            (arrays == payload_len).then_some(e)
        })
        .ok_or_else(|| StoreError::Corrupt {
            section,
            detail: format!(
                "edge count {edge_count} disagrees with the section length {payload_len}"
            ),
        })?;
    let fwd_off_at = payload_off + 16;
    let fwd_to_at = fwd_off_at + 4 * (n + 1);
    let quads_at = fwd_to_at + 4 * e;
    let rev_off_at = quads_at + 16 * e;
    let rev_from_at = rev_off_at + 4 * (n + 1);
    let fwd_cost_at = rev_from_at + 4 * e;
    let rev_cost_at = fwd_cost_at + e;

    let quads: Slab<[u32; 4]> = slab(buf, section, quads_at, e)?;
    for (i, &quad) in quads.iter().enumerate() {
        let Some(elem) = decode_quad(quad) else {
            return fail(format!("edge {i} holds a malformed jungloid quad {quad:?}"));
        };
        check_elem(section, api, elem)?;
    }

    CsrAdjacency::from_slabs(
        slab(buf, section, fwd_off_at, n + 1)?,
        slab(buf, section, fwd_to_at, e)?,
        ElemSeq::packed(quads),
        slab(buf, section, fwd_cost_at, e)?,
        slab(buf, section, rev_off_at, n + 1)?,
        slab(buf, section, rev_from_at, e)?,
        slab(buf, section, rev_cost_at, e)?,
    )
    .map_err(|err| StoreError::Corrupt { section, detail: err.detail })
}

/// Decodes an examples/suffixes payload. The quads are materialized
/// into owned step-sequences — example splicing and dedup mutate them,
/// so unlike the CSR they do not stay borrowed.
fn decode_examples(
    payload: &[u8],
    api: &Api,
    section: &'static str,
) -> Result<Vec<Vec<ElemJungloid>>, StoreError> {
    let fail = |detail: String| Err(StoreError::Corrupt { section, detail });
    if payload.len() < 16 {
        return Err(StoreError::Truncated { context: section, offset: payload.len() });
    }
    let seq_count = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
    let total = u64::from_le_bytes(payload[8..16].try_into().expect("8 bytes"));
    let sizes = usize::try_from(seq_count).ok().zip(usize::try_from(total).ok()).and_then(
        |(c, t)| {
            let need = 16usize
                .checked_add(c.checked_add(1)?.checked_mul(4)?)?
                .checked_add(t.checked_mul(16)?)?;
            (need == payload.len()).then_some((c, t))
        },
    );
    let Some((count, total)) = sizes else {
        return fail(format!(
            "{seq_count} sequences / {total} elements disagree with the section length {}",
            payload.len()
        ));
    };
    let offsets = &payload[16..16 + (count + 1) * 4];
    let quads = &payload[16 + (count + 1) * 4..];
    let at = |i: usize| {
        u32::from_le_bytes(offsets[i * 4..i * 4 + 4].try_into().expect("4 bytes")) as usize
    };
    if at(0) != 0 {
        return fail("sequence offsets must start at 0".to_owned());
    }
    for i in 0..count {
        if at(i) > at(i + 1) {
            return fail(format!("sequence offsets must be monotone (entry {i})"));
        }
    }
    if at(count) != total {
        return fail(format!("sequence offsets end at {} but {total} elements are stored", at(count)));
    }
    let mut elems = Vec::with_capacity(total);
    for (i, raw) in quads.chunks_exact(16).enumerate() {
        let word = |k: usize| u32::from_le_bytes(raw[k * 4..k * 4 + 4].try_into().expect("4 bytes"));
        let quad = [word(0), word(1), word(2), word(3)];
        let Some(elem) = decode_quad(quad) else {
            return fail(format!("element {i} holds a malformed jungloid quad {quad:?}"));
        };
        check_elem(section, api, elem)?;
        elems.push(elem);
    }
    Ok((0..count).map(|i| elems[at(i)..at(i + 1)].to_vec()).collect())
}

fn section_start(info: &SectionInfo) -> usize {
    usize::try_from(info.offset).expect("offset fits usize")
}

fn section_payload<'a>(bytes: &'a [u8], info: &SectionInfo) -> &'a [u8] {
    let start = section_start(info);
    &bytes[start..start + usize::try_from(info.bytes).expect("length fits usize")]
}

/// Wall time of each stage of one snapshot load, in microseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LoadPhases {
    /// Opening the file (read or map) and validating its framing:
    /// header, section frames, padding, CRCs.
    pub validate_us: u64,
    /// The string pool and the type table, name index included.
    pub types_us: u64,
    /// The member tables and their per-type index.
    pub members_us: u64,
    /// Graph metadata and the CSR arrays with their checks.
    pub csr_us: u64,
    /// The example sections and the graph's assembly.
    pub finish_us: u64,
}

/// Microseconds since `*mark`, restarting the mark.
fn lap(mark: &mut Instant) -> u64 {
    let us = elapsed_us(*mark);
    *mark = Instant::now();
    us
}

/// Decodes a validated buffer: the string pool, the API tables and the
/// CSR stay borrowed from `buf`; the example lists are materialized.
fn decode(
    buf: &Arc<SnapshotBuf>,
    manifest: &Manifest,
    phases: &mut LoadPhases,
) -> Result<Snapshot, StoreError> {
    let bytes = buf.as_slice();
    let pay = |i: usize| section_payload(bytes, &manifest.sections[i]);
    let mut mark = Instant::now();
    let names = decode_strings(buf, &manifest.sections[0])?;
    let types = decode_types(buf, &manifest.sections[1], &names)?;
    phases.types_us = lap(&mut mark);
    let api = decode_members(buf, &manifest.sections[2], types, names)?;
    phases.members_us = lap(&mut mark);
    let meta = decode_graph_meta(pay(3), &api)?;
    let csr = decode_csr(buf, &manifest.sections[4], &api, &meta)?;
    phases.csr_us = lap(&mut mark);
    if csr.edge_count() as u64 != meta.edge_count {
        return Err(StoreError::Corrupt {
            section: "graph",
            detail: format!(
                "metadata records {} edges, CSR stores {}",
                meta.edge_count,
                csr.edge_count()
            ),
        });
    }
    let mined_examples = decode_examples(pay(5), &api, "examples")?;
    let suffixes = decode_examples(pay(6), &api, "suffixes")?;
    let graph = JungloidGraph::from_snapshot(&api, meta.config, meta.mined_base, suffixes, csr)
        .map_err(|e| StoreError::Corrupt { section: "graph", detail: e.detail })?;
    phases.finish_us = lap(&mut mark);
    Ok(Snapshot { api, graph, mined_examples })
}

/// Decodes snapshot bytes back into a ready-to-query engine state. The
/// input is first copied into one aligned buffer so the engine can
/// borrow from it; use [`from_buf`] or [`load`] to avoid even that
/// single copy.
///
/// # Errors
///
/// Every malformed input returns a typed [`StoreError`]; the decoder
/// never panics. Framing damage surfaces as
/// [`StoreError::Truncated`]/[`StoreError::ChecksumMismatch`], structural
/// impossibilities as [`StoreError::Corrupt`] naming the section.
pub fn from_bytes(bytes: &[u8]) -> Result<Snapshot, StoreError> {
    let m = walk(bytes)?;
    let buf = Arc::new(SnapshotBuf::from_bytes(bytes));
    decode(&buf, &m, &mut LoadPhases::default())
}

/// Decodes a snapshot straight out of an aligned buffer. The returned
/// engine's CSR arrays *borrow from `buf`* (the `Arc` keeps it alive) —
/// the zero-copy path.
///
/// # Errors
///
/// As [`from_bytes`].
pub fn from_buf(buf: &Arc<SnapshotBuf>) -> Result<(Snapshot, Manifest), StoreError> {
    let m = walk(buf.as_slice())?;
    let snapshot = decode(buf, &m, &mut LoadPhases::default())?;
    Ok((snapshot, m))
}

// --- file I/O + observability -------------------------------------------

/// Sets the `store.section.<section>.bytes` gauges; the catalog lists
/// the sections in file order.
fn record_sections(manifest: &Manifest) {
    for (i, s) in manifest.sections.iter().enumerate() {
        prospector_obs::metrics::global().gauge_set_at(Gauge::StoreSectionBytes, i, s.bytes);
    }
}

/// Encodes and writes a snapshot, reporting `store.save_bytes` and
/// the per-section size gauges under a `store` stage span.
///
/// # Errors
///
/// [`StoreError::Io`] on write failure.
pub fn save_file(
    path: &Path,
    api: &Api,
    graph: &JungloidGraph,
    mined_examples: &[Vec<ElemJungloid>],
) -> Result<Manifest, StoreError> {
    let _span = prospector_obs::stage(Stage::Store);
    let bytes = to_bytes(api, graph, mined_examples);
    let manifest = manifest(&bytes).expect("freshly encoded snapshot is well-formed");
    std::fs::write(path, &bytes)
        .map_err(|source| StoreError::Io { path: path.to_owned(), source })?;
    prospector_obs::add(Counter::StoreSaves, 1);
    prospector_obs::gauge_set(Gauge::StoreSaveBytes, bytes.len() as u64);
    record_sections(&manifest);
    Ok(manifest)
}

fn record_load(manifest: &Manifest, bytes: u64, validate_us: u64) {
    prospector_obs::add(Counter::StoreLoads, 1);
    // The load is validate-then-borrow, so `store.map_ms` records the
    // validate-only stage — O(sections checksummed), the number the
    // format exists to shrink.
    let ms = validate_us / 1000;
    prospector_obs::gauge_set(Gauge::StoreMapMs, ms);
    prospector_obs::gauge_set(Gauge::StoreLoadBytes, bytes);
    record_sections(manifest);
}

/// A snapshot loaded from a file by [`load`], with what the load saw.
#[derive(Debug)]
pub struct Loaded {
    /// The decoded engine state.
    pub snapshot: Snapshot,
    /// The validated per-section breakdown.
    pub manifest: Manifest,
    /// Whether the tables borrow from an mmap'd region; `false` for an
    /// owned read, including an mmap request the platform could not
    /// honor.
    pub mapped: bool,
    /// How long each phase of the load took.
    pub phases: LoadPhases,
}

fn elapsed_us(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Loads a snapshot file: the one entry point the CLI, `serve`, tenant
/// (re)loads, `index inspect`, the benchmarks and the tests share.
///
/// With `mmap` the file is mapped read-only where the platform allows,
/// so the kernel pages it in on demand and shares it across processes;
/// when mapping fails it is read into one owned aligned buffer instead,
/// and [`Loaded::mapped`] says which happened. Either way the framing —
/// magic, version, section offsets, padding, CRCs — is validated once
/// (recorded as `store.map_ms`), and then the string pool, the API
/// tables and the CSR are borrowed from the buffer, never copied.
///
/// # Errors
///
/// [`StoreError::Io`] if the file cannot be read; any decode-level
/// [`StoreError`] otherwise.
pub fn load(path: &Path, mmap: bool) -> Result<Loaded, StoreError> {
    let _span = prospector_obs::stage(Stage::Store);
    let start = Instant::now();
    let read = if mmap {
        SnapshotBuf::map_file(path).map(|(buf, _)| buf)
    } else {
        SnapshotBuf::read_file(path)
    };
    let buf = read.map_err(|source| StoreError::Io { path: path.to_owned(), source })?;
    let manifest = walk(buf.as_slice())?;
    let mut phases = LoadPhases { validate_us: elapsed_us(start), ..LoadPhases::default() };
    let buf = Arc::new(buf);
    let snapshot = decode(&buf, &manifest, &mut phases)?;
    record_load(&manifest, buf.len() as u64, phases.validate_us);
    Ok(Loaded { snapshot, manifest, mapped: buf.is_mapped(), phases })
}

#[cfg(test)]
mod tests {
    /// `record_sections` files each section under its index in the
    /// catalog's `store.section.<section>.bytes` labels.
    #[test]
    fn section_gauges_follow_the_file_order() {
        let labels = prospector_obs::Gauge::StoreSectionBytes.row().labels;
        assert_eq!(labels, super::SECTIONS.map(|(_, name)| name));
    }

    /// A directory maps to nothing and cannot be read either, so the
    /// owned-read fallback's error comes back typed.
    #[test]
    fn loading_a_directory_is_an_io_error() {
        let dir = std::env::temp_dir();
        for mmap in [true, false] {
            match super::load(&dir, mmap) {
                Err(crate::StoreError::Io { path, .. }) => assert_eq!(path, dir),
                other => panic!("mmap={mmap}: expected an I/O error, got {other:?}"),
            }
        }
    }
}
