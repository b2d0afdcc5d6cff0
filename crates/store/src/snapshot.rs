//! The `.pspk` section layout: encoding a mined engine to bytes and
//! validating/decoding it back.
//!
//! # Format v2 (written by this build)
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
//! That alignment is the point of v2: the hot sections (CSR arrays,
//! string pool, example quads) are flat little-endian arrays a loader can
//! hand out as `&[u32]`/`&[u8]` views borrowed directly from one aligned
//! read or an mmap'd region — validate the CRCs once, copy nothing. The
//! CRC32 covers tag bytes + payload (padding excluded); padding must be
//! zero and is checked separately, so a flipped pad byte is a typed
//! [`StoreError::Corrupt`] naming the section.
//!
//! | tag | section    | v2 payload layout                                   |
//! |-----|------------|-----------------------------------------------------|
//! | 1   | `strings`  | count u64, (count+1)×u32 byte offsets, UTF-8 blob   |
//! | 2   | `types`    | v1 byte-wise encoding (cold; decoded into arenas)   |
//! | 3   | `members`  | v1 byte-wise encoding (cold; decoded into arenas)   |
//! | 4   | `graph`    | v1 byte-wise encoding (config, counts, mined bases) |
//! | 5   | `csr`      | counts, offset/endpoint u32 arrays, packed 4×u32    |
//! |     |            | jungloid quads, then the u8 cost arrays last        |
//! | 6   | `examples` | seq/elem counts, (count+1)×u32 offsets, 4×u32 quads |
//! | 7   | `suffixes` | same layout as `examples`                           |
//!
//! The loader reconstructs [`CsrAdjacency`] from section 5 as borrowed
//! slabs — no rebuild, no per-element copies — and
//! [`JungloidGraph::from_snapshot`] keeps the graph frozen on that CSR,
//! so a warm-started engine is byte-identical to the one that was saved.
//!
//! # Format v1 (read compatibility)
//!
//! v1 files (12-byte header, 16-byte section frames, no padding,
//! byte-wise payloads everywhere) are still decoded in full; versions
//! above [`FORMAT_VERSION`] are a typed
//! [`StoreError::UnsupportedVersion`]. [`to_bytes_v1`] keeps the v1
//! encoder for fixtures and downgrade escapes.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use jungloid_apidef::{
    Api, ElemJungloid, FieldId, InputSlot, MemberTables, MethodId, RawField, RawMethod, Visibility,
};
use jungloid_typesys::{
    PackageId, Prim, RawSlot, RawSlotView, TyId, TypeError, TypeKind, TypeTable,
};
use prospector_core::graph::{CsrAdjacency, JungloidGraph, NodeId};
use prospector_core::slab::{decode_quad, encode_quad, ElemSeq, Slab, SnapshotBuf};
use prospector_core::GraphConfig;

use crate::crc32::Crc32;
use crate::error::StoreError;
use crate::rw::{Reader, Writer};

/// The four magic bytes every snapshot starts with.
pub const MAGIC: [u8; 4] = *b"PSPK";

/// Format version written by this build. Reads accept this version and
/// every older one; anything newer is [`StoreError::UnsupportedVersion`].
pub const FORMAT_VERSION: u32 = 2;

/// The original byte-wise format, still readable (and writable via
/// [`to_bytes_v1`]).
pub const V1_FORMAT_VERSION: u32 = 1;

/// `(tag, name)` of every section, in file order (same for v1 and v2).
const SECTIONS: [(u32, &str); 7] = [
    (1, "strings"),
    (2, "types"),
    (3, "members"),
    (4, "graph"),
    (5, "csr"),
    (6, "examples"),
    (7, "suffixes"),
];

const V1_HEADER_BYTES: usize = 12;
const V1_SECTION_HEADER_BYTES: usize = 16;
const V2_HEADER_BYTES: usize = 16;
const V2_SECTION_HEADER_BYTES: usize = 24;

/// A fully decoded snapshot: everything needed to warm-start an engine.
#[derive(Debug)]
pub struct Snapshot {
    /// The API model (type table + members).
    pub api: Api,
    /// The jungloid graph, CSR reconstructed verbatim (no rebuild). On
    /// the v2 path its arrays borrow from the snapshot buffer.
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
    /// File offset where the payload starts. A multiple of 8 in v2 — the
    /// alignment that makes zero-copy views possible.
    pub offset: u64,
    /// Zero bytes appended after the payload (always 0 in v1).
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

/// Whether `bytes` look like a binary snapshot (magic sniff only) — the
/// CLI uses this to route `--index` files between this format and the
/// JSON debug path.
#[must_use]
pub fn is_snapshot(bytes: &[u8]) -> bool {
    bytes.len() >= 4 && bytes[..4] == MAGIC
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

fn encode_elem(w: &mut Writer, elem: &ElemJungloid) {
    match *elem {
        ElemJungloid::FieldAccess { field } => {
            w.u8(0);
            w.index(field.index());
        }
        ElemJungloid::Call { method, input } => {
            w.u8(1);
            w.index(method.index());
            match input {
                None => w.u8(0),
                Some(InputSlot::Receiver) => w.u8(1),
                Some(InputSlot::Arg(i)) => {
                    w.u8(2);
                    w.index(i);
                }
            }
        }
        ElemJungloid::Widen { from, to } => {
            w.u8(2);
            w.index(from.index());
            w.index(to.index());
        }
        ElemJungloid::Downcast { from, to } => {
            w.u8(3);
            w.index(from.index());
            w.index(to.index());
        }
    }
}

fn encode_examples_v1(examples: &[Vec<ElemJungloid>]) -> Vec<u8> {
    let mut w = Writer::new();
    w.index(examples.len());
    for steps in examples {
        w.index(steps.len());
        for step in steps {
            encode_elem(&mut w, step);
        }
    }
    w.into_bytes()
}

fn encode_types(types: &TypeTable, pool: &mut StringPool) -> Vec<u8> {
    let mut w = Writer::new();
    w.index(types.package_names().len());
    for p in types.package_names() {
        w.u32(pool.intern(p));
    }
    let slots = types.raw_slot_views();
    w.index(slots.len());
    for slot in slots {
        match slot {
            RawSlotView::Void => w.u8(0),
            RawSlotView::Null => w.u8(1),
            RawSlotView::Prim(p) => {
                w.u8(2);
                w.u8(u8::try_from(Prim::ALL.iter().position(|q| *q == p).expect("listed"))
                    .expect("8 prims"));
            }
            RawSlotView::Decl { simple, package, kind, superclass, interfaces } => {
                w.u8(3);
                w.u32(pool.intern(simple));
                w.index(package.index());
                w.u8(match kind {
                    TypeKind::Class => 0,
                    TypeKind::Interface => 1,
                });
                w.u32(superclass.map_or(u32::MAX, |s| {
                    u32::try_from(s.index()).expect("arena fits u32")
                }));
                w.index(interfaces.len());
                for i in interfaces {
                    w.index(i.index());
                }
            }
            RawSlotView::Array { elem } => {
                w.u8(4);
                w.index(elem.index());
            }
        }
    }
    w.into_bytes()
}

fn encode_visibility(v: Visibility) -> u8 {
    match v {
        Visibility::Public => 0,
        Visibility::Protected => 1,
        Visibility::Private => 2,
    }
}

fn encode_members(api: &Api, pool: &mut StringPool) -> Vec<u8> {
    let mut w = Writer::new();
    w.index(api.method_count());
    for m in api.method_ids() {
        let def = api.method(m);
        w.u32(pool.intern(def.name()));
        w.index(def.declaring().index());
        w.index(def.params().len());
        for p in def.params() {
            w.index(p.index());
        }
        w.index(def.param_names().len());
        for name in def.param_names() {
            match name {
                None => w.u8(0),
                Some(n) => {
                    w.u8(1);
                    w.u32(pool.intern(n));
                }
            }
        }
        w.index(def.ret().index());
        w.u8(encode_visibility(def.visibility()));
        w.u8(u8::from(def.is_static()));
        w.u8(u8::from(def.is_constructor()));
    }
    w.index(api.field_count());
    for f in api.field_ids() {
        let def = api.field(f);
        w.u32(pool.intern(def.name()));
        w.index(def.declaring().index());
        w.index(def.ty().index());
        w.u8(encode_visibility(def.visibility()));
        w.u8(u8::from(def.is_static()));
    }
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

fn encode_csr_v1(csr: &CsrAdjacency) -> Vec<u8> {
    let mut w = Writer::new();
    w.index(csr.node_count());
    for &off in csr.out_offsets() {
        w.u32(off);
    }
    w.u64(csr.edge_count() as u64);
    for &to in csr.out_to() {
        w.u32(to);
    }
    for &cost in csr.out_cost() {
        w.u8(cost);
    }
    for elem in csr.out_elem().iter() {
        encode_elem(&mut w, &elem);
    }
    for &off in csr.in_offsets() {
        w.u32(off);
    }
    for &from in csr.in_from() {
        w.u32(from);
    }
    for &cost in csr.in_cost() {
        w.u8(cost);
    }
    w.into_bytes()
}

fn encode_strings_v1(pool: &StringPool) -> Vec<u8> {
    let mut w = Writer::new();
    w.index(pool.strings.len());
    for s in &pool.strings {
        w.index(s.len());
        w.bytes(s.as_bytes());
    }
    w.into_bytes()
}

/// v2 strings: `count u64 | (count+1)×u32 cumulative byte offsets |
/// UTF-8 blob`. Offsets let a borrowed view slice any string in O(1).
fn encode_strings_v2(pool: &StringPool) -> Vec<u8> {
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

/// v2 CSR: `node_count u64 | edge_count u64`, then the u32 arrays
/// (forward offsets, forward targets, packed 4×u32 jungloid quads,
/// reverse offsets, reverse sources), then the two u8 cost arrays
/// *last* so every u32 array stays 4-byte-aligned without internal
/// padding.
fn encode_csr_v2(csr: &CsrAdjacency) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(csr.node_count() as u64);
    w.u64(csr.edge_count() as u64);
    for &off in csr.out_offsets() {
        w.u32(off);
    }
    for &to in csr.out_to() {
        w.u32(to);
    }
    for i in 0..csr.edge_count() {
        for word in encode_quad(csr.out_elem().get(i)) {
            w.u32(word);
        }
    }
    for &off in csr.in_offsets() {
        w.u32(off);
    }
    for &from in csr.in_from() {
        w.u32(from);
    }
    for &cost in csr.out_cost() {
        w.u8(cost);
    }
    for &cost in csr.in_cost() {
        w.u8(cost);
    }
    w.into_bytes()
}

/// v2 examples/suffixes: `seq_count u64 | total_elems u64 |
/// (seq_count+1)×u32 cumulative element offsets | total_elems packed
/// 4×u32 quads`.
fn encode_examples_v2(examples: &[Vec<ElemJungloid>]) -> Vec<u8> {
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

fn emit_section_v1(out: &mut Vec<u8>, tag: u32, payload: &[u8]) {
    let mut crc = Crc32::new();
    crc.update(&tag.to_le_bytes());
    crc.update(payload);
    out.extend_from_slice(&tag.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc.finish().to_le_bytes());
    out.extend_from_slice(payload);
}

/// Padding bytes needed after a `len`-byte payload to reach the next
/// 8-byte boundary.
#[must_use]
pub fn pad_for(len: usize) -> usize {
    (8 - len % 8) % 8
}

fn emit_section_v2(out: &mut Vec<u8>, tag: u32, payload: &[u8]) {
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

/// Encodes a mined engine (API + graph + raw mined examples) to format-v2
/// snapshot bytes.
#[must_use]
pub fn to_bytes(api: &Api, graph: &JungloidGraph, mined_examples: &[Vec<ElemJungloid>]) -> Vec<u8> {
    let mut pool = StringPool::default();
    // Sections that intern strings are encoded first; the pool itself is
    // then emitted as section 1, ahead of everything that references it.
    let types = encode_types(api.types(), &mut pool);
    let members = encode_members(api, &mut pool);
    let graph_meta = encode_graph_meta(graph);
    let csr = encode_csr_v2(graph.csr());
    let examples = encode_examples_v2(mined_examples);
    let suffixes = encode_examples_v2(graph.examples());
    let strings = encode_strings_v2(&pool);

    let payloads = [&strings, &types, &members, &graph_meta, &csr, &examples, &suffixes];
    let total = V2_HEADER_BYTES
        + payloads
            .iter()
            .map(|p| V2_SECTION_HEADER_BYTES + p.len() + pad_for(p.len()))
            .sum::<usize>();
    let mut out = Vec::with_capacity(total);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&u32::try_from(SECTIONS.len()).expect("few sections").to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());
    for ((tag, _), payload) in SECTIONS.iter().zip(payloads) {
        emit_section_v2(&mut out, *tag, payload);
    }
    out
}

/// Encodes to the legacy v1 layout (byte-wise payloads, unaligned, no
/// padding). Kept for backward-compat fixtures; new snapshots should use
/// [`to_bytes`].
#[must_use]
pub fn to_bytes_v1(
    api: &Api,
    graph: &JungloidGraph,
    mined_examples: &[Vec<ElemJungloid>],
) -> Vec<u8> {
    let mut pool = StringPool::default();
    let types = encode_types(api.types(), &mut pool);
    let members = encode_members(api, &mut pool);
    let graph_meta = encode_graph_meta(graph);
    let csr = encode_csr_v1(graph.csr());
    let examples = encode_examples_v1(mined_examples);
    let suffixes = encode_examples_v1(graph.examples());
    let strings = encode_strings_v1(&pool);

    let payloads = [&strings, &types, &members, &graph_meta, &csr, &examples, &suffixes];
    let total = V1_HEADER_BYTES
        + payloads.iter().map(|p| V1_SECTION_HEADER_BYTES + p.len()).sum::<usize>();
    let mut out = Vec::with_capacity(total);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&V1_FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&u32::try_from(SECTIONS.len()).expect("few sections").to_le_bytes());
    for ((tag, _), payload) in SECTIONS.iter().zip(payloads) {
        emit_section_v1(&mut out, *tag, payload);
    }
    out
}

// --- walking (framing validation) ---------------------------------------

/// Validates the header and every section frame (tag order, length
/// bounds, padding, CRC32) for whichever format version the file
/// declares, returning the manifest. Payload *contents* are not decoded.
fn walk(bytes: &[u8]) -> Result<Manifest, StoreError> {
    if bytes.len() < 8 {
        return Err(StoreError::Truncated { context: "header", offset: bytes.len() });
    }
    if bytes[..4] != MAGIC {
        return Err(StoreError::BadMagic { found: bytes[..4].try_into().expect("4 bytes") });
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    match version {
        V1_FORMAT_VERSION => walk_v1(bytes),
        FORMAT_VERSION => walk_v2(bytes),
        _ => Err(StoreError::UnsupportedVersion { found: version, supported: FORMAT_VERSION }),
    }
}

fn check_section_count(bytes: &[u8]) -> Result<(), StoreError> {
    let count = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if count as usize != SECTIONS.len() {
        return Err(StoreError::Corrupt {
            section: "header",
            detail: format!("{count} sections recorded, this format has {}", SECTIONS.len()),
        });
    }
    Ok(())
}

fn walk_v1(bytes: &[u8]) -> Result<Manifest, StoreError> {
    if bytes.len() < V1_HEADER_BYTES {
        return Err(StoreError::Truncated { context: "header", offset: bytes.len() });
    }
    check_section_count(bytes)?;
    let mut infos = Vec::with_capacity(SECTIONS.len());
    let mut pos = V1_HEADER_BYTES;
    for &(expected_tag, name) in &SECTIONS {
        let Some(header) = bytes.get(pos..pos + V1_SECTION_HEADER_BYTES) else {
            return Err(StoreError::Truncated { context: name, offset: pos });
        };
        let tag = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
        let len = u64::from_le_bytes(header[4..12].try_into().expect("8 bytes"));
        let stored_crc = u32::from_le_bytes(header[12..16].try_into().expect("4 bytes"));
        if tag != expected_tag {
            return Err(StoreError::Corrupt {
                section: name,
                detail: format!("expected section tag {expected_tag}, found {tag}"),
            });
        }
        let len = usize::try_from(len).map_err(|_| StoreError::Corrupt {
            section: name,
            detail: format!("section length {len} exceeds addressable memory"),
        })?;
        let start = pos + V1_SECTION_HEADER_BYTES;
        let Some(payload) = start.checked_add(len).and_then(|end| bytes.get(start..end)) else {
            return Err(StoreError::Truncated { context: name, offset: bytes.len() - start });
        };
        verify_crc(name, tag, payload, stored_crc)?;
        infos.push(SectionInfo {
            name,
            bytes: payload.len() as u64,
            crc32: stored_crc,
            offset: start as u64,
            pad_bytes: 0,
        });
        pos = start + len;
    }
    if pos != bytes.len() {
        return Err(StoreError::Corrupt {
            section: "header",
            detail: format!("{} trailing bytes after the last section", bytes.len() - pos),
        });
    }
    Ok(Manifest { version: V1_FORMAT_VERSION, total_bytes: bytes.len() as u64, sections: infos })
}

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

fn walk_v2(bytes: &[u8]) -> Result<Manifest, StoreError> {
    if bytes.len() < V2_HEADER_BYTES {
        return Err(StoreError::Truncated { context: "header", offset: bytes.len() });
    }
    check_section_count(bytes)?;
    let reserved = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes"));
    if reserved != 0 {
        return Err(StoreError::Corrupt {
            section: "header",
            detail: format!("reserved header word must be zero, found {reserved:#x}"),
        });
    }
    let mut infos = Vec::with_capacity(SECTIONS.len());
    let mut pos = V2_HEADER_BYTES;
    for &(expected_tag, name) in &SECTIONS {
        let Some(header) = bytes.get(pos..pos + V2_SECTION_HEADER_BYTES) else {
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
        let start = pos + V2_SECTION_HEADER_BYTES;
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

/// The string pool, owned (v1 decode) or a view borrowed straight from
/// the v2 payload. Both decoders below resolve refs through this, so the
/// byte-wise section decoders are shared between format versions.
enum Strings<'a> {
    Owned(Vec<String>),
    View { count: usize, offsets: &'a [u8], blob: &'a [u8] },
}

impl Strings<'_> {
    fn len(&self) -> usize {
        match self {
            Strings::Owned(v) => v.len(),
            Strings::View { count, .. } => *count,
        }
    }

    /// Total bytes of all pooled strings.
    fn bytes(&self) -> usize {
        match self {
            Strings::Owned(v) => v.iter().map(String::len).sum(),
            Strings::View { blob, .. } => blob.len(),
        }
    }

    fn get(&self, id: u32) -> Option<&str> {
        match self {
            Strings::Owned(v) => v.get(id as usize).map(String::as_str),
            Strings::View { count, offsets, blob } => {
                let id = id as usize;
                if id >= *count {
                    return None;
                }
                let at = |i: usize| {
                    u32::from_le_bytes(offsets[i * 4..i * 4 + 4].try_into().expect("4 bytes"))
                        as usize
                };
                blob.get(at(id)..at(id + 1)).and_then(|raw| std::str::from_utf8(raw).ok())
            }
        }
    }
}

fn decode_strings_v1(payload: &[u8]) -> Result<Vec<String>, StoreError> {
    let mut r = Reader::new("strings", payload);
    let count = r.count(4)?;
    let mut pool = Vec::with_capacity(count);
    for _ in 0..count {
        let len = r.u32()? as usize;
        let raw = r.bytes(len)?;
        pool.push(
            std::str::from_utf8(raw)
                .map_err(|e| r.corrupt(format!("invalid UTF-8: {e}")))?
                .to_owned(),
        );
    }
    r.finish()?;
    Ok(pool)
}

/// Validates the v2 strings layout (offsets monotone and bounded) and
/// returns a borrowed view; string bytes are never copied. UTF-8 is
/// checked lazily on access, surfacing as an out-of-range ref.
fn decode_strings_v2(payload: &[u8]) -> Result<Strings<'_>, StoreError> {
    let section = "strings";
    let fail = |detail: String| Err(StoreError::Corrupt { section, detail });
    if payload.len() < 8 {
        return Err(StoreError::Truncated { context: section, offset: payload.len() });
    }
    let count = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
    let count = usize::try_from(count)
        .ok()
        .filter(|c| c.checked_mul(4).is_some_and(|b| b + 4 <= payload.len() - 8))
        .ok_or_else(|| StoreError::Corrupt {
            section,
            detail: format!("string count {count} cannot fit the payload"),
        })?;
    let offsets = &payload[8..8 + (count + 1) * 4];
    let blob = &payload[8 + (count + 1) * 4..];
    let at = |i: usize| {
        u32::from_le_bytes(offsets[i * 4..i * 4 + 4].try_into().expect("4 bytes")) as usize
    };
    if at(0) != 0 {
        return fail("string offsets must start at 0".to_owned());
    }
    for i in 0..count {
        if at(i) > at(i + 1) {
            return fail(format!("string offsets must be monotone (entry {i})"));
        }
    }
    if at(count) != blob.len() {
        return fail(format!(
            "string offsets end at {} but the blob holds {} bytes",
            at(count),
            blob.len()
        ));
    }
    Ok(Strings::View { count, offsets, blob })
}

fn pooled<'p>(r: &Reader<'_>, pool: &'p Strings<'_>, id: u32) -> Result<&'p str, StoreError> {
    pool.get(id).ok_or_else(|| {
        r.corrupt(format!("string ref {id} out of range or not UTF-8 ({} pooled)", pool.len()))
    })
}

fn decode_ty(r: &Reader<'_>, raw: u32, arena_len: usize) -> Result<TyId, StoreError> {
    if (raw as usize) < arena_len {
        Ok(TyId::from_index(raw as usize))
    } else {
        Err(r.corrupt(format!("type reference {raw} out of range ({arena_len} slots)")))
    }
}

/// Decodes the type table slot by slot into a [`TypeTable::loader`]:
/// names are borrowed from the pool and copied once, into the table's
/// own arena, with no string or slot list allocated along the way.
fn decode_types(payload: &[u8], pool: &Strings<'_>) -> Result<TypeTable, StoreError> {
    let table_err = |e: TypeError| StoreError::Corrupt { section: "types", detail: e.to_string() };
    let mut r = Reader::new("types", payload);
    let package_count = r.count(4)?;
    let mut packages = Vec::with_capacity(package_count);
    for _ in 0..package_count {
        let id = r.u32()?;
        packages.push(pooled(&r, pool, id)?);
    }
    let slot_count = r.count(1)?;
    let mut loader = TypeTable::loader(&packages, slot_count).map_err(table_err)?;
    for _ in 0..slot_count {
        let slot = match r.u8()? {
            0 => RawSlot::Void,
            1 => RawSlot::Null,
            2 => {
                let idx = r.u8()? as usize;
                let p = *Prim::ALL
                    .get(idx)
                    .ok_or_else(|| r.corrupt(format!("primitive index {idx} out of range")))?;
                RawSlot::Prim(p)
            }
            3 => {
                let simple_ref = r.u32()?;
                let simple = pooled(&r, pool, simple_ref)?;
                let package = PackageId::from_index(r.u32()? as usize);
                let kind = match r.u8()? {
                    0 => TypeKind::Class,
                    1 => TypeKind::Interface,
                    other => return Err(r.corrupt(format!("type kind byte {other}"))),
                };
                let superclass = match r.u32()? {
                    u32::MAX => None,
                    raw => Some(decode_ty(&r, raw, slot_count)?),
                };
                let iface_count = r.count(4)?;
                let mut interfaces = Vec::with_capacity(iface_count);
                for _ in 0..iface_count {
                    let raw = r.u32()?;
                    interfaces.push(decode_ty(&r, raw, slot_count)?);
                }
                RawSlot::Decl { simple, package, kind, superclass, interfaces }
            }
            4 => {
                let raw = r.u32()?;
                RawSlot::Array { elem: decode_ty(&r, raw, slot_count)? }
            }
            other => return Err(r.corrupt(format!("type slot tag {other}"))),
        };
        loader.push(slot).map_err(table_err)?;
    }
    r.finish()?;
    loader.finish().map_err(table_err)
}

fn decode_visibility(r: &Reader<'_>, raw: u8) -> Result<Visibility, StoreError> {
    match raw {
        0 => Ok(Visibility::Public),
        1 => Ok(Visibility::Protected),
        2 => Ok(Visibility::Private),
        other => Err(r.corrupt(format!("visibility byte {other}"))),
    }
}

/// Decodes the members section straight into flat member tables,
/// pre-sized from the section's counts, then validates them and builds
/// the per-type index in one [`Api::from_tables`] pass. Names are copied
/// from the pool once per use; every copy lands in one arena.
fn decode_members(
    payload: &[u8],
    types: TypeTable,
    pool: &Strings<'_>,
) -> Result<Api, StoreError> {
    let arena_len = types.len();
    let mut r = Reader::new("members", payload);
    let method_count = r.count(1)?;
    // Most member names are used once, so the pool's size is a close
    // upper estimate of their bytes; reserved capacity costs nothing
    // until it is written.
    let mut tables = MemberTables::with_capacity(method_count, 0, pool.bytes());
    let (mut params, mut param_names) = (Vec::new(), Vec::new());
    for _ in 0..method_count {
        let name_ref = r.u32()?;
        let name = tables.push_name(pooled(&r, pool, name_ref)?);
        let declaring_ref = r.u32()?;
        let declaring = decode_ty(&r, declaring_ref, arena_len)?;
        let param_count = r.count(4)?;
        params.clear();
        for _ in 0..param_count {
            let raw = r.u32()?;
            params.push(decode_ty(&r, raw, arena_len)?);
        }
        let name_count = r.count(1)?;
        param_names.clear();
        for _ in 0..name_count {
            param_names.push(match r.u8()? {
                0 => None,
                1 => {
                    let id = r.u32()?;
                    Some(tables.push_name(pooled(&r, pool, id)?))
                }
                other => return Err(r.corrupt(format!("param-name flag {other}"))),
            });
        }
        let ret_ref = r.u32()?;
        let ret = decode_ty(&r, ret_ref, arena_len)?;
        let vis_byte = r.u8()?;
        let visibility = decode_visibility(&r, vis_byte)?;
        let is_static = r.u8()? != 0;
        let is_constructor = r.u8()? != 0;
        tables.push_method(&RawMethod {
            name,
            declaring,
            params: &params,
            param_names: &param_names,
            ret,
            visibility,
            is_static,
            is_constructor,
        });
    }
    let field_count = r.count(1)?;
    tables.reserve_fields(field_count);
    for _ in 0..field_count {
        let name_ref = r.u32()?;
        let name = tables.push_name(pooled(&r, pool, name_ref)?);
        let declaring_ref = r.u32()?;
        let declaring = decode_ty(&r, declaring_ref, arena_len)?;
        let ty_ref = r.u32()?;
        let ty = decode_ty(&r, ty_ref, arena_len)?;
        let vis_byte = r.u8()?;
        let visibility = decode_visibility(&r, vis_byte)?;
        let is_static = r.u8()? != 0;
        tables.push_field(&RawField { name, declaring, ty, visibility, is_static });
    }
    r.finish()?;
    Api::from_tables(types, tables)
        .map_err(|e| StoreError::Corrupt { section: "members", detail: e.to_string() })
}

fn decode_elem(r: &mut Reader<'_>, api: &Api) -> Result<ElemJungloid, StoreError> {
    let arena_len = api.types().len();
    match r.u8()? {
        0 => {
            let idx = r.u32()? as usize;
            if idx >= api.field_count() {
                return Err(
                    r.corrupt(format!("field index {idx} out of range ({})", api.field_count()))
                );
            }
            Ok(ElemJungloid::FieldAccess { field: FieldId::from_index(idx) })
        }
        1 => {
            let idx = r.u32()? as usize;
            if idx >= api.method_count() {
                return Err(
                    r.corrupt(format!("method index {idx} out of range ({})", api.method_count()))
                );
            }
            let method = MethodId::from_index(idx);
            let input = match r.u8()? {
                0 => None,
                1 => Some(InputSlot::Receiver),
                2 => {
                    let i = r.u32()? as usize;
                    if i >= api.method(method).params().len() {
                        return Err(r.corrupt(format!("parameter slot {i} out of range")));
                    }
                    Some(InputSlot::Arg(i))
                }
                other => return Err(r.corrupt(format!("input-slot tag {other}"))),
            };
            Ok(ElemJungloid::Call { method, input })
        }
        2 => {
            let (from_raw, to_raw) = (r.u32()?, r.u32()?);
            let from = decode_ty(r, from_raw, arena_len)?;
            let to = decode_ty(r, to_raw, arena_len)?;
            Ok(ElemJungloid::Widen { from, to })
        }
        3 => {
            let (from_raw, to_raw) = (r.u32()?, r.u32()?);
            let from = decode_ty(r, from_raw, arena_len)?;
            let to = decode_ty(r, to_raw, arena_len)?;
            Ok(ElemJungloid::Downcast { from, to })
        }
        other => Err(r.corrupt(format!("elementary jungloid tag {other}"))),
    }
}

/// Validates that a quad-decoded jungloid's references are all in range
/// for `api` — the v2 analogue of the per-field checks inside
/// [`decode_elem`]. Must run before `api.method(...)`-style lookups.
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

fn decode_csr_v1(payload: &[u8], api: &Api, meta: &GraphMeta) -> Result<CsrAdjacency, StoreError> {
    let mut r = Reader::new("csr", payload);
    let node_count = r.u32()? as usize;
    let expected_nodes = api.types().len() + meta.mined_base.len();
    if node_count != expected_nodes {
        return Err(r.corrupt(format!(
            "CSR covers {node_count} nodes, graph metadata implies {expected_nodes}"
        )));
    }
    let fwd_off = r.u32_array(node_count + 1)?;
    let edge_count = r.u64()?;
    // Bound before the Vec::with_capacity below: every stored edge costs
    // at least one payload byte, so a flipped count cannot OOM the loader.
    let edge_count = usize::try_from(edge_count)
        .ok()
        .filter(|&e| e <= r.remaining())
        .ok_or_else(|| r.corrupt(format!("edge count {edge_count} cannot fit the payload")))?;
    let fwd_to = r.u32_array(edge_count)?;
    let fwd_cost = r.bytes(edge_count)?.to_vec();
    let mut fwd_elem = Vec::with_capacity(edge_count);
    for _ in 0..edge_count {
        fwd_elem.push(decode_elem(&mut r, api)?);
    }
    let rev_off = r.u32_array(node_count + 1)?;
    let rev_from = r.u32_array(edge_count)?;
    let rev_cost = r.bytes(edge_count)?.to_vec();
    r.finish()?;
    CsrAdjacency::from_arrays(fwd_off, fwd_to, fwd_elem, fwd_cost, rev_off, rev_from, rev_cost)
        .map_err(|e| StoreError::Corrupt { section: "csr", detail: e.detail })
}

/// Reads a `u32` array from the buffer as a borrowed slab when the
/// platform allows (little-endian, aligned), falling back to an owned
/// copy otherwise. `byte_off` is absolute within `buf`.
fn u32_slab(buf: &Arc<SnapshotBuf>, byte_off: usize, len: usize) -> Slab<u32> {
    Slab::borrowed(buf, byte_off, len).unwrap_or_else(|| {
        let raw = &buf.as_slice()[byte_off..byte_off + len * 4];
        Slab::from_vec(
            raw.chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes"))).collect(),
        )
    })
}

fn u8_slab(buf: &Arc<SnapshotBuf>, byte_off: usize, len: usize) -> Slab<u8> {
    Slab::borrowed(buf, byte_off, len)
        .unwrap_or_else(|| Slab::from_vec(buf.as_slice()[byte_off..byte_off + len].to_vec()))
}

/// Decodes the v2 CSR section into slabs borrowed from `buf` — the
/// zero-copy core of the format. One O(edges) scan validates every
/// packed quad (shape and reference ranges) before any of them can reach
/// the query hot path; the structural offset/cost invariants are then
/// enforced by [`CsrAdjacency::from_slabs`] exactly as on the v1 path.
fn decode_csr_v2(
    buf: &Arc<SnapshotBuf>,
    info: &SectionInfo,
    api: &Api,
    meta: &GraphMeta,
) -> Result<CsrAdjacency, StoreError> {
    let section = "csr";
    let fail = |detail: String| Err(StoreError::Corrupt { section, detail });
    let payload_off = usize::try_from(info.offset).expect("offset fits usize");
    let payload_len = usize::try_from(info.bytes).expect("length fits usize");
    let payload = &buf.as_slice()[payload_off..payload_off + payload_len];
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

    let quads = u32_slab(buf, quads_at, 4 * e);
    for (i, quad) in quads.chunks_exact(4).enumerate() {
        let quad = [quad[0], quad[1], quad[2], quad[3]];
        let Some(elem) = decode_quad(quad) else {
            return fail(format!("edge {i} holds a malformed jungloid quad {quad:?}"));
        };
        check_elem(section, api, elem)?;
    }

    CsrAdjacency::from_slabs(
        u32_slab(buf, fwd_off_at, n + 1),
        u32_slab(buf, fwd_to_at, e),
        ElemSeq::packed(quads),
        u8_slab(buf, fwd_cost_at, e),
        u32_slab(buf, rev_off_at, n + 1),
        u32_slab(buf, rev_from_at, e),
        u8_slab(buf, rev_cost_at, e),
    )
    .map_err(|err| StoreError::Corrupt { section, detail: err.detail })
}

fn decode_examples_v1(
    payload: &[u8],
    api: &Api,
    section: &'static str,
) -> Result<Vec<Vec<ElemJungloid>>, StoreError> {
    let mut r = Reader::new(section, payload);
    let count = r.count(4)?;
    let mut examples = Vec::with_capacity(count);
    for _ in 0..count {
        let steps = r.count(2)?;
        let mut seq = Vec::with_capacity(steps);
        for _ in 0..steps {
            seq.push(decode_elem(&mut r, api)?);
        }
        examples.push(seq);
    }
    r.finish()?;
    Ok(examples)
}

/// Decodes a v2 examples/suffixes payload. The quads are materialized
/// into owned step-sequences — example splicing and dedup mutate them,
/// so unlike the CSR they do not stay borrowed.
fn decode_examples_v2(
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

fn section_payload<'a>(bytes: &'a [u8], info: &SectionInfo) -> &'a [u8] {
    let start = usize::try_from(info.offset).expect("offset fits usize");
    let len = usize::try_from(info.bytes).expect("length fits usize");
    &bytes[start..start + len]
}

/// Wall time of each stage of one snapshot load, in microseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LoadPhases {
    /// Framing validation: header, section frames, padding, CRCs.
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

fn decode_v1(
    bytes: &[u8],
    manifest: &Manifest,
    phases: &mut LoadPhases,
) -> Result<Snapshot, StoreError> {
    let pay = |i: usize| section_payload(bytes, &manifest.sections[i]);
    let mut mark = Instant::now();
    let pool = Strings::Owned(decode_strings_v1(pay(0))?);
    let types = decode_types(pay(1), &pool)?;
    phases.types_us = lap(&mut mark);
    let api = decode_members(pay(2), types, &pool)?;
    phases.members_us = lap(&mut mark);
    let meta = decode_graph_meta(pay(3), &api)?;
    let csr = decode_csr_v1(pay(4), &api, &meta)?;
    phases.csr_us = lap(&mut mark);
    let snapshot = finish_snapshot(&meta, csr, pay(5), pay(6), api, decode_examples_v1)?;
    phases.finish_us = lap(&mut mark);
    Ok(snapshot)
}

fn decode_v2(
    buf: &Arc<SnapshotBuf>,
    manifest: &Manifest,
    phases: &mut LoadPhases,
) -> Result<Snapshot, StoreError> {
    let bytes = buf.as_slice();
    let pay = |i: usize| section_payload(bytes, &manifest.sections[i]);
    let mut mark = Instant::now();
    let pool = decode_strings_v2(pay(0))?;
    let types = decode_types(pay(1), &pool)?;
    phases.types_us = lap(&mut mark);
    let api = decode_members(pay(2), types, &pool)?;
    phases.members_us = lap(&mut mark);
    let meta = decode_graph_meta(pay(3), &api)?;
    let csr = decode_csr_v2(buf, &manifest.sections[4], &api, &meta)?;
    phases.csr_us = lap(&mut mark);
    let snapshot = finish_snapshot(&meta, csr, pay(5), pay(6), api, decode_examples_v2)?;
    phases.finish_us = lap(&mut mark);
    Ok(snapshot)
}

/// Decodes a validated buffer of either format version.
fn decode(
    buf: &Arc<SnapshotBuf>,
    manifest: &Manifest,
    phases: &mut LoadPhases,
) -> Result<Snapshot, StoreError> {
    if manifest.version == V1_FORMAT_VERSION {
        decode_v1(buf.as_slice(), manifest, phases)
    } else {
        decode_v2(buf, manifest, phases)
    }
}

/// Decoder for one jungloid-list section (mined examples or generalized
/// suffixes) — the v1 and v2 formats differ only in element packing.
type JungloidListDecoder = fn(&[u8], &Api, &'static str) -> Result<Vec<Vec<ElemJungloid>>, StoreError>;

fn finish_snapshot(
    meta: &GraphMeta,
    csr: CsrAdjacency,
    examples_payload: &[u8],
    suffixes_payload: &[u8],
    api: Api,
    decode: JungloidListDecoder,
) -> Result<Snapshot, StoreError> {
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
    let mined_examples = decode(examples_payload, &api, "examples")?;
    let suffixes = decode(suffixes_payload, &api, "suffixes")?;
    let graph =
        JungloidGraph::from_snapshot(&api, meta.config, meta.mined_base.clone(), suffixes, csr)
            .map_err(|e| StoreError::Corrupt { section: "graph", detail: e.detail })?;
    Ok(Snapshot { api, graph, mined_examples })
}

/// Decodes snapshot bytes back into a ready-to-query engine state. A v2
/// input is first copied into one aligned buffer so the engine can
/// borrow from it; use [`from_buf`] / [`load_file`] / [`map_file`] to
/// avoid even that single copy.
///
/// # Errors
///
/// Every malformed input returns a typed [`StoreError`]; the decoder
/// never panics. Framing damage surfaces as
/// [`StoreError::Truncated`]/[`StoreError::ChecksumMismatch`], structural
/// impossibilities as [`StoreError::Corrupt`] naming the section.
pub fn from_bytes(bytes: &[u8]) -> Result<Snapshot, StoreError> {
    let m = walk(bytes)?;
    let mut phases = LoadPhases::default();
    if m.version == V1_FORMAT_VERSION {
        decode_v1(bytes, &m, &mut phases)
    } else {
        let buf = Arc::new(SnapshotBuf::from_bytes(bytes));
        decode_v2(&buf, &m, &mut phases)
    }
}

/// Decodes a snapshot straight out of an aligned buffer. For a v2 file
/// the returned engine's CSR arrays *borrow from `buf`* (the `Arc` keeps
/// it alive) — the zero-copy path; a v1 file is fully decoded into owned
/// storage as before.
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

fn record_sections(manifest: &Manifest) {
    for s in &manifest.sections {
        prospector_obs::gauge_set(&format!("store.section.{}.bytes", s.name), s.bytes);
    }
}

/// Encodes and writes a (v2) snapshot, reporting `store.save_bytes` and
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
    let _span = prospector_obs::stage("store");
    let bytes = to_bytes(api, graph, mined_examples);
    let manifest = manifest(&bytes).expect("freshly encoded snapshot is well-formed");
    std::fs::write(path, &bytes)
        .map_err(|source| StoreError::Io { path: path.to_owned(), source })?;
    prospector_obs::add("store.saves", 1);
    prospector_obs::gauge_set("store.save_bytes", bytes.len() as u64);
    record_sections(&manifest);
    prospector_obs::trace::process_event("store", "save_bytes", bytes.len() as u64);
    Ok(manifest)
}

fn record_load(manifest: &Manifest, bytes: u64, validate_us: u64, total_us: u64) {
    prospector_obs::add("store.loads", 1);
    // v1 pays a full decode (`store.load_ms`). The v2 zero-copy load is
    // validate-then-borrow, so `store.map_ms` records only the
    // validate-only stage — O(sections checksummed), the number the
    // format exists to shrink — and dashboards don't average the two
    // regimes.
    if manifest.version >= 2 {
        let ms = validate_us / 1000;
        prospector_obs::gauge_set("store.map_ms", ms);
        prospector_obs::trace::process_event("store", "map_ms", ms);
    } else {
        let ms = total_us / 1000;
        prospector_obs::gauge_set("store.load_ms", ms);
        prospector_obs::trace::process_event("store", "load_ms", ms);
    }
    prospector_obs::gauge_set("store.load_bytes", bytes);
    record_sections(manifest);
}

/// Stage one of the two-stage v2 warm start: a snapshot buffer (one
/// owned read or an mmap'd region) whose framing — magic, version,
/// section offsets, padding, CRCs — has been validated exactly once.
/// Creating one is the *validate-only* cost: O(sections checksummed),
/// with zero per-element work. [`MappedSnapshot::thaw`] is stage two,
/// materializing the owned engine state (API tables, mined examples)
/// while the hot sections — CSR arrays, string pool, suffix tables —
/// stay borrowed from this buffer.
#[derive(Debug)]
pub struct MappedSnapshot {
    buf: Arc<SnapshotBuf>,
    manifest: Manifest,
    /// How long the framing validation took.
    validate_us: u64,
}

impl MappedSnapshot {
    /// Validates a snapshot from one owned aligned read.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the file cannot be read; any framing-level
    /// [`StoreError`] from validation.
    pub fn open(path: &Path) -> Result<Self, StoreError> {
        let buf = SnapshotBuf::read_file(path)
            .map_err(|source| StoreError::Io { path: path.to_owned(), source })?;
        Self::from_snapshot_buf(buf)
    }

    /// Validates a snapshot from a read-only memory mapping when the
    /// platform supports it (falling back to an owned read), so the
    /// kernel pages the snapshot in on demand and shares it across
    /// processes.
    ///
    /// # Errors
    ///
    /// As [`MappedSnapshot::open`].
    pub fn map(path: &Path) -> Result<Self, StoreError> {
        let (buf, _) = SnapshotBuf::map_file(path)
            .map_err(|source| StoreError::Io { path: path.to_owned(), source })?;
        Self::from_snapshot_buf(buf)
    }

    fn from_snapshot_buf(buf: SnapshotBuf) -> Result<Self, StoreError> {
        let start = Instant::now();
        let manifest = walk(buf.as_slice())?;
        Ok(MappedSnapshot { buf: Arc::new(buf), manifest, validate_us: elapsed_us(start) })
    }

    /// The validated per-section breakdown.
    #[must_use]
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// Whether the engine would serve borrowed views out of an mmap'd
    /// region: mapping succeeded *and* the file is v2 (a v1 thaw decodes
    /// everything into owned storage regardless of how it was read).
    #[must_use]
    pub fn is_mapped(&self) -> bool {
        self.buf.is_mapped() && self.manifest.version >= 2
    }

    /// Stage two: decodes the owned engine state. Framing is NOT
    /// re-validated — that happened once at construction, which is what
    /// makes borrow-after-CRC safe. For a v2 buffer the hot sections are
    /// handed out as borrowed views (the `Arc` keeps the buffer alive);
    /// a v1 buffer takes the full owned decode.
    ///
    /// # Errors
    ///
    /// Any structural (payload-level) [`StoreError`].
    pub fn thaw(&self) -> Result<Snapshot, StoreError> {
        self.thaw_timed().map(|(snapshot, _)| snapshot)
    }

    /// [`MappedSnapshot::thaw`], also reporting how long each load
    /// phase took (validation counted from construction).
    ///
    /// # Errors
    ///
    /// As [`MappedSnapshot::thaw`].
    pub fn thaw_timed(&self) -> Result<(Snapshot, LoadPhases), StoreError> {
        let mut phases = LoadPhases { validate_us: self.validate_us, ..LoadPhases::default() };
        let snapshot = decode(&self.buf, &self.manifest, &mut phases)?;
        Ok((snapshot, phases))
    }
}

fn elapsed_us(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Reads and decodes a snapshot from one aligned read. For a v2 file
/// this is validate-then-borrow (the validate-only stage is recorded as
/// `store.map_ms`); v1 files take the full decode (`store.load_ms`).
///
/// # Errors
///
/// [`StoreError::Io`] if the file cannot be read; any decode-level
/// [`StoreError`] otherwise.
pub fn load_file(path: &Path) -> Result<(Snapshot, Manifest), StoreError> {
    let _span = prospector_obs::stage("store");
    let start = Instant::now();
    let mapped = MappedSnapshot::open(path)?;
    let validate_us = elapsed_us(start);
    let snapshot = mapped.thaw()?;
    record_load(&mapped.manifest, mapped.buf.len() as u64, validate_us, elapsed_us(start));
    Ok((snapshot, mapped.manifest))
}

/// Like [`load_file`] but memory-maps the file read-only when the
/// platform supports it, so the kernel pages the snapshot in on demand
/// and shares it across processes. The returned flag is `true` when the
/// engine is actually serving borrowed views out of an mmap'd region
/// (mapping succeeded *and* the file is v2); on any other combination it
/// falls back to the owned-read path and reports `false` honestly.
///
/// # Errors
///
/// As [`load_file`].
pub fn map_file(path: &Path) -> Result<(Snapshot, Manifest, bool), StoreError> {
    let _span = prospector_obs::stage("store");
    let start = Instant::now();
    let mapped = MappedSnapshot::map(path)?;
    let validate_us = elapsed_us(start);
    let snapshot = mapped.thaw()?;
    let is_mapped = mapped.is_mapped();
    record_load(&mapped.manifest, mapped.buf.len() as u64, validate_us, elapsed_us(start));
    Ok((snapshot, mapped.manifest, is_mapped))
}

/// How [`load_auto`] ended up holding the snapshot in memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoadMode {
    /// Decoded into owned storage from a one-shot read (or an mmap
    /// request the platform/format could not honor).
    Owned,
    /// Serving borrowed views out of an mmap'd v2 region.
    Mapped,
}

impl LoadMode {
    /// The label `/readyz`, `/status`, and `/tenants` report.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            LoadMode::Owned => "owned",
            LoadMode::Mapped => "mmap",
        }
    }
}

/// The one snapshot-opening entry point warm starts and tenant
/// (re)loads share: [`map_file`] when `mmap` is requested, [`load_file`]
/// otherwise, with the mode actually achieved reported honestly (an
/// mmap request over a v1 file or on an unsupported platform loads
/// owned and says so).
///
/// # Errors
///
/// As [`load_file`].
pub fn load_auto(path: &Path, mmap: bool) -> Result<(Snapshot, Manifest, LoadMode), StoreError> {
    if mmap {
        let (snapshot, manifest, is_mapped) = map_file(path)?;
        let mode = if is_mapped { LoadMode::Mapped } else { LoadMode::Owned };
        Ok((snapshot, manifest, mode))
    } else {
        let (snapshot, manifest) = load_file(path)?;
        Ok((snapshot, manifest, LoadMode::Owned))
    }
}
