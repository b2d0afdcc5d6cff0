//! Corruption fuzzing: a `.pspk` snapshot must survive any mutilation
//! with a typed [`StoreError`] — never a panic, never a silent mis-load,
//! never an out-of-bounds read (the v2 loader hands out *borrowed* views
//! into the file bytes, so framing validation is the only thing between
//! a flipped bit and the query hot path).
//!
//! The mutations exercised here are the classes the format is built to
//! catch: truncation at (and around) every section boundary, a single
//! flipped byte in every header and payload, a flipped byte inside
//! alignment padding (which sits *outside* the CRC), a stored CRC that
//! was wrongly computed over the padding, and absurd counts and crafted
//! type, member and pool records behind a recomputed CRC (which only the
//! decoders' own checks can catch). A seeded loop of random bit flips,
//! half of them behind a recomputed CRC, runs every loader on the damage
//! and every engine that loads through a query and an assist. Files with
//! two faults pin which error a load reports: the first in the order
//! framing, checksums, decoding, whichever thread of the load meets its
//! fault first.

use std::panic::{catch_unwind, AssertUnwindSafe};

use jungloid_apidef::{Api, FieldDef, MethodDef, Visibility};
use jungloid_typesys::{TyId, TypeKind};
use prospector_core::graph::JungloidGraph;
use prospector_core::{GraphConfig, Prospector};
use prospector_corpora::{build, BuildOptions};
use prospector_obs::SmallRng;
use prospector_store::{
    crc32, from_bytes, load, manifest, to_bytes, Crc32, SectionInfo, Snapshot, StoreError,
};

/// File header and section frame sizes.
const HEADER_BYTES: usize = 16;
const FRAME_BYTES: usize = 24;

/// Snapshot bytes for the full bundled engine — mined and generalized,
/// so all seven sections carry real payloads.
fn snapshot_bytes() -> Vec<u8> {
    let built = build(&BuildOptions::default()).expect("bundled corpora assemble");
    let mined = built.mine_report.map(|r| r.examples).unwrap_or_default();
    prospector_store::to_bytes(built.prospector.api(), built.prospector.graph(), &mined)
}

/// Every interesting offset, derived from the validated manifest: the
/// file-header bytes, each section's frame start, payload start, payload
/// midpoint, payload end, and the end of its padding.
fn boundaries(bytes: &[u8]) -> Vec<usize> {
    let m = manifest(bytes).expect("pristine snapshot validates");
    let mut offsets: Vec<usize> = (0..=HEADER_BYTES).collect();
    for s in &m.sections {
        let payload_start = usize::try_from(s.offset).expect("fits");
        let payload_len = usize::try_from(s.bytes).expect("fits");
        let frame_start = payload_start - FRAME_BYTES;
        offsets.extend([
            frame_start,
            frame_start + 4,
            frame_start + 12,
            payload_start,
            payload_start + payload_len / 2,
            payload_start + payload_len,
            payload_start + payload_len + s.pad_bytes as usize,
        ]);
    }
    offsets.retain(|&o| o <= bytes.len());
    offsets.sort_unstable();
    offsets.dedup();
    offsets
}

fn assert_truncations_are_typed(bytes: &[u8]) {
    for cut in boundaries(bytes) {
        if cut == bytes.len() {
            continue; // not a truncation
        }
        let err = from_bytes(&bytes[..cut])
            .err()
            .unwrap_or_else(|| panic!("snapshot cut to {cut} bytes must not load"));
        // The mutation must surface as a framing error, not a mis-parse
        // deep inside a decoder.
        assert!(
            matches!(
                err,
                StoreError::Truncated { .. }
                    | StoreError::Corrupt { .. }
                    | StoreError::BadMagic { .. }
                    | StoreError::UnsupportedVersion { .. }
            ),
            "cut at {cut}: unexpected error {err:?}"
        );
    }
}

#[test]
fn truncation_at_every_boundary_is_a_typed_error() {
    assert_truncations_are_typed(&snapshot_bytes());
}

fn assert_flips_are_detected(bytes: &[u8]) {
    let m = manifest(bytes).expect("pristine snapshot validates");
    for s in &m.sections {
        let payload_start = usize::try_from(s.offset).expect("fits");
        let payload_len = usize::try_from(s.bytes).expect("fits");
        // One flip in the section frame (its tag byte) and one in the
        // middle of its payload.
        let targets = [payload_start - FRAME_BYTES, payload_start + payload_len / 2];
        for &at in &targets {
            let mut mutated = bytes.to_vec();
            mutated[at] ^= 0x40;
            match from_bytes(&mutated) {
                Ok(_) => panic!("flip at byte {at} (section `{}`) loaded anyway", s.name),
                Err(
                    StoreError::ChecksumMismatch { .. }
                    | StoreError::Corrupt { .. }
                    | StoreError::Truncated { .. },
                ) => {}
                Err(other) => {
                    panic!("flip at byte {at} (section `{}`): unexpected error {other:?}", s.name)
                }
            }
        }
    }
}

#[test]
fn one_flipped_byte_per_section_is_detected() {
    assert_flips_are_detected(&snapshot_bytes());
}

#[test]
fn flips_in_the_file_header_are_detected() {
    let bytes = snapshot_bytes();
    for at in 0..HEADER_BYTES {
        let mut mutated = bytes.clone();
        mutated[at] ^= 0x01;
        assert!(
            from_bytes(&mutated).is_err(),
            "header flip at byte {at} must not load"
        );
    }
}

fn assert_payload_flips_blame_their_section(bytes: &[u8]) {
    // A flip strictly inside a payload (headers untouched) must be caught
    // by that section's CRC and blamed on it by name.
    let m = manifest(bytes).expect("pristine snapshot validates");
    for s in &m.sections {
        let payload_start = usize::try_from(s.offset).expect("fits");
        let payload_len = usize::try_from(s.bytes).expect("fits");
        if payload_len > 0 {
            let mut mutated = bytes.to_vec();
            mutated[payload_start + payload_len / 2] ^= 0x10;
            match from_bytes(&mutated) {
                Err(StoreError::ChecksumMismatch { section, .. }) => {
                    assert_eq!(section, s.name);
                }
                other => panic!(
                    "payload flip in `{}`: expected checksum mismatch, got {other:?}",
                    s.name
                ),
            }
        }
    }
}

#[test]
fn payload_flips_are_checksum_mismatches_naming_the_section() {
    assert_payload_flips_blame_their_section(&snapshot_bytes());
}

#[test]
fn flipped_padding_byte_is_corrupt_naming_the_section() {
    // Alignment padding sits outside the CRC, so the loader checks it
    // is all-zero explicitly — a flipped pad byte must be a Corrupt
    // blaming the right section, not a silent load into borrowed views.
    let bytes = snapshot_bytes();
    let m = manifest(&bytes).expect("pristine snapshot validates");
    let mut padded = 0;
    for s in &m.sections {
        if s.pad_bytes == 0 {
            continue;
        }
        padded += 1;
        for k in 0..s.pad_bytes as usize {
            let at = usize::try_from(s.offset + s.bytes).expect("fits") + k;
            let mut mutated = bytes.clone();
            mutated[at] = 0xAB;
            match from_bytes(&mutated) {
                Err(StoreError::Corrupt { section, detail }) => {
                    assert_eq!(section, s.name);
                    assert!(detail.contains("padding"), "detail should mention padding: {detail}");
                }
                other => panic!(
                    "pad flip in `{}` byte {k}: expected Corrupt, got {other:?}",
                    s.name
                ),
            }
        }
    }
    assert!(padded > 0, "fixture has no padded sections; the test proved nothing");
}

#[test]
fn crc_computed_over_padding_is_a_checksum_mismatch() {
    // Simulates a buggy writer that folded the zero padding into the
    // CRC. The stored checksum then disagrees with the spec's
    // tag+payload recipe and the loader must reject the section by name.
    let bytes = snapshot_bytes();
    let m = manifest(&bytes).expect("pristine snapshot validates");
    let mut padded = 0;
    for s in &m.sections {
        if s.pad_bytes == 0 {
            continue;
        }
        padded += 1;
        let payload_start = usize::try_from(s.offset).expect("fits");
        let payload_len = usize::try_from(s.bytes).expect("fits");
        let frame_start = payload_start - FRAME_BYTES;
        let mut crc = Crc32::new();
        crc.update(&bytes[frame_start..frame_start + 4]); // tag
        crc.update(&bytes[payload_start..payload_start + payload_len + s.pad_bytes as usize]);
        let wrong = crc.finish();
        let mut mutated = bytes.clone();
        mutated[frame_start + 16..frame_start + 20].copy_from_slice(&wrong.to_le_bytes());
        match from_bytes(&mutated) {
            Err(StoreError::ChecksumMismatch { section, expected, .. }) => {
                assert_eq!(section, s.name);
                assert_eq!(expected, wrong);
            }
            other => panic!(
                "padded CRC in `{}`: expected checksum mismatch, got {other:?}",
                s.name
            ),
        }
    }
    assert!(padded > 0, "fixture has no padded sections; the test proved nothing");
}

/// Rewrites section `s`'s stored CRC to match its (edited) payload, so
/// the edit gets past the checksum gate and reaches the decoder.
fn recompute_crc(bytes: &mut [u8], s: &SectionInfo) {
    let payload_start = usize::try_from(s.offset).expect("fits");
    let payload_end = payload_start + usize::try_from(s.bytes).expect("fits");
    let frame_start = payload_start - FRAME_BYTES;
    let mut covered = bytes[frame_start..frame_start + 4].to_vec(); // tag
    covered.extend_from_slice(&bytes[payload_start..payload_end]);
    bytes[frame_start + 16..frame_start + 20].copy_from_slice(&crc32(&covered).to_le_bytes());
}

/// The count words each section's payload opens with, as `(offset,
/// width)` pairs (see the layout table in `store::snapshot`).
fn leading_counts(section: &str) -> &'static [(usize, usize)] {
    match section {
        // string count
        "strings" => &[(0, 8)],
        // package, type and interface counts
        "types" => &[(0, 8), (8, 8), (16, 8)],
        // method, parameter, parameter-name and field counts
        "members" => &[(0, 8), (8, 8), (16, 8), (24, 8)],
        // after the two config bytes: type count, mined-node count
        "graph" => &[(2, 4), (6, 4)],
        // node and edge counts; sequence and element counts
        "csr" | "examples" | "suffixes" => &[(0, 8), (8, 8)],
        other => panic!("unknown section `{other}`"),
    }
}

#[test]
fn crafted_counts_behind_a_valid_crc_are_typed_errors() {
    // A count word set to something absurd, with the section CRC
    // recomputed so the file passes the checksum gate: the decoders'
    // own bounds checks are all that stand between the value and an
    // overflowing size computation or an out-of-range slice.
    let bytes = snapshot_bytes();
    let m = manifest(&bytes).expect("pristine snapshot validates");
    let values = [0, 1, u64::from(u32::MAX), (1u64 << 62) - 1, u64::MAX];
    let mut mutations = 0;
    for s in &m.sections {
        let payload_start = usize::try_from(s.offset).expect("fits");
        for &(offset, width) in leading_counts(s.name) {
            assert!(offset + width <= usize::try_from(s.bytes).expect("fits"), "`{}`", s.name);
            for value in values {
                let at = payload_start + offset;
                let mut mutated = bytes.clone();
                // A u32 field takes the value's low word (u32::MAX for
                // both huge values).
                mutated[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
                if mutated == bytes {
                    continue; // the field already held this value
                }
                recompute_crc(&mut mutated, s);
                mutations += 1;
                let case = format!("`{}` count at +{offset} set to {value:#x}", s.name);
                let outcome = std::panic::catch_unwind(|| from_bytes(&mutated))
                    .unwrap_or_else(|_| panic!("{case}: the loader panicked"));
                match outcome {
                    Err(
                        StoreError::Corrupt { .. }
                        | StoreError::Truncated { .. }
                        | StoreError::ChecksumMismatch { .. },
                    ) => {}
                    Err(other) => panic!("{case}: unexpected error {other:?}"),
                    Ok(_) => panic!("{case}: loaded anyway"),
                }
            }
        }
    }
    assert!(mutations >= 50, "only {mutations} mutations ran; the sweep proved little");
}

// --- seeded bit flips -----------------------------------------------------

/// Runs `f` under `catch_unwind`; a panic fails the test, naming `case`.
fn no_panic<T>(case: &str, f: impl FnOnce() -> T) -> T {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|_| panic!("{case}: panicked"))
}

/// A loaded engine's every edge resolves against its API, and it
/// answers a seeded query and an assist: a typed `QueryError` is fine,
/// a panic is not. A random query walks few edges, so the edge sweep is
/// what reaches a damaged element.
fn answers(snapshot: Snapshot, rng: &mut SmallRng, case: &str) {
    let engine = Prospector::from_parts(snapshot.api, snapshot.graph);
    let (api, graph) = (engine.api(), engine.graph());
    no_panic(&format!("{case}: edge sweep"), || {
        for v in 0..graph.node_count() {
            for edge in graph.out_edges(graph.node_at(v)) {
                let _ = (edge.elem.input_ty(api), edge.elem.output_ty(api));
                let _ = edge.elem.free_var_types(api);
            }
        }
    });
    let ids: Vec<TyId> = api.types().ids().collect();
    let (tin, tout) = (ids[rng.gen_range(0..ids.len())], ids[rng.gen_range(0..ids.len())]);
    no_panic(&format!("{case}: query {tin:?} -> {tout:?}"), || {
        let _ = engine.query(tin, tout);
        let _ = engine.assist(&[("x", tin)], tout);
    });
}

/// Flips 1–3 bits inside one seeded section (frame, payload or padding)
/// of the bundled engine's snapshot, recomputing that section's CRC on
/// every other input so the damage reaches the decoders. Every input
/// goes through `from_bytes`, every 16th also through `load` from a
/// file, owned and mmap. Each must load or fail with a typed
/// `StoreError`, and each engine that loads must answer.
#[test]
fn seeded_bit_flips_load_or_fail_typed_and_loaded_engines_answer() {
    const INPUTS: usize = 4_000;
    let bytes = snapshot_bytes();
    let m = manifest(&bytes).expect("pristine snapshot validates");
    let dir = std::env::temp_dir().join(format!("prospector-store-flips-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("flipped.pspk");
    let mut rng = SmallRng::seed_from_u64(0xf11b_5eed);
    let (mut accepted, mut rejected) = (0usize, 0usize);
    for i in 0..INPUTS {
        let s = &m.sections[rng.gen_range(0..m.sections.len())];
        let payload_start = usize::try_from(s.offset).expect("fits");
        let end = payload_start + usize::try_from(s.bytes).expect("fits") + s.pad_bytes as usize;
        let mut mutated = bytes.clone();
        for _ in 0..rng.gen_range(1..=3) {
            mutated[rng.gen_range(payload_start - FRAME_BYTES..end)] ^= 1 << rng.gen_range(0..8);
        }
        if i % 2 == 1 {
            recompute_crc(&mut mutated, s);
        }
        let case = format!("input {i} (section `{}`)", s.name);
        let mut outcomes = vec![no_panic(&case, || from_bytes(&mutated))];
        if i % 16 == 0 {
            std::fs::write(&path, &mutated).expect("temp file writes");
            for mmap in [false, true] {
                let loaded = no_panic(&case, || load(&path, mmap));
                outcomes.push(loaded.map(|l| l.snapshot));
            }
        }
        for outcome in outcomes {
            match outcome {
                Ok(snapshot) => {
                    accepted += 1;
                    answers(snapshot, &mut rng, &case);
                }
                Err(StoreError::Io { .. }) => panic!("{case}: I/O error on a readable file"),
                Err(_) => rejected += 1,
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    // Both outcomes must occur, or the loop tested one side only.
    assert!(accepted > 0 && rejected > accepted, "{accepted} accepted, {rejected} rejected");
}

// --- crafted records ------------------------------------------------------

/// A small engine whose every record a test can address: classes
/// `p.DupTypeAlpha` and `p.DupTypeOmega`, the interface `p.Iface` that
/// `DupTypeOmega` implements, the array `DupTypeOmega[]`; on
/// `DupTypeAlpha` the methods `first(DupTypeOmega arg)`,
/// `dupMethodAlpha()`, `dupMethodOmega()` and the field `lock`.
fn fixture_bytes() -> Vec<u8> {
    let mut api = Api::new();
    let alpha = api.declare_class("p", "DupTypeAlpha").expect("fresh");
    let omega = api.declare_class("p", "DupTypeOmega").expect("fresh");
    let iface = api.types_mut().declare("p", "Iface", TypeKind::Interface).expect("fresh");
    api.types_mut().add_interface(omega, iface).expect("an interface");
    api.types_mut().array_of(omega);
    let method = |name: &str, params: Vec<_>, param_names| MethodDef {
        name: name.to_owned(),
        declaring: alpha,
        params,
        param_names,
        ret: omega,
        visibility: Visibility::Public,
        is_static: false,
        is_constructor: false,
    };
    api.add_method(method("first", vec![omega], vec![Some("arg".to_owned())])).expect("ok");
    api.add_method(method("dupMethodAlpha", vec![], vec![])).expect("ok");
    api.add_method(method("dupMethodOmega", vec![], vec![])).expect("ok");
    let field = FieldDef {
        name: "lock".to_owned(),
        declaring: alpha,
        ty: omega,
        visibility: Visibility::Public,
        is_static: false,
    };
    api.add_field(field).expect("ok");
    to_bytes(&api, &JungloidGraph::from_api(&api, GraphConfig::default()), &[])
}

fn section<'m>(m: &'m prospector_store::Manifest, name: &str) -> &'m SectionInfo {
    m.sections.iter().find(|s| s.name == name).expect("section exists")
}

/// The arrays of a section that opens with one u64 count per array:
/// each array's file offset and element count, for elements of
/// `widths[i]` u32 words.
fn arrays(bytes: &[u8], s: &SectionInfo, widths: &[usize]) -> Vec<(usize, usize)> {
    let start = usize::try_from(s.offset).expect("fits");
    let count = |i: usize| {
        let word = bytes[start + 8 * i..start + 8 * i + 8].try_into().expect("8 bytes");
        usize::try_from(u64::from_le_bytes(word)).expect("fits")
    };
    let mut at = start + 8 * widths.len();
    widths
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let array = (at, count(i));
            at += 4 * w * count(i);
            array
        })
        .collect()
}

/// The string pool: its blob's file offset and each string's byte range
/// in the blob.
fn pool(bytes: &[u8], s: &SectionInfo) -> (usize, Vec<std::ops::Range<usize>>) {
    let start = usize::try_from(s.offset).expect("fits");
    let count = usize::try_from(u64::from_le_bytes(bytes[start..start + 8].try_into().expect("8")))
        .expect("fits");
    let off = |i: usize| {
        let at = start + 8 + 4 * i;
        u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes")) as usize
    };
    (start + 8 + 4 * (count + 1), (0..count).map(|i| off(i)..off(i + 1)).collect())
}

/// Loads `bytes` after `edit`, with the edited section's CRC recomputed
/// so the edit reaches the decoder: the load must fail with a typed
/// `Corrupt` in `want` whose detail mentions `because`, not panic.
fn expect_corrupt(bytes: &[u8], edit: (&str, usize, &[u8]), want: &str, because: &str, case: &str) {
    let (name, at, new) = edit;
    let m = manifest(bytes).expect("pristine snapshot validates");
    let mut mutated = bytes.to_vec();
    mutated[at..at + new.len()].copy_from_slice(new);
    recompute_crc(&mut mutated, section(&m, name));
    let outcome = std::panic::catch_unwind(|| from_bytes(&mutated))
        .unwrap_or_else(|_| panic!("{case}: the loader panicked"));
    match outcome {
        Err(StoreError::Corrupt { section, detail }) => {
            assert_eq!(section, want, "{case}: {detail}");
            assert!(detail.contains(because), "{case}: `{detail}` lacks `{because}`");
        }
        Err(other) => panic!("{case}: expected Corrupt in `{want}`, got {other:?}"),
        Ok(_) => panic!("{case}: loaded anyway"),
    }
}

#[test]
fn crafted_records_behind_a_valid_crc_are_typed_errors() {
    let bytes = fixture_bytes();
    assert!(from_bytes(&bytes).is_ok(), "pristine fixture loads");
    let m = manifest(&bytes).expect("pristine snapshot validates");
    let (blob, strings) = pool(&bytes, section(&m, "strings"));
    let text = |r: &std::ops::Range<usize>| &bytes[blob + r.start..blob + r.end];
    let id = |s: &str| strings.iter().position(|r| text(r) == s.as_bytes()).expect("pooled");
    let types = arrays(&bytes, section(&m, "types"), &[1, 6, 1]);
    let members = arrays(&bytes, section(&m, "members"), &[6, 1, 1, 4]);
    let (type_count, pooled) = (types[1].1 as u32, strings.len() as u32);
    // File offsets of record words: type `i` (6 words), interface `i`,
    // method `i` (6 words), parameter `i`, parameter name `i`, field `i`
    // (4 words).
    let ty = |i: usize, w: usize| ("types", types[1].0 + 4 * (6 * i + w));
    let iface = |i: usize| ("types", types[2].0 + 4 * i);
    let method = |i: usize, w: usize| ("members", members[0].0 + 4 * (6 * i + w));
    let param = |i: usize| ("members", members[1].0 + 4 * i);
    let param_name = |i: usize| ("members", members[2].0 + 4 * i);
    let field = |i: usize, w: usize| ("members", members[3].0 + 4 * (4 * i + w));
    let (alpha, omega) = (10, 11);
    let cases = [
        ("type name id past the pool", ty(alpha, 1), pooled, "type name"),
        ("type package id", ty(alpha, 2), 1, "package"),
        ("superclass id", ty(omega, 3), type_count, "type reference"),
        ("interface id", iface(0), type_count, "interface"),
        ("interface range", ty(omega, 5), 2, "interfaces run past"),
        ("type kind tag", ty(alpha, 0), 7, "kind tag"),
        ("method name id past the pool", method(0, 0), u32::MAX - 1, "method 0's name"),
        ("parameter name id", param_name(0), 1 << 20, "parameter name"),
        ("declaring type id", method(1, 1), type_count, "references type"),
        ("parameter type id", param(0), type_count, "parameter type"),
        ("method flag byte", method(2, 5), 0xFF, "unknown flags"),
        ("field flag byte", field(0, 3), 0x80, "unknown flags"),
        ("non-monotone end offsets", method(1, 3), 0, "end offsets"),
        ("field name id past the pool", field(0, 0), pooled, "field 0's name"),
    ];
    for (case, (name, at), value, because) in cases {
        expect_corrupt(&bytes, (name, at, &value.to_le_bytes()), name, because, case);
    }

    // Supertype and element links that never end: loaded, they would
    // send `depth` (ranking) and `display` into unbounded recursion.
    // Type 12 is `Iface`, type 13 `DupTypeOmega[]`; the interface array
    // holds `Iface` alone, as `DupTypeOmega`'s one interface.
    let words = |ws: &[u32]| ws.iter().flat_map(|w| w.to_le_bytes()).collect::<Vec<u8>>();
    let (iface_ty, array_ty) = (12, 13);
    // Alpha's superclass word through omega's: alpha extends omega and
    // omega extends alpha, the five words between kept as they are.
    let (_, from) = ty(alpha, 3);
    let mut pair = bytes[from..ty(omega, 3).1 + 4].to_vec();
    pair[..4].copy_from_slice(&(omega as u32).to_le_bytes());
    pair[24..].copy_from_slice(&(alpha as u32).to_le_bytes());
    let cyclic = [
        ("self-superclass", ty(alpha, 3), words(&[alpha as u32]), "cycle"),
        ("two-type superclass cycle", ty(alpha, 3), pair, "cycle"),
        ("interface cycle", ty(iface_ty, 4), words(&[0, 1]), "cycle"),
        ("self-element array", ty(array_ty, 1), words(&[array_ty as u32]), "does not precede"),
        // `DupTypeOmega extends DupTypeOmega[]`: arrays widen to `Object`,
        // so a link into one could close a cycle the pass cannot see.
        ("superclass is an array", ty(omega, 3), words(&[array_ty as u32]), "not declared"),
    ];
    for (case, (name, at), new, because) in cyclic {
        expect_corrupt(&bytes, (name, at, &new), name, because, case);
    }

    // A pool string cut inside a UTF-8 sequence: the last byte of one
    // string and the first of the next become the two bytes of `é`, so
    // the blob stays UTF-8 as a whole.
    let (a, b) = (&strings[id("DupTypeAlpha")], &strings[id("DupTypeOmega")]);
    assert_eq!(a.end, b.start, "the two names are pooled back to back");
    let cut = ("strings", blob + a.end - 1, &[0xC3, 0xA9][..]);
    expect_corrupt(&bytes, cut, "strings", "inside a UTF-8 sequence", "cut sequence");

    // Two pool ids spelling one name: a second `DupTypeAlpha` in package
    // `p`, and a second `dupMethodAlpha()` on one class.
    for (from, to, want, because) in [
        ("DupTypeOmega", "DupTypeAlpha", "types", "duplicate declared type"),
        ("dupMethodOmega", "dupMethodAlpha", "members", "declared twice"),
    ] {
        let at = blob + strings[id(from)].start;
        expect_corrupt(&bytes, ("strings", at, to.as_bytes()), want, because, from);
    }
}

// --- error precedence -----------------------------------------------------

/// One edit that damages snapshot bytes.
type Fault<'a> = &'a dyn Fn(&mut Vec<u8>);

/// The file offset of section `s`'s frame.
fn frame_start(s: &SectionInfo) -> usize {
    usize::try_from(s.offset).expect("fits") - FRAME_BYTES
}

/// What `from_bytes` and `load` from a file, owned and mmap, make of
/// `bytes`: all three must fail alike, to the error's detail.
fn load_error(bytes: &[u8], case: &str) -> StoreError {
    let dir = std::env::temp_dir().join(format!("prospector-store-order-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("two-faults.pspk");
    std::fs::write(&path, bytes).expect("temp file writes");
    let mut errors = vec![from_bytes(bytes).err()];
    errors.extend([false, true].map(|mmap| load(&path, mmap).err()));
    std::fs::remove_dir_all(&dir).ok();
    let texts: Vec<String> = errors.iter().map(|e| format!("{e:?}")).collect();
    assert!(texts.iter().all(|t| *t == texts[0]), "{case}: the loaders disagree: {texts:?}");
    errors.swap_remove(0).unwrap_or_else(|| panic!("{case}: loaded anyway"))
}

/// Two faults in one file, each of which alone fails the load: the
/// error is the one a load reports that checks every frame, then every
/// section's CRC in file order, then decodes the sections in file
/// order — not whichever fault some part of the load happens to meet
/// first.
#[test]
fn of_two_faults_the_earlier_in_load_order_is_reported() {
    let bytes = fixture_bytes();
    let m = manifest(&bytes).expect("pristine snapshot validates");
    // A flipped bit in a section's stored CRC: its payload still decodes.
    let flip = |name: &'static str| {
        let at = frame_start(section(&m, name)) + 16;
        move |bytes: &mut Vec<u8>| bytes[at] ^= 0x01
    };
    // The CSR's first forward offset set to 1, which only the CSR's
    // structural check catches.
    let csr_fault = |bytes: &mut Vec<u8>| {
        let s = section(&m, "csr");
        let at = usize::try_from(s.offset).expect("fits") + 16;
        bytes[at..at + 4].copy_from_slice(&1u32.to_le_bytes());
        recompute_crc(bytes, s);
    };
    // Type 10's package id set to 1, a package the fixture lacks.
    let types_fault = |bytes: &mut Vec<u8>| {
        let s = section(&m, "types");
        let at = arrays(bytes, s, &[1, 6, 1])[1].0 + 4 * (6 * 10 + 2);
        bytes[at..at + 4].copy_from_slice(&1u32.to_le_bytes());
        recompute_crc(bytes, s);
    };
    // A nonzero byte in a section's padding.
    let pad = |s: &SectionInfo| {
        let at = usize::try_from(s.offset + s.bytes).expect("fits");
        move |bytes: &mut Vec<u8>| bytes[at] = 0xAB
    };
    let with = |faults: &[Fault<'_>]| {
        let mut mutated = bytes.clone();
        for fault in faults {
            fault(&mut mutated);
        }
        mutated
    };
    let is_checksum = |e: &StoreError, want: &str| {
        matches!(e, StoreError::ChecksumMismatch { section, .. } if *section == want)
    };
    let is_corrupt = |e: &StoreError, want: &str, because: &str| {
        matches!(e, StoreError::Corrupt { section, detail }
            if *section == want && detail.contains(because))
    };

    // Each fault alone is caught where the cases below assume.
    let e = load_error(&with(&[&csr_fault]), "CSR fault alone");
    assert!(is_corrupt(&e, "csr", "offsets must start at 0"), "{e:?}");
    let e = load_error(&with(&[&types_fault]), "types fault alone");
    assert!(is_corrupt(&e, "types", "package"), "{e:?}");
    let e = load_error(&with(&[&flip("csr")]), "CRC flip alone");
    assert!(is_checksum(&e, "csr"), "{e:?}");

    // (a) A checksum mismatch comes before any decode error.
    let e = load_error(&with(&[&flip("members"), &csr_fault]), "(a)");
    assert!(is_checksum(&e, "members"), "(a): {e:?}");
    // (b) ... even in a later section than the decode error.
    let e = load_error(&with(&[&types_fault, &flip("csr")]), "(b)");
    assert!(is_checksum(&e, "csr"), "(b): {e:?}");
    // (c) Decode errors come in section order.
    let e = load_error(&with(&[&types_fault, &csr_fault]), "(c)");
    assert!(is_corrupt(&e, "types", "package"), "(c): {e:?}");

    // (d, e) A frame's padding is checked in file order with the CRCs: a
    // section's faults come before a later section's.
    let padded = m.sections[1..m.sections.len() - 1]
        .iter()
        .find(|s| s.pad_bytes > 0)
        .expect("a padded section between the first and the last");
    let (first, last) = (m.sections[0].name, m.sections[m.sections.len() - 1].name);
    let case = format!("(d) padding in `{}`, CRC flip in `{first}`", padded.name);
    let e = load_error(&with(&[&pad(padded), &flip(first)]), &case);
    assert!(is_checksum(&e, first), "{case}: {e:?}");
    let case = format!("(e) padding in `{}`, CRC flip in `{last}`", padded.name);
    let e = load_error(&with(&[&pad(padded), &flip(last)]), &case);
    assert!(is_corrupt(&e, padded.name, "padding"), "{case}: {e:?}");
}
