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
//! decoders' own checks can catch).

use jungloid_apidef::{Api, FieldDef, MethodDef, Visibility};
use jungloid_typesys::TypeKind;
use prospector_core::graph::JungloidGraph;
use prospector_core::GraphConfig;
use prospector_corpora::{build, BuildOptions};
use prospector_store::{crc32, from_bytes, manifest, to_bytes, Crc32, SectionInfo, StoreError};

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

// --- crafted records ------------------------------------------------------

/// A small engine whose every record a test can address: classes
/// `p.DupTypeAlpha` and `p.DupTypeOmega`, the interface `p.Iface` that
/// `DupTypeOmega` implements; on `DupTypeAlpha` the methods
/// `first(DupTypeOmega arg)`, `dupMethodAlpha()`, `dupMethodOmega()` and
/// the field `lock`.
fn fixture_bytes() -> Vec<u8> {
    let mut api = Api::new();
    let alpha = api.declare_class("p", "DupTypeAlpha").expect("fresh");
    let omega = api.declare_class("p", "DupTypeOmega").expect("fresh");
    let iface = api.types_mut().declare("p", "Iface", TypeKind::Interface).expect("fresh");
    api.types_mut().add_interface(omega, iface).expect("an interface");
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
