//! Retired formats are refused, not misread. The committed fixture is a
//! `.pspk` written in the retired format v1; every way this build opens a
//! snapshot — in memory, owned read, mmap, the staged open, and the
//! registry's engine load that the CLI, `serve` and tenants share — must
//! reject it with the typed version error naming both versions.

use std::path::Path;

use prospector_store::{StoreError, FORMAT_VERSION, MAGIC};

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/v1.pspk");

fn assert_v1_refused<T>(result: Result<T, StoreError>, via: &str) {
    match result {
        Err(StoreError::UnsupportedVersion { found: 1, supported: 2 }) => {}
        Err(other) => panic!("{via}: expected UnsupportedVersion {{ 1, 2 }}, got {other:?}"),
        Ok(_) => panic!("{via}: a v1 snapshot loaded"),
    }
}

#[test]
fn committed_v1_fixture_is_refused_by_every_loader() {
    let bytes = std::fs::read(FIXTURE).expect("committed fixture exists");
    // The fixture really is a v1 snapshot: right magic, version 1. So a
    // refusal below is the version gate, not a bad-magic rejection.
    assert_eq!(bytes[..4], MAGIC);
    assert_eq!(u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes")), 1);
    assert_eq!(FORMAT_VERSION, 2);

    let path = Path::new(FIXTURE);
    assert_v1_refused(prospector_store::manifest(&bytes), "manifest");
    assert_v1_refused(prospector_store::from_bytes(&bytes), "from_bytes");
    assert_v1_refused(prospector_store::load_file(path), "load_file");
    assert_v1_refused(prospector_store::map_file(path), "map_file");
    assert_v1_refused(prospector_store::MappedSnapshot::open(path), "MappedSnapshot::open");
    assert_v1_refused(prospector_store::MappedSnapshot::map(path), "MappedSnapshot::map");

    for mmap in [false, true] {
        let err = prospector_registry::load_engine(FIXTURE, mmap)
            .err()
            .unwrap_or_else(|| panic!("registry::load_engine (mmap {mmap}) loaded a v1 snapshot"));
        let want = StoreError::UnsupportedVersion { found: 1, supported: 2 }.to_string();
        assert_eq!(err, want, "registry::load_engine (mmap {mmap})");
    }
}
