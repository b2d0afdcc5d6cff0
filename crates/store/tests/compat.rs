//! Retired formats are refused, not misread. The committed fixtures are
//! `.pspk` files written in the retired formats v1 and v2 (the same tiny
//! `java.io` engine, saved by the last builds that wrote each format);
//! every way this build opens a snapshot — in memory, the file loader
//! with an owned read and with mmap, and the registry's engine load that
//! the CLI, `serve` and tenants share — must reject them with the typed
//! version error naming both versions.

use std::path::Path;

use prospector_store::{StoreError, FORMAT_VERSION, MAGIC};

fn fixture(version: u32) -> String {
    format!("{}/tests/fixtures/v{version}.pspk", env!("CARGO_MANIFEST_DIR"))
}

fn assert_refused<T>(result: Result<T, StoreError>, found: u32, via: &str) {
    match result {
        Err(StoreError::UnsupportedVersion { found: f, supported: 3 }) if f == found => {}
        Err(other) => panic!("{via}: expected UnsupportedVersion {{ {found}, 3 }}, got {other:?}"),
        Ok(_) => panic!("{via}: a v{found} snapshot loaded"),
    }
}

#[test]
fn committed_v1_and_v2_fixtures_are_refused_by_every_loader() {
    assert_eq!(FORMAT_VERSION, 3);
    for version in [1, 2] {
        let file = fixture(version);
        let bytes = std::fs::read(&file).expect("committed fixture exists");
        // Each fixture really is a snapshot of its version: right magic,
        // right version word. So a refusal below is the version gate, not
        // a bad-magic rejection.
        assert_eq!(bytes[..4], MAGIC);
        assert_eq!(u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes")), version);

        let path = Path::new(&file);
        let via = |how: &str| format!("v{version} via {how}");
        assert_refused(prospector_store::manifest(&bytes), version, &via("manifest"));
        assert_refused(prospector_store::from_bytes(&bytes), version, &via("from_bytes"));
        for mmap in [false, true] {
            let how = format!("load (mmap {mmap})");
            assert_refused(prospector_store::load(path, mmap), version, &via(&how));
            let err = prospector_registry::load_engine(&file, mmap).err().unwrap_or_else(|| {
                panic!("registry::load_engine (mmap {mmap}) loaded a v{version} snapshot")
            });
            let want = StoreError::UnsupportedVersion { found: version, supported: 3 }.to_string();
            assert_eq!(err, want, "v{version} via registry::load_engine (mmap {mmap})");
        }
    }
}
