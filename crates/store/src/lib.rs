//! `prospector-store`: the `.pspk` versioned binary snapshot format —
//! the one format an engine is loaded from.
//!
//! A little-endian binary layout whose tables (string pool, type and
//! member records, forward+reverse CSR arrays, packed jungloid quads)
//! are 8-byte-aligned slabs the loader *borrows directly* from one
//! aligned read or an mmap'd region, so a server warm-starts by
//! validating checksums once and handing out views, with zero
//! per-element copies and no graph construction, mining, or
//! generalization. [`load`] is the one way to load a snapshot file: the
//! CLI, `serve`, tenant (re)loads, `index inspect`, the benchmarks and
//! the tests all call it, and no other module reads the format.
//!
//! Format guarantees:
//!
//! - **Versioned.** Files open with the `PSPK` magic and a format
//!   version; a build reads exactly its own version ([`FORMAT_VERSION`]).
//!   Anything else — the retired v1 and v2 layouts included — is a typed
//!   [`StoreError::UnsupportedVersion`], never a misparse, and a file
//!   without the magic (such as an `index build --json` debug dump) is
//!   [`StoreError::BadMagic`].
//! - **Checksummed.** Each of the seven sections carries a CRC32 over
//!   its tag and payload; a single flipped bit anywhere surfaces as
//!   [`StoreError::ChecksumMismatch`] naming the section (a flipped
//!   byte in alignment padding, which sits outside the CRC, is a
//!   [`StoreError::Corrupt`] naming the section instead). [`load`]
//!   verifies the checksums on a helper thread while it decodes, and
//!   reports the error a load that verified them first would.
//! - **Panic-free loading.** Every count is bounds-proved with checked
//!   arithmetic before allocation or slicing, and every cross-reference
//!   (string, type, method, field, node) is validated against the tables
//!   decoded so far — including one O(edges) scan over the packed quads
//!   before any of them can be borrowed into the query hot path; all
//!   damage maps to a [`StoreError`].
//! - **Byte-identical warm start.** The loader rebuilds nothing but two
//!   indexes (type names, members per type): the API tables, CSR
//!   arrays, mined nodes, and generalized suffixes round-trip verbatim,
//!   so a reloaded engine answers queries identically to the one that
//!   was saved.

#![deny(unsafe_code)]

mod crc32;
mod error;
mod rw;
mod snapshot;

pub use crc32::{crc32, Crc32};
pub use error::StoreError;
pub use snapshot::{
    from_buf, from_bytes, load, manifest, pad_for, save_file, to_bytes, LoadPhases, Loaded,
    Manifest, SectionInfo, Snapshot, FORMAT_VERSION, MAGIC,
};

#[cfg(test)]
mod tests {
    use super::*;
    use jungloid_apidef::{Api, ApiLoader, ElemJungloid};
    use prospector_core::graph::JungloidGraph;
    use prospector_core::GraphConfig;

    fn tiny_engine() -> (Api, JungloidGraph) {
        let mut loader = ApiLoader::with_prelude();
        loader
            .add_source(
                "io.api",
                r"
                package java.io;
                public class Reader {}
                public class InputStream {}
                public class InputStreamReader extends Reader {
                    InputStreamReader(InputStream in);
                }
                public class BufferedReader extends Reader {
                    BufferedReader(Reader in);
                    String readLine();
                }
                ",
            )
            .expect("stub parses");
        let api = loader.finish().expect("api finishes");
        let graph = JungloidGraph::from_api(&api, GraphConfig::default());
        (api, graph)
    }

    #[test]
    fn round_trip_preserves_api_and_graph() {
        let (api, graph) = tiny_engine();
        let mined: Vec<Vec<ElemJungloid>> = Vec::new();
        let bytes = to_bytes(&api, &graph, &mined);
        let snap = from_bytes(&bytes).expect("round trip");
        assert_eq!(snap.api.types().len(), api.types().len());
        assert_eq!(snap.api.method_count(), api.method_count());
        assert_eq!(snap.api.field_count(), api.field_count());
        assert_eq!(snap.graph.node_count(), graph.node_count());
        assert_eq!(snap.graph.edge_count(), graph.edge_count());
        assert_eq!(snap.graph.config(), graph.config());
        assert_eq!(snap.graph.examples(), graph.examples());
        assert_eq!(snap.graph.csr().out_to(), graph.csr().out_to());
        assert_eq!(snap.graph.csr().out_elem(), graph.csr().out_elem());
        assert_eq!(snap.graph.csr().in_from(), graph.csr().in_from());
        assert!(snap.mined_examples.is_empty());
    }

    #[test]
    fn re_encoding_a_loaded_snapshot_is_byte_identical() {
        let (api, graph) = tiny_engine();
        let bytes = to_bytes(&api, &graph, &[]);
        let snap = from_bytes(&bytes).expect("round trip");
        assert_eq!(to_bytes(&snap.api, &snap.graph, &snap.mined_examples), bytes);
    }

    #[test]
    fn manifest_names_all_seven_sections() {
        let (api, graph) = tiny_engine();
        let bytes = to_bytes(&api, &graph, &[]);
        let m = manifest(&bytes).expect("manifest");
        assert_eq!(m.version, FORMAT_VERSION);
        assert_eq!(m.total_bytes, bytes.len() as u64);
        let names: Vec<&str> = m.sections.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            ["strings", "types", "members", "graph", "csr", "examples", "suffixes"]
        );
    }

    #[test]
    fn bad_magic_is_typed() {
        let (api, graph) = tiny_engine();
        let mut bytes = to_bytes(&api, &graph, &[]);
        bytes[0] = b'J';
        assert!(matches!(from_bytes(&bytes), Err(StoreError::BadMagic { .. })));
        assert!(matches!(
            from_bytes(b"{\"api\": {}, \"graph\": {}}"),
            Err(StoreError::BadMagic { .. })
        ));
    }

    #[test]
    fn future_versions_are_gated() {
        let (api, graph) = tiny_engine();
        let mut bytes = to_bytes(&api, &graph, &[]);
        bytes[4..8].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        match from_bytes(&bytes) {
            Err(StoreError::UnsupportedVersion { found, supported }) => {
                assert_eq!(found, FORMAT_VERSION + 1);
                assert_eq!(supported, FORMAT_VERSION);
            }
            other => panic!("expected version gate, got {other:?}"),
        }
    }

    #[test]
    fn payload_bit_flip_is_a_checksum_mismatch() {
        let (api, graph) = tiny_engine();
        let mut bytes = to_bytes(&api, &graph, &[]);
        let last = bytes.len() - 1; // inside the suffixes payload (or its frame)
        bytes[last] ^= 0x01;
        assert!(matches!(
            from_bytes(&bytes),
            Err(StoreError::ChecksumMismatch { .. } | StoreError::Corrupt { .. })
        ));
    }
}
