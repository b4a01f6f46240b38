//! Property tests: the on-disk formats round-trip on arbitrary data.
//!
//! - WAL framing: arbitrary commit records survive append → replay,
//!   and replaying an arbitrarily truncated log yields a clean prefix
//!   of the appended records (never garbage, never reordering).
//! - Segment codec: arbitrary triple sets survive write → reopen, and
//!   the reopened store's index answers **all eight** triple-pattern
//!   shapes (each of s/p/o bound or free — exercising the SPO, POS and
//!   OSP runs plus their prefix ranges) exactly like a naive filter
//!   over the input triples.

use owql_persist::{replay_bytes, write_segment, CommitRecord, PersistConfig, Segment, Wal, WalOp};
use owql_rdf::{Graph, Iri, Triple};
use owql_store::{Store, StoreOptions};
use proptest::prelude::*;
use std::path::PathBuf;

fn tmp_dir(tag: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "owql-persist-prop-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

fn arb_iri() -> impl Strategy<Value = Iri> {
    prop_oneof![
        "[a-c][a-z0-9]{0,4}".prop_map(|s| Iri::new(&s)),
        "[a-z]{1,4}".prop_map(|s| Iri::new(&format!("http://ex.org/{s}"))),
        Just(Iri::new("")),
        Just(Iri::new("üñíçødé")),
        Just(Iri::new("has space")),
    ]
}

fn arb_triple() -> impl Strategy<Value = Triple> {
    (arb_iri(), arb_iri(), arb_iri()).prop_map(|(s, p, o)| Triple { s, p, o })
}

fn arb_ops() -> impl Strategy<Value = Vec<WalOp>> {
    proptest::collection::vec(
        (arb_triple(), 0u8..2).prop_map(|(t, ins)| {
            if ins == 1 {
                WalOp::Insert(t)
            } else {
                WalOp::Delete(t)
            }
        }),
        0..12,
    )
}

fn arb_records() -> impl Strategy<Value = Vec<CommitRecord>> {
    proptest::collection::vec((1u64..1000, arb_ops()), 0..8).prop_map(|rs| {
        rs.into_iter()
            .map(|(epoch, ops)| CommitRecord { epoch, ops })
            .collect()
    })
}

proptest! {
    /// Encode → decode is the identity on single records.
    #[test]
    fn wal_record_codec_roundtrip(epoch in 0u64..u64::MAX, ops in arb_ops()) {
        let record = CommitRecord { epoch, ops };
        let decoded = CommitRecord::decode(&record.encode()).expect("decodes");
        prop_assert_eq!(decoded, record);
    }

    /// Append N records, replay the file: same records, same order,
    /// nothing torn.
    #[test]
    fn wal_file_roundtrip(records in arb_records(), seed in 0u64..1 << 32) {
        let dir = tmp_dir(seed);
        let path = dir.join("wal.log");
        {
            let (mut wal, replay) = Wal::open(&path).expect("open");
            prop_assert!(replay.records.is_empty());
            for r in &records {
                wal.append(r, false).expect("append");
            }
        }
        let (_, replay) = Wal::open(&path).expect("reopen");
        prop_assert!(!replay.torn());
        prop_assert_eq!(replay.records, records);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Replaying a log cut at an arbitrary byte offset yields a clean
    /// prefix of the appended records — the crash-safety contract of
    /// the framing.
    #[test]
    fn wal_truncation_yields_record_prefix(
        records in arb_records(),
        cut_percent in 0u64..101,
        seed in 0u64..1 << 32,
    ) {
        let dir = tmp_dir(seed.wrapping_add(1 << 40));
        let path = dir.join("wal.log");
        {
            let (mut wal, _) = Wal::open(&path).expect("open");
            for r in &records {
                wal.append(r, false).expect("append");
            }
        }
        let bytes = std::fs::read(&path).expect("read");
        let cut = (bytes.len() as u64 * cut_percent / 100) as usize;
        let replay = replay_bytes(&bytes[..cut]);
        prop_assert!(replay.records.len() <= records.len());
        prop_assert_eq!(
            replay.records.as_slice(),
            &records[..replay.records.len()],
            "replayed records are an exact prefix"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Segment write → `Store::open` is lossless (modulo sort + dedup,
    /// the segment's canonical form): the reopened graph is the input,
    /// and the id view built from the segment — the dictionary seeded
    /// from its term table, the base runs rebuilt from its SPO run —
    /// answers every one of the eight triple-pattern shapes like the
    /// naive filter.
    #[test]
    fn segment_codec_roundtrip_and_scan_equivalence(
        triples in proptest::collection::vec(arb_triple(), 0..60),
        epoch in 0u64..1000,
        seed in 0u64..1 << 32,
    ) {
        let dir = tmp_dir(seed.wrapping_add(1 << 41));
        write_segment(&dir, 1, epoch, &triples).expect("write");
        let segment = Segment::load(&owql_persist::segment_path(&dir, 1)).expect("load");
        prop_assert_eq!(segment.epoch(), epoch);

        let config = PersistConfig::default().no_fsync().checkpoint_every(0).inline_indexer();
        let store = Store::open(&dir, StoreOptions::default(), config).expect("reopen");
        prop_assert_eq!(store.epoch(), epoch);
        prop_assert_eq!(store.to_graph(), triples.iter().copied().collect::<Graph>(), "round-trip");

        let snapshot = store.snapshot();
        let view = snapshot.id_view();
        let term = |id| view.dict.resolve(id).expect("interned");
        // Probe terms: some present, some absent.
        let mut probes: Vec<Option<Iri>> = vec![None, Some(Iri::new("zzz-absent"))];
        if let Some(t) = triples.first() {
            probes.push(Some(t.s));
            probes.push(Some(t.p));
            probes.push(Some(t.o));
        }
        for &s in &probes {
            for &p in &probes {
                for &o in &probes {
                    let want = naive_scan(&triples, s, p, o);
                    // A constant the dictionary never saw matches nothing.
                    let id = |t: Option<Iri>| t.map(|t| view.dict.lookup(t));
                    let (is, ip, io) = (id(s), id(p), id(o));
                    let mut got: Vec<Triple> = if [is, ip, io].contains(&Some(None)) {
                        Vec::new()
                    } else {
                        view.rows(is.flatten(), ip.flatten(), io.flatten())
                            .map(|[s, p, o]| Triple { s: term(s), p: term(p), o: term(o) })
                            .collect()
                    };
                    got.sort_unstable();
                    prop_assert_eq!(&got, &want, "pattern ({s:?},{p:?},{o:?})");
                }
            }
        }
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The reference scan (the filter `proptest_dict` checks the id runs
/// against): the input triples matching the pattern, sorted and
/// distinct.
fn naive_scan(triples: &[Triple], s: Option<Iri>, p: Option<Iri>, o: Option<Iri>) -> Vec<Triple> {
    let mut out: Vec<Triple> = triples
        .iter()
        .filter(|t| {
            s.is_none_or(|s| t.s == s) && p.is_none_or(|p| t.p == p) && o.is_none_or(|o| t.o == o)
        })
        .copied()
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}
