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
//! - Checkpoint oracle: a churned durable store's every checkpoint is
//!   byte-identical to what a term-level writer makes of its graph.

use owql_persist::{
    crc32, replay_bytes, segment_path, write_segment, CommitRecord, PersistConfig, Segment, Wal,
    WalOp,
};
use owql_rdf::{Graph, Iri, SnapshotIndex, Triple};
use owql_store::{Store, StoreOptions};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

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
        let graph: Graph = triples.iter().copied().collect();
        let (terms, spo) = SnapshotIndex::from_graph(&graph).ranked();
        write_segment(&dir, 1, epoch, &terms, &spo).expect("write");
        let segment = Segment::load(&owql_persist::segment_path(&dir, 1)).expect("load");
        prop_assert_eq!(segment.epoch(), epoch);

        let config = PersistConfig::default().no_fsync().checkpoint_every(0).inline_indexer();
        let store = Store::open(&dir, StoreOptions::default(), config).expect("reopen");
        prop_assert_eq!(store.epoch(), epoch);
        prop_assert_eq!(store.to_graph(), graph, "round-trip");

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

fn durable(dir: &Path) -> Store {
    let config = PersistConfig::default()
        .no_fsync()
        .checkpoint_every(0)
        .inline_indexer();
    Store::open(dir, StoreOptions::default(), config).expect("open")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every checkpoint of a churned durable store is the oracle's
    /// segment of its graph, byte for byte. Each round inserts random
    /// triples plus new terms in reverse lexicographic order (so ids
    /// and ranks disagree), then deletes random triples and the only
    /// triple over a `dead-` term (so the dictionary holds dead terms),
    /// checkpoints, and reopens from the segment before the next round.
    #[test]
    fn checkpoint_matches_the_term_level_oracle(
        rounds in proptest::collection::vec(
            proptest::collection::vec((arb_triple(), 0u8..3), 1..16),
            3..4,
        ),
        seed in 0u64..1 << 32,
    ) {
        let dir = tmp_dir(seed.wrapping_add(1 << 42));
        let mut store = durable(&dir);
        for (round, ops) in rounds.iter().enumerate() {
            let fresh = |name: &str| Iri::new(&format!("{name}-{round}-{seed}"));
            let dead = Triple::new(fresh("dead"), fresh("zz-new"), fresh("aa-new"));
            let mut tx = store.begin();
            tx.insert(dead);
            for &(t, _) in ops {
                tx.insert(t);
            }
            store.commit(tx);
            let mut tx = store.begin();
            tx.delete(dead);
            for &(t, kind) in ops {
                if kind == 0 {
                    tx.delete(t);
                }
            }
            tx.insert(Triple::new(fresh("zz-new"), fresh("aa-new"), fresh("mm-new")));
            store.commit(tx);

            let summary = store.checkpoint().expect("io").expect("checkpoint ran");
            let graph = store.to_graph();
            let written = std::fs::read(segment_path(&dir, summary.generation)).expect("read");
            prop_assert_eq!(&written, &oracle_segment(&graph, summary.epoch), "round {}", round);
            let segment = Segment::load(&segment_path(&dir, summary.generation)).expect("load");
            let live: BTreeSet<Iri> = graph.iter().flat_map(|t| t.components()).collect();
            let (terms, _) = segment.into_parts();
            prop_assert_eq!(terms, live.into_iter().collect::<Vec<_>>(), "only live terms");

            drop(store);
            store = durable(&dir);
            prop_assert_eq!(store.to_graph(), graph, "reopen, round {}", round);
        }
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The checkpoint oracle: the term-level segment writer the id path
/// replaced. Every distinct term of `graph` goes into a `BTreeSet` (so
/// the table is in `Iri` order), each triple is binary-searched back to
/// its ranks, and the file is laid out in the segment format.
fn oracle_segment(graph: &Graph, epoch: u64) -> Vec<u8> {
    let terms: BTreeSet<Iri> = graph.iter().flat_map(|t| t.components()).collect();
    let terms: Vec<Iri> = terms.into_iter().collect();
    let rank = |t: Iri| terms.binary_search(&t).expect("collected") as u32;
    let run = |order: fn([u32; 3]) -> [u32; 3]| {
        let mut rows: Vec<[u32; 3]> = graph
            .iter()
            .map(|t| order([rank(t.s), rank(t.p), rank(t.o)]))
            .collect();
        rows.sort_unstable();
        rows
    };
    let mut body = Vec::new();
    for t in &terms {
        body.extend((t.as_str().len() as u32).to_le_bytes());
        body.extend(t.as_str().as_bytes());
    }
    let terms_bytes = body.len() as u64;
    let runs = [
        run(|r| r),
        run(|[s, p, o]| [p, o, s]),
        run(|[s, p, o]| [o, s, p]),
    ];
    body.extend(
        runs.iter()
            .flatten()
            .flatten()
            .flat_map(|id| id.to_le_bytes()),
    );
    let mut file = b"OWQLSEG1".to_vec();
    file.extend([1u32, 0].iter().flat_map(|v| v.to_le_bytes()));
    let counts = [epoch, graph.len() as u64, terms.len() as u64, terms_bytes];
    file.extend(counts.iter().flat_map(|v| v.to_le_bytes()));
    file.extend(crc32(&body).to_le_bytes());
    file.extend(crc32(&file).to_le_bytes());
    file.extend([0u8; 8]);
    file.extend(body);
    file
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
