//! Binary index segments: one immutable, checksummed file holding a
//! full graph snapshot as a term dictionary plus three sorted runs.
//!
//! ```text
//! segment-<generation>.seg
//! ┌──────────────────────────────────────────────────────────────┐
//! │ header (64 bytes, fixed width)                               │
//! │   0  magic        "OWQLSEG1"                                 │
//! │   8  version      u32 LE (currently 1)                       │
//! │  12  flags        u32 LE (0)                                 │
//! │  16  epoch        u64 LE   — watermark: commits ≤ epoch      │
//! │  24  triple_count u64 LE                                     │
//! │  32  term_count   u64 LE                                     │
//! │  40  terms_bytes  u64 LE   — byte length of the dictionary   │
//! │  48  body_crc     u32 LE   — CRC-32 of everything after 64   │
//! │  52  header_crc   u32 LE   — CRC-32 of bytes [0, 52)         │
//! │  56  reserved     u64 (0)                                    │
//! ├──────────────────────────────────────────────────────────────┤
//! │ term dictionary: term_count × ([len: u32 LE][utf-8 bytes]),  │
//! │   lexicographically sorted — a term's id is its rank, so     │
//! │   id order IS string order                                   │
//! ├──────────────────────────────────────────────────────────────┤
//! │ SPO run: triple_count × [s,p,o] (3 × u32 LE), sorted         │
//! │ POS run: triple_count × [p,o,s] (3 × u32 LE), sorted         │
//! │ OSP run: triple_count × [o,s,p] (3 × u32 LE), sorted         │
//! └──────────────────────────────────────────────────────────────┘
//! ```
//!
//! Because the dictionary is sorted, numeric id comparison equals
//! lexicographic term comparison, and each run is one contiguous
//! sorted array — every triple-pattern shape ([`Segment::matching`])
//! is a binary-searched **contiguous range** of exactly one run, which is why predicate-bound scans (the
//! dominant shape in practical SPARQL logs) are sequential reads.
//!
//! Segments are written to a temp file, fsync'd, then renamed into
//! place (and the directory fsync'd): a crash mid-write leaves a
//! `.tmp` straggler that recovery ignores, never a half-valid segment.

use crate::crc::crc32;
use crate::wal::sync_parent_dir;
use owql_rdf::{Graph, GraphIndex, Iri, Triple};
use std::collections::BTreeSet;
use std::fmt;
use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// First 8 bytes of every segment file.
pub const MAGIC: &[u8; 8] = b"OWQLSEG1";
/// Current format version.
pub const VERSION: u32 = 1;
/// Fixed header width.
const HEADER_LEN: usize = 64;

/// Why a segment file was rejected.
#[derive(Debug)]
pub enum SegmentError {
    /// The file could not be read.
    Io(io::Error),
    /// The bytes are not a valid segment (bad magic, version, CRC, or
    /// structure); the message says which check failed.
    Corrupt(String),
}

impl fmt::Display for SegmentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SegmentError::Io(e) => write!(f, "segment io error: {e}"),
            SegmentError::Corrupt(why) => write!(f, "corrupt segment: {why}"),
        }
    }
}

impl std::error::Error for SegmentError {}

impl From<io::Error> for SegmentError {
    fn from(e: io::Error) -> Self {
        SegmentError::Io(e)
    }
}

fn corrupt(why: impl Into<String>) -> SegmentError {
    SegmentError::Corrupt(why.into())
}

/// The canonical file name for generation `generation` in `dir`.
pub fn segment_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("segment-{generation:010}.seg"))
}

/// Parses a generation number out of a `segment-NNNNNNNNNN.seg` file
/// name.
fn parse_generation(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let digits = name.strip_prefix("segment-")?.strip_suffix(".seg")?;
    digits.parse().ok()
}

/// Writes the segment for `triples` at `epoch` atomically; returns the
/// final path. `triples` need not be sorted or deduplicated.
pub fn write_segment(
    dir: &Path,
    generation: u64,
    epoch: u64,
    triples: &[Triple],
) -> io::Result<PathBuf> {
    // Dictionary: every distinct term, in lexicographic (= `Iri::Ord`)
    // order, so rank == id and id order == string order.
    let mut terms: BTreeSet<Iri> = BTreeSet::new();
    for t in triples {
        terms.extend(t.components());
    }
    let terms: Vec<Iri> = terms.into_iter().collect();
    let id = |iri: Iri| -> u32 {
        terms
            .binary_search(&iri)
            .expect("every component was collected") as u32
    };

    let mut spo: Vec<[u32; 3]> = triples
        .iter()
        .map(|t| [id(t.s), id(t.p), id(t.o)])
        .collect();
    spo.sort_unstable();
    spo.dedup();
    let mut pos: Vec<[u32; 3]> = spo.iter().map(|&[s, p, o]| [p, o, s]).collect();
    pos.sort_unstable();
    let mut osp: Vec<[u32; 3]> = spo.iter().map(|&[s, p, o]| [o, s, p]).collect();
    osp.sort_unstable();

    let mut body = Vec::new();
    for &term in &terms {
        let text = term.as_str().as_bytes();
        body.extend_from_slice(&(text.len() as u32).to_le_bytes());
        body.extend_from_slice(text);
    }
    let terms_bytes = body.len() as u64;
    for run in [&spo, &pos, &osp] {
        for row in run {
            for &component in row {
                body.extend_from_slice(&component.to_le_bytes());
            }
        }
    }

    let mut header = Vec::with_capacity(HEADER_LEN);
    header.extend_from_slice(MAGIC);
    header.extend_from_slice(&VERSION.to_le_bytes());
    header.extend_from_slice(&0u32.to_le_bytes()); // flags
    header.extend_from_slice(&epoch.to_le_bytes());
    header.extend_from_slice(&(spo.len() as u64).to_le_bytes());
    header.extend_from_slice(&(terms.len() as u64).to_le_bytes());
    header.extend_from_slice(&terms_bytes.to_le_bytes());
    header.extend_from_slice(&crc32(&body).to_le_bytes());
    let header_crc = crc32(&header);
    header.extend_from_slice(&header_crc.to_le_bytes());
    header.extend_from_slice(&0u64.to_le_bytes()); // reserved pad
    debug_assert_eq!(header.len(), HEADER_LEN);

    let path = segment_path(dir, generation);
    let tmp = path.with_extension("seg.tmp");
    let mut file = File::create(&tmp)?;
    file.write_all(&header)?;
    file.write_all(&body)?;
    file.sync_data()?;
    drop(file);
    std::fs::rename(&tmp, &path)?;
    sync_parent_dir(&path)?;
    Ok(path)
}

/// A loaded, validated segment: the graph snapshot at its epoch.
/// Triple patterns can be looked up in place off the sorted runs; the
/// evaluator runs on the [`GraphIndex`] a store decodes it into
/// ([`Segment::to_graph_index`]), which carries the id state the
/// engine needs.
#[derive(Clone, Debug)]
pub struct Segment {
    generation: u64,
    epoch: u64,
    terms: Vec<Iri>,
    spo: Vec<[u32; 3]>,
    pos: Vec<[u32; 3]>,
    osp: Vec<[u32; 3]>,
}

impl Segment {
    /// Loads and fully validates the segment at `path` (magic,
    /// version, both CRCs, structural bounds).
    pub fn load(path: &Path) -> Result<Segment, SegmentError> {
        let bytes = std::fs::read(path)?;
        if bytes.len() < HEADER_LEN {
            return Err(corrupt(format!(
                "file is {} bytes, shorter than the header",
                bytes.len()
            )));
        }
        let (header, body) = bytes.split_at(HEADER_LEN);
        if &header[0..8] != MAGIC {
            return Err(corrupt("bad magic"));
        }
        let u32_at = |at: usize| u32::from_le_bytes(header[at..at + 4].try_into().expect("4"));
        let u64_at = |at: usize| u64::from_le_bytes(header[at..at + 8].try_into().expect("8"));
        let version = u32_at(8);
        if version != VERSION {
            return Err(corrupt(format!("unsupported version {version}")));
        }
        if u32_at(52) != crc32(&header[0..52]) {
            return Err(corrupt("header CRC mismatch"));
        }
        if u32_at(48) != crc32(body) {
            return Err(corrupt("body CRC mismatch"));
        }
        let epoch = u64_at(16);
        let triple_count = u64_at(24) as usize;
        let term_count = u64_at(32) as usize;
        let terms_bytes = u64_at(40) as usize;
        let runs_bytes = triple_count
            .checked_mul(36)
            .ok_or_else(|| corrupt("triple count overflows"))?;
        if body.len() != terms_bytes + runs_bytes {
            return Err(corrupt(format!(
                "body is {} bytes, expected {} (dictionary) + {} (runs)",
                body.len(),
                terms_bytes,
                runs_bytes
            )));
        }

        let (dict, runs) = body.split_at(terms_bytes);
        let mut terms = Vec::with_capacity(term_count);
        let mut at = 0usize;
        for i in 0..term_count {
            let len = dict
                .get(at..at + 4)
                .map(|b| u32::from_le_bytes(b.try_into().expect("4")) as usize)
                .ok_or_else(|| corrupt(format!("dictionary truncated at term {i}")))?;
            let text = dict
                .get(at + 4..at + 4 + len)
                .ok_or_else(|| corrupt(format!("dictionary truncated inside term {i}")))?;
            let text =
                std::str::from_utf8(text).map_err(|_| corrupt(format!("term {i} is not UTF-8")))?;
            terms.push(Iri::new(text));
            at += 4 + len;
        }
        if at != terms_bytes {
            return Err(corrupt("dictionary has trailing bytes"));
        }

        let read_run = |which: usize| -> Result<Vec<[u32; 3]>, SegmentError> {
            let start = which * triple_count * 12;
            let mut run = Vec::with_capacity(triple_count);
            for row in 0..triple_count {
                let at = start + row * 12;
                let mut ids = [0u32; 3];
                for (slot, id) in ids.iter_mut().enumerate() {
                    let off = at + slot * 4;
                    *id = u32::from_le_bytes(runs[off..off + 4].try_into().expect("4"));
                    if *id as usize >= term_count {
                        return Err(corrupt(format!(
                            "row {row} references term {id} of {term_count}"
                        )));
                    }
                }
                run.push(ids);
            }
            Ok(run)
        };
        let spo = read_run(0)?;
        let pos = read_run(1)?;
        let osp = read_run(2)?;
        let generation = parse_generation(path).unwrap_or(0);
        Ok(Segment {
            generation,
            epoch,
            terms,
            spo,
            pos,
            osp,
        })
    }

    /// The generation parsed from the file name (0 for non-canonical
    /// names).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The epoch watermark: every commit with `epoch <=` this is
    /// folded into the segment.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Distinct terms in the dictionary.
    pub fn term_count(&self) -> usize {
        self.terms.len()
    }

    /// The term dictionary: lexicographically sorted, id = rank. A
    /// recovering store seeds its in-memory `TermDict` from this table
    /// (`TermDict::from_sorted_terms` assigns `rank + 1`, reserving `0`
    /// for "unbound"), so segment-resident triples re-index with zero
    /// dictionary misses.
    pub fn terms(&self) -> &[Iri] {
        &self.terms
    }

    /// Resolves a term to its dictionary id (rank), if present.
    fn term_id(&self, iri: Iri) -> Option<u32> {
        self.terms.binary_search(&iri).ok().map(|at| at as u32)
    }

    /// The contiguous row range of `run` whose first `key.len()`
    /// components equal `key`.
    fn prefix_range(run: &[[u32; 3]], key: &[u32]) -> (usize, usize) {
        let lo = run.partition_point(|row| row[..key.len()] < *key);
        let hi = run.partition_point(|row| row[..key.len()] <= *key);
        (lo, hi)
    }

    /// Iterates the triples in SPO order.
    pub fn triples(&self) -> impl Iterator<Item = Triple> + '_ {
        self.spo.iter().map(move |&[s, p, o]| Triple {
            s: self.terms[s as usize],
            p: self.terms[p as usize],
            o: self.terms[o as usize],
        })
    }

    /// Materializes the snapshot as a hash-indexed [`GraphIndex`] (the
    /// store's in-memory base representation).
    pub fn to_graph_index(&self) -> GraphIndex {
        GraphIndex::from_triples(self.triples())
    }

    /// Resolves one run row back to a triple. `order` says which
    /// permutation the run stores.
    fn row_triple(&self, row: [u32; 3], order: RunOrder) -> Triple {
        let [a, b, c] = row;
        let (s, p, o) = match order {
            RunOrder::Spo => (a, b, c),
            RunOrder::Pos => (c, a, b),
            RunOrder::Osp => (b, c, a),
        };
        Triple {
            s: self.terms[s as usize],
            p: self.terms[p as usize],
            o: self.terms[o as usize],
        }
    }

    /// Picks the run + prefix key answering a pattern shape, such that
    /// the matches are exactly one contiguous range. Returns `None`
    /// when some bound term is not in the dictionary (no matches).
    fn plan(&self, s: Option<Iri>, p: Option<Iri>, o: Option<Iri>) -> Option<(RunOrder, Vec<u32>)> {
        let sid = match s {
            Some(iri) => Some(self.term_id(iri)?),
            None => None,
        };
        let pid = match p {
            Some(iri) => Some(self.term_id(iri)?),
            None => None,
        };
        let oid = match o {
            Some(iri) => Some(self.term_id(iri)?),
            None => None,
        };
        Some(match (sid, pid, oid) {
            (Some(s), Some(p), Some(o)) => (RunOrder::Spo, vec![s, p, o]),
            (Some(s), Some(p), None) => (RunOrder::Spo, vec![s, p]),
            (Some(s), None, None) => (RunOrder::Spo, vec![s]),
            (None, Some(p), Some(o)) => (RunOrder::Pos, vec![p, o]),
            (None, Some(p), None) => (RunOrder::Pos, vec![p]),
            (Some(s), None, Some(o)) => (RunOrder::Osp, vec![o, s]),
            (None, None, Some(o)) => (RunOrder::Osp, vec![o]),
            (None, None, None) => (RunOrder::Spo, Vec::new()),
        })
    }

    fn run(&self, order: RunOrder) -> &[[u32; 3]] {
        match order {
            RunOrder::Spo => &self.spo,
            RunOrder::Pos => &self.pos,
            RunOrder::Osp => &self.osp,
        }
    }
}

/// Which permutation a run stores its rows in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum RunOrder {
    Spo,
    Pos,
    Osp,
}

impl Segment {
    /// The triples matching a pattern with optionally bound positions
    /// (`None` means "any value").
    pub fn matching(&self, s: Option<Iri>, p: Option<Iri>, o: Option<Iri>) -> Vec<Triple> {
        let Some((order, key)) = self.plan(s, p, o) else {
            return Vec::new();
        };
        let run = self.run(order);
        let (lo, hi) = Segment::prefix_range(run, &key);
        run[lo..hi]
            .iter()
            .map(|&row| self.row_triple(row, order))
            .collect()
    }

    /// Number of matches for the pattern.
    pub fn cardinality(&self, s: Option<Iri>, p: Option<Iri>, o: Option<Iri>) -> usize {
        let Some((order, key)) = self.plan(s, p, o) else {
            return 0;
        };
        let (lo, hi) = Segment::prefix_range(self.run(order), &key);
        hi - lo
    }

    /// Membership test for a fully ground triple.
    pub fn contains(&self, t: &Triple) -> bool {
        let Some((_, key)) = self.plan(Some(t.s), Some(t.p), Some(t.o)) else {
            return false;
        };
        let key = [key[0], key[1], key[2]];
        self.spo.binary_search(&key).is_ok()
    }

    /// Number of triples in the segment.
    pub fn len(&self) -> usize {
        self.spo.len()
    }

    /// `true` iff the segment holds no triple.
    pub fn is_empty(&self) -> bool {
        self.spo.is_empty()
    }

    /// Materializes the segment's triples as a [`Graph`].
    pub fn to_graph(&self) -> Graph {
        self.triples().collect()
    }
}

/// Reads just the 64-byte header of a segment and returns its epoch
/// watermark, validating magic, version, and the header CRC (the body
/// is not touched — this is the cheap peek the checkpoint protocol
/// uses to learn the watermarks of retained generations).
pub fn segment_epoch(path: &Path) -> Result<u64, SegmentError> {
    use std::io::Read;
    let mut header = [0u8; HEADER_LEN];
    File::open(path)?
        .read_exact(&mut header)
        .map_err(|_| corrupt("shorter than the header"))?;
    if &header[0..8] != MAGIC {
        return Err(corrupt("bad magic"));
    }
    let version = u32::from_le_bytes(header[8..12].try_into().expect("4"));
    if version != VERSION {
        return Err(corrupt(format!("unsupported version {version}")));
    }
    let header_crc = u32::from_le_bytes(header[52..56].try_into().expect("4"));
    if header_crc != crc32(&header[0..52]) {
        return Err(corrupt("header CRC mismatch"));
    }
    Ok(u64::from_le_bytes(header[16..24].try_into().expect("8")))
}

/// The `(generation, path)` of every canonically named segment file in
/// `dir`, oldest first. Non-segment files are ignored.
pub fn segment_generations(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut found = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if let Some(generation) = parse_generation(&path) {
            found.push((generation, path));
        }
    }
    found.sort();
    Ok(found)
}

/// A segment file that recovery refused to load, with the reason.
pub type RejectedSegment = (PathBuf, String);

/// Loads the newest segment that validates, walking backwards over
/// corrupt ones. Returns the segment (if any survives) plus a note per
/// rejected file.
pub fn load_newest_valid(dir: &Path) -> io::Result<(Option<Segment>, Vec<RejectedSegment>)> {
    let mut rejected = Vec::new();
    for (_, path) in segment_generations(dir)?.into_iter().rev() {
        match Segment::load(&path) {
            Ok(segment) => return Ok((Some(segment), rejected)),
            Err(e) => rejected.push((path, e.to_string())),
        }
    }
    Ok((None, rejected))
}

/// Removes all but the newest `keep` segment files (and any `.tmp`
/// stragglers from interrupted writes). Returns the removed paths.
pub fn prune_segments(dir: &Path, keep: usize) -> io::Result<Vec<PathBuf>> {
    let mut removed = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.extension().is_some_and(|e| e == "tmp") {
            std::fs::remove_file(&path)?;
            removed.push(path);
        }
    }
    let generations = segment_generations(dir)?;
    if generations.len() > keep {
        for (_, path) in &generations[..generations.len() - keep] {
            std::fs::remove_file(path)?;
            removed.push(path.clone());
        }
    }
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use owql_rdf::graph::graph_from;
    use owql_rdf::term::triple;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("owql-seg-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    fn sample() -> Vec<Triple> {
        vec![
            triple("a", "p", "b"),
            triple("a", "p", "c"),
            triple("a", "q", "b"),
            triple("d", "p", "b"),
            triple("d", "q", "d"),
            triple("b", "p", "a"),
        ]
    }

    #[test]
    fn write_load_roundtrip_preserves_triples_and_epoch() {
        let dir = tmp("roundtrip");
        let triples = sample();
        let path = write_segment(&dir, 3, 17, &triples).expect("write");
        assert_eq!(path, segment_path(&dir, 3));
        let segment = Segment::load(&path).expect("load");
        assert_eq!(segment.generation(), 3);
        assert_eq!(segment.epoch(), 17);
        assert_eq!(segment.len(), triples.len());
        let mut want = triples.clone();
        want.sort();
        assert_eq!(segment.triples().collect::<Vec<_>>(), want);
        assert_eq!(segment.to_graph_index().all(), &want[..]);
    }

    /// The segment answers every pattern shape exactly like a
    /// from-scratch `GraphIndex` over the same triples — the scan-seam
    /// parity that lets the engine run straight off the file.
    #[test]
    fn lookup_parity_with_graph_index() {
        let dir = tmp("parity");
        let triples = sample();
        let path = write_segment(&dir, 1, 1, &triples).expect("write");
        let segment = Segment::load(&path).expect("load");
        let reference = GraphIndex::from_triples(triples.iter().copied());

        let terms: Vec<Option<Iri>> = [None]
            .into_iter()
            .chain(["a", "b", "c", "d", "p", "q", "zz"].map(|t| Some(Iri::new(t))))
            .collect();
        for &s in &terms {
            for &p in &terms {
                for &o in &terms {
                    let mut got = segment.matching(s, p, o);
                    let mut want = reference.matching(s, p, o);
                    got.sort();
                    want.sort();
                    assert_eq!(got, want, "pattern ({s:?}, {p:?}, {o:?})");
                    assert_eq!(
                        segment.cardinality(s, p, o),
                        want.len(),
                        "cardinality ({s:?}, {p:?}, {o:?})"
                    );
                }
            }
        }
        for t in &triples {
            assert!(segment.contains(t));
        }
        assert!(!segment.contains(&triple("zz", "p", "b")));
    }

    #[test]
    fn duplicate_and_unsorted_input_is_canonicalized() {
        let dir = tmp("dedup");
        let mut triples = sample();
        triples.extend(sample()); // duplicates
        triples.reverse();
        let path = write_segment(&dir, 1, 1, &triples).expect("write");
        let segment = Segment::load(&path).expect("load");
        assert_eq!(segment.len(), sample().len());
        assert_eq!(
            segment.to_graph(),
            graph_from(&[
                ("a", "p", "b"),
                ("a", "p", "c"),
                ("a", "q", "b"),
                ("d", "p", "b"),
                ("d", "q", "d"),
                ("b", "p", "a"),
            ])
        );
    }

    #[test]
    fn empty_segment_roundtrips() {
        let dir = tmp("empty");
        let path = write_segment(&dir, 1, 0, &[]).expect("write");
        let segment = Segment::load(&path).expect("load");
        assert_eq!(segment.len(), 0);
        assert_eq!(segment.term_count(), 0);
        assert!(segment.matching(None, None, None).is_empty());
    }

    /// Any single flipped bit anywhere in the file is caught by a CRC
    /// (or the magic/bounds checks) — corruption never loads quietly.
    #[test]
    fn every_byte_flip_is_detected() {
        let dir = tmp("flip");
        let path = write_segment(&dir, 1, 5, &sample()).expect("write");
        let clean = std::fs::read(&path).expect("read");
        // Flipping the reserved pad (bytes 56..64) is legitimately
        // undetected — nothing reads it; every other byte must trip a
        // check.
        for at in (0..clean.len()).filter(|&b| !(56..64).contains(&b)) {
            let mut damaged = clean.clone();
            damaged[at] ^= 0x01;
            std::fs::write(&path, &damaged).expect("write damaged");
            assert!(
                Segment::load(&path).is_err(),
                "flip at byte {at} loaded anyway"
            );
        }
        std::fs::write(&path, &clean).expect("restore");
        assert!(Segment::load(&path).is_ok());
    }

    #[test]
    fn newest_valid_skips_corrupt_generations() {
        let dir = tmp("newest");
        write_segment(&dir, 1, 10, &sample()).expect("write gen 1");
        let newer = write_segment(&dir, 2, 20, &sample()[..2]).expect("write gen 2");
        // Corrupt the newer one.
        let mut bytes = std::fs::read(&newer).expect("read");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&newer, &bytes).expect("damage");

        let (segment, rejected) = load_newest_valid(&dir).expect("scan");
        let segment = segment.expect("gen 1 survives");
        assert_eq!(segment.generation(), 1);
        assert_eq!(segment.epoch(), 10);
        assert_eq!(rejected.len(), 1);
        assert!(rejected[0].1.contains("CRC"), "{:?}", rejected[0]);
    }

    #[test]
    fn prune_keeps_newest_and_clears_tmp_stragglers() {
        let dir = tmp("prune");
        for generation in 1..=4 {
            write_segment(&dir, generation, generation, &sample()).expect("write");
        }
        std::fs::write(dir.join("segment-0000000009.seg.tmp"), b"straggler").expect("tmp");
        let removed = prune_segments(&dir, 2).expect("prune");
        assert_eq!(removed.len(), 3); // generations 1, 2 + the .tmp
        let left = segment_generations(&dir).expect("scan");
        assert_eq!(left.iter().map(|(g, _)| *g).collect::<Vec<_>>(), vec![3, 4]);
    }
}
