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
//! sorted array — the layout of the in-memory `owql_rdf::IdRuns`,
//! where every triple-pattern shape is a binary-searched contiguous
//! range of exactly one run. A loaded [`Segment`] keeps the term table
//! and the SPO run; a reopening store takes both
//! ([`Segment::into_parts`]), seeds its dictionary from the table
//! (`id = rank + 1`) and rebuilds its base runs from the SPO run, so
//! nothing is re-interned or copied. The POS and OSP runs are checked
//! on load through the body CRC alone.
//!
//! Segments are written to a temp file, fsync'd, then renamed into
//! place (and the directory fsync'd): a crash mid-write leaves a
//! `.tmp` straggler that recovery ignores, never a half-valid segment.

use crate::crc::crc32;
use crate::wal::sync_parent_dir;
use owql_rdf::{Iri, TermDict, TermId, Triple};
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

/// A loaded, validated segment: the graph snapshot at its epoch, as
/// its sorted term table and its SPO run of term ranks.
#[derive(Clone, Debug)]
pub struct Segment {
    generation: u64,
    epoch: u64,
    terms: Vec<Iri>,
    spo: Vec<[u32; 3]>,
}

impl Segment {
    /// Loads and fully validates the segment at `path` (magic,
    /// version, both CRCs, structural bounds). The header CRC is not a
    /// MAC, so every header count is bounds-checked against the body
    /// before it sizes an allocation or a split.
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
        if terms_bytes.checked_add(runs_bytes) != Some(body.len()) {
            return Err(corrupt(format!(
                "body is {} bytes, expected {} (dictionary) + {} (runs)",
                body.len(),
                terms_bytes,
                runs_bytes
            )));
        }
        // A term's id is its rank + 1, so the table must leave room in
        // the id space for every rank: checked before any id is formed.
        if TermDict::check_capacity(0, term_count).is_err() {
            return Err(corrupt(format!(
                "{term_count} terms overflow the {}-term id space",
                TermId::MAX
            )));
        }
        // Every term carries a 4-byte length prefix.
        if term_count > terms_bytes / 4 {
            return Err(corrupt(format!(
                "{term_count} terms cannot fit in a {terms_bytes}-byte dictionary"
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
        // Rank ids are only meaningful over a sorted, distinct table.
        if terms.windows(2).any(|w| w[0] >= w[1]) {
            return Err(corrupt("dictionary is not sorted and distinct"));
        }

        // The SPO run comes first; POS and OSP follow it.
        let mut spo = Vec::with_capacity(triple_count);
        for (row, bytes) in runs[..triple_count * 12].chunks_exact(12).enumerate() {
            let mut ids = [0u32; 3];
            for (id, b) in ids.iter_mut().zip(bytes.chunks_exact(4)) {
                *id = u32::from_le_bytes(b.try_into().expect("4"));
                if *id as usize >= term_count {
                    return Err(corrupt(format!(
                        "row {row} references term {id} of {term_count}"
                    )));
                }
            }
            spo.push(ids);
        }
        Ok(Segment {
            generation: parse_generation(path).unwrap_or(0),
            epoch,
            terms,
            spo,
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

    /// Hands over, without copying either, the term dictionary —
    /// lexicographically sorted, id = rank — and the SPO run: `[s, p,
    /// o]` rows of term ranks (indexes into the dictionary), sorted and
    /// distinct. A recovering store seeds its in-memory `TermDict` from
    /// the table (`TermDict::from_sorted_terms` assigns `rank + 1`,
    /// reserving `0` for "unbound"), so the SPO run becomes its base
    /// rows by adding one to every rank in place, with zero dictionary
    /// misses: every rank is below [`Segment::term_count`], which is at
    /// most `TermId::MAX`.
    pub fn into_parts(self) -> (Vec<Iri>, Vec<[u32; 3]>) {
        (self.terms, self.spo)
    }

    /// Number of triples in the segment.
    pub fn len(&self) -> usize {
        self.spo.len()
    }

    /// `true` iff the segment holds no triple.
    pub fn is_empty(&self) -> bool {
        self.spo.is_empty()
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
    use owql_rdf::Graph;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("owql-seg-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    /// The segment's triples in SPO order, decoded through its term
    /// table.
    fn decoded(segment: Segment) -> Vec<Triple> {
        let (terms, spo) = segment.into_parts();
        let term = |rank: u32| terms[rank as usize];
        spo.iter()
            .map(|&[s, p, o]| Triple {
                s: term(s),
                p: term(p),
                o: term(o),
            })
            .collect()
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
        assert_eq!(decoded(segment), want);
    }

    /// The loaded SPO run is the rank encoding of the sorted, distinct
    /// input: id order is term order, so a store seeding its dictionary
    /// from the term table (id = rank + 1) rebuilds its base runs from
    /// this run without re-interning.
    #[test]
    fn spo_run_is_the_rank_encoding() {
        let dir = tmp("ranks");
        let path = write_segment(&dir, 1, 1, &sample()).expect("write");
        let segment = Segment::load(&path).expect("load");
        let (terms, spo) = segment.into_parts();
        assert!(terms.windows(2).all(|w| w[0] < w[1]));
        assert!(spo.windows(2).all(|w| w[0] < w[1]));
        let rank = |t: Iri| terms.binary_search(&t).expect("in the table") as u32;
        let mut want: Vec<[u32; 3]> = sample()
            .iter()
            .map(|t| [rank(t.s), rank(t.p), rank(t.o)])
            .collect();
        want.sort_unstable();
        assert_eq!(spo, want);
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
            decoded(segment).into_iter().collect::<Graph>(),
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
        assert!(segment.is_empty());
    }

    /// A crafted file whose CRCs were recomputed (a CRC is no MAC) is
    /// rejected as corrupt, never a crash: a term count past the id
    /// space or too large to allocate, counts whose byte total wraps
    /// around to the body length, and a term table out of order.
    #[test]
    fn crafted_header_counts_are_rejected() {
        let dir = tmp("crafted");
        let path = write_segment(&dir, 1, 5, &sample()).expect("write");
        let clean = std::fs::read(&path).expect("read");
        let body_len = (clean.len() - HEADER_LEN) as u64;
        let forge = |fields: &[(usize, u64)]| {
            let mut bytes = clean.clone();
            for &(at, value) in fields {
                bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
            }
            let crc = crc32(&bytes[0..52]);
            bytes[52..56].copy_from_slice(&crc.to_le_bytes());
            std::fs::write(&path, &bytes).expect("write forged");
            Segment::load(&path)
        };
        // One term past the id space is refused before any `rank + 1`
        // is formed; a full id space passes that check and fails the
        // next one, since this body cannot hold that many terms.
        let past = forge(&[(32, u64::from(TermId::MAX) + 1)]).expect_err("past the id space");
        assert!(past.to_string().contains("id space"), "{past}");
        let full = forge(&[(32, u64::from(TermId::MAX))]).expect_err("too many terms");
        assert!(full.to_string().contains("cannot fit"), "{full}");
        let huge_terms = forge(&[(32, 1 << 58)]);
        assert!(
            matches!(huge_terms, Err(SegmentError::Corrupt(_))),
            "{huge_terms:?}"
        );
        // 36 × triple_count exceeds the body, and terms_bytes is the
        // wrapped difference, so the unchecked sum equals the body length.
        let triple_count = body_len / 36 + 1;
        let terms_bytes = body_len.wrapping_sub(36 * triple_count);
        let wrapped = forge(&[(24, triple_count), (40, terms_bytes)]);
        assert!(
            matches!(wrapped, Err(SegmentError::Corrupt(_))),
            "{wrapped:?}"
        );
        // A term table out of order, under recomputed CRCs: ranks would
        // no longer be ids in string order.
        let mut unsorted = clean.clone();
        let first = HEADER_LEN + 4; // the text of the one-byte term "a"
        unsorted.swap(first, first + 5); // … swapped with "b"
        let body_crc = crc32(&unsorted[HEADER_LEN..]);
        unsorted[48..52].copy_from_slice(&body_crc.to_le_bytes());
        let header_crc = crc32(&unsorted[0..52]);
        unsorted[52..56].copy_from_slice(&header_crc.to_le_bytes());
        std::fs::write(&path, &unsorted).expect("write forged");
        let err = Segment::load(&path).expect_err("unsorted dictionary");
        assert!(err.to_string().contains("sorted"), "{err}");

        std::fs::write(&path, &clean).expect("restore");
        assert!(Segment::load(&path).is_ok());
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
