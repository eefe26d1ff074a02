//! A persistent, trigram-indexed, *mutable* corpus store.
//!
//! The paper's spanners map one document to a relation; the serving layers
//! built on top apply one query to a whole corpus. Until this crate, every
//! query *touched* every document — the scan fast path made misses cheap,
//! but still linear in corpus size. [`Store`] makes document touch
//! sub-linear for selective queries:
//!
//! * **Segment file**: the corpus is persisted as a length-prefixed
//!   table of its documents and loaded back into an in-memory document
//!   table. Nothing derived from the documents is on disk.
//! * **Trigram posting index**: every document's byte trigrams are
//!   inverted into sorted posting lists — by one function, whether the
//!   documents came from [`Store::build`], [`Store::load`] or a
//!   compaction, so the index is always exactly the documents' index.
//! * **Literal pruning**: at query time, the *required literals* a
//!   compiled plan extracts from its automata (see
//!   `spanner_vset::CompiledVsa::required_literals` — byte strings every
//!   accepted document must contain) are broken into trigrams and their
//!   posting lists intersected into a candidate document set. Every
//!   document outside it is provably result-free and is skipped without
//!   reading a byte ([`CorpusEngine::scan_candidates`]).
//!
//! Pruning is *sound, never required*: a query whose plan yields no
//! literal of at least [`TRIGRAM_LEN`] bytes falls back to a full scan
//! ([`Store::candidates`] returns `None`), and results are bit-identical
//! to the unindexed path in corpus order either way (pinned by the
//! `store_oracle` differential suite).
//!
//! **Mutations.** The store is a *living* corpus: [`Store::append`],
//! [`Store::update`] and [`Store::delete`] maintain the index
//! incrementally through a classic LSM shape — a read-only **base**
//! segment (the postings as of the last build/compaction), a small sorted
//! **delta** segment holding the postings of mutated documents, and a
//! **tombstone mask** marking base postings that died. A document's live
//! postings are always entirely in one segment, and the read path
//! ([`Store::candidates`]) merges `base − tombstones` with the delta, so
//! a mutated store answers exactly as a from-scratch rebuild over the
//! same documents, and saves the same bytes, since a segment is its
//! documents (pinned by the `incr_oracle` suite). When the
//! pending delta outgrows the base ([`COMPACT_GRACE`]), the index is
//! compacted in place. Each document also carries a 64-bit FNV-1a content
//! hash ([`fnv1a64`]) and the store a monotone [`Store::generation`]
//! counter — the keys the maintained query views of
//! [`spanner_corpus::QueryView`] invalidate on (see
//! [`Store::query_view_matches`]).
//! Deleting a document replaces it with an empty one (document ids are
//! stable), so "rebuild" always means
//! `Store::build(store.documents().to_vec())` — and a deleted slot answers
//! a query exactly as the empty document does (see [`Store::delete`]).
//!
//! The segment is the one on-disk format: mutations live in memory until
//! the next [`Store::save`].
//!
//! ```
//! use spanner_core::Document;
//! use spanner_store::Store;
//!
//! let docs = vec![Document::new("error: disk full"), Document::new("ok")];
//! let mut store = Store::build(docs).unwrap();
//! // "error" → trigrams {err, rro, ror, or:} → only document 0.
//! assert_eq!(store.candidates(&[b"error".to_vec()]), Some(vec![0]));
//! store.append("another error").unwrap();
//! assert_eq!(store.candidates(&[b"error".to_vec()]), Some(vec![0, 2]));
//! ```

use spanner_core::{Document, FxHashMap, FxHashSet, SpannerResult};
use spanner_corpus::{
    intersect_sorted, CorpusEngine, CorpusMatches, CorpusResult, CorpusStats, QueryView,
};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Magic bytes opening every segment file.
pub const MAGIC: &[u8; 8] = b"SPANSTOR";

/// Segment file format version.
pub const VERSION: u32 = 2;

/// Length of the indexed n-grams. Literals shorter than this cannot be
/// pruned on and force a full scan.
pub const TRIGRAM_LEN: usize = 3;

/// Compaction threshold grace: the index is compacted when the pending
/// work (delta postings + tombstoned base postings) exceeds
/// `max(COMPACT_GRACE, base postings / 2)`. The grace keeps small stores
/// from compacting on every mutation; the ratio keeps amortized mutation
/// cost constant (geometric rebuild schedule).
pub const COMPACT_GRACE: usize = 1024;

/// Errors opening or parsing a segment file, or applying a mutation.
#[derive(Debug)]
pub enum StoreError {
    /// The underlying file operation failed.
    Io(io::Error),
    /// The file is not a segment file, or is corrupt / truncated.
    Format(String),
    /// A mutation was rejected (out-of-bounds document id, id overflow).
    Mutation(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o error: {e}"),
            StoreError::Format(msg) => write!(f, "invalid store file: {msg}"),
            StoreError::Mutation(msg) => write!(f, "invalid mutation: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

/// The 64-bit FNV-1a hash of `bytes` — the store's per-document content
/// hash. Std-only, stable across platforms and versions: view entries
/// compare these.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x100_0000_01b3;
    let mut hash = OFFSET;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// One corpus mutation — the argument of [`Store::apply`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mutation {
    /// Append a new document at the next id.
    Append {
        /// The new document's text.
        text: String,
    },
    /// Replace document `id`'s content.
    Update {
        /// The document to rewrite.
        id: u32,
        /// Its new text.
        text: String,
    },
    /// Tombstone document `id` (its slot becomes an empty document).
    Delete {
        /// The document to delete.
        id: u32,
    },
}

/// A trigram-indexed corpus: built in memory with [`Store::build`],
/// persisted with [`Store::save`], mapped back with [`Store::load`], and
/// mutated in place with [`Store::append`] / [`Store::update`] /
/// [`Store::delete`]. The document table is shared by every query against
/// the store.
pub struct Store {
    docs: Vec<Document>,
    /// Total length of `docs` in bytes, kept in step by every mutation.
    bytes: usize,
    /// Per-document FNV-1a content hashes, indexed like `docs`.
    hashes: Vec<u64>,
    /// Base segment: the posting lists of documents `0..base_len` as of
    /// the last build/compaction.
    base: Base,
    /// Documents covered by the base segment.
    base_len: usize,
    /// Delta segment: sorted posting lists of documents mutated since the
    /// last compaction. A document's live postings are entirely in the
    /// base xor entirely in the delta.
    delta: FxHashMap<u32, Vec<u32>>,
    /// Total posting entries currently in the delta.
    delta_postings: usize,
    /// Tombstone mask over `0..base_len`: `true` = this document's base
    /// postings are dead (it was updated or deleted).
    stale: Vec<bool>,
    /// Number of `true` entries in `stale`, weighted per document (the
    /// pending-work trigger counts documents, not their posting entries —
    /// cheap to maintain, same asymptotics).
    stale_count: usize,
    /// Documents tombstoned by [`Store::delete`] (their slot is an empty
    /// document). Advisory — not persisted in the segment file.
    deleted: FxHashSet<u32>,
    /// Monotone mutation counter: bumped once per effective mutation.
    generation: u64,
    /// Number of threshold-triggered or explicit compactions.
    compactions: u64,
}

/// What one indexed query did: the whole-corpus answer plus how the
/// candidate set was obtained.
#[derive(Debug)]
pub struct StoreQueryOutcome<R = CorpusMatches> {
    /// The answer for the *whole* corpus (non-candidates are empty), plus
    /// aggregate stats — non-candidates count as `docs_skipped`.
    pub output: R,
    /// Number of candidate documents the index produced; `None` when the
    /// plan had no usable literal and the store fell back to a full scan.
    pub candidates: Option<usize>,
}

/// What one view-backed query did: the whole-corpus answer plus how much
/// came from the maintained view and how the delta was pruned.
#[derive(Debug)]
pub struct ViewQueryOutcome<R = CorpusMatches> {
    /// The answer for the whole corpus — bit-identical to
    /// [`Store::query_matches`] and the unindexed paths.
    pub output: R,
    /// Documents not served from the view (the delta the query touched).
    pub delta_docs: usize,
    /// Documents whose retained relation was reused.
    pub view_hits: usize,
    /// Retained entries dropped because the document's content changed.
    pub invalidated: usize,
    /// Size of the trigram candidate set (`None` = full-scan fallback),
    /// as in [`StoreQueryOutcome::candidates`].
    pub candidates: Option<usize>,
    /// The store generation the view now reflects.
    pub generation: u64,
}

/// Candidate-set selectivity: candidates / corpus size (`1.0` on the
/// full-scan fallback or an empty corpus).
fn selectivity(candidates: Option<usize>, documents: usize) -> f64 {
    match candidates {
        Some(c) if documents > 0 => c as f64 / documents as f64,
        _ => 1.0,
    }
}

impl<R: AsRef<CorpusStats>> StoreQueryOutcome<R> {
    /// Candidate-set selectivity: candidates / corpus size (`1.0` on the
    /// full-scan fallback or an empty corpus).
    pub fn selectivity(&self) -> f64 {
        selectivity(self.candidates, self.output.as_ref().documents)
    }
}

impl<R: AsRef<CorpusStats>> ViewQueryOutcome<R> {
    /// Candidate-set selectivity, as [`StoreQueryOutcome::selectivity`].
    pub fn selectivity(&self) -> f64 {
        selectivity(self.candidates, self.output.as_ref().documents)
    }
}

/// `bytes`' trigrams in order, repeats included. A trigram is keyed as its
/// three bytes read as a big-endian `u32`: one word to hash, and ordered
/// as the bytes are.
fn trigrams(bytes: &[u8]) -> impl Iterator<Item = u32> + '_ {
    bytes
        .windows(TRIGRAM_LEN)
        .map(|w| u32::from_be_bytes([0, w[0], w[1], w[2]]))
}

/// Documents one block of the base segment covers: a block stores its
/// documents' ids as `u16` offsets from its first id.
const BLOCK: usize = 1 << 16;

/// One block of the base segment: the posting lists of up to [`BLOCK`]
/// consecutive documents laid end to end in one id array. `keys` is sorted
/// and `ids[starts[i]..starts[i + 1]]` is `keys[i]`'s sorted,
/// duplicate-free list of offsets from the block's first id, so a lookup
/// is a binary search and a slice: 2 bytes a posting and 12 bytes a
/// trigram. The offsets into `ids` are `usize`: a document has at most one
/// posting a byte, so they cannot wrap.
#[derive(Default)]
struct Block {
    keys: Vec<u32>,
    starts: Vec<usize>,
    ids: Vec<u16>,
}

impl Block {
    /// `key`'s posting list (empty when no document has the trigram).
    fn get(&self, key: u32) -> &[u16] {
        match self.keys.binary_search(&key) {
            Ok(i) => &self.ids[self.starts[i]..self.starts[i + 1]],
            Err(_) => &[],
        }
    }

    /// Heap bytes of the three arrays.
    fn bytes(&self) -> usize {
        self.keys.capacity() * std::mem::size_of::<u32>()
            + self.starts.capacity() * std::mem::size_of::<usize>()
            + self.ids.capacity() * std::mem::size_of::<u16>()
    }
}

/// The base segment: block `b` indexes documents `b << 16` up to
/// `(b + 1) << 16`, so document `b << 16 | offset` is `offset` in block
/// `b`. A trigram's list is its list in each block in turn, and the segment
/// is three allocations a block whatever the number of trigrams.
#[derive(Default)]
struct Base {
    blocks: Vec<Block>,
    /// Posting entries over every block.
    postings: usize,
    /// Distinct trigrams over every block.
    trigrams: usize,
}

impl Base {
    /// `key`'s posting list in each block, in block order: the block's
    /// first document id and the list's offsets from it.
    fn lists(&self, key: u32) -> impl Iterator<Item = (u32, &[u16])> + '_ {
        // The store holds at most `u32::MAX` documents, so `b << 16` fits.
        self.blocks
            .iter()
            .enumerate()
            .map(move |(b, block)| ((b << 16) as u32, block.get(key)))
    }

    /// Whether some document has the trigram `key`.
    fn contains(&self, key: u32) -> bool {
        self.blocks
            .iter()
            .any(|b| b.keys.binary_search(&key).is_ok())
    }

    /// Heap bytes of every block's arrays and of the block list.
    fn bytes(&self) -> usize {
        self.blocks.capacity() * std::mem::size_of::<Block>()
            + self.blocks.iter().map(Block::bytes).sum::<usize>()
    }
}

/// The byte values a corpus uses, numbered densely in byte order: a trigram
/// of the corpus is then `3 * bits` bits wide, and the dense keys sort as
/// the byte keys do.
struct Alphabet {
    /// `code[b]` is byte `b`'s dense code (0 for a byte the corpus lacks).
    code: [u32; 256],
    /// `byte[c]` is the byte whose code is `c`.
    byte: [u8; 256],
    /// Bits of the largest code, 1..=8.
    bits: u32,
}

impl Alphabet {
    /// The alphabet of every byte of `docs`.
    fn of(docs: &[Document]) -> Alphabet {
        let mut seen = [false; 256];
        for doc in docs {
            for &b in doc.bytes() {
                seen[b as usize] = true;
            }
        }
        let (mut code, mut byte, mut used) = ([0; 256], [0; 256], 0u32);
        for b in (0..=255u8).filter(|&b| seen[b as usize]) {
            code[b as usize] = used;
            byte[used as usize] = b;
            used += 1;
        }
        let bits = (u32::BITS - used.saturating_sub(1).leading_zeros()).max(1);
        Alphabet { code, byte, bits }
    }

    /// One past the largest dense key: `2^(3 * bits)`, at most `2^24`.
    fn key_space(&self) -> usize {
        1 << (3 * self.bits)
    }

    /// `bytes`' trigrams in order as dense keys, each rolled from the last
    /// by a shift, an or and a mask.
    fn windows<'a>(&'a self, bytes: &'a [u8]) -> impl Iterator<Item = usize> + 'a {
        let (head, rest) = bytes.split_at(bytes.len().min(TRIGRAM_LEN - 1));
        let mut key = head
            .iter()
            .fold(0, |key, &b| key << self.bits | self.code[b as usize]);
        let mask = self.key_space() as u32 - 1;
        rest.iter().map(move |&b| {
            key = (key << self.bits | self.code[b as usize]) & mask;
            key as usize
        })
    }

    /// The byte key (see [`trigrams`]) of a dense key.
    fn decode(&self, key: usize) -> u32 {
        let mask = (1 << self.bits) - 1;
        let byte = |shift: u32| self.byte[key >> shift & mask] as u32;
        byte(2 * self.bits) << 16 | byte(self.bits) << 8 | byte(0)
    }
}

/// Inverts every document's trigrams into a [`Base`], one [`Block`] per
/// [`BLOCK`] documents. The one builder of a base segment: [`Store::build`]
/// (and so [`Store::load`]) and [`Store::compact`] all call it, the
/// compaction with the segment it replaces as `old`, whose arrays the new
/// blocks are written into (see [`index_block`]). The caller keeps
/// `docs.len()` within `u32` ids.
fn index_documents(docs: &[Document], old: Base) -> Base {
    let mut spare = old.blocks.into_iter();
    let blocks: Vec<Block> = docs
        .chunks(BLOCK)
        .map(|docs| index_block(docs, spare.next().unwrap_or_default()))
        .collect();
    let trigrams = match blocks.as_slice() {
        [] => 0,
        [block] => block.keys.len(),
        _ => {
            let mut keys: Vec<u32> = blocks.iter().flat_map(|b| b.keys.iter().copied()).collect();
            keys.sort_unstable();
            keys.dedup();
            keys.len()
        }
    };
    Base {
        postings: blocks.iter().map(|b| b.ids.len()).sum(),
        trigrams,
        blocks,
    }
}

/// Inverts the trigrams of at most [`BLOCK`] documents into a [`Block`].
/// Nothing is hashed: each trigram's three bytes are packed into a dense
/// key over the documents' [`Alphabet`], a bitset over the dense keys marks
/// the trigrams that occur, and a running count of set bits per word ranks
/// each one to its slot; the set bits read in order are the sorted keys.
/// Then two passes: the first counts each trigram's documents, the second
/// walks the documents backwards and writes each id just below its
/// trigram's end, so the ends become the starts. The arrays are `old`'s,
/// refilled ([`refill`]): a fresh build allocates each once at its final
/// size, and a compaction reuses them, so rebuilding a base that kept its
/// size allocates no array of the index. Besides them the build holds 8 bytes
/// a trigram and the bitset with its ranks, which grow with the alphabet,
/// not the corpus: 6 KB for `store-adhoc`'s 27 byte values, at most 2^24
/// bits and 2^18 `u32` (3 MB) past 128, where zeroing and walking them
/// costs about 1 ms a build. On `store-adhoc`'s 30 000 lines (one block)
/// it builds in about 70–80 ms (`spanner-bench`'s `incr/build/*` rows).
fn index_block(docs: &[Document], old: Block) -> Block {
    let Block {
        mut keys,
        mut starts,
        mut ids,
    } = old;
    assert!(
        docs.len() <= BLOCK,
        "a block holds at most {BLOCK} documents"
    );
    let alphabet = Alphabet::of(docs);
    let mut bits = vec![0u64; alphabet.key_space().div_ceil(64)];
    for doc in docs {
        for key in alphabet.windows(doc.bytes()) {
            bits[key / 64] |= 1 << (key % 64);
        }
    }
    // Only a set word's rank is ever read, so zero words are skipped.
    let (mut rank, mut trigrams) = (vec![0u32; bits.len()], 0);
    for (r, &word) in rank.iter_mut().zip(&bits) {
        if word != 0 {
            *r = trigrams as u32;
            trigrams += word.count_ones() as usize;
        }
    }
    // A key's slot: the trigrams below its word, plus those below it in it.
    let slot_of = |key: usize| {
        let below = bits[key / 64] & ((1 << (key % 64)) - 1);
        rank[key / 64] as usize + below.count_ones() as usize
    };
    refill(&mut keys, trigrams);
    for (w, &word) in bits.iter().enumerate() {
        let mut word = word;
        while word != 0 {
            keys.push(alphabet.decode(w * 64 + word.trailing_zeros() as usize));
            word &= word - 1;
        }
    }
    /// A trigram's document count, and the last document counted, as
    /// windows repeat a trigram.
    #[derive(Clone, Copy)]
    struct Slot {
        count: u32,
        last: u32,
    }
    // `u32::MAX` is no document's id: the caller keeps ids below it.
    const NONE: u32 = u32::MAX;
    let mut slots = vec![
        Slot {
            count: 0,
            last: NONE
        };
        trigrams
    ];
    for (id, doc) in docs.iter().enumerate() {
        let id = id as u32;
        for key in alphabet.windows(doc.bytes()) {
            let slot = &mut slots[slot_of(key)];
            if slot.last != id {
                slot.last = id;
                slot.count += 1;
            }
        }
    }
    // Each trigram's end offset, which the fill below lowers to its start.
    refill(&mut starts, trigrams + 1);
    let mut total = 0;
    for slot in &mut slots {
        total += slot.count as usize;
        starts.push(total);
        slot.last = NONE;
    }
    starts.push(total);
    refill(&mut ids, total);
    ids.resize(total, 0);
    for (id, doc) in docs.iter().enumerate().rev() {
        let id = id as u32;
        for key in alphabet.windows(doc.bytes()) {
            let i = slot_of(key);
            if slots[i].last != id {
                slots[i].last = id;
                starts[i] -= 1;
                // Below `BLOCK`, asserted above.
                ids[starts[i]] = id as u16;
            }
        }
    }
    Block { keys, starts, ids }
}

/// Empties `array` to hold `len` elements. An array that already holds
/// them keeps its allocation. Otherwise it is freed before the new one is
/// made, so the two are never held at once: a fresh array is allocated at
/// exactly `len`, and one that grows takes an eighth more, so the next
/// compaction of a store that grew a little fits it again. Reuse keeps a
/// compaction from freeing the old index into a hole the new one may not
/// fit: a process's peak memory would then step by the index's size with
/// the order of the store's mutations.
fn refill<T>(array: &mut Vec<T>, len: usize) {
    array.clear();
    if array.capacity() < len {
        let spare = if array.capacity() == 0 { 0 } else { len / 8 };
        *array = Vec::new();
        array.reserve_exact(len + spare);
    }
}

impl Store {
    /// Builds a store over `docs`, inverting every document's trigrams.
    /// Fails only when the corpus exceeds `u32` document ids.
    pub fn build(docs: Vec<Document>) -> Result<Store, StoreError> {
        if docs.len() > u32::MAX as usize {
            return Err(StoreError::Format(format!(
                "corpus of {} documents exceeds u32 document ids",
                docs.len()
            )));
        }
        let base = index_documents(&docs, Base::default());
        let hashes = docs.iter().map(|d| fnv1a64(d.bytes())).collect();
        let base_len = docs.len();
        Ok(Store {
            bytes: docs.iter().map(Document::len).sum(),
            docs,
            hashes,
            base,
            base_len,
            delta: FxHashMap::default(),
            delta_postings: 0,
            stale: vec![false; base_len],
            stale_count: 0,
            deleted: FxHashSet::default(),
            generation: 0,
            compactions: 0,
        })
    }

    /// The resident document table, in ingest order. Deleted documents
    /// keep their slot as an empty document (ids are stable).
    pub fn documents(&self) -> &[Document] {
        &self.docs
    }

    /// Per-document FNV-1a content hashes, indexed like
    /// [`Store::documents`].
    pub fn doc_hashes(&self) -> &[u64] {
        &self.hashes
    }

    /// Number of documents in the store (including deleted slots).
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Whether the store holds no documents.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Number of distinct trigrams in the index. After mutations this is
    /// an upper bound (tombstoned trigrams are counted until the next
    /// compaction); exact right after build/load/compaction.
    pub fn trigram_count(&self) -> usize {
        self.base.trigrams
            + self
                .delta
                .keys()
                .filter(|&&k| !self.base.contains(k))
                .count()
    }

    /// Heap bytes of the trigram index: the base segment's blocks (2 bytes
    /// a posting and 12 a trigram in each), and the delta segment's table
    /// and posting lists.
    pub fn index_bytes(&self) -> usize {
        let entry = std::mem::size_of::<(u32, Vec<u32>)>();
        let lists: usize = self.delta.values().map(Vec::capacity).sum();
        self.base.bytes() + self.delta.capacity() * entry + lists * std::mem::size_of::<u32>()
    }

    /// Total corpus size in bytes.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Monotone mutation counter: `0` for a fresh build/load, bumped once
    /// per effective `append`/`update`/`delete`.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of threshold-triggered or explicit index compactions.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Posting entries in the index: the base segment's (tombstoned ones
    /// included until the next compaction) and the delta's.
    pub fn postings(&self) -> usize {
        self.base.postings + self.delta_postings
    }

    /// Posting entries currently in the delta segment.
    pub fn delta_postings(&self) -> usize {
        self.delta_postings
    }

    /// Documents tombstoned by [`Store::delete`] since build/load.
    pub fn deleted_count(&self) -> usize {
        self.deleted.len()
    }

    /// Whether `id` was deleted since build/load.
    pub fn is_deleted(&self, id: u32) -> bool {
        self.deleted.contains(&id)
    }

    /// Appends a document; returns its id. Bumps the generation.
    pub fn append(&mut self, text: &str) -> Result<u32, StoreError> {
        if self.docs.len() >= u32::MAX as usize {
            return Err(StoreError::Mutation(
                "corpus already holds u32::MAX documents".into(),
            ));
        }
        let id = self.docs.len() as u32;
        let doc = Document::new(text);
        self.add_delta_postings(id, doc.bytes());
        self.hashes.push(fnv1a64(doc.bytes()));
        self.bytes += doc.len();
        self.docs.push(doc);
        self.generation += 1;
        self.maybe_compact();
        Ok(id)
    }

    /// Replaces document `id`'s content. Bumps the generation; un-deletes
    /// a previously deleted slot.
    pub fn update(&mut self, id: u32, text: &str) -> Result<(), StoreError> {
        let idx = id as usize;
        if idx >= self.docs.len() {
            return Err(StoreError::Mutation(format!(
                "document id {id} out of bounds (corpus of {})",
                self.docs.len()
            )));
        }
        self.retire_postings(id);
        let doc = Document::new(text);
        self.add_delta_postings(id, doc.bytes());
        self.hashes[idx] = fnv1a64(doc.bytes());
        self.bytes = self.bytes - self.docs[idx].len() + doc.len();
        self.docs[idx] = doc;
        self.deleted.remove(&id);
        self.generation += 1;
        self.maybe_compact();
        Ok(())
    }

    /// Deletes document `id`: the slot becomes the empty document, so ids
    /// stay stable. To a query the slot *is* the empty document, exactly as
    /// after `update(id, "")`: most patterns answer nothing for it, and a
    /// pattern that accepts the empty string (`{x:a*}`) still answers one
    /// mapping of empty spans on that line. The tombstone is not filtered
    /// out because it is not in the segment format — a filter would change
    /// answers across a `save`/`load`; [`Store::is_deleted`] and
    /// [`Store::deleted_count`] only count deletions since build/load.
    /// Idempotent — deleting a deleted document is a no-op that does *not*
    /// bump the generation.
    pub fn delete(&mut self, id: u32) -> Result<(), StoreError> {
        let idx = id as usize;
        if idx >= self.docs.len() {
            return Err(StoreError::Mutation(format!(
                "document id {id} out of bounds (corpus of {})",
                self.docs.len()
            )));
        }
        if self.deleted.contains(&id) {
            return Ok(());
        }
        self.retire_postings(id);
        self.bytes -= self.docs[idx].len();
        self.docs[idx] = Document::new("");
        self.hashes[idx] = fnv1a64(b"");
        self.deleted.insert(id);
        self.generation += 1;
        self.maybe_compact();
        Ok(())
    }

    /// Applies one [`Mutation`]; returns the affected document id.
    pub fn apply(&mut self, mutation: &Mutation) -> Result<u32, StoreError> {
        match mutation {
            Mutation::Append { text } => self.append(text),
            Mutation::Update { id, text } => {
                self.update(*id, text)?;
                Ok(*id)
            }
            Mutation::Delete { id } => {
                self.delete(*id)?;
                Ok(*id)
            }
        }
    }

    /// Kills document `id`'s live postings ahead of a rewrite: a tombstone
    /// on the base segment, or a purge from the delta — whichever segment
    /// holds them (exactly one does).
    fn retire_postings(&mut self, id: u32) {
        let idx = id as usize;
        if idx < self.base_len && !self.stale[idx] {
            self.stale[idx] = true;
            self.stale_count += 1;
            return;
        }
        // The document's postings (if any) live in the delta.
        let keys: Vec<u32> = trigrams(self.docs[idx].bytes()).collect();
        for key in keys {
            if let Some(list) = self.delta.get_mut(&key) {
                if let Ok(pos) = list.binary_search(&id) {
                    list.remove(pos);
                    self.delta_postings -= 1;
                    if list.is_empty() {
                        self.delta.remove(&key);
                    }
                }
            }
        }
    }

    /// Inserts `bytes`' trigrams into the delta segment for `id` (sorted,
    /// duplicate-free).
    fn add_delta_postings(&mut self, id: u32, bytes: &[u8]) {
        for key in trigrams(bytes) {
            let list = self.delta.entry(key).or_default();
            if let Err(pos) = list.binary_search(&id) {
                list.insert(pos, id);
                self.delta_postings += 1;
            }
        }
    }

    /// Compacts when the pending work outgrows the base (see
    /// [`COMPACT_GRACE`]).
    fn maybe_compact(&mut self) {
        if self.delta_postings + self.stale_count > COMPACT_GRACE.max(self.base.postings / 2) {
            self.compact();
        }
    }

    /// Rebuilds the base segment from the current documents, clearing the
    /// delta and the tombstones. Normally threshold-triggered; public so
    /// callers can force a fully compacted index (e.g. ahead of a
    /// read-heavy stretch: candidates then merge no delta).
    pub fn compact(&mut self) {
        // The new base is built in the old one's arrays, so the peak is
        // one base, not two; under `&mut self` no reader sees the gap.
        let old = std::mem::take(&mut self.base);
        self.delta.clear();
        self.delta_postings = 0;
        self.base = index_documents(&self.docs, old);
        self.base_len = self.docs.len();
        self.stale = vec![false; self.base_len];
        self.stale_count = 0;
        self.compactions += 1;
    }

    /// The live posting list for `key`: base entries that are not
    /// tombstoned, merged with the delta. Sorted and duplicate-free.
    fn effective(&self, key: u32) -> Vec<u32> {
        let delta = self.delta.get(&key).map_or(&[][..], Vec::as_slice);
        let base: usize = self.base.lists(key).map(|(_, list)| list.len()).sum();
        let mut out = Vec::with_capacity(base + delta.len());
        let mut j = 0;
        for (first, list) in self.base.lists(key) {
            for &offset in list {
                let b = first | offset as u32;
                while j < delta.len() && delta[j] < b {
                    out.push(delta[j]);
                    j += 1;
                }
                if j < delta.len() && delta[j] == b {
                    // Same id in both: the base entry is tombstoned (a
                    // document's live postings are in exactly one segment).
                    out.push(b);
                    j += 1;
                } else if !self.stale[b as usize] {
                    out.push(b);
                }
            }
        }
        out.extend_from_slice(&delta[j..]);
        out
    }

    /// The candidate document set for a query requiring `literals`:
    /// the intersection of the posting lists of every trigram of every
    /// literal of at least [`TRIGRAM_LEN`] bytes — sorted, duplicate-free
    /// document ids. `None` means no literal is usable and the caller must
    /// scan the full corpus (pruning on nothing proves nothing).
    pub fn candidates(&self, literals: &[Vec<u8>]) -> Option<Vec<u32>> {
        let mut result: Option<Vec<u32>> = None;
        for literal in literals {
            for key in trigrams(literal) {
                // A trigram absent from the index matches no document.
                let list = self.effective(key);
                result = Some(match result {
                    None => list,
                    Some(acc) => intersect_sorted(&acc, &list),
                });
                if matches!(result.as_deref(), Some([])) {
                    return Some(Vec::new());
                }
            }
        }
        result
    }

    /// Runs a compiled query against the store: extracts the plan's
    /// required literals, intersects their trigram postings into a
    /// candidate set, and evaluates only the candidates
    /// ([`CorpusEngine::scan_candidates`]); documents the index prunes are
    /// counted as skipped without being read. Falls back to the full corpus
    /// scan when no literal is usable. The answer covers the whole corpus
    /// and is bit-identical to the unindexed path.
    pub fn query_matches(
        &self,
        engine: &CorpusEngine,
        threads: usize,
    ) -> SpannerResult<StoreQueryOutcome> {
        let candidates = self.candidates(engine.plan().required_literals());
        let output = match &candidates {
            Some(candidates) => engine.scan_candidates(&self.docs, candidates, threads)?,
            None => engine.scan(&self.docs, threads)?,
        };
        Ok(StoreQueryOutcome {
            output,
            candidates: candidates.map(|c| c.len()),
        })
    }

    /// Runs a compiled query *incrementally* through a maintained
    /// [`QueryView`]: documents whose content hash matches the view's
    /// snapshot are served from the view; the delta is pruned through the
    /// trigram index and re-evaluated ([`CorpusEngine::scan_delta`]). The
    /// answer covers the whole corpus and is bit-identical to
    /// [`Store::query_matches`] — a repeat query after `k` mutations
    /// evaluates `k` documents; what is left of `O(n)` is one compare of
    /// the hash slices.
    pub fn query_view_matches(
        &self,
        engine: &CorpusEngine,
        view: &mut QueryView,
        threads: usize,
    ) -> SpannerResult<ViewQueryOutcome> {
        let candidates = self.candidates(engine.plan().required_literals());
        let delta = engine.scan_delta(
            &self.docs,
            &self.hashes,
            candidates.as_deref(),
            view,
            threads,
        )?;
        view.set_generation(self.generation);
        Ok(ViewQueryOutcome {
            output: delta.output,
            delta_docs: delta.delta_docs,
            view_hits: delta.view_hits,
            invalidated: delta.invalidated,
            candidates: candidates.map(|c| c.len()),
            generation: self.generation,
        })
    }

    /// [`Store::query_matches`], dense. Kept for the frozen `bench/`
    /// package, which calls it by this name and reads `.output.results`,
    /// and for the differential oracles' `==`; ROADMAP item 1(i) deletes it
    /// with [`CorpusMatches::into_dense`].
    pub fn query(
        &self,
        engine: &CorpusEngine,
        threads: usize,
    ) -> SpannerResult<StoreQueryOutcome<CorpusResult>> {
        let sparse = self.query_matches(engine, threads)?;
        Ok(StoreQueryOutcome {
            output: sparse.output.into_dense(),
            candidates: sparse.candidates,
        })
    }

    /// [`Store::query_view_matches`], dense: kept like [`Store::query`].
    pub fn query_view(
        &self,
        engine: &CorpusEngine,
        view: &mut QueryView,
        threads: usize,
    ) -> SpannerResult<ViewQueryOutcome<CorpusResult>> {
        let sparse = self.query_view_matches(engine, view, threads)?;
        Ok(ViewQueryOutcome {
            output: sparse.output.into_dense(),
            delta_docs: sparse.delta_docs,
            view_hits: sparse.view_hits,
            invalidated: sparse.invalidated,
            candidates: sparse.candidates,
            generation: sparse.generation,
        })
    }

    /// Persists the store as one segment file — its documents, nothing
    /// derived from them:
    ///
    /// ```text
    /// magic "SPANSTOR" · version u32 · doc_count u32
    /// doc_count × ( byte_len u32 · utf-8 bytes )
    /// ```
    ///
    /// All integers little-endian. The trigram index is not written:
    /// [`Store::load`] rebuilds it from the documents, so mutations never
    /// leak into the segment format and a mutated store saves the bytes of
    /// `Store::build(store.documents().to_vec())`.
    ///
    /// The save is atomic: the segment is written to a sibling temporary
    /// file (`<path>.tmp`), synced, and renamed over `path`, so a crash or
    /// an error at any byte leaves the previous segment as it was; on error
    /// the temporary file is removed.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), StoreError> {
        let path = path.as_ref();
        let mut temp = path.as_os_str().to_owned();
        temp.push(".tmp");
        let temp = Path::new(&temp);
        let saved = self.write_segment(temp).and_then(|()| {
            std::fs::rename(temp, path)?;
            // The rename is durable once the directory entry is.
            #[cfg(unix)]
            {
                let dir = path.parent().filter(|dir| !dir.as_os_str().is_empty());
                std::fs::File::open(dir.unwrap_or(Path::new(".")))?.sync_all()?;
            }
            Ok(())
        });
        if saved.is_err() {
            let _ = std::fs::remove_file(temp);
        }
        saved
    }

    /// Writes the segment of [`Store::save`] to `path` and syncs it.
    fn write_segment(&self, path: &Path) -> Result<(), StoreError> {
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        w.write_all(MAGIC)?;
        w.write_all(&VERSION.to_le_bytes())?;
        w.write_all(&(self.docs.len() as u32).to_le_bytes())?;
        for doc in &self.docs {
            w.write_all(&(doc.len() as u32).to_le_bytes())?;
            w.write_all(doc.bytes())?;
        }
        let file = w.into_inner().map_err(|e| e.into_error())?;
        file.sync_all()?;
        Ok(())
    }

    /// Loads a segment file written by [`Store::save`] back into a resident
    /// store: the document table is read once, whole, and validated; the
    /// index is built from it by [`Store::build`], as for a fresh corpus, so
    /// a loaded store cannot disagree with its documents. The generation
    /// restarts at `0` (deletion tombstones are not persisted — a deleted
    /// slot loads as an empty document).
    pub fn load(path: impl AsRef<Path>) -> Result<Store, StoreError> {
        Store::load_from(std::fs::File::open(path)?)
    }

    /// [`Store::load`] from any reader — e.g. a segment piped on stdin.
    pub fn load_from(reader: impl Read) -> Result<Store, StoreError> {
        let mut r = BufReader::new(reader);
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)
            .map_err(|_| StoreError::Format("file shorter than the magic header".into()))?;
        if &magic != MAGIC {
            return Err(StoreError::Format("bad magic (not a segment file)".into()));
        }
        let version = read_u32(&mut r)?;
        if version != VERSION {
            return Err(StoreError::Format(format!(
                "unsupported version {version} (expected {VERSION})"
            )));
        }
        let doc_count = read_u32(&mut r)? as usize;
        let mut docs = Vec::with_capacity(doc_count.min(1 << 20));
        for i in 0..doc_count {
            // Memory follows the bytes present, not the length declared: a
            // corrupt length field is a `Format` error, not a 4 GiB buffer.
            let len = read_u32(&mut r)? as usize;
            let mut bytes = Vec::with_capacity(len.min(1 << 16));
            r.by_ref().take(len as u64).read_to_end(&mut bytes)?;
            if bytes.len() != len {
                return Err(StoreError::Format(format!("document {i} truncated")));
            }
            let text = String::from_utf8(bytes)
                .map_err(|_| StoreError::Format(format!("document {i} is not valid UTF-8")))?;
            docs.push(Document::new(text));
        }
        // Trailing garbage means the file is not what `save` wrote.
        let mut rest = [0u8; 1];
        if r.read(&mut rest)? != 0 {
            return Err(StoreError::Format(
                "trailing bytes after the document table".into(),
            ));
        }
        Store::build(docs)
    }
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Store({} docs, {} bytes, {} trigrams, gen {}, {} delta postings)",
            self.docs.len(),
            self.bytes(),
            self.trigram_count(),
            self.generation,
            self.delta_postings,
        )
    }
}

fn read_u32(r: &mut impl Read) -> Result<u32, StoreError> {
    let mut bytes = [0u8; 4];
    r.read_exact(&mut bytes)
        .map_err(|_| StoreError::Format("u32 field truncated".into()))?;
    Ok(u32::from_le_bytes(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spanner_algebra::{Instantiation, RaOptions, RaTree};
    use std::collections::BTreeMap;

    fn docs(texts: &[&str]) -> Vec<Document> {
        texts.iter().map(|t| Document::new(*t)).collect()
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("spanner-store-test-{}-{name}", std::process::id()));
        p
    }

    fn engine(pattern: &str) -> CorpusEngine {
        let inst = Instantiation::new().with(0, spanner_rgx::parse(pattern).unwrap());
        CorpusEngine::compile(&RaTree::leaf(0), &inst, RaOptions::default()).unwrap()
    }

    #[test]
    fn candidates_intersect_trigram_postings() {
        let store = Store::build(docs(&[
            "the error log",
            "all fine here",
            "error: disk",
            "err",
        ]))
        .unwrap();
        assert_eq!(store.candidates(&[b"error".to_vec()]), Some(vec![0, 2]));
        // Two literals intersect.
        assert_eq!(
            store.candidates(&[b"error".to_vec(), b"disk".to_vec()]),
            Some(vec![2])
        );
        // An unknown trigram empties the set immediately.
        assert_eq!(store.candidates(&[b"zzz".to_vec()]), Some(Vec::new()));
        // Too-short literals prove nothing: full-scan fallback.
        assert_eq!(store.candidates(&[b"er".to_vec()]), None);
        assert_eq!(store.candidates(&[]), None);
        // A short literal alongside a usable one is simply ignored.
        assert_eq!(
            store.candidates(&[b"er".to_vec(), b"error".to_vec()]),
            Some(vec![0, 2])
        );
    }

    /// `docs` random documents of 0 to `max_len` characters drawn from
    /// `alphabet` (xorshift), then one that spells the whole alphabet, so
    /// every byte of it occurs.
    fn random_docs(alphabet: &[char], docs: usize, max_len: usize, seed: u64) -> Vec<Document> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move |below: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % below as u64) as usize
        };
        let mut out: Vec<Document> = (0..docs)
            .map(|_| {
                let len = next(max_len + 1);
                Document::new(
                    (0..len)
                        .map(|_| alphabet[next(alphabet.len())])
                        .collect::<String>(),
                )
            })
            .collect();
        out.push(Document::new(alphabet.iter().collect::<String>()));
        out
    }

    /// A sorted map from each trigram of `docs` to the ids of the documents
    /// holding it: the obvious construction.
    fn reference_index(docs: &[Document]) -> BTreeMap<[u8; 3], Vec<u32>> {
        let mut reference: BTreeMap<[u8; 3], Vec<u32>> = BTreeMap::new();
        for (id, doc) in (0..).zip(docs) {
            for w in doc.bytes().windows(3) {
                let list = reference.entry([w[0], w[1], w[2]]).or_default();
                if list.last() != Some(&id) {
                    list.push(id);
                }
            }
        }
        reference
    }

    /// `index_documents` equals the reference: each block is its
    /// documents' reference laid out as keys, offsets and ids, every array
    /// at its exact size; each trigram's lists decode to the whole corpus'
    /// list; and the alphabet packs a trigram into the fewest bits.
    fn assert_indexed_as_the_reference(docs: &[Document]) {
        let base = index_documents(docs, Base::default());
        assert_eq!(base.blocks.len(), docs.len().div_ceil(BLOCK));
        for (block, chunk) in base.blocks.iter().zip(docs.chunks(BLOCK)) {
            let reference = reference_index(chunk);
            let keys: Vec<u32> = reference
                .keys()
                .map(|&[a, b, c]| u32::from_be_bytes([0, a, b, c]))
                .collect();
            let mut starts = vec![0];
            for list in reference.values() {
                starts.push(starts.last().unwrap() + list.len());
            }
            let ids: Vec<u16> = reference.values().flatten().map(|&id| id as u16).collect();
            assert_eq!(block.keys, keys);
            assert_eq!(block.starts, starts);
            assert_eq!(block.ids, ids);
            // Every returned array was allocated at its final size.
            assert_eq!(block.keys.capacity(), keys.len());
            assert_eq!(block.starts.capacity(), starts.len());
            assert_eq!(block.ids.capacity(), ids.len());
        }
        let reference = reference_index(docs);
        for (&[a, b, c], list) in &reference {
            let decoded: Vec<u32> = base
                .lists(u32::from_be_bytes([0, a, b, c]))
                .flat_map(|(first, list)| list.iter().map(move |&o| first | o as u32))
                .collect();
            assert_eq!(&decoded, list);
        }
        assert_eq!(base.trigrams, reference.len());
        assert_eq!(base.postings, reference.values().map(Vec::len).sum());
        let mut seen = [false; 256];
        docs.iter()
            .flat_map(|d| d.bytes())
            .for_each(|&b| seen[b as usize] = true);
        let used = seen.iter().filter(|&&s| s).count();
        let bits = (1..=8).find(|&bits| used <= 1 << bits).unwrap();
        assert_eq!(Alphabet::of(docs).bits, bits, "{used} distinct bytes");
    }

    #[test]
    fn the_index_equals_a_naive_reference() {
        // One byte, and no document long enough for a trigram.
        assert_indexed_as_the_reference(&[]);
        assert_indexed_as_the_reference(&docs(&["aaaa", "a", "", "aaa"]));
        assert_indexed_as_the_reference(&docs(&["", "", "ab", "x", "yz"]));
        // One document repeating one trigram, and repeats across documents.
        assert_indexed_as_the_reference(&docs(&["zzzzzzzzzzzz", "abcabcabc", "zzz"]));
        // 2^j and 2^j + 1 bytes, where the code width changes.
        let ascii: Vec<char> = (0u8..128).map(char::from).collect();
        for j in 1..7 {
            for n in [1 << j, (1 << j) + 1] {
                assert_indexed_as_the_reference(&random_docs(&ascii[..n], 200, 12, n as u64));
            }
        }
        // 128 and 129 bytes: all of ASCII, and all but DEL plus 'é' (C3 A9).
        assert_indexed_as_the_reference(&random_docs(&ascii, 300, 20, 128));
        let mut wide = ascii[..127].to_vec();
        wide.push('é');
        assert_indexed_as_the_reference(&random_docs(&wide, 300, 20, 129));
        // `store-adhoc`'s lowercase letters and space.
        let adhoc: Vec<char> = "abcdefghijklmnopqrstuvwxyz ".chars().collect();
        assert_indexed_as_the_reference(&random_docs(&adhoc, 500, 110, 27));
        // Printable ASCII and U+0080–U+07FF: 189 byte values, 8 bits a code.
        let mut utf8: Vec<char> = (' '..='~').collect();
        utf8.extend('\u{80}'..='\u{7ff}');
        let docs = random_docs(&utf8, 500, 40, 8);
        assert_eq!(Alphabet::of(&docs).bits, 8);
        assert_indexed_as_the_reference(&docs);
    }

    #[test]
    fn save_load_round_trips() {
        let store = Store::build(docs(&[
            "alpha beta",
            "",
            "β-reduction β",
            "alpha",
            &"x".repeat(1000),
        ]))
        .unwrap();
        let path = tmp("roundtrip");
        store.save(&path).unwrap();
        let loaded = Store::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.documents(), store.documents());
        assert_eq!(loaded.doc_hashes(), store.doc_hashes());
        assert_eq!(loaded.trigram_count(), store.trigram_count());
        assert_eq!(
            loaded.candidates(&[b"alpha".to_vec()]),
            store.candidates(&[b"alpha".to_vec()])
        );
    }

    #[test]
    fn failed_save_leaves_the_previous_segment_intact() {
        let first = Store::build(docs(&["alpha beta", "gamma"])).unwrap();
        let second = Store::build(docs(&["delta", "epsilon zeta", "eta"])).unwrap();
        let path = tmp("atomic");
        let temp = std::path::PathBuf::from(format!("{}.tmp", path.display()));
        first.save(&path).unwrap();
        assert!(!temp.exists(), "a successful save leaves no temp file");
        let saved = std::fs::read(&path).unwrap();
        // The temp path taken by a directory: the segment cannot be written.
        std::fs::create_dir(&temp).unwrap();
        assert!(matches!(second.save(&path), Err(StoreError::Io(_))));
        assert_eq!(std::fs::read(&path).unwrap(), saved);
        assert_eq!(Store::load(&path).unwrap().documents(), first.documents());
        std::fs::remove_dir(&temp).unwrap();
        second.save(&path).unwrap();
        assert!(!temp.exists());
        assert_eq!(Store::load(&path).unwrap().documents(), second.documents());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_corrupt_files() {
        let path = tmp("corrupt");
        std::fs::write(&path, b"not a store").unwrap();
        assert!(matches!(Store::load(&path), Err(StoreError::Format(_))));
        // Version 1, the format that also persisted the postings.
        std::fs::write(&path, b"SPANSTOR\x01\x00\x00\x00").unwrap();
        let err = Store::load(&path).unwrap_err();
        assert!(
            err.to_string()
                .contains("unsupported version 1 (expected 2)"),
            "{err}"
        );
        // Truncated document table.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&2u32.to_le_bytes()); // 2 docs
        bytes.extend_from_slice(&100u32.to_le_bytes()); // 100-byte doc, missing
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(Store::load(&path), Err(StoreError::Format(_))));
        std::fs::remove_file(&path).ok();
    }

    /// Every truncation and every single-byte flip of a saved segment loads
    /// or fails with a typed error: no panic, and no allocation sized by a
    /// corrupt length field (ROADMAP item 4(iv)). A flip that loads yields
    /// the index of the documents it loaded, never a stale one.
    #[test]
    fn load_survives_every_truncation_and_byte_flip() {
        let texts: Vec<String> = (0..24)
            .map(|i| format!("GET /p{i} status={} é", 200 + i % 5))
            .collect();
        let mut store =
            Store::build(texts.iter().map(|t| Document::new(t.as_str())).collect()).unwrap();
        store.append("a late line").unwrap();
        store.delete(3).unwrap();
        let path = tmp("fuzz");
        store.save(&path).unwrap();
        let saved = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(Store::load_from(saved.as_slice()).is_ok());

        let literals = [&b"GET"[..], b"/p1", b"status=204"].map(|l| vec![l.to_vec()]);
        let typed = |bytes: &[u8], what: &str| match Store::load_from(bytes) {
            Ok(loaded) => {
                assert!(loaded.len() <= saved.len(), "{what}");
                let rebuilt = Store::build(loaded.documents().to_vec()).unwrap();
                assert_eq!(loaded.trigram_count(), rebuilt.trigram_count(), "{what}");
                for literal in &literals {
                    assert_eq!(
                        loaded.candidates(literal),
                        rebuilt.candidates(literal),
                        "{what}: candidates for {:?}",
                        String::from_utf8_lossy(&literal[0])
                    );
                }
            }
            Err(StoreError::Format(_) | StoreError::Io(_)) => {}
            Err(other) => panic!("{what}: untyped failure {other}"),
        };
        for cut in 0..saved.len() {
            assert!(
                Store::load_from(&saved[..cut]).is_err(),
                "truncation at {cut} of {} loaded",
                saved.len()
            );
        }
        let mut mutated = saved.clone();
        for at in 0..saved.len() {
            for mask in [0x01u8, 0x80, 0xff] {
                mutated[at] = saved[at] ^ mask;
                typed(&mutated, &format!("byte {at} ^ {mask:#04x}"));
            }
            mutated[at] = saved[at];
        }

        // One document declared `u32::MAX` bytes long, none of them present.
        let mut hostile = Vec::new();
        hostile.extend_from_slice(MAGIC);
        hostile.extend_from_slice(&VERSION.to_le_bytes());
        hostile.extend_from_slice(&1u32.to_le_bytes());
        hostile.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = Store::load_from(hostile.as_slice()).unwrap_err();
        assert!(matches!(err, StoreError::Format(_)), "{err}");
        assert!(err.to_string().contains("truncated"), "{err}");
    }

    #[test]
    fn query_prunes_with_literals_and_falls_back_without() {
        let texts: Vec<String> = (0..50)
            .map(|i| {
                if i % 10 == 0 {
                    format!("record {i}: needle found")
                } else {
                    format!("record {i}: nothing")
                }
            })
            .collect();
        let store =
            Store::build(texts.iter().map(|t| Document::new(t.as_str())).collect()).unwrap();
        let engine = engine(".*needle{x: .*}");
        let outcome = store.query(&engine, 2).unwrap();
        assert_eq!(outcome.candidates, Some(5));
        assert!(outcome.selectivity() <= 0.1 + f64::EPSILON);
        assert_eq!(outcome.output.stats.matched_documents, 5);
        assert!(outcome.output.stats.docs_skipped >= 45);
        // Bit-identical to the unindexed path.
        let full = engine.scan(store.documents(), 2).unwrap().into_dense();
        assert_eq!(outcome.output.results, full.results);

        // No usable literal → full scan, same results.
        let inst = Instantiation::new().with(0, spanner_rgx::parse("{x:[nr]+}").unwrap());
        let engine = CorpusEngine::compile(&RaTree::leaf(0), &inst, RaOptions::default()).unwrap();
        let outcome = store.query(&engine, 2).unwrap();
        assert_eq!(outcome.candidates, None);
        assert_eq!(outcome.selectivity(), 1.0);
        let full = engine.scan(store.documents(), 2).unwrap().into_dense();
        assert_eq!(outcome.output.results, full.results);
    }

    #[test]
    fn empty_store_works() {
        let store = Store::build(Vec::new()).unwrap();
        assert!(store.is_empty());
        assert_eq!(store.candidates(&[b"abc".to_vec()]), Some(Vec::new()));
        let path = tmp("empty");
        store.save(&path).unwrap();
        let loaded = Store::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(loaded.is_empty());
        assert_eq!(loaded.trigram_count(), 0);
    }

    #[test]
    fn mutations_maintain_candidates_and_generation() {
        let mut store = Store::build(docs(&["the error log", "all fine"])).unwrap();
        assert_eq!(store.generation(), 0);
        let id = store.append("error: disk").unwrap();
        assert_eq!(id, 2);
        assert_eq!(store.generation(), 1);
        assert_eq!(store.candidates(&[b"error".to_vec()]), Some(vec![0, 2]));
        // Update removes old postings and adds new ones.
        store.update(0, "all quiet").unwrap();
        assert_eq!(store.candidates(&[b"error".to_vec()]), Some(vec![2]));
        assert_eq!(store.candidates(&[b"quiet".to_vec()]), Some(vec![0]));
        assert_eq!(store.generation(), 2);
        // Delete tombstones the slot; ids stay stable.
        store.delete(2).unwrap();
        assert_eq!(store.candidates(&[b"error".to_vec()]), Some(Vec::new()));
        assert_eq!(store.len(), 3);
        assert!(store.is_deleted(2));
        assert!(store.documents()[2].is_empty());
        assert_eq!(store.generation(), 3);
        // Deleting again is a no-op.
        store.delete(2).unwrap();
        assert_eq!(store.generation(), 3);
        // Updating a deleted slot revives it.
        store.update(2, "error again").unwrap();
        assert!(!store.is_deleted(2));
        assert_eq!(store.candidates(&[b"error".to_vec()]), Some(vec![2]));
        // Out-of-bounds ids are rejected.
        assert!(matches!(
            store.update(99, "x"),
            Err(StoreError::Mutation(_))
        ));
        assert!(matches!(store.delete(99), Err(StoreError::Mutation(_))));
    }

    #[test]
    fn hashes_track_content() {
        let mut store = Store::build(docs(&["abc", "abc"])).unwrap();
        assert_eq!(store.doc_hashes()[0], store.doc_hashes()[1]);
        assert_eq!(store.doc_hashes()[0], fnv1a64(b"abc"));
        store.update(1, "abd").unwrap();
        assert_ne!(store.doc_hashes()[0], store.doc_hashes()[1]);
        store.delete(0).unwrap();
        assert_eq!(store.doc_hashes()[0], fnv1a64(b""));
    }

    #[test]
    fn mutated_store_matches_scratch_rebuild() {
        let mut store =
            Store::build(docs(&["needle one", "hay", "needle two", "hay hay"])).unwrap();
        store.append("fresh needle").unwrap();
        store.update(1, "now a needle too").unwrap();
        store.delete(2).unwrap();
        store.update(3, "still hay").unwrap();
        let rebuilt = Store::build(store.documents().to_vec()).unwrap();
        // Identical candidates...
        for lit in [&b"needle"[..], b"hay", b"fresh"] {
            assert_eq!(
                store.candidates(&[lit.to_vec()]),
                rebuilt.candidates(&[lit.to_vec()]),
                "literal {:?}",
                String::from_utf8_lossy(lit)
            );
        }
        // ...identical query results...
        let e = engine(".*needle{x: .*}");
        let mutated = store.query(&e, 2).unwrap();
        let scratch = rebuilt.query(&e, 2).unwrap();
        assert_eq!(mutated.output.results, scratch.output.results);
        assert_eq!(mutated.candidates, scratch.candidates);
        // ...and identical bytes on disk.
        let p1 = tmp("mutated");
        let p2 = tmp("rebuilt");
        store.save(&p1).unwrap();
        rebuilt.save(&p2).unwrap();
        let b1 = std::fs::read(&p1).unwrap();
        let b2 = std::fs::read(&p2).unwrap();
        std::fs::remove_file(&p1).ok();
        std::fs::remove_file(&p2).ok();
        assert_eq!(b1, b2, "segment bytes differ from a scratch rebuild");
    }

    /// Every trigram's live list and the needle's candidates equal a
    /// reference over the store's documents, and a trigram no document has
    /// has an empty list.
    fn assert_lists_as_the_reference(store: &Store) {
        let reference = reference_index(store.documents());
        for (&[a, b, c], list) in &reference {
            assert_eq!(&store.effective(u32::from_be_bytes([0, a, b, c])), list);
        }
        assert!(store
            .effective(u32::from_be_bytes([0, b'z', b'z', b'z']))
            .is_empty());
        let needles: Vec<u32> = (0..)
            .zip(store.documents())
            .filter(|(_, d)| d.bytes().windows(6).any(|w| w == b"needle"))
            .map(|(id, _)| id)
            .collect();
        assert_eq!(store.candidates(&[b"needle".to_vec()]), Some(needles));
    }

    #[test]
    fn ids_cross_the_block_boundaries() {
        // Three blocks; hex numbers share their trigrams across all three,
        // and the needle sits on each side of each boundary and last.
        let needles = [65_535, 65_536, 131_071, 131_072, 139_999];
        let texts: Vec<String> = (0..140_000u32)
            .map(|i| match needles.contains(&i) {
                true => format!("needle {i:x}"),
                false => format!("{i:x}"),
            })
            .collect();
        let docs: Vec<Document> = texts.iter().map(|t| Document::new(t.as_str())).collect();
        assert_indexed_as_the_reference(&docs);
        let mut store = Store::build(docs).unwrap();
        assert_eq!(store.base.blocks.len(), 3);
        assert_eq!(
            store.candidates(&[b"needle".to_vec()]),
            Some(needles.to_vec())
        );
        assert_lists_as_the_reference(&store);
        assert_eq!(
            store.trigram_count(),
            reference_index(store.documents()).len()
        );

        for id in [65_535, 131_072] {
            store.update(id, "plain").unwrap();
        }
        for id in [65_534, 131_073, 139_998] {
            store.update(id, "needle moved in").unwrap();
        }
        store.delete(65_536).unwrap();
        store.delete(131_071).unwrap();
        store.update(65_537, "one more needle").unwrap();
        let appended = store.append("needle appended").unwrap();
        store.append("needle after it").unwrap();
        store.update(appended, "no longer").unwrap();
        store.update(131_073, "needle moved again").unwrap();
        assert_eq!(store.compactions(), 0, "the delta merges with the base");
        assert_lists_as_the_reference(&store);

        store.compact();
        assert_eq!(store.base.blocks.len(), 3);
        assert_lists_as_the_reference(&store);
        assert_eq!(
            store.trigram_count(),
            reference_index(store.documents()).len()
        );
    }

    #[test]
    fn compaction_triggers_and_preserves_results() {
        let mut store = Store::build(Vec::new()).unwrap();
        // Each line contributes ~17 postings; a few hundred appends push
        // the pending delta past COMPACT_GRACE.
        for i in 0..200 {
            store
                .append(&format!("entry number {i} with text"))
                .unwrap();
        }
        assert!(store.compactions() > 0, "no compaction after bulk appends");
        // Pending work stays at or below the trigger threshold.
        assert!(
            store.delta_postings() + store.stale_count
                <= COMPACT_GRACE.max(store.base.postings / 2)
        );
        let rebuilt = Store::build(store.documents().to_vec()).unwrap();
        assert_eq!(
            store.candidates(&[b"number".to_vec()]),
            rebuilt.candidates(&[b"number".to_vec()])
        );
        // Explicit compaction is also available and idempotent.
        let before = store.compactions();
        store.compact();
        assert_eq!(store.compactions(), before + 1);
        assert_eq!(store.delta_postings(), 0);
        assert_eq!(store.stale_count, 0);
    }

    #[test]
    fn compaction_rebuilds_the_index_in_its_own_arrays() {
        let lines = (0..300).map(|i| Document::new(format!("line {i} of the log")));
        let mut store = Store::build(lines.collect()).unwrap();
        let ids = |store: &Store| store.base.blocks[0].ids.as_ptr();
        let built = ids(&store);
        store.update(7, "line 7 of the log").unwrap();
        store.compact();
        assert_eq!(ids(&store), built, "a base of the same size moved");
        // Growing past the arrays reallocates once, with room to spare.
        store
            .append("a longer line, with new trigrams in it")
            .unwrap();
        store.compact();
        let grown = ids(&store);
        let block = &store.base.blocks[0];
        assert!(block.ids.capacity() > block.ids.len());
        store.append("one more line").unwrap();
        store.compact();
        assert_eq!(ids(&store), grown, "a base that grew a little moved");
        let rebuilt = Store::build(store.documents().to_vec()).unwrap();
        for literal in [&b"line"[..], b"longer", b"more", b"log"] {
            let literal = [literal.to_vec()];
            assert_eq!(store.candidates(&literal), rebuilt.candidates(&literal));
        }
    }

    #[test]
    fn byte_total_tracks_every_mutation() {
        let recomputed = |s: &Store| s.documents().iter().map(Document::len).sum::<usize>();
        let mut store = Store::build(docs(&["alpha beta", "", "β-reduction"])).unwrap();
        assert_eq!(store.bytes(), recomputed(&store));
        // A seeded script mixing every mutation, a forced compaction and a
        // save/load round trip.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        for step in 0..400 {
            let id = next(store.len()) as u32;
            let text = "naïve ".repeat(next(6));
            match next(4) {
                0 | 1 => store.update(id, &text).unwrap(),
                2 => store.delete(id).unwrap(),
                _ => drop(store.append(&text).unwrap()),
            }
            if step % 100 == 99 {
                store.compact();
            }
            assert_eq!(store.bytes(), recomputed(&store), "step {step}");
        }
        let path = tmp("bytes");
        store.save(&path).unwrap();
        let loaded = Store::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.bytes(), store.bytes());
    }

    #[test]
    fn query_view_is_incremental_and_identical() {
        let texts: Vec<String> = (0..60)
            .map(|i| {
                if i % 6 == 0 {
                    format!("record {i}: needle found")
                } else {
                    format!("record {i}: nothing")
                }
            })
            .collect();
        let mut store =
            Store::build(texts.iter().map(|t| Document::new(t.as_str())).collect()).unwrap();
        let e = engine(".*needle{x: .*}");
        let mut view = QueryView::unbounded();
        let cold = store.query_view(&e, &mut view, 2).unwrap();
        let full = e.scan(store.documents(), 2).unwrap().into_dense();
        assert_eq!(cold.output.results, full.results);
        assert_eq!(cold.view_hits, 0);
        assert_eq!(view.generation(), store.generation());
        // Warm re-query: everything from the view.
        let warm = store.query_view(&e, &mut view, 2).unwrap();
        assert_eq!(warm.output.results, full.results);
        assert_eq!(warm.view_hits, store.len());
        assert_eq!(warm.delta_docs, 0);
        // Mutate two documents: only they are touched.
        store.update(1, "record 1: needle appears").unwrap();
        store.append("a fresh needle line").unwrap();
        let after = store.query_view(&e, &mut view, 2).unwrap();
        assert_eq!(after.delta_docs, 2);
        assert_eq!(after.invalidated, 1);
        let full = e.scan(store.documents(), 2).unwrap().into_dense();
        assert_eq!(after.output.results, full.results);
        assert_eq!(view.generation(), store.generation());
    }
}
