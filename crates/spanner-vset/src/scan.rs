//! The scan-core fast path: static prefilters and required literals.
//!
//! Most documents in a corpus match a given query *nowhere*. [`CompiledVsa`]
//! carries a [`ScanPlan`], computed once at compile time, whose static
//! prefilters refuse many such documents without scanning a single state:
//! the shortest accepted document length, the class of possible first bytes
//! (formulas are anchored, so the first byte of an accepted document must
//! start some consuming transition out of the initial closure), and up to
//! [`MAX_FACTORS`] *required factors* — byte classes such that every
//! accepted document contains at least one byte of each (a class is
//! required iff forbidding its bytes empties the language). A document
//! failing any prefilter is [`PreScan::Skip`]ped; any other is
//! [`PreScan::Accept`]ed, which means "not ruled out": the match graph's
//! backward pass (Theorem 2.5's linear preprocessing) decides whether it
//! has a mapping. [`CompiledVsa::prescan`] builds nothing on first use.
//!
//! Beside the prefilters, the plan answers one more question: which byte
//! strings does every accepted document contain
//! ([`CompiledVsa::required_literals`])? An indexed store prunes its
//! candidates on them, `explain` prints them, and the executor skips a
//! document that lacks one after the prefilters let it through, so the
//! answer is worked out on first request: an automaton that never sees
//! such a document never pays for it. Candidates are read off the shortest accepted document and each
//! is settled by an exact test over the automaton
//! ([`CompiledVsa::literal_counterexample`]).
//!
//! Results are unchanged by construction: every prefilter is sound (a
//! skipped document has no accepting run, so no mapping), and the executor
//! consults the pre-pass only to return an empty result early.

use crate::compiled::{CompiledVsa, Rows};
use spanner_core::{ByteClass, Document};
use std::sync::OnceLock;

/// Maximum number of required factors kept by the analysis.
pub const MAX_FACTORS: usize = 4;

/// Maximum byte length of an extracted required literal.
pub const MAX_LITERAL_LEN: usize = 16;

/// Maximum number of required literals kept by the analysis.
pub const MAX_LITERALS: usize = 4;

/// State-count ceiling for literal extraction; the analysis is skipped on
/// automata past it — literals are an optimization, never a requirement.
const LITERAL_STATE_BUDGET: usize = 512;

/// The verdict of [`CompiledVsa::prescan`] on one document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PreScan {
    /// A static prefilter (length / first byte / required factor) proved the
    /// document cannot match — no states were scanned.
    Skip,
    /// No prefilter ruled the document out; whether it has a mapping is
    /// the executor's backward pass to decide.
    Accept,
}

/// The required literals of one automaton, and what finding them cost.
#[derive(Debug, Clone, Default)]
struct LiteralSet {
    literals: Vec<Vec<u8>>,
    /// Runs of the exact test ([`LiteralTest::counterexample`]) the
    /// extraction made.
    explorations: usize,
}

/// The compile-time scan analysis attached to every [`CompiledVsa`].
#[derive(Debug, Clone)]
pub struct ScanPlan {
    /// A shortest accepted document; `None` iff the language is empty
    /// (every document is skipped).
    shortest: Option<Vec<u8>>,
    /// Possible first bytes of an accepted non-empty document; `None` when
    /// unconstrained (all 256 bytes possible).
    prefix_class: Option<ByteClass>,
    /// Byte classes that every accepted document must contain at least one
    /// byte of (rarest first).
    required_factors: Vec<ByteClass>,
    /// Byte strings that every accepted document must contain as a factor,
    /// extracted on first request ([`CompiledVsa::required_literals`]);
    /// [`CompiledVsa::prescan`] never asks.
    literals: OnceLock<LiteralSet>,
}

impl ScanPlan {
    /// The inert placeholder used while the owning [`CompiledVsa`] is still
    /// under construction (replaced by [`ScanPlan::analyze`] immediately).
    pub(crate) fn placeholder() -> ScanPlan {
        ScanPlan {
            shortest: None,
            prefix_class: None,
            required_factors: Vec::new(),
            literals: OnceLock::new(),
        }
    }

    /// Runs the static analysis over a freshly compiled automaton.
    pub(crate) fn analyze(compiled: &CompiledVsa) -> ScanPlan {
        let Some(shortest) = shortest_accepted(compiled) else {
            // Empty language: the filters are never consulted.
            return ScanPlan::placeholder();
        };
        ScanPlan {
            shortest: Some(shortest),
            prefix_class: prefix_class(compiled),
            required_factors: required_factors(compiled),
            literals: OnceLock::new(),
        }
    }

    /// Length of the shortest accepted document (`None`: empty language).
    pub fn min_len(&self) -> Option<usize> {
        self.shortest.as_ref().map(Vec::len)
    }

    /// The anchored-prefix class: possible first bytes of an accepted
    /// non-empty document (`None` when unconstrained).
    pub fn prefix_class(&self) -> Option<&ByteClass> {
        self.prefix_class.as_ref()
    }

    /// The required factors: byte classes every accepted document contains.
    pub fn required_factors(&self) -> &[ByteClass] {
        &self.required_factors
    }

    /// Whether the static prefilters reject the document (no state is
    /// scanned). Sound refusals only: `false` means "not ruled out", not
    /// "matches".
    fn filters_reject(&self, bytes: &[u8]) -> bool {
        let Some(min_len) = self.min_len() else {
            return true; // empty language
        };
        if bytes.len() < min_len {
            return true;
        }
        if let (Some(class), Some(&first)) = (&self.prefix_class, bytes.first()) {
            if !class.contains(first) {
                return true;
            }
        }
        self.required_factors
            .iter()
            .any(|f| !bytes.iter().any(|&b| f.contains(b)))
    }
}

impl CompiledVsa {
    /// The compile-time scan analysis (the static prefilters).
    pub fn scan_plan(&self) -> &ScanPlan {
        self.scan()
    }

    /// Runs the static prefilters on one document (see the module docs):
    /// [`PreScan::Skip`] proves the document has no mapping,
    /// [`PreScan::Accept`] only that it is not ruled out.
    pub fn prescan(&self, doc: &Document) -> PreScan {
        if self.scan().filters_reject(doc.bytes()) {
            PreScan::Skip
        } else {
            PreScan::Accept
        }
    }

    /// The required literals: byte strings every accepted document contains
    /// as a factor (longest first), extracted on first call. Empty when the
    /// analysis could not pin any down — callers must fall back to scanning
    /// every document.
    pub fn required_literals(&self) -> &[Vec<u8>] {
        &self.literal_set().literals
    }

    /// An accepted document that does not contain `needle` as a factor, or
    /// `None` when every accepted document contains it — the exact test
    /// behind [`CompiledVsa::required_literals`], with its certificate.
    pub fn literal_counterexample(&self, needle: &[u8]) -> Option<Vec<u8>> {
        LiteralTest::new(self).counterexample(needle)
    }

    /// Test hook: how many runs of [`CompiledVsa::literal_counterexample`]
    /// the literal extraction made (forces it).
    #[doc(hidden)]
    pub fn literal_explorations(&self) -> usize {
        self.literal_set().explorations
    }

    fn literal_set(&self) -> &LiteralSet {
        self.scan().literals.get_or_init(|| required_literals(self))
    }
}

/// BFS over consuming transitions (with zero-closures between letters): a
/// shortest document on a path from the initial closure to an accepting
/// state, spelled with the smallest byte of every class it crosses. `None`
/// iff no accepting state is reachable at all.
fn shortest_accepted(compiled: &CompiledVsa) -> Option<Vec<u8>> {
    // `via[q]`: the state `q` was first reached from and the byte read on
    // the way; a state of the initial closure points at itself.
    let mut via: Vec<Option<(usize, u8)>> = vec![None; compiled.state_count()];
    let reps: Vec<u8> = (0..compiled.class_count())
        .filter_map(|class| compiled.class_bytes(class).iter().next())
        .collect();
    let mut queue = std::collections::VecDeque::new();
    for q in compiled.initial_closure().iter() {
        via[q] = Some((q, 0));
        queue.push_back(q);
    }
    let (mut seen, mut entered) = (compiled.initial_closure().clone(), Vec::new());
    while let Some(q) = queue.pop_front() {
        if compiled.is_accepting(q) {
            // BFS: the first accepting state found is at minimum distance.
            let mut doc = Vec::new();
            let mut at = q;
            while let Some((from, byte)) = via[at].filter(|&(from, _)| from != at) {
                doc.push(byte);
                at = from;
            }
            doc.reverse();
            return Some(doc);
        }
        for (class, &rep) in reps.iter().enumerate() {
            for &t in compiled.byte_targets(q, class) {
                compiled.close_zero(&[t], &mut entered, |r| seen.insert(r));
                for &r in &entered {
                    via[r] = Some((q, rep));
                    queue.push_back(r);
                }
            }
        }
    }
    None
}

/// The union of the byte classes of consuming transitions leaving the
/// initial zero-closure — an overapproximation of the first byte of any
/// accepted non-empty document. `None` when every byte is possible.
fn prefix_class(compiled: &CompiledVsa) -> Option<ByteClass> {
    let start = compiled.initial_closure();
    let mut class = ByteClass::empty();
    for c in 0..compiled.class_count() {
        if start
            .iter()
            .any(|q| !compiled.byte_targets(q, c).is_empty())
        {
            class = class.union(compiled.class_bytes(c));
        }
    }
    (class.len() < 256).then_some(class)
}

/// Finds byte classes that every accepted document must contain: a class is
/// required iff the automaton restricted to the remaining bytes accepts
/// nothing. Candidates are the compiled byte-class partition (skipping
/// classes no transition consumes). Kept rarest-first, at most
/// [`MAX_FACTORS`].
fn required_factors(compiled: &CompiledVsa) -> Vec<ByteClass> {
    let class_count = compiled.class_count();
    if class_count > 64 {
        return Vec::new();
    }
    let mut factors: Vec<ByteClass> = Vec::new();
    let start = compiled.initial_closure();
    let mut reach = start.clone();
    let mut stack: Vec<usize> = Vec::new();
    for avoid in 0..class_count {
        // Is any accepting state reachable using only classes != `avoid`?
        reach.clear();
        reach.union_with(start);
        stack.clear();
        stack.extend(start.iter());
        let mut alive = reach.intersects(compiled.accepting());
        while let Some(q) = stack.pop() {
            if alive {
                break;
            }
            let letters = (0..class_count).filter(|&class| class != avoid);
            let letters = letters.flat_map(|class| compiled.byte_targets(q, class));
            for &r in compiled.zero_targets(q).iter().chain(letters) {
                if reach.insert(r) {
                    alive |= compiled.is_accepting(r);
                    stack.push(r);
                }
            }
        }
        if !alive {
            factors.push(*compiled.class_bytes(avoid));
        }
    }
    // Collect *all* required classes before ranking: truncating in
    // partition order would keep arbitrary classes, not the rarest, and a
    // rare literal class found late would be dropped.
    factors.sort_by_key(ByteClass::len);
    factors.truncate(MAX_FACTORS);
    factors
}

/// Extracts required *byte strings*: literals every accepted document must
/// contain as a contiguous factor. Seeds are the single-byte required
/// factors plus a singleton anchored-prefix byte; each seed is grown to the
/// right, then to the left, with singleton-class bytes, taking at every
/// step the smallest byte that keeps the literal required
/// ([`LiteralTest::counterexample`], exact). The bytes worth asking about are
/// *derived*, not guessed: the shortest accepted document contains every
/// required literal, so only a byte next to an occurrence of `w` in it can
/// extend `w` ([`Extraction::grow`]). Kept longest first (more trigrams —
/// more selective), at most [`MAX_LITERALS`], with substrings of longer
/// literals dropped as redundant.
fn required_literals(compiled: &CompiledVsa) -> LiteralSet {
    let plan = compiled.scan();
    let witness = match plan.shortest.as_deref() {
        // Empty language, or the empty document is accepted: nothing can
        // be required.
        None | Some([]) => return LiteralSet::default(),
        Some(witness) => witness,
    };
    if compiled.class_count() > 64 || compiled.state_count() > LITERAL_STATE_BUDGET {
        return LiteralSet::default();
    }
    // Seeds: single-byte required factors (required by construction) and a
    // singleton anchored-prefix byte (every accepted document is non-empty
    // here, so its verified first byte is a factor).
    let mut seeds: Vec<u8> = plan
        .required_factors
        .iter()
        .chain(&plan.prefix_class)
        .filter(|class| class.len() == 1)
        .filter_map(|class| class.iter().next())
        .collect();
    seeds.sort_unstable();
    seeds.dedup();

    let mut extraction = Extraction {
        test: LiteralTest::new(compiled),
        witness,
        confirmed: Vec::new(),
        counterexamples: Vec::new(),
        explorations: 0,
    };
    let mut literals: Vec<Vec<u8>> = Vec::new();
    for seed in seeds {
        if extraction.required(&[seed]) {
            let right = extraction.grow(vec![seed], false);
            literals.push(extraction.grow(right, true));
        }
    }

    dedup_subsumed(&mut literals);
    literals.truncate(MAX_LITERALS);
    LiteralSet {
        literals,
        explorations: extraction.explorations,
    }
}

/// One automaton's literal extraction: the exact test, asked as rarely as
/// the answers already in hand allow.
struct Extraction<'a> {
    test: LiteralTest<'a>,
    /// The shortest accepted document.
    witness: &'a [u8],
    /// What the test has answered so far: literals it found required, and
    /// the accepted documents it refuted the others with.
    confirmed: Vec<Vec<u8>>,
    counterexamples: Vec<Vec<u8>>,
    explorations: usize,
}

impl Extraction<'_> {
    /// Whether `candidate` is required. A factor of a required literal is
    /// required, so a seed inside a literal found earlier regrows it
    /// without a single exploration; a literal missing from an accepted
    /// document is not, so one counterexample (`needlea` against `needle `)
    /// settles every other candidate that overshoots the same way.
    /// Anything else is put to the exact test.
    fn required(&mut self, candidate: &[u8]) -> bool {
        if self.confirmed.iter().any(|k| contains_factor(k, candidate)) {
            return true;
        }
        if self
            .counterexamples
            .iter()
            .any(|doc| !contains_factor(doc, candidate))
        {
            return false;
        }
        self.explorations += 1;
        match self.test.counterexample(candidate) {
            None => {
                self.confirmed.push(candidate.to_vec());
                true
            }
            Some(doc) => {
                self.counterexamples.push(doc);
                false
            }
        }
    }

    /// Grows the required literal `lit` on one side for as long as it stays
    /// required (and under [`MAX_LITERAL_LEN`]).
    fn grow(&mut self, mut lit: Vec<u8>, before: bool) -> Vec<u8> {
        let (doc, compiled) = (self.witness, self.test.compiled);
        let extend = |lit: &mut Vec<u8>, b: u8| {
            if before {
                lit.insert(0, b)
            } else {
                lit.push(b)
            }
        };
        loop {
            let known = lit.len();
            let mut tip = lit;
            // Where `tip` occurs in the witness, and the byte next to it
            // there.
            let mut at: Vec<usize> = doc
                .windows(known)
                .enumerate()
                .filter_map(|(i, w)| (w == &tip[..]).then_some(i))
                .collect();
            let beside = |at: usize, len: usize| {
                if before {
                    at.checked_sub(1).map(|i| doc[i])
                } else {
                    doc.get(at + len).copied()
                }
            };
            // While the witness offers one byte, follow it unasked.
            let choice = loop {
                if tip.len() >= MAX_LITERAL_LEN {
                    break ByteClass::empty();
                }
                // Alone in their class: the only bytes the partition pins
                // to a position.
                let mut offered = ByteClass::empty();
                for b in at.iter().filter_map(|&i| beside(i, tip.len())) {
                    if compiled.class_bytes(compiled.class_of(b)).len() == 1 {
                        offered.insert(b);
                    }
                }
                let only = offered.iter().next().filter(|_| offered.len() == 1);
                match only {
                    Some(b) => {
                        at.retain(|&i| beside(i, tip.len()) == Some(b));
                        at.iter_mut().for_each(|i| *i -= usize::from(before));
                        extend(&mut tip, b);
                    }
                    None => break offered,
                }
            };
            // The links of that chain are `tip` cut to `known + 1 ..=
            // tip.len()` bytes. Each is a factor of the next, so
            // requiredness is lost once along the chain and never regained:
            // the last required link is found by bisection — after two
            // looks from the top, since a literal usually runs to where the
            // witness stops offering or one byte short of it (the separator
            // the shortest document happens to go on with).
            let cut = |len: usize| {
                if before {
                    &tip[tip.len() - len..]
                } else {
                    &tip[..len]
                }
            };
            let (mut required, mut open, mut looks) = (known, tip.len(), 0);
            while required < open {
                let probe = if looks < 2 {
                    open
                } else {
                    (required + open).div_ceil(2)
                };
                looks += 1;
                if self.required(cut(probe)) {
                    required = probe;
                } else {
                    open = probe - 1;
                }
            }
            lit = cut(required).to_vec();
            if required < tip.len() {
                return lit;
            }
            // Several occurrences disagree on the next byte: smallest first.
            let Some(b) = choice.iter().find(|&b| {
                let mut candidate = lit.clone();
                extend(&mut candidate, b);
                self.required(&candidate)
            }) else {
                return lit;
            };
            extend(&mut lit, b);
        }
    }
}

/// Whether `needle` occurs in `haystack` as a contiguous factor: a byte
/// loop for the needle's first byte, and a compare only where it occurs.
pub fn contains_factor(haystack: &[u8], needle: &[u8]) -> bool {
    let Some((&first, rest)) = needle.split_first() else {
        return true;
    };
    let Some(last) = haystack.len().checked_sub(needle.len()) else {
        return false;
    };
    (0..=last).any(|at| haystack[at] == first && haystack[at + 1..][..rest.len()] == *rest)
}

/// Sorts `literals` longest first, then by bytes, and drops every literal
/// that occurs inside a kept one — duplicates included: it constrains
/// nothing extra.
pub fn dedup_subsumed(literals: &mut Vec<Vec<u8>>) {
    literals.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a.cmp(b)));
    let mut kept: Vec<Vec<u8>> = Vec::new();
    for lit in literals.drain(..) {
        if !kept.iter().any(|k| contains_factor(k, &lit)) {
            kept.push(lit);
        }
    }
    *literals = kept;
}

/// One consuming move of the ε-free automaton behind [`LiteralTest`]: on a
/// byte of `class`, to the states `next` (a range of [`LiteralTest::next`]).
struct Move {
    class: usize,
    /// Whether the move can end a document: some state entered accepts
    /// without reading further.
    accepts: bool,
    next: std::ops::Range<usize>,
}

/// The exact requiredness test of one automaton. Its runs share the
/// automaton with the zero-closures folded into the consuming moves, so a
/// run walks states that read a byte and nothing else.
struct LiteralTest<'a> {
    compiled: &'a CompiledVsa,
    /// The moves of state `q` are row `q`.
    moves: Rows<Move>,
    /// The successor lists of every move: the consuming states among the
    /// zero-closures of its targets.
    next: Vec<usize>,
    /// Scratch of [`LiteralTest::counterexample`].
    via: Vec<(usize, u8)>,
    stack: Vec<(usize, usize)>,
}

impl<'a> LiteralTest<'a> {
    fn new(compiled: &'a CompiledVsa) -> Self {
        let states = compiled.state_count();
        let classes = 0..compiled.class_count();
        let mut moves = Rows::with_rows(states);
        moves.items.reserve(states);
        let mut next = Vec::with_capacity(2 * states);
        // `mark[r]`: the last move whose targets' zero closures entered `r`.
        let (mut reach, mut mark) = (Vec::new(), vec![usize::MAX; states]);
        for q in 0..states {
            for class in classes.clone() {
                let targets = compiled.byte_targets(q, class);
                if targets.is_empty() {
                    continue;
                }
                let id = moves.items.len();
                let fresh = |r: usize| std::mem::replace(&mut mark[r], id) != id;
                compiled.close_zero(targets, &mut reach, fresh);
                let from = next.len();
                next.extend(reach.iter().filter(|&&r| compiled.consuming().contains(r)));
                moves.items.push(Move {
                    class,
                    accepts: reach.iter().any(|&r| compiled.is_accepting(r)),
                    next: from..next.len(),
                });
            }
            moves.end_row();
        }
        LiteralTest {
            compiled,
            moves,
            next,
            via: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// An accepted document that does not contain `needle` as a factor —
    /// `None` iff every accepted document contains it. Explores the
    /// product of the NFA (zero-closures as ε — variable operations read no
    /// input) with the KMP prefix automaton of `needle`, pruning any path on
    /// which the needle completes: the literal is required iff no accepting
    /// state is reachable on a needle-avoiding path, and such a path spells
    /// the counterexample.
    ///
    /// A product state is stepped once per *group* of bytes that move it
    /// alike, not once per byte: the bytes of one compiled class share
    /// their NFA targets, and every byte that does not occur in the needle
    /// resets the KMP state to 0. So each byte of the needle is a group of
    /// its own, the rest of each class is one more (stepped by its smallest
    /// byte), and the product states reached — hence the verdict — are
    /// those of stepping all 256 bytes.
    fn counterexample(&mut self, needle: &[u8]) -> Option<Vec<u8>> {
        /// `via` of a product state not reached yet / reached at the start.
        const UNSEEN: usize = usize::MAX;
        const ROOT: usize = usize::MAX - 1;
        let compiled = self.compiled;
        let m = needle.len();
        if m == 0 {
            return None;
        }
        let start = compiled.initial_closure();
        if start.intersects(compiled.accepting()) {
            // A document can end here with the needle unmatched.
            return Some(Vec::new());
        }
        let fail = kmp_failure(needle);
        let kmp_next = |mut k: usize, b: u8| -> usize {
            while k > 0 && needle[k] != b {
                k = fail[k - 1];
            }
            if needle[k] == b {
                k + 1
            } else {
                0
            }
        };
        let in_needle = ByteClass::of(needle);
        let outside = in_needle.complement();
        let mut groups: Vec<(usize, u8)> = in_needle
            .iter()
            .map(|b| (compiled.class_of(b), b))
            .collect();
        groups.extend((0..compiled.class_count()).filter_map(|class| {
            let rest = compiled.class_bytes(class).intersect(&outside);
            let smallest = rest.iter().next();
            smallest.map(|b| (class, b))
        }));

        // `via[q * m + k]`: the product state `(q, k)` was first reached
        // from, and the byte read on the way.
        self.via.clear();
        self.via.resize(compiled.state_count() * m, (UNSEEN, 0));
        self.stack.clear();
        for q in start.iter() {
            self.via[q * m] = (ROOT, 0);
            self.stack.push((q, 0));
        }
        while let Some((q, k)) = self.stack.pop() {
            for mv in self.moves.row(q) {
                for &(_, byte) in groups.iter().filter(|&&(c, _)| c == mv.class) {
                    let k2 = kmp_next(k, byte);
                    if k2 == m {
                        continue; // needle matched: not an avoiding path
                    }
                    if mv.accepts {
                        let mut doc = vec![byte];
                        let mut at = q * m + k;
                        while self.via[at].0 != ROOT {
                            doc.push(self.via[at].1);
                            at = self.via[at].0;
                        }
                        doc.reverse();
                        return Some(doc);
                    }
                    for &r in &self.next[mv.next.clone()] {
                        if self.via[r * m + k2].0 == UNSEEN {
                            self.via[r * m + k2] = (q * m + k, byte);
                            self.stack.push((r, k2));
                        }
                    }
                }
            }
        }
        None
    }
}

/// The KMP failure function of `needle`: `fail[i]` is the length of the
/// longest proper border of `needle[..=i]`.
fn kmp_failure(needle: &[u8]) -> Vec<usize> {
    let mut fail = vec![0usize; needle.len()];
    let mut k = 0;
    for i in 1..needle.len() {
        while k > 0 && needle[i] != needle[k] {
            k = fail[k - 1];
        }
        if needle[i] == needle[k] {
            k += 1;
        }
        fail[i] = k;
    }
    fail
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thompson::compile;
    use spanner_rgx::parse;

    fn compiled(pattern: &str) -> (crate::automaton::Vsa, CompiledVsa) {
        let vsa = compile(&parse(pattern).unwrap());
        let c = CompiledVsa::compile(&vsa);
        (vsa, c)
    }

    #[test]
    fn min_len_and_prefix_filters_fire() {
        let (_, c) = compiled("abc{x:d+}");
        let plan = c.scan_plan();
        assert_eq!(plan.min_len(), Some(4));
        let prefix = plan.prefix_class().expect("anchored prefix");
        assert!(prefix.contains(b'a') && !prefix.contains(b'b'));
        // Too short and wrong first byte are both skips, not scans.
        assert_eq!(c.prescan(&Document::new("ab")), PreScan::Skip);
        assert_eq!(c.prescan(&Document::new("xbcdddd")), PreScan::Skip);
        assert_eq!(c.prescan(&Document::new("abcd")), PreScan::Accept);
    }

    #[test]
    fn required_factors_are_found_and_filter_documents() {
        let (_, c) = compiled(".*{x:a+}@.*");
        let plan = c.scan_plan();
        // '@' must occur in every accepted document; 'a' as well.
        assert!(
            plan.required_factors()
                .iter()
                .any(|f| f.contains(b'@') && f.len() == 1),
            "{:?}",
            plan.required_factors()
        );
        assert_eq!(c.prescan(&Document::new("aaaa")), PreScan::Skip);
        assert_eq!(c.prescan(&Document::new("aa@x")), PreScan::Accept);
        // Factors present but no match: not ruled out, so the executor's
        // backward pass decides.
        assert_eq!(c.prescan(&Document::new("@aaa")), PreScan::Accept);
    }

    #[test]
    fn rarest_required_factor_survives_truncation() {
        // Five required classes — four 4-byte ranges and the singleton 'z'.
        // Class ids follow the smallest byte of each class, so 'z' is
        // discovered after all four ranges: truncating to MAX_FACTORS in
        // partition order would drop it; the rarest class must survive.
        let (_, c) = compiled("[a-d][e-h][i-l][m-p]z");
        let factors = c.scan_plan().required_factors();
        assert_eq!(factors.len(), MAX_FACTORS);
        assert!(
            factors.iter().any(|f| f.len() == 1 && f.contains(b'z')),
            "the singleton 'z' class must be kept: {factors:?}"
        );
        // Rarest first: the singleton sorts ahead of the ranges.
        assert_eq!(factors[0].len(), 1);
    }

    #[test]
    fn required_literals_recover_a_needle() {
        let (_, c) = compiled(".*needle.*");
        let literals = c.required_literals();
        assert!(
            literals.iter().any(|l| l == b"needle"),
            "full needle must be extracted: {literals:?}"
        );
        // Subsumption: no literal is a substring of another.
        for (i, a) in literals.iter().enumerate() {
            for (j, b) in literals.iter().enumerate() {
                if i != j {
                    assert!(!b.windows(a.len()).any(|w| w == a.as_slice()));
                }
            }
        }
    }

    #[test]
    fn literals_are_extracted_on_first_request_only() {
        let (_, c) = compiled(".*needle.*");
        assert_eq!(c.prescan(&Document::new("a needle")), PreScan::Accept);
        assert!(
            c.scan_plan().literals.get().is_none(),
            "evaluation never asks"
        );
        assert_eq!(c.required_literals(), [b"needle".to_vec()]);
        assert!(c.scan_plan().literals.get().is_some());
    }

    #[test]
    fn ordinary_literals_are_extracted_whole() {
        // 15 bytes, under MAX_LITERAL_LEN, in three explorations: the seed,
        // then each side's whole chain (the shortest accepted document *is*
        // the literal). Trying every singleton byte took 256.
        let (_, c) = compiled(".*{x:GET /index\\.html}.*");
        assert_eq!(c.required_literals(), [b"GET /index.html".to_vec()]);
        assert_eq!(c.literal_explorations(), 3);

        // Two literals around a class.
        let (_, c) = compiled(".*{x:user=[a-z]+} logged in from.*");
        assert_eq!(
            c.required_literals(),
            [b" logged in from".to_vec(), b"user=".to_vec()]
        );

        // The second literal used to be starved: the first one spent the
        // whole try budget.
        let (_, c) = compiled(".*{m:POST} /api/v1/orders .*status={s:[0-9]+}.*");
        assert_eq!(
            c.required_literals(),
            [b" /api/v1/orders ".to_vec(), b"status=".to_vec()]
        );
    }

    #[test]
    fn long_literals_are_cut_at_the_length_cap() {
        let long = "abcdefghijklmnopqrstuvwxyz0123456789ABCD";
        assert_eq!(long.len(), 40);
        let (_, c) = compiled(&format!(".*{long}.*"));
        let literals = c.required_literals();
        assert!(!literals.is_empty());
        for lit in literals {
            assert!(lit.len() <= MAX_LITERAL_LEN, "{literals:?}");
            assert!(contains_factor(long.as_bytes(), lit), "{literals:?}");
            assert_eq!(c.literal_counterexample(lit), None, "{literals:?}");
        }
        assert_eq!(literals[0].len(), MAX_LITERAL_LEN);
    }

    #[test]
    fn a_seed_inside_a_found_literal_still_finds_its_own() {
        // 'b' occurs in "ab", but grown on its own it reaches "ba": a factor
        // of a confirmed literal is confirmed for free, never skipped.
        let (_, c) = compiled(".*ab.*ba.*");
        assert_eq!(c.required_literals(), [b"ab".to_vec(), b"ba".to_vec()]);
    }

    #[test]
    fn contains_factor_checks_every_position() {
        assert!(contains_factor(b"abcabd", b"abd"));
        assert!(contains_factor(b"abd", b"abd"));
        assert!(!contains_factor(b"abcab", b"abd"));
        assert!(!contains_factor(b"ab", b"abd"));
        assert!(contains_factor(b"", b""));
    }

    #[test]
    fn requiredness_is_exact() {
        let (_, c) = compiled(".*ab.*abc.*");
        // Neither the first nor the last "ab" need be followed by 'c'.
        for (needle, required) in [("ab", true), ("abc", true), ("bc", true), ("ba", false)] {
            let refuted = c.literal_counterexample(needle.as_bytes());
            assert_eq!(refuted.is_none(), required, "{needle}: {refuted:?}");
        }
        // Every document contains the empty string.
        assert_eq!(c.literal_counterexample(b""), None);
        assert_eq!(c.required_literals(), [b"abc".to_vec()]);
    }

    #[test]
    fn anchored_prefix_extends_to_a_literal() {
        let (_, c) = compiled("abc{x:d*}");
        let literals = c.required_literals();
        assert!(
            literals.iter().any(|l| l == b"abc"),
            "anchored prefix chain: {literals:?}"
        );
        // 'd' is optional, so no literal may contain it.
        assert!(literals.iter().all(|l| !l.contains(&b'd')), "{literals:?}");
    }

    #[test]
    fn no_literals_without_singleton_classes_or_with_empty_doc() {
        // Multi-byte classes only: nothing can be pinned to exact bytes.
        let (_, c) = compiled("{x:[ab]+}");
        assert!(c.required_literals().is_empty());
        // The empty document is accepted: nothing is required.
        let (_, c) = compiled("{x:a*}");
        assert_eq!(c.scan_plan().min_len(), Some(0));
        assert!(c.required_literals().is_empty());
    }

    #[test]
    fn empty_language_is_skipped() {
        let (_, c) = compiled("[]");
        assert_eq!(c.scan_plan().min_len(), None);
        assert_eq!(c.prescan(&Document::new("")), PreScan::Skip);
        assert_eq!(c.prescan(&Document::new("anything")), PreScan::Skip);
    }

    #[test]
    fn scan_plan_survives_clone() {
        let (_, c) = compiled(".*{x:a+}.*");
        assert_eq!(c.required_literals(), [b"a".to_vec()]);
        let cloned = c.clone();
        assert_eq!(cloned.required_literals(), [b"a".to_vec()]);
        assert_eq!(cloned.prescan(&Document::new("a")), PreScan::Accept);
        assert_eq!(cloned.prescan(&Document::new("b")), PreScan::Skip);
    }
}
