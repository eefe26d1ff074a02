//! The one differential harness every oracle file runs on (DESIGN, "One
//! differential harness").
//!
//! A [`Case`] is a program — an RA tree over an instantiation, with the
//! SpannerQL text it came from while it has one — a corpus and a mutation
//! script: steps, each a batch of mutations. A [`Surface`] answers a case
//! with the relation of every document after one or more steps, asserting
//! on the way the tallies it promises; a panic is an answer too. [`check`]
//! holds every answer to the reference (`reference.rs`: the paper's
//! configuration-space interpreter at the leaves, naive operators above
//! them) over the corpus replayed to that step. On a disagreement it
//! shrinks the case while the surface still disagrees, and panics with the
//! smallest case as a ready-to-paste `#[test]`.
#![allow(dead_code)] // each oracle uses the surfaces it needs

use document_spanners::prelude::*;
use document_spanners::workloads::random_text;
use spanner_algebra::{tree_vars, NoTrace, PhysOp};
use spanner_paper::interpret;
use spanner_serve::{protocol::mappings_to_json, Json};
use spanner_vset::CompiledVsa;
use spanner_workloads::{random_ql_program, random_ra_tree, random_sequential_vsa};
use spanner_workloads::{RandomQlConfig, RandomRaConfig, RandomVsaConfig};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

mod reference;

/// What a surface saw: after `.0` steps of the script, one relation per
/// document.
pub type Seen = Vec<(usize, Vec<MappingSet>)>;

#[derive(Clone)]
pub struct Case {
    pub tree: RaTree,
    pub inst: Instantiation,
    /// The SpannerQL source, until shrinking rewrites the program.
    pub text: Option<String>,
    pub docs: Vec<String>,
    pub script: Vec<Vec<Mutation>>,
    /// The generator call that drew the case: a shrunk case takes its
    /// automata from there.
    pub origin: String,
}

pub fn strings<S: AsRef<str>>(docs: impl IntoIterator<Item = S>) -> Vec<String> {
    docs.into_iter().map(|d| d.as_ref().to_string()).collect()
}

impl Case {
    pub fn ra<S: AsRef<str>>(tree: RaTree, inst: Instantiation, docs: &[S]) -> Case {
        Case {
            tree,
            inst,
            text: None,
            docs: strings(docs),
            script: vec![],
            origin: String::new(),
        }
    }

    /// A program given as SpannerQL text.
    pub fn ql<S: AsRef<str>>(text: &str, docs: &[S]) -> Case {
        let lowered = parse_program(text).and_then(|p| p.lower());
        let lowered = lowered.unwrap_or_else(|e| panic!("{}\n{text}", e.pretty(text)));
        let mut case = Case::ra(lowered.tree, lowered.inst, docs);
        case.text = Some(text.into());
        case
    }

    pub fn script(self, script: Vec<Vec<Mutation>>) -> Case {
        Case { script, ..self }
    }

    /// A script of one mutation a step.
    pub fn steps(self, script: Vec<Mutation>) -> Case {
        self.script(script.into_iter().map(|m| vec![m]).collect())
    }

    fn from(self, origin: String) -> Case {
        Case { origin, ..self }
    }

    /// The corpus after the first `steps` steps, a deleted document being
    /// the empty one; `None` if a mutation names a document not there.
    pub fn replay(&self, steps: usize) -> Option<Vec<String>> {
        let mut docs = self.docs.clone();
        for m in self.script[..steps].iter().flatten() {
            match m {
                Mutation::Append { text } => docs.push(text.clone()),
                Mutation::Update { id, text } => *docs.get_mut(*id as usize)? = text.clone(),
                Mutation::Delete { id } => docs.get_mut(*id as usize)?.clear(),
            }
        }
        Some(docs)
    }

    /// The corpus at the end of the script.
    pub fn corpus(&self) -> Vec<Document> {
        let docs = self.replay(self.script.len()).expect("a valid script");
        docs.iter().map(Document::new).collect()
    }

    /// Answers seen at the end of the script.
    pub fn end<const N: usize>(&self, answers: [Vec<MappingSet>; N]) -> Option<Seen> {
        let end = self.script.len();
        Some(answers.into_iter().map(|sets| (end, sets)).collect())
    }

    /// `f` on every document at the end of the script.
    pub fn each_doc(&self, f: impl Fn(&Document) -> MappingSet) -> Option<Seen> {
        self.end([self.corpus().iter().map(f).collect()])
    }

    /// The program as SpannerQL text; `None` if an atom is an automaton.
    pub fn ql_text(&self) -> Option<String> {
        self.text.clone().or_else(|| render(&self.tree, &self.inst))
    }

    pub fn plan(&self, options: RaOptions) -> CompiledPlan {
        CompiledPlan::compile(&self.tree, &self.inst, options).unwrap()
    }

    pub fn engine(&self) -> CorpusEngine {
        CorpusEngine::from_plan(self.plan(RaOptions::default()))
    }

    /// The corpus in a store, the first `steps` steps applied.
    pub fn store(&self, steps: usize) -> Store {
        let docs = self.docs.iter().map(Document::new).collect();
        let mut store = Store::build(docs).unwrap();
        for m in self.script[..steps].iter().flatten() {
            store.apply(m).unwrap();
        }
        store
    }
}

/// A way of answering a case, by name; `run` answers `None` for a case it
/// does not apply to.
pub struct Surface<'a> {
    pub name: String,
    pub run: Run<'a>,
}

pub type Run<'a> = Box<dyn Fn(&Case) -> Option<Seen> + 'a>;

pub fn surface<'a>(name: impl ToString, run: impl Fn(&Case) -> Option<Seen> + 'a) -> Surface<'a> {
    Surface {
        name: name.to_string(),
        run: Box::new(run),
    }
}

// ------------------------------------------------------------ comparison

/// The reference on one case: its leaves' automata, and its relation by
/// document (`None` where the reference cannot answer).
type Memo = (
    Option<Option<reference::Leaves>>,
    HashMap<String, Option<MappingSet>>,
);

fn reference(case: &Case, (leaves, sets): &mut Memo, text: &str) -> Option<MappingSet> {
    let leaves = leaves.get_or_insert_with(|| reference::leaves(&case.tree, &case.inst));
    let doc = Document::new(text);
    let eval = || Some(reference::evaluate(&case.tree, leaves.as_ref()?, &doc));
    sets.entry(text.into()).or_insert_with(eval).clone()
}

/// How a surface answered a case.
enum Verdict {
    /// As the reference, on every answer.
    Agrees,
    /// Not at all: a step names a document that is not there, or the
    /// reference fails on a document.
    Broken(String),
    /// Otherwise: the first answer that differs, or the surface's panic.
    Disagrees(String),
}

fn judge(case: &Case, surface: &Surface, memo: &mut Memo) -> Verdict {
    let mut reference = |text: &String| reference(case, memo, text);
    let Some(last) = case.replay(case.script.len()) else {
        return Verdict::Broken("a mutation names a document that is not there".into());
    };
    if let Some(i) = last.iter().position(|d| reference(d).is_none()) {
        let why = format!("the reference fails on document {i} {:?}", last[i]);
        return Verdict::Broken(why);
    }
    let seen = match catch_unwind(AssertUnwindSafe(|| (surface.run)(case))) {
        Ok(seen) => seen,
        Err(panic) => {
            let text = panic.downcast_ref::<String>().cloned();
            let text = text.or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()));
            return Verdict::Disagrees(format!("panicked: {}", text.unwrap_or_default()));
        }
    };
    for (k, (step, sets)) in seen.unwrap_or_default().iter().enumerate() {
        // A prefix of a script that replays replays too.
        let docs = case.replay(*step).unwrap();
        let at = format!("answer {k}, after {step} steps");
        if sets.len() != docs.len() {
            let (n, m) = (sets.len(), docs.len());
            return Verdict::Disagrees(format!("{at}: {n} relations for {m} documents"));
        }
        for (i, (text, got)) in docs.iter().zip(sets).enumerate() {
            let Some(want) = reference(text) else {
                let why =
                    format!("the reference fails on document {i} {text:?} after {step} steps");
                return Verdict::Broken(why);
            };
            if *got != want {
                let why = format!("{at}, document {i} {text:?}:\n  answer    {got:?}");
                return Verdict::Disagrees(format!("{why}\n  reference {want:?}"));
            }
        }
    }
    Verdict::Agrees
}

/// `check` on every case.
pub fn check_all(cases: impl IntoIterator<Item = Case>, surfaces: &[Surface]) {
    cases.into_iter().for_each(|case| check(&case, surfaces));
}

/// Every surface — those given, then [`relational`] — answers `case` as
/// the reference does, or this panics with the case shrunk.
pub fn check(case: &Case, surfaces: &[Surface]) {
    if let Some((small, name, why)) = first_failure(case, surfaces) {
        let headline = format!("surface {name:?} disagrees with the reference");
        panic!("{}", repro(&small, &headline, &why));
    }
}

/// The first surface that disagrees on `case` (the given ones, then
/// [`relational`]): the case shrunk while that surface still disagrees,
/// the surface's name and the disagreement. Panics if the reference cannot
/// answer `case` itself; a shrinking candidate it cannot answer is only not
/// a disagreement.
pub fn first_failure(case: &Case, surfaces: &[Surface]) -> Option<(Case, String, String)> {
    let mut memo = Memo::default();
    let relational = relational();
    let mut all = surfaces.iter().chain([&relational]);
    let (failing, why) = all.find_map(|s| match judge(case, s, &mut memo) {
        Verdict::Agrees => None,
        Verdict::Broken(why) => panic!(
            "{}",
            repro(case, "the reference cannot answer the case", &why)
        ),
        Verdict::Disagrees(why) => Some((s, why)),
    })?;
    let disagrees = |c: Case| match quietly(|| judge(&c, failing, &mut Memo::default())) {
        Verdict::Disagrees(why) => Some((c, why)),
        _ => None,
    };
    let mut small = (case.clone(), why);
    while let Some(next) = smaller(&small.0).into_iter().find_map(&disagrees) {
        small = next;
    }
    let (small, why) = small;
    Some((small, failing.name.clone(), why))
}

thread_local!(static QUIET: std::cell::Cell<bool> = const { std::cell::Cell::new(false) });

/// `f` with this thread's panics kept off the test output: a shrinking
/// candidate's are expected.
fn quietly<T>(f: impl FnOnce() -> T) -> T {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let loud = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !QUIET.get() {
                loud(info)
            }
        }));
    });
    QUIET.set(true);
    let out = f();
    QUIET.set(false);
    out
}

// ------------------------------------------------------------- shrinking

/// One-step reductions of a case, in the order they are tried: drop a
/// document, drop a step, replace a subtree by a child, replace an atom by
/// ε or one letter, shrink inside a formula, halve a document.
fn smaller(case: &Case) -> Vec<Case> {
    let edit = |f: &dyn Fn(&mut Case)| {
        let mut c = case.clone();
        f(&mut c);
        c
    };
    let mut out = Vec::new();
    for i in 0..case.docs.len() {
        out.push(edit(&|c| drop(c.docs.remove(i))));
    }
    for i in 0..case.script.len() {
        out.push(edit(&|c| drop(c.script.remove(i))));
    }
    for tree in subtrees(&case.tree) {
        out.push(edit(&|c| (c.tree, c.text) = (tree.clone(), None)));
    }
    for id in leaves(&case.tree) {
        let rgx = match case.inst.atom(id) {
            Some(Atom::Rgx(r)) => Some(r),
            _ => None,
        };
        let letter = rgx.is_none_or(|r| r.size() > 1);
        let mut atoms = vec![Rgx::Epsilon];
        atoms.extend(b"ab".iter().filter(|_| letter).map(|&b| Rgx::symbol(b)));
        atoms.extend(rgx.map(smaller_rgx).unwrap_or_default());
        for atom in atoms.into_iter().filter(|a| Some(a) != rgx) {
            let inst = case.inst.clone().with(id, atom);
            out.push(edit(&|c| (c.inst, c.text) = (inst.clone(), None)));
        }
    }
    for (i, doc) in case.docs.iter().enumerate() {
        let mid = (0..=doc.len() / 2).rev().find(|&m| doc.is_char_boundary(m));
        let (head, tail) = doc.split_at(mid.unwrap());
        for half in [head, tail].into_iter().filter(|h| h.len() < doc.len()) {
            out.push(edit(&|c| c.docs[i] = half.to_string()));
        }
    }
    out
}

fn leaves(tree: &RaTree) -> Vec<usize> {
    let mut ids = tree.leaves();
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// Each tree with one node replaced by one of its children.
fn subtrees(tree: &RaTree) -> Vec<RaTree> {
    let (l, r) = match tree {
        RaTree::Leaf(_) => return Vec::new(),
        RaTree::Project(vars, c) => {
            let project = |s| RaTree::project(vars.clone(), s);
            let inner = subtrees(c).into_iter().map(project);
            return std::iter::once((**c).clone()).chain(inner).collect();
        }
        RaTree::Union(l, r) | RaTree::Join(l, r) | RaTree::Difference(l, r) => (&**l, &**r),
    };
    let with = |l: &RaTree, r: &RaTree| match tree {
        RaTree::Union(..) => RaTree::union(l.clone(), r.clone()),
        RaTree::Join(..) => RaTree::join(l.clone(), r.clone()),
        _ => RaTree::difference(l.clone(), r.clone()),
    };
    let mut out = vec![l.clone(), r.clone()];
    out.extend(subtrees(l).iter().map(|s| with(s, r)));
    out.extend(subtrees(r).iter().map(|s| with(l, s)));
    out
}

type Rebuild = fn(Vec<Rgx>) -> Rgx;

/// Each formula with one part of a union or concatenation dropped, or a
/// star or capture replaced by its body: strictly smaller, so shrinking
/// ends.
fn smaller_rgx(rgx: &Rgx) -> Vec<Rgx> {
    let (parts, rebuild): (&[Rgx], Rebuild) = match rgx {
        Rgx::Concat(p) => (p, Rgx::Concat),
        Rgx::Union(p) => (p, Rgx::Union),
        Rgx::Star(body) | Rgx::Capture(_, body) => {
            let rebuild = |s| match rgx {
                Rgx::Capture(x, _) => Rgx::Capture(x.clone(), Box::new(s)),
                _ => Rgx::Star(Box::new(s)),
            };
            let inner = smaller_rgx(body).into_iter().map(rebuild);
            return std::iter::once((**body).clone()).chain(inner).collect();
        }
        _ => return Vec::new(),
    };
    let mut out = Vec::new();
    for i in (0..parts.len()).filter(|_| parts.len() > 1) {
        let mut p = parts.to_vec();
        p.remove(i);
        out.push(if p.len() > 1 { rebuild(p) } else { p.remove(0) });
    }
    for (i, part) in parts.iter().enumerate() {
        for s in smaller_rgx(part) {
            let mut p = parts.to_vec();
            p[i] = s;
            out.push(rebuild(p));
        }
    }
    out
}

// -------------------------------------------------------------- printing

/// A tree as SpannerQL text over `leaf`, or (`rust`) as the Rust that
/// builds it.
fn render_with(
    tree: &RaTree,
    leaf: &dyn Fn(usize) -> Option<String>,
    rust: bool,
) -> Option<String> {
    let go = |t: &RaTree| render_with(t, leaf, rust);
    let operand = |t: &RaTree| match t {
        RaTree::Leaf(_) => go(t),
        _ if rust => go(t),
        _ => Some(format!("({})", go(t)?)),
    };
    let (l, r, op) = match tree {
        RaTree::Leaf(id) => return leaf(*id),
        RaTree::Project(vars, c) if rust => {
            let vars = strings(vars.iter().map(|v| v.to_string()));
            return Some(format!("RaTree::project({vars:?}, {})", go(c)?));
        }
        RaTree::Project(vars, c) => {
            let vars = strings(vars.iter().map(|v| format!("{v} "))).join(", ");
            let vars = vars.replace(" ,", ",");
            return Some(format!("project {vars}({})", go(c)?));
        }
        RaTree::Union(l, r) => (l, r, ["union", "union"]),
        RaTree::Join(l, r) => (l, r, ["join", "join"]),
        RaTree::Difference(l, r) => (l, r, ["minus", "difference"]),
    };
    let (l, r) = (operand(l)?, operand(r)?);
    let rendered = [
        format!("{l} {} {r}", op[0]),
        format!("RaTree::{}({l}, {r})", op[1]),
    ];
    rendered.into_iter().nth(rust as usize)
}

fn render(tree: &RaTree, inst: &Instantiation) -> Option<String> {
    let leaf = |id| match inst.atom(id)? {
        Atom::Rgx(r) => Some(format!("/{}/", r.to_string().replace('/', "\\/"))),
        _ => None,
    };
    render_with(tree, &leaf, false)
}

fn rust_tree(tree: &RaTree) -> String {
    render_with(tree, &|id| Some(format!("RaTree::leaf({id})")), true).unwrap()
}

/// The case as a `#[test]`: QL text when every atom is a formula, else the
/// tree over its origin's automata and its own formulas.
fn repro(case: &Case, headline: &str, why: &str) -> String {
    let docs = format!("{:?}", case.docs).replace("[]", "[\"\"; 0]");
    let indent = "\n        ";
    let program = match case.ql_text() {
        Some(text) => format!("Case::ql({text:?}, &{docs})"),
        None => {
            let formula = |id| match case.inst.atom(id) {
                Some(Atom::Rgx(r)) => {
                    format!("{indent}.with({id}, parse({:?}).unwrap())", r.to_string())
                }
                _ => String::new(),
            };
            let atoms: String = leaves(&case.tree).into_iter().map(formula).collect();
            let (tree, origin) = (rust_tree(&case.tree), &case.origin);
            format!("Case::ra({indent}{tree},{indent}{origin}.inst{atoms},{indent}&{docs},\n    )")
        }
    };
    let mutation = |m: &Mutation| match m {
        Mutation::Append { text } => format!("Mutation::Append {{ text: {text:?}.into() }}"),
        Mutation::Delete { id } => format!("Mutation::Delete {{ id: {id} }}"),
        Mutation::Update { id, text } => {
            format!("Mutation::Update {{ id: {id}, text: {text:?}.into() }}")
        }
    };
    let step = |s: &Vec<Mutation>| format!("vec![{}]", strings(s.iter().map(mutation)).join(", "));
    let script = match strings(case.script.iter().map(step)).join(", ") {
        steps if steps.is_empty() => steps,
        steps => format!("\n    .script(vec![{steps}])"),
    };
    let from = match &case.origin[..] {
        "" => String::new(),
        origin => format!(" ({origin})"),
    };
    format!(
        "{headline}{from}:\n{why}\n\n#[test]\n\
         fn shrunk_case() {{\n    let case = {program}{script};\n    \
         // `surfaces`: the failing test's list.\n    check(&case, &surfaces);\n}}\n"
    )
}

// ------------------------------------------------------------ generators

/// Documents over the automata's `ab` alphabet.
const AB_DOCS: [&str; 8] = ["", "a", "ab", "ba", "abab", "bbab", "aabba", "babab"];
/// Documents over the formulas' `abc` alphabet; the materialized reference
/// is exponential, so they stay short.
pub const SHORT_DOCS: [&str; 5] = ["", "a", "ab", "bca", "abab"];

/// A mixed corpus: the `|`-separated `head`, then `n` random lines over
/// `abc` of lengths `len`, `len + step`, … (line `i` drawn from `seed ·
/// stride + i`), then the `tail`.
pub fn mixed(seed: u64, head: &str, shape: (u64, usize, usize, u64), tail: &str) -> Vec<String> {
    let (n, len, step, stride) = shape;
    let line = |i| random_text(len + step * i as usize, b"abc", seed * stride + i);
    let random = (0..n).map(|i| line(i).text().to_string());
    let fixed = |s: &str| strings(s.split('|'));
    let docs = fixed(head).into_iter().chain(random);
    docs.chain(fixed(tail)).collect()
}

/// The store, delta and daemon oracles' corpus: empty documents, multi-byte
/// UTF-8 (Greek, combining marks), random text and two planted needles;
/// the last line is not empty.
pub fn store_corpus(seed: u64) -> Vec<String> {
    let head = "|a|ab|bca|abab||β-reduction over αβγ|naïve café décor|δδδ|aβb";
    mixed(
        seed,
        head,
        (8, 16, 3, 31),
        "prefix needle suffix|aaneedlebb",
    )
}

/// Automata, `(variables, prefix, seed)` each, under `tree`, over the `ab`
/// documents.
pub fn vsa_case(tree: RaTree, atoms: &[(usize, &'static str, u64)]) -> Case {
    let origin = format!("vsa_case({}, &{atoms:?})", rust_tree(&tree));
    let mut inst = Instantiation::new();
    for (id, &(vars, prefix, seed)) in atoms.iter().enumerate() {
        let mut config = RandomVsaConfig::default();
        (config.layers, config.width) = (4, 2);
        (config.num_vars, config.var_prefix) = (vars, prefix);
        inst = inst.with(id, random_sequential_vsa(config, seed));
    }
    Case::ra(tree, inst, &AB_DOCS).from(origin)
}

/// Formulas with loops a letter steps back into, over documents with long
/// runs: the cases where the enumerator crosses most positions instead of
/// searching them (DESIGN §8, "Stretches") — to the end of the document,
/// up to a branch, and broken by a letter that leaves the loop. The random
/// automata of [`vsa_case`] are layered and almost never loop.
pub fn stretch_cases() -> impl Iterator<Item = Case> {
    const FORMULAS: [&str; 7] = [
        ".*{x:a+}.*",
        "{x:.*}b",
        "a*{x:b*}a*",
        ".*({y:c})?.*",
        "(a|b)*{x:c+}.*",
        ".*{x:a}.*{y:b}",
        ".*{x:c.*}",
    ];
    const DOCS: [&str; 7] = [
        "",
        "a",
        "aaaaaab",
        "abababab",
        "bbbbcbbbb",
        "aaaccccab",
        "aabbccaabbcc",
    ];
    FORMULAS
        .map(|f| Case::ql(&format!("/{f}/"), &DOCS))
        .into_iter()
}

/// The automaton of a leaf (a formula's Thompson automaton).
pub fn leaf_vsa(case: &Case, tree: &RaTree) -> Option<Vsa> {
    let RaTree::Leaf(id) = tree else { return None };
    match case.inst.atom(*id)? {
        Atom::Vsa(a) => Some(a.clone()),
        Atom::Rgx(r) => Some(compile(r)),
        Atom::BlackBox(_) => None,
    }
}

/// A random RA tree over automata and formulas, drawn from `seed + offset`
/// in the shape `seed` picks.
pub fn ra_case<S: AsRef<str>>(seed: u64, offset: u64, docs: &[S]) -> Case {
    let mut config = RandomRaConfig::default();
    (config.depth, config.leaves) = (2 + seed as usize % 2, 2 + seed as usize % 3);
    config.allow_difference = !seed.is_multiple_of(4);
    let (tree, inst) = random_ra_tree(config, seed + offset);
    Case::ra(tree, inst, docs).from(format!("ra_case({seed}, {offset}, &[\"\"])"))
}

/// [`ra_case`], and on a quarter of the seeds a second case: that tree
/// joined with a formula binding one of its variables to an `a`. The
/// generator's leaves draw variables from two name pools, so its joins
/// seldom meet on a variable two different leaves bind — where the vset
/// product and `MappingSet::join` can go wrong.
pub fn ra_cases<S: AsRef<str>>(seed: u64, offset: u64, docs: &[S]) -> Vec<Case> {
    let case = ra_case(seed, offset, docs);
    let var = tree_vars(&case.tree, &case.inst)
        .ok()
        .and_then(|v| v.iter().next().cloned());
    let joined = var.filter(|_| seed % 4 == 1).map(|x| {
        let id = case.inst.len();
        let formula = parse(&format!(".*{{{x}:a}}.*")).unwrap();
        Case {
            tree: RaTree::join(case.tree.clone(), RaTree::leaf(id)),
            inst: case.inst.clone().with(id, formula),
            ..case.clone()
        }
    });
    [case].into_iter().chain(joined).collect()
}

/// A random SpannerQL program, checked to lower to exactly the tree its
/// generator built beside the text.
pub fn ql_case<S: AsRef<str>>(seed: u64, offset: u64, docs: &[S]) -> Case {
    let mut config = RandomQlConfig::default();
    (config.bindings, config.depth) = (2 + seed as usize % 2, 2 + seed as usize % 2);
    config.allow_difference = !seed.is_multiple_of(4);
    let program = random_ql_program(config, seed + offset);
    let case = Case::ql(&program.text, docs);
    assert_eq!(case.tree, program.tree, "seed {seed}:\n{}", program.text);
    assert_eq!(case.inst.len(), program.inst.len(), "seed {seed}");
    case.from(format!("ql_case({seed}, {offset}, &[\"\"])"))
}

/// The planner on (the default options) or off.
pub fn ra_options(optimize: bool) -> RaOptions {
    if optimize {
        RaOptions::default()
    } else {
        RaOptions::unoptimized()
    }
}

/// Mappings listed by an enumerator, held to listing each one once.
pub fn distinct(listed: Vec<Mapping>) -> MappingSet {
    let n = listed.len();
    let set = MappingSet::from_mappings(listed);
    assert_eq!(set.len(), n, "a mapping was listed twice");
    set
}

/// A stream's mappings, each listed once.
pub fn streamed<E: std::fmt::Debug>(
    stream: Result<impl Iterator<Item = Result<Mapping, E>>, E>,
) -> MappingSet {
    distinct(stream.unwrap().map(Result::unwrap).collect())
}

// -------------------------------------------------------------- surfaces

/// The tree evaluated node by node with every leaf run through the
/// configuration-space interpreter, not the enumerator the reference's
/// leaves run on.
pub fn interpreter() -> Surface<'static> {
    fn eval(case: &Case, tree: &RaTree, doc: &Document) -> MappingSet {
        let (l, r) = match tree {
            RaTree::Leaf(_) => return interpret(&leaf_vsa(case, tree).unwrap(), doc),
            RaTree::Project(vars, c) => return eval(case, c, doc).project(vars),
            RaTree::Union(l, r) | RaTree::Join(l, r) | RaTree::Difference(l, r) => (l, r),
        };
        let (l, r) = (eval(case, l, doc), eval(case, r, doc));
        match tree {
            RaTree::Union(..) => l.union(&r),
            RaTree::Join(..) => l.join(&r),
            _ => l.difference(&r),
        }
    }
    surface("interpreter", |case| {
        case.each_doc(|d| eval(case, &case.tree, d))
    })
}

/// Every node of the tree as the executor's relational operator — hash
/// join, anti-join, union, projection — over one compiled scan per leaf,
/// executed on every document after every step of the script. Lowering
/// compiles a static join into one automaton and leaves `MappingSet`'s
/// operators to the nodes above a dynamic one, which few random cases
/// have; [`check`] holds this surface to the reference on every case, so
/// those operators and the enumerator are checked everywhere.
pub fn relational() -> Surface<'static> {
    fn lower(case: &Case, tree: &RaTree) -> Option<PhysOp> {
        let op = |t: &RaTree| lower(case, t).map(Box::new);
        Some(match tree {
            RaTree::Leaf(_) => PhysOp::CompiledScan {
                compiled: Arc::new(CompiledVsa::compile(&leaf_vsa(case, tree)?)),
                fast_path: true,
            },
            RaTree::Project(keep, c) => PhysOp::Project {
                keep: keep.clone(),
                input: op(c)?,
            },
            RaTree::Union(l, r) => PhysOp::UnionAll(vec![*op(l)?, *op(r)?]),
            RaTree::Join(l, r) => PhysOp::HashJoin {
                left: op(l)?,
                right: op(r)?,
            },
            RaTree::Difference(l, r) => PhysOp::Difference {
                input: op(l)?,
                probe: op(r)?,
            },
        })
    }
    surface("every operator relational, after every step", |case| {
        let root = lower(case, &case.tree)?;
        let mut relations: HashMap<String, MappingSet> = HashMap::new();
        let mut seen = Seen::new();
        for step in 0..=case.script.len() {
            let mut relation = |text: &String| {
                let eval = || root.execute(&Document::new(text), usize::MAX, false, &mut NoTrace);
                relations
                    .entry(text.clone())
                    .or_insert_with(|| eval().unwrap())
                    .clone()
            };
            seen.push((step, case.replay(step)?.iter().map(&mut relation).collect()));
        }
        Some(seen)
    })
}

/// The compiled plan with the scan fast path on, then off, each through
/// `evaluate`, `stream` and a two-thread corpus pass: six answers. Off, the
/// pass skips and rejects nothing; the two streams list alike, in order.
pub fn fast_path() -> Surface<'static> {
    surface("fast path on and off", |case| {
        let docs = case.corpus();
        let mut listings = vec![];
        let mut seen = vec![];
        for scan_fast_path in [true, false] {
            let plan = case.plan(RaOptions {
                scan_fast_path,
                ..RaOptions::default()
            });
            let listed = |d| plan.stream(d).unwrap().map(Result::unwrap).collect();
            listings.push(docs.iter().map(listed).collect::<Vec<Vec<_>>>());
            seen.push(docs.iter().map(|d| plan.evaluate(d).unwrap()).collect());
            let sets = listings.last().unwrap().iter().cloned();
            seen.push(sets.map(distinct).collect());
            let pass = CorpusEngine::from_plan(plan).scan(&docs, 2).unwrap();
            let stats = pass.stats;
            assert!(scan_fast_path || stats.docs_skipped == 0, "{stats:?}");
            seen.push(dense(pass).results);
        }
        let order = "the streams list in different orders";
        assert_eq!(listings[0], listings[1], "{order}");
        let end = case.script.len();
        Some(seen.into_iter().map(|sets| (end, sets)).collect())
    })
}

/// The store through its dense and sparse entry points: both cover the whole
/// corpus, the sparse answer made dense is the dense one, and every document
/// outside the candidates is skipped unread.
pub fn indexed(threads: usize) -> Surface<'static> {
    surface(format!("store, {threads} threads"), move |case| {
        let (store, engine) = (case.store(case.script.len()), case.engine());
        let out = store.query(&engine, threads).unwrap();
        let sparse = store.query_matches(&engine, threads).unwrap();
        assert_eq!(sparse.candidates, out.candidates);
        assert_eq!(sparse.selectivity(), out.selectivity());
        assert_same_answer(sparse.output, &out.output, "sparse");
        let stats = out.output.stats;
        let n = store.len();
        assert_eq!(stats.documents, n);
        let skipped = out.candidates.is_none_or(|c| stats.docs_skipped >= n - c);
        assert!(skipped, "{:?} candidates: {stats:?}", out.candidates);
        case.end([out.output.results])
    })
}

/// The unindexed corpus pass, sparse and dense.
pub fn unindexed(threads: usize) -> Surface<'static> {
    surface(format!("full scan, {threads} threads"), move |case| {
        let (engine, docs) = (case.engine(), case.corpus());
        let full = engine.scan(&docs, threads).unwrap().into_dense();
        assert_same_answer(engine.scan(&docs, threads).unwrap(), &full, "sparse");
        case.end([full.results])
    })
}

/// A store saved, and loaded back: its file's bytes and the loaded store.
pub fn saved(store: &Store) -> (Vec<u8>, Store) {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let name = format!("spanner-oracle-{}-{n}.seg", std::process::id());
    let path = std::env::temp_dir().join(name);
    store.save(&path).unwrap();
    let saved = (std::fs::read(&path).unwrap(), Store::load(&path).unwrap());
    std::fs::remove_file(&path).ok();
    saved
}

/// A daemon on an ephemeral port compiling with the optimizer on or off,
/// and a client connected to it.
pub struct Daemon {
    client: std::cell::RefCell<Client>,
    handle: std::thread::JoinHandle<std::io::Result<()>>,
    pub optimize: bool,
}

impl Daemon {
    pub fn start(optimize: bool) -> Daemon {
        let ra_options = ra_options(optimize);
        let options = ServeOptions {
            threads: 2,
            ra_options,
            ..ServeOptions::default()
        };
        let (addr, handle) = Server::bind("127.0.0.1:0", options).unwrap().spawn();
        let client = Client::connect(addr).unwrap().into();
        Daemon {
            client,
            handle,
            optimize,
        }
    }

    pub fn stop(self) {
        self.client.into_inner().shutdown().unwrap();
        self.handle.join().unwrap().unwrap();
    }

    /// One request, answered.
    pub fn send(&self, request: &Json) -> Json {
        let line = self.client.borrow_mut().request_line(&request.to_string());
        Json::parse(&line.unwrap()).expect("a JSON response")
    }

    /// One request, answered `"ok":true`.
    pub fn ok(&self, request: Json) -> Json {
        let response = self.send(&request);
        let ok = response.get("ok") == Some(&Json::Bool(true));
        assert!(ok, "{request} → {response}");
        response
    }

    /// `query_corpus` for the case's program over `docs` as text, or with
    /// `None` over the resident store.
    pub fn query_corpus(&self, case: &Case, docs: Option<&[String]>) -> Option<Json> {
        let program = ("program", Json::string(case.ql_text()?));
        let mut fields = vec![("op", Json::string("query_corpus")), program];
        fields.extend(docs.map(|docs| ("text", Json::string(lines(docs)))));
        Some(self.ok(Json::object(fields)))
    }

    /// Text-mode `query_corpus`, sent twice: the cached answer is the cold
    /// one but for `"cached"`.
    pub fn text_queries(&self) -> Surface<'_> {
        surface(format!("daemon, optimize={}", self.optimize), |case| {
            let docs = case.replay(case.script.len())?;
            let cold = self.query_corpus(case, Some(&docs))?.to_string();
            let warm = self.query_corpus(case, Some(&docs))?;
            let cached = cold.replace(r#""cached":false"#, r#""cached":true"#);
            assert_eq!(
                cached,
                warm.to_string(),
                "a cached answer, else the cold one"
            );
            case.end([relations(&warm, &docs)])
        })
    }
}

/// Documents as protocol text, every line terminated, so that an empty
/// last document is one too.
pub fn lines(docs: &[String]) -> String {
    assert!(docs.iter().all(|d| !d.contains(['\n', '\r'])));
    docs.iter().map(|d| format!("{d}\n")).collect()
}

/// The relations of a `query_corpus` answer, each held on the way to the
/// reference renderer `mappings_to_json`.
pub fn relations(response: &Json, docs: &[String]) -> Vec<MappingSet> {
    let mut sets = vec![MappingSet::new(); docs.len()];
    let number = |n: &Json| n.as_usize().unwrap();
    let mut next = 0;
    for result in response.get("results").and_then(Json::as_array).unwrap() {
        let span = |s: &Json| match s.get("span").and_then(Json::as_array) {
            Some([start, end]) => Span::new(number(start) as u32, number(end) as u32),
            _ => panic!("{s}"),
        };
        let mapping = |m: &Json| match m {
            Json::Object(vars) => {
                Mapping::from_pairs(vars.iter().map(|(x, s)| (x.as_str(), span(s))))
            }
            _ => panic!("{m}"),
        };
        let mappings = result.get("mappings").and_then(Json::as_array).unwrap();
        let set: MappingSet = mappings.iter().map(mapping).collect();
        let line = number(result.get("line").unwrap());
        // One result per matching line, in corpus order.
        assert!(
            line >= next && line < docs.len(),
            "line {line} after {next}"
        );
        next = line + 1;
        let rendered = mappings_to_json(&Document::new(&docs[line]), &set);
        assert_eq!(result.get("mappings"), Some(&rendered), "line {line}");
        let count = result.get("count").map(number);
        assert_eq!(count, Some(set.len()), "line {line}: count");
        assert!(!set.is_empty(), "line {line}: a result without mappings");
        sets[line] = set;
    }
    sets
}

/// A sparse answer held to its own contract — id-sorted, no empty relation,
/// `get` agreeing with the slot for every document, tallies that count its
/// relations — and made dense.
pub fn dense(sparse: CorpusMatches) -> CorpusResult {
    let ids: Vec<u32> = sparse.matches.iter().map(|(id, _)| *id).collect();
    assert!(ids.windows(2).all(|pair| pair[0] < pair[1]), "{ids:?}");
    assert!(sparse.matches.iter().all(|(_, set)| !set.is_empty()));
    let n = sparse.stats.documents as u32;
    let looked_up: Vec<_> = (0..=n).map(|id| sparse.get(id).cloned()).collect();
    assert_eq!(looked_up[n as usize], None);
    let out = sparse.into_dense();
    for (slot, found) in out.results.iter().zip(looked_up) {
        assert_eq!(slot, &found.unwrap_or_default());
    }
    let sizes = out.results.iter().map(MappingSet::len);
    let tallies = (sizes.clone().sum(), sizes.filter(|&n| n > 0).count());
    assert_eq!((out.stats.mappings, out.stats.matched_documents), tallies);
    out
}

/// The sparse answer made dense is the dense answer: the relations and
/// every tally (the clock aside).
pub fn assert_same_answer(sparse: CorpusMatches, dense_answer: &CorpusResult, context: &str) {
    let tallies = |s: CorpusStats| {
        let counts = (s.documents, s.mappings, s.matched_documents);
        (counts, s.threads, s.docs_skipped)
    };
    let same = tallies(sparse.stats) == tallies(dense_answer.stats);
    assert!(
        same,
        "{context}: {:?} {:?}",
        sparse.stats, dense_answer.stats
    );
    assert_eq!(dense(sparse).results, dense_answer.results, "{context}");
}

/// How a view query was served: delta, hits, invalidated, candidates and
/// the generation the view now reflects.
pub fn served<R>(o: &ViewQueryOutcome<R>) -> [u64; 5] {
    let candidates = o.candidates.map_or(u64::MAX, |n| n as u64);
    let counts = [o.delta_docs, o.view_hits, o.invalidated].map(|n| n as u64);
    [counts[0], counts[1], counts[2], candidates, o.generation]
}

/// Twin views hold the same: mappings retained, snapshot kept, generation.
pub fn assert_same_view(sparse: &QueryView, dense: &QueryView, context: &str) {
    let held = |v: &QueryView| (v.retained_cost(), v.snapshot_bytes(), v.generation());
    assert_eq!(held(sparse), held(dense), "{context}");
}

/// Every compiled scan of a physical plan, in plan order.
pub fn scans_of(op: &PhysOp, out: &mut Vec<Arc<CompiledVsa>>) {
    match op {
        PhysOp::CompiledScan { compiled, .. } => out.push(Arc::clone(compiled)),
        PhysOp::BlackBoxScan(_) => {}
        PhysOp::Project { input, .. } => scans_of(input, out),
        PhysOp::UnionAll(inputs) => inputs.iter().for_each(|i| scans_of(i, out)),
        PhysOp::HashJoin { left, right } => {
            scans_of(left, out);
            scans_of(right, out);
        }
        PhysOp::Difference { input, probe } => {
            scans_of(input, out);
            scans_of(probe, out);
        }
    }
}
