//! E1–E11: one family per result of the paper.
//!
//! The paper's claims are shapes — this grows exponentially in that
//! parameter and polynomially in the other, these constructions agree — so
//! each family asserts its shape on exact quantities where it can (answers
//! against DPLL, state and disjunct counts against their closed forms) and
//! on measured medians only with a wide margin. The count column of a row is
//! the quantity the claim is about.

use crate::{log_log_slope, Run, RUNS};
use spanner_algebra::{evaluate_ra, figure_2_tree, Instantiation, RaOptions};
use spanner_core::{ByteClass, Document, VarSet};
use spanner_enum::{count_mappings, Enumerator};
use spanner_paper::{
    bounded_occurrence_cnf, bounded_occurrence_difference_instance, difference_adhoc_eval,
    difference_filter, difference_hardness_instance, difference_product, difference_product_eval,
    has_satisfying_assignment_of_weight, is_satisfiable, is_synchronized,
    join_disjunctive_functional, join_hardness_instance, nfa_accepts, random_3cnf,
    static_boolean_difference, to_disjunctive_functional, weighted_difference_instance,
    DifferenceInstance, DifferenceOptions, SentimentSpanner,
};
use spanner_rgx::{parse, Rgx};
use spanner_vset::{compile, join, CompiledVsa, Vsa};
use spanner_workloads::{
    example_3_10_formula, student_info_extractor, student_records,
    student_records_with_recommendations, uk_mail_extractor,
};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// E1: one mapping per record at every size, and the slowest delay between
/// two consecutive mappings — what the theorem bounds, timed inside the
/// measured run — grows polynomially with the document.
pub fn e1_enumeration(run: &mut Run) {
    const LINES: [usize; 5] = [32, 64, 128, 256, 512];
    let names = LINES.map(|lines| format!("paper/e1-enumeration/lines-{lines}"));
    let Some(names) = run.rows(names) else { return };
    let vsa = compile(&student_info_extractor().unwrap());
    let mut points = Vec::new();
    for (lines, name) in LINES.into_iter().zip(&names) {
        let doc = student_records(lines, 7);
        let mut slowest = Vec::with_capacity(RUNS);
        let measured = run.measure(name, || {
            let (mut count, mut max_delay) = (0, Duration::ZERO);
            let mut last = Instant::now();
            for mapping in Enumerator::new(&vsa, &doc).unwrap() {
                mapping.unwrap();
                max_delay = max_delay.max(last.elapsed());
                last = Instant::now();
                count += 1;
            }
            slowest.push(max_delay.as_secs_f64());
            count
        });
        assert_eq!(measured.count, lines, "one mapping per record");
        slowest.sort_by(f64::total_cmp);
        points.push((doc.len() as f64, slowest[RUNS / 2]));
    }
    let slope = log_log_slope(&points);
    println!("    the slowest delay of a run grows like |d|^{slope:.2}");
    assert!(slope < 2.0, "not polynomial delay");
}

/// E2: the Theorem-3.1 instance of a random 3-CNF is nonempty (count 1)
/// exactly when DPLL finds the formula satisfiable, and the spanner side
/// pays for it: the instance has 2·n·m capture variables and the join is
/// exponential in them, so nonemptiness is checked on the Boolean projection
/// of the compiled join.
pub fn e2_hardness_join(run: &mut Run) {
    const VARS: [usize; 4] = [2, 3, 4, 5];
    let names = VARS.map(|n| format!("paper/e2-hardness-join/vars-{n}"));
    let Some(names) = run.rows(names) else { return };
    let mut medians = Vec::new();
    for (n, name) in VARS.into_iter().zip(&names) {
        let cnf = random_3cnf(n, 2.0, n as u64);
        let instance = join_hardness_instance(&cnf);
        let (a1, a2) = (compile(&instance.gamma1), compile(&instance.gamma2));
        let measured = run.measure(name, || {
            let boolean = join(&a1, &a2).unwrap().project(&VarSet::new());
            nfa_accepts(&boolean, &instance.doc).unwrap() as usize
        });
        let satisfiable = is_satisfiable(&cnf);
        assert_eq!(measured.count == 1, satisfiable, "{name} != DPLL");
        medians.push(measured.median_ns);
    }
    // DPLL answers each of these in microseconds; 0.2 → 14 ms when written.
    assert!(medians[3] > 10 * medians[0], "no blow-up: {medians:?}");
}

/// A pair of sequential operands sharing exactly `k` optional variables.
fn shared_k_pair(k: usize) -> (Vsa, Vsa) {
    let shared: String = (0..k).map(|i| format!("({{s{i}:\\l}})?")).collect();
    let make = |tail: &str| compile(&parse(&format!("{shared}{tail}")).unwrap());
    (make(r"{left:\d*}.*"), make(r".*{right:\d*}"))
}

/// A pair sharing one variable behind a `blocks`-way token alternation.
fn shared_one_pair(blocks: usize) -> (Vsa, Vsa) {
    let make = |private: &str| {
        let tokens = (0..blocks).map(|i| Rgx::literal(&format!("tok{i}")));
        compile(&Rgx::concat([
            Rgx::star(Rgx::union(tokens.collect::<Vec<_>>())),
            Rgx::capture("shared", Rgx::Class(ByteClass::ascii_digit())),
            Rgx::any_string(),
            Rgx::capture(private, Rgx::any_string()),
        ]))
    };
    (make("l"), make("r"))
}

/// E3: both halves of "FPT in the shared variables". The count is the
/// product's state count: it multiplies with every shared variable, and for
/// one shared variable it stays polynomial in the operands. A serving plan
/// pays for the product twice: `shared-*/compile` is its compile to the
/// evaluation form with literal extraction (the count: its states).
pub fn e3_join_fpt(run: &mut Run) {
    const SHARED: [usize; 6] = [0, 1, 2, 3, 4, 5];
    const BLOCKS: [usize; 4] = [2, 4, 8, 16];
    let by_k = SHARED.map(|k| format!("paper/e3-join-fpt/shared-{k}"));
    let compiled = SHARED.map(|k| format!("paper/e3-join-fpt/shared-{k}/compile"));
    let by_size = BLOCKS.map(|b| format!("paper/e3-join-fpt/operand-blocks-{b}"));
    let names = (by_k, (by_size, compiled));
    let Some((by_k, (by_size, compiled))) = run.rows(names) else {
        return;
    };
    let mut product = |name: &String, (a1, a2): (Vsa, Vsa)| {
        let joined = || join(&a1, &a2).unwrap().state_count();
        let states = run.measure(name, joined).count;
        (a1.state_count() as f64, states as f64)
    };
    let by_k = SHARED.map(|k| product(&by_k[k], shared_k_pair(k)).1);
    // 70, 385, 1 496, 5 271, 17 869, 59 583 states when written.
    let exponential = by_k.windows(2).all(|w| w[1] >= 3.0 * w[0]);
    assert!(exponential, "not exponential in k: {by_k:?}");
    let sized = |(b, name)| product(name, shared_one_pair(b));
    let by_size = BLOCKS.into_iter().zip(&by_size).map(sized);
    let slope = log_log_slope(&by_size.collect::<Vec<_>>());
    println!("    at k = 1 the product grows like (operand states)^{slope:.2}");
    assert!(slope <= 2.0, "worse than quadratic in the operands");
    for (k, name) in SHARED.into_iter().zip(&compiled) {
        let (a1, a2) = shared_k_pair(k);
        let product = join(&a1, &a2).unwrap();
        run.measure(name, || {
            let compiled = CompiledVsa::compile(&product);
            black_box(compiled.required_literals());
            compiled.state_count()
        });
    }
}

/// E4: the Example-3.10 formula grows linearly in `n` while its
/// disjunctive-functional rewriting has exactly 2^n disjuncts (the count).
pub fn e4_blowup<const UP_TO: usize>(run: &mut Run) {
    let name = |i| format!("paper/e4-blowup/n-{}", i + 1);
    let names: [String; UP_TO] = std::array::from_fn(name);
    let Some(names) = run.rows(names) else { return };
    for (n, name) in (1..).zip(&names) {
        let alpha = example_3_10_formula(n);
        let states = compile(&alpha).state_count();
        assert!(alpha.size() <= 8 * n && states <= 14 * n, "not linear");
        let rewritten = || to_disjunctive_functional(&alpha, 1 << 22).unwrap();
        let disjuncts = run.measure(name, || rewritten().len()).count;
        assert_eq!(disjuncts, 1 << n, "Proposition 3.11 at n = {n}");
    }
}

/// E5: joining two disjunctive-functional VAs of `c` components each is `c²`
/// pairwise functional joins, whatever the number of shared variables (here
/// both of them). Each component binds the two variables to one digit pair,
/// so a pair of components joins to something nonempty exactly when the
/// digits agree. The count is the total states of the result.
pub fn e5_join_dfunc(run: &mut Run) {
    const COMPONENTS: [usize; 5] = [2, 4, 8, 16, 32];
    let names = COMPONENTS.map(|c| format!("paper/e5-join-dfunc/components-{c}"));
    let Some(names) = run.rows(names) else { return };
    let mut points = Vec::new();
    for (count, name) in COMPONENTS.into_iter().zip(&names) {
        let part = |i: usize| {
            let pattern = format!(".*{{x:{}}}.*{{y:{}}}.*", i % 10, i * 3 % 10);
            compile(&parse(&pattern).unwrap())
        };
        let parts: Vec<Vsa> = (0..count).map(part).collect();
        let joined = || join_disjunctive_functional(&parts, &parts).unwrap();
        let agree = |pair: &usize| pair / count % 10 == pair % count % 10;
        assert_eq!(joined().len(), (0..count * count).filter(agree).count());
        let states = || joined().iter().map(Vsa::state_count).sum();
        let median_ns = run.measure(name, states).median_ns;
        points.push((count as f64, median_ns as f64));
    }
    let slope = log_log_slope(&points);
    println!("    time grows like components^{slope:.2}");
    assert!(slope < 2.5, "worse than quadratic in the components");
}

/// Measures the Theorem-4.8 product on a reduction instance. The count is
/// the size of the difference, nonempty exactly when the oracle says so.
fn decides(run: &mut Run, name: &str, instance: &DifferenceInstance, expected: bool) {
    let (a1, a2) = (compile(&instance.gamma1), compile(&instance.gamma2));
    let options = DifferenceOptions::default();
    let difference = || difference_product_eval(&a1, &a2, &instance.doc, options).unwrap();
    let measured = run.measure(name, || difference().len());
    assert_eq!(measured.count > 0, expected, "{name} != its oracle");
}

/// E6: the Theorem-4.1 instance (document `a^n`, `n` common variables) has a
/// nonempty difference exactly when DPLL finds the formula satisfiable.
pub fn e6_hardness_difference(run: &mut Run) {
    const VARS: [usize; 5] = [2, 3, 4, 5, 6];
    let names = VARS.map(|n| format!("paper/e6-hardness-difference/vars-{n}"));
    let Some(names) = run.rows(names) else { return };
    for (n, name) in VARS.into_iter().zip(&names) {
        let cnf = random_3cnf(n, 4.26, 100 + n as u64);
        let instance = difference_hardness_instance(&cnf);
        decides(run, name, &instance, is_satisfiable(&cnf));
    }
}

/// E7: student mails minus UK mails through the filter baseline, the
/// Theorem-4.8 product and the Lemma-4.2 marker construction — three equal
/// relations — and the adversarial pair whose left side has Θ(n²) mappings
/// and whose difference is empty.
///
/// The realistic sweep runs to 64 lines (2 149 bytes), where the marker
/// construction takes about a second and the product a tenth of one; at
/// 128 lines (4 264 bytes) the marker construction takes 11 s and peaks at
/// some 800 MB, so the sweep stops short of it (DESIGN §6).
pub fn e7_difference(run: &mut Run) {
    const LINES: [usize; 5] = [4, 8, 16, 32, 64];
    const EMPTY: [usize; 4] = [16, 32, 64, 128];
    let named = |sweep, n| move |path| format!("paper/e7-difference/{sweep}{path}-{n}");
    let realistic = ["filter/lines", "product/lines", "lemma42/lines"];
    let realistic = LINES.map(|lines| realistic.map(named("", lines)));
    let empty = EMPTY.map(|n| ["filter/n", "product/n"].map(named("empty/", n)));
    let names = (realistic, empty);
    let Some(names) = run.rows(names) else { return };
    let options = DifferenceOptions::default();
    let info = compile(&parse(r"(.*\n)?\u\l+ (\d+ )?{mail:\l+@\l+(\.\l+)+}\n.*").unwrap());
    let uk = compile(&uk_mail_extractor().unwrap());
    for (lines, [filter, product, lemma42]) in LINES.into_iter().zip(&names.0) {
        let doc = student_records(lines, 3);
        let by_filter = || difference_filter(&info, &uk, &doc).unwrap();
        let by_product = || difference_product_eval(&info, &uk, &doc, options).unwrap();
        let by_lemma42 = || difference_adhoc_eval(&info, &uk, &doc, options).unwrap();
        let expected = by_filter();
        assert_eq!(by_product(), expected, "{product}");
        assert_eq!(by_lemma42(), expected, "{lemma42}");
        run.measure(filter, || by_filter().len());
        run.measure(product, || by_product().len());
        run.measure(lemma42, || by_lemma42().len());
    }

    // The filter enumerates the Θ(n²) left mappings and probes each (74 ms
    // at n = 128 and 1.1 s at 256 when written, so the sweep stops at 128);
    // the product answers from the document.
    let spans = compile(&parse(".*{x:.*}.*").unwrap());
    for (n, [filter, product]) in EMPTY.into_iter().zip(&names.1) {
        let doc = Document::new("ab".repeat(n / 2));
        let left = count_mappings(&spans, &doc, usize::MAX).unwrap();
        assert_eq!(left, (n + 1) * (n + 2) / 2, "every span of the document");
        let by_filter = || difference_filter(&spans, &spans, &doc).unwrap();
        let by_product = || difference_product_eval(&spans, &spans, &doc, options).unwrap();
        let filter = run.measure(filter, || by_filter().len());
        let product = run.measure(product, || by_product().len());
        assert_eq!((filter.count, product.count), (0, 0));
        let lead = filter.median_ns / product.median_ns;
        assert!(n < 128 || lead > 10, "the filter kept up: {lead}x");
    }
}

/// E8: `k` common variables, none of them bounded, but a right operand that
/// is synchronized for all of them. The left pins nothing and the right pins
/// the first field to a digit the document does not start with, so the one
/// left mapping survives.
pub fn e8_difference_sync(run: &mut Run) {
    const COMMON: [usize; 6] = [2, 4, 6, 8, 10, 12];
    let names = COMMON.map(|k| format!("paper/e8-difference-sync/vars-{k}"));
    let Some(names) = run.rows(names) else { return };
    let mut points = Vec::new();
    for (k, name) in COMMON.into_iter().zip(&names) {
        let left: String = (0..k).map(|i| format!("{{f{i}:\\d}}")).collect();
        let right = compile(&parse(&left.replacen(r"\d", "7", 1)).unwrap());
        let left = compile(&parse(&left).unwrap());
        assert!(is_synchronized(&right, right.vars()));
        let digits: String = "0123456789".chars().cycle().take(k).collect();
        let (doc, options) = (Document::new(digits), DifferenceOptions::default());
        let difference = || difference_product_eval(&left, &right, &doc, options).unwrap();
        let measured = run.measure(name, || difference().len());
        assert_eq!(measured.count, 1);
        points.push((k as f64, measured.median_ns as f64));
    }
    let slope = log_log_slope(&points);
    println!("    time grows like k^{slope:.2}");
    assert!(slope < 2.0, "not polynomial in the common variables");
}

/// E9: `π_student((mail ⋈ phone) \ rec)` over a growing corpus, with the
/// recommendation leaf as a regex formula and as a black-box sentiment
/// spanner: the same relation either way, at a comparable cost.
pub fn e9_ra_tree(run: &mut Run) {
    const LINES: [usize; 3] = [8, 16, 32];
    let named = |n| move |leaf| format!("paper/e9-ra-tree/{leaf}/lines-{n}");
    let names = LINES.map(|n| ["regex", "blackbox"].map(named(n)));
    let Some(names) = run.rows(names) else { return };
    let tree = figure_2_tree(VarSet::from_iter(["student"]));
    let student = r"(.*\n)?(\u\l+ )?{student:\u\l+} ";
    let mail = parse(&format!(r"{student}(\d+ )?{{mail:\l+@\l+(\.\l+)+}}\n.*")).unwrap();
    let phone = parse(&format!(r"{student}{{phone:\d+}} .*")).unwrap();
    let recommended = parse(r"(.*\n)?{student:\u\l+} rec {rec:[\l ]+}\n.*").unwrap();
    let leaves = Instantiation::new().with(0, mail).with(1, phone);
    let regex = leaves.clone().with(2, recommended);
    let sentiment = SentimentSpanner::new("student", "posrec", SentimentSpanner::default_lexicon());
    let blackbox = leaves.with_black_box(2, sentiment);
    for (lines, [by_regex, by_blackbox]) in LINES.into_iter().zip(&names) {
        let doc = student_records_with_recommendations(lines, 0.5, 13);
        let evaluate = |inst| evaluate_ra(&tree, inst, &doc, RaOptions::default()).unwrap();
        assert_eq!(evaluate(&regex), evaluate(&blackbox), "{by_blackbox}");
        run.measure(by_regex, || evaluate(&regex).len());
        run.measure(by_blackbox, || evaluate(&blackbox).len());
    }
}

/// E10: for `L2 = (a|b)* a (a|b)^{n-1}` the static Boolean difference
/// `(a|b)* \ L2` must complement an NFA — 2^n + 1 DFA states — while the
/// ad-hoc automaton for one concrete document of length 2n stays tiny, and
/// is valid for that document only. The counts are the state counts.
pub fn e10_static_vs_adhoc(run: &mut Run) {
    const N: [usize; 6] = [2, 4, 6, 8, 10, 12];
    let named = |n| move |how| format!("paper/e10-static-vs-adhoc/{how}/n-{n}");
    let names = N.map(|n| ["static", "adhoc"].map(named(n)));
    let Some(names) = run.rows(names) else { return };
    let a1 = compile(&parse("(a|b)*").unwrap());
    for (n, [fixed, adhoc]) in N.into_iter().zip(&names) {
        let a2 = compile(&parse(&format!("(a|b)*a{}", "(a|b)".repeat(n - 1))).unwrap());
        let (doc, options) = (Document::new("ab".repeat(n)), DifferenceOptions::default());
        let complemented = || static_boolean_difference(&a1, &a2, 1 << 22).unwrap();
        let for_this_doc = || difference_product(&a1, &a2, &doc, options).unwrap();
        let fixed = run.measure(fixed, || complemented().state_count());
        let adhoc = run.measure(adhoc, || for_this_doc().state_count());
        assert_eq!(fixed.count, (1 << n) + 1, "NFA complementation");
        assert!(adhoc.count <= 8, "the ad-hoc automaton grew at n = {n}");
    }
}

/// E11: the two restricted fragments that stay hard. Theorem 4.4: a
/// satisfying assignment of weight `k` exists iff the difference with `k`
/// shared variables is nonempty. Proposition 4.10: bounded-occurrence,
/// disjunction-free operands still decide satisfiability.
pub fn e11_parameterized(run: &mut Run) {
    const WEIGHT: [(usize, usize); 4] = [(5, 1), (5, 2), (6, 2), (6, 3)];
    const BOUNDED: [usize; 4] = [3, 5, 7, 9];
    let weight = |(n, k)| format!("paper/e11-parameterized/weight/vars-{n}-k-{k}");
    let bounded = |n| format!("paper/e11-parameterized/bounded/vars-{n}");
    let names = (WEIGHT.map(weight), BOUNDED.map(bounded));
    let Some(names) = run.rows(names) else { return };
    for ((n, k), name) in WEIGHT.into_iter().zip(&names.0) {
        let cnf = random_3cnf(n, 2.0, (n * 10 + k) as u64);
        let instance = weighted_difference_instance(&cnf, k).unwrap();
        let expected = has_satisfying_assignment_of_weight(&cnf, k);
        decides(run, name, &instance, expected);
    }
    for (n, name) in BOUNDED.into_iter().zip(&names.1) {
        let cnf = bounded_occurrence_cnf(n, n as u64);
        let instance = bounded_occurrence_difference_instance(&cnf);
        decides(run, name, &instance, is_satisfiable(&cnf));
    }
}
