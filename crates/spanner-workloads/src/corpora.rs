//! Synthetic document corpora.
//!
//! The paper motivates its complexity questions with text-analytics
//! workloads: personal-information records (the `dStudents` document of
//! Figure 1), system logs, and large machine-generated extractors. These
//! generators produce documents of a controlled size with the same structure
//! so that the experiments (`cargo run -p spanner-bench -- list`) can sweep
//! the document length.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spanner_core::Document;

const FIRST_NAMES: &[&str] = &[
    "Rodion", "Pyotr", "Avdotya", "Arkady", "Sofya", "Dmitri", "Katerina", "Porfiry", "Mikolka",
    "Alyona", "Zosimov", "Andrey", "Marfa", "Nikodim", "Ilya",
];

const LAST_NAMES: &[&str] = &[
    "Raskolnikov",
    "Luzhin",
    "Svidrigailov",
    "Marmeladov",
    "Razumikhin",
    "Petrovich",
    "Ivanovna",
    "Lebezyatnikov",
    "Zamyotov",
    "Lizaveta",
];

const MAIL_HOSTS: &[&str] = &[
    "edu.ru", "edu.uk", "uni.de", "inst.fr", "labs.org", "dept.edu",
];

const POSITIVE_WORDS: &[&str] = &[
    "excellent",
    "outstanding",
    "brilliant",
    "recommended",
    "strong",
];
const NEUTRAL_WORDS: &[&str] = &["attended", "average", "completed", "enrolled", "registered"];

/// The exact example document `dStudents` of Figure 1 (three student lines).
pub fn students_figure_1() -> Document {
    Document::new(
        "Rodion Raskolnikov rr@edu.ru\nZosimov 6222345 mov@edu.ru\nPyotr Luzhin 6225545 luzi@edu.uk\n",
    )
}

/// Generates a student-records document with `lines` lines in the format of
/// Figure 1: optional first name, last name, optional phone number, email
/// address, separated by spaces, one student per line.
pub fn student_records(lines: usize, seed: u64) -> Document {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut text = String::with_capacity(lines * 40);
    for _ in 0..lines {
        if rng.gen_bool(0.7) {
            text.push_str(FIRST_NAMES[rng.gen_range(0..FIRST_NAMES.len())]);
            text.push(' ');
        }
        let last = LAST_NAMES[rng.gen_range(0..LAST_NAMES.len())];
        text.push_str(last);
        text.push(' ');
        if rng.gen_bool(0.6) {
            let phone: u32 = rng.gen_range(6_000_000..7_000_000);
            text.push_str(&phone.to_string());
            text.push(' ');
        }
        // Mailbox derived from the last name.
        let user: String = last.to_lowercase().chars().take(4).collect();
        text.push_str(&user);
        text.push('@');
        text.push_str(MAIL_HOSTS[rng.gen_range(0..MAIL_HOSTS.len())]);
        text.push('\n');
    }
    Document::new(text)
}

/// Generates a student-records document extended with recommendation lines
/// (for the Example 5.1 / 5.4 queries): after each student line, with the
/// given probability, a line `"<LastName> rec: <words>"` follows.
pub fn student_records_with_recommendations(
    lines: usize,
    rec_probability: f64,
    seed: u64,
) -> Document {
    let mut rng = StdRng::seed_from_u64(seed);
    let base = student_records(lines, seed);
    let mut text = String::with_capacity(base.len() * 2);
    for line in base.text().lines() {
        text.push_str(line);
        text.push('\n');
        if rng.gen_bool(rec_probability) {
            // Recommendation for the student on this line (second-to-last
            // token before the mail is the last name or the only name).
            let name = line.split(' ').next().unwrap_or("Someone");
            let lexicon = if rng.gen_bool(0.5) {
                POSITIVE_WORDS
            } else {
                NEUTRAL_WORDS
            };
            let word = lexicon[rng.gen_range(0..lexicon.len())];
            text.push_str(&format!("{name} rec {word} work this term\n"));
        }
    }
    Document::new(text)
}

/// Generates an HTTP-access-log-like document with `lines` entries:
/// `ip - user [day/month] "METHOD /path" status bytes`.
pub fn access_log(lines: usize, seed: u64) -> Document {
    let mut rng = StdRng::seed_from_u64(seed);
    let methods = ["GET", "POST", "PUT", "DELETE"];
    let paths = [
        "/index",
        "/api/v1/items",
        "/login",
        "/static/app.js",
        "/health",
    ];
    let mut text = String::with_capacity(lines * 64);
    for _ in 0..lines {
        let ip = format!(
            "{}.{}.{}.{}",
            rng.gen_range(1..255),
            rng.gen_range(0..255),
            rng.gen_range(0..255),
            rng.gen_range(1..255)
        );
        let user = if rng.gen_bool(0.3) {
            FIRST_NAMES[rng.gen_range(0..FIRST_NAMES.len())].to_lowercase()
        } else {
            "-".to_string()
        };
        let method = methods[rng.gen_range(0..methods.len())];
        let path = paths[rng.gen_range(0..paths.len())];
        let status = [200, 200, 200, 301, 404, 500][rng.gen_range(0..6)];
        let bytes = rng.gen_range(0..100_000);
        text.push_str(&format!(
            "{ip} - {user} [{:02}/{:02}] \"{method} {path}\" {status} {bytes}\n",
            rng.gen_range(1..29),
            rng.gen_range(1..13),
        ));
    }
    Document::new(text)
}

/// Deterministic padding over lowercase letters and spaces (xorshift, no
/// `rand` state). The alphabet includes every byte of "needle", so
/// candidate pruning over this text has to work on whole trigrams, not on
/// byte absence.
pub fn needle_padding(len: usize, seed: u64) -> String {
    const ALPHABET: &[u8] = b"abcdefghijklmnop qrstuvwxyz ";
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ALPHABET[(state % ALPHABET.len() as u64) as usize] as char
        })
        .collect()
}

/// One needle-corpus line: a hit embeds the needle in a short
/// alert-shaped line, a miss is a long padding-only line. (Hits are short
/// on purpose: every evaluation path pays the same enumeration cost on a
/// true match, so sweeps over this corpus isolate what an index or view
/// actually saves — touching the misses.)
pub fn needle_line(hit: bool, seed: u64) -> Document {
    let text = if hit {
        format!(
            "{} needle {}",
            needle_padding(4, seed),
            needle_padding(4, seed.wrapping_add(1))
        )
    } else {
        needle_padding(103, seed)
    };
    Document::new(&text)
}

/// A corpus of `lines` documents where `hits_per_10k` of every 10 000
/// lines contain the needle, spread evenly.
pub fn needle_corpus(lines: usize, hits_per_10k: usize, seed: u64) -> Vec<Document> {
    (0..lines)
        .map(|i| {
            let hit = hits_per_10k > 0 && (i * hits_per_10k) % 10_000 < hits_per_10k;
            needle_line(hit, seed.wrapping_add(i as u64))
        })
        .collect()
}

/// Generates a random document over a small alphabet (for stress tests).
pub fn random_text(len: usize, alphabet: &[u8], seed: u64) -> Document {
    let mut rng = StdRng::seed_from_u64(seed);
    let bytes: Vec<u8> = (0..len)
        .map(|_| alphabet[rng.gen_range(0..alphabet.len())])
        .collect();
    Document::new(String::from_utf8(bytes).expect("ASCII alphabet"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_1_document_has_three_lines() {
        let d = students_figure_1();
        assert_eq!(d.text().lines().count(), 3);
        assert!(d.text().contains("Raskolnikov"));
    }

    #[test]
    fn student_records_are_deterministic_and_well_formed() {
        let d1 = student_records(50, 3);
        let d2 = student_records(50, 3);
        assert_eq!(d1, d2);
        assert_eq!(d1.text().lines().count(), 50);
        for line in d1.text().lines() {
            assert!(line.contains('@'), "line without mail: {line}");
        }
        assert_ne!(student_records(50, 4), d1);
    }

    #[test]
    fn recommendations_are_interleaved() {
        let d = student_records_with_recommendations(40, 0.5, 9);
        assert!(d.text().lines().count() > 40);
        assert!(d.text().contains(" rec "));
    }

    #[test]
    fn access_log_shape() {
        let d = access_log(20, 1);
        assert_eq!(d.text().lines().count(), 20);
        assert!(d.text().contains('"'));
    }

    #[test]
    fn needle_corpus_is_deterministic_with_the_planted_rate() {
        let docs = needle_corpus(10_000, 10, 42);
        assert_eq!(docs, needle_corpus(10_000, 10, 42));
        let hits = docs.iter().filter(|d| d.text().contains("needle")).count();
        assert_eq!(hits, 10, "planted rate is exact at the 10k granularity");
        assert!(needle_corpus(100, 0, 1)
            .iter()
            .all(|d| !d.text().contains("needle")));
        assert_ne!(needle_corpus(100, 10, 1), needle_corpus(100, 10, 2));
    }

    #[test]
    fn random_text_uses_only_the_alphabet() {
        let d = random_text(200, b"ab", 5);
        assert_eq!(d.len(), 200);
        assert!(d.bytes().iter().all(|&b| b == b'a' || b == b'b'));
    }
}
