//! The speed reference every timing is divided by.
//!
//! The benchmark box slows down by 20–60 % for seconds to minutes at a
//! time, with no steal time and no CPU-time/wall-time gap to correct by —
//! and it does so for code that allocates and walks memory, which is what
//! the engine does, far more than for register-only arithmetic (measured: a
//! register-only xorshift loop moved 4 % while `PreparedQuery::evaluate`
//! moved 38 %; see README.md). The reference is therefore a frozen kernel of
//! the same kind of work — hash-map inserts, small `Vec` growth, a sort,
//! string formatting, all through the system allocator — run next to every
//! round of operations. `time / factor` reads in "seconds at reference
//! speed"; the uncalibrated twin of every metric is kept (`harness.raw_*`).

use std::collections::HashMap;
use std::time::Instant;

/// What one kernel run took on the box when it was quiet, at the speed the
/// op counts were sized at. Frozen, like the kernel itself: changing either
/// rescales every calibrated metric.
pub const REF_KERNEL_S: f64 = 0.0094;

/// The calibration kernel and its (frozen) input.
pub struct Calibrator {
    words: Vec<String>,
}

impl Calibrator {
    pub fn new() -> Calibrator {
        let mut x = 777u64;
        let words = (0..3000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                format!("w{}", x % 700)
            })
            .collect();
        Calibrator { words }
    }

    /// Runs the kernel and returns its wall time in seconds.
    pub fn run(&self) -> f64 {
        let start = Instant::now();
        let mut total = 0usize;
        for round in 0..60 {
            let mut index: HashMap<&str, Vec<usize>> = HashMap::new();
            for (i, word) in self.words.iter().enumerate() {
                index.entry(word.as_str()).or_default().push(i + round);
            }
            let mut keys: Vec<&str> = index.keys().copied().collect();
            keys.sort_unstable();
            let rendered = keys
                .iter()
                .take(50)
                .map(|key| format!("{key}:{}", index[key].len()))
                .collect::<Vec<_>>()
                .join(",");
            total += rendered.len();
        }
        std::hint::black_box(total);
        start.elapsed().as_secs_f64()
    }
}

/// The speed factor of an interval bracketed by two kernel runs: above 1
/// when the box ran slower than the reference.
pub fn factor(before: f64, after: f64) -> f64 {
    (before + after) / 2.0 / REF_KERNEL_S
}
