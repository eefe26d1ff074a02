//! Synthetic workloads: corpora, extractor libraries, and random spanners.
//!
//! The paper has no public benchmark suite, so this crate provides the
//! workloads used by the experiments (`cargo run -p spanner-bench -- list`
//! is their index): student-record and access-log corpora of a controlled
//! size (the Figure 1 document family),
//! the paper's running-example extractors (Examples 2.1–2.4, 5.1, 5.4), the
//! Example 3.10 blow-up family, and random sequential vset-automata / regex
//! formulas standing in for the large machine-generated extractors the paper
//! cites as motivation.

pub mod corpora;
pub mod extractors;
pub mod mutations;
pub mod random_ql;
pub mod random_ra;
pub mod random_vsa;
pub mod requests;

pub use corpora::{
    access_log, needle_corpus, needle_line, needle_padding, random_text, student_records,
    student_records_with_recommendations, students_figure_1,
};
pub use extractors::{
    example_3_10_formula, log_error_extractor, log_request_extractor, mail_extractor,
    name_extractor, phone_extractor, recommendation_extractor, student_info_extractor,
    uk_mail_extractor,
};
pub use mutations::random_mutations;
pub use random_ql::{random_ql_program, RandomQlConfig, RandomQlProgram};
pub use random_ra::{random_ra_tree, RandomRaConfig};
pub use random_vsa::{random_sequential_rgx, random_sequential_vsa, RandomVsaConfig};
pub use requests::program_library;
