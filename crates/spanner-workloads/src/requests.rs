//! The program library of the serving workloads.
//!
//! Serving traffic is a small hot set of programs hit over and over (the
//! case the prepared-query cache exists for) and a long tail of colder
//! ones. `bench/` draws its request streams from this library; the
//! workloads crate knows nothing about the wire protocol.

/// A hot user/host join (first entry) plus a tail of colder extractors, all
/// over email- and log-shaped lines.
pub fn program_library() -> Vec<String> {
    vec![
        // The hot program: the running-example extraction pipeline grown to
        // a three-way join chain with an admin filter — the compile cost
        // (FPT join products over the chain) is exactly what a
        // prepared-query cache amortizes.
        "let pair   = /{user:[a-z]+}@{host:[a-z]+(\\.[a-z]+)*}( .*)?/;\n\
         let dotted = /[a-z]+@[a-z]+(\\.[a-z]+)*\\.{tld:[a-z]+}( .*)?/;\n\
         let sub    = /[a-z]+@{sub:[a-z]+}(\\.[a-z]+)+( .*)?/;\n\
         project user, tld ((pair join dotted) join sub)\n\
           minus /{user:admin[a-z]*}@[a-z]+(\\.[a-z]+)*\\.{tld:[a-z]+}( .*)?/;"
            .to_string(),
        // Colder tail: single-extractor and small compound programs.
        "/{user:[a-z]+}@{host:[a-z]+(\\.[a-z]+)*}( .*)?/".to_string(),
        "let ip = /{ip:[0-9]+\\.[0-9]+\\.[0-9]+\\.[0-9]+}( .*)?/; project ip (ip);".to_string(),
        "let method = /.*\"{method:[A-Z]+} .*/; let path = /.* {path:\\/[a-zA-Z0-9_\\/\\.]*} .*/;\n\
         method join path;"
            .to_string(),
        "/.*{status:[0-9][0-9][0-9]} [0-9]+/ minus /.*{status:200} [0-9]+/".to_string(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use spanner_ql::PreparedQuery;

    #[test]
    fn every_generated_program_compiles() {
        for program in program_library() {
            PreparedQuery::prepare(&program)
                .unwrap_or_else(|e| panic!("{program}\n{}", e.pretty(&program)));
        }
    }
}
