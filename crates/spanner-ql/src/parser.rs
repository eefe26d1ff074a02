//! Recursive-descent parser for SpannerQL.
//!
//! The grammar (keywords interchangeable with their symbolic aliases):
//!
//! ```text
//! program  := binding* expr ';'? EOF
//! binding  := 'let' name '=' regex ';'
//! expr     := joined (('union' | 'minus') joined)*          left-assoc
//! joined   := primary ('join' primary)*                     left-assoc
//! primary  := '(' expr ')'
//!           | 'project' varlist primary                     π_{varlist}(…)
//!           | name                                          a `let` binding
//!           | regex                                         anonymous atom
//! varlist  := (name (',' name)*)?                           empty before '('
//! ```
//!
//! `union` and `minus` share the lowest precedence level and associate to
//! the left, `join` binds tighter, and `project` tighter still — so
//! `a union b join c minus d` reads as `(a ∪ (b ⋈ c)) \ d`. Regex literals
//! use the `spanner_rgx::parse` syntax between `/` delimiters; parse errors
//! inside a literal are reported at their exact position in the program.
//!
//! An expression may nest at most 128 levels deep: a parenthesised
//! sub-expression, a `project` and each binary operator's result add one.
//! The parser, the lowering and every plan pass recurse once per level, so
//! a deeper program is refused at the token that passes the bound.

use crate::error::{QlError, SrcSpan};
use crate::lexer::{tokenize, Tok, Token};
use spanner_rgx::Rgx;

/// The deepest an expression may nest (see the module docs).
const MAX_DEPTH: usize = 128;

/// A parsed expression and its height: the levels it nests below itself.
type Parsed = (QlExpr, usize);

/// A parsed `let` binding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Binding {
    /// The bound name.
    pub name: String,
    /// Span of the name (duplicate-binding diagnostics point here).
    pub name_span: SrcSpan,
    /// The regex formula bound to the name.
    pub rgx: Rgx,
    /// Span of the regex literal.
    pub rgx_span: SrcSpan,
}

/// A parsed query expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QlExpr {
    /// A reference to a `let` binding.
    Name(String, SrcSpan),
    /// An anonymous regex-formula atom.
    Regex(Rgx, SrcSpan),
    /// `project v1, …, vn (child)`.
    Project(Vec<String>, Box<QlExpr>),
    /// `left union right`.
    Union(Box<QlExpr>, Box<QlExpr>),
    /// `left join right`.
    Join(Box<QlExpr>, Box<QlExpr>),
    /// `left minus right`.
    Minus(Box<QlExpr>, Box<QlExpr>),
}

/// A whole SpannerQL program: bindings followed by one result expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// The `let` bindings, in source order.
    pub bindings: Vec<Binding>,
    /// The result expression.
    pub expr: QlExpr,
}

/// Parses a SpannerQL program.
pub fn parse_program(src: &str) -> Result<Program, QlError> {
    let tokens = tokenize(src)?;
    let mut p = Parser {
        tokens: &tokens,
        pos: 0,
        eof: SrcSpan::at(src.len()),
        open: 0,
    };
    let mut bindings = Vec::new();
    while p.peek() == Some(&Tok::Let) {
        bindings.push(p.parse_binding()?);
    }
    if p.peek().is_none() {
        return Err(QlError::new(
            if bindings.is_empty() {
                "empty program: expected a query expression"
            } else {
                "expected a query expression after the `let` bindings"
            },
            p.eof,
        ));
    }
    let (expr, _) = p.parse_expr()?;
    if p.peek() == Some(&Tok::Semi) {
        p.bump();
    }
    if let Some(tok) = p.peek() {
        return Err(QlError::new(
            format!("unexpected {} after the query expression", tok.describe()),
            p.span(),
        ));
    }
    Ok(Program { bindings, expr })
}

struct Parser<'t> {
    tokens: &'t [Token],
    pos: usize,
    eof: SrcSpan,
    /// Parentheses and `project`s open around the parse position.
    open: usize,
}

impl<'t> Parser<'t> {
    fn peek(&self) -> Option<&'t Tok> {
        self.tokens.get(self.pos).map(|t| &t.tok)
    }

    /// Span of the current token (or the end of input).
    fn span(&self) -> SrcSpan {
        self.tokens.get(self.pos).map_or(self.eof, |t| t.span)
    }

    fn bump(&mut self) -> Option<&'t Token> {
        let t = self.tokens.get(self.pos);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, tok: Tok, what: &str) -> Result<&'t Token, QlError> {
        match self.tokens.get(self.pos) {
            Some(t) if t.tok == tok => {
                self.pos += 1;
                Ok(t)
            }
            Some(t) => Err(QlError::new(
                format!("expected {what}, found {}", t.tok.describe()),
                t.span,
            )),
            None => Err(QlError::new(
                format!("expected {what}, found end of input"),
                self.eof,
            )),
        }
    }

    fn parse_binding(&mut self) -> Result<Binding, QlError> {
        self.expect(Tok::Let, "`let`")?;
        let (name, name_span) = self.parse_ident("a binding name after `let`")?;
        self.expect(Tok::Eq, "`=`")?;
        let (rgx, rgx_span) = match self.bump() {
            Some(Token {
                tok: Tok::Regex(content),
                span,
            }) => (parse_regex(content, *span)?, *span),
            Some(t) => {
                return Err(QlError::new(
                    format!("expected a regex literal `/…/`, found {}", t.tok.describe()),
                    t.span,
                ))
            }
            None => {
                return Err(QlError::new(
                    "expected a regex literal `/…/`, found end of input",
                    self.eof,
                ))
            }
        };
        self.expect(Tok::Semi, "`;` after the binding")?;
        Ok(Binding {
            name,
            name_span,
            rgx,
            rgx_span,
        })
    }

    fn parse_ident(&mut self, what: &str) -> Result<(String, SrcSpan), QlError> {
        match self.tokens.get(self.pos) {
            Some(Token {
                tok: Tok::Ident(name),
                span,
            }) => {
                self.pos += 1;
                Ok((name.clone(), *span))
            }
            Some(t) => Err(QlError::new(
                format!("expected {what}, found {}", t.tok.describe()),
                t.span,
            )),
            None => Err(QlError::new(
                format!("expected {what}, found end of input"),
                self.eof,
            )),
        }
    }

    /// The height of a node over a child `height` levels high, refused at
    /// `at` when the node would sit deeper than [`MAX_DEPTH`].
    fn raise(&self, height: usize, at: SrcSpan) -> Result<usize, QlError> {
        if self.open + height + 1 > MAX_DEPTH {
            return Err(QlError::new(
                format!(
                    "expression nests deeper than {MAX_DEPTH} levels \
                     (parentheses, `project` and binary operators each add one)"
                ),
                at,
            ));
        }
        Ok(height + 1)
    }

    /// Parses `inner` one level deeper: inside the parenthesis or under the
    /// `project` at `at`, refused before it recurses past [`MAX_DEPTH`].
    fn nested(
        &mut self,
        at: SrcSpan,
        inner: impl FnOnce(&mut Self) -> Result<Parsed, QlError>,
    ) -> Result<Parsed, QlError> {
        self.raise(0, at)?;
        self.open += 1;
        let (expr, height) = inner(self)?;
        self.open -= 1;
        Ok((expr, self.raise(height, at)?))
    }

    fn parse_expr(&mut self) -> Result<Parsed, QlError> {
        let (mut left, mut height) = self.parse_joined()?;
        loop {
            let op: fn(Box<QlExpr>, Box<QlExpr>) -> QlExpr = match self.peek() {
                Some(Tok::Union) => QlExpr::Union,
                Some(Tok::Minus) => QlExpr::Minus,
                _ => return Ok((left, height)),
            };
            let at = self.span();
            self.bump();
            let (right, right_height) = self.parse_joined()?;
            height = self.raise(height.max(right_height), at)?;
            left = op(Box::new(left), Box::new(right));
        }
    }

    fn parse_joined(&mut self) -> Result<Parsed, QlError> {
        let (mut left, mut height) = self.parse_primary()?;
        while self.peek() == Some(&Tok::Join) {
            let at = self.span();
            self.bump();
            let (right, right_height) = self.parse_primary()?;
            height = self.raise(height.max(right_height), at)?;
            left = QlExpr::Join(Box::new(left), Box::new(right));
        }
        Ok((left, height))
    }

    fn parse_primary(&mut self) -> Result<Parsed, QlError> {
        match self.tokens.get(self.pos) {
            Some(Token {
                tok: Tok::LParen,
                span,
            }) => {
                self.pos += 1;
                self.nested(*span, |p| {
                    let inner = p.parse_expr()?;
                    p.expect(Tok::RParen, "`)`")?;
                    Ok(inner)
                })
            }
            Some(Token {
                tok: Tok::Project,
                span,
            }) => {
                self.pos += 1;
                let mut vars = Vec::new();
                if matches!(self.peek(), Some(Tok::Ident(_))) {
                    loop {
                        let (name, _) = self.parse_ident("a variable name")?;
                        vars.push(name);
                        if self.peek() == Some(&Tok::Comma) {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                }
                self.nested(*span, |p| {
                    let (child, height) = p.parse_primary()?;
                    Ok((QlExpr::Project(vars, Box::new(child)), height))
                })
            }
            Some(Token {
                tok: Tok::Ident(name),
                span,
            }) => {
                self.pos += 1;
                Ok((QlExpr::Name(name.clone(), *span), 0))
            }
            Some(Token {
                tok: Tok::Regex(content),
                span,
            }) => {
                self.pos += 1;
                Ok((QlExpr::Regex(parse_regex(content, *span)?, *span), 0))
            }
            Some(t) => Err(QlError::new(
                format!(
                    "expected an extractor name, a regex literal, `project`, or `(`, found {}",
                    t.tok.describe()
                ),
                t.span,
            )),
            None => Err(QlError::new(
                "expected an extractor name, a regex literal, `project`, or `(`, \
                 found end of input",
                self.eof,
            )),
        }
    }
}

/// Parses the content of a regex literal, translating regex-parser byte
/// positions into program-source positions (the content sits verbatim one
/// byte past the opening `/`).
fn parse_regex(content: &str, literal: SrcSpan) -> Result<Rgx, QlError> {
    spanner_rgx::parse(content).map_err(|e| match e {
        spanner_core::SpannerError::Parse { message, position } => {
            let at = literal.start + 1 + position;
            QlError::new(
                format!("in regex literal: {message}"),
                SrcSpan::new(at, at + 1),
            )
        }
        other => QlError::new(format!("in regex literal: {other}"), literal),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bindings_then_expression() {
        let p = parse_program(
            "let user = /{x:[a-z]+}@/; let host = /@{y:[a-z]+}/;\n\
             project x, y (user join host) minus /{x:admin.*}/;",
        )
        .unwrap();
        assert_eq!(p.bindings.len(), 2);
        assert_eq!(p.bindings[0].name, "user");
        assert!(matches!(&p.expr, QlExpr::Minus(l, _)
            if matches!(l.as_ref(), QlExpr::Project(vars, _) if vars == &["x", "y"])));
    }

    #[test]
    fn precedence_union_minus_below_join() {
        let p = parse_program("/a/ union /b/ join /c/ minus /d/").unwrap();
        // (a ∪ (b ⋈ c)) \ d
        let QlExpr::Minus(l, _) = &p.expr else {
            panic!("{:?}", p.expr);
        };
        let QlExpr::Union(_, r) = l.as_ref() else {
            panic!("{:?}", p.expr);
        };
        assert!(matches!(r.as_ref(), QlExpr::Join(_, _)));
    }

    /// The operator shape of an expression, with spans and atoms erased.
    fn shape(e: &QlExpr) -> String {
        match e {
            QlExpr::Name(n, _) => n.clone(),
            QlExpr::Regex(_, _) => "R".to_string(),
            QlExpr::Project(v, c) => format!("π{v:?}({})", shape(c)),
            QlExpr::Union(l, r) => format!("({}∪{})", shape(l), shape(r)),
            QlExpr::Join(l, r) => format!("({}⋈{})", shape(l), shape(r)),
            QlExpr::Minus(l, r) => format!("({}\\{})", shape(l), shape(r)),
        }
    }

    #[test]
    fn symbolic_aliases_parse() {
        let symbolic = parse_program(r"let u = /{x:a}/; π x (u ⋈ /{x:a}b/) ∪ u \ u;").unwrap();
        let spelled =
            parse_program("let u = /{x:a}/; project x (u join /{x:a}b/) union u minus u;").unwrap();
        assert_eq!(shape(&symbolic.expr), shape(&spelled.expr));
    }

    #[test]
    fn empty_projection_is_boolean() {
        let p = parse_program("project (/{x:a}/)").unwrap();
        assert!(matches!(&p.expr, QlExpr::Project(vars, _) if vars.is_empty()));
    }

    #[test]
    fn trailing_semicolon_is_optional() {
        assert!(parse_program("/a/").is_ok());
        assert!(parse_program("/a/;").is_ok());
    }

    #[test]
    fn regex_errors_map_to_program_positions() {
        //        0123456789012345
        let src = "let a = /{x:/; a";
        let err = parse_program(src).unwrap_err();
        let span = err.span.unwrap();
        // The regex error sits inside the literal, not at literal start.
        assert!(span.start > src.find('/').unwrap(), "{err}");
        assert!(span.start <= src.len(), "{err}");
    }

    #[test]
    fn syntax_errors_are_spanned() {
        for src in [
            "",
            "let = /a/; a",
            "let a /a/; a",
            "let a = b; a",
            "let a = /a/ a",
            "a join",
            "(a",
            "a)",
            "project x, (a)",
            "a extra",
            "let a = /a/;",
        ] {
            let err = parse_program(src).unwrap_err();
            let span = err.span.expect("syntax errors carry spans");
            assert!(span.start <= src.len(), "{src:?}: {err}");
        }
    }

    /// `depth` parentheses around one atom.
    fn parens(depth: usize) -> String {
        format!("{}/{{x:a}}/{}", "(".repeat(depth), ")".repeat(depth))
    }

    /// A left-deep chain of `ops` binary operators.
    fn chain(op: &str, ops: usize) -> String {
        format!("/{{x:a+}}/{}", format!(" {op} /{{x:a}}/").repeat(ops))
    }

    /// `depth` nested projections of one atom.
    fn projections(depth: usize) -> String {
        format!("{}/{{x:a}}/", "project x ".repeat(depth))
    }

    #[test]
    fn nesting_is_capped_with_a_span() {
        for src in [
            parens(MAX_DEPTH),
            chain("minus", MAX_DEPTH),
            chain("join", MAX_DEPTH),
            projections(MAX_DEPTH),
            // A parenthesis and an operator per level: half as many levels.
            format!(
                "{}/{{x:a}}/{}",
                "(/{x:a}/ minus ".repeat(MAX_DEPTH / 2),
                ")".repeat(MAX_DEPTH / 2)
            ),
        ] {
            assert!(parse_program(&src).is_ok(), "{src}");
        }
        // One level more is refused at the token that opens it, and so are
        // programs thousands of levels deep.
        let past = |src: String, token: &str, n: usize| {
            let at = src.match_indices(token).nth(n).unwrap().0;
            (src, at)
        };
        for (src, at) in [
            past(parens(MAX_DEPTH + 1), "(", MAX_DEPTH),
            past(parens(4_000), "(", MAX_DEPTH),
            past(chain("minus", MAX_DEPTH + 1), "minus", MAX_DEPTH),
            past(chain("union", 5_000), "union", MAX_DEPTH),
            past(chain("join", MAX_DEPTH + 1), "join", MAX_DEPTH),
            past(projections(MAX_DEPTH + 1), "project", MAX_DEPTH),
        ] {
            let err = parse_program(&src).unwrap_err();
            assert_eq!(err.span.unwrap().start, at, "{err}");
            assert!(err.message.contains("nests deeper than 128"), "{err}");
        }
    }

    #[test]
    fn at_cap_programs_prepare_and_evaluate_on_a_small_stack() {
        // A connection worker runs on a 2 MiB stack, so this does too,
        // whatever the test harness's own stack is.
        // The regex parser's own cap: 128 groups, each adding a union, a
        // concatenation and a star to the formula.
        let deep_regex = format!("/{{x:{}a{}}}/", "(a|b".repeat(127), ")*".repeat(127));
        let programs = [
            parens(MAX_DEPTH),
            chain("minus", MAX_DEPTH),
            chain("union", MAX_DEPTH),
            projections(MAX_DEPTH),
            // Both caps at once: the deepest regex at the bottom of the
            // deepest expressions.
            parens(MAX_DEPTH).replace("/{x:a}/", &deep_regex),
            projections(MAX_DEPTH).replace("/{x:a}/", &deep_regex),
            chain("minus", MAX_DEPTH).replace("/{x:a+}/", &deep_regex),
        ];
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                let doc = spanner_core::Document::new("aab");
                for src in programs {
                    let query = crate::PreparedQuery::prepare(&src).unwrap();
                    query.evaluate(&doc).unwrap();
                    assert!(query.stream(&doc).unwrap().all(|m| m.is_ok()));
                }
            })
            .unwrap()
            .join()
            .unwrap();
    }
}
