//! CIF lexer.
//!
//! CIF is deliberately loose at the character level: commands are single
//! upper-case letters (plus the digit-prefixed user extensions), integers
//! may be separated by any "junk", comments are parenthesised (and nest),
//! and every command ends with a semicolon. The lexer normalises all of
//! this into a small token stream, each token with the byte span it was
//! read from.
//!
//! The input is untrusted, so this module denies
//! `clippy::arithmetic_side_effects`: a number that does not fit an
//! `i64` is a [`Diagnostic`], not a debug panic or a release wrap.

#![deny(clippy::arithmetic_side_effects)]

use diic_diag::{Diagnostic, Span};

/// One lexical token of a CIF file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token<'a> {
    /// An upper-case command letter (`D`, `S`, `F`, `C`, `T`, `M`, `R`,
    /// `L`, `B`, `W`, `P`, `X`, `Y`, `E` …).
    Letter(char),
    /// A (signed) integer.
    Number(i64),
    /// A user-extension command: the digit and its raw body (up to the
    /// terminating semicolon, trimmed).
    Extension(char, &'a str),
    /// Command terminator.
    Semi,
}

/// A token plus the byte range of the source it was read from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Spanned<'a> {
    /// The token.
    pub token: Token<'a>,
    /// Where in the source.
    pub span: Span,
}

/// Lexes CIF text into tokens, lazily: the parser pulls one token at a
/// time, so a parse holds no token buffer.
///
/// Yields a [`Diagnostic`] (boxed: it is rare, and every token travels
/// by value) — and then nothing — on an unclosed comment,
/// a number that does not fit an `i64`, or a stray character that is
/// not valid between commands (CIF tolerates most junk *between
/// numbers*, but we are stricter to catch real typos).
pub struct Lexer<'a> {
    input: &'a str,
    /// The unread suffix of `input`.
    rest: &'a str,
    /// The next token starts a command: the previous one was `;`, or
    /// there is none.
    at_command: bool,
    /// An extension body was just read: its `;` comes next (a missing
    /// one at the end of the input reads as empty).
    semi_due: bool,
    /// The closing `E`, or an error, was read.
    done: bool,
}

impl<'a> Lexer<'a> {
    /// A lexer at the start of `input`.
    pub fn new(input: &'a str) -> Self {
        Lexer {
            input,
            rest: input,
            at_command: true,
            semi_due: false,
            done: false,
        }
    }

    /// The byte offset of the next unread character (`rest` is a
    /// suffix of `input`, so this never saturates).
    fn offset(&self) -> usize {
        self.input.len().saturating_sub(self.rest.len())
    }

    /// Splits the unread text at `at`, returning the part before it.
    fn take(&mut self, at: usize) -> &'a str {
        let (taken, rest) = self.rest.split_at(at);
        self.rest = rest;
        taken
    }

    fn spanned(&mut self) -> Option<Result<Spanned<'a>, Box<Diagnostic>>> {
        let error =
            |message: String, span: Span| Some(Err(Box::new(Diagnostic::new(message, span))));
        let start = self.offset();
        if std::mem::take(&mut self.semi_due) {
            self.rest = self.rest.strip_prefix(';').unwrap_or(self.rest);
            let span = Span::new(start, self.offset());
            return Some(Ok(Spanned {
                token: Token::Semi,
                span,
            }));
        }
        // Junk and (nested) comments between tokens.
        loop {
            self.rest = (self.rest).trim_start_matches(|c: char| c.is_whitespace() || c == ',');
            let start = self.offset();
            let Some(comment) = self.rest.strip_prefix('(') else {
                break;
            };
            self.rest = comment;
            let open = Span::new(start, self.offset());
            // Nesting is bounded by the input length.
            let mut depth = 1usize;
            let close = self.rest.find(|c| {
                match c {
                    '(' => depth = depth.saturating_add(1),
                    ')' => depth = depth.saturating_sub(1),
                    _ => {}
                }
                depth == 0
            });
            let Some(close) = close else {
                return error("unclosed comment".into(), open);
            };
            self.rest = &self.rest[close..][1..];
        }
        let start = self.offset();
        let mut chars = self.rest.chars();
        let c = chars.next()?;
        self.rest = chars.as_str();
        let token = match c {
            ';' => Token::Semi,
            '0'..='9' if self.at_command => {
                let body = self.take(self.rest.find(';').unwrap_or(self.rest.len()));
                self.semi_due = true;
                // The body is kept raw (only right-trimmed): a leading
                // space distinguishes the symbol-name form `9 <name>`
                // from sub-commands like `9N <net>`.
                Token::Extension(c, body.trim_end())
            }
            '-' | '0'..='9' => {
                let run = self.take(
                    (self.rest)
                        .bytes()
                        .position(|b| !b.is_ascii_digit())
                        .unwrap_or(self.rest.len()),
                );
                let span = Span::new(start, self.offset());
                if c == '-' && run.is_empty() {
                    return error("expected a number after '-'".into(), span);
                }
                let first = i64::from(c.to_digit(10).unwrap_or(0));
                let magnitude = run.bytes().try_fold(first, |m, d| {
                    m.checked_mul(10)?
                        .checked_add(i64::from(d.wrapping_sub(b'0')))
                });
                // The magnitude fits an `i64`, so `-9223372036854775808`
                // is too large as well: every coordinate can be negated
                // (mirrors, rotations).
                let value = if c == '-' {
                    magnitude.and_then(i64::checked_neg)
                } else {
                    magnitude
                };
                let Some(value) = value else {
                    let text = &self.input[span.start..span.end];
                    return error(format!("number `{text}` is too large"), span);
                };
                Token::Number(value)
            }
            // Lower-case letters are accepted as their upper-case
            // commands (seen in hand-written CIF).
            'A'..='Z' | 'a'..='z' => Token::Letter(c.to_ascii_uppercase()),
            other => {
                let span = Span::new(start, self.offset());
                return error(format!("unexpected character {other:?}"), span);
            }
        };
        let span = Span::new(start, self.offset());
        Some(Ok(Spanned { token, span }))
    }
}

impl<'a> Iterator for Lexer<'a> {
    type Item = Result<Spanned<'a>, Box<Diagnostic>>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let item = self.spanned();
        match &item {
            Some(Ok(Spanned { token, .. })) => {
                // `E` at command position ends the file; everything
                // after it is ignored per the CIF definition.
                self.done = *token == Token::Letter('E') && self.at_command;
                self.at_command = *token == Token::Semi;
            }
            _ => self.done = true,
        }
        item
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lex(s: &str) -> Result<Vec<Spanned<'_>>, Diagnostic> {
        Lexer::new(s).collect::<Result<_, _>>().map_err(|e| *e)
    }

    fn toks(s: &str) -> Vec<Token<'_>> {
        lex(s).unwrap().into_iter().map(|s| s.token).collect()
    }

    #[test]
    fn numbers_and_letters() {
        assert_eq!(
            toks("B 20 60 10,30;"),
            vec![
                Token::Letter('B'),
                Token::Number(20),
                Token::Number(60),
                Token::Number(10),
                Token::Number(30),
                Token::Semi
            ]
        );
    }

    #[test]
    fn negative_numbers() {
        assert_eq!(
            toks("T -5 -10;"),
            vec![
                Token::Letter('T'),
                Token::Number(-5),
                Token::Number(-10),
                Token::Semi
            ]
        );
    }

    #[test]
    fn comments_are_skipped_and_nest() {
        // Lexing stops at the E command; the trailing semicolon is ignored.
        assert_eq!(
            toks("(a comment (nested) more) E;"),
            vec![Token::Letter('E')]
        );
        // A run of comments is a loop, not a recursion.
        let comments = format!("{}E", "(x)".repeat(1_000_000));
        assert_eq!(toks(&comments), vec![Token::Letter('E')]);
    }

    #[test]
    fn unclosed_comment_is_error() {
        let e = lex("L NM; (oops").unwrap_err();
        assert_eq!(e.span, Span::new(6, 7));
    }

    #[test]
    fn extension_at_command_position() {
        assert_eq!(
            toks("9N VDD;"),
            vec![Token::Extension('9', "N VDD"), Token::Semi]
        );
        // Digits inside a command are numbers, not extensions.
        assert_eq!(
            toks("DS 9 1 1;"),
            vec![
                Token::Letter('D'),
                Token::Letter('S'),
                Token::Number(9),
                Token::Number(1),
                Token::Number(1),
                Token::Semi
            ]
        );
    }

    #[test]
    fn lowercase_commands_normalised() {
        assert_eq!(toks("b 1 1 0 0;"), toks("B 1 1 0 0;"));
        assert_eq!(toks("e;"), vec![Token::Letter('E')]);
    }

    #[test]
    fn tokens_carry_byte_spans() {
        let spanned = lex("B -12 1;\n9N VDD;").unwrap();
        let spans: Vec<Span> = spanned.iter().map(|s| s.span).collect();
        let at = |start, end| Span::new(start, end);
        assert_eq!(
            spans,
            [
                at(0, 1),
                at(2, 5),
                at(6, 7),
                at(7, 8),
                at(9, 15),
                at(15, 16)
            ]
        );
    }

    #[test]
    fn stray_punctuation_rejected() {
        let e = lex("B 1 ! 1;").unwrap_err();
        assert_eq!(e.span, Span::new(4, 5));
    }

    #[test]
    fn numbers_past_i64_are_diagnostics() {
        // 20 digits: a debug panic and a release wrap before.
        let e = lex("B 99999999999999999999 1 0 0;").unwrap_err();
        assert_eq!(e.message, "number `99999999999999999999` is too large");
        assert_eq!(e.span, Span::new(2, 22));
        // |i64::MIN| does not fit an i64 either; i64::MAX does.
        let e = lex("T -9223372036854775808 0;").unwrap_err();
        assert_eq!(e.span, Span::new(2, 22));
        let max = toks("T -9223372036854775807;");
        assert_eq!(max[1], Token::Number(-9223372036854775807));
        assert!(lex("T - 1;").is_err(), "a lone '-' is not a number");
    }
}
