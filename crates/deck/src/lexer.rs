//! The deck tokenizer.
//!
//! Five token shapes cover the whole language: identifiers, unsigned
//! numbers, double-quoted strings, the three punctuators `{` `}` `;`,
//! and `/` (fractional distances like `3/2 lambda`). Keywords are not
//! reserved — the parser matches identifier text in context, which is
//! what lets it offer expected-token hints instead of a generic
//! "reserved word" error. `#` and `//` start line comments.

use diic_diag::{Diagnostic, Span};

/// Kind of a lexical token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// `[A-Za-z_][A-Za-z0-9_]*` — names and keywords alike.
    Ident,
    /// `[0-9]+`.
    Number,
    /// `"..."` (no escapes, no newlines).
    Str,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `;`
    Semi,
    /// `/`
    Slash,
    /// End of input (always the last token).
    Eof,
}

/// A token: its kind and source span (text is sliced from the source).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    /// Lexical class.
    pub kind: TokenKind,
    /// Byte range in the source.
    pub span: Span,
}

/// Tokenizes a whole deck source.
///
/// # Errors
///
/// [`Diagnostic`] on an unterminated string literal or a character
/// outside the language.
pub fn lex(source: &str) -> Result<Vec<Token>, Diagnostic> {
    let bytes = source.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    let mut push = |kind, start, end| {
        tokens.push(Token {
            kind,
            span: Span::new(start, end),
        })
    };
    while i < bytes.len() {
        match bytes[i] {
            b' ' | b'\t' | b'\r' | b'\n' => i += 1,
            b'#' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'{' => {
                push(TokenKind::LBrace, i, i + 1);
                i += 1;
            }
            b'}' => {
                push(TokenKind::RBrace, i, i + 1);
                i += 1;
            }
            b';' => {
                push(TokenKind::Semi, i, i + 1);
                i += 1;
            }
            b'/' => {
                push(TokenKind::Slash, i, i + 1);
                i += 1;
            }
            b'"' => {
                let start = i;
                i += 1;
                while i < bytes.len() && bytes[i] != b'"' && bytes[i] != b'\n' {
                    i += 1;
                }
                if bytes.get(i) != Some(&b'"') {
                    return Err(Diagnostic::new(
                        "unterminated string literal",
                        Span::new(start, i),
                    ));
                }
                i += 1;
                push(TokenKind::Str, start, i);
            }
            b'0'..=b'9' => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                push(TokenKind::Number, start, i);
            }
            b'A'..=b'Z' | b'a'..=b'z' | b'_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                push(TokenKind::Ident, start, i);
            }
            other => {
                return Err(Diagnostic::new(
                    format!("unexpected character `{}`", other as char),
                    Span::new(i, i + 1),
                ))
            }
        }
    }
    tokens.push(Token {
        kind: TokenKind::Eof,
        span: Span::new(source.len(), source.len()),
    });
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).unwrap().iter().map(|t| t.kind).collect()
    }

    #[test]
    fn tokenizes_the_alphabet() {
        use TokenKind::*;
        assert_eq!(
            kinds("tech \"nmos\" { lambda 250; space 3/2 }"),
            vec![
                Ident, Str, LBrace, Ident, Number, Semi, Ident, Number, Slash, Number, RBrace, Eof
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        use TokenKind::*;
        assert_eq!(
            kinds("# a comment\nx // trailing\ny"),
            vec![Ident, Ident, Eof]
        );
    }

    #[test]
    fn unterminated_string_is_spanned() {
        let e = lex("power \"VDD\nx").unwrap_err();
        assert_eq!(e.span, Span::new(6, 10));
        assert!(e.message.contains("unterminated"));
    }

    #[test]
    fn stray_character_is_an_error() {
        let e = lex("space @").unwrap_err();
        assert_eq!(e.span, Span::new(6, 7));
        assert!(e.message.contains('@'));
    }
}
