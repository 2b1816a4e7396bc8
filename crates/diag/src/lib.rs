//! Source spans and rustc-style diagnostics: the one error type of the
//! CIF parser, the rule-deck compiler and the service's JSON bodies.
//!
//! Every [`Diagnostic`] — lexical, syntactic, or semantic — points at
//! a byte [`Span`] of the text it rejects. [`Diagnostic::render`] turns
//! that into the familiar three-line `error: … / --> file:line:col /
//! caret underline` shape, so a malformed layout or deck reads like a
//! malformed Rust file.

use std::fmt;

/// A half-open byte range into a source text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct Span {
    /// Byte offset of the first byte.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
}

impl Span {
    /// The empty placeholder span (synthetic nodes, stripped ASTs).
    pub const DUMMY: Span = Span { start: 0, end: 0 };

    /// Creates a span.
    pub fn new(start: usize, end: usize) -> Self {
        Span { start, end }
    }

    /// The smallest span covering both `self` and `other`.
    pub fn to(self, other: Span) -> Span {
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }
}

/// An error in a source text: a message anchored to a span, plus the
/// constructs the parser would have accepted at that point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// What went wrong.
    pub message: String,
    /// Where in the source.
    pub span: Span,
    /// Expected-token hints (empty for lexical and compile errors).
    pub expected: Vec<String>,
}

impl Diagnostic {
    /// Creates an error with no expected-token hints.
    pub fn new(message: impl Into<String>, span: Span) -> Self {
        Diagnostic {
            message: message.into(),
            span,
            expected: Vec::new(),
        }
    }

    /// Attaches expected-token hints.
    pub fn expecting<S: Into<String>>(mut self, expected: impl IntoIterator<Item = S>) -> Self {
        self.expected = expected.into_iter().map(Into::into).collect();
        self
    }

    /// 1-based `(line, column)` of the span start in `source`. Columns
    /// count bytes (the front ends' sources are ASCII in practice); a
    /// start past the end, or inside a multi-byte character, counts from
    /// the character boundary before it.
    pub fn line_column(&self, source: &str) -> (usize, usize) {
        let start = source.floor_char_boundary(self.span.start);
        let before = &source[..start];
        let line = before.bytes().filter(|&b| b == b'\n').count() + 1;
        let column = start - before.rfind('\n').map(|i| i + 1).unwrap_or(0) + 1;
        (line, column)
    }

    /// Renders the error rustc-style: message, `file:line:col`, the
    /// offending source line, and a caret underline carrying the
    /// expected-token hint. A line reaching more than 60 bytes either
    /// side of the caret (a one-line JSON body, say) is clipped to that
    /// window, marked `...`, so the rendering stays small whatever the
    /// source.
    pub fn render(&self, file: &str, source: &str) -> String {
        use std::fmt::Write as _;
        let (line, column) = self.line_column(source);
        let line_start = source.floor_char_boundary(self.span.start) - (column - 1);
        let line_text = source[line_start..].lines().next().unwrap_or("");
        // The window around the caret, at byte `column - 1` of the line.
        let from = line_text.floor_char_boundary((column - 1).saturating_sub(CONTEXT));
        let to = line_text.floor_char_boundary(column - 1 + CONTEXT);
        let head = if from > 0 { "..." } else { "" };
        let tail = if to < line_text.len() { "..." } else { "" };
        let mut s = String::new();
        let _ = writeln!(s, "error: {}", self.message);
        let _ = writeln!(s, " --> {file}:{line}:{column}");
        let gutter = line.to_string();
        let pad = " ".repeat(gutter.len());
        let _ = writeln!(s, "{pad} |");
        let _ = writeln!(s, "{gutter} | {head}{}{tail}", &line_text[from..to]);
        // Underline the span, clipped to the rendered text; always at
        // least one caret (end-of-file errors point past the last byte).
        let carets = self
            .span
            .end
            .saturating_sub(self.span.start)
            .clamp(1, (to + 1).saturating_sub(column).max(1));
        let hint = if self.expected.is_empty() {
            String::new()
        } else {
            format!(" expected {}", self.expected.join(" or "))
        };
        let _ = writeln!(
            s,
            "{pad} | {}{}{hint}",
            " ".repeat(head.len() + column - 1 - from),
            "^".repeat(carets)
        );
        s
    }
}

/// Bytes of the offending line [`Diagnostic::render`] prints either side
/// of the caret.
const CONTEXT: usize = 60;

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)?;
        if !self.expected.is_empty() {
            write!(f, " (expected {})", self.expected.join(" or "))?;
        }
        Ok(())
    }
}

impl std::error::Error for Diagnostic {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_column_counts_from_one() {
        let src = "abc\ndef\n";
        let e = Diagnostic::new("x", Span::new(5, 6));
        assert_eq!(e.line_column(src), (2, 2));
        let first = Diagnostic::new("x", Span::new(0, 1));
        assert_eq!(first.line_column(src), (1, 1));
    }

    #[test]
    fn render_shape() {
        let src = "tech \"x\" {\n    lambda;\n}\n";
        let e = Diagnostic::new("expected a number, found `;`", Span::new(21, 22))
            .expecting(["a number"]);
        let out = e.render("t.deck", src);
        assert_eq!(
            out,
            "error: expected a number, found `;`\n \
             --> t.deck:2:11\n  \
             |\n\
             2 |     lambda;\n  \
             |           ^ expected a number\n"
        );
    }

    #[test]
    fn render_clamps_past_eof() {
        let src = "tech";
        let e = Diagnostic::new("unexpected end of file", Span::new(4, 4));
        let out = e.render("t.deck", src);
        assert!(out.contains("t.deck:1:5"));
        assert!(out.contains('^'));
    }

    #[test]
    fn render_snaps_a_mid_character_span_back() {
        // The JSON parser reports `{"cif": "\é"}`'s bad escape at the
        // second byte of `é`.
        let src = "{\"cif\": \"\\\u{e9}\"}";
        let e = Diagnostic::new("invalid escape character", Span::new(11, 11));
        assert_eq!(e.line_column(src), (1, 11));
        assert!(e.render("body", src).ends_with(" |           ^\n"));
    }

    #[test]
    fn render_clips_a_long_line_around_the_caret() {
        let src = format!("{}!{}", "a".repeat(100_000), "b".repeat(100_000));
        let e = Diagnostic::new("stray", Span::new(100_000, 100_001));
        let out = e.render("body", &src);
        let window = format!("...{}!{}...", "a".repeat(60), "b".repeat(59));
        assert!(out.contains(&format!("1 | {window}\n")), "{out}");
        assert!(out.ends_with(&format!(" | {}^\n", " ".repeat(63))), "{out}");
        assert!(out.len() < 300);
    }
}
