//! CIF parser: token stream → [`Layout`].
//!
//! Every error is a [`Diagnostic`] anchored to the command it is about.
//! Errors found after the last token — an undefined call target, a
//! recursive or too-deep definition — point into the source too: the
//! parser keeps the span of each `C` and `DS` it reads (the [`Layout`]
//! itself carries no spans).
//!
//! The input is untrusted, so this module denies
//! `clippy::arithmetic_side_effects`: `DS` scaling, box corners and
//! call translations are checked, and every coordinate the parser hands
//! on lies within `±`[`MAX_COORD`], which leaves the checker headroom to
//! compose [`MAX_CALL_DEPTH`] levels of calls without overflow.

#![deny(clippy::arithmetic_side_effects)]

use crate::hierarchy::{check_acyclic, HierarchyError, MAX_CALL_DEPTH};
use crate::layout::{
    Call, DeviceDecl, Element, Item, LayerRef, Layout, NetLabel, Shape, Symbol, SymbolId, Terminal,
};
use crate::token::{Lexer, Spanned, Token};
use diic_diag::{Diagnostic, Span};
use diic_geom::{Coord, Orientation, Point, Polygon, Rect, Transform, Vector, Wire, MAX_COORD};
use std::fmt::Write as _;

/// Parses extended-CIF text into a validated [`Layout`].
///
/// Validation performed here: syntax, numbers and coordinates that
/// overflow, duplicate/undefined symbol ids, non-Manhattan rotations,
/// malformed shapes and extensions, call cycles, and call chains deeper
/// than [`MAX_CALL_DEPTH`]. Geometry/design-rule checking is the job of
/// `diic-core`.
///
/// # Errors
///
/// A [`Diagnostic`] spanning the offending command; render it against
/// `input` with [`Diagnostic::render`].
pub fn parse(input: &str) -> Result<Layout, Diagnostic> {
    Parser {
        tokens: Lexer::new(input),
        peeked: None,
        last: 0,
        len: input.len(),
        layout: Layout::new(),
        current: None,
        definitions: Vec::new(),
        calls: Vec::new(),
        pending_net: None,
        current_layer: None,
        top_calls: 0,
    }
    .run()
}

/// A `DS` being read.
struct Definition {
    /// The id the symbol gets at its `DF`.
    id: SymbolId,
    symbol: Symbol,
    /// The `a / b` scale applied to the coordinates in the body.
    scale: (Coord, Coord),
    /// `DS <id>`.
    span: Span,
    /// Calls read so far (they are named `i0`, `i1`, …).
    calls: usize,
}

/// A call read but not yet resolved: where it sits (`None` = top
/// level), the CIF id it names, and the span of `C <id>`.
struct CallSite {
    scope: Option<SymbolId>,
    item: usize,
    cif_id: u32,
    span: Span,
}

struct Parser<'a> {
    tokens: Lexer<'a>,
    /// The next token, once looked at.
    peeked: Option<Spanned<'a>>,
    /// End of the last token read.
    last: usize,
    /// Length of the source.
    len: usize,
    layout: Layout,
    current: Option<Definition>,
    /// The span of each symbol's `DS <id>`, by [`SymbolId`].
    definitions: Vec<Span>,
    calls: Vec<CallSite>,
    /// Net identifier pending for the next primitive element.
    pending_net: Option<String>,
    /// Current layer, per CIF (persists across symbol boundaries).
    current_layer: Option<LayerRef>,
    /// Top-level calls read so far.
    top_calls: usize,
}

/// `v` if it is a coordinate the parser hands on: within
/// `±`[`MAX_COORD`].
fn coordinate(v: Option<Coord>) -> Option<Coord> {
    v.filter(|v| (-MAX_COORD..=MAX_COORD).contains(v))
}

fn fail<T>(message: impl Into<String>, span: Span) -> Result<T, Diagnostic> {
    Err(Diagnostic::new(message, span))
}

fn out_of_range(what: String, span: Span) -> Diagnostic {
    let message = format!("{what} is outside the coordinate range ±{MAX_COORD}");
    Diagnostic::new(message, span)
}

fn not_manhattan(a: i64, b: i64, span: Span) -> Diagnostic {
    let message = format!(
        "rotation direction ({a}, {b}) is not an axis direction (DIIC layouts are Manhattan)"
    );
    Diagnostic::new(message, span)
}

impl<'a> Parser<'a> {
    /// Reads the next token; a lexical error surfaces here, in source
    /// order with the parser's own.
    fn bump(&mut self) -> Result<Option<Spanned<'a>>, Diagnostic> {
        let token = match self.peeked.take() {
            Some(token) => Some(token),
            None => self.tokens.next().transpose().map_err(|e| *e)?,
        };
        if let Some(token) = &token {
            self.last = token.span.end;
        }
        Ok(token)
    }

    fn peek(&mut self) -> Result<Option<&Token<'a>>, Diagnostic> {
        if self.peeked.is_none() {
            self.peeked = self.tokens.next().transpose().map_err(|e| *e)?;
        }
        Ok(self.peeked.as_ref().map(|t| &t.token))
    }

    /// From `start` to the end of the last token read.
    fn since(&self, start: usize) -> Span {
        Span::new(start, self.last)
    }

    /// The span of the token last peeked at, or the end of the source.
    fn next_span(&self) -> Span {
        let end = Span::new(self.len, self.len);
        self.peeked.as_ref().map_or(end, |t| t.span)
    }

    fn number(&mut self, what: &str) -> Result<(i64, Span), Diagnostic> {
        if let Some(&Token::Number(n)) = self.peek()? {
            let span = self.next_span();
            self.bump()?;
            return Ok((n, span));
        }
        fail(format!("expected a number for {what}"), self.next_span())
    }

    /// A coordinate: a number, scaled by the enclosing `DS`'s `a / b`.
    fn coord(&mut self, what: &str) -> Result<Coord, Diagnostic> {
        let (v, span) = self.number(what)?;
        let (a, b) = self.current.as_ref().map_or((1, 1), |def| def.scale);
        coordinate(v.checked_mul(a).and_then(|v| v.checked_div(b))).ok_or_else(|| {
            let scaled = match (a, b) {
                (1, 1) => String::new(),
                _ => format!(" scaled by {a}/{b}"),
            };
            out_of_range(format!("{what} {v}{scaled}"), span)
        })
    }

    fn symbol_id(&mut self, what: &str) -> Result<u32, Diagnostic> {
        let (n, span) = self.number(what)?;
        u32::try_from(n).map_err(|_| {
            let message = format!("symbol id {n} is out of range (0 to {})", u32::MAX);
            Diagnostic::new(message, span)
        })
    }

    fn semi(&mut self, what: &str) -> Result<(), Diagnostic> {
        if self.peek()? == Some(&Token::Semi) {
            self.bump()?;
            return Ok(());
        }
        fail(format!("expected ';' after {what}"), self.next_span())
    }

    fn run(mut self) -> Result<Layout, Diagnostic> {
        while let Some(Spanned { token, span }) = self.bump()? {
            let start = span.start;
            match token {
                Token::Semi => {} // empty command
                Token::Letter('D') => match self.bump()?.map(|t| t.token) {
                    Some(Token::Letter('S')) => self.cmd_ds(start)?,
                    Some(Token::Letter('F')) => self.cmd_df(start)?,
                    Some(Token::Letter('D')) => {
                        // "DD n;" (delete definitions) — accepted and ignored.
                        while !matches!(self.peek()?, Some(Token::Semi) | None) {
                            self.bump()?;
                        }
                        self.semi("DD")?;
                    }
                    _ => return fail("`D` must begin DS, DF or DD", self.since(start)),
                },
                Token::Letter('C') => self.cmd_call(start)?,
                Token::Letter('L') => self.cmd_layer(start)?,
                Token::Letter('B') => self.cmd_box(start)?,
                Token::Letter('W') => self.cmd_wire(start)?,
                Token::Letter('P') => self.cmd_polygon(start)?,
                Token::Letter('E') => break,
                Token::Letter(c) => return fail(format!("unknown command {c:?}"), span),
                Token::Extension(digit, body) => {
                    self.cmd_extension(digit, body, span)?;
                    self.semi("extension")?;
                }
                Token::Number(_) => return fail("expected a command, found a number", span),
            }
        }
        if let Some(def) = self.current.take() {
            let message = format!("symbol {} never closed with DF", def.symbol.cif_id);
            return fail(message, def.span);
        }
        self.resolve_calls()?;
        let symbols = self.layout.symbols();
        let calls = |s: usize| symbols[s].calls().map(|c| c.target);
        let cif_id = |s: SymbolId| symbols[s.0 as usize].cif_id;
        let (s, message) = match check_acyclic(symbols.len(), calls) {
            Ok(()) => return Ok(self.layout),
            Err(HierarchyError::Cycle(s)) => {
                (s, format!("recursive calls through symbol {}", cif_id(s)))
            }
            Err(HierarchyError::TooDeep(s)) => {
                let id = cif_id(s);
                (
                    s,
                    format!("symbol {id} nests calls more than {MAX_CALL_DEPTH} deep"),
                )
            }
        };
        fail(message, self.definitions[s.0 as usize])
    }

    fn cmd_ds(&mut self, start: usize) -> Result<(), Diagnostic> {
        if self.current.is_some() {
            let message = "DS inside DS: symbol definitions cannot nest";
            return fail(message, self.since(start));
        }
        let cif_id = self.symbol_id("DS id")?;
        let span = self.since(start);
        if self.layout.symbol_by_cif_id(cif_id).is_some() {
            return fail(format!("symbol {cif_id} defined twice"), span);
        }
        let scale = match self.peek()? {
            Some(Token::Number(_)) => {
                let (a, _) = self.number("DS scale a")?;
                let (b, _) = self.number("DS scale b")?;
                if a <= 0 || b <= 0 {
                    return fail("DS scale factors must be positive", self.since(start));
                }
                (a, b)
            }
            _ => (1, 1),
        };
        self.semi("DS")?;
        self.current = Some(Definition {
            id: SymbolId(self.layout.symbols().len() as u32),
            symbol: Symbol {
                cif_id,
                name: None,
                device: None,
                items: Vec::new(),
            },
            scale,
            span,
            calls: 0,
        });
        Ok(())
    }

    fn cmd_df(&mut self, start: usize) -> Result<(), Diagnostic> {
        let Some(def) = self.current.take() else {
            return fail("DF without matching DS", self.since(start));
        };
        self.semi("DF")?;
        self.definitions.push(def.span);
        // A layout lives as long as its check: trim what growth left.
        let mut symbol = def.symbol;
        symbol.items.shrink_to_fit();
        if let Some(device) = &mut symbol.device {
            device.terminals.shrink_to_fit();
        }
        self.layout.add_symbol(symbol);
        Ok(())
    }

    fn cmd_call(&mut self, start: usize) -> Result<(), Diagnostic> {
        let cif_id = self.symbol_id("C symbol id")?;
        let span = self.since(start);
        let mut transform = Transform::IDENTITY;
        loop {
            let op = self.bump()?;
            let op_span = op
                .as_ref()
                .map_or(Span::new(self.len, self.len), |t| t.span);
            let orient = match op.map(|t| t.token) {
                Some(Token::Semi) => break,
                Some(Token::Letter('T')) => {
                    let x = self.coord("T x")?;
                    let y = self.coord("T y")?;
                    // `Transform::translate(..).after(&transform)`, checked.
                    let offset = transform.offset;
                    let x = coordinate(offset.x.checked_add(x));
                    let y = coordinate(offset.y.checked_add(y));
                    let (Some(x), Some(y)) = (x, y) else {
                        let span = self.since(op_span.start);
                        return Err(out_of_range("call translation".into(), span));
                    };
                    transform.offset = Vector::new(x, y);
                    continue;
                }
                Some(Token::Letter('M')) => match self.bump()?.map(|t| t.token) {
                    Some(Token::Letter('X')) => Orientation::MR0,
                    Some(Token::Letter('Y')) => Orientation::MR180,
                    _ => {
                        return fail("a mirror is `MX` or `MY`", self.since(op_span.start));
                    }
                },
                Some(Token::Letter('R')) => {
                    let (a, _) = self.number("R a")?;
                    let (b, _) = self.number("R b")?;
                    Orientation::from_cif_direction(a, b)
                        .ok_or_else(|| not_manhattan(a, b, self.since(op_span.start)))?
                }
                _ => return fail("expected ';' after call", op_span),
            };
            transform = Transform::new(orient, Vector::ZERO).after(&transform);
        }
        let count = match &mut self.current {
            Some(def) => &mut def.calls,
            None => &mut self.top_calls,
        };
        let name = format!("i{count}");
        // Counts are bounded by the input length.
        *count = count.saturating_add(1);
        // The CIF id stands in for the target until resolve_calls.
        let call = Item::Call(Call {
            target: SymbolId(cif_id),
            transform,
            name,
        });
        let (scope, item) = self.push_item(call);
        self.calls.push(CallSite {
            scope,
            item,
            cif_id,
            span,
        });
        Ok(())
    }

    fn cmd_layer(&mut self, start: usize) -> Result<(), Diagnostic> {
        let mut name = String::new();
        loop {
            match self.peek()? {
                Some(Token::Letter(c)) => name.push(*c),
                Some(Token::Number(n)) if !name.is_empty() => {
                    let _ = write!(name, "{n}");
                }
                _ => break,
            }
            self.bump()?;
        }
        if name.is_empty() {
            return fail("L command with no layer name", self.since(start));
        }
        self.semi("L")?;
        self.current_layer = Some(self.layout.intern_layer(&name));
        Ok(())
    }

    fn current_layer(&self, start: usize) -> Result<LayerRef, Diagnostic> {
        self.current_layer.ok_or_else(|| {
            Diagnostic::new("element before any L layer selection", self.since(start))
        })
    }

    fn cmd_box(&mut self, start: usize) -> Result<(), Diagnostic> {
        let layer = self.current_layer(start)?;
        let length = self.coord("B length")?;
        let width = self.coord("B width")?;
        let cx = self.coord("B cx")?;
        let cy = self.coord("B cy")?;
        if length <= 0 || width <= 0 {
            let message = format!("box dimensions must be positive, got {length}x{width}");
            return fail(message, self.since(start));
        }
        // Optional direction: rotates the length axis.
        let (length, width) = match self.peek()? {
            Some(Token::Number(_)) => {
                let (dx, _) = self.number("B direction x")?;
                let (dy, _) = self.number("B direction y")?;
                match Orientation::from_cif_direction(dx, dy) {
                    Some(Orientation::R0) | Some(Orientation::R180) => (length, width),
                    Some(Orientation::R90) | Some(Orientation::R270) => (width, length),
                    _ => return Err(not_manhattan(dx, dy, self.since(start))),
                }
            }
            _ => (length, width),
        };
        self.semi("B")?;
        // `Rect::from_center`'s corners, checked: odd sides truncate
        // toward the centre.
        let corners = |centre: Coord, side: Coord| {
            let low = coordinate(centre.checked_sub(side / 2))?;
            Some((low, coordinate(low.checked_add(side))?))
        };
        let (Some((x1, x2)), Some((y1, y2))) = (corners(cx, length), corners(cy, width)) else {
            return Err(out_of_range("a box corner".into(), self.since(start)));
        };
        self.push_element(layer, Shape::Box(Rect::new(x1, y1, x2, y2)));
        Ok(())
    }

    /// The `x y` pairs of a `W` or `P` command.
    fn points(&mut self, what: [&str; 2]) -> Result<Vec<Point>, Diagnostic> {
        let mut points = Vec::new();
        while let Some(Token::Number(_)) = self.peek()? {
            let x = self.coord(what[0])?;
            let y = self.coord(what[1])?;
            points.push(Point::new(x, y));
        }
        points.shrink_to_fit();
        Ok(points)
    }

    fn cmd_wire(&mut self, start: usize) -> Result<(), Diagnostic> {
        let layer = self.current_layer(start)?;
        let width = self.coord("W width")?;
        let points = self.points(["W x", "W y"])?;
        self.semi("W")?;
        let wire = Wire::new(width, points)
            .map_err(|e| Diagnostic::new(format!("malformed shape: {e}"), self.since(start)))?;
        self.push_element(layer, Shape::Wire(wire));
        Ok(())
    }

    fn cmd_polygon(&mut self, start: usize) -> Result<(), Diagnostic> {
        let layer = self.current_layer(start)?;
        let points = self.points(["P x", "P y"])?;
        self.semi("P")?;
        let polygon = Polygon::new(points)
            .map_err(|e| Diagnostic::new(format!("malformed shape: {e}"), self.since(start)))?;
        self.push_element(layer, Shape::Polygon(polygon));
        Ok(())
    }

    fn cmd_extension(&mut self, digit: char, body: &str, span: Span) -> Result<(), Diagnostic> {
        if digit != '9' {
            return Ok(()); // other user extensions are ignored
        }
        let malformed =
            |message: &str| Diagnostic::new(format!("malformed extension: {message}"), span);
        if let Some(rest) = body.strip_prefix(' ') {
            // `9 <name>` — symbol name.
            let name = rest.trim();
            if name.is_empty() {
                return Err(malformed("9 <name> requires a name"));
            }
            if let Some(def) = &mut self.current {
                def.symbol.name = Some(name.to_string());
            }
            return Ok(());
        }
        let mut chars = body.chars();
        let sub = chars.next().unwrap_or(' ');
        let rest = chars.as_str().trim();
        let outside = || Diagnostic::new(format!("9{sub} outside a symbol definition"), span);
        let int = |s: &str| {
            coordinate(s.parse().ok()).ok_or_else(|| {
                let message = format!("expected a coordinate in extension field {s:?}");
                Diagnostic::new(message, span)
            })
        };
        match sub {
            'N' => {
                if rest.is_empty() {
                    return Err(malformed("9N requires a net name"));
                }
                self.pending_net = Some(rest.to_string());
            }
            'D' => {
                if rest.is_empty() {
                    return Err(malformed("9D requires a device type"));
                }
                let def = self.current.as_mut().ok_or_else(outside)?;
                match &mut def.symbol.device {
                    Some(d) => d.device_type = rest.to_string(),
                    None => {
                        def.symbol.device = Some(DeviceDecl {
                            device_type: rest.to_string(),
                            checked: false,
                            terminals: Vec::new(),
                        })
                    }
                }
            }
            'C' => {
                let def = self.current.as_mut().ok_or_else(outside)?;
                let Some(device) = &mut def.symbol.device else {
                    return Err(malformed("9C must follow a 9D device declaration"));
                };
                device.checked = true;
            }
            'T' => {
                // 9T <name> <layer> <x> <y>
                let parts: Vec<&str> = rest.split_whitespace().collect();
                let [name, layer, x, y] = parts.as_slice() else {
                    return Err(malformed("9T wants: name layer x y"));
                };
                let position = Point::new(int(x)?, int(y)?);
                let layer = self.layout.intern_layer(layer);
                let def = self.current.as_mut().ok_or_else(outside)?;
                let Some(device) = &mut def.symbol.device else {
                    return Err(malformed("9T must follow a 9D device declaration"));
                };
                device.terminals.push(Terminal {
                    name: name.to_string(),
                    layer,
                    position,
                });
            }
            'L' => {
                // 9L <net> <layer> <x> <y> — top-level net label.
                let parts: Vec<&str> = rest.split_whitespace().collect();
                let [net, layer, x, y] = parts.as_slice() else {
                    return Err(malformed("9L wants: net layer x y"));
                };
                let position = Point::new(int(x)?, int(y)?);
                let layer = self.layout.intern_layer(layer);
                self.layout.push_label(NetLabel {
                    net: net.to_string(),
                    layer,
                    position,
                });
            }
            other => return Err(malformed(&format!("unknown 9{other} extension"))),
        }
        Ok(())
    }

    fn push_element(&mut self, layer: LayerRef, shape: Shape) {
        let net = self.pending_net.take();
        self.push_item(Item::Element(Element { layer, shape, net }));
    }

    /// Appends `item` to the symbol being defined, or to the top level;
    /// returns where it went.
    fn push_item(&mut self, item: Item) -> (Option<SymbolId>, usize) {
        match &mut self.current {
            Some(def) => {
                let index = def.symbol.items.len();
                def.symbol.items.push(item);
                (Some(def.id), index)
            }
            None => {
                let index = self.layout.top_items().len();
                self.layout.push_top(item);
                (None, index)
            }
        }
    }

    /// Points every call at the [`SymbolId`] of the CIF id it names,
    /// through the layout's own index.
    fn resolve_calls(&mut self) -> Result<(), Diagnostic> {
        for site in &self.calls {
            let Some(target) = self.layout.symbol_by_cif_id(site.cif_id) else {
                let message = format!("call references undefined symbol {}", site.cif_id);
                return fail(message, site.span);
            };
            let item = match site.scope {
                Some(symbol) => &mut self.layout.symbol_mut(symbol).items[site.item],
                None => self.layout.top_item_mut(site.item),
            };
            if let Item::Call(call) = item {
                call.target = target;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::arithmetic_side_effects)]
mod tests {
    use super::*;

    /// The rejection of `input`, and the source text it spans.
    fn reject(input: &str) -> (Diagnostic, &str) {
        let e = parse(input).unwrap_err();
        let spanned = &input[e.span.start..e.span.end];
        (e, spanned)
    }

    #[test]
    fn minimal_box() {
        let l = parse("L NM; B 40 20 20,10; E").unwrap();
        assert_eq!(l.top_items().len(), 1);
        let Item::Element(e) = &l.top_items()[0] else {
            panic!("expected element")
        };
        assert_eq!(e.shape.bbox(), Rect::new(0, 0, 40, 20));
        assert_eq!(l.layer_name(e.layer), "NM");
    }

    #[test]
    fn box_with_direction() {
        let l = parse("L NM; B 40 20 0 0 0 1; E").unwrap();
        let Item::Element(e) = &l.top_items()[0] else {
            panic!()
        };
        // Rotated 90°: length axis vertical.
        assert_eq!(e.shape.bbox(), Rect::new(-10, -20, 10, 20));
    }

    #[test]
    fn odd_box_sides_truncate_like_from_center() {
        let l = parse("L NM; B 5 3 10 -10; E").unwrap();
        let Item::Element(e) = &l.top_items()[0] else {
            panic!()
        };
        let want = Rect::from_center(Point::new(10, -10), 5, 3);
        assert_eq!(e.shape.bbox(), want);
    }

    #[test]
    fn wire_and_polygon() {
        let l = parse("L NP; W 20 0 0 100 0 100 100; P 0 0 50 0 0 50; E").unwrap();
        assert_eq!(l.top_items().len(), 2);
        let Item::Element(w) = &l.top_items()[0] else {
            panic!()
        };
        assert!(matches!(w.shape, Shape::Wire(_)));
        let Item::Element(p) = &l.top_items()[1] else {
            panic!()
        };
        assert!(matches!(p.shape, Shape::Polygon(_)));
    }

    #[test]
    fn symbol_definition_and_call() {
        let l = parse("DS 1 1 1; 9 cell; L ND; B 20 20 10 10; DF; C 1 T 100 0; E").unwrap();
        assert_eq!(l.symbols().len(), 1);
        assert_eq!(l.symbol_by_name("cell"), Some(SymbolId(0)));
        let Item::Call(c) = &l.top_items()[0] else {
            panic!()
        };
        assert_eq!(c.target, SymbolId(0));
        assert_eq!(c.transform.offset, Vector::new(100, 0));
        assert_eq!(c.name, "i0");
    }

    #[test]
    fn ds_scale_applies() {
        // Scale 2/1 doubles all coordinates in the symbol.
        let l = parse("DS 1 2 1; L ND; B 10 10 5 5; DF; C 1; E").unwrap();
        let sym = l.symbol(SymbolId(0));
        let e = sym.elements().next().unwrap();
        assert_eq!(e.shape.bbox(), Rect::new(0, 0, 20, 20));
    }

    #[test]
    fn transform_order_mirror_then_translate() {
        // CIF: ops apply left to right: MX then T.
        let l = parse("DS 1 1 1; L ND; B 2 2 5 0; DF; C 1 MX T 100 0; E").unwrap();
        let Item::Call(c) = &l.top_items()[0] else {
            panic!()
        };
        // Point (5,0) -> MX -> (-5,0) -> T -> (95,0).
        assert_eq!(c.transform.apply_point(Point::new(5, 0)), Point::new(95, 0));
    }

    #[test]
    fn transform_list_composes_like_after() {
        let l = parse("DS 1; DF; C 1 T 3 4 R 0 1 T -7 2 MY T 1 1; E").unwrap();
        let Item::Call(c) = &l.top_items()[0] else {
            panic!()
        };
        let t = |x, y| Transform::translate(Vector::new(x, y));
        let r = |o| Transform::new(o, Vector::ZERO);
        let want = [
            t(3, 4),
            r(Orientation::R90),
            t(-7, 2),
            r(Orientation::MR180),
        ]
        .into_iter()
        .chain([t(1, 1)])
        .fold(Transform::IDENTITY, |acc, op| op.after(&acc));
        assert_eq!(c.transform, want);
    }

    #[test]
    fn rotation_must_be_manhattan() {
        let (e, spanned) = reject("DS 1 1 1; DF; C 1 R 1 1; E");
        assert!(e.message.contains("(1, 1)"), "{}", e.message);
        assert_eq!(spanned, "R 1 1");
    }

    #[test]
    fn forward_reference_resolved() {
        let l = parse("C 2 T 0 0; DS 2 1 1; L ND; B 2 2 0 0; DF; E").unwrap();
        let Item::Call(c) = &l.top_items()[0] else {
            panic!()
        };
        assert_eq!(c.target, SymbolId(0));
    }

    #[test]
    fn calls_resolve_in_every_scope() {
        let l = parse("DS 7; DF; DS 3; C 7; L ND; B 2 2 0 0; C 7; DF; C 3; C 7; E").unwrap();
        let targets = |items: &[Item]| -> Vec<SymbolId> {
            let calls = items.iter().filter_map(|item| match item {
                Item::Call(c) => Some(c.target),
                Item::Element(_) => None,
            });
            calls.collect()
        };
        assert_eq!(targets(&l.symbol(SymbolId(1)).items), [SymbolId(0); 2]);
        assert_eq!(targets(l.top_items()), [SymbolId(1), SymbolId(0)]);
    }

    #[test]
    fn undefined_symbol_points_at_its_call() {
        let (e, spanned) = reject("DS 1; DF; C 1; C 42 T 0 0; E");
        assert_eq!(e.message, "call references undefined symbol 42");
        assert_eq!(spanned, "C 42");
    }

    #[test]
    fn duplicate_symbol_rejected() {
        let (e, spanned) = reject("DS 1; DF; DS 1; DF; E");
        assert_eq!(e.message, "symbol 1 defined twice");
        assert_eq!((e.span.start, spanned), (10, "DS 1"));
    }

    #[test]
    fn nested_ds_rejected() {
        let (e, spanned) = reject("DS 1; DS 2; DF; DF; E");
        assert!(e.message.contains("cannot nest"));
        assert_eq!(spanned, "DS");
    }

    #[test]
    fn unclosed_ds_rejected() {
        let (e, spanned) = reject("DS 1; L ND; B 2 2 0 0; E");
        assert_eq!(e.message, "symbol 1 never closed with DF");
        assert_eq!(spanned, "DS 1");
    }

    #[test]
    fn recursion_points_at_a_definition_on_the_cycle() {
        let (e, spanned) = reject("DS 1; C 2; DF; DS 2; C 1; DF; E");
        assert_eq!(e.message, "recursive calls through symbol 1");
        assert_eq!(spanned, "DS 1");
    }

    /// `DS 0; C 1; DF; DS 1; C 2; DF; …` — a chain of `n` symbols,
    /// called once from the top.
    fn call_chain(n: usize) -> String {
        let mut cif: String = (0..n - 1)
            .map(|i| format!("DS {i}; C {}; DF;\n", i + 1))
            .collect();
        cif.push_str(&format!("DS {}; L NM; B 2 2 0 0; DF;\nC 0; E", n - 1));
        cif
    }

    #[test]
    fn call_depth_is_bounded_at_the_offending_definition() {
        assert!(parse(&call_chain(MAX_CALL_DEPTH)).is_ok());
        let too_deep = call_chain(MAX_CALL_DEPTH + 1);
        let (e, spanned) = reject(&too_deep);
        assert_eq!(e.message, "symbol 0 nests calls more than 256 deep");
        assert_eq!(spanned, "DS 0");
        // Walked on a heap stack: a chain that would overflow any
        // recursive walk is just another diagnostic.
        let deepest = call_chain(10_000);
        let (e, spanned) = reject(&deepest);
        assert_eq!(
            (e.message.as_str(), spanned),
            ("symbol 0 nests calls more than 256 deep", "DS 0")
        );
    }

    #[test]
    fn symbol_ids_outside_u32_are_diagnostics() {
        // `C 4294967297` used to call symbol 1, `DS -1` to define
        // symbol 4294967295.
        let (e, spanned) = reject("DS 1; DF; C 4294967297; E");
        assert!(e.message.contains("out of range"), "{}", e.message);
        assert_eq!(spanned, "4294967297");
        let (_, spanned) = reject("DS -1; DF; E");
        assert_eq!(spanned, "-1");
    }

    // One test per input that panicked a debug build (and wrapped to
    // wrong geometry in release) before the front end checked its
    // arithmetic.

    #[test]
    fn twenty_digit_box_side_is_too_large() {
        let (e, spanned) = reject("L NM; B 99999999999999999999 2 0 0; E");
        assert_eq!(e.message, "number `99999999999999999999` is too large");
        assert_eq!(spanned, "99999999999999999999");
    }

    #[test]
    fn i64_min_coordinate_is_too_large() {
        let (e, spanned) = reject("L NM; B 2 2 -9223372036854775808 0; E");
        assert!(e.message.ends_with("is too large"), "{}", e.message);
        assert_eq!(spanned, "-9223372036854775808");
    }

    #[test]
    fn box_centred_at_i64_max_is_out_of_range() {
        let (e, spanned) = reject("L NM; B 2 2 9223372036854775807 0; E");
        let want = "B cx 9223372036854775807 is outside the coordinate range ±4503599627370496";
        assert_eq!(e.message, want);
        assert_eq!(spanned, "9223372036854775807");
        // A centre in range whose corners are not.
        let (e, spanned) = reject("L NM; B 4 2 4503599627370496 0; E");
        assert_eq!(
            e.message,
            "a box corner is outside the coordinate range ±4503599627370496"
        );
        assert_eq!(spanned, "B 4 2 4503599627370496 0;");
        assert!(parse("L NM; B 4 2 4503599627370494 0; E").is_ok());
    }

    #[test]
    fn ds_scale_overflow_is_a_diagnostic() {
        let (e, spanned) = reject("DS 1 9223372036854775807 1; L NM; B 2 2 0 0; DF; E");
        let want = "B length 2 scaled by 9223372036854775807/1 is outside the coordinate range \
                    ±4503599627370496";
        assert_eq!(e.message, want);
        assert_eq!(spanned, "2");
    }

    #[test]
    fn composed_call_translation_overflow_is_a_diagnostic() {
        let cif = "DS 1; DF; C 1 T 9223372036854775807 0 T 9223372036854775807 0; E";
        let (e, spanned) = reject(cif);
        assert!(
            e.message.starts_with("T x 9223372036854775807 is outside"),
            "{}",
            e.message
        );
        assert_eq!(spanned, "9223372036854775807");
        // Two translations in range whose sum is not.
        let (e, spanned) = reject("DS 1; DF; C 1 T 0 4503599627370496 MX T 0 1; E");
        let want = "call translation is outside the coordinate range ±4503599627370496";
        assert_eq!((e.message.as_str(), spanned), (want, "T 0 1"));
    }

    #[test]
    fn coordinates_past_the_bound_are_diagnostics_everywhere() {
        // Parses cleanly with an i64 per coordinate, but 2⁶³ − 1 as a
        // translation overflows the checker's composition.
        let (e, _) = reject("DS 1; L NM; B 2 2 0 0; DF; C 1 T 9223372036854775807 0; E");
        assert!(
            e.message.contains("outside the coordinate range"),
            "{}",
            e.message
        );
        for cif in [
            "L NM; W 4503599627370497 0 0 10 0; E",
            "L NM; P 0 0 10 0 0 -4503599627370497; E",
            "DS 1; 9D D; 9T G NP 4503599627370497 0; DF; E",
            "9L VDD NM 0 -4503599627370497; E",
        ] {
            assert!(parse(cif).is_err(), "{cif}");
        }
    }

    #[test]
    fn net_extension_binds_next_element() {
        let l = parse("L NM; 9N VDD; B 40 20 20 10; B 40 20 20 50; E").unwrap();
        let Item::Element(e1) = &l.top_items()[0] else {
            panic!()
        };
        let Item::Element(e2) = &l.top_items()[1] else {
            panic!()
        };
        assert_eq!(e1.net.as_deref(), Some("VDD"));
        assert_eq!(e2.net, None);
    }

    #[test]
    fn device_declaration() {
        let l = parse(
            "DS 1; 9 tr; 9D NMOS_ENH; 9T G NP 10 10; 9T S ND 0 10; 9C; L NP; B 20 60 10 30; DF; E",
        )
        .unwrap();
        let sym = l.symbol(SymbolId(0));
        let dev = sym.device.as_ref().unwrap();
        assert_eq!(dev.device_type, "NMOS_ENH");
        assert!(dev.checked);
        assert_eq!(dev.terminals.len(), 2);
        assert_eq!(dev.terminals[0].name, "G");
        assert_eq!(dev.terminals[0].position, Point::new(10, 10));
    }

    #[test]
    fn device_outside_symbol_rejected() {
        let (e, spanned) = reject("9D NMOS;");
        assert_eq!(e.message, "9D outside a symbol definition");
        assert_eq!(spanned, "9D NMOS");
    }

    #[test]
    fn label_extension() {
        let l = parse("9L VDD NM 50 100; E").unwrap();
        assert_eq!(l.labels().len(), 1);
        assert_eq!(l.labels()[0].net, "VDD");
        assert_eq!(l.labels()[0].position, Point::new(50, 100));
    }

    #[test]
    fn element_without_layer_rejected() {
        let (e, spanned) = reject("B 2 2 0 0; E");
        assert_eq!(e.message, "element before any L layer selection");
        assert_eq!(spanned, "B");
    }

    #[test]
    fn text_after_e_ignored() {
        let l = parse("L NM; B 2 2 0 0; E this is trailing junk !!!").unwrap();
        assert_eq!(l.top_items().len(), 1);
    }

    #[test]
    fn comments_anywhere() {
        let l = parse("(header) L NM; (mid) B 2 2 0 0; (tail) E").unwrap();
        assert_eq!(l.top_items().len(), 1);
    }

    #[test]
    fn instance_names_sequential_per_scope() {
        let l = parse("DS 1; DF; DS 2; C 1; C 1; DF; C 2; C 2; C 2; E").unwrap();
        let parent = l.symbol(SymbolId(1));
        let names: Vec<&str> = parent.calls().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["i0", "i1"]);
        let tops: Vec<&str> = l
            .top_items()
            .iter()
            .filter_map(|i| match i {
                Item::Call(c) => Some(c.name.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(tops, vec!["i0", "i1", "i2"]);
    }
}
