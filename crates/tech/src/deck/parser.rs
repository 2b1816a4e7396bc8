//! Recursive-descent parser for deck sources.
//!
//! One token of lookahead, no backtracking: every production knows the
//! full set of constructs legal at its position, which is what feeds the
//! `expected …` hints in [`Diagnostic`]. Keywords are matched as
//! identifier text (the lexer reserves nothing), so `layer layer { … }`
//! is legal and an unknown statement can be reported with the complete
//! list of alternatives.

use super::ast::{
    Deck, DeviceDecl, DeviceItem, Dist, LayerDecl, SameMaskDecl, SpaceDecl, Spanned, Stmt,
};
use super::lexer::{lex, Token, TokenKind};
use crate::{DeviceClass, LayerKind};
use diic_diag::Diagnostic;

/// The statements legal at the top level of a `tech` block.
const STMT_ALTERNATIVES: [&str; 9] = [
    "`layer`",
    "`space`",
    "`same_mask`",
    "`device`",
    "`power`",
    "`ground`",
    "`bus_prefix`",
    "`io_prefix`",
    "`}`",
];

/// The items legal inside a device block.
const DEVICE_ALTERNATIVES: [&str; 10] = [
    "`requires_overlap`",
    "`requires_layer`",
    "`enclosure`",
    "`overlap_enclosure`",
    "`gate_extension`",
    "`no_layer_over_gate`",
    "`min_width`",
    "`override`",
    "`terminals`",
    "`}`",
];

/// Parses a whole deck source into a [`Deck`].
///
/// # Errors
///
/// [`Diagnostic`] with the span of the offending token and, for syntax
/// errors, the constructs that would have been accepted there.
pub fn parse(source: &str) -> Result<Deck, Diagnostic> {
    let tokens = lex(source)?;
    let mut p = Parser {
        source,
        tokens,
        pos: 0,
    };
    p.deck()
}

struct Parser<'a> {
    source: &'a str,
    tokens: Vec<Token>,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Token {
        self.tokens[self.pos]
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos];
        if t.kind != TokenKind::Eof {
            self.pos += 1;
        }
        t
    }

    fn text(&self, t: Token) -> &'a str {
        &self.source[t.span.start..t.span.end]
    }

    /// Human description of a token, for "found …" messages.
    fn describe(&self, t: Token) -> String {
        match t.kind {
            TokenKind::Ident | TokenKind::Number => format!("`{}`", self.text(t)),
            TokenKind::Str => "a string".to_string(),
            TokenKind::LBrace => "`{`".to_string(),
            TokenKind::RBrace => "`}`".to_string(),
            TokenKind::Semi => "`;`".to_string(),
            TokenKind::Slash => "`/`".to_string(),
            TokenKind::Eof => "end of file".to_string(),
        }
    }

    fn unexpected(&self, expected: &[&str]) -> Diagnostic {
        let t = self.peek();
        Diagnostic::new(
            format!(
                "expected {}, found {}",
                expected.join(" or "),
                self.describe(t)
            ),
            t.span,
        )
        .expecting(expected.iter().copied())
    }

    fn punct(&mut self, kind: TokenKind, name: &str) -> Result<Token, Diagnostic> {
        if self.peek().kind == kind {
            Ok(self.bump())
        } else {
            Err(self.unexpected(&[name]))
        }
    }

    fn semi(&mut self) -> Result<Token, Diagnostic> {
        self.punct(TokenKind::Semi, "`;`")
    }

    fn at_kw(&self, kw: &str) -> bool {
        let t = self.peek();
        t.kind == TokenKind::Ident && self.text(t) == kw
    }

    fn keyword(&mut self, kw: &'static str) -> Result<Token, Diagnostic> {
        if self.at_kw(kw) {
            Ok(self.bump())
        } else {
            let e = format!("`{kw}`");
            Err(self.unexpected(&[e.as_str()]))
        }
    }

    fn ident(&mut self, what: &str) -> Result<Spanned<String>, Diagnostic> {
        let t = self.peek();
        if t.kind == TokenKind::Ident {
            self.bump();
            Ok(Spanned::new(self.text(t).to_string(), t.span))
        } else {
            Err(self.unexpected(&[what]))
        }
    }

    fn string(&mut self, what: &str) -> Result<Spanned<String>, Diagnostic> {
        let t = self.peek();
        if t.kind == TokenKind::Str {
            self.bump();
            let text = self.text(t);
            Ok(Spanned::new(text[1..text.len() - 1].to_string(), t.span))
        } else {
            Err(self.unexpected(&[what]))
        }
    }

    fn number(&mut self) -> Result<Spanned<i64>, Diagnostic> {
        let t = self.peek();
        if t.kind != TokenKind::Number {
            return Err(self.unexpected(&["a number"]));
        }
        self.bump();
        let n: i64 = self.text(t).parse().map_err(|_| {
            Diagnostic::new(format!("number `{}` is too large", self.text(t)), t.span)
        })?;
        Ok(Spanned::new(n, t.span))
    }

    /// `NUMBER [/ NUMBER] [lambda]`
    fn dist(&mut self) -> Result<Dist, Diagnostic> {
        let num = self.number()?;
        let mut span = num.span;
        let mut den = 1;
        if self.peek().kind == TokenKind::Slash {
            self.bump();
            let d = self.number()?;
            den = d.node;
            span = span.to(d.span);
        }
        let mut lambda = false;
        if self.at_kw("lambda") {
            let t = self.bump();
            lambda = true;
            span = span.to(t.span);
        }
        Ok(Dist {
            num: num.node,
            den,
            lambda,
            span,
        })
    }

    /// One or more identifiers, up to the terminating `;`.
    fn name_list(&mut self, what: &str) -> Result<Vec<Spanned<String>>, Diagnostic> {
        let mut names = vec![self.ident(what)?];
        while self.peek().kind == TokenKind::Ident {
            names.push(self.ident(what)?);
        }
        Ok(names)
    }

    fn deck(&mut self) -> Result<Deck, Diagnostic> {
        self.keyword("tech")?;
        let name = self.string("a technology name string")?;
        self.punct(TokenKind::LBrace, "`{`")?;
        self.keyword("lambda")?;
        let lambda = self.number()?;
        self.semi()?;
        let mut statements = Vec::new();
        while self.peek().kind != TokenKind::RBrace {
            if self.peek().kind == TokenKind::Eof {
                return Err(self.unexpected(&STMT_ALTERNATIVES));
            }
            statements.push(self.stmt()?);
        }
        self.bump(); // the closing `}`
        if self.peek().kind != TokenKind::Eof {
            return Err(self.unexpected(&["end of file"]));
        }
        Ok(Deck {
            name,
            lambda,
            statements,
        })
    }

    fn stmt(&mut self) -> Result<Stmt, Diagnostic> {
        let t = self.peek();
        if t.kind != TokenKind::Ident {
            return Err(self.unexpected(&STMT_ALTERNATIVES));
        }
        match self.text(t) {
            "layer" => self.layer_decl().map(Stmt::Layer),
            "space" => self.space_decl().map(Stmt::Space),
            "same_mask" => self.same_mask_decl().map(Stmt::SameMask),
            "device" => self.device_decl().map(Stmt::Device),
            "power" => {
                self.bump();
                let names = self.name_list("a net name")?;
                self.semi()?;
                Ok(Stmt::Power(names))
            }
            "ground" => {
                self.bump();
                let names = self.name_list("a net name")?;
                self.semi()?;
                Ok(Stmt::Ground(names))
            }
            "bus_prefix" => {
                self.bump();
                let p = self.string("a prefix string")?;
                self.semi()?;
                Ok(Stmt::BusPrefix(p))
            }
            "io_prefix" => {
                self.bump();
                let p = self.string("a prefix string")?;
                self.semi()?;
                Ok(Stmt::IoPrefix(p))
            }
            other => Err(
                Diagnostic::new(format!("unknown statement `{other}`"), t.span)
                    .expecting(STMT_ALTERNATIVES.iter().copied()),
            ),
        }
    }

    /// `layer name { cif "…"; kind k; min_width d; }`
    fn layer_decl(&mut self) -> Result<LayerDecl, Diagnostic> {
        let kw = self.bump();
        let name = self.ident("a layer name")?;
        self.punct(TokenKind::LBrace, "`{`")?;
        let (mut cif, mut kind, mut min_width) = (None, None, None);
        loop {
            let t = self.peek();
            if t.kind == TokenKind::RBrace {
                break;
            }
            const FIELDS: [&str; 4] = ["`cif`", "`kind`", "`min_width`", "`}`"];
            if t.kind != TokenKind::Ident {
                return Err(self.unexpected(&FIELDS));
            }
            let field = self.text(t);
            let dup = |p: &Parser<'_>| {
                Diagnostic::new(
                    format!("duplicate `{field}` in layer `{}`", name.node),
                    p.peek().span,
                )
            };
            match field {
                "cif" if cif.is_none() => {
                    self.bump();
                    cif = Some(self.string("a CIF layer name string")?);
                    self.semi()?;
                }
                "kind" if kind.is_none() => {
                    self.bump();
                    kind = Some(self.layer_kind()?);
                    self.semi()?;
                }
                "min_width" if min_width.is_none() => {
                    self.bump();
                    min_width = Some(self.dist()?);
                    self.semi()?;
                }
                "cif" | "kind" | "min_width" => return Err(dup(self)),
                other => {
                    return Err(
                        Diagnostic::new(format!("unknown layer field `{other}`"), t.span)
                            .expecting(FIELDS.iter().copied()),
                    )
                }
            }
        }
        let rb = self.bump(); // the closing `}`
        let span = kw.span.to(rb.span);
        let missing = |what: &str| {
            Diagnostic::new(
                format!("layer `{}` is missing its `{what}` field", name.node),
                span,
            )
        };
        Ok(LayerDecl {
            cif: cif.ok_or_else(|| missing("cif"))?,
            kind: kind.ok_or_else(|| missing("kind"))?,
            min_width: min_width.ok_or_else(|| missing("min_width"))?,
            name,
            span,
        })
    }

    fn layer_kind(&mut self) -> Result<Spanned<LayerKind>, Diagnostic> {
        let t = self.peek();
        let name = self.ident("a layer kind")?;
        let kind = match name.node.as_str() {
            "diffusion" => LayerKind::Diffusion,
            "poly" => LayerKind::Poly,
            "metal" => LayerKind::Metal,
            "contact" => LayerKind::Contact,
            "implant" => LayerKind::Implant,
            "buried" => LayerKind::Buried,
            "isolation" => LayerKind::Isolation,
            "base" => LayerKind::Base,
            "emitter" => LayerKind::Emitter,
            "glass" => LayerKind::Glass,
            other => {
                return Err(
                    Diagnostic::new(format!("unknown layer kind `{other}`"), t.span).expecting([
                        "`diffusion`",
                        "`poly`",
                        "`metal`",
                        "`contact`",
                        "`implant`",
                        "`buried`",
                        "`isolation`",
                        "`base`",
                        "`emitter`",
                        "`glass`",
                    ]),
                )
            }
        };
        Ok(Spanned::new(kind, name.span))
    }

    /// `space a b d;` or `space a b d { same_net d; unrelated_device d; }`
    fn space_decl(&mut self) -> Result<SpaceDecl, Diagnostic> {
        let kw = self.bump();
        let a = self.ident("a layer name")?;
        let b = self.ident("a layer name")?;
        let diff_net = self.dist()?;
        let (mut same_net, mut unrelated_device) = (None, None);
        let end = if self.peek().kind == TokenKind::LBrace {
            self.bump();
            loop {
                let t = self.peek();
                if t.kind == TokenKind::RBrace {
                    break;
                }
                const OPTIONS: [&str; 3] = ["`same_net`", "`unrelated_device`", "`}`"];
                if t.kind != TokenKind::Ident {
                    return Err(self.unexpected(&OPTIONS));
                }
                match self.text(t) {
                    "same_net" if same_net.is_none() => {
                        self.bump();
                        same_net = Some(self.dist()?);
                        self.semi()?;
                    }
                    "unrelated_device" if unrelated_device.is_none() => {
                        self.bump();
                        unrelated_device = Some(self.dist()?);
                        self.semi()?;
                    }
                    dup @ ("same_net" | "unrelated_device") => {
                        return Err(Diagnostic::new(
                            format!("duplicate `{dup}` in space rule"),
                            t.span,
                        ))
                    }
                    other => {
                        return Err(Diagnostic::new(
                            format!("unknown space option `{other}`"),
                            t.span,
                        )
                        .expecting(OPTIONS.iter().copied()))
                    }
                }
            }
            self.bump() // the closing `}`
        } else {
            self.semi()?
        };
        Ok(SpaceDecl {
            a,
            b,
            diff_net,
            same_net,
            unrelated_device,
            span: kw.span.to(end.span),
        })
    }

    /// `same_mask layer d;`
    fn same_mask_decl(&mut self) -> Result<SameMaskDecl, Diagnostic> {
        let kw = self.bump();
        let layer = self.ident("a layer name")?;
        let min_space = self.dist()?;
        let end = self.semi()?;
        Ok(SameMaskDecl {
            layer,
            min_space,
            span: kw.span.to(end.span),
        })
    }

    /// `device NAME class { item… }`
    fn device_decl(&mut self) -> Result<DeviceDecl, Diagnostic> {
        let kw = self.bump();
        let name = self.ident("a device type name")?;
        let class = self.device_class()?;
        self.punct(TokenKind::LBrace, "`{`")?;
        let mut items = Vec::new();
        loop {
            let t = self.peek();
            if t.kind == TokenKind::RBrace {
                break;
            }
            if t.kind != TokenKind::Ident {
                return Err(self.unexpected(&DEVICE_ALTERNATIVES));
            }
            items.push(self.device_item()?);
        }
        let rb = self.bump(); // the closing `}`
        Ok(DeviceDecl {
            name,
            class,
            items,
            span: kw.span.to(rb.span),
        })
    }

    fn device_class(&mut self) -> Result<Spanned<DeviceClass>, Diagnostic> {
        let t = self.peek();
        let name = self.ident("a device class")?;
        let class = match name.node.as_str() {
            "mos_enhancement" => DeviceClass::MosEnhancement,
            "mos_depletion" => DeviceClass::MosDepletion,
            "resistor" => DeviceClass::Resistor,
            "contact" => DeviceClass::Contact,
            "butting_contact" => DeviceClass::ButtingContact,
            "buried_contact" => DeviceClass::BuriedContact,
            "bipolar_npn" => DeviceClass::BipolarNpn,
            "capacitor" => DeviceClass::Capacitor,
            other => {
                return Err(
                    Diagnostic::new(format!("unknown device class `{other}`"), t.span).expecting([
                        "`mos_enhancement`",
                        "`mos_depletion`",
                        "`resistor`",
                        "`contact`",
                        "`butting_contact`",
                        "`buried_contact`",
                        "`bipolar_npn`",
                        "`capacitor`",
                    ]),
                )
            }
        };
        Ok(Spanned::new(class, name.span))
    }

    fn device_item(&mut self) -> Result<DeviceItem, Diagnostic> {
        let t = self.peek();
        let item = match self.text(t) {
            "requires_overlap" => {
                self.bump();
                DeviceItem::RequiresOverlap {
                    a: self.ident("a layer name")?,
                    b: self.ident("a layer name")?,
                }
            }
            "requires_layer" => {
                self.bump();
                DeviceItem::RequiresLayer {
                    layer: self.ident("a layer name")?,
                }
            }
            "enclosure" => {
                self.bump();
                let inner = self.ident("a layer name")?;
                self.keyword("in")?;
                DeviceItem::Enclosure {
                    inner,
                    outer: self.ident("a layer name")?,
                    margin: self.dist()?,
                }
            }
            "overlap_enclosure" => {
                self.bump();
                let a = self.ident("a layer name")?;
                let b = self.ident("a layer name")?;
                self.keyword("in")?;
                DeviceItem::OverlapEnclosure {
                    a,
                    b,
                    outer: self.ident("a layer name")?,
                    margin: self.dist()?,
                }
            }
            "gate_extension" => {
                self.bump();
                DeviceItem::GateExtension {
                    layer: self.ident("a layer name")?,
                    a: self.ident("a layer name")?,
                    b: self.ident("a layer name")?,
                    amount: self.dist()?,
                }
            }
            "no_layer_over_gate" => {
                self.bump();
                DeviceItem::NoLayerOverGate {
                    layer: self.ident("a layer name")?,
                    a: self.ident("a layer name")?,
                    b: self.ident("a layer name")?,
                }
            }
            "min_width" => {
                self.bump();
                DeviceItem::MinWidth {
                    layer: self.ident("a layer name")?,
                    width: self.dist()?,
                }
            }
            "override" => {
                self.bump();
                let own = self.ident("a layer name")?;
                let other = self.ident("a layer name")?;
                let spacing = if self.at_kw("waived") {
                    self.bump();
                    None
                } else {
                    Some(self.dist()?)
                };
                let same_net = if self.at_kw("same_net") {
                    self.bump();
                    true
                } else {
                    false
                };
                DeviceItem::Override {
                    own,
                    other,
                    spacing,
                    same_net,
                }
            }
            "terminals" => {
                self.bump();
                DeviceItem::Terminals(self.name_list("a terminal name")?)
            }
            other => {
                return Err(
                    Diagnostic::new(format!("unknown device item `{other}`"), t.span)
                        .expecting(DEVICE_ALTERNATIVES.iter().copied()),
                )
            }
        };
        self.semi()?;
        Ok(item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINI: &str = r#"
        # a minimal deck
        tech "mini" {
            lambda 100;
            layer m { cif "M1"; kind metal; min_width 3 lambda; }
            space m m 3 lambda;
            same_mask m 5 lambda;
            power VDD;
        }
    "#;

    #[test]
    fn parses_a_minimal_deck() {
        let deck = parse(MINI).unwrap_or_else(|e| panic!("{}", e.render("mini", MINI)));
        assert_eq!(deck.name.node, "mini");
        assert_eq!(deck.lambda.node, 100);
        assert_eq!(deck.statements.len(), 4);
        let Stmt::Layer(l) = &deck.statements[0] else {
            panic!("first statement should be the layer");
        };
        assert_eq!(l.name.node, "m");
        assert_eq!(l.kind.node, LayerKind::Metal);
        assert_eq!(
            (l.min_width.num, l.min_width.den, l.min_width.lambda),
            (3, 1, true)
        );
    }

    #[test]
    fn space_block_and_shorthand_agree() {
        let short = parse(
            "tech \"t\" { lambda 1; layer a { cif \"A\"; kind metal; min_width 1; } space a a 3; }",
        )
        .unwrap();
        let block = parse("tech \"t\" { lambda 1; layer a { cif \"A\"; kind metal; min_width 1; } space a a 3 { } }").unwrap();
        let (mut s, mut b) = (short, block);
        s.strip_spans();
        b.strip_spans();
        assert_eq!(s, b);
    }

    #[test]
    fn fractional_distances() {
        let deck = parse(
            "tech \"t\" { lambda 250; layer a { cif \"A\"; kind poly; min_width 3/2 lambda; } }",
        )
        .unwrap();
        let Stmt::Layer(l) = &deck.statements[0] else {
            panic!()
        };
        assert_eq!(
            (l.min_width.num, l.min_width.den, l.min_width.lambda),
            (3, 2, true)
        );
    }

    #[test]
    fn unknown_statement_lists_alternatives() {
        let e = parse("tech \"t\" { lambda 1; frobnicate; }").unwrap_err();
        assert!(e.message.contains("unknown statement `frobnicate`"));
        assert!(e.expected.iter().any(|x| x == "`layer`"));
        let src = "tech \"t\" { lambda 1; frobnicate; }";
        assert_eq!(&src[e.span.start..e.span.end], "frobnicate");
    }

    #[test]
    fn missing_layer_field_is_reported() {
        let e = parse("tech \"t\" { lambda 1; layer a { cif \"A\"; kind metal; } }").unwrap_err();
        assert!(e.message.contains("missing its `min_width`"));
    }

    #[test]
    fn duplicate_layer_field_is_reported() {
        let e = parse(
            "tech \"t\" { lambda 1; layer a { cif \"A\"; cif \"B\"; kind metal; min_width 1; } }",
        )
        .unwrap_err();
        assert!(e.message.contains("duplicate `cif`"));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let e = parse("tech \"t\" { lambda 1; } extra").unwrap_err();
        assert!(e.expected.iter().any(|x| x == "end of file"));
    }

    #[test]
    fn device_items_round_trip_through_the_ast() {
        let src = r#"tech "t" { lambda 2;
            layer p { cif "P"; kind poly; min_width 1; }
            layer d { cif "D"; kind diffusion; min_width 1; }
            device T mos_enhancement {
                requires_overlap p d;
                enclosure p in d 1 lambda;
                override p d waived same_net;
                terminals G S D;
            }
        }"#;
        let deck = parse(src).unwrap_or_else(|e| panic!("{}", e.render("t", src)));
        let Stmt::Device(dev) = &deck.statements[2] else {
            panic!()
        };
        assert_eq!(dev.class.node, DeviceClass::MosEnhancement);
        assert_eq!(dev.items.len(), 4);
        assert!(matches!(
            &dev.items[2],
            DeviceItem::Override {
                spacing: None,
                same_net: true,
                ..
            }
        ));
    }
}
