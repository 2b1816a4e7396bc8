//! The wire format: JSON codecs between service bodies and the core
//! types.
//!
//! Everything here is **deterministic and round-trippable**: encoding
//! an [`EditSet`] and decoding the bytes yields the same edits (the
//! twelfth differential leg drives `diic_gen`-generated edit sets
//! through this codec and demands byte-identical reports on the other
//! side), and every encode emits object members in a fixed order so
//! response bytes are stable across runs and worker counts.
//!
//! Layer references cross the wire **by CIF name** (`"NM"`), not by
//! the layout's internal [`diic_cif::LayerRef`] index: `add_element` edits
//! intern unknown names on application (exactly like the core
//! [`Edit::AddElement`]), while `replace_symbol` body items must name
//! layers the layout already knows — a fresh layer inside a replaced
//! definition is rejected as a shape error rather than silently
//! binding to nothing.

use crate::error::{ApiError, FrontEnd};
use diic_cif::{Call, Diagnostic, Element, Item, Layout, Shape, Span, SymbolId};
use diic_core::{
    category_of, CheckOptions, CheckReport, DefinitionStats, Edit, EditSet, EditStats,
    RebuildReason, ReportDelta, Violation,
};
use diic_geom::{Orientation, Point, Rect, Transform, Vector, MAX_COORD};
use serde_json::Value;
use std::collections::BTreeMap;

/// Parses a request body as JSON (`400` with a caret at the offending
/// byte on failure).
pub fn parse_body(body: &[u8]) -> Result<Value, ApiError> {
    let rejected = |message: String, at: usize, text: &str| {
        let diagnostic = Diagnostic::new(message, Span::new(at, at));
        ApiError::rejected(FrontEnd::Json, "body", text, &diagnostic)
    };
    let text = std::str::from_utf8(body).map_err(|e| {
        // Bytes before the first invalid one survive the lossy copy.
        let lossy = String::from_utf8_lossy(body);
        rejected(format!("body is not UTF-8: {e}"), e.valid_up_to(), &lossy)
    })?;
    serde_json::from_str(text).map_err(|e| rejected(e.message, e.offset, text))
}

/// Looks up a required object member.
pub fn required<'v>(body: &'v Value, key: &str) -> Result<&'v Value, ApiError> {
    body.get(key)
        .ok_or_else(|| ApiError::bad_request_shape(format!("missing required field `{key}`")))
}

fn as_str<'v>(v: &'v Value, what: &str) -> Result<&'v str, ApiError> {
    v.as_str()
        .ok_or_else(|| ApiError::bad_request_shape(format!("`{what}` must be a string")))
}

fn as_i64(v: &Value, what: &str) -> Result<i64, ApiError> {
    v.as_i64()
        .ok_or_else(|| ApiError::bad_request_shape(format!("`{what}` must be an integer")))
}

/// A coordinate or length, held to the checker's coordinate range
/// (`±`[`MAX_COORD`]) with the CIF front end's message.
fn as_coord(v: &Value, what: &str) -> Result<i64, ApiError> {
    let n = as_i64(v, what)?;
    if (-MAX_COORD..=MAX_COORD).contains(&n) {
        Ok(n)
    } else {
        Err(ApiError::bad_request_shape(format!(
            "`{what}` {n} is outside the coordinate range ±{MAX_COORD}"
        )))
    }
}

fn as_usize(v: &Value, what: &str) -> Result<usize, ApiError> {
    let n = as_i64(v, what)?;
    usize::try_from(n)
        .map_err(|_| ApiError::bad_request_shape(format!("`{what}` must be non-negative")))
}

/// A worker count from the wire, clamped to the machine's cores: the
/// stages spawn up to that many threads each and reports are
/// byte-identical for any count, so a request can ask for no more
/// threads than there are cores to run them (`0`, "all cores", passes
/// through).
pub(crate) fn as_worker_count(v: &Value, what: &str) -> Result<usize, ApiError> {
    Ok(as_usize(v, what)?.min(diic_core::effective_parallelism(0)))
}

pub(crate) fn as_bool(v: &Value, what: &str) -> Result<bool, ApiError> {
    v.as_bool()
        .ok_or_else(|| ApiError::bad_request_shape(format!("`{what}` must be a boolean")))
}

/// A library session's scored-row shelf as the `/library` reply and
/// the `/stats` library block show it: lookups a kept row answered,
/// rows the cells scored, rows kept.
pub(crate) fn fill_stats(fills: DefinitionStats) -> Value {
    Value::object([
        ("cache_hits", Value::from(fills.hits)),
        ("cache_misses", Value::from(fills.misses)),
        ("cache_entries", Value::from(fills.entries)),
    ])
}

/// Decodes the optional `options` object of a session or library
/// request into [`CheckOptions`]. Unknown keys are rejected — a typoed
/// option silently falling back to a default is the worst kind of
/// verification bug.
pub fn check_options_from_json(options: Option<&Value>) -> Result<CheckOptions, ApiError> {
    let mut out = CheckOptions::default();
    let Some(value) = options else {
        return Ok(out);
    };
    let Some(pairs) = value.as_object() else {
        return Err(ApiError::bad_request_shape("`options` must be an object"));
    };
    for (key, v) in pairs {
        match key.as_str() {
            "parallelism" => out.parallelism = as_worker_count(v, "options.parallelism")?,
            "erc" => out.erc = as_bool(v, "options.erc")?,
            "same_net_suppression" => {
                out.same_net_suppression = as_bool(v, "options.same_net_suppression")?
            }
            other => {
                return Err(ApiError::bad_request_shape(format!(
                    "unknown option `{other}`"
                )))
            }
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Geometry atoms.

fn point_to_json(p: Point) -> Value {
    Value::array([Value::from(p.x), Value::from(p.y)])
}

fn point_from_json(v: &Value, what: &str) -> Result<Point, ApiError> {
    match v.as_array() {
        Some([x, y]) => Ok(Point::new(as_coord(x, what)?, as_coord(y, what)?)),
        _ => Err(ApiError::bad_request_shape(format!(
            "`{what}` must be a `[x, y]` pair"
        ))),
    }
}

fn rect_to_json(r: &Rect) -> Value {
    Value::array([
        Value::from(r.x1),
        Value::from(r.y1),
        Value::from(r.x2),
        Value::from(r.y2),
    ])
}

fn rect_from_json(v: &Value, what: &str) -> Result<Rect, ApiError> {
    match v.as_array() {
        Some([x1, y1, x2, y2]) => Ok(Rect::new(
            as_coord(x1, what)?,
            as_coord(y1, what)?,
            as_coord(x2, what)?,
            as_coord(y2, what)?,
        )),
        _ => Err(ApiError::bad_request_shape(format!(
            "`{what}` must be a `[x1, y1, x2, y2]` quad"
        ))),
    }
}

fn shape_to_json(shape: &Shape) -> Value {
    match shape {
        Shape::Box(r) => Value::object([("box", rect_to_json(r))]),
        Shape::Wire(w) => Value::object([(
            "wire",
            Value::object([
                ("width", Value::from(w.width())),
                (
                    "points",
                    Value::array(w.points().iter().map(|&p| point_to_json(p))),
                ),
            ]),
        )]),
        Shape::Polygon(p) => Value::object([(
            "polygon",
            Value::array(p.points().iter().map(|&p| point_to_json(p))),
        )]),
    }
}

fn shape_from_json(v: &Value) -> Result<Shape, ApiError> {
    let Some([(tag, body)]) = v.as_object() else {
        return Err(ApiError::bad_request_shape(
            "`shape` must be a single-member object tagged `box`, `wire`, or `polygon`",
        ));
    };
    match tag.as_str() {
        "box" => Ok(Shape::Box(rect_from_json(body, "shape.box")?)),
        "wire" => {
            let width = as_coord(required(body, "width")?, "shape.wire.width")?;
            let points = points_from_json(required(body, "points")?, "shape.wire.points")?;
            let wire = diic_geom::Wire::new(width, points)
                .map_err(|e| ApiError::bad_request_shape(format!("invalid wire: {e}")))?;
            Ok(Shape::Wire(wire))
        }
        "polygon" => {
            let points = points_from_json(body, "shape.polygon")?;
            let poly = diic_geom::Polygon::new(points)
                .map_err(|e| ApiError::bad_request_shape(format!("invalid polygon: {e}")))?;
            Ok(Shape::Polygon(poly))
        }
        other => Err(ApiError::bad_request_shape(format!(
            "unknown shape tag `{other}`"
        ))),
    }
}

fn points_from_json(v: &Value, what: &str) -> Result<Vec<Point>, ApiError> {
    let Some(items) = v.as_array() else {
        return Err(ApiError::bad_request_shape(format!(
            "`{what}` must be an array of points"
        )));
    };
    items.iter().map(|p| point_from_json(p, what)).collect()
}

fn orientation_to_str(o: Orientation) -> &'static str {
    match o {
        Orientation::R0 => "R0",
        Orientation::R90 => "R90",
        Orientation::R180 => "R180",
        Orientation::R270 => "R270",
        Orientation::MR0 => "MR0",
        Orientation::MR90 => "MR90",
        Orientation::MR180 => "MR180",
        Orientation::MR270 => "MR270",
    }
}

fn orientation_from_str(s: &str) -> Result<Orientation, ApiError> {
    Orientation::ALL
        .into_iter()
        .find(|&o| orientation_to_str(o) == s)
        .ok_or_else(|| ApiError::bad_request_shape(format!("unknown orientation `{s}`")))
}

fn transform_to_json(t: &Transform) -> Value {
    Value::object([
        ("orient", Value::from(orientation_to_str(t.orient))),
        ("offset", point_to_json(Point::new(t.offset.x, t.offset.y))),
    ])
}

fn transform_from_json(v: &Value) -> Result<Transform, ApiError> {
    let orient = orientation_from_str(as_str(required(v, "orient")?, "transform.orient")?)?;
    let offset = point_from_json(required(v, "offset")?, "transform.offset")?;
    Ok(Transform::new(orient, Vector::new(offset.x, offset.y)))
}

// ---------------------------------------------------------------------
// Edits.

/// Encodes an edit set against its layout (layer names come from the
/// layout's table).
pub fn edit_set_to_json(edits: &EditSet, layout: &Layout) -> Value {
    Value::object([(
        "edits",
        Value::array(edits.edits.iter().map(|e| edit_to_json(e, layout))),
    )])
}

fn edit_to_json(edit: &Edit, layout: &Layout) -> Value {
    match edit {
        Edit::AddElement {
            cif_layer,
            shape,
            net,
        } => Value::object([
            ("op", Value::from("add_element")),
            ("layer", Value::from(cif_layer.as_str())),
            ("shape", shape_to_json(shape)),
            ("net", Value::from(net.as_deref())),
        ]),
        Edit::AddCall {
            symbol,
            transform,
            name,
        } => Value::object([
            ("op", Value::from("add_call")),
            ("symbol", Value::from(i64::from(symbol.0))),
            ("transform", transform_to_json(transform)),
            ("name", Value::from(name.as_str())),
        ]),
        Edit::RemoveItem { index } => Value::object([
            ("op", Value::from("remove")),
            ("index", Value::from(*index)),
        ]),
        Edit::MoveItem { index, by } => Value::object([
            ("op", Value::from("move")),
            ("index", Value::from(*index)),
            ("by", point_to_json(Point::new(by.x, by.y))),
        ]),
        Edit::ReplaceSymbol { symbol, items } => Value::object([
            ("op", Value::from("replace_symbol")),
            ("symbol", Value::from(i64::from(symbol.0))),
            (
                "items",
                Value::array(items.iter().map(|i| item_to_json(i, layout))),
            ),
        ]),
    }
}

fn item_to_json(item: &Item, layout: &Layout) -> Value {
    match item {
        Item::Element(e) => Value::object([(
            "element",
            Value::object([
                ("layer", Value::from(layout.layer_name(e.layer))),
                ("shape", shape_to_json(&e.shape)),
                ("net", Value::from(e.net.as_deref())),
            ]),
        )]),
        Item::Call(c) => Value::object([(
            "call",
            Value::object([
                ("symbol", Value::from(i64::from(c.target.0))),
                ("transform", transform_to_json(&c.transform)),
                ("name", Value::from(c.name.as_str())),
            ]),
        )]),
    }
}

/// Decodes an edit-set body against the session's current layout (the
/// layer-name table `replace_symbol` items resolve through).
pub fn edit_set_from_json(body: &Value, layout: &Layout) -> Result<EditSet, ApiError> {
    let Some(items) = required(body, "edits")?.as_array() else {
        return Err(ApiError::bad_request_shape("`edits` must be an array"));
    };
    let mut out = EditSet::new();
    for (i, item) in items.iter().enumerate() {
        out.edits.push(
            edit_from_json(item, layout)
                .map_err(|e| ApiError::bad_request_shape(format!("edits[{i}]: {}", e.detail)))?,
        );
    }
    Ok(out)
}

fn edit_from_json(v: &Value, layout: &Layout) -> Result<Edit, ApiError> {
    match as_str(required(v, "op")?, "op")? {
        "add_element" => Ok(Edit::AddElement {
            cif_layer: as_str(required(v, "layer")?, "layer")?.to_string(),
            shape: shape_from_json(required(v, "shape")?)?,
            net: optional_string(v, "net")?,
        }),
        "add_call" => Ok(Edit::AddCall {
            symbol: symbol_from_json(required(v, "symbol")?, layout)?,
            transform: transform_from_json(required(v, "transform")?)?,
            name: as_str(required(v, "name")?, "name")?.to_string(),
        }),
        "remove" => Ok(Edit::RemoveItem {
            index: as_usize(required(v, "index")?, "index")?,
        }),
        "move" => {
            let by = point_from_json(required(v, "by")?, "by")?;
            Ok(Edit::MoveItem {
                index: as_usize(required(v, "index")?, "index")?,
                by: Vector::new(by.x, by.y),
            })
        }
        "replace_symbol" => {
            let Some(items) = required(v, "items")?.as_array() else {
                return Err(ApiError::bad_request_shape("`items` must be an array"));
            };
            Ok(Edit::ReplaceSymbol {
                symbol: symbol_from_json(required(v, "symbol")?, layout)?,
                items: items
                    .iter()
                    .map(|i| item_from_json(i, layout))
                    .collect::<Result<_, _>>()?,
            })
        }
        other => Err(ApiError::bad_request_shape(format!(
            "unknown edit op `{other}`"
        ))),
    }
}

fn optional_string(v: &Value, key: &str) -> Result<Option<String>, ApiError> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(s) => Ok(Some(as_str(s, key)?.to_string())),
    }
}

fn symbol_from_json(v: &Value, layout: &Layout) -> Result<SymbolId, ApiError> {
    let raw = as_i64(v, "symbol")?;
    let id = u32::try_from(raw)
        .map_err(|_| ApiError::bad_request_shape("`symbol` must be a non-negative id"))?;
    // Range-check here for the precise message; apply() re-validates.
    if (id as usize) >= layout.symbols().len() {
        return Err(ApiError::bad_request_shape(format!(
            "unknown symbol id {id} (layout has {})",
            layout.symbols().len()
        )));
    }
    Ok(SymbolId(id))
}

fn item_from_json(v: &Value, layout: &Layout) -> Result<Item, ApiError> {
    let Some([(tag, body)]) = v.as_object() else {
        return Err(ApiError::bad_request_shape(
            "symbol body items must be single-member objects tagged `element` or `call`",
        ));
    };
    match tag.as_str() {
        "element" => {
            let layer_name = as_str(required(body, "layer")?, "element.layer")?;
            let layer = layout
                .layer_names()
                .iter()
                .position(|n| n == layer_name)
                .map(|i| diic_cif::LayerRef(i as u16))
                .ok_or_else(|| {
                    ApiError::bad_request_shape(format!(
                        "replace_symbol element names unknown layer `{layer_name}`"
                    ))
                })?;
            Ok(Item::Element(Element {
                layer,
                shape: shape_from_json(required(body, "shape")?)?,
                net: optional_string(body, "net")?,
            }))
        }
        "call" => Ok(Item::Call(Call {
            target: symbol_from_json(required(body, "symbol")?, layout)?,
            transform: transform_from_json(required(body, "transform")?)?,
            name: as_str(required(body, "name")?, "call.name")?.to_string(),
        })),
        other => Err(ApiError::bad_request_shape(format!(
            "unknown item tag `{other}`"
        ))),
    }
}

// ---------------------------------------------------------------------
// Reports.

/// The summary object every session response embeds: violation count,
/// per-category counts (sorted by category name), and the view size.
pub fn report_summary(report: &CheckReport) -> Value {
    let mut by_category: BTreeMap<&'static str, i64> = BTreeMap::new();
    for v in &report.violations {
        *by_category.entry(category_of(v)).or_default() += 1;
    }
    Value::object([
        ("violations", Value::from(report.violations.len())),
        (
            "by_category",
            Value::object(by_category.into_iter().map(|(k, n)| (k, Value::from(n)))),
        ),
        ("elements", Value::from(report.element_count)),
        ("devices", Value::from(report.device_count)),
    ])
}

/// The observability half of an edit response: what the incremental
/// engine actually did ([`EditStats`]), stripped of wall-clock noise
/// (timings are not deterministic and do not belong on a
/// byte-compared wire).
pub fn edit_stats_to_json(stats: &EditStats) -> Value {
    Value::object([
        ("dirty_items", Value::from(stats.dirty_items)),
        ("dirty_elements", Value::from(stats.dirty_elements)),
        ("net_dirty_elements", Value::from(stats.net_dirty_elements)),
        ("seed_elements", Value::from(stats.seed_elements)),
        ("rechecked_pairs", Value::from(stats.rechecked_pairs)),
        ("retracted", Value::from(stats.retracted)),
        ("spliced", Value::from(stats.spliced)),
        ("full_rebuild", Value::from(stats.full_rebuild)),
        (
            "rebuild_reason",
            match stats.rebuild_reason {
                None => Value::Null,
                Some(RebuildReason::DirtyFraction { dirty, total }) => Value::object([
                    ("kind", Value::from("dirty_fraction")),
                    ("dirty", Value::from(dirty)),
                    ("total", Value::from(total)),
                ]),
            },
        ),
        ("netlist_reused", Value::from(stats.netlist_reused)),
        ("nets_respliced", Value::from(stats.nets_respliced)),
        ("nodes_respliced", Value::from(stats.nodes_respliced)),
        ("index_compacted", Value::from(stats.index_compacted)),
        ("index_rebuilt", Value::from(stats.index_rebuilt)),
        ("halo_elements", Value::from(stats.halo_elements)),
        (
            "primitives_rechecked",
            Value::from(stats.primitives_rechecked),
        ),
    ])
}

/// The `added` / `removed` violation delta between two canonical
/// reports, as rendered lines: a multiset diff, with `added` in the
/// new report's canonical order and `removed` in the old one's. It
/// renders both whole reports ([`ReportDelta::by_rendering`]); the
/// `/edits` route does not call it, but answers with the delta the
/// session took from its own patch
/// ([`diic_core::CheckSession::last_delta`]), which must equal this byte
/// for byte — the reference the tests hold it to.
pub fn violation_delta(old: &[Violation], new: &[Violation]) -> (Vec<String>, Vec<String>) {
    let delta = ReportDelta::by_rendering(old, new);
    (delta.added, delta.removed)
}
