//! A minimal JSON value type and renderer for the machine-readable
//! `BENCH_report.json` emitted by the report binary.
//!
//! The workspace is built offline (no serde), so the report is assembled
//! from this tiny hand-rolled builder instead.  Only what the report needs
//! is implemented: objects, arrays, strings, integers, floats and booleans,
//! rendered with stable key order (insertion order) and two-space
//! indentation so diffs across PRs stay readable.

use std::fmt::Write as _;

use mai_core::engine::EngineStats;
use mai_core::telemetry::TraceBuffer;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// A JSON object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
    /// A JSON array.
    Arr(Vec<Json>),
    /// A string (escaped on render).
    Str(String),
    /// An integer (rendered without a fraction).
    Int(u64),
    /// A float (rendered with up to three decimals — milliseconds and
    /// ratios don't need more).
    Num(f64),
    /// A boolean.
    Bool(bool),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj<I: IntoIterator<Item = (&'static str, Json)>>(fields: I) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Renders the value as pretty-printed JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        let inner_pad = "  ".repeat(indent + 1);
        match self {
            Json::Obj(fields) if fields.is_empty() => out.push_str("{}"),
            Json::Obj(fields) => {
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    let _ = write!(out, "{inner_pad}\"{}\": ", escape(k));
                    v.write(out, indent + 1);
                    out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                }
                let _ = write!(out, "{pad}}}");
            }
            Json::Arr(items) if items.is_empty() => out.push_str("[]"),
            Json::Arr(items) => {
                out.push_str("[\n");
                for (i, v) in items.iter().enumerate() {
                    out.push_str(&inner_pad);
                    v.write(out, indent + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                let _ = write!(out, "{pad}]");
            }
            Json::Str(s) => {
                let _ = write!(out, "\"{}\"", escape(s));
            }
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Num(x) => {
                if x.is_finite() {
                    let _ = write!(out, "{x:.3}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
        }
    }
}

impl Json {
    /// Parses a JSON document (the subset this module renders: objects,
    /// arrays, strings with the escapes the renderer emits, numbers,
    /// booleans and `null` — `null` parses as `Num(NAN)`, matching how
    /// non-finite floats render).  Used by the `--check-regress` mode to
    /// read the committed `BENCH_report.json` back in.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(value)
    }

    /// The value of a field of an object (`None` for non-objects and
    /// missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The items of an array (empty for non-arrays).
    pub fn items(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            _ => &[],
        }
    }

    /// The numeric value of an `Int` or `Num` (`None` otherwise).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The integer value of an `Int` (`None` otherwise).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value of a `Str` (`None` otherwise).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                byte as char,
                self.pos,
                self.bytes.get(self.pos).map(|b| *b as char)
            ))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Num(f64::NAN)),
            Some(_) => self.number(),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("invalid \\u escape")?);
                            self.pos += 4;
                        }
                        other => return Err(format!("invalid escape {:?}", other)),
                    }
                    self.pos += 1;
                }
                Some(&b) if b < 0x80 => {
                    out.push(b as char);
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one multi-byte UTF-8 scalar, validating at
                    // most the next four bytes rather than the rest of the
                    // document.
                    let end = (self.pos + 4).min(self.bytes.len());
                    let chunk = &self.bytes[self.pos..end];
                    let c = match std::str::from_utf8(chunk) {
                        Ok(s) => s.chars().next(),
                        // A shorter valid prefix still yields the leading
                        // scalar (the chunk may split a following scalar).
                        Err(e) if e.valid_up_to() > 0 => {
                            std::str::from_utf8(&chunk[..e.valid_up_to()])
                                .expect("validated prefix")
                                .chars()
                                .next()
                        }
                        Err(e) => return Err(e.to_string()),
                    }
                    .ok_or("unexpected end of string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        if text.is_empty() {
            return Err(format!("expected a number at byte {start}"));
        }
        if text.bytes().all(|b| b.is_ascii_digit()) {
            text.parse::<u64>()
                .map(Json::Int)
                .map_err(|e| e.to_string())
        } else {
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|e| e.to_string())
        }
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// The JSON rendering of an [`EngineStats`], shared by every report section
/// so the field names cannot drift.
pub fn engine_stats_json(stats: &EngineStats) -> Json {
    Json::obj([
        ("iterations", Json::Int(stats.iterations as u64)),
        ("states_stepped", Json::Int(stats.states_stepped as u64)),
        ("cache_hits", Json::Int(stats.cache_hits as u64)),
        ("reenqueued", Json::Int(stats.reenqueued as u64)),
        (
            "store_joins_applied",
            Json::Int(stats.store_joins_applied as u64),
        ),
        ("widen_applied", Json::Int(stats.widen_applied as u64)),
        ("store_joins", Json::Int(stats.store_joins as u64)),
        ("joins_per_round", Json::Num(stats.joins_per_round())),
        ("rebuild_rounds", Json::Int(stats.rebuild_rounds as u64)),
        ("peak_frontier", Json::Int(stats.peak_frontier as u64)),
        ("intern_hits", Json::Int(stats.intern_hits as u64)),
        ("intern_misses", Json::Int(stats.intern_misses as u64)),
        ("intern_hit_rate", Json::Num(stats.intern_hit_rate())),
        ("distinct_states", Json::Int(stats.distinct_states as u64)),
        ("distinct_envs", Json::Int(stats.distinct_envs as u64)),
        ("spine_clones", Json::Int(stats.spine_clones as u64)),
        (
            "store_bytes_shared",
            Json::Int(stats.store_bytes_shared as u64),
        ),
        ("sync_rounds", Json::Int(stats.sync_rounds as u64)),
        ("steal_events", Json::Int(stats.steal_events as u64)),
        ("shard_imbalance", Json::Int(stats.shard_imbalance as u64)),
        ("epochs_run", Json::Int(stats.epochs_run as u64)),
        ("stale_merges", Json::Int(stats.stale_merges as u64)),
        (
            "worker_cache_hits",
            Json::Int(stats.worker_cache_hits as u64),
        ),
        (
            "worker_cache_misses",
            Json::Int(stats.worker_cache_misses as u64),
        ),
        (
            "worker_cache_hit_rate",
            Json::Num(stats.worker_cache_hit_rate()),
        ),
        (
            "stripe_acquisitions",
            Json::Int(stats.stripe_acquisitions as u64),
        ),
    ])
}

/// The JSON rendering of a [`TraceBuffer`]: per-round phase rows, per-worker
/// totals, steal traffic and the top-`k` hot-spot attribution.  Shared by the
/// `--profile` mode and the E13 report section so field names cannot drift.
pub fn engine_trace_json(trace: &TraceBuffer, top_k: usize) -> Json {
    let us = |ns: u64| Json::Num(ns as f64 / 1000.0);
    let totals = trace.phase_totals();
    let rounds: Vec<Json> = trace
        .rounds
        .iter()
        .map(|r| {
            Json::obj([
                ("round", Json::Int(r.round as u64)),
                ("frontier", Json::Int(r.frontier as u64)),
                ("stepped", Json::Int(r.stepped as u64)),
                ("joins", Json::Int(r.joins as u64)),
                ("delta_width", Json::Int(r.delta_width as u64)),
                ("rebuild", Json::Bool(r.rebuild)),
                ("step_us", us(r.step_ns)),
                ("join_us", us(r.join_ns)),
                ("sync_us", us(r.sync_ns)),
            ])
        })
        .collect();
    let workers: Vec<Json> = trace
        .worker_totals()
        .into_iter()
        .map(|(worker, processed, steals, busy_ns, wait_ns)| {
            Json::obj([
                ("worker", Json::Int(worker as u64)),
                ("processed", Json::Int(processed as u64)),
                ("steals", Json::Int(steals as u64)),
                ("busy_us", us(busy_ns)),
                ("wait_us", us(wait_ns)),
            ])
        })
        .collect();
    let hot_states: Vec<Json> = trace
        .top_states(top_k)
        .into_iter()
        .map(|h| {
            Json::obj([
                ("state", Json::Str(h.label)),
                ("steps", Json::Int(h.steps as u64)),
                ("step_us", us(h.total_ns)),
            ])
        })
        .collect();
    let hot_addresses: Vec<Json> = trace
        .top_addresses(top_k)
        .into_iter()
        .map(|h| {
            Json::obj([
                ("address", Json::Str(h.label)),
                ("joins", Json::Int(h.joins as u64)),
                ("grew", Json::Int(h.grew as u64)),
            ])
        })
        .collect();
    Json::obj([
        (
            "phase_totals",
            Json::obj([
                ("step_us", us(totals.step_ns)),
                ("join_us", us(totals.join_ns)),
                ("sync_us", us(totals.sync_ns)),
                ("wall_us", us(totals.wall_ns())),
            ]),
        ),
        ("steal_events", Json::Int(trace.steals.len() as u64)),
        ("rounds", Json::Arr(rounds)),
        ("workers", Json::Arr(workers)),
        ("hot_states", Json::Arr(hot_states)),
        ("hot_addresses", Json::Arr(hot_addresses)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_values_with_escaping() {
        let value = Json::obj([
            ("name", Json::Str("kcfa\"worst\"".into())),
            ("steps", Json::Int(42)),
            ("ratio", Json::Num(2.5)),
            ("equal", Json::Bool(true)),
            ("rows", Json::Arr(vec![Json::Int(1), Json::Int(2)])),
            ("empty", Json::Arr(vec![])),
        ]);
        let rendered = value.render();
        assert!(rendered.contains("\"kcfa\\\"worst\\\"\""));
        assert!(rendered.contains("\"steps\": 42"));
        assert!(rendered.contains("\"ratio\": 2.500"));
        assert!(rendered.contains("\"empty\": []"));
        // The output is self-consistent enough to round-trip through a
        // whitespace-insensitive comparison.
        assert!(rendered.starts_with('{') && rendered.ends_with('}'));
    }

    #[test]
    fn rendered_reports_parse_back() {
        let value = Json::obj([
            ("name", Json::Str("kcfa \"worst\"\ncase".into())),
            ("unicode", Json::Str("σ₀ → ρ̂ λx".into())),
            ("steps", Json::Int(42)),
            ("ratio", Json::Num(2.5)),
            ("nan", Json::Num(f64::NAN)),
            ("equal", Json::Bool(true)),
            ("off", Json::Bool(false)),
            ("rows", Json::Arr(vec![Json::Int(1), Json::Num(0.125)])),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::obj([])),
        ]);
        let reparsed = Json::parse(&value.render()).expect("round trip");
        assert_eq!(
            reparsed.get("name").and_then(Json::as_str),
            Some("kcfa \"worst\"\ncase")
        );
        assert_eq!(
            reparsed.get("unicode").and_then(Json::as_str),
            Some("σ₀ → ρ̂ λx")
        );
        assert_eq!(reparsed.get("steps").and_then(Json::as_u64), Some(42));
        assert_eq!(reparsed.get("ratio").and_then(Json::as_f64), Some(2.5));
        // Non-finite floats render as null and parse back as NaN.
        assert!(reparsed.get("nan").and_then(Json::as_f64).unwrap().is_nan());
        assert_eq!(reparsed.get("equal"), Some(&Json::Bool(true)));
        assert_eq!(reparsed.get("rows").map(|r| r.items().len()), Some(2));
        assert_eq!(reparsed.get("empty_arr"), Some(&Json::Arr(vec![])));
        assert_eq!(reparsed.get("missing"), None);
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1, 2,,]").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse("truthy").is_err());
    }

    #[test]
    fn engine_stats_serialise_every_counter() {
        let stats = EngineStats {
            iterations: 2,
            states_stepped: 5,
            store_joins: 6,
            ..EngineStats::default()
        };
        let rendered = engine_stats_json(&stats).render();
        assert!(rendered.contains("\"states_stepped\": 5"));
        assert!(rendered.contains("\"joins_per_round\": 3.000"));
    }

    /// Field-by-field audit: every field of [`EngineStats`] (recovered from
    /// its derived `Debug` output, so the list tracks the struct definition
    /// itself) must appear as a key in [`engine_stats_json`].  Adding a
    /// counter to the struct without serialising it fails here.
    #[test]
    fn engine_stats_json_covers_every_struct_field() {
        let debug = format!("{:?}", EngineStats::default());
        let body = debug
            .trim_start_matches("EngineStats")
            .trim()
            .trim_start_matches('{')
            .trim_end_matches('}');
        let fields: Vec<&str> = body
            .split(',')
            .filter_map(|pair| pair.split(':').next())
            .map(str::trim)
            .filter(|name| !name.is_empty())
            .collect();
        // Guard against the Debug format changing shape under us: the struct
        // currently has 17 counters, and the parse must find all of them.
        assert!(
            fields.len() >= 17,
            "Debug parse found only {} fields: {fields:?}",
            fields.len()
        );
        let json = engine_stats_json(&EngineStats::default());
        for field in fields {
            assert!(
                json.get(field).is_some(),
                "EngineStats field `{field}` is missing from engine_stats_json"
            );
        }
    }

    #[test]
    fn engine_trace_json_serialises_rounds_workers_and_hot_spots() {
        use mai_core::telemetry::{RoundTrace, StealTrace, TraceSink, WorkerSpan};

        let mut trace = TraceBuffer::new();
        trace.round(RoundTrace {
            round: 0,
            frontier: 4,
            stepped: 4,
            joins: 3,
            delta_width: 2,
            rebuild: false,
            step_ns: 5_000,
            join_ns: 2_000,
            sync_ns: 1_000,
        });
        trace.worker(WorkerSpan {
            round: 0,
            worker: 1,
            processed: 4,
            steals: 1,
            busy_ns: 4_000,
            wait_ns: 1_000,
        });
        trace.steal(StealTrace {
            round: 0,
            thief: 1,
            victim: 0,
        });
        trace.state_cost("(f x)", 3_000);
        trace.join_traffic("x", true);
        let json = engine_trace_json(&trace, 8);
        let reparsed = Json::parse(&json.render()).expect("trace json parses");
        assert_eq!(reparsed.get("steal_events").and_then(Json::as_u64), Some(1));
        let rounds = reparsed.get("rounds").expect("rounds").items();
        assert_eq!(rounds.len(), 1);
        assert_eq!(rounds[0].get("frontier").and_then(Json::as_u64), Some(4));
        assert_eq!(rounds[0].get("step_us").and_then(Json::as_f64), Some(5.0));
        let workers = reparsed.get("workers").expect("workers").items();
        assert_eq!(workers[0].get("worker").and_then(Json::as_u64), Some(1));
        assert_eq!(workers[0].get("wait_us").and_then(Json::as_f64), Some(1.0));
        let hot = reparsed.get("hot_states").expect("hot states").items();
        assert_eq!(hot[0].get("state").and_then(Json::as_str), Some("(f x)"));
        let addrs = reparsed.get("hot_addresses").expect("hot addrs").items();
        assert_eq!(addrs[0].get("grew").and_then(Json::as_u64), Some(1));
        let totals = reparsed.get("phase_totals").expect("totals");
        assert_eq!(totals.get("wall_us").and_then(Json::as_f64), Some(8.0));
    }
}
