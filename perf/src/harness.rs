//! What every workload shares: the span recorder, order statistics, the
//! seeded input generator and the JSON the benchmark writes and reads
//! back (there is no serde_json in the offline build).

use std::fmt::Write as _;
use std::time::Instant;

use rna_simnet::SimRng;
use rna_tensor::Tensor;

// --- Spans ----------------------------------------------------------------

/// One timed interval at a layer boundary. `parent` indexes the span that
/// was open on the same recorder when this one began.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub round: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder, one per thread. Recorders that share an
/// `epoch` produce comparable timestamps, so [`merge`] can put a sender's
/// and a receiver's spans of one round on one clock. A disabled recorder
/// costs one branch per call — the untraced pass runs the same code.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(epoch: Instant, enabled: bool) -> Self {
        Tracer {
            epoch,
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, layer: &'static str, round: u64) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        let parent = self.open.last().copied();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            layer,
            round,
            start_ns,
            end_ns: start_ns,
            parent,
        });
    }

    /// Ends the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let id = self.open.pop().expect("end without begin");
        self.spans[id].end_ns = end_ns;
    }

    pub fn span<R>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        round: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        self.begin(name, layer, round);
        let r = f();
        self.end();
        r
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "span left open");
        self.spans
    }
}

/// Concatenates two recorders' spans, re-basing the second's parent links.
pub fn merge(mut a: Vec<Span>, b: Vec<Span>) -> Vec<Span> {
    let base = a.len();
    a.extend(b.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + base);
        s
    }));
    a
}

/// Each span's self time: its duration minus what its direct children
/// cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Spans as JSON lines, one object per span.
pub fn spans_jsonl(workload: &str, spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"name\": \"{}\", \"layer\": \"{}\", \"workload\": \"{workload}\", \"round\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
            s.name, s.layer, s.round, s.start_ns, s.end_ns
        );
    }
    out
}

/// The share of `wall_s` that `calls` calls of `ns_per_call` explain.
pub fn share(calls: f64, ns_per_call: f64, wall_s: f64) -> f64 {
    calls * ns_per_call / (wall_s * 1e9)
}

// --- Order statistics -----------------------------------------------------

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in a sample"));
    v
}

/// Median (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile: the smallest value with at least `p` percent
/// of the sample at or below it.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "percentile of nothing");
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method) — the spread rule the benchmark is
/// accepted by. Fewer than two values have no spread.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let m = v.len();
    if m < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// A measured quantity: the median of its samples with their quartiles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stat {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub samples: usize,
}

impl Stat {
    pub fn of(samples: &[f64]) -> Stat {
        let (q1, q3) = quartiles(samples);
        Stat {
            value: median(samples),
            q1,
            q3,
            samples: samples.len(),
        }
    }

    /// A quantity that was counted, not sampled.
    pub fn exact(value: f64) -> Stat {
        Stat {
            value,
            q1: value,
            q3: value,
            samples: 1,
        }
    }

    /// Quartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.value.abs()
        }
    }
}

// --- Seeded inputs --------------------------------------------------------

/// An independent seed for stream `stream` of the run seeded `seed`.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    SimRng::seed(seed).fork(stream).uniform_u64(0..u64::MAX)
}

/// `len` values in [-0.5, 0.5]: a stand-in gradient.
pub fn seeded_tensor(seed: u64, stream: u64, len: usize) -> Tensor {
    let mut rng = SimRng::seed(seed).fork(stream);
    (0..len).map(|_| rng.uniform_init(0.5)).collect()
}

/// The `u32` draw stream the stochastic codecs consume.
pub fn draws(seed: u64, stream: u64) -> impl FnMut() -> u32 {
    let mut rng = SimRng::seed(seed).fork(stream);
    move || rng.uniform_u64(0..1 << 32) as u32
}

// --- JSON -----------------------------------------------------------------

/// A JSON value; objects keep insertion order so reports read in the order
/// they were built.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn fields(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(fields) => fields,
            _ => &[],
        }
    }

    #[cfg(test)]
    pub fn items(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            _ => &[],
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Renders on one line. Numbers keep every digit (`f64`'s shortest
    /// round-trip form); a non-finite number has no JSON form and renders
    /// as `null`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) if n.is_finite() => {
                let _ = write!(out, "{n}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => render_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    render_str(k, out);
                    out.push_str(": ");
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON document.
    ///
    /// # Errors
    ///
    /// A message naming the byte offset of the first thing that is not JSON.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(v)
    }
}

fn render_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(u8::is_ascii_whitespace)
        {
            self.pos += 1;
        }
    }

    fn err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at offset {}", self.pos))
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => self.err("unexpected end"),
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.eat("}") {
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    if !self.eat(":") {
                        return self.err("expected ':'");
                    }
                    fields.push((key, self.value()?));
                    self.skip_ws();
                    if self.eat("}") {
                        return Ok(Json::Obj(fields));
                    }
                    if !self.eat(",") {
                        return self.err("expected ',' or '}'");
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.eat("]") {
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    if self.eat("]") {
                        return Ok(Json::Arr(items));
                    }
                    if !self.eat(",") {
                        return self.err("expected ',' or ']'");
                    }
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(_) if self.eat("true") => Ok(Json::Bool(true)),
            Some(_) if self.eat("false") => Ok(Json::Bool(false)),
            Some(_) if self.eat("null") => Ok(Json::Null),
            Some(_) => {
                let start = self.pos;
                while self
                    .bytes
                    .get(self.pos)
                    .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .map_or_else(|| self.err("expected a value"), |n| Ok(Json::Num(n)))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return self.err("expected a string");
        }
        let mut out = Vec::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return self.err("unterminated string");
            };
            self.pos += 1;
            match b {
                b'"' => return String::from_utf8(out).or_else(|_| self.err("string is not UTF-8")),
                b'\\' => {
                    let Some(&e) = self.bytes.get(self.pos) else {
                        return self.err("unterminated escape");
                    };
                    self.pos += 1;
                    match e {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'"' | b'\\' | b'/' => out.push(e),
                        b'u' => {
                            let c = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32);
                            let Some(c) = c else {
                                return self.err("bad \\u escape");
                            };
                            self.pos += 4;
                            out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        _ => return self.err("unknown escape"),
                    }
                }
                b => out.push(b),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile_on_known_vectors() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[5.0, 1.0, 9.0], 0.0), 1.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 3.0, 1.0, 2.0, 4.0]), (1.5, 4.5));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
        let s = Stat::of(&v);
        assert_eq!((s.value, s.samples), (5.5, 10));
        assert_eq!(s.spread(), 1.0);
        assert_eq!(Stat::exact(3.0).spread(), 0.0);
    }

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            layer: "test",
            round: 0,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span("round", 0, 100, None),
            span("encode", 10, 40, Some(0)),
            span("simd", 15, 25, Some(1)),
            span("write", 50, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
    }

    #[test]
    fn tracer_links_parents_and_merge_rebases_them() {
        let mut t = Tracer::new(Instant::now(), true);
        t.begin("round", "hop", 3);
        t.span("encode", "tensor", 3, || ());
        t.span("write", "socket", 3, || ());
        t.end();
        let a = t.into_spans();
        assert_eq!(
            a.iter().map(|s| s.parent).collect::<Vec<_>>(),
            vec![None, Some(0), Some(0)]
        );
        assert!(a[0].start_ns <= a[1].start_ns && a[2].end_ns <= a[0].end_ns);
        let merged = merge(a.clone(), a);
        assert_eq!(merged[4].parent, Some(3));
        assert_eq!(merged[3].parent, None);

        let mut off = Tracer::new(Instant::now(), false);
        off.span("x", "y", 0, || ());
        assert!(off.into_spans().is_empty());
    }

    #[test]
    fn share_arithmetic() {
        // 1000 calls of 2 µs explain 2 ms of a 10 ms wall.
        assert!((share(1000.0, 2000.0, 0.010) - 0.2).abs() < 1e-12);
        assert_eq!(share(0.0, 5.0, 1.0), 0.0);
    }

    #[test]
    fn seeded_inputs_repeat_and_differ_by_stream() {
        let a = seeded_tensor(7, 1, 64);
        assert_eq!(a.as_slice(), seeded_tensor(7, 1, 64).as_slice());
        assert_ne!(a.as_slice(), seeded_tensor(7, 2, 64).as_slice());
        assert_ne!(a.as_slice(), seeded_tensor(8, 1, 64).as_slice());
        assert!(a.iter().all(|x| (-0.5..=0.5).contains(x)));
        assert_ne!(sub_seed(7, 1), sub_seed(7, 2));
        let (mut d1, mut d2) = (draws(7, 1), draws(7, 1));
        assert_eq!(d1(), d2());
    }

    #[test]
    fn emitted_json_parses_back() {
        let doc = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Num(1500.0)),
            (
                "metrics",
                Json::obj([(
                    "rounds_per_s",
                    Json::obj([
                        ("value", Json::Num(5_123.456_789_012_3)),
                        ("unit", Json::Str("1/s".into())),
                    ]),
                )]),
            ),
            ("note", Json::Str("a \"quoted\"\nline\\".into())),
            ("bad", Json::Num(f64::NAN)),
            ("list", Json::Arr(vec![Json::Num(-1e-9), Json::Null])),
        ]);
        let text = doc.render();
        assert!(!text.contains('\n'), "one line: {text}");
        let back = Json::parse(&text).expect("own output parses");
        assert_eq!(back.get("attempted").and_then(Json::as_f64), Some(1500.0));
        let v = back
            .get("metrics")
            .and_then(|m| m.get("rounds_per_s"))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64);
        assert_eq!(v, Some(5_123.456_789_012_3), "every digit survives");
        assert_eq!(
            back.get("note").and_then(Json::as_str),
            Some("a \"quoted\"\nline\\")
        );
        assert_eq!(back.get("bad"), Some(&Json::Null));
        assert_eq!(back.get("list").map(|l| l.items().len()), Some(2));
        assert!(Json::parse("{\"a\": 1,}").is_err());
        assert!(Json::parse("[1 2]").is_err());
        assert!(Json::parse("{} x").is_err());
    }

    #[test]
    fn span_lines_are_json() {
        let spans = vec![span("round", 5, 9, None), span("encode", 6, 7, Some(0))];
        let text = spans_jsonl("hop-64k", &spans);
        let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].get("parent"), Some(&Json::Null));
        assert_eq!(lines[1].get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(
            lines[1].get("workload").and_then(Json::as_str),
            Some("hop-64k")
        );
    }
}
