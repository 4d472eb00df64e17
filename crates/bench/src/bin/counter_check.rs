//! Host-independent regression check on `svcbench`'s per-layer counts.
//!
//! Times do not transfer between hosts, but several of `svcbench`'s
//! per-layer metrics are counts that do: allocations and bytes per op,
//! wire and WAL bytes, the engine's cache-hit and dense shares, the
//! durable withheld peak, and context switches per op at one request
//! in flight. This bin runs every workload named in the committed
//! baseline (`svcbench_counters.json` beside this crate's manifest)
//! once, traced:
//!
//! ```text
//! svcbench --workload <w> --seed 11 --seconds 0.001 --trace 1
//! ```
//!
//! and compares each count the baseline lists with its value there. A
//! count fails when it moves in its worse direction — the `better`
//! field of its `per_layer` entry in `BENCHMARK.json` — by more than
//! the baseline's relative tolerance for it. A count that moves the
//! better way past its tolerance passes, with a note to update the
//! baseline. A share — a metric whose unit there is `ratio`, such as
//! the engine's dense share — fails on a move past its tolerance in
//! either direction: a share that drifts says the workload now takes
//! another path, whichever way its `better` points, and a zero
//! baseline must stay exactly zero. A run that is not `correct` fails
//! too.
//!
//! The run is shorter than one pass, so each half of the traced run
//! replays the workload's trace exactly once. Longer runs repeat whole
//! passes until the time is up, which spreads the run's fixed set-up
//! allocations over a number of passes that depends on host speed; one
//! pass makes the allocation counts repeat exactly. The tolerances
//! leave room for a different standard library allocating differently
//! during set-up, and for what still depends on timing: context
//! switches, and `avoid_durable`'s wire bytes per op, which moved by up
//! to 0.4% between runs of one build.
//!
//! Run from anywhere in the repository:
//! `cargo run --release -p deltaos-bench --bin counter_check`. Exit
//! status 0 means every count held, 1 that one regressed, 2 that the
//! check itself could not run.

use std::process::{Command, ExitCode};

const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
const BASELINE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/svcbench_counters.json");
const RUN_ARGS: [&str; 6] = ["--seed", "11", "--seconds", "0.001", "--trace", "1"];

#[derive(Clone, Copy, Debug, PartialEq)]
enum Better {
    Lower,
    Higher,
    /// A share: any move past tolerance is drift.
    Unchanged,
}

#[derive(Debug, PartialEq)]
enum Verdict {
    Held,
    Improved,
    Regressed,
}

/// Judges `got` against `base` for a count that is better when
/// `better`, allowing a move of `tolerance × |base|` either way.
fn judge(better: Better, base: f64, tolerance: f64, got: f64) -> Verdict {
    let slack = tolerance * base.abs();
    let worse_by = match better {
        Better::Lower => got - base,
        Better::Higher => base - got,
        Better::Unchanged => (got - base).abs(),
    };
    if worse_by > slack {
        Verdict::Regressed
    } else if -worse_by > slack {
        Verdict::Improved
    } else {
        Verdict::Held
    }
}

/// A parsed JSON value; objects keep their key order.
#[derive(Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        self.fields().iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn fields(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(fields) => fields,
            _ => &[],
        }
    }

    fn items(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            _ => &[],
        }
    }

    fn num(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Parses one JSON document (no `\u` escapes; neither input uses them).
fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        b: text.as_bytes(),
        i: 0,
    };
    let value = p.value()?;
    p.ws();
    if p.i != p.b.len() {
        return Err(format!("trailing bytes at byte {}", p.i));
    }
    Ok(value)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while matches!(self.b.get(self.i), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.i += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.ws();
        self.b.get(self.i).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.i))
        }
    }

    /// After an element: `true` on a comma, `false` on `close`.
    fn more(&mut self, close: u8) -> Result<bool, String> {
        if self.peek() == Some(b',') {
            self.i += 1;
            return Ok(true);
        }
        self.eat(close).map(|()| false)
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => {
                self.i += 1;
                let mut fields = Vec::new();
                if self.peek() == Some(b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    let key = self.string()?;
                    self.eat(b':')?;
                    fields.push((key, self.value()?));
                    if !self.more(b'}')? {
                        return Ok(Json::Obj(fields));
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                if self.peek() == Some(b']') {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    if !self.more(b']')? {
                        return Ok(Json::Arr(items));
                    }
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.word("true", Json::Bool(true)),
            Some(b'f') => self.word("false", Json::Bool(false)),
            Some(b'n') => self.word("null", Json::Null),
            _ => self.number(),
        }
    }

    fn word(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.i;
            while !matches!(self.b.get(self.i), None | Some(b'"' | b'\\')) {
                self.i += 1;
            }
            out.push_str(std::str::from_utf8(&self.b[start..self.i]).map_err(|e| e.to_string())?);
            match self.b.get(self.i) {
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    out.push(match self.b.get(self.i + 1) {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b't') => '\t',
                        Some(b'r') => '\r',
                        _ => return Err(format!("unsupported escape at byte {}", self.i)),
                    });
                    self.i += 2;
                }
                _ => return Err("unterminated string".into()),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        while matches!(
            self.b.get(self.i),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.i += 1;
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad value at byte {start}"))
    }
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_json(&text).map_err(|e| format!("{path}: {e}"))
}

/// The direction `BENCHMARK.json` gives a per-layer metric: its
/// `better` field, or [`Better::Unchanged`] for a share (unit `ratio`).
fn direction(bench: &Json, metric: &str) -> Result<Better, String> {
    let entry = bench
        .get("per_layer")
        .map_or(&[][..], Json::items)
        .iter()
        .find(|m| m.get("name").and_then(Json::str) == Some(metric))
        .ok_or_else(|| format!("BENCHMARK.json has no per-layer metric {metric}"))?;
    if entry.get("unit").and_then(Json::str) == Some("ratio") {
        return Ok(Better::Unchanged);
    }
    match entry.get("better").and_then(Json::str) {
        Some("lower") => Ok(Better::Lower),
        Some("higher") => Ok(Better::Higher),
        other => Err(format!("{metric}: better = {other:?}")),
    }
}

/// Runs one workload traced and returns its JSON line.
fn run_svcbench(workload: &str) -> Result<Json, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let out = Command::new(cargo)
        .current_dir(ROOT)
        .args(["run", "--release", "--offline", "--quiet"])
        .args(["--manifest-path", "svcbench/Cargo.toml", "--"])
        .args(["--workload", workload])
        .args(RUN_ARGS)
        .output()
        .map_err(|e| format!("spawn cargo: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "svcbench {workload}: {}\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let line = stdout
        .lines()
        .rfind(|l| l.starts_with('{'))
        .ok_or_else(|| format!("svcbench {workload} printed no JSON line"))?;
    parse_json(line).map_err(|e| format!("svcbench {workload}: {e}"))
}

fn run() -> Result<bool, String> {
    let bench = read_json(&format!("{ROOT}/BENCHMARK.json"))?;
    let baseline = read_json(BASELINE)?;
    let workloads = baseline
        .get("workloads")
        .map(Json::fields)
        .filter(|w| !w.is_empty())
        .ok_or("the baseline names no workloads")?;
    let mut ok = true;
    for (workload, counts) in workloads {
        let run = run_svcbench(workload)?;
        let correct = run.get("correct") == Some(&Json::Bool(true));
        println!(
            "{workload} ({})",
            if correct { "correct" } else { "NOT CORRECT" }
        );
        ok &= correct;
        for (metric, entry) in counts.fields() {
            let field = |key: &str| {
                entry
                    .get(key)
                    .and_then(Json::num)
                    .ok_or_else(|| format!("baseline {workload}.{metric} has no {key}"))
            };
            let (base, tolerance) = (field("value")?, field("tolerance")?);
            let got = run
                .get("metrics")
                .and_then(|m| m.get(metric))
                .and_then(|m| m.get("value"))
                .and_then(Json::num)
                .ok_or_else(|| format!("svcbench {workload} reported no {metric}"))?;
            let verdict = judge(direction(&bench, metric)?, base, tolerance, got);
            println!(
                "  {metric:<36} baseline {base:>10.4}  got {got:>10.4}  tolerance {:>4.1}%  {}",
                tolerance * 100.0,
                match verdict {
                    Verdict::Held => "ok",
                    Verdict::Improved => "ok, better: update the baseline",
                    Verdict::Regressed => "REGRESSED",
                }
            );
            ok &= verdict != Verdict::Regressed;
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("counter_check: a count regressed or a run was not correct");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("counter_check: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_fails_only_past_tolerance_in_the_worse_direction() {
        use Verdict::*;
        assert_eq!(judge(Better::Lower, 2.0, 0.05, 2.09), Held);
        assert_eq!(judge(Better::Lower, 2.0, 0.05, 2.11), Regressed);
        assert_eq!(judge(Better::Lower, 2.0, 0.05, 1.0), Improved);
        assert_eq!(judge(Better::Higher, 0.5, 0.01, 0.49), Regressed);
        assert_eq!(judge(Better::Higher, 0.5, 0.01, 0.6), Improved);
        // A zero baseline allows no rise at all.
        assert_eq!(judge(Better::Lower, 0.0, 0.5, 0.0), Held);
        assert_eq!(judge(Better::Lower, 0.0, 0.5, 1e-9), Regressed);
    }

    #[test]
    fn judge_fails_a_share_that_moves_either_way() {
        use Verdict::*;
        assert_eq!(judge(Better::Unchanged, 0.0, 0.001, 0.0), Held);
        assert_eq!(judge(Better::Unchanged, 0.0, 0.001, 0.01), Regressed);
        assert_eq!(judge(Better::Unchanged, 1.0, 0.001, 0.99), Regressed);
        assert_eq!(judge(Better::Unchanged, 1.0, 0.001, 1.0005), Held);
        assert_eq!(judge(Better::Unchanged, 0.5, 0.01, 0.51), Regressed);
    }

    #[test]
    fn shares_are_judged_two_sided() {
        let bench = read_json(&format!("{ROOT}/BENCHMARK.json")).unwrap();
        for share in ["engine.dense_share", "engine.cache_hit_ratio"] {
            assert_eq!(direction(&bench, share), Ok(Better::Unchanged), "{share}");
        }
        assert_eq!(direction(&bench, "alloc.per_op"), Ok(Better::Lower));
    }

    #[test]
    fn parses_a_svcbench_line() {
        let line = r#"{"correct": true, "attempted": 12, "failed": 0, "metrics": {"alloc.per_op": {"value": 2.04, "unit": "count"}, "x": {"value": -1.5e-3, "unit": "a\"b"}}}"#;
        let run = parse_json(line).unwrap();
        assert_eq!(run.get("correct"), Some(&Json::Bool(true)));
        let metric = |name: &str| run.get("metrics")?.get(name)?.get("value")?.num();
        assert_eq!(metric("alloc.per_op"), Some(2.04));
        assert_eq!(metric("x"), Some(-1.5e-3));
        assert_eq!(
            run.get("metrics").unwrap().get("x").unwrap().get("unit"),
            Some(&Json::Str("a\"b".into()))
        );
        assert!(parse_json("{\"a\": 1} x").is_err());
        assert!(parse_json("{\"a\": }").is_err());
        assert_eq!(parse_json("[null, [], {}]").unwrap().items().len(), 3);
    }

    #[test]
    fn baseline_lists_only_directed_counts_with_sane_tolerances() {
        let bench = read_json(&format!("{ROOT}/BENCHMARK.json")).unwrap();
        let baseline = read_json(BASELINE).unwrap();
        let workloads = baseline.get("workloads").unwrap().fields();
        assert!(!workloads.is_empty());
        for (workload, counts) in workloads {
            assert!(
                bench
                    .get("workloads")
                    .unwrap()
                    .items()
                    .iter()
                    .any(|w| w.get("name").and_then(Json::str) == Some(workload.as_str())),
                "{workload} is not a BENCHMARK.json workload"
            );
            assert!(!counts.fields().is_empty(), "{workload} lists no counts");
            for (metric, entry) in counts.fields() {
                direction(&bench, metric).unwrap();
                assert!(entry.get("value").and_then(Json::num).is_some());
                let tolerance = entry.get("tolerance").and_then(Json::num).unwrap();
                assert!((0.0..0.5).contains(&tolerance), "{workload}.{metric}");
            }
        }
    }
}
