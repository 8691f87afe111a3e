//! A plain-text interchange format for TT instances.
//!
//! The format is line-oriented and diff-friendly:
//!
//! ```text
//! # comments and blank lines are ignored
//! tt 1                      # header: format version
//! objects 4
//! weights 4 3 2 1
//! test      0 1   | 1       # "test <objects...> | <cost>"
//! test      0 2   | 2
//! treat     0     | 3
//! treat     1 2   | 4
//! treat     3     | 2
//! ```
//!
//! Used by the `ttsolve` CLI and the examples; round-trips exactly.

use crate::error::TtError;
use crate::instance::{Action, ActionKind, TtInstance, TtInstanceBuilder};
use crate::subset::Subset;
use std::fmt::Write as _;

/// Errors arising while parsing the text format.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseError {
    /// A line could not be understood.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// The header or a required section is missing.
    Missing(&'static str),
    /// The assembled instance failed validation.
    Invalid(TtError),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Syntax { line, message } => write!(f, "line {line}: {message}"),
            ParseError::Missing(what) => write!(f, "missing {what}"),
            ParseError::Invalid(e) => write!(f, "invalid instance: {e}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Serializes an instance to the text format.
pub fn to_text(inst: &TtInstance) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "tt 1");
    let _ = writeln!(s, "objects {}", inst.k());
    let _ = write!(s, "weights");
    for w in inst.weights() {
        let _ = write!(s, " {w}");
    }
    let _ = writeln!(s);
    for a in inst.actions() {
        let kw = if a.is_test() { "test" } else { "treat" };
        let _ = write!(s, "{kw}");
        for j in a.set.iter() {
            let _ = write!(s, " {j}");
        }
        let _ = writeln!(s, " | {}", a.cost);
    }
    s
}

/// Explains why a weight token was rejected, with a fix: weights are
/// a-priori likelihoods, so negative, fractional, or non-numeric values
/// are input mistakes this layer catches before they corrupt the DP.
fn weight_hint(tok: &str) -> String {
    if tok.starts_with('-') {
        "weights are a-priori likelihoods and cannot be negative; \
         use non-negative integers"
            .to_string()
    } else if tok.eq_ignore_ascii_case("nan") || tok.eq_ignore_ascii_case("inf") {
        "weights must be finite non-negative integers".to_string()
    } else if tok.parse::<f64>().is_ok() {
        "weights must be integers; scale fractional priors to integers \
         (only ratios matter, e.g. 0.5 0.25 0.25 -> 2 1 1)"
            .to_string()
    } else {
        "expected a non-negative integer".to_string()
    }
}

/// Parses an instance from the text format.
///
/// # Examples
/// ```
/// let inst = tt_core::io::from_text(
///     "tt 1\nobjects 2\nweights 3 1\ntest 0 | 2\ntreat 0 1 | 5\n",
/// ).unwrap();
/// assert_eq!(inst.k(), 2);
/// assert_eq!(inst.n_tests(), 1);
/// assert_eq!(tt_core::io::from_text(&tt_core::io::to_text(&inst)).unwrap(), inst);
/// ```
pub fn from_text(text: &str) -> Result<TtInstance, ParseError> {
    let mut k: Option<usize> = None;
    let mut weights: Option<Vec<u64>> = None;
    let mut actions: Vec<Action> = Vec::new();
    let mut saw_header = false;

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let keyword = parts.next().expect("non-empty line has a token");
        let syntax = |message: String| ParseError::Syntax {
            line: line_no,
            message,
        };
        match keyword {
            "tt" => {
                let v = parts
                    .next()
                    .ok_or_else(|| syntax("missing version".into()))?;
                if v != "1" {
                    return Err(syntax(format!("unsupported version {v}")));
                }
                saw_header = true;
            }
            "objects" => {
                let v = parts
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| syntax("objects needs a count".into()))?;
                k = Some(v);
            }
            "weights" => {
                let mut ws = Vec::new();
                for tok in parts {
                    ws.push(tok.parse::<u64>().map_err(|_| {
                        syntax(format!("bad weight '{tok}': {}", weight_hint(tok)))
                    })?);
                }
                weights = Some(ws);
            }
            "test" | "treat" => {
                let rest: Vec<&str> = line.splitn(2, char::is_whitespace).collect();
                let body = rest.get(1).copied().unwrap_or("");
                let mut halves = body.split('|');
                let objs = halves.next().unwrap_or("");
                let cost_s = halves
                    .next()
                    .ok_or_else(|| syntax("missing '| cost'".into()))?;
                let mut set = Subset::EMPTY;
                for tok in objs.split_whitespace() {
                    let j: usize = tok
                        .parse()
                        .map_err(|e| syntax(format!("bad object: {e}")))?;
                    if j >= 32 {
                        return Err(syntax(format!("object {j} out of range")));
                    }
                    set = set.with(j);
                }
                let cost: u64 = cost_s
                    .trim()
                    .parse()
                    .map_err(|e| syntax(format!("bad cost: {e}")))?;
                let kind = if keyword == "test" {
                    ActionKind::Test
                } else {
                    ActionKind::Treatment
                };
                actions.push(Action { set, cost, kind });
            }
            other => return Err(syntax(format!("unknown keyword '{other}'"))),
        }
    }

    if !saw_header {
        return Err(ParseError::Missing("'tt 1' header"));
    }
    let k = k.ok_or(ParseError::Missing("'objects' line"))?;
    let mut b = TtInstanceBuilder::new(k);
    if let Some(w) = weights {
        b = b.weights(w);
    }
    for a in actions {
        b = b.action(a);
    }
    b.build().map_err(ParseError::Invalid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::TtInstanceBuilder;

    fn sample() -> TtInstance {
        TtInstanceBuilder::new(4)
            .weights([4, 3, 2, 1])
            .test(Subset::from_iter([0, 1]), 1)
            .test(Subset::from_iter([0, 2]), 2)
            .treatment(Subset::from_iter([0]), 3)
            .treatment(Subset::from_iter([1, 2]), 4)
            .treatment(Subset::from_iter([3]), 2)
            .build()
            .unwrap()
    }

    #[test]
    fn roundtrip() {
        let inst = sample();
        let text = to_text(&inst);
        let back = from_text(&text).unwrap();
        assert_eq!(back, inst);
    }

    #[test]
    fn parses_comments_and_whitespace() {
        let text = "\n# a comment\n tt 1 \nobjects 2\nweights 5 1  # trailing\n\ntreat 0 1 | 7\n";
        let inst = from_text(text).unwrap();
        assert_eq!(inst.k(), 2);
        assert_eq!(inst.weights(), &[5, 1]);
        assert_eq!(inst.n_treatments(), 1);
        assert_eq!(inst.action(0).cost, 7);
    }

    #[test]
    fn default_weights_when_omitted() {
        let inst = from_text("tt 1\nobjects 3\ntreat 0 1 2 | 4\n").unwrap();
        assert_eq!(inst.weights(), &[1, 1, 1]);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(matches!(from_text(""), Err(ParseError::Missing(_))));
        assert!(matches!(
            from_text("tt 2\n"),
            Err(ParseError::Syntax { .. })
        ));
        assert!(matches!(
            from_text("tt 1\nobjects 2\nfoo\n"),
            Err(ParseError::Syntax { .. })
        ));
        assert!(matches!(
            from_text("tt 1\nobjects 2\ntreat 0 1\n"),
            Err(ParseError::Syntax { .. })
        ));
        assert!(matches!(
            from_text("tt 1\nobjects 2\ntreat 99 | 1\n"),
            Err(ParseError::Syntax { .. })
        ));
        // Structurally valid text, semantically invalid instance.
        assert!(matches!(
            from_text("tt 1\nobjects 2\nweights 1 1\n"),
            Err(ParseError::Invalid(TtError::NoActions))
        ));
        // A cost that parses as u64 but is the INF sentinel.
        assert!(matches!(
            from_text("tt 1\nobjects 2\ntest 0 | 18446744073709551615\ntreat 0 1 | 1\n"),
            Err(ParseError::Invalid(TtError::CostIsInf { action: 0 }))
        ));
    }

    #[test]
    fn weight_parse_errors_are_actionable() {
        let neg = from_text("tt 1\nobjects 2\nweights -1 2\ntreat 0 1 | 1\n").unwrap_err();
        assert!(neg.to_string().contains("cannot be negative"), "{neg}");
        let frac = from_text("tt 1\nobjects 2\nweights 0.5 0.5\ntreat 0 1 | 1\n").unwrap_err();
        assert!(frac.to_string().contains("must be integers"), "{frac}");
        let nan = from_text("tt 1\nobjects 2\nweights NaN 1\ntreat 0 1 | 1\n").unwrap_err();
        assert!(nan.to_string().contains("finite non-negative"), "{nan}");
        let zero = from_text("tt 1\nobjects 2\nweights 0 0\ntreat 0 1 | 1\n").unwrap_err();
        assert!(matches!(
            zero,
            ParseError::Invalid(TtError::ZeroTotalWeight)
        ));
        assert!(
            zero.to_string().contains("positive integer weight"),
            "{zero}"
        );
    }

    #[test]
    fn error_messages_carry_line_numbers() {
        let err = from_text("tt 1\nobjects 2\nbad line here\n").unwrap_err();
        assert_eq!(err.to_string(), "line 3: unknown keyword 'bad'");
    }
}
