//! Declarative SLO / alert rules over registry snapshot diffs.
//!
//! A rule names one observable — a counter delta, a gauge level, a
//! histogram quantile, or a ratio of two counter deltas — compares it
//! against a threshold, and fires an [`Alert`] when the comparison
//! holds over the evaluated window. Windows are [`Snapshot`] diffs
//! (`later.diff(&earlier)`), so the same engine works per-epoch, per
//! scenario, or per scrape interval.
//!
//! # Rule grammar
//!
//! One rule per line; `#` starts a comment; blank lines are skipped.
//!
//! ```text
//! <name>: counter(<metric>) <op> <threshold>
//! <name>: gauge(<metric>) <op> <threshold>
//! <name>: p50|p95|p99(<metric>) <op> <threshold> [min <count>]
//! <name>: rate(<numerator> / <denominator>) <op> <threshold> [min <count>]
//! ```
//!
//! `<op>` is one of `>`, `>=`, `<`, `<=`. The optional `min <count>`
//! guard suppresses the rule unless the histogram saw at least `count`
//! samples (quantile rules) or the denominator delta is at least
//! `count` (rate rules) — without it, a quiet window with a 0/0 ratio
//! could page an operator.
//!
//! Firing is observable two ways: the returned [`Alert`] list, and —
//! when telemetry is enabled — one [`EventKind::AlertRaised`] event
//! per firing in the process event journal plus an `alert.raised`
//! counter bump, which is what the chaos detection oracle and the
//! forensic timeline consume.

use crate::journal::EventKind;
use crate::registry::Snapshot;

/// Counter name bumped once per alert firing.
pub const ALERTS_RAISED: &str = "alert.raised";

/// The observable a rule evaluates over a snapshot diff.
#[derive(Debug, Clone, PartialEq)]
pub enum Observable {
    /// Counter delta (saturating at 0 via the diff).
    Counter(String),
    /// Gauge level at the end of the window.
    Gauge(String),
    /// Interpolated histogram quantile over the window's samples.
    Quantile(String, f64),
    /// `numerator / denominator` counter-delta ratio.
    Rate(String, String),
}

/// Comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Strictly greater.
    Gt,
    /// Greater or equal.
    Ge,
    /// Strictly less.
    Lt,
    /// Less or equal.
    Le,
}

impl Op {
    fn holds(self, value: f64, threshold: f64) -> bool {
        match self {
            Op::Gt => value > threshold,
            Op::Ge => value >= threshold,
            Op::Lt => value < threshold,
            Op::Le => value <= threshold,
        }
    }

    fn symbol(self) -> &'static str {
        match self {
            Op::Gt => ">",
            Op::Ge => ">=",
            Op::Lt => "<",
            Op::Le => "<=",
        }
    }
}

/// One parsed alert rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Rule name (the alert identity reported to operators).
    pub name: String,
    /// What is measured.
    pub observable: Observable,
    /// How it is compared.
    pub op: Op,
    /// Against what.
    pub threshold: f64,
    /// Minimum sample/denominator count before the rule is live
    /// (0 = always live). Quantile rules compare against the
    /// histogram's window count; rate rules against the denominator
    /// delta; counter/gauge rules ignore it.
    pub min_count: u64,
}

/// One rule firing over one evaluated window.
#[derive(Debug, Clone, PartialEq)]
pub struct Alert {
    /// Index of the rule in the engine's rule list.
    pub rule_id: usize,
    /// The firing rule's name.
    pub rule: String,
    /// Observed value that crossed the threshold.
    pub value: f64,
    /// The rule's threshold.
    pub threshold: f64,
    /// Epoch label the caller attached to the window.
    pub epoch: u64,
}

impl Alert {
    /// Human-oriented one-line rendering.
    pub fn describe(&self, op: Op) -> String {
        format!(
            "[{}] {} fired: observed {} {} {}",
            self.epoch,
            self.rule,
            self.value,
            op.symbol(),
            self.threshold
        )
    }
}

/// Default rule set wired to the instrumentation this workspace ships:
/// integrity rejections, lost epochs, loss-driven retransmissions,
/// crash-driven topology churn, telemetry self-monitoring, journal
/// durability lag, and the epoch latency SLO.
pub const DEFAULT_RULES: &str = "\
# Integrity: any rejected epoch in the window is an attack signal
# (exact SUM verification refused the aggregate).
integrity_reject: counter(engine.epochs_rejected) > 0
# Liveness: the tree failed to deliver any verifiable result.
epoch_loss: counter(engine.epochs_lost) > 0
# Link loss: NACK-driven retransmissions happened in the window.
loss_retransmit: counter(recovery.retransmits) > 0
# Topology churn: orphans were adopted by backup parents (aggregator
# crash detected and repaired in-epoch).
crash_churn: counter(engine.adoptions) > 0
# Telemetry self-monitoring: a bounded event buffer overflowed, the
# record of this window is incomplete.
events_dropped: counter(telemetry.events_dropped) > 0
# Durability: receipts buffered past the fsync horizon.
fsync_lag: gauge(journal.fsync_lag) > 64
# Latency SLO: p99 epoch wall time above 10 s.
epoch_latency_p99: p99(engine.epoch) > 10000000000 min 8
";

/// Parses the rule grammar (see module docs). Returns the first error
/// as `line <n>: <why>`.
pub fn parse_rules(text: &str) -> Result<Vec<Rule>, String> {
    let mut rules = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |why: &str| format!("line {}: {}", lineno + 1, why);
        let (name, rest) = line
            .split_once(':')
            .ok_or_else(|| err("missing `name:` prefix"))?;
        let name = name.trim();
        if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return Err(err("rule name must be [A-Za-z0-9_]+"));
        }
        let rest = rest.trim();
        let open = rest.find('(').ok_or_else(|| err("missing `(`"))?;
        let close = rest.find(')').ok_or_else(|| err("missing `)`"))?;
        if close < open {
            return Err(err("`)` before `(`"));
        }
        let func = rest[..open].trim();
        let arg = rest[open + 1..close].trim();
        let observable = match func {
            "counter" => Observable::Counter(arg.to_string()),
            "gauge" => Observable::Gauge(arg.to_string()),
            "p50" => Observable::Quantile(arg.to_string(), 0.50),
            "p95" => Observable::Quantile(arg.to_string(), 0.95),
            "p99" => Observable::Quantile(arg.to_string(), 0.99),
            "rate" => {
                let (num, den) = arg
                    .split_once('/')
                    .ok_or_else(|| err("rate needs `num / den`"))?;
                let (num, den) = (num.trim(), den.trim());
                if num.is_empty() || den.is_empty() {
                    return Err(err("rate needs `num / den`"));
                }
                Observable::Rate(num.to_string(), den.to_string())
            }
            other => return Err(err(&format!("unknown function `{other}`"))),
        };
        if matches!(&observable, Observable::Counter(m) | Observable::Gauge(m)
            | Observable::Quantile(m, _) if m.is_empty())
        {
            return Err(err("empty metric name"));
        }
        let mut tail = rest[close + 1..].split_whitespace();
        let op = match tail.next() {
            Some(">") => Op::Gt,
            Some(">=") => Op::Ge,
            Some("<") => Op::Lt,
            Some("<=") => Op::Le,
            _ => return Err(err("expected comparison `>`, `>=`, `<`, `<=`")),
        };
        let threshold: f64 = tail
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| err("expected numeric threshold"))?;
        let min_count = match (tail.next(), tail.next()) {
            (None, _) => 0,
            (Some("min"), Some(n)) => n.parse().map_err(|_| err("expected integer after `min`"))?,
            _ => return Err(err("trailing tokens (expected `min <count>` or end)")),
        };
        if tail.next().is_some() {
            return Err(err("trailing tokens after `min <count>`"));
        }
        rules.push(Rule {
            name: name.to_string(),
            observable,
            op,
            threshold,
            min_count,
        });
    }
    Ok(rules)
}

/// Evaluates parsed rules against snapshot windows.
#[derive(Debug, Clone)]
pub struct AlertEngine {
    rules: Vec<Rule>,
}

impl AlertEngine {
    /// An engine over an explicit rule list.
    pub fn new(rules: Vec<Rule>) -> AlertEngine {
        AlertEngine { rules }
    }

    /// An engine over [`DEFAULT_RULES`].
    pub fn with_default_rules() -> AlertEngine {
        AlertEngine::new(parse_rules(DEFAULT_RULES).expect("DEFAULT_RULES parse"))
    }

    /// The rule list (index = `rule_id` in alerts and journal events).
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Evaluates every rule against one window (`diff` of two
    /// snapshots, or a raw snapshot for whole-run checks). Each firing
    /// rule yields one [`Alert`]; when telemetry is enabled it also
    /// journals an [`EventKind::AlertRaised`] event (`a` = rule id,
    /// `b` = observed value rounded to u64) and bumps
    /// [`ALERTS_RAISED`].
    pub fn evaluate(&self, window: &Snapshot, epoch: u64) -> Vec<Alert> {
        let mut alerts = Vec::new();
        for (rule_id, rule) in self.rules.iter().enumerate() {
            let value = match &rule.observable {
                Observable::Counter(m) => window.counter(m) as f64,
                Observable::Gauge(m) => window.gauge(m) as f64,
                Observable::Quantile(m, q) => {
                    let h = window.hist(m);
                    if h.count < rule.min_count.max(1) {
                        continue;
                    }
                    h.quantile(*q)
                }
                Observable::Rate(num, den) => {
                    let d = window.counter(den);
                    if d < rule.min_count.max(1) {
                        continue;
                    }
                    window.counter(num) as f64 / d as f64
                }
            };
            if rule.op.holds(value, rule.threshold) {
                if crate::enabled() {
                    crate::event(
                        epoch,
                        EventKind::AlertRaised,
                        rule_id as u64,
                        value.max(0.0).min(u64::MAX as f64) as u64,
                    );
                    static RAISED: std::sync::OnceLock<std::sync::Arc<crate::metric::Counter>> =
                        std::sync::OnceLock::new();
                    RAISED
                        .get_or_init(|| crate::registry::global().counter(ALERTS_RAISED))
                        .incr();
                }
                alerts.push(Alert {
                    rule_id,
                    rule: rule.name.clone(),
                    value,
                    threshold: rule.threshold,
                    epoch,
                });
            }
        }
        alerts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn window(build: impl Fn(&Registry)) -> Snapshot {
        let r = Registry::new();
        build(&r);
        r.snapshot()
    }

    #[test]
    fn default_rules_parse() {
        let rules = parse_rules(DEFAULT_RULES).unwrap();
        assert_eq!(rules.len(), 7);
        assert_eq!(rules[0].name, "integrity_reject");
        assert_eq!(
            rules[6].observable,
            Observable::Quantile("engine.epoch".into(), 0.99)
        );
        assert_eq!(rules[6].min_count, 8);
    }

    #[test]
    fn grammar_rejects_malformed_lines() {
        for bad in [
            "no_colon counter(x) > 1",
            "name: frobnicate(x) > 1",
            "name: counter(x) ~ 1",
            "name: counter(x) > banana",
            "name: rate(a) > 1",
            "name: counter(x) > 1 min",
            "name: counter(x) > 1 extra tokens here",
            "bad name!: counter(x) > 1",
        ] {
            assert!(parse_rules(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn threshold_rules_fire_on_counters_and_gauges() {
        let eng = AlertEngine::new(
            parse_rules(
                "rej: counter(engine.epochs_rejected) > 0\nlag: gauge(journal.fsync_lag) > 64\n",
            )
            .unwrap(),
        );
        let quiet = window(|r| {
            r.counter("engine.epochs_rejected");
            r.gauge("journal.fsync_lag").set(3);
        });
        assert!(eng.evaluate(&quiet, 1).is_empty());

        let noisy = window(|r| {
            r.counter("engine.epochs_rejected").add(2);
            r.gauge("journal.fsync_lag").set(100);
        });
        let alerts = eng.evaluate(&noisy, 7);
        assert_eq!(alerts.len(), 2);
        assert_eq!(alerts[0].rule, "rej");
        assert_eq!(alerts[0].value, 2.0);
        assert_eq!(alerts[0].epoch, 7);
        assert_eq!(alerts[1].rule, "lag");
    }

    #[test]
    fn rate_rules_respect_the_min_guard() {
        let eng = AlertEngine::new(parse_rules("miss: rate(m / l) > 0.9 min 16\n").unwrap());
        // Below the guard: 10 lookups, all misses — suppressed.
        let small = window(|r| {
            r.counter("m").add(10);
            r.counter("l").add(10);
        });
        assert!(eng.evaluate(&small, 0).is_empty());
        // Above the guard and above threshold.
        let big = window(|r| {
            r.counter("m").add(20);
            r.counter("l").add(20);
        });
        let alerts = eng.evaluate(&big, 0);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].value, 1.0);
        // Above the guard, below threshold.
        let healthy = window(|r| {
            r.counter("m").add(2);
            r.counter("l").add(100);
        });
        assert!(eng.evaluate(&healthy, 0).is_empty());
        // Zero denominator never divides.
        let empty = window(|r| {
            r.counter("m").add(5);
        });
        assert!(eng.evaluate(&empty, 0).is_empty());
    }

    #[test]
    fn quantile_rules_gate_on_sample_count_and_interpolate() {
        let eng = AlertEngine::new(parse_rules("lat: p99(lat_ns) > 1000 min 8\n").unwrap());
        // 7 huge samples: below min count, suppressed.
        let few = window(|r| {
            for _ in 0..7 {
                r.histogram("lat_ns").record(1 << 20);
            }
        });
        assert!(eng.evaluate(&few, 0).is_empty());
        // 100 samples all far above threshold: fires.
        let slow = window(|r| {
            for _ in 0..100 {
                r.histogram("lat_ns").record(1 << 20);
            }
        });
        let alerts = eng.evaluate(&slow, 3);
        assert_eq!(alerts.len(), 1);
        assert!(alerts[0].value > 1000.0);
        // 100 fast samples: quiet.
        let fast = window(|r| {
            for _ in 0..100 {
                r.histogram("lat_ns").record(16);
            }
        });
        assert!(eng.evaluate(&fast, 3).is_empty());
    }

    #[test]
    fn default_rules_stay_quiet_on_an_empty_window() {
        let eng = AlertEngine::with_default_rules();
        assert!(eng.evaluate(&Snapshot::default(), 0).is_empty());
    }

    #[test]
    fn describe_renders_readably() {
        let a = Alert {
            rule_id: 0,
            rule: "rej".into(),
            value: 2.0,
            threshold: 0.0,
            epoch: 5,
        };
        assert_eq!(a.describe(Op::Gt), "[5] rej fired: observed 2 > 0");
    }
}
