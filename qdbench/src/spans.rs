//! The traced run's span recorder and the leftover ("unattributed")
//! computation.
//!
//! The benchmark records its own spans around each call it makes into a
//! layer's public functions, on the engine's monotonic clock
//! ([`qdb_obs::now_ns`]). Each engine statement also leaves a root event
//! and one event per timed phase in the engine's flight recorder
//! ([`qdb_core::SharedQuantumDb::obs`]); the benchmark reads those back
//! and nests them under its own spans by time containment. Spans are kept
//! in memory and written as JSONL when the run ends.

use std::collections::BTreeMap;
use std::io::Write;

use qdb_obs::{kind_name, Obs, Phase, SpanEvent, PHASE_COUNT, STMT_CODE_BASE};

/// Spans kept in memory (and written) per run; a traced run still does
/// all of its tracing work past this, so the overhead it reports stays
/// real, but further spans are counted instead of stored.
const MAX_SPANS: usize = 250_000;

/// Clock slack when deciding that one span lies inside another: engine
/// events derive their start from `end - duration`, so a child can appear
/// to start a few nanoseconds before its parent.
const SLACK_NS: u64 = 200;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Operation index the span belongs to (`None`: could not be matched
    /// to a single operation).
    pub op: Option<u64>,
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span store of one traced run.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: Vec<Span>,
    next_id: u64,
    dropped: u64,
}

impl Tracer {
    /// Record a span and return its id.
    pub fn record(
        &mut self,
        op: Option<u64>,
        parent: Option<u64>,
        name: &str,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return id;
        }
        self.spans.push(Span {
            op,
            id,
            parent,
            name: name.to_string(),
            start_ns,
            end_ns,
        });
        id
    }

    /// Record engine flight-recorder events under `parent`, each nested
    /// under the innermost event that contains it.
    pub fn record_engine(&mut self, op: Option<u64>, parent: Option<u64>, events: &[SpanEvent]) {
        let mut sorted = events.to_vec();
        sorted.sort_by_key(|e| (e.ts_ns, std::cmp::Reverse(e.dur_ns)));
        let mut stack: Vec<(SpanEvent, u64)> = Vec::new();
        for e in sorted {
            while stack.last().is_some_and(|(outer, _)| !contains(outer, &e)) {
                stack.pop();
            }
            let p = stack.last().map(|(_, id)| *id).or(parent);
            let id = self.record(
                op,
                p,
                &format!("engine.{}", kind_name(e.kind)),
                e.ts_ns,
                e.ts_ns + e.dur_ns,
            );
            stack.push((e, id));
        }
    }

    /// `(spans kept, spans counted past the cap)`.
    pub fn counts(&self) -> (usize, u64) {
        (self.spans.len(), self.dropped)
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let opt = |v: Option<u64>| v.map_or_else(|| "null".to_string(), |v| v.to_string());
        for s in &self.spans {
            writeln!(
                out,
                "{{\"op\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                opt(s.op),
                s.id,
                opt(s.parent),
                qdb_obs::escape_json(&s.name),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

fn contains(outer: &SpanEvent, inner: &SpanEvent) -> bool {
    inner.ts_ns + SLACK_NS >= outer.ts_ns
        && inner.ts_ns + inner.dur_ns <= outer.ts_ns + outer.dur_ns + SLACK_NS
}

fn is_statement(e: &SpanEvent) -> bool {
    e.kind >= STMT_CODE_BASE
}

/// The flight-recorder events that started at or after `since_ns`, oldest
/// first, and whether the read is complete (`false` when the ring wrapped
/// past `since_ns`, i.e. older events of the window were overwritten).
pub fn events_since(obs: &Obs, since_ns: u64) -> (Vec<SpanEvent>, bool) {
    let cap = obs.ring_capacity();
    let mut n = 32.min(cap);
    loop {
        let ev = obs.events(n);
        let reaches_back = ev.first().is_none_or(|e| e.ts_ns + SLACK_NS < since_ns);
        if ev.len() < n || reaches_back || n >= cap {
            let complete = ev.len() < n || reaches_back;
            let out = ev
                .into_iter()
                .filter(|e| e.ts_ns + SLACK_NS >= since_ns)
                .collect();
            return (out, complete);
        }
        n = (n * 2).min(cap);
    }
}

/// Time accounting of one statement class, summed over statements.
#[derive(Debug, Default, Clone, Copy)]
pub struct Attr {
    /// Statements attributed.
    pub ops: u64,
    /// Summed statement durations.
    pub stmt_ns: u64,
    /// Summed time covered by top-level engine phases.
    pub phases_ns: u64,
    /// Summed self time of the `plan` phase (plan minus nested solve).
    pub plan_self_ns: u64,
}

impl Attr {
    /// Mean leftover per statement, microseconds: statement time no
    /// engine phase covers.
    pub fn unattributed_us(&self) -> Option<f64> {
        (self.ops > 0)
            .then(|| (self.stmt_ns as f64 - self.phases_ns as f64) / self.ops as f64 / 1e3)
    }
}

/// Attribution summed over every batch of events a run collected.
#[derive(Debug, Default)]
pub struct Attribution {
    pub classes: BTreeMap<String, Attr>,
    /// Statements seen and statements attributed.
    pub seen: u64,
    pub attributed: u64,
}

impl Attribution {
    /// Attribute one batch of events (one statement's window, or one
    /// round's poll of a server) and add it in.
    pub fn add(&mut self, events: &[SpanEvent]) {
        let (classes, (seen, attributed)) = attribute(events);
        for (class, a) in classes {
            let e = self.classes.entry(class).or_default();
            e.ops += a.ops;
            e.stmt_ns += a.stmt_ns;
            e.phases_ns += a.phases_ns;
            e.plan_self_ns += a.plan_self_ns;
        }
        self.seen += seen;
        self.attributed += attributed;
    }
}

/// Per-class attribution of the statements in `events` (flight-recorder
/// events of one engine). Only *exclusive* statements — those whose time
/// interval overlaps no other statement's — are attributed, because a
/// phase event carries no thread id: inside an exclusive statement's
/// interval every phase event is its own.
///
/// Returns the per-class attribution and `(statements seen, attributed)`.
pub fn attribute(events: &[SpanEvent]) -> (BTreeMap<String, Attr>, (u64, u64)) {
    let mut roots: Vec<&SpanEvent> = events.iter().filter(|e| is_statement(e)).collect();
    roots.sort_by_key(|e| e.ts_ns);
    let mut phases: Vec<&SpanEvent> = events
        .iter()
        .filter(|e| (e.kind as usize) < PHASE_COUNT)
        .collect();
    phases.sort_by_key(|e| (e.ts_ns, std::cmp::Reverse(e.dur_ns)));
    let mut out: BTreeMap<String, Attr> = BTreeMap::new();
    let mut attributed = 0u64;
    let mut prev_end = 0u64;
    for (i, root) in roots.iter().enumerate() {
        let end = root.ts_ns + root.dur_ns;
        let overlaps_prev = prev_end > root.ts_ns;
        let overlaps_next = i + 1 < roots.len() && roots[i + 1].ts_ns < end;
        prev_end = prev_end.max(end);
        if overlaps_prev || overlaps_next {
            continue;
        }
        let lo = phases.partition_point(|e| e.ts_ns + SLACK_NS < root.ts_ns);
        let inner: Vec<&SpanEvent> = phases[lo..]
            .iter()
            .take_while(|e| e.ts_ns <= end + SLACK_NS)
            .filter(|e| contains(root, e))
            .copied()
            .collect();
        let (top_ns, plan_self_ns) = nest_phases(&inner);
        let a = out.entry(kind_name(root.kind).to_string()).or_default();
        a.ops += 1;
        a.stmt_ns += root.dur_ns;
        a.phases_ns += top_ns.min(root.dur_ns);
        a.plan_self_ns += plan_self_ns;
        attributed += 1;
    }
    (out, (roots.len() as u64, attributed))
}

/// Nest one statement's phase events (sorted by start, longest first) and
/// return `(time covered by top-level phases, plan self time)`.
fn nest_phases(phases: &[&SpanEvent]) -> (u64, u64) {
    let mut stack: Vec<usize> = Vec::new();
    let mut child_ns = vec![0u64; phases.len()];
    let mut top_ns = 0u64;
    for (i, e) in phases.iter().enumerate() {
        while stack.last().is_some_and(|&p| !contains(phases[p], e)) {
            stack.pop();
        }
        match stack.last() {
            Some(&p) => child_ns[p] += e.dur_ns,
            None => top_ns += e.dur_ns,
        }
        stack.push(i);
    }
    let plan_self = phases
        .iter()
        .zip(&child_ns)
        .filter(|(e, _)| e.kind == Phase::Plan as u8)
        .map(|(e, c)| e.dur_ns.saturating_sub(*c))
        .sum();
    (top_ns, plan_self)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdb_obs::Outcome;

    fn ev(kind: u8, ts: u64, dur: u64) -> SpanEvent {
        SpanEvent {
            ts_ns: ts,
            txn_id: SpanEvent::NONE,
            partition_id: SpanEvent::NONE,
            kind,
            outcome: Outcome::Ok,
            dur_ns: dur,
        }
    }

    #[test]
    fn leftover_counts_only_top_level_phases() {
        let book = qdb_obs::stmt_code("SELECT … CHOOSE 1");
        let events = vec![
            ev(book, 1_000, 10_000),
            ev(Phase::Plan as u8, 2_000, 4_000),
            ev(Phase::Solve as u8, 2_500, 3_000),
            ev(Phase::WalAppend as u8, 7_000, 1_000),
        ];
        let (attr, (seen, done)) = attribute(&events);
        assert_eq!((seen, done), (1, 1));
        let a = attr["SELECT … CHOOSE 1"];
        assert_eq!(a.phases_ns, 5_000);
        assert_eq!(a.plan_self_ns, 1_000);
        assert_eq!(a.unattributed_us(), Some(5.0));
    }

    #[test]
    fn overlapping_statements_are_not_attributed() {
        let sel = qdb_obs::stmt_code("SELECT");
        let events = vec![
            ev(sel, 0, 10_000),
            ev(sel, 5_000, 10_000),
            ev(sel, 20_000, 1_000),
        ];
        let (attr, (seen, done)) = attribute(&events);
        assert_eq!((seen, done), (3, 1));
        assert_eq!(attr["SELECT"].ops, 1);
    }
}
