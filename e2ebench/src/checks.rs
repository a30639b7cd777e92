//! Output checks. Each compares a program output against a quantity the
//! benchmark computes on its own, or against a property the method must
//! have — never against a saved copy of an earlier output. All run after
//! the timed phase.

use std::collections::{BTreeMap, BTreeSet};

use chameleon_cluster::{ChunkId, ForegroundReport};
use chameleon_core::{LedgerEntry, LedgerState, OrchestratorReport, RepairOutcome};
use chameleon_simnet::{FaultPlan, FaultSpec, Monitor, NodeCaps, ResourceKind, Traffic};

/// Every lost chunk is repaired exactly once, none is given up, and the
/// repaired bytes are the lost chunks times the chunk size.
pub fn repaired_once(
    lost: &[ChunkId],
    outcome: &RepairOutcome,
    chunk_size: u64,
) -> Result<(), String> {
    let want: BTreeSet<(usize, usize)> = lost.iter().map(|c| (c.stripe, c.index)).collect();
    if want.len() != lost.len() {
        return Err("the lost set lists a chunk twice".into());
    }
    let mut seen = BTreeSet::new();
    for span in &outcome.spans {
        let key = (span.stripe, span.index);
        if !want.contains(&key) {
            return Err(format!(
                "chunk s{}c{} repaired but never lost",
                key.0, key.1
            ));
        }
        if !seen.insert(key) {
            return Err(format!("chunk s{}c{} repaired twice", key.0, key.1));
        }
    }
    if let Some(missing) = want.difference(&seen).next() {
        return Err(format!(
            "lost chunk s{}c{} never repaired",
            missing.0, missing.1
        ));
    }
    if !outcome.given_up_chunks.is_empty() || outcome.recovery.given_up != 0 {
        return Err(format!("{} chunks given up", outcome.recovery.given_up));
    }
    if outcome.chunks_repaired != lost.len() {
        return Err(format!(
            "outcome counts {} repaired chunks, {} were lost",
            outcome.chunks_repaired,
            lost.len()
        ));
    }
    let bytes = lost.len() as f64 * chunk_size as f64;
    if outcome.repaired_bytes != bytes {
        return Err(format!(
            "repaired_bytes {} != {} lost chunks x {chunk_size} B",
            outcome.repaired_bytes,
            lost.len()
        ));
    }
    Ok(())
}

/// Every issued request completed or aborted, and the median latency is
/// no shorter than the smallest request's transfer at the full link rate.
pub fn foreground(
    report: &ForegroundReport,
    issued: usize,
    min_transfer_secs: f64,
) -> Result<(), String> {
    if report.completed + report.aborted != issued {
        return Err(format!(
            "foreground completed {} + aborted {} != issued {issued}",
            report.completed, report.aborted
        ));
    }
    let p50 = report.latency.map_or(0.0, |l| l.p50);
    if report.completed > 0 && p50 < min_transfer_secs {
        return Err(format!(
            "foreground p50 {p50} s is below the smallest transfer time {min_transfer_secs} s"
        ));
    }
    Ok(())
}

/// No node resource carried more bytes in any monitor window than its
/// capacity allowed over that window, beyond `tol` of its full capacity.
/// The capacity follows the fault plan, computed here from its specs:
/// zero while the node is crashed, and scaled while it is slowed or its
/// disk degraded.
pub fn node_caps_respected(
    monitor: &Monitor,
    caps: &[NodeCaps],
    faults: Option<&FaultPlan>,
    tol: f64,
) -> Result<(), String> {
    let window_secs = monitor.window_secs();
    for w in 0..monitor.window_count() {
        let start = w as f64 * window_secs;
        for (node, node_caps) in caps.iter().enumerate() {
            for kind in ResourceKind::ALL {
                let mut bytes = 0.0;
                let mut seconds = 0.0;
                for tag in Traffic::ALL {
                    let u = monitor.usage(w, node, kind, tag);
                    bytes += u.bytes;
                    seconds = u.seconds;
                }
                let full = node_caps.capacity(kind);
                let scaled_secs = match faults {
                    Some(plan) => capacity_seconds(plan, node, kind, start, start + seconds),
                    None => seconds,
                };
                let allowed = full * scaled_secs;
                if bytes > allowed + tol * full * seconds {
                    return Err(format!(
                        "node {node} {kind:?} carried {bytes} B in window {w}, above the \
                         {allowed} B its capacity allowed"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// The share of its full capacity a node resource has at time `t` under
/// `plan`: 0 while the node is crashed, otherwise the largest factor of
/// the scale windows of that resource open at `t`, or 1 outside them.
/// Taking the largest keeps this an upper bound however overlapping
/// windows nest.
fn capacity_factor(plan: &FaultPlan, node: usize, kind: ResourceKind, t: f64) -> f64 {
    let network = matches!(kind, ResourceKind::Uplink | ResourceKind::Downlink);
    let mut crashed = false;
    let mut factor: Option<f64> = None;
    // Specs are sorted by time, so the last crash or recovery at or before
    // `t` decides whether the node is down.
    for spec in plan.specs() {
        if spec.node() != node || spec.at_secs() > t {
            continue;
        }
        match *spec {
            FaultSpec::Crash { .. } => crashed = true,
            FaultSpec::Recover { .. } => crashed = false,
            FaultSpec::Slowdown {
                at_secs,
                factor: f,
                duration_secs,
                ..
            } if network && t < at_secs + duration_secs => {
                factor = Some(factor.map_or(f, |g| g.max(f)))
            }
            FaultSpec::DiskDegrade {
                at_secs,
                factor: f,
                duration_secs,
                ..
            } if !network && t < at_secs + duration_secs => {
                factor = Some(factor.map_or(f, |g| g.max(f)))
            }
            _ => {}
        }
    }
    if crashed {
        0.0
    } else {
        factor.unwrap_or(1.0)
    }
}

/// Seconds of full capacity a node resource has over `[from, to)` under
/// `plan`: the integral of [`capacity_factor`], which is constant between
/// the plan's event times.
pub fn capacity_seconds(
    plan: &FaultPlan,
    node: usize,
    kind: ResourceKind,
    from: f64,
    to: f64,
) -> f64 {
    let mut cuts = vec![from, to];
    for spec in plan.specs().iter().filter(|s| s.node() == node) {
        let end = match *spec {
            FaultSpec::Slowdown {
                at_secs,
                duration_secs,
                ..
            }
            | FaultSpec::DiskDegrade {
                at_secs,
                duration_secs,
                ..
            } => Some(at_secs + duration_secs),
            _ => None,
        };
        cuts.extend(
            std::iter::once(spec.at_secs())
                .chain(end)
                .filter(|&c| from < c && c < to),
        );
    }
    cuts.sort_by(f64::total_cmp);
    cuts.windows(2)
        .map(|pair| {
            (pair[1] - pair[0]) * capacity_factor(plan, node, kind, (pair[0] + pair[1]) / 2.0)
        })
        .sum()
}

/// One fabric link: its monitor index and the capacity the benchmark
/// computed for it from the topology spec.
#[derive(Debug, Clone, Copy)]
pub struct Link {
    /// Index in the monitor's link table.
    pub index: usize,
    /// Capacity in bytes/s.
    pub capacity: f64,
}

/// Fabric links never carry more than capacity × time in any window,
/// the spine carried at most capacity × simulated time in total, and
/// some repair traffic crossed racks.
pub fn fabric(
    monitor: &Monitor,
    tor_up: &[Link],
    spine: Option<Link>,
    end_secs: f64,
    tol: f64,
) -> Result<(), String> {
    let links = tor_up.iter().copied().chain(spine);
    for link in links {
        for w in 0..monitor.window_count() {
            let mut bytes = 0.0;
            let mut seconds = 0.0;
            for tag in Traffic::ALL {
                let u = monitor.link_usage(w, link.index, tag);
                bytes += u.bytes;
                seconds = u.seconds;
            }
            if bytes > link.capacity * seconds * (1.0 + tol) + tol {
                return Err(format!(
                    "link {} carried {bytes} B in window {w}, above {} B/s x {seconds} s",
                    link.index, link.capacity
                ));
            }
        }
    }
    if let Some(spine) = spine {
        let total: f64 = Traffic::ALL
            .iter()
            .map(|&t| monitor.link_total_bytes(spine.index, t))
            .sum();
        if total > spine.capacity * end_secs * (1.0 + tol) {
            return Err(format!(
                "spine carried {total} B, above {} B/s x {end_secs} s",
                spine.capacity
            ));
        }
    }
    let cross_rack_repair: f64 = tor_up
        .iter()
        .map(|l| monitor.link_total_bytes(l.index, Traffic::Repair))
        .sum();
    if cross_rack_repair <= 0.0 {
        return Err("no repair byte crossed a rack boundary".into());
    }
    Ok(())
}

/// Every ledger entry ends in a terminal state, the campaign counters
/// are ordered repaired ≤ dispatched ≤ enqueued, the report's census
/// matches the ledger, and the rendered JSONL holds one well-formed line
/// per entry that agrees with it.
pub fn ledger(
    ledger: &BTreeMap<ChunkId, LedgerEntry>,
    report: &OrchestratorReport,
    jsonl: &str,
) -> Result<(), String> {
    for (chunk, entry) in ledger {
        if !entry.state.is_terminal() {
            return Err(format!("ledger chunk {chunk} ends {}", entry.state.label()));
        }
    }
    if !(report.repaired <= report.dispatched && report.dispatched <= report.enqueued) {
        return Err(format!(
            "expected repaired {} <= dispatched {} <= enqueued {}",
            report.repaired, report.dispatched, report.enqueued
        ));
    }
    let census = census(ledger);
    let reported = [
        (LedgerState::Repaired, report.repaired),
        (LedgerState::Quarantined, report.quarantined),
        (LedgerState::Restored, report.restored),
        (LedgerState::Lost, report.lost_chunks),
    ];
    for (state, count) in reported {
        let have = census.get(state.label()).copied().unwrap_or(0);
        if have != count {
            return Err(format!(
                "report counts {count} {} chunks, the ledger {have}",
                state.label()
            ));
        }
    }
    let mut rendered = Vec::new();
    for line in jsonl.lines() {
        let fields =
            parse_flat_json(line).ok_or_else(|| format!("malformed ledger line `{line}`"))?;
        if fields.get("event").map(String::as_str) == Some("\"ledger\"") {
            let num = |key: &str| -> Result<usize, String> {
                fields
                    .get(key)
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| format!("ledger line without `{key}`: `{line}`"))
            };
            let state = fields.get("state").cloned().unwrap_or_default();
            rendered.push((num("stripe")?, num("chunk")?, state));
        }
    }
    let expected: Vec<(usize, usize, String)> = ledger
        .iter()
        .map(|(c, e)| (c.stripe, c.index, format!("\"{}\"", e.state.label())))
        .collect();
    if rendered != expected {
        return Err(format!(
            "ledger JSONL has {} entry lines that do not match the {} ledger entries",
            rendered.len(),
            expected.len()
        ));
    }
    Ok(())
}

/// Ledger entries per state label.
pub fn census(ledger: &BTreeMap<ChunkId, LedgerEntry>) -> BTreeMap<&'static str, usize> {
    let mut out = BTreeMap::new();
    for entry in ledger.values() {
        *out.entry(entry.state.label()).or_insert(0) += 1;
    }
    out
}

/// Parses one flat JSON object (`{"key":value,...}` with string or
/// number values) into raw value strings; `None` if it is not one.
pub fn parse_flat_json(line: &str) -> Option<BTreeMap<String, String>> {
    let body = line.strip_prefix('{')?.strip_suffix('}')?;
    let mut out = BTreeMap::new();
    let mut rest = body;
    while !rest.is_empty() {
        let after_quote = rest.strip_prefix('"')?;
        let key_end = after_quote.find('"')?;
        let key = &after_quote[..key_end];
        rest = after_quote[key_end + 1..].strip_prefix(':')?;
        let value_len = if let Some(s) = rest.strip_prefix('"') {
            s.find('"')? + 2
        } else {
            let len = rest.find(',').unwrap_or(rest.len());
            let number = &rest[..len];
            let starts_numeric = number.starts_with(|c: char| c == '-' || c.is_ascii_digit());
            if !starts_numeric || !number.parse::<f64>().ok()?.is_finite() {
                return None;
            }
            len
        };
        if key.is_empty()
            || out
                .insert(key.to_string(), rest[..value_len].to_string())
                .is_some()
        {
            return None;
        }
        rest = &rest[value_len..];
        if let Some(next) = rest.strip_prefix(',') {
            if next.is_empty() {
                return None;
            }
            rest = next;
        } else if !rest.is_empty() {
            return None;
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_json_parser_accepts_ledger_lines_and_rejects_garbage() {
        let ok = r#"{"event":"ledger","stripe":3,"chunk":1,"state":"repaired","updated":12.5}"#;
        let fields = parse_flat_json(ok).expect("valid line");
        assert_eq!(fields["stripe"], "3");
        assert_eq!(fields["state"], "\"repaired\"");
        for bad in [
            "",
            "{",
            r#"{"a":1,}"#,
            r#"{"a":x}"#,
            r#"{"a":1"b":2}"#,
            r#"{"a":1,"a":2}"#,
            r#"{"a":"open}"#,
            r#"{"a":inf}"#,
        ] {
            assert!(parse_flat_json(bad).is_none(), "accepted `{bad}`");
        }
    }
}
