//! Property checkers for atomic multicast runs (§2.2, §2.3, §6, §7).
//!
//! Each checker consumes a [`RunReport`] and verifies one axiom of the
//! problem: *integrity*, *ordering* (acyclicity of the delivery relation
//! `↦`), *termination*, *minimality* (genuineness), *strict ordering*
//! (`↦ ∪ ⤳` acyclic) and *pairwise ordering*. The experiment suites use
//! these to populate the Table 1 solvability matrix.
//!
//! # Cost
//!
//! For a report of `n` processes, `G` groups, `M` messages and `D`
//! deliveries, with `A = Σ_m |dst(m)|` the deliveries a complete run owes.
//! A *stamp* is one `u32` per message holding the index + 1 of the last
//! process that delivered it: processes are visited in index order, so a
//! stamp answers "has this process delivered `m`" without a set per
//! process or per message. Membership `p ∈ dst(m)` is read from the
//! group set of `p`, fetched once per process.
//!
//! | checker | time | allocations |
//! |---|---|---|
//! | integrity | `O(n + D)` | a stamp |
//! | termination | `O(n + G + M + D)`; the missing process is searched for only on failure | a stamp and a count per message, a need per group |
//! | ordering | `O(n + G + M + D + A)` | messages by group and the adjacency as compressed `u32` rows, a stamp and a last edge head per message, the edge list, a colour per message, the DFS stack |
//! | minimality | `O(n + M)` | none |
//! | strict ordering | ordering's over `2M` nodes, plus an `O(M log M)` sort | ordering's, the sort order, a first delivery per message |
//! | group sequential | `O(M log M + D)` | a rank per message, a last rank and a stamp per group |
//! | pairwise ordering, pairwise agreement | `O(n · D²)` (every co-delivered pair) | `n` position tables of `M` |

use crate::message::MessageId;
use crate::runtime::RunReport;
use gam_kernel::{ProcessId, ProcessSet};

/// A violation of an atomic multicast property.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecViolation {
    /// Which property failed.
    pub property: &'static str,
    /// Human-readable details.
    pub detail: String,
}

impl std::fmt::Display for SpecViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} violated: {}", self.property, self.detail)
    }
}

impl std::error::Error for SpecViolation {}

fn violation(property: &'static str, detail: String) -> Result<(), SpecViolation> {
    Err(SpecViolation { property, detail })
}

fn dst(report: &RunReport, m: MessageId) -> ProcessSet {
    report.system.members(report.messages[m.0 as usize].group)
}

/// Per-process delivery positions, indexed `[p][m] → rank of m at p`: the
/// O(1) form of `delivered_by(p).iter().position(|x| x == m)` the pairwise
/// checkers would otherwise re-scan per message pair. First occurrence wins,
/// matching `position` on (invalid) double-delivery reports.
fn position_tables(report: &RunReport) -> Vec<Vec<Option<u32>>> {
    report
        .delivered
        .iter()
        .map(|ds| {
            let mut pos = vec![None; report.messages.len()];
            for (r, d) in ds.iter().enumerate() {
                // `get_mut`: unknown message ids (caught by integrity, but
                // each checker must stand alone) simply stay unranked.
                if let Some(slot @ None) = pos.get_mut(d.msg.0 as usize) {
                    *slot = Some(r as u32);
                }
            }
            pos
        })
        .collect()
}

/// The local delivery sequence of `p` without unknown message ids
/// (integrity's business), for the checkers that index tables by id.
fn known_delivered_by(report: &RunReport, p: ProcessId) -> Vec<MessageId> {
    let mut seq = report.delivered_by(p);
    seq.retain(|m| m.0 < report.messages.len() as u64);
    seq
}

/// `(key, value)` pairs sorted stably by key into compressed rows: row `k`
/// is `values[start[k]..start[k + 1]]`, its values in input order.
struct Csr {
    start: Vec<u32>,
    values: Vec<u32>,
}

impl Csr {
    fn new(rows: usize, pairs: &[(u32, u32)]) -> Csr {
        let mut start = vec![0u32; rows + 1];
        for &(k, _) in pairs {
            start[k as usize + 1] += 1;
        }
        for k in 0..rows {
            start[k + 1] += start[k];
        }
        let mut next = start.clone();
        let mut values = vec![0u32; pairs.len()];
        for &(k, v) in pairs {
            let at = &mut next[k as usize];
            values[*at as usize] = v;
            *at += 1;
        }
        Csr { start, values }
    }

    fn row(&self, k: usize) -> &[u32] {
        &self.values[self.start[k] as usize..self.start[k + 1] as usize]
    }
}

/// *(Integrity)* Every process delivers a message at most once, and only if
/// it belongs to `dst(m)` and `m` was previously multicast.
///
/// # Errors
///
/// Returns the first [`SpecViolation`] found.
pub fn check_integrity(report: &RunReport) -> Result<(), SpecViolation> {
    let mut stamp = vec![0u32; report.messages.len()];
    for (i, deliveries) in report.delivered.iter().enumerate() {
        let p = ProcessId(i as u32);
        let groups = report.system.groups_of(p);
        for d in deliveries {
            let j = d.msg.0 as usize;
            let Some(last) = stamp.get_mut(j) else {
                return violation(
                    "integrity",
                    format!("{p} delivered unknown message {}", d.msg),
                );
            };
            if *last == i as u32 + 1 {
                return violation("integrity", format!("{p} delivered {} twice", d.msg));
            }
            *last = i as u32 + 1;
            if !groups.contains(report.messages[j].group) {
                return violation(
                    "integrity",
                    format!("{p} ∉ dst({}) but delivered it", d.msg),
                );
            }
            if d.at < report.multicast_at[j] {
                return violation(
                    "integrity",
                    format!("{} delivered before it was multicast", d.msg),
                );
            }
        }
    }
    Ok(())
}

/// Generator edges of the delivery relation `↦ = ∪_p ↦_p`, where
/// `m ↦_p m'` when `p ∈ dst(m) ∩ dst(m')` and, at the time `p` delivers `m`,
/// it has not (yet) delivered `m'`. Per process: each delivery to the next
/// one, and the last delivery to every message addressed to `p` that it
/// never delivered. `↦_p` is the transitive closure of these (every earlier
/// delivery reaches the last one), so the union has a cycle iff `↦` has
/// one — with edges linear in the report instead of every pair of every
/// local sequence. Unknown message ids (integrity's business) draw no edge.
///
/// An edge equal to the last one drawn from the same message is dropped:
/// processes of one group mostly deliver the same runs, so this removes
/// most chain edges, and the DFS of [`acyclic`] meets a repeated edge only
/// after its head is finished, so the verdict and the cycle stay the same.
fn delivery_generators(report: &RunReport) -> Vec<(u32, u32)> {
    let by_group: Vec<(u32, u32)> = (report.messages.iter().enumerate())
        .map(|(j, info)| (info.group.0, j as u32))
        .collect();
    let of_group = Csr::new(report.system.len(), &by_group);
    // Per message: its stamp, and the head of the last edge drawn from it
    // (side by side, so a chain step touches one cache line).
    let mut node = vec![[0u32, u32::MAX]; report.messages.len()];
    let mut edges = Vec::new();
    let mut draw = |node: &mut [[u32; 2]], a: u32, b: u32| {
        if std::mem::replace(&mut node[a as usize][1], b) != b {
            edges.push((a, b));
        }
    };
    for (i, seq) in report.delivered.iter().enumerate() {
        let mut last = None;
        for d in seq {
            let Some([stamp, _]) = node.get_mut(d.msg.0 as usize) else {
                continue;
            };
            *stamp = i as u32 + 1;
            let m = d.msg.0 as u32;
            if let Some(prev) = last {
                draw(&mut node, prev, m);
            }
            last = Some(m);
        }
        let Some(last) = last else {
            continue;
        };
        for g in report.system.groups_of(ProcessId(i as u32)) {
            for &m2 in of_group.row(g.index()) {
                if node[m2 as usize][0] != i as u32 + 1 {
                    draw(&mut node, last, m2);
                }
            }
        }
    }
    edges
}

/// Iterative three-colour DFS over the nodes `0..n`, each node's edges in
/// the order `edges` lists them. A grey → grey edge closes a cycle: the DFS
/// path to its tail, then its head.
fn acyclic(n: usize, edges: &[(u32, u32)]) -> Result<(), Vec<MessageId>> {
    let adj = Csr::new(n, edges);
    let mut colour = vec![0u8; n]; // 0 white, 1 grey, 2 black
    let mut stack: Vec<(u32, u32)> = Vec::new(); // (node, its next edge in `adj.values`)
    for start in 0..n {
        if colour[start] != 0 {
            continue;
        }
        colour[start] = 1;
        stack.push((start as u32, adj.start[start]));
        while let Some(top) = stack.last_mut() {
            let (v, i) = *top;
            if i == adj.start[v as usize + 1] {
                colour[v as usize] = 2;
                stack.pop();
                continue;
            }
            top.1 += 1;
            let w = adj.values[i as usize];
            match colour[w as usize] {
                0 => {
                    colour[w as usize] = 1;
                    stack.push((w, adj.start[w as usize]));
                }
                1 => {
                    let path = stack.iter().map(|&(v, _)| v).chain([w]);
                    return Err(path.map(|v| MessageId(v.into())).collect());
                }
                _ => {}
            }
        }
    }
    Ok(())
}

/// *(Ordering)* The delivery relation `↦` is acyclic over `ℳ`.
///
/// # Errors
///
/// Returns the first [`SpecViolation`] found.
pub fn check_ordering(report: &RunReport) -> Result<(), SpecViolation> {
    let edges = delivery_generators(report);
    acyclic(report.messages.len(), &edges).map_err(|cyc| SpecViolation {
        property: "ordering",
        detail: format!("delivery cycle: {cyc:?}"),
    })
}

/// *(Termination)* If a correct process multicasts `m`, or any process
/// delivers `m`, then every correct process of `dst(m)` delivers `m`.
///
/// Only meaningful on quiescent reports.
///
/// # Errors
///
/// Returns the first [`SpecViolation`] found.
pub fn check_termination(report: &RunReport) -> Result<(), SpecViolation> {
    if !report.quiescent {
        return violation(
            "termination",
            "run did not quiesce within its budget".into(),
        );
    }
    let correct = report.pattern.correct();
    // Per message, the correct members of `dst(m)` that delivered it, held
    // against `|dst(m) ∩ correct|`; the stamp counts a process once.
    let need: Vec<u32> = (report.system.iter())
        .map(|(_, members)| (members & correct).len() as u32)
        .collect();
    let mut stamp_count = vec![[0u32; 2]; report.messages.len()];
    for (i, seq) in report.delivered.iter().enumerate() {
        let p = ProcessId(i as u32);
        let groups = if correct.contains(p) {
            report.system.groups_of(p)
        } else {
            gam_groups::GroupSet::EMPTY
        };
        for d in seq {
            let j = d.msg.0 as usize;
            match stamp_count.get_mut(j) {
                Some([stamp, count]) if *stamp != i as u32 + 1 => {
                    *stamp = i as u32 + 1;
                    *count += u32::from(groups.contains(report.messages[j].group));
                }
                _ => {}
            }
        }
    }
    for (j, (info, &[stamp, count])) in report.messages.iter().zip(&stamp_count).enumerate() {
        let must_deliver = stamp != 0 || correct.contains(info.src);
        if must_deliver && count < need[info.group.index()] {
            let m = MessageId(j as u64);
            let missing = (dst(report, m) & correct).iter().find(|p| {
                (report.delivered.get(p.index())).is_none_or(|seq| seq.iter().all(|d| d.msg != m))
            });
            if let Some(p) = missing {
                return violation(
                    "termination",
                    format!("correct {p} ∈ dst({m}) never delivered it"),
                );
            }
        }
    }
    Ok(())
}

/// *(Minimality — genuineness)* A correct process takes steps only if some
/// multicast message is addressed to it.
///
/// # Errors
///
/// Returns the first [`SpecViolation`] found.
pub fn check_minimality(report: &RunReport) -> Result<(), SpecViolation> {
    let addressed: ProcessSet = report
        .messages
        .iter()
        .map(|info| report.system.members(info.group))
        .fold(ProcessSet::EMPTY, |a, b| a | b);
    for (i, count) in report.actions_of.iter().enumerate() {
        let p = ProcessId(i as u32);
        if *count > 0 && !addressed.contains(p) {
            return Err(SpecViolation {
                property: "minimality",
                detail: format!("{p} took {count} steps but no message is addressed to it"),
            });
        }
    }
    Ok(())
}

/// *(Strict Ordering — §6.1)* The transitive closure of `↦ ∪ ⤳` is a strict
/// partial order, where `m ⤳ m'` when `m` is delivered in real time before
/// `m'` is multicast.
///
/// # Errors
///
/// Returns the first [`SpecViolation`] found.
pub(crate) fn check_strict_ordering(report: &RunReport) -> Result<(), SpecViolation> {
    let m_count = report.messages.len();
    let mut edges = delivery_generators(report);
    // `m ⤳ m'` iff `m`'s first delivery precedes `m'`'s multicast: `m`
    // reaches every message from some rank on in multicast-time order. Node
    // `m_count + k` stands for "the k-th message in that order and all
    // later ones", so `⤳` takes three edges per message, not one per pair.
    let mut by_time: Vec<usize> = (0..m_count).collect();
    by_time.sort_by_key(|&j| report.multicast_at[j]);
    let suffix = |k: usize| (m_count + k) as u32;
    for (k, &j) in by_time.iter().enumerate() {
        edges.push((suffix(k), j as u32));
        if k + 1 < m_count {
            edges.push((suffix(k), suffix(k + 1)));
        }
    }
    let mut first_delivery = vec![None; m_count];
    for d in report.delivered.iter().flatten() {
        if let Some(first) = first_delivery.get_mut(d.msg.0 as usize) {
            *first = Some(first.map_or(d.at, |t: gam_kernel::Time| t.min(d.at)));
        }
    }
    for (i, first) in first_delivery.iter().enumerate() {
        let Some(t) = first else { continue };
        let k = by_time.partition_point(|&j| report.multicast_at[j] <= *t);
        if k < m_count {
            edges.push((i as u32, suffix(k)));
        }
    }
    acyclic(2 * m_count, &edges).map_err(|mut cyc| {
        cyc.retain(|m| m.0 < m_count as u64);
        SpecViolation {
            property: "strict-ordering",
            detail: format!("cycle in ↦ ∪ ⤳: {cyc:?}"),
        }
    })
}

/// *(Pairwise Ordering — §7)* If `p` delivers `m` then `m'`, every process
/// that delivers `m'` has delivered `m` before.
///
/// # Errors
///
/// Returns the first [`SpecViolation`] found.
pub(crate) fn check_pairwise_ordering(report: &RunReport) -> Result<(), SpecViolation> {
    let n = report.delivered.len();
    let pos = position_tables(report);
    for i in 0..n {
        let p = ProcessId(i as u32);
        let seq = known_delivered_by(report, p);
        for (a, m) in seq.iter().enumerate() {
            for m2 in &seq[a + 1..] {
                // p delivers m then m'. Check every q delivering m'.
                for (j, qpos) in pos.iter().enumerate() {
                    let q = ProcessId(j as u32);
                    if !dst(report, *m).contains(q) {
                        continue;
                    }
                    if let Some(pos2) = qpos[m2.0 as usize] {
                        match qpos[m.0 as usize] {
                            Some(pos1) if pos1 < pos2 => {}
                            _ => {
                                return Err(SpecViolation {
                                    property: "pairwise-ordering",
                                    detail: format!(
                                        "{p} delivered {m} before {m2}, but {q} delivered {m2} without {m} first"
                                    ),
                                });
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

/// *(Agreement on co-delivered pairs)* Any two processes that both deliver
/// two messages deliver them in the same relative order.
///
/// Unlike [`check_ordering`], this draws no edges toward messages a process
/// has *not yet* delivered, so it is sound on partial (budget-cut) runs: a
/// valid prefix of a correct run never trips it. It is correspondingly
/// weaker on complete runs — use [`check_all`] for those.
///
/// # Errors
///
/// Returns the first [`SpecViolation`] found.
fn check_pairwise_agreement(report: &RunReport) -> Result<(), SpecViolation> {
    let n = report.delivered.len();
    let pos = position_tables(report);
    for i in 0..n {
        let p = ProcessId(i as u32);
        let dp = known_delivered_by(report, p);
        for (j, qpos) in pos.iter().enumerate().take(n) {
            let q = ProcessId(j as u32);
            for (a, m1) in dp.iter().enumerate() {
                for m2 in &dp[a + 1..] {
                    if let (Some(b1), Some(b2)) = (qpos[m1.0 as usize], qpos[m2.0 as usize]) {
                        if b1 >= b2 {
                            return Err(SpecViolation {
                                property: "pairwise-agreement",
                                detail: format!("{p} and {q} disagree on {m1}/{m2}"),
                            });
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

/// *(Group Sequentiality — §4.1)* Messages addressed to the same group are
/// totally ordered by `≺`: under the Proposition 1 client layer this means
/// every member delivers its group's messages in submission (`L_g`) order.
///
/// # Errors
///
/// Returns the first [`SpecViolation`] found.
pub(crate) fn check_group_sequential(report: &RunReport) -> Result<(), SpecViolation> {
    // Every `L_g` at once: message ids sorted stably by (group, multicast
    // time). Ranks are compared only within a group, where they are `L_g`
    // positions plus a constant.
    let mut listed: Vec<u32> = (0..report.messages.len() as u32).collect();
    listed.sort_by_key(|&j| {
        let j = j as usize;
        (report.messages[j].group, report.multicast_at[j])
    });
    let mut rank = vec![0u32; listed.len()];
    for (r, &j) in listed.iter().enumerate() {
        rank[j as usize] = r as u32;
    }
    // Per group, the rank of the last delivery of one of its messages and
    // the stamp of the process that made it; the first out-of-order
    // (group, member) pair, in group-major order.
    let mut last = vec![(0u32, 0u32); report.system.len()];
    let mut first: Option<(gam_groups::GroupId, ProcessId)> = None;
    for (i, seq) in report.delivered.iter().enumerate() {
        let p = ProcessId(i as u32);
        let groups = report.system.groups_of(p);
        for d in seq {
            let Some(&r) = rank.get(d.msg.0 as usize) else {
                continue;
            };
            let g = report.messages[d.msg.0 as usize].group;
            if !groups.contains(g) {
                continue;
            }
            let (prev, stamp) = &mut last[g.index()];
            if *stamp == i as u32 + 1 && r < *prev && first.is_none_or(|(fg, _)| g < fg) {
                first = Some((g, p));
            }
            (*prev, *stamp) = (r, i as u32 + 1);
        }
    }
    match first {
        Some((g, p)) => violation(
            "group-sequential",
            format!("{p} delivered group g{} out of L_g order", g.index() + 1),
        ),
        None => Ok(()),
    }
}

/// Runs all checks appropriate for the given variant of the problem.
///
/// # Errors
///
/// Returns the first [`SpecViolation`] found.
pub fn check_all(report: &RunReport, variant: crate::Variant) -> Result<(), SpecViolation> {
    check_integrity(report)?;
    check_minimality(report)?;
    check_termination(report)?;
    match variant {
        crate::Variant::Standard => check_ordering(report),
        crate::Variant::Strict => {
            check_ordering(report)?;
            check_strict_ordering(report)
        }
        crate::Variant::Pairwise => check_pairwise_ordering(report),
    }
}

/// Runs the single checker that reports violations of `property`
/// (the [`SpecViolation::property`] string), regardless of variant.
/// Returns `None` for an unknown property name.
///
/// This is the targeted companion of [`check_all`]: a counterexample that
/// violates a property *outside* its variant's checked set — e.g. a
/// pairwise-variant run violating global `ordering`, the paper's
/// solvability boundary made executable — can still be re-validated and
/// shrunk against exactly the property it was found under.
pub fn check_named(report: &RunReport, property: &str) -> Option<Result<(), SpecViolation>> {
    match property {
        "integrity" => Some(check_integrity(report)),
        "minimality" => Some(check_minimality(report)),
        "termination" => Some(check_termination(report)),
        "ordering" => Some(check_ordering(report)),
        "strict-ordering" => Some(check_strict_ordering(report)),
        "pairwise-ordering" => Some(check_pairwise_ordering(report)),
        "pairwise-agreement" => Some(check_pairwise_agreement(report)),
        "group-sequential" => Some(check_group_sequential(report)),
        _ => None,
    }
}

/// The checkers as they were before the linear passes, verbatim: the
/// oracle the differential test holds [`check_named`] to, property by
/// property and detail string by detail string.
#[cfg(test)]
mod reference {
    use super::{dst, SpecViolation};
    use crate::message::MessageId;
    use crate::runtime::RunReport;
    use gam_kernel::{ProcessId, ProcessSet};

    pub(super) fn check_integrity(report: &RunReport) -> Result<(), SpecViolation> {
        for (i, deliveries) in report.delivered.iter().enumerate() {
            let p = ProcessId(i as u32);
            let mut seen = std::collections::BTreeSet::new();
            for d in deliveries {
                if d.msg.0 as usize >= report.messages.len() {
                    return Err(SpecViolation {
                        property: "integrity",
                        detail: format!("{p} delivered unknown message {}", d.msg),
                    });
                }
                if !seen.insert(d.msg) {
                    return Err(SpecViolation {
                        property: "integrity",
                        detail: format!("{p} delivered {} twice", d.msg),
                    });
                }
                if !dst(report, d.msg).contains(p) {
                    return Err(SpecViolation {
                        property: "integrity",
                        detail: format!("{p} ∉ dst({}) but delivered it", d.msg),
                    });
                }
                if d.at < report.multicast_at[d.msg.0 as usize] {
                    return Err(SpecViolation {
                        property: "integrity",
                        detail: format!("{} delivered before it was multicast", d.msg),
                    });
                }
            }
        }
        Ok(())
    }

    fn delivered_by(report: &RunReport) -> Vec<ProcessSet> {
        let mut by = vec![ProcessSet::EMPTY; report.messages.len()];
        for (i, seq) in report.delivered.iter().enumerate() {
            for d in seq {
                if let Some(set) = by.get_mut(d.msg.0 as usize) {
                    set.insert(ProcessId(i as u32));
                }
            }
        }
        by
    }

    fn delivery_generators(report: &RunReport) -> Vec<(MessageId, MessageId)> {
        let m_count = report.messages.len();
        let mut of_group = vec![Vec::new(); report.system.len()];
        for (j, info) in report.messages.iter().enumerate() {
            of_group[info.group.index()].push(MessageId(j as u64));
        }
        let delivered_by = delivered_by(report);
        let mut edges = Vec::new();
        for (i, seq) in report.delivered.iter().enumerate() {
            let p = ProcessId(i as u32);
            let known = || seq.iter().map(|d| d.msg).filter(|m| m.0 < m_count as u64);
            edges.extend(known().zip(known().skip(1)));
            let Some(last) = known().next_back() else {
                continue;
            };
            for g in report.system.groups_of(p) {
                let undelivered = of_group[g.index()]
                    .iter()
                    .filter(|m2| !delivered_by[m2.0 as usize].contains(p));
                edges.extend(undelivered.map(|&m2| (last, m2)));
            }
        }
        edges
    }

    pub(super) fn acyclic(
        n: usize,
        edges: &[(MessageId, MessageId)],
    ) -> Result<(), Vec<MessageId>> {
        // Iterative DFS three-colour cycle detection.
        let mut adj = vec![Vec::new(); n];
        for (a, b) in edges {
            adj[a.0 as usize].push(b.0 as usize);
        }
        let mut colour = vec![0u8; n]; // 0 white, 1 grey, 2 black
        for start in 0..n {
            if colour[start] != 0 {
                continue;
            }
            let mut stack = vec![(start, 0usize)];
            colour[start] = 1;
            while let Some((v, i)) = stack.pop() {
                if i < adj[v].len() {
                    stack.push((v, i + 1));
                    let w = adj[v][i];
                    match colour[w] {
                        0 => {
                            colour[w] = 1;
                            stack.push((w, 0));
                        }
                        1 => {
                            // grey → grey edge: cycle through w
                            let mut cyc: Vec<MessageId> =
                                stack.iter().map(|(v, _)| MessageId(*v as u64)).collect();
                            cyc.push(MessageId(w as u64));
                            return Err(cyc);
                        }
                        _ => {}
                    }
                } else {
                    colour[v] = 2;
                }
            }
        }
        Ok(())
    }

    pub(super) fn check_ordering(report: &RunReport) -> Result<(), SpecViolation> {
        let edges = delivery_generators(report);
        acyclic(report.messages.len(), &edges).map_err(|cyc| SpecViolation {
            property: "ordering",
            detail: format!("delivery cycle: {cyc:?}"),
        })
    }

    pub(super) fn check_termination(report: &RunReport) -> Result<(), SpecViolation> {
        if !report.quiescent {
            return Err(SpecViolation {
                property: "termination",
                detail: "run did not quiesce within its budget".into(),
            });
        }
        let correct = report.pattern.correct();
        let delivered_by = delivered_by(report);
        for (info, (i, by)) in report.messages.iter().zip(delivered_by.iter().enumerate()) {
            let m = MessageId(i as u64);
            let must_deliver = correct.contains(info.src) || !by.is_empty();
            if !must_deliver {
                continue;
            }
            if let Some(p) = ((dst(report, m) & correct) - *by).min() {
                return Err(SpecViolation {
                    property: "termination",
                    detail: format!("correct {p} ∈ dst({m}) never delivered it"),
                });
            }
        }
        Ok(())
    }

    pub(super) fn check_strict_ordering(report: &RunReport) -> Result<(), SpecViolation> {
        let m_count = report.messages.len();
        let mut edges = delivery_generators(report);
        // `m ⤳ m'` iff `m`'s first delivery precedes `m'`'s multicast: `m`
        // reaches every message from some rank on in multicast-time order. Node
        // `m_count + k` stands for "the k-th message in that order and all
        // later ones", so `⤳` takes three edges per message, not one per pair.
        let mut by_time: Vec<usize> = (0..m_count).collect();
        by_time.sort_by_key(|&j| report.multicast_at[j]);
        let suffix = |k: usize| MessageId((m_count + k) as u64);
        for (k, &j) in by_time.iter().enumerate() {
            edges.push((suffix(k), MessageId(j as u64)));
            if k + 1 < m_count {
                edges.push((suffix(k), suffix(k + 1)));
            }
        }
        let mut first_delivery = vec![None; m_count];
        for d in report.delivered.iter().flatten() {
            if let Some(first) = first_delivery.get_mut(d.msg.0 as usize) {
                *first = Some(first.map_or(d.at, |t: gam_kernel::Time| t.min(d.at)));
            }
        }
        for (i, first) in first_delivery.iter().enumerate() {
            let Some(t) = first else { continue };
            let k = by_time.partition_point(|&j| report.multicast_at[j] <= *t);
            if k < m_count {
                edges.push((MessageId(i as u64), suffix(k)));
            }
        }
        acyclic(2 * m_count, &edges).map_err(|mut cyc| {
            cyc.retain(|m| m.0 < m_count as u64);
            SpecViolation {
                property: "strict-ordering",
                detail: format!("cycle in ↦ ∪ ⤳: {cyc:?}"),
            }
        })
    }

    pub(super) fn check_group_sequential(report: &RunReport) -> Result<(), SpecViolation> {
        for g in 0..report.system.len() {
            // submission order of messages addressed to group g
            let mut listed: Vec<MessageId> = (0..report.messages.len())
                .map(|i| MessageId(i as u64))
                .filter(|m| report.messages[m.0 as usize].group.index() == g)
                .collect();
            listed.sort_by_key(|m| report.multicast_at[m.0 as usize]);
            for p in report.system.members(gam_groups::GroupId(g as u32)) {
                // `delivered_by(p)`, restricted to g's messages, must respect
                // `listed` order — filter_map drops foreign messages and maps
                // the rest to their L_g position in one pass.
                let positions: Vec<usize> = report
                    .delivered_by(p)
                    .into_iter()
                    .filter_map(|m| listed.iter().position(|x| *x == m))
                    .collect();
                if positions.windows(2).any(|w| w[0] > w[1]) {
                    return Err(SpecViolation {
                        property: "group-sequential",
                        detail: format!("{p} delivered group g{} out of L_g order", g + 1),
                    });
                }
            }
        }
        Ok(())
    }

    /// [`super::check_named`] with the five rewritten checkers swapped for
    /// their reference bodies.
    pub(super) fn check_named(
        report: &RunReport,
        property: &str,
    ) -> Option<Result<(), SpecViolation>> {
        match property {
            "integrity" => Some(check_integrity(report)),
            "termination" => Some(check_termination(report)),
            "ordering" => Some(check_ordering(report)),
            "strict-ordering" => Some(check_strict_ordering(report)),
            "group-sequential" => Some(check_group_sequential(report)),
            _ => super::check_named(report, property),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MessageInfo;
    use crate::runtime::{Delivery, RunReport};
    use gam_groups::{topology, GroupId};
    use gam_kernel::{FailurePattern, Time};

    /// Hand-built report over the two-overlapping topology.
    fn base_report() -> RunReport {
        let system = topology::two_overlapping(2, 1); // g1={p0,p1}, g2={p1,p2}
        let pattern = FailurePattern::all_correct(system.universe());
        RunReport {
            system,
            pattern,
            messages: vec![
                MessageInfo {
                    src: ProcessId(0),
                    group: GroupId(0),
                    payload: 0,
                },
                MessageInfo {
                    src: ProcessId(1),
                    group: GroupId(1),
                    payload: 1,
                },
            ],
            multicast_at: vec![Time(1), Time(2)],
            delivered: vec![Vec::new(); 3],
            actions_of: vec![0; 3],
            quiescent: true,
        }
    }

    fn deliver(report: &mut RunReport, p: u32, m: u64, at: u64) {
        report.delivered[p as usize].push(Delivery {
            msg: MessageId(m),
            at: Time(at),
        });
    }

    /// The construction of `↦` the checkers used before the generator
    /// edges of `delivery_generators`, kept as their oracle: every pair of every
    /// local sequence, plus every delivered → addressed-but-undelivered
    /// pair, deduplicated through a dense m×m bitmap.
    fn delivery_relation(report: &RunReport) -> Vec<(MessageId, MessageId)> {
        let m_count = report.messages.len();
        let mut seen = vec![false; m_count * m_count];
        let mut edges = Vec::new();
        for i in 0..report.delivered.len() {
            let p = ProcessId(i as u32);
            let seq = report.delivered_by(p);
            let undelivered: Vec<MessageId> = (0..m_count)
                .map(|j| MessageId(j as u64))
                .filter(|m2| !seq.contains(m2) && dst(report, *m2).contains(p))
                .collect();
            for (a, m) in seq.iter().enumerate() {
                for m2 in seq[a + 1..].iter().chain(&undelivered) {
                    let cell = &mut seen[m.0 as usize * m_count + m2.0 as usize];
                    if !*cell {
                        *cell = true;
                        edges.push((*m, *m2));
                    }
                }
            }
        }
        edges
    }

    /// `↦ ∪ ⤳` as the strict checker built it before: one `⤳` edge per
    /// pair `(m, m')` with `m` first delivered before `m'` is multicast.
    fn strict_relation(report: &RunReport) -> Vec<(MessageId, MessageId)> {
        let mut edges = delivery_relation(report);
        for i in 0..report.messages.len() {
            let m = MessageId(i as u64);
            let Some(t) = report.first_delivery(m) else {
                continue;
            };
            for (j, at) in report.multicast_at.iter().enumerate() {
                if i != j && t < *at && !edges.contains(&(m, MessageId(j as u64))) {
                    edges.push((m, MessageId(j as u64)));
                }
            }
        }
        edges
    }

    #[test]
    fn generator_edges_decide_like_the_full_relation() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // Real runs (crashes leave addressed-but-undelivered messages),
        // then random damage to the local sequences: swapped deliveries
        // make cycles, truncated tails make undelivered targets.
        let mut cyclic = 0;
        for (gs, crashes) in [
            (topology::fig1(), vec![]),
            (topology::fig1(), vec![(ProcessId(1), Time(30))]),
            (topology::ring(3, 2), vec![(ProcessId(0), Time(25))]),
            (topology::two_overlapping(3, 1), vec![]),
        ] {
            let pattern = FailurePattern::from_crashes(gs.universe(), crashes);
            let mut rt = crate::Runtime::new(&gs, pattern, crate::RuntimeConfig::default());
            for round in 0..3u64 {
                for (g, members) in gs.iter() {
                    rt.multicast(members.min().unwrap(), g, round);
                }
            }
            let quiescent = rt.run(1_000_000);
            let clean = rt.report(quiescent);
            let mut rng = StdRng::seed_from_u64(gs.len() as u64);
            for case in 0..200 {
                let mut r = clean.clone();
                for _ in 0..case % 4 {
                    let seq = &mut r.delivered[rng.gen_range(0..gs.universe().len())];
                    if seq.len() >= 2 {
                        let (a, b) = (rng.gen_range(0..seq.len()), rng.gen_range(0..seq.len()));
                        seq.swap(a, b);
                        seq.truncate(seq.len() - rng.gen_range(0..2));
                    }
                }
                let m = r.messages.len();
                let full = reference::acyclic(m, &delivery_relation(&r)).is_ok();
                assert_eq!(check_ordering(&r).is_ok(), full, "ordering, case {case}");
                assert_eq!(
                    check_strict_ordering(&r).is_ok(),
                    reference::acyclic(m, &strict_relation(&r)).is_ok(),
                    "strict ordering, case {case}"
                );
                cyclic += usize::from(!full);
            }
        }
        assert!(cyclic > 100, "the damage must produce cycles: {cyclic}");
    }

    /// Damages one local sequence (or the whole report) in one of the ways
    /// a checker must notice.
    fn mutate(r: &mut RunReport, rng: &mut rand::rngs::StdRng) {
        use rand::Rng;
        let p = rng.gen_range(0..r.delivered.len());
        let m_count = r.messages.len() as u64;
        let m = MessageId(rng.gen_range(0..m_count));
        let late = Delivery {
            msg: m,
            at: Time(1_000_000),
        };
        let seq = &mut r.delivered[p];
        let at = rng.gen_range(0..seq.len() + 1);
        match rng.gen_range(0..8u32) {
            // swap two deliveries
            0 if seq.len() >= 2 => {
                let (a, b) = (rng.gen_range(0..seq.len()), rng.gen_range(0..seq.len()));
                seq.swap(a, b);
            }
            // duplicate one, or drop one
            1 if at < seq.len() => seq.insert(rng.gen_range(at..seq.len() + 1), seq[at]),
            2 if at < seq.len() => drop(seq.remove(at)),
            // deliver to a process that may not be a member
            3 => seq.insert(at, late),
            // deliver before the multicast
            4 if at < seq.len() && seq[at].msg.0 < m_count => {
                let d = seq[at];
                r.multicast_at[d.msg.0 as usize] = Time(d.at.0 + 1);
            }
            // an unknown id
            5 => seq.insert(
                at,
                Delivery {
                    msg: MessageId(m_count + rng.gen_range(0..2)),
                    ..late
                },
            ),
            6 => r.quiescent = false,
            _ => {}
        }
    }

    #[test]
    fn linear_checkers_agree_with_the_reference_detail_for_detail() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        const PROPERTIES: [&str; 8] = [
            "integrity",
            "minimality",
            "termination",
            "ordering",
            "strict-ordering",
            "pairwise-ordering",
            "pairwise-agreement",
            "group-sequential",
        ];
        let mut violated = std::collections::BTreeMap::<String, usize>::new();
        let families = [
            topology::fig1(),
            topology::ring(3, 2),
            topology::random(6, 3, 0.5, 11),
            topology::random(8, 4, 0.45, 12),
        ];
        for (f, gs) in families.iter().enumerate() {
            for variant in [
                crate::Variant::Standard,
                crate::Variant::Strict,
                crate::Variant::Pairwise,
            ] {
                // a crashed source (g0's messages come from its least
                // member) and a crashed bystander
                let g0 = gs.members(GroupId(0));
                for crash in [None, g0.min(), g0.max()] {
                    let crashes = crash.map(|p| (p, Time(20)));
                    let pattern = FailurePattern::from_crashes(gs.universe(), crashes);
                    let config = crate::RuntimeConfig {
                        variant,
                        ..crate::RuntimeConfig::default()
                    };
                    let mut rt = crate::Runtime::new(gs, pattern, config);
                    for round in 0..3u64 {
                        for (g, members) in gs.iter() {
                            rt.multicast(members.min().unwrap(), g, round);
                        }
                    }
                    let quiescent = rt.run(50_000);
                    let clean = rt.report(quiescent);
                    let mut rng = StdRng::seed_from_u64(f as u64);
                    for case in 0..120 {
                        let mut r = clean.clone();
                        for _ in 0..case % 4 {
                            mutate(&mut r, &mut rng);
                        }
                        for property in PROPERTIES {
                            let linear = check_named(&r, property).unwrap();
                            assert_eq!(
                                linear,
                                reference::check_named(&r, property).unwrap(),
                                "{property} on case {case} of {r:?}"
                            );
                            if let Err(v) = linear {
                                let words = v.detail.replace(|c: char| c.is_ascii_digit(), "");
                                let kind = words.split(' ').take(3).collect::<Vec<_>>().join(" ");
                                *violated.entry(format!("{property}: {kind}")).or_default() += 1;
                            }
                        }
                    }
                }
            }
        }
        // every failure path of the rewritten checkers was taken
        for kind in [
            "integrity: p delivered unknown",
            "integrity: p delivered m",
            "integrity: p ∉ dst(m)",
            "integrity: m delivered before",
            "termination: run did not",
            "termination: correct p ∈",
            "ordering: delivery cycle: [MessageId(),",
            "strict-ordering: cycle in ↦",
            "group-sequential: p delivered group",
        ] {
            assert!(
                violated.get(kind).copied().unwrap_or(0) > 0,
                "{kind}: {violated:?}"
            );
        }
    }

    #[test]
    fn termination_names_the_delivery_the_linear_scan_named() {
        // Message-major, process-minor: the first missing delivery named is
        // the one the per-(process, message) `has_delivered` scan named.
        let mut r = base_report();
        deliver(&mut r, 1, 1, 5);
        let scan = (0..r.messages.len() as u64)
            .flat_map(|m| (0..3u32).map(move |p| (ProcessId(p), MessageId(m))))
            .find(|&(p, m)| dst(&r, m).contains(p) && !r.has_delivered(p, m))
            .map(|(p, m)| format!("correct {p} ∈ dst({m}) never delivered it"));
        assert_eq!(check_termination(&r).unwrap_err().detail, scan.unwrap());
    }

    #[test]
    fn integrity_rejects_double_delivery() {
        let mut r = base_report();
        deliver(&mut r, 0, 0, 3);
        deliver(&mut r, 0, 0, 4);
        assert_eq!(check_integrity(&r).unwrap_err().property, "integrity");
    }

    #[test]
    fn integrity_rejects_non_member_delivery() {
        let mut r = base_report();
        deliver(&mut r, 2, 0, 3); // p2 ∉ g1
        assert_eq!(check_integrity(&r).unwrap_err().property, "integrity");
    }

    #[test]
    fn integrity_rejects_delivery_before_multicast() {
        let mut r = base_report();
        deliver(&mut r, 0, 0, 0); // before multicast_at = 1
        assert_eq!(check_integrity(&r).unwrap_err().property, "integrity");
    }

    #[test]
    fn ordering_accepts_agreeing_orders() {
        let mut r = base_report();
        // p1 ∈ both groups delivers m0 then m1; others consistent.
        deliver(&mut r, 0, 0, 3);
        deliver(&mut r, 1, 0, 4);
        deliver(&mut r, 1, 1, 5);
        deliver(&mut r, 2, 1, 6);
        check_integrity(&r).unwrap();
        check_ordering(&r).unwrap();
        check_pairwise_ordering(&r).unwrap();
        check_termination(&r).unwrap();
    }

    #[test]
    fn ordering_rejects_two_process_disagreement() {
        // Two messages both addressed to both overlapping groups? Use a
        // single group with two members disagreeing on order.
        let system = topology::single_group(2);
        let pattern = FailurePattern::all_correct(system.universe());
        let mut r = RunReport {
            system,
            pattern,
            messages: vec![
                MessageInfo {
                    src: ProcessId(0),
                    group: GroupId(0),
                    payload: 0,
                },
                MessageInfo {
                    src: ProcessId(1),
                    group: GroupId(0),
                    payload: 1,
                },
            ],
            multicast_at: vec![Time(1), Time(2)],
            delivered: vec![Vec::new(); 2],
            actions_of: vec![0; 2],
            quiescent: true,
        };
        deliver(&mut r, 0, 0, 3);
        deliver(&mut r, 0, 1, 4);
        deliver(&mut r, 1, 1, 3);
        deliver(&mut r, 1, 0, 4);
        assert_eq!(check_ordering(&r).unwrap_err().property, "ordering");
        assert_eq!(
            check_pairwise_ordering(&r).unwrap_err().property,
            "pairwise-ordering"
        );
    }

    #[test]
    fn check_named_dispatches_every_property() {
        let r = base_report();
        for property in [
            "integrity",
            "minimality",
            "termination",
            "ordering",
            "strict-ordering",
            "pairwise-ordering",
            "pairwise-agreement",
            "group-sequential",
        ] {
            let verdict = check_named(&r, property).unwrap_or_else(|| panic!("{property} known"));
            // the targeted checker reports under its own name when it fires
            if let Err(v) = verdict {
                assert_eq!(v.property, property);
            }
        }
        assert!(check_named(&r, "no-such-property").is_none());
    }

    #[test]
    fn termination_rejects_missing_delivery() {
        let mut r = base_report();
        deliver(&mut r, 0, 0, 3); // p1 (correct, ∈ g1) never delivers m0
        assert_eq!(check_termination(&r).unwrap_err().property, "termination");
    }

    #[test]
    fn termination_ignores_undelivered_faulty_multicast() {
        let mut r = base_report();
        r.pattern = FailurePattern::from_crashes(r.system.universe(), [(ProcessId(0), Time(2))]);
        // m0 multicast by p0 (faulty), delivered nowhere: fine.
        deliver(&mut r, 1, 1, 5);
        deliver(&mut r, 2, 1, 6);
        check_termination(&r).unwrap();
    }

    #[test]
    fn termination_requires_quiescence() {
        let mut r = base_report();
        r.quiescent = false;
        assert_eq!(check_termination(&r).unwrap_err().property, "termination");
    }

    #[test]
    fn minimality_rejects_spurious_steps() {
        let system = topology::disjoint(2, 2); // g1={p0,p1}, g2={p2,p3}
        let pattern = FailurePattern::all_correct(system.universe());
        let mut r = RunReport {
            system,
            pattern,
            messages: vec![MessageInfo {
                src: ProcessId(0),
                group: GroupId(0),
                payload: 0,
            }],
            multicast_at: vec![Time(1)],
            delivered: vec![Vec::new(); 4],
            actions_of: vec![3, 3, 0, 0],
            quiescent: true,
        };
        deliver(&mut r, 0, 0, 2);
        deliver(&mut r, 1, 0, 3);
        check_minimality(&r).unwrap();
        // p3 (no message addressed) takes a step: violation.
        r.actions_of[3] = 1;
        assert_eq!(check_minimality(&r).unwrap_err().property, "minimality");
    }

    #[test]
    fn strict_ordering_detects_real_time_inversion() {
        let mut r = base_report();
        // m0 delivered at t3 (first delivery); m1 multicast at t2 < t3, so
        // no ⤳ edge from m0 to m1. Make m1 ⤳-before... build inversion:
        // m1 delivered everywhere before m0's multicast? multicast_at[0]=1.
        // Instead: set multicast_at[1] = 10, m1 multicast after m0 delivered
        // at t3 ⇒ m0 ⤳ m1. If some process delivers m1 "before" m0 in ↦,
        // we get a cycle.
        r.multicast_at[1] = Time(10);
        deliver(&mut r, 0, 0, 3); // m0 delivered at 3 ⇒ m0 ⤳ m1
        deliver(&mut r, 1, 1, 11); // p1 delivers m1 but never m0 ⇒ m1 ↦_p1 m0
        deliver(&mut r, 2, 1, 12);
        assert_eq!(
            check_strict_ordering(&r).unwrap_err().property,
            "strict-ordering"
        );
        // Plain ordering also fails here? No: ↦ alone has m1 ↦ m0 only — acyclic.
        check_ordering(&r).unwrap();
    }

    #[test]
    fn check_all_on_real_run() {
        let gs = topology::fig1();
        let mut rt = crate::Runtime::new(
            &gs,
            FailurePattern::all_correct(gs.universe()),
            crate::RuntimeConfig::default(),
        );
        for g in 0..4u32 {
            let src = gs.members(GroupId(g)).min().unwrap();
            rt.multicast(src, GroupId(g), g as u64);
        }
        let report = rt.run_to_quiescence(1_000_000);
        check_all(&report, crate::Variant::Standard).unwrap();
        check_group_sequential(&report).unwrap();
    }

    #[test]
    fn group_sequential_detects_out_of_order_delivery() {
        let system = topology::single_group(2);
        let pattern = FailurePattern::all_correct(system.universe());
        let mut r = RunReport {
            system,
            pattern,
            messages: vec![
                MessageInfo {
                    src: ProcessId(0),
                    group: GroupId(0),
                    payload: 0,
                },
                MessageInfo {
                    src: ProcessId(1),
                    group: GroupId(0),
                    payload: 1,
                },
            ],
            multicast_at: vec![Time(1), Time(2)],
            delivered: vec![Vec::new(); 2],
            actions_of: vec![0; 2],
            quiescent: true,
        };
        deliver(&mut r, 0, 0, 3);
        deliver(&mut r, 0, 1, 4);
        // p1 delivers in the reverse of the submission order
        deliver(&mut r, 1, 1, 3);
        deliver(&mut r, 1, 0, 4);
        assert_eq!(
            check_group_sequential(&r).unwrap_err().property,
            "group-sequential"
        );
    }

    #[test]
    fn pairwise_agreement_is_sound_on_partial_runs() {
        let system = topology::single_group(2);
        let pattern = FailurePattern::all_correct(system.universe());
        let mut r = RunReport {
            system,
            pattern,
            messages: vec![
                MessageInfo {
                    src: ProcessId(0),
                    group: GroupId(0),
                    payload: 0,
                },
                MessageInfo {
                    src: ProcessId(1),
                    group: GroupId(0),
                    payload: 1,
                },
            ],
            multicast_at: vec![Time(1), Time(2)],
            delivered: vec![Vec::new(); 2],
            actions_of: vec![1; 2],
            quiescent: false,
        };
        // Budget-cut prefix: p0 has delivered only m0, p1 only m1. No pair
        // is co-delivered, so agreement holds — while `check_ordering`
        // draws edges toward the still-undelivered messages and reports a
        // spurious cycle.
        deliver(&mut r, 0, 0, 3);
        deliver(&mut r, 1, 1, 3);
        check_pairwise_agreement(&r).unwrap();
        assert_eq!(check_ordering(&r).unwrap_err().property, "ordering");
        // A genuine inversion on a co-delivered pair is still caught.
        deliver(&mut r, 0, 1, 4);
        deliver(&mut r, 1, 0, 4);
        assert_eq!(
            check_pairwise_agreement(&r).unwrap_err().property,
            "pairwise-agreement"
        );
    }

    #[test]
    fn group_sequential_holds_on_bursty_runtime_run() {
        let gs = topology::two_overlapping(3, 1);
        let mut rt = crate::Runtime::new(
            &gs,
            FailurePattern::all_correct(gs.universe()),
            crate::RuntimeConfig::default(),
        );
        for i in 0..4u64 {
            rt.multicast(ProcessId(0), GroupId(0), i);
            rt.multicast(ProcessId(4), GroupId(1), i);
        }
        let mut source = gam_kernel::RandomSource::new(5);
        let outcome = rt.run_with_source(gs.universe(), &mut source, 2_000_000);
        assert_eq!(outcome, gam_kernel::RunOutcome::Quiescent);
        check_group_sequential(&rt.report(true)).unwrap();
    }
}
