//! Spans of the layer walk: one per call into a layer, kept in memory and
//! written out as JSON lines when the walk ends.

use std::io::Write;

/// Index of a span in its recorder; `NONE` marks a root.
pub type SpanId = u32;
pub const NONE: SpanId = u32::MAX;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The call, e.g. `handle@participant`.
    pub name: &'static str,
    /// What it was called with: the message kind, or empty.
    pub what: &'static str,
    /// The crate the call went into.
    pub layer: &'static str,
    /// Transaction the call served (0: none, e.g. a recovery step).
    pub txn: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span whose output caused this call.
    pub parent: SpanId,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Every span's self time: its duration minus the part of its interval
/// that its child spans cover. (The walk's calls are sequential, so there
/// a child never overlaps its parent and self time is the duration;
/// nested spans, as a later in-program tracer will record, need the
/// general rule.)
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration).collect();
    let mut children: Vec<usize> = (0..spans.len())
        .filter(|i| spans[*i].parent != NONE)
        .collect();
    children.sort_unstable_by_key(|i| (spans[*i].parent, spans[*i].start_ns));
    // Children of one parent are now adjacent and in start order, so
    // `upto` is how far the parent's interval is already covered.
    let (mut parent, mut upto) = (NONE, 0);
    for i in children {
        let p = &spans[spans[i].parent as usize];
        if spans[i].parent != parent {
            (parent, upto) = (spans[i].parent, p.start_ns);
        }
        let (a, b) = (spans[i].start_ns.max(upto), spans[i].end_ns.min(p.end_ns));
        if b > a {
            own[parent as usize] -= b - a;
            upto = b;
        }
    }
    own
}

/// The blocking-path sum below `root`: the span's duration plus the
/// longest such sum among its children. Children of one span are the
/// parallel continuations of one round (a coordinator's sends to each
/// participant), and the round ends with the slowest, so the sum takes
/// the maximum over them, not the total. `root`'s descendants all lie in
/// `spans[root..end]`.
pub fn blocking_path(spans: &[Span], root: SpanId, end: usize) -> u64 {
    // Children always follow their parent in the list, so one backward
    // pass has every child's sum ready when its parent is reached.
    let root = root as usize;
    let mut best_child = vec![0u64; end - root];
    for i in (root + 1..end).rev() {
        let sum = spans[i].duration() + best_child[i - root];
        let p = spans[i].parent as usize;
        if spans[i].parent != NONE && p >= root {
            best_child[p - root] = best_child[p - root].max(sum);
        }
    }
    spans[root].duration() + best_child[0]
}

/// Write spans as JSON lines: `{id, name, layer, txn, start_ns, end_ns,
/// parent}`, `id` being the line's index, `name` the call and what it
/// was called with, and `parent` `null` for roots.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate() {
        let parent = if s.parent == NONE {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"layer\":\"{}\",\"txn\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
            format!("{} {}", s.name, s.what).trim_end(),
            s.layer,
            s.txn,
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: SpanId) -> Span {
        Span {
            name,
            what: "",
            layer: "core",
            txn: 1,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        let spans = vec![
            span("outer", 0, 100, NONE),
            span("a", 10, 30, 0),
            span("b", 20, 50, 0),       // overlaps a: 10..50 covered once
            span("c", 90, 120, 0),      // clipped to the parent's end
            span("after", 130, 140, 0), // outside the parent: covers nothing
            span("grandchild", 12, 14, 1),
        ];
        assert_eq!(
            self_times(&spans),
            vec![100 - 40 - 10, 20 - 2, 30, 30, 10, 2]
        );
    }

    #[test]
    fn blocking_path_takes_the_slowest_participant_of_each_round() {
        // begin(5) -> {update to p1 (10) -> ack (3) , update to p2 (20) -> ack (4) -> commit (7)}
        let spans = vec![
            span("begin", 0, 5, NONE),
            span("update p1", 5, 15, 0),
            span("update p2", 15, 35, 0),
            span("ack p1", 35, 38, 1),
            span("ack p2", 38, 42, 2),
            span("commit", 42, 49, 4),
            span("next txn", 50, 60, NONE),
        ];
        // 5 + max(10 + 3, 20 + 4 + 7)
        assert_eq!(blocking_path(&spans, 0, 6), 5 + 20 + 4 + 7);
        assert_eq!(blocking_path(&spans, 0, spans.len()), 5 + 20 + 4 + 7);
        assert_eq!(blocking_path(&spans, 1, 6), 13);
        assert_eq!(blocking_path(&spans, 6, 7), 10);
    }
}
