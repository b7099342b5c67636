//! CSV persistence for traces.
//!
//! The real datasets the paper uses are distributed as (huge) CSVs; this
//! module gives the same interchange point for synthetic traces and for
//! users who want to run the pipeline on their own pre-processed data. The
//! format is a plain long-form table:
//!
//! ```text
//! t,node,<resource0>,<resource1>,...
//! 0,0,0.31,0.52
//! 0,1,0.28,0.47
//! ...
//! ```

use std::io::{BufRead, BufReader, Read, Write};

use crate::{Resource, Trace, TraceError};

fn resource_from_name(name: &str) -> Option<Resource> {
    match name {
        "cpu" => Some(Resource::Cpu),
        "memory" => Some(Resource::Memory),
        "disk" => Some(Resource::Disk),
        "network" => Some(Resource::Network),
        "temperature" => Some(Resource::Temperature),
        "humidity" => Some(Resource::Humidity),
        _ => None,
    }
}

/// Writes a trace in long-form CSV. The writer can be a `&mut` reference.
///
/// # Errors
///
/// Returns any I/O error from the writer.
pub fn write_csv<W: Write>(trace: &Trace, mut w: W) -> std::io::Result<()> {
    write!(w, "t,node")?;
    for r in trace.resources() {
        write!(w, ",{r}")?;
    }
    writeln!(w)?;
    for t in 0..trace.num_steps() {
        for i in 0..trace.num_nodes() {
            write!(w, "{t},{i}")?;
            for v in trace.measurement(i, t) {
                write!(w, ",{v}")?;
            }
            writeln!(w)?;
        }
    }
    Ok(())
}

/// Reads a trace from long-form CSV produced by [`write_csv`] (or any file
/// in the same layout). Rows must come in the order [`write_csv`] writes
/// them: time-major, each step listing nodes `0, 1, …, N−1` in turn, every
/// step the same `N` nodes. The node count is the number of rows of step
/// `0`. Blank lines are skipped.
///
/// Memory grows with the rows read, never with a parsed index, so a
/// hostile `t` or `node` column is an error, not an allocation.
///
/// # Errors
///
/// Returns [`TraceError::Parse`] naming the line for malformed content: a
/// bad header, a field that does not parse, a row whose `(t, node)` is not
/// the next one in that order, or a last step with missing nodes. I/O
/// errors are mapped to [`TraceError::Parse`] with the underlying message.
// lint:allow(panic-path): fn-scope audit: index arithmetic is affine in
// dimensions validated at the public boundary and restated by debug_assert
// contracts; the overflow-checked debug-assert CI job backstops the proof
// at runtime; exemplar chain: datasets::csv::read_csv
pub fn read_csv<R: Read>(r: R) -> Result<Trace, TraceError> {
    let reader = BufReader::new(r);
    let mut lines = reader.lines().enumerate();
    let (_, header) = lines.next().ok_or(TraceError::Parse {
        line: 1,
        reason: "empty input".into(),
    })?;
    let header = header.map_err(|e| TraceError::Parse {
        line: 1,
        reason: e.to_string(),
    })?;
    let cols: Vec<&str> = header.trim().split(',').collect();
    if cols.len() < 3 || cols[0] != "t" || cols[1] != "node" {
        return Err(TraceError::Parse {
            line: 1,
            reason: format!("expected header 't,node,<resources...>', got '{header}'"),
        });
    }
    let mut resources = Vec::new();
    for c in &cols[2..] {
        resources.push(resource_from_name(c).ok_or_else(|| TraceError::Parse {
            line: 1,
            reason: format!("unknown resource column '{c}'"),
        })?);
    }
    let d = resources.len();

    let mut data: Vec<f64> = Vec::new();
    // The row expected next is `(t, node)`; `num_nodes` is known once step
    // 0 has ended.
    let mut num_nodes: Option<usize> = None;
    let (mut t, mut node) = (0usize, 0usize);
    let mut last_line = 1;
    for (idx, line) in lines {
        let line_no = idx + 1;
        let line = line.map_err(|e| TraceError::Parse {
            line: line_no,
            reason: e.to_string(),
        })?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let fields: Vec<&str> = trimmed.split(',').collect();
        if fields.len() != 2 + d {
            return Err(TraceError::Parse {
                line: line_no,
                reason: format!("expected {} fields, got {}", 2 + d, fields.len()),
            });
        }
        let row_t: usize = fields[0].parse().map_err(|_| TraceError::Parse {
            line: line_no,
            reason: format!("bad time step '{}'", fields[0]),
        })?;
        let row_node: usize = fields[1].parse().map_err(|_| TraceError::Parse {
            line: line_no,
            reason: format!("bad node id '{}'", fields[1]),
        })?;
        // Step 0 may end (and fix the node count) at any row but its first.
        if num_nodes.is_none() && node > 0 && (row_t, row_node) == (1, 0) {
            num_nodes = Some(node);
            (t, node) = (1, 0);
        }
        if (row_t, row_node) != (t, node) {
            let or_next_step = match num_nodes {
                None if node > 0 => " or (1, 0)",
                _ => "",
            };
            return Err(TraceError::Parse {
                line: line_no,
                reason: format!(
                    "row (t, node) = ({row_t}, {row_node}) out of order: expected \
                     ({t}, {node}){or_next_step}"
                ),
            });
        }
        for f in &fields[2..] {
            let v: f64 = f.parse().map_err(|_| TraceError::Parse {
                line: line_no,
                reason: format!("bad value '{f}'"),
            })?;
            data.push(v);
        }
        // Both counters stay below the number of rows read.
        node = node.checked_add(1).ok_or_else(|| overflow(line_no))?;
        if num_nodes == Some(node) {
            t = t.checked_add(1).ok_or_else(|| overflow(line_no))?;
            node = 0;
        }
        last_line = line_no;
    }
    let (num_nodes, num_steps) = match num_nodes {
        None if node == 0 => {
            return Err(TraceError::Parse {
                line: last_line,
                reason: "no data rows".into(),
            })
        }
        None => (node, 1),
        Some(n) if node == 0 => (n, t),
        Some(n) => {
            return Err(TraceError::Parse {
                line: last_line,
                reason: format!("step {t} ends after {node} of {n} nodes"),
            })
        }
    };
    Trace::from_flat(resources, num_nodes, num_steps, data)
}

fn overflow(line: usize) -> TraceError {
    TraceError::Parse {
        line,
        reason: "row count overflows usize".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::ClusterTraceConfig;

    #[test]
    fn round_trip_preserves_trace() {
        let tr = ClusterTraceConfig::default()
            .nodes(4)
            .steps(6)
            .seed(3)
            .generate();
        let mut buf = Vec::new();
        write_csv(&tr, &mut buf).unwrap();
        let back = read_csv(buf.as_slice()).unwrap();
        assert_eq!(back.num_nodes(), 4);
        assert_eq!(back.num_steps(), 6);
        assert_eq!(back.resources(), tr.resources());
        for t in 0..6 {
            for i in 0..4 {
                for (a, b) in back.measurement(i, t).iter().zip(tr.measurement(i, t)) {
                    assert!((a - b).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn rejects_bad_header() {
        let err = read_csv("x,y,cpu\n".as_bytes()).unwrap_err();
        assert!(matches!(err, TraceError::Parse { line: 1, .. }));
        let err = read_csv("t,node,flux\n".as_bytes()).unwrap_err();
        assert!(matches!(err, TraceError::Parse { line: 1, .. }));
    }

    #[test]
    fn rejects_missing_rows() {
        let csv = "t,node,cpu\n0,0,0.5\n0,1,0.5\n1,0,0.5\n";
        let err = read_csv(csv.as_bytes()).unwrap_err();
        assert!(matches!(err, TraceError::Parse { .. }));
    }

    #[test]
    fn rejects_bad_values() {
        let csv = "t,node,cpu\n0,0,abc\n";
        let err = read_csv(csv.as_bytes()).unwrap_err();
        assert!(matches!(err, TraceError::Parse { line: 2, .. }));
    }

    #[test]
    fn skips_blank_lines() {
        let csv = "t,node,cpu\n0,0,0.25\n\n0,1,0.75\n";
        let tr = read_csv(csv.as_bytes()).unwrap();
        assert_eq!(tr.num_nodes(), 2);
        assert_eq!(tr.measurement(1, 0), &[0.75]);
    }

    #[test]
    fn empty_input_errors() {
        let err = read_csv("".as_bytes()).unwrap_err();
        assert!(matches!(err, TraceError::Parse { line: 1, .. }));
        let err = read_csv("t,node,cpu\n\n".as_bytes()).unwrap_err();
        assert!(matches!(err, TraceError::Parse { .. }));
    }

    fn parse_error_line(csv: &str) -> usize {
        match read_csv(csv.as_bytes()) {
            Err(TraceError::Parse { line, .. }) => line,
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn rows_are_read_by_their_t_and_node_columns() {
        // A repeated (t, node) used to read as the next node.
        assert_eq!(parse_error_line("t,node,cpu\n0,1,0.2\n0,1,0.9\n"), 2);
        assert_eq!(parse_error_line("t,node,cpu\n0,0,0.2\n0,0,0.9\n"), 3);
        // A skipped step or node.
        assert_eq!(
            parse_error_line("t,node,cpu\n0,0,0.1\n0,1,0.2\n2,0,0.3\n2,1,0.4\n"),
            4
        );
        assert_eq!(
            parse_error_line("t,node,cpu\n0,0,0.1\n0,1,0.2\n1,1,0.4\n"),
            4
        );
        // A step with an extra node.
        assert_eq!(
            parse_error_line("t,node,cpu\n0,0,0.1\n0,1,0.2\n1,0,0.3\n1,1,0.4\n1,2,0.5\n"),
            6
        );
        // A single-node trace is still one row per step.
        let tr = read_csv("t,node,cpu\n0,0,0.1\n1,0,0.2\n2,0,0.3\n".as_bytes()).unwrap();
        assert_eq!((tr.num_nodes(), tr.num_steps()), (1, 3));
        assert_eq!(tr.measurement(0, 2), &[0.3]);
    }

    #[test]
    fn a_trace_written_in_reverse_order_is_rejected() {
        // It used to read back with every cell swapped.
        let tr = ClusterTraceConfig::default()
            .nodes(3)
            .steps(2)
            .seed(5)
            .generate();
        let mut buf = Vec::new();
        write_csv(&tr, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        lines[1..].reverse();
        assert_eq!(parse_error_line(&lines.join("\n")), 2);
    }

    #[test]
    fn a_huge_time_step_is_an_error_not_an_overflow() {
        // `max_t + 1` used to overflow (a panic under overflow checks).
        let csv = format!("t,node,cpu\n{},0,0.5\n", usize::MAX);
        assert_eq!(parse_error_line(&csv), 2);
        let csv = format!("t,node,cpu\n0,0,0.5\n0,{},0.5\n", usize::MAX);
        assert_eq!(parse_error_line(&csv), 3);
    }

    /// SplitMix64.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn truncated_or_corrupted_traces_end_in_ok_or_a_parse_error_never_a_panic() {
        let tr = ClusterTraceConfig::default()
            .nodes(3)
            .steps(4)
            .seed(9)
            .generate();
        let mut written = Vec::new();
        write_csv(&tr, &mut written).unwrap();
        // Every input must read as a trace or end in a typed error; a panic
        // is caught and reported by its case.
        let mut panicked = Vec::new();
        let mut check =
            |case: String, bytes: &[u8]| match std::panic::catch_unwind(|| read_csv(bytes)) {
                Ok(Ok(_)) | Ok(Err(TraceError::Parse { .. })) => {}
                Ok(Err(e)) => panic!("{case}: unexpected error kind {e}"),
                Err(_) => panicked.push(case),
            };
        for cut in 0..=written.len() {
            check(format!("cut at {cut}"), &written[..cut]);
        }
        let mut state = 27u64;
        for seed in 0..2_000 {
            let mut bytes = written.clone();
            for _ in 0..1 + next(&mut state) % 3 {
                let at = (next(&mut state) % bytes.len() as u64) as usize;
                bytes[at] = (next(&mut state) & 0xff) as u8;
            }
            check(format!("flip seed {seed}"), &bytes);
        }
        assert!(
            panicked.is_empty(),
            "{} panics: {panicked:?}",
            panicked.len()
        );
    }
}
