//! Spans recorded from the benchmark's own files around each call into
//! the program. Every pass keeps the plain durations (they are the
//! end-to-end samples); only the traced pass keeps full spans, in memory,
//! written out when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

use serde::Value;

/// One timed call. `parent` is the span that caused it — for the shadow
/// layers this is a logical link (the shadow `stage.step` stands for the
/// part of `tick_frames` that ran the stage), not containment in time.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub tick: u32,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time of every span: its duration minus its children's durations,
/// floored at zero (a shadow child is a replica of the parent's inner
/// work and can measure a hair longer than the parent).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            let slot = &mut own[parent as usize];
            *slot = slot.saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Times calls for one pass.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    durations: BTreeMap<&'static str, Vec<f64>>,
    spans: Option<Vec<Span>>,
}

impl Recorder {
    pub fn new(traced: bool) -> Self {
        Recorder {
            epoch: Instant::now(),
            durations: BTreeMap::new(),
            spans: traced.then(Vec::new),
        }
    }

    pub fn traced(&self) -> bool {
        self.spans.is_some()
    }

    /// Runs `f`, timing it from outside. Returns its result, the seconds
    /// it took, and the id of the recorded span (`None` when untraced).
    pub fn span<T>(
        &mut self,
        name: &'static str,
        tick: usize,
        parent: Option<u32>,
        f: impl FnOnce() -> T,
    ) -> (T, f64, Option<u32>) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let secs = end.duration_since(start).as_secs_f64();
        self.durations.entry(name).or_default().push(secs);
        let epoch = self.epoch;
        let id = self.spans.as_mut().map(|spans| {
            spans.push(Span {
                name,
                tick: tick as u32,
                parent,
                start_ns: start.duration_since(epoch).as_nanos() as u64,
                end_ns: end.duration_since(epoch).as_nanos() as u64,
            });
            (spans.len() - 1) as u32
        });
        (out, secs, id)
    }

    /// Seconds of every call recorded under `name`, in call order.
    pub fn durations(&self, name: &str) -> &[f64] {
        self.durations.get(name).map_or(&[], Vec::as_slice)
    }

    pub fn spans(&self) -> &[Span] {
        self.spans.as_deref().unwrap_or(&[])
    }

    /// Self seconds of every span, per span name, in call order.
    pub fn self_seconds_by_name(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let spans = self.spans();
        let mut by_name: BTreeMap<_, Vec<f64>> = BTreeMap::new();
        for (span, own) in spans.iter().zip(self_times_ns(spans)) {
            by_name
                .entry(span.name)
                .or_default()
                .push(own as f64 * 1e-9);
        }
        by_name
    }

    pub fn spans_json(&self) -> Value {
        let num = |v: u64| Value::UInt(v);
        Value::Seq(
            self.spans()
                .iter()
                .map(|s| {
                    Value::Map(vec![
                        ("name".into(), Value::String(s.name.into())),
                        ("tick".into(), num(u64::from(s.tick))),
                        (
                            "parent".into(),
                            s.parent.map_or(Value::Null, |p| num(u64::from(p))),
                        ),
                        ("start_ns".into(), num(s.start_ns)),
                        ("end_ns".into(), num(s.end_ns)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            tick: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_at_every_level() {
        // tick_frames 100 -> stage.step 70 -> step_flat 40; a sibling leaf.
        let spans = [
            span("tick_frames", None, 0, 100),
            span("stage.step", Some(0), 100, 170),
            span("step_flat", Some(1), 170, 210),
            span("decide", None, 210, 225),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 30, 40, 15]);
    }

    #[test]
    fn self_time_floors_at_zero_when_a_shadow_child_runs_long() {
        let spans = [
            span("tick_frames", None, 0, 50),
            span("stage.step", Some(0), 50, 110),
        ];
        assert_eq!(self_times_ns(&spans), vec![0, 60]);
    }

    #[test]
    fn recorder_keeps_durations_always_and_spans_only_when_traced() {
        let mut plain = Recorder::new(false);
        let (v, secs, id) = plain.span("decide", 3, None, || 7);
        assert_eq!((v, id), (7, None));
        assert_eq!(plain.durations("decide"), &[secs]);
        assert!(plain.spans().is_empty() && plain.durations("absent").is_empty());

        let mut traced = Recorder::new(true);
        let (_, _, parent) = traced.span("tick_frames", 3, None, || ());
        let (_, _, child) = traced.span("stage.step", 3, parent, || ());
        assert_eq!((parent, child), (Some(0), Some(1)));
        assert_eq!(traced.spans()[1].parent, Some(0));
        assert_eq!(traced.spans()[1].tick, 3);
        assert_eq!(traced.self_seconds_by_name().len(), 2);
    }
}
