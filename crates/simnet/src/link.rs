//! Degraded-link model and the at-least-once delivery plane.
//!
//! PR 1's fault plane only models reports that vanish; real telemetry
//! links also deliver **late**, **twice**, and **out of order**. This
//! module adds both halves of the answer:
//!
//! * [`LinkModel`] — a deterministic, seeded channel between a sending
//!   shard and the controller: per-payload loss, fixed latency plus
//!   uniform jitter (measured in ticks), duplication, reordering, bounded
//!   in-flight capacity, and per-entry payload corruption. Every
//!   probabilistic draw is gated on its probability being nonzero, so a
//!   disabled feature leaves the RNG stream untouched and a perfect link
//!   is bit-identical to no link at all.
//! * [`DeliveryPlane`] — sequence-numbered frames with ack/timeout and
//!   deterministic-backoff retransmission at the sending edge
//!   ([`utilcast_core::transmit::RetransmitQueue`]), paired with
//!   sequence-based dedup in [`crate::controller::Controller::tick_frames`]:
//!   **at-least-once delivery, exactly-once admission**.
//!
//! The age-of-information cost of the resulting staleness is tracked by
//! the controller (see [`crate::controller::TickReport::mean_age`]), and
//! nodes aged past [`utilcast_core::compute::ComputeOptions::staleness_age_limit`]
//! are masked out of clustering and retraining.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use utilcast_core::transmit::{ArqConfig, RetransmitQueue};

use crate::transport::{Report, ReportFrame};
use crate::SimError;

/// Mixing constant for deriving per-shard RNG streams from one plan seed
/// (the 64-bit golden-ratio increment, as used by splitmix-style PRNGs).
const SHARD_SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;
/// Additional offset decorrelating the ack (reverse) links from the
/// forward links when both derive from the same plan seed.
const ACK_SEED_OFFSET: u64 = 0xD1B5_4A32_D192_ED03;

/// Parameters of one direction of a degraded link. The default plan is
/// **perfect** — no loss, no delay, no duplication, no reordering, no
/// corruption, unbounded capacity — and a perfect plan is guaranteed not
/// to consume any randomness, so existing runs reproduce bit-identically.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkPlan {
    /// Probability that a payload is dropped in flight.
    pub loss_prob: f64,
    /// Probability, per payload entry, that the entry arrives corrupted
    /// (NaN, huge value, out-of-range value, or bogus node id — all
    /// width-preserving, all caught by controller ingress validation).
    pub corrupt_prob: f64,
    /// Probability that a payload is delivered twice (the copy draws its
    /// own delay).
    pub dup_prob: f64,
    /// Probability that a payload is held back long enough to arrive
    /// after later traffic (adds 2 ticks on top of the base delay).
    pub reorder_prob: f64,
    /// Fixed delivery latency in ticks (`0` = same-tick delivery).
    pub delay_ticks: usize,
    /// Uniform extra latency in `0..=jitter_ticks`, drawn per payload.
    pub jitter_ticks: usize,
    /// Maximum payloads in flight; senders overflow (drop) past it.
    /// `0` = unbounded.
    pub capacity: usize,
    /// RNG seed for the link's draws (per-shard streams are derived from
    /// it, so shard count does not change any one shard's channel).
    pub seed: u64,
}

impl Default for LinkPlan {
    fn default() -> Self {
        LinkPlan::perfect()
    }
}

impl LinkPlan {
    /// A lossless, zero-latency, in-order link (the control condition).
    pub fn perfect() -> Self {
        LinkPlan {
            loss_prob: 0.0,
            corrupt_prob: 0.0,
            dup_prob: 0.0,
            reorder_prob: 0.0,
            delay_ticks: 0,
            jitter_ticks: 0,
            capacity: 0,
            seed: 0,
        }
    }

    /// Whether the plan degrades nothing: every probability zero, no
    /// latency, unbounded capacity.
    pub fn is_perfect(&self) -> bool {
        // Exact zero is the explicit "feature disabled" sentinel here, not
        // a numeric comparison — any nonzero probability engages the link.
        self.loss_prob == 0.0 // lint:allow(float-eq): exact-zero config sentinel
            && self.corrupt_prob == 0.0 // lint:allow(float-eq): exact-zero config sentinel
            && self.dup_prob == 0.0 // lint:allow(float-eq): exact-zero config sentinel
            && self.reorder_prob == 0.0 // lint:allow(float-eq): exact-zero config sentinel
            && self.delay_ticks == 0
            && self.jitter_ticks == 0
            && self.capacity == 0
    }

    /// Checks all probabilities lie in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<(), SimError> {
        for (name, v) in [
            ("loss_prob", self.loss_prob),
            ("corrupt_prob", self.corrupt_prob),
            ("dup_prob", self.dup_prob),
            ("reorder_prob", self.reorder_prob),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(SimError::InvalidConfig {
                    reason: format!("link {name} must be within [0, 1], got {v}"),
                });
            }
        }
        Ok(())
    }
}

/// Aggregate accounting for a link (or a whole [`DeliveryPlane`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkSummary {
    /// Payloads handed to the link (including retransmissions).
    pub sent: u64,
    /// Payloads delivered to the receiver (including duplicates).
    pub delivered: u64,
    /// Payloads dropped in flight.
    pub lost: u64,
    /// Payload entries corrupted in flight.
    pub corrupted: u64,
    /// Payloads duplicated in flight.
    pub duplicated: u64,
    /// Payloads delivered after a payload sent later than them.
    pub reordered: u64,
    /// Payloads dropped because the link's in-flight capacity was full.
    pub overflowed: u64,
    /// Frames retransmitted by the delivery plane's ARQ edge.
    pub retransmits: u64,
    /// Frames abandoned after exhausting their retransmission budget.
    pub abandoned: u64,
    /// Acks sent on the reverse links.
    pub acks_sent: u64,
    /// Acks delivered back to the sending edge.
    pub acks_delivered: u64,
    /// Acks lost on the reverse links.
    pub acks_lost: u64,
}

impl LinkSummary {
    /// Adds another summary's forward-channel counters into this one.
    pub fn merge(&mut self, other: &LinkSummary) {
        self.sent += other.sent;
        self.delivered += other.delivered;
        self.lost += other.lost;
        self.corrupted += other.corrupted;
        self.duplicated += other.duplicated;
        self.reordered += other.reordered;
        self.overflowed += other.overflowed;
        self.retransmits += other.retransmits;
        self.abandoned += other.abandoned;
        self.acks_sent += other.acks_sent;
        self.acks_delivered += other.acks_delivered;
        self.acks_lost += other.acks_lost;
    }
}

/// A payload a [`LinkModel`] can carry: it exposes its entries so the
/// link's corruption injector can flip individual reports. Implemented
/// for [`ReportFrame`] (the drivers' payload), [`Report`] (the
/// fault-injection driver's) and [`AckFrame`] — one corruption draw per
/// entry regardless of representation.
pub trait LinkPayload: Clone {
    /// Number of corruptible entries the payload carries.
    fn entry_count(&self) -> usize;
    /// Corrupts entry `idx` with the given variant (`0..4`), width- and
    /// wire-size-preserving: NaN value, value `+1e6`, value `-1.0`
    /// (out of the unit range), or node id shifted past `num_nodes`.
    fn corrupt_entry(&mut self, idx: usize, variant: usize, num_nodes: usize);
}

impl LinkPayload for ReportFrame {
    fn entry_count(&self) -> usize {
        self.len()
    }

    // lint:allow(panic-path): fn-scope audit: index arithmetic is affine in
    // dimensions validated at the public boundary and restated by
    // debug_assert contracts; the overflow-checked debug-assert CI job
    // backstops the proof at runtime; exemplar chain:
    // simnet::link::LinkModel::send ->
    // simnet::link::ReportFrame::corrupt_entry
    fn corrupt_entry(&mut self, idx: usize, variant: usize, num_nodes: usize) {
        let width = self.width();
        match variant {
            0 => self.values_mut()[idx * width] = f64::NAN,
            1 => self.values_mut()[idx * width] += 1.0e6,
            2 => self.values_mut()[idx * width] = -1.0,
            _ => self.nodes_mut()[idx] += num_nodes,
        }
    }
}

impl LinkPayload for Report {
    fn entry_count(&self) -> usize {
        1
    }

    fn corrupt_entry(&mut self, _idx: usize, variant: usize, num_nodes: usize) {
        match variant {
            0 => {
                if let Some(v) = self.values.first_mut() {
                    *v = f64::NAN;
                }
            }
            1 => {
                if let Some(v) = self.values.first_mut() {
                    *v += 1.0e6;
                }
            }
            2 => {
                if let Some(v) = self.values.first_mut() {
                    *v = -1.0;
                }
            }
            _ => self.node += num_nodes,
        }
    }
}

/// A delivery acknowledgement flowing controller → sending edge on a
/// reverse link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AckFrame {
    /// The acknowledged frame sequence number.
    pub seq: u64,
}

impl LinkPayload for AckFrame {
    fn entry_count(&self) -> usize {
        0
    }

    fn corrupt_entry(&mut self, _idx: usize, _variant: usize, _num_nodes: usize) {}
}

/// One payload in flight on a link.
#[derive(Debug, Clone)]
struct InFlight<T> {
    payload: T,
    /// First tick the payload may be collected.
    deliver_at: usize,
    /// Send-order id, for reorder accounting.
    id: u64,
}

/// A deterministic, seeded one-direction channel applying a [`LinkPlan`]
/// to payloads. Senders call [`LinkModel::send`] when traffic departs;
/// the receiver calls [`LinkModel::collect`] each tick to drain what has
/// arrived. All randomness comes from the model's own `StdRng`, so a run
/// is reproducible from the plan alone.
#[derive(Debug, Clone)]
pub struct LinkModel<T> {
    plan: LinkPlan,
    rng: StdRng,
    in_flight: Vec<InFlight<T>>,
    next_id: u64,
    max_delivered: Option<u64>,
    summary: LinkSummary,
}

impl<T: LinkPayload> LinkModel<T> {
    /// Creates the link for sending shard `shard`; each shard gets its
    /// own RNG stream derived from the plan seed, so results do not
    /// depend on how many other shards exist.
    pub fn new(plan: LinkPlan, shard: usize) -> Self {
        let seed = plan
            .seed
            .wrapping_add((shard as u64).wrapping_mul(SHARD_SEED_STRIDE));
        LinkModel {
            plan,
            rng: StdRng::seed_from_u64(seed),
            in_flight: Vec::new(),
            next_id: 0,
            max_delivered: None,
            summary: LinkSummary::default(),
        }
    }

    /// Like [`LinkModel::new`] but on the decorrelated reverse-channel
    /// seed stream, for ack links sharing a plan seed with the forward
    /// links.
    pub fn new_reverse(plan: LinkPlan, shard: usize) -> Self {
        let mut plan = plan;
        plan.seed = plan.seed.wrapping_add(ACK_SEED_OFFSET);
        LinkModel::new(plan, shard)
    }

    /// Puts a payload on the wire at tick `now`. Depending on the plan's
    /// draws it may be corrupted (per entry), lost, dropped on overflow,
    /// delayed, reordered behind later traffic, or duplicated. Draw order
    /// is fixed (corrupt → loss → delay/jitter → reorder → dup) and every
    /// draw is gated on its probability being nonzero, so disabled
    /// features never touch the RNG stream.
    pub fn send(&mut self, mut payload: T, now: usize, num_nodes: usize) {
        self.summary.sent += 1;
        if self.plan.corrupt_prob > 0.0 {
            for idx in 0..payload.entry_count() {
                if self.rng.gen::<f64>() < self.plan.corrupt_prob {
                    let variant = self.rng.gen_range(0..4usize);
                    payload.corrupt_entry(idx, variant, num_nodes);
                    self.summary.corrupted += 1;
                }
            }
        }
        if self.plan.loss_prob > 0.0 && self.rng.gen::<f64>() < self.plan.loss_prob {
            self.summary.lost += 1;
            return;
        }
        if self.plan.capacity > 0 && self.in_flight.len() >= self.plan.capacity {
            self.summary.overflowed += 1;
            return;
        }
        let deliver_at = now + self.draw_delay();
        let duplicate = self.plan.dup_prob > 0.0 && self.rng.gen::<f64>() < self.plan.dup_prob;
        if duplicate {
            // The copy draws its own delay, so the pair can straddle
            // ticks; it also occupies its own capacity slot.
            let copy_at = now + self.draw_delay();
            if self.plan.capacity == 0 || self.in_flight.len() + 1 < self.plan.capacity {
                self.summary.duplicated += 1;
                let id = self.next_id;
                self.next_id += 1;
                self.in_flight.push(InFlight {
                    payload: payload.clone(),
                    deliver_at: copy_at,
                    id,
                });
            } else {
                self.summary.overflowed += 1;
            }
        }
        let id = self.next_id;
        self.next_id += 1;
        self.in_flight.push(InFlight {
            payload,
            deliver_at,
            id,
        });
    }

    /// One delivery-delay draw: base latency, plus uniform jitter, plus
    /// the reorder penalty. The reorder penalty is 2 ticks because
    /// deliveries sort by `(deliver_at, send id)` — a +1 penalty would
    /// merely tie with the next tick's traffic and lose on send order.
    fn draw_delay(&mut self) -> usize {
        let mut delay = self.plan.delay_ticks;
        if self.plan.jitter_ticks > 0 {
            delay += self.rng.gen_range(0..=self.plan.jitter_ticks);
        }
        if self.plan.reorder_prob > 0.0 && self.rng.gen::<f64>() < self.plan.reorder_prob {
            delay += 2;
        }
        delay
    }

    /// Drains every payload whose delivery tick has arrived, in
    /// `(deliver_at, send id)` order, counting payloads that overtook
    /// earlier traffic as reordered.
    pub fn collect(&mut self, now: usize) -> Vec<T> {
        let mut due = Vec::new();
        let mut i = 0;
        while i < self.in_flight.len() {
            if self.in_flight[i].deliver_at <= now {
                due.push(self.in_flight.swap_remove(i));
            } else {
                i += 1;
            }
        }
        due.sort_by_key(|f| (f.deliver_at, f.id));
        for f in &due {
            self.summary.delivered += 1;
            if self.max_delivered.is_some_and(|m| f.id < m) {
                self.summary.reordered += 1;
            }
            self.max_delivered = Some(self.max_delivered.map_or(f.id, |m| m.max(f.id)));
        }
        due.into_iter().map(|f| f.payload).collect()
    }

    /// Whether nothing is in flight.
    pub fn is_idle(&self) -> bool {
        self.in_flight.is_empty()
    }

    /// The link's accounting so far.
    pub fn summary(&self) -> &LinkSummary {
        &self.summary
    }
}

/// Configuration of the frame path's delivery layer: the forward link the
/// frames cross, the reverse link the acks cross, and the ARQ policy at
/// the sending edge. The default is fully passthrough.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct DeliveryOptions {
    /// Shard → controller link the report frames cross.
    pub link: LinkPlan,
    /// Controller → shard link the acks cross.
    pub ack_link: LinkPlan,
    /// Ack-timeout / retransmission policy at the sending edge
    /// (`timeout == 0` disables retransmission; frames then carry no
    /// sequence numbers).
    pub arq: ArqConfig,
}

impl DeliveryOptions {
    /// The no-op configuration: perfect links, no retransmission.
    pub fn none() -> Self {
        DeliveryOptions::default()
    }

    /// Whether the delivery layer changes nothing — in which case the
    /// drivers skip it entirely and run the seed fast path, keeping
    /// healthy runs bit-identical *and* zero-cost.
    pub fn is_passthrough(&self) -> bool {
        self.link.is_perfect() && self.ack_link.is_perfect() && !self.arq.is_enabled()
    }

    /// Validates both link plans.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for probabilities outside
    /// `[0, 1]`.
    pub fn validate(&self) -> Result<(), SimError> {
        self.link.validate()?;
        self.ack_link.validate()
    }
}

/// The sending-edge + channel half of at-least-once frame delivery: one
/// forward [`LinkModel`] and one [`RetransmitQueue`] per sending shard,
/// plus the reverse ack links. The controller half — sequence dedup — is
/// [`crate::controller::Controller::tick_frames`].
///
/// Per-tick protocol, driven by the simulation drivers:
///
/// 1. each shard calls [`DeliveryPlane::submit`] with its tick frame
///    (acks are consumed and due retransmissions re-sent first);
/// 2. the controller drains [`DeliveryPlane::collect_into`] and ingests
///    the delivered frames with `tick_frames`;
/// 3. the controller acks every delivered frame via
///    [`DeliveryPlane::ack_delivered`].
#[derive(Debug)]
pub struct DeliveryPlane {
    forward: Vec<LinkModel<ReportFrame>>,
    reverse: Vec<LinkModel<AckFrame>>,
    queues: Vec<RetransmitQueue<ReportFrame>>,
    next_seq: Vec<u64>,
    arq_enabled: bool,
    retransmits: u64,
}

impl DeliveryPlane {
    /// Creates the plane for `shards` sending edges.
    pub fn new(shards: usize, options: &DeliveryOptions) -> Self {
        DeliveryPlane {
            forward: (0..shards)
                .map(|s| LinkModel::new(options.link, s))
                .collect(),
            reverse: (0..shards)
                .map(|s| LinkModel::new_reverse(options.ack_link, s))
                .collect(),
            queues: (0..shards)
                .map(|_| RetransmitQueue::new(options.arq))
                .collect(),
            next_seq: vec![0; shards],
            arq_enabled: options.arq.is_enabled(),
            retransmits: 0,
        }
    }

    /// Number of sending shards.
    pub fn shards(&self) -> usize {
        self.forward.len()
    }

    /// One shard's per-tick send: consume arrived acks, retransmit due
    /// frames, then put this tick's frame on the wire (sequence-numbered
    /// and tracked when ARQ is enabled). Pass `None` to run only the
    /// ack/retransmission half — e.g. drain ticks after the trace ends.
    // lint:allow(panic-path): fn-scope audit: index arithmetic is affine in
    // dimensions validated at the public boundary and restated by
    // debug_assert contracts; the overflow-checked debug-assert CI job
    // backstops the proof at runtime; exemplar chain:
    // simnet::link::DeliveryPlane::submit
    pub fn submit(
        &mut self,
        shard: usize,
        now: usize,
        frame: Option<&ReportFrame>,
        num_nodes: usize,
    ) {
        for ack in self.reverse[shard].collect(now) {
            // A duplicate or late ack simply finds nothing to remove.
            let _ = self.queues[shard].ack(ack.seq);
        }
        for (_, pending) in self.queues[shard].poll(now) {
            self.retransmits += 1;
            self.forward[shard].send(pending, now, num_nodes);
        }
        if let Some(frame) = frame {
            let mut outgoing = frame.clone();
            outgoing.set_source(shard);
            if self.arq_enabled {
                let seq = self.next_seq[shard];
                self.next_seq[shard] += 1;
                outgoing.set_seq(seq);
                self.queues[shard].track(seq, outgoing.clone(), now);
            }
            self.forward[shard].send(outgoing, now, num_nodes);
        }
    }

    /// Drains every frame arriving at the controller this tick into
    /// `out` (cleared first), shard by shard in shard order.
    pub fn collect_into(&mut self, now: usize, out: &mut Vec<ReportFrame>) {
        out.clear();
        for link in &mut self.forward {
            out.append(&mut link.collect(now));
        }
    }

    /// Acks every sequence-numbered frame in `delivered` back through the
    /// reverse links (the ack itself may be lost or delayed — that is
    /// what forces retransmissions and, in turn, duplicate deliveries).
    // lint:allow(panic-path): fn-scope audit: index arithmetic is affine in
    // dimensions validated at the public boundary and restated by
    // debug_assert contracts; the overflow-checked debug-assert CI job
    // backstops the proof at runtime; exemplar chain:
    // simnet::link::DeliveryPlane::ack_delivered
    pub fn ack_delivered(&mut self, delivered: &[ReportFrame], now: usize) {
        for frame in delivered {
            if let Some(seq) = frame.seq() {
                self.reverse[frame.source()].send(AckFrame { seq }, now, 0);
            }
        }
    }

    /// Whether every queue and link is empty — nothing in flight, nothing
    /// awaiting an ack.
    pub fn is_idle(&self) -> bool {
        self.queues.iter().all(RetransmitQueue::is_empty)
            && self.forward.iter().all(LinkModel::is_idle)
            && self.reverse.iter().all(LinkModel::is_idle)
    }

    /// Aggregate accounting: forward-link counters summed over shards,
    /// ack counters folded in from the reverse links, plus the ARQ edge's
    /// retransmit/abandon totals.
    pub fn summary(&self) -> LinkSummary {
        let mut s = LinkSummary::default();
        for link in &self.forward {
            s.merge(link.summary());
        }
        for link in &self.reverse {
            let ack = link.summary();
            s.acks_sent += ack.sent;
            s.acks_delivered += ack.delivered;
            s.acks_lost += ack.lost;
        }
        s.retransmits = self.retransmits;
        s.abandoned = self.queues.iter().map(RetransmitQueue::abandoned).sum();
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(t: usize, entries: &[(usize, f64)]) -> ReportFrame {
        let mut f = ReportFrame::new(1);
        f.reset(t);
        for &(n, v) in entries {
            f.push_scalar(n, v);
        }
        f
    }

    #[test]
    fn perfect_link_is_transparent_and_draws_nothing() {
        let mut a = LinkModel::<ReportFrame>::new(LinkPlan::perfect(), 0);
        let mut b = LinkModel::<ReportFrame>::new(LinkPlan::perfect(), 0);
        for t in 0..10 {
            let f = frame(t, &[(0, 0.5), (1, 0.25)]);
            a.send(f.clone(), t, 2);
            b.send(f.clone(), t, 2);
            assert_eq!(a.collect(t), vec![f.clone()]);
            assert_eq!(b.collect(t), vec![f]);
        }
        assert_eq!(a.summary(), b.summary());
        let s = a.summary();
        assert_eq!((s.sent, s.delivered), (10, 10));
        assert_eq!(
            (s.lost, s.corrupted, s.duplicated, s.reordered, s.overflowed),
            (0, 0, 0, 0, 0)
        );
    }

    #[test]
    fn loss_drops_frames_deterministically() {
        let plan = LinkPlan {
            loss_prob: 0.5,
            seed: 42,
            ..LinkPlan::perfect()
        };
        let run = || {
            let mut link = LinkModel::<ReportFrame>::new(plan, 0);
            let mut delivered = 0u64;
            for t in 0..200 {
                link.send(frame(t, &[(0, 0.5)]), t, 1);
                delivered += link.collect(t).len() as u64;
            }
            (delivered, *link.summary())
        };
        let (d1, s1) = run();
        let (d2, s2) = run();
        assert_eq!(d1, d2, "same seed, same outcome");
        assert_eq!(s1, s2);
        assert!(s1.lost > 50 && s1.lost < 150, "lost {}", s1.lost);
        assert_eq!(s1.delivered + s1.lost, s1.sent);
    }

    #[test]
    fn delay_holds_frames_for_the_configured_ticks() {
        let plan = LinkPlan {
            delay_ticks: 3,
            ..LinkPlan::perfect()
        };
        let mut link = LinkModel::<ReportFrame>::new(plan, 0);
        link.send(frame(0, &[(0, 0.5)]), 0, 1);
        for t in 0..3 {
            assert!(link.collect(t).is_empty(), "arrived early at t={t}");
        }
        let got = link.collect(3);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].t(), 0, "payload unchanged by the delay");
        assert!(link.is_idle());
    }

    #[test]
    fn duplication_delivers_twice() {
        let plan = LinkPlan {
            dup_prob: 1.0,
            seed: 7,
            ..LinkPlan::perfect()
        };
        let mut link = LinkModel::<ReportFrame>::new(plan, 0);
        link.send(frame(0, &[(0, 0.5)]), 0, 1);
        let got = link.collect(0);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0], got[1]);
        assert_eq!(link.summary().duplicated, 1);
        assert_eq!(link.summary().delivered, 2);
    }

    #[test]
    fn reordering_is_counted_at_delivery() {
        let plan = LinkPlan {
            reorder_prob: 1.0,
            seed: 3,
            ..LinkPlan::perfect()
        };
        let mut link = LinkModel::<ReportFrame>::new(plan, 0);
        // Frame A at t=0 is reordered (+2); frame B at t=1 also gets +2 so
        // neither overtakes. Send B through a second, reorder-free link to
        // see real overtaking instead: simpler to check the first link's
        // accounting with interleaved clean traffic.
        link.send(frame(0, &[(0, 0.1)]), 0, 1);
        assert!(link.collect(0).is_empty());
        assert!(link.collect(1).is_empty());
        let got = link.collect(2);
        assert_eq!(got.len(), 1);
        // One sender, all frames penalized: arrival order preserved.
        assert_eq!(link.summary().reordered, 0);

        // Mixed traffic: only the first frame is reordered.
        let mut mixed = LinkModel::<ReportFrame>::new(
            LinkPlan {
                reorder_prob: 0.5,
                seed: 0,
                ..LinkPlan::perfect()
            },
            0,
        );
        let mut reordered_seen = false;
        for t in 0..400 {
            mixed.send(frame(t, &[(0, 0.5)]), t, 1);
            let _ = mixed.collect(t);
            if mixed.summary().reordered > 0 {
                reordered_seen = true;
                break;
            }
        }
        assert!(reordered_seen, "0.5 reorder probability never overtook");
    }

    #[test]
    fn capacity_bounds_in_flight_frames() {
        let plan = LinkPlan {
            delay_ticks: 10,
            capacity: 2,
            ..LinkPlan::perfect()
        };
        let mut link = LinkModel::<ReportFrame>::new(plan, 0);
        for _ in 0..5 {
            link.send(frame(0, &[(0, 0.5)]), 0, 1);
        }
        assert_eq!(link.summary().overflowed, 3);
        assert_eq!(link.collect(10).len(), 2);
    }

    #[test]
    fn shard_streams_are_independent_of_shard_count() {
        let plan = LinkPlan {
            loss_prob: 0.3,
            seed: 5,
            ..LinkPlan::perfect()
        };
        // Shard 2's channel behaves identically whether it is one of 3 or
        // one of 8 — its stream derives from (seed, shard) alone.
        let mut a = LinkModel::<ReportFrame>::new(plan, 2);
        let mut b = LinkModel::<ReportFrame>::new(plan, 2);
        for t in 0..100 {
            a.send(frame(t, &[(0, 0.5)]), t, 1);
            b.send(frame(t, &[(0, 0.5)]), t, 1);
        }
        assert_eq!(a.summary(), b.summary());
    }

    #[test]
    fn delivery_plane_retransmits_until_acked() {
        // 100% forward loss for the first send is impossible to express
        // directly; use heavy loss and assert the ARQ keeps every frame
        // flowing eventually (exactly-once admission is proven end-to-end
        // in the chaos suite; here we check the plane's mechanics).
        let options = DeliveryOptions {
            link: LinkPlan {
                loss_prob: 0.5,
                seed: 17,
                ..LinkPlan::perfect()
            },
            ack_link: LinkPlan::perfect(),
            arq: ArqConfig {
                timeout: 2,
                backoff_cap: 3,
                max_retransmits: 30,
            },
        };
        let mut plane = DeliveryPlane::new(1, &options);
        let mut inbox = Vec::new();
        let mut seqs_delivered = Vec::new();
        let ticks = 40usize;
        for t in 0..ticks {
            plane.submit(0, t, Some(&frame(t, &[(0, 0.5)])), 1);
            plane.collect_into(t, &mut inbox);
            for f in &inbox {
                seqs_delivered.push(f.seq().unwrap());
            }
            let acked: Vec<ReportFrame> = inbox.clone();
            plane.ack_delivered(&acked, t);
        }
        // Drain: keep running ack/retransmit rounds with no new traffic.
        let mut t = ticks;
        while !plane.is_idle() && t < ticks + 600 {
            plane.submit(0, t, None, 1);
            plane.collect_into(t, &mut inbox);
            for f in &inbox {
                seqs_delivered.push(f.seq().unwrap());
            }
            let acked: Vec<ReportFrame> = inbox.clone();
            plane.ack_delivered(&acked, t);
            t += 1;
        }
        let summary = plane.summary();
        assert!(summary.retransmits > 0, "50% loss must force retransmits");
        seqs_delivered.sort_unstable();
        seqs_delivered.dedup();
        // Every sequence number was eventually delivered at least once
        // (none abandoned with a 30-retransmit budget at 50% loss).
        assert_eq!(summary.abandoned, 0);
        assert_eq!(seqs_delivered, (0..ticks as u64).collect::<Vec<_>>());
    }

    #[test]
    fn invalid_link_probabilities_rejected() {
        for plan in [
            LinkPlan {
                loss_prob: 1.5,
                ..LinkPlan::perfect()
            },
            LinkPlan {
                corrupt_prob: -0.1,
                ..LinkPlan::perfect()
            },
            LinkPlan {
                dup_prob: 2.0,
                ..LinkPlan::perfect()
            },
        ] {
            assert!(plan.validate().is_err());
        }
        assert!(LinkPlan::perfect().validate().is_ok());
        assert!(LinkPlan::perfect().is_perfect());
        assert!(!LinkPlan {
            delay_ticks: 1,
            ..LinkPlan::perfect()
        }
        .is_perfect());
    }
}
