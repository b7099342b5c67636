//! Adaptive measurement transmission (Sec. V-A).
//!
//! Each local node decides online whether to push its current measurement
//! `x_{i,t}` to the controller, subject to a long-run transmission-frequency
//! budget `B_i`. The rule is the drift-plus-penalty form of Lyapunov
//! optimization: a virtual queue `Q_i(t)` accumulates constraint violation
//! `β_{i,t} − B_i`, and the node picks the action minimizing
//! `V_t · F_{i,t}(β) + Q_i(t) · (β − B_i)` where the penalty
//! `F_{i,t}(β)` is the squared error of the stale copy held at the
//! controller (zero when transmitting) and `V_t = V_0 (t+1)^γ` grows over
//! time so long-run average error dominates once the queue is stable.

use serde::{Deserialize, Serialize};

/// Parameters of the adaptive transmission policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TransmitConfig {
    /// Maximum long-run transmission frequency `B` in `(0, 1]`.
    pub budget: f64,
    /// Initial penalty weight `V_0` (the paper uses `1e-12`).
    pub v0: f64,
    /// Penalty growth exponent `γ ∈ (0, 1)` (the paper uses `0.65`).
    pub gamma: f64,
}

impl Default for TransmitConfig {
    fn default() -> Self {
        TransmitConfig {
            budget: 0.3,
            v0: 1.0,
            gamma: 0.65,
        }
    }
}

impl TransmitConfig {
    /// Creates a config with the default control parameters and the given
    /// budget.
    ///
    /// The default `V_0 = 1` is calibrated for **unit-normalized**
    /// measurements over horizons of 10³–10⁴ steps, where it makes the
    /// error term `V_t · F` comparable to the queue term so the policy
    /// genuinely prioritizes high-error moments. See
    /// [`TransmitConfig::paper_params`] for the paper's literal values.
    ///
    /// # Panics
    ///
    /// Panics if `budget` is not within `(0, 1]`.
    pub fn with_budget(budget: f64) -> Self {
        assert!(
            budget > 0.0 && budget <= 1.0,
            "budget must be within (0, 1], got {budget}"
        );
        TransmitConfig {
            budget,
            ..Default::default()
        }
    }

    /// The control parameters reported in the paper (Sec. VI-A2):
    /// `V_0 = 10⁻¹²`, `γ = 0.65`.
    ///
    /// With unit-normalized data and horizons up to ~10⁴ steps, such a tiny
    /// `V_0` makes `V_t · F` negligible against the queue term, so the
    /// decision degenerates to a near-periodic schedule at exactly the
    /// budget frequency — frequency tracking (Fig. 3) reproduces perfectly,
    /// but the error-adaptivity (Fig. 4) needs a `V_0` scaled to the data;
    /// hence the larger default. Documented in EXPERIMENTS.md.
    pub fn paper_params(budget: f64) -> Self {
        assert!(
            budget > 0.0 && budget <= 1.0,
            "budget must be within (0, 1], got {budget}"
        );
        TransmitConfig {
            budget,
            v0: 1e-12,
            gamma: 0.65,
        }
    }
}

/// Per-node adaptive transmitter implementing the Lyapunov rule.
///
/// # Example
///
/// ```
/// use utilcast_core::transmit::{AdaptiveTransmitter, TransmitConfig};
///
/// let mut tx = AdaptiveTransmitter::new(TransmitConfig::with_budget(0.5));
/// let mut stored = vec![0.0];
/// let mut sent = 0usize;
/// for t in 0..1000 {
///     let x = vec![(t as f64 * 0.05).sin().abs()];
///     if tx.decide(&x, &stored) {
///         stored = x;
///         sent += 1;
///     }
/// }
/// // Long-run frequency respects the budget (with small slack for finite T).
/// assert!((sent as f64 / 1000.0) < 0.6);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveTransmitter {
    config: TransmitConfig,
    /// Virtual queue length `Q_i(t)`.
    queue: f64,
    /// Current time step (1-based, incremented per decision).
    t: u64,
    /// Total transmissions so far.
    sent: u64,
}

impl AdaptiveTransmitter {
    /// Creates a transmitter with `Q(1) = 0`.
    pub fn new(config: TransmitConfig) -> Self {
        AdaptiveTransmitter {
            config,
            queue: 0.0,
            t: 0,
            sent: 0,
        }
    }

    /// Decides whether to transmit at this time step.
    ///
    /// `current` is the node's fresh measurement `x_{i,t}`; `stored` is the
    /// copy the controller currently holds (`z_{i,t-}`, i.e. the last
    /// transmitted value). Returns `true` when the node should transmit;
    /// the caller is responsible for actually updating the stored copy.
    ///
    /// # Panics
    ///
    /// Panics if `current` and `stored` have different lengths or are empty.
    pub fn decide(&mut self, current: &[f64], stored: &[f64]) -> bool {
        assert_eq!(
            current.len(),
            stored.len(),
            "measurement dimensionality mismatch"
        );
        assert!(!current.is_empty(), "measurements must be non-empty");
        let vt = self.config.v0 * ((self.t + 2) as f64).powf(self.config.gamma);
        self.t += 1;
        let d = current.len() as f64;
        // F(β=0): mean squared staleness error; F(β=1) = 0.
        let err: f64 = current
            .iter()
            .zip(stored)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            / d;
        // Objective(β=0) = Vt * err + Q * (0 - B)
        // Objective(β=1) = 0        + Q * (1 - B)
        // Transmit iff Obj(1) < Obj(0), which simplifies to Q < Vt * err.
        // Ties break towards not transmitting (argmin prefers β = 0), so a
        // node whose measurement is perfectly mirrored at the controller
        // (err = 0) holds off while its queue is non-negative.
        let beta = self.queue < vt * err;
        // Paper Eq. (9): plain additive update, no clamping — the queue is
        // *signed*. A node banks credit (Q < 0) during quiet periods and
        // spends it in bursts when the data changes; the long-run frequency
        // still converges to B because Q(t)/t -> 0.
        self.queue += if beta { 1.0 } else { 0.0 } - self.config.budget;
        // Runtime invariant (paper Sec. V-A, adapted): the clamped queue of
        // the paper satisfies Q(t) >= 0; this repo's signed Eq. (9) variant
        // banks credit instead, so its invariant is the exact band
        // -B*t <= Q(t) <= (1-B)*t (every step adds beta - B, beta in {0,1}).
        // A queue outside the band (or non-finite) means the Lyapunov
        // update was corrupted, which would silently destroy the long-run
        // budget guarantee.
        debug_assert!(
            self.queue.is_finite(),
            "virtual queue went non-finite at step {}",
            self.t
        );
        debug_assert!(
            self.queue >= -(self.config.budget * self.t as f64) - 1e-6
                && self.queue <= (1.0 - self.config.budget) * self.t as f64 + 1e-6,
            "virtual queue {} outside [-B*t, (1-B)*t] at step {}",
            self.queue,
            self.t
        );
        if beta {
            self.sent += 1;
        }
        beta
    }

    /// The configuration.
    pub fn config(&self) -> TransmitConfig {
        self.config
    }

    /// Current virtual-queue length `Q(t)`.
    pub fn queue(&self) -> f64 {
        self.queue
    }

    /// Number of decisions made so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Number of transmissions so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Empirical transmission frequency so far (`0` before any decision).
    pub fn frequency(&self) -> f64 {
        if self.t == 0 {
            0.0
        } else {
            self.sent as f64 / self.t as f64
        }
    }
}

/// Structure-of-arrays state for a whole shard of adaptive transmitters
/// stepped in lockstep.
///
/// Semantically a `Vec<AdaptiveTransmitter>` driven one tick at a time,
/// but laid out as flat parallel arrays (virtual queues, send counters,
/// one shared clock) so a fleet driver's decision pass is a single
/// cache-friendly sweep: the penalty weight `V_t` is computed **once** per
/// tick instead of one `powf` per node, and no per-node slices or
/// allocations are touched.
///
/// The per-element arithmetic replicates [`AdaptiveTransmitter::decide`]
/// operation for operation, so a bank is bit-identical to a fleet of
/// per-node transmitters over any trace (property-tested in
/// `tests/bank_parity.rs`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransmitterBank {
    config: TransmitConfig,
    width: usize,
    /// Virtual queue `Q_i(t)` per node.
    queues: Vec<f64>,
    /// Transmissions so far per node.
    sent: Vec<u64>,
    /// Shared clock: every node in the bank has made `t` decisions.
    t: u64,
    /// Total transmissions across the bank.
    total_sent: u64,
}

impl TransmitterBank {
    /// Creates a bank of `n` scalar (`width == 1`) transmitters with
    /// `Q(1) = 0`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(config: TransmitConfig, n: usize) -> Self {
        TransmitterBank::with_width(config, n, 1)
    }

    /// Creates a bank of `n` transmitters carrying `width`-dimensional
    /// measurements.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `width == 0`.
    pub fn with_width(config: TransmitConfig, n: usize, width: usize) -> Self {
        assert!(n > 0, "bank must hold at least one transmitter");
        assert!(width > 0, "measurements must be non-empty");
        TransmitterBank {
            config,
            width,
            queues: vec![0.0; n],
            sent: vec![0; n],
            t: 0,
            total_sent: 0,
        }
    }

    /// Runs one decision tick for every node against the controller's
    /// stored values `zs` (row-major, `len() * width()` values), writing
    /// per-node decisions into `out` (cleared first; recycled across ticks
    /// by the caller). The caller stores what was sent: the controller is
    /// the source of truth for `z` (and may regress on crash-restore).
    ///
    /// # Panics
    ///
    /// Panics if `xs` or `zs` have the wrong length.
    pub fn decide_batch_against(&mut self, xs: &[f64], zs: &[f64], out: &mut Vec<bool>) {
        let n = self.queues.len();
        assert_eq!(
            xs.len(),
            n * self.width,
            "measurement dimensionality mismatch"
        );
        assert_eq!(zs.len(), n * self.width, "stored dimensionality mismatch");
        out.clear();
        out.reserve(n);
        // Same expression as the per-node path: V_t from the pre-increment
        // clock, computed once because every node shares it, then one
        // shared increment for the whole bank.
        let vt = self.config.v0 * ((self.t + 2) as f64).powf(self.config.gamma);
        self.t += 1;
        let d = self.width as f64;
        let budget = self.config.budget;
        let rows = xs.chunks_exact(self.width).zip(zs.chunks_exact(self.width));
        for ((queue, sent), (x, z)) in self.queues.iter_mut().zip(self.sent.iter_mut()).zip(rows) {
            // Width 1: a one-term sum `/ 1.0` is the term, bit for bit.
            let err: f64 = match (x, z) {
                ([a], [b]) => (a - b) * (a - b),
                _ => x.iter().zip(z).map(|(a, b)| (a - b) * (a - b)).sum::<f64>() / d,
            };
            let beta = *queue < vt * err;
            *queue += if beta { 1.0 } else { 0.0 } - budget;
            debug_assert!(
                queue.is_finite(),
                "virtual queue went non-finite at step {}",
                self.t
            );
            debug_assert!(
                *queue >= -(budget * self.t as f64) - 1e-6
                    && *queue <= (1.0 - budget) * self.t as f64 + 1e-6,
                "virtual queue {} outside [-B*t, (1-B)*t] at step {}",
                queue,
                self.t
            );
            if beta {
                *sent += 1;
                self.total_sent += 1;
            }
            out.push(beta);
        }
    }

    /// The configuration shared by every node in the bank.
    pub fn config(&self) -> TransmitConfig {
        self.config
    }

    /// Number of transmitters in the bank.
    pub fn len(&self) -> usize {
        self.queues.len()
    }

    /// Whether the bank is empty (never true: construction requires
    /// `n > 0`).
    pub fn is_empty(&self) -> bool {
        self.queues.is_empty()
    }

    /// Values per measurement.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Decisions made so far (shared across all nodes).
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Per-node virtual-queue lengths `Q_i(t)`.
    pub fn queues(&self) -> &[f64] {
        &self.queues
    }

    /// Per-node transmission counts.
    pub fn sent_counts(&self) -> &[u64] {
        &self.sent
    }

    /// Total transmissions across the bank.
    pub fn total_sent(&self) -> u64 {
        self.total_sent
    }

    /// Bank-wide empirical transmission frequency so far (`0` before any
    /// decision).
    pub fn frequency(&self) -> f64 {
        if self.t == 0 {
            0.0
        } else {
            self.total_sent as f64 / (self.t as f64 * self.queues.len() as f64)
        }
    }
}

/// Uniform-sampling baseline: transmits at a fixed interval so that the
/// average frequency equals the budget (Sec. VI-B's comparison baseline).
///
/// With budget `B`, the node transmits at every step `t` where
/// `floor(t·B) > floor((t-1)·B)` — the standard error-diffusion schedule
/// that realizes any rational frequency exactly in the long run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UniformTransmitter {
    budget: f64,
    t: u64,
    accum: f64,
    sent: u64,
}

impl UniformTransmitter {
    /// Creates the baseline with the given frequency budget.
    ///
    /// # Panics
    ///
    /// Panics if `budget` is not within `(0, 1]`.
    pub fn new(budget: f64) -> Self {
        assert!(
            budget > 0.0 && budget <= 1.0,
            "budget must be within (0, 1], got {budget}"
        );
        UniformTransmitter {
            budget,
            t: 0,
            accum: 0.0,
            sent: 0,
        }
    }

    /// Decides whether to transmit at this step (data-independent).
    pub fn decide(&mut self) -> bool {
        self.t += 1;
        self.accum += self.budget;
        if self.accum >= 1.0 {
            self.accum -= 1.0;
            self.sent += 1;
            true
        } else {
            false
        }
    }

    /// Empirical transmission frequency so far.
    pub fn frequency(&self) -> f64 {
        if self.t == 0 {
            0.0
        } else {
            self.sent as f64 / self.t as f64
        }
    }
}

/// Automatic-repeat-request parameters for the delivery layer at the
/// transmitter edge: how long to wait for an ack before retransmitting,
/// how the wait grows, and when to give up.
///
/// The backoff is *deterministic* (no random jitter): the `i`-th
/// retransmission of a payload waits `timeout · 2^min(i, backoff_cap)`
/// ticks. Determinism matters here for the same reason it does everywhere
/// else in the stack — a retransmission schedule driven by anything but
/// counters would break bit-identical replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArqConfig {
    /// Ticks to wait for an ack before the first retransmission.
    /// `0` disables retransmission entirely (fire-and-forget).
    pub timeout: usize,
    /// Cap on the exponential-backoff doubling exponent, so the wait never
    /// exceeds `timeout << backoff_cap` ticks.
    pub backoff_cap: u32,
    /// Retransmissions allowed per payload before it is abandoned.
    pub max_retransmits: u32,
}

impl Default for ArqConfig {
    fn default() -> Self {
        ArqConfig {
            timeout: 0,
            backoff_cap: 4,
            max_retransmits: 16,
        }
    }
}

impl ArqConfig {
    /// Whether retransmission is enabled at all.
    pub fn is_enabled(&self) -> bool {
        self.timeout > 0
    }
}

/// One unacked payload tracked by a [`RetransmitQueue`].
#[derive(Debug, Clone)]
struct PendingSend<T> {
    seq: u64,
    payload: T,
    /// Retransmissions performed so far.
    attempts: u32,
    /// Tick at which the next retransmission is due.
    resend_at: usize,
}

/// The sender half of an at-least-once delivery layer: tracks
/// sequence-numbered payloads until they are acknowledged, surfacing the
/// ones whose ack timeout (with deterministic exponential backoff, see
/// [`ArqConfig`]) has expired so the caller can retransmit them.
///
/// The queue is payload-generic so the simnet frame path and tests can
/// reuse one implementation; it never touches a clock — the caller passes
/// the current tick into [`RetransmitQueue::track`] and
/// [`RetransmitQueue::poll`].
#[derive(Debug, Clone)]
pub struct RetransmitQueue<T> {
    config: ArqConfig,
    pending: Vec<PendingSend<T>>,
    abandoned: u64,
}

impl<T: Clone> RetransmitQueue<T> {
    /// Creates an empty queue with the given ARQ parameters.
    pub fn new(config: ArqConfig) -> Self {
        RetransmitQueue {
            config,
            pending: Vec::new(),
            abandoned: 0,
        }
    }

    /// Starts tracking a freshly sent payload. No-op when retransmission
    /// is disabled (`timeout == 0`).
    pub fn track(&mut self, seq: u64, payload: T, now: usize) {
        if !self.config.is_enabled() {
            return;
        }
        self.pending.push(PendingSend {
            seq,
            payload,
            attempts: 0,
            resend_at: now + self.config.timeout,
        });
    }

    /// Acknowledges a sequence number, dropping its pending entry.
    /// Returns whether the entry was still tracked (a duplicate ack
    /// returns `false`).
    pub fn ack(&mut self, seq: u64) -> bool {
        match self.pending.iter().position(|p| p.seq == seq) {
            Some(idx) => {
                self.pending.remove(idx);
                true
            }
            None => false,
        }
    }

    /// Collects every payload whose ack timeout has expired at tick `now`,
    /// advancing its backoff schedule. Payloads past `max_retransmits`
    /// are dropped and counted as abandoned instead of returned.
    ///
    /// Returned clones are in sequence order (the retransmission order the
    /// caller should put them on the wire in).
    pub fn poll(&mut self, now: usize) -> Vec<(u64, T)> {
        let mut due = Vec::new();
        let config = self.config;
        let mut abandoned = 0u64;
        self.pending.retain_mut(|p| {
            if p.resend_at > now {
                return true;
            }
            if p.attempts >= config.max_retransmits {
                abandoned += 1;
                return false;
            }
            p.attempts += 1;
            let wait = config
                .timeout
                .saturating_mul(1usize << p.attempts.min(config.backoff_cap));
            p.resend_at = now + wait.max(1);
            due.push((p.seq, p.payload.clone()));
            true
        });
        self.abandoned += abandoned;
        due.sort_by_key(|&(seq, _)| seq);
        due
    }

    /// Sequence numbers still awaiting an ack.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether nothing is awaiting an ack.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Payloads dropped after exhausting their retransmission budget.
    pub fn abandoned(&self) -> u64 {
        self.abandoned
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use utilcast_linalg::rng::standard_normal;

    /// Drives a transmitter over a noisy series, returning the realized
    /// frequency.
    fn run_adaptive(budget: f64, steps: usize, seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tx = AdaptiveTransmitter::new(TransmitConfig::with_budget(budget));
        let mut stored = vec![0.0];
        let mut x = 0.5;
        for _ in 0..steps {
            x = (x + 0.05 * standard_normal(&mut rng)).clamp(0.0, 1.0);
            if tx.decide(&[x], &stored) {
                stored = vec![x];
            }
        }
        tx.frequency()
    }

    #[test]
    fn frequency_tracks_budget() {
        // Fig. 3's property: realized frequency matches the requested one.
        for &b in &[0.05, 0.1, 0.3, 0.5] {
            let f = run_adaptive(b, 5000, 7);
            assert!(
                (f - b).abs() < 0.05 * b.max(0.1) + 0.02,
                "budget {b}: realized {f}"
            );
        }
    }

    #[test]
    fn budget_one_always_transmits_under_changing_data() {
        let mut tx = AdaptiveTransmitter::new(TransmitConfig::with_budget(1.0));
        let mut stored = vec![0.0];
        let mut sent = 0;
        for t in 0..100 {
            let x = vec![t as f64];
            if tx.decide(&x, &stored) {
                stored = x;
                sent += 1;
            }
        }
        // With B = 1 the queue term never penalizes transmission.
        assert!(sent >= 99, "sent {sent}");
    }

    #[test]
    fn constant_data_stays_at_budget() {
        // With the paper's signed queue, even perfectly constant data is
        // transmitted at the budget rate in the long run (more transmissions
        // never hurt RMSE, and banked credit is spent once Q < 0); the
        // important property is that it never *exceeds* the budget.
        let mut tx = AdaptiveTransmitter::new(TransmitConfig::with_budget(0.3));
        let stored = vec![0.5];
        for _ in 0..1000 {
            let _ = tx.decide(&[0.5], &stored);
        }
        let f = tx.frequency();
        assert!(f <= 0.3 + 1e-9, "freq {f}");
        assert!((f - 0.3).abs() < 0.01, "freq {f}");
    }

    #[test]
    fn first_step_of_constant_data_holds_off() {
        // At Q = 0 with zero error the argmin tie breaks to β = 0.
        let mut tx = AdaptiveTransmitter::new(TransmitConfig::with_budget(0.3));
        assert!(!tx.decide(&[0.5], &[0.5]));
    }

    #[test]
    fn transmits_on_large_change() {
        let mut tx = AdaptiveTransmitter::new(TransmitConfig::with_budget(0.3));
        // Warm the queue with constant data.
        let stored = vec![0.0];
        for _ in 0..50 {
            let _ = tx.decide(&[0.0], &stored);
        }
        // A large jump makes Vt * err dominate any queue backlog.
        assert!(tx.decide(&[1.0], &stored));
    }

    #[test]
    fn sent_count_identity() {
        // Exact invariant of the signed queue: sent = B*T + Q(T+1), so the
        // frequency deviates from B by exactly Q(T)/T.
        let mut rng = StdRng::seed_from_u64(3);
        let budget = 0.2;
        let mut tx = AdaptiveTransmitter::new(TransmitConfig::with_budget(budget));
        let mut stored = vec![0.0];
        for _ in 0..2000 {
            let x = vec![standard_normal(&mut rng)];
            if tx.decide(&x, &stored) {
                stored = x;
            }
            let identity = budget * tx.steps() as f64 + tx.queue();
            assert!(
                (tx.sent() as f64 - identity).abs() < 1e-6,
                "sent {} vs identity {identity}",
                tx.sent()
            );
        }
    }

    #[test]
    fn frequency_converges_for_bounded_utilization_data() {
        // On unit-range utilization-like data the queue stays small relative
        // to T, so the finite-horizon frequency lands near the budget.
        let mut rng = StdRng::seed_from_u64(5);
        let budget = 0.3;
        let mut tx = AdaptiveTransmitter::new(TransmitConfig::with_budget(budget));
        let mut stored = vec![0.5];
        let mut x = 0.5f64;
        for _ in 0..5000 {
            x = (x + 0.02 * standard_normal(&mut rng)).clamp(0.0, 1.0);
            if tx.decide(&[x], &stored) {
                stored = vec![x];
            }
        }
        let f = tx.frequency();
        assert!((f - budget).abs() < 0.05, "freq {f}");
    }

    #[test]
    fn bank_matches_per_node_fleet_bitwise() {
        // Smoke version of the tests/bank_parity.rs proptest suite: a bank
        // and a fleet of per-node transmitters driven over the same noisy
        // trace agree on every decision, queue, and counter, bit for bit.
        let mut rng = StdRng::seed_from_u64(21);
        let n = 17;
        let config = TransmitConfig::with_budget(0.3);
        let mut fleet: Vec<_> = (0..n).map(|_| AdaptiveTransmitter::new(config)).collect();
        let mut bank = TransmitterBank::new(config, n);
        let mut zs = vec![0.5; n];
        let mut xs = vec![0.0; n];
        let mut decisions = Vec::new();
        for _ in 0..300 {
            for x in xs.iter_mut() {
                *x = (0.5 + 0.1 * standard_normal(&mut rng)).clamp(0.0, 1.0);
            }
            bank.decide_batch_against(&xs, &zs, &mut decisions);
            for (i, tr) in fleet.iter_mut().enumerate() {
                let d = tr.decide(&[xs[i]], &[zs[i]]);
                assert_eq!(d, decisions[i]);
            }
            for (i, &d) in decisions.iter().enumerate() {
                if d {
                    zs[i] = xs[i];
                }
            }
        }
        for (i, tr) in fleet.iter().enumerate() {
            assert!(tr.queue().to_bits() == bank.queues()[i].to_bits());
            assert_eq!(tr.sent(), bank.sent_counts()[i]);
            assert_eq!(tr.steps(), bank.steps());
        }
        let fleet_sent: u64 = fleet.iter().map(|t| t.sent()).sum();
        assert_eq!(fleet_sent, bank.total_sent());
    }

    #[test]
    #[should_panic(expected = "measurement dimensionality mismatch")]
    fn bank_rejects_wrong_length() {
        let mut bank = TransmitterBank::new(TransmitConfig::default(), 4);
        let mut out = Vec::new();
        bank.decide_batch_against(&[0.0; 3], &[0.0; 4], &mut out);
    }

    #[test]
    fn uniform_realizes_exact_rational_frequency() {
        let mut tx = UniformTransmitter::new(0.25);
        let mut pattern = Vec::new();
        for _ in 0..8 {
            pattern.push(tx.decide());
        }
        assert_eq!(pattern.iter().filter(|&&b| b).count(), 2);
        assert!((tx.frequency() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn uniform_handles_irrational_like_budgets() {
        let mut tx = UniformTransmitter::new(0.3);
        for _ in 0..10_000 {
            tx.decide();
        }
        assert!((tx.frequency() - 0.3).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "budget must be within (0, 1]")]
    fn rejects_zero_budget() {
        let _ = UniformTransmitter::new(0.0);
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn rejects_dimension_mismatch() {
        let mut tx = AdaptiveTransmitter::new(TransmitConfig::default());
        let _ = tx.decide(&[1.0, 2.0], &[1.0]);
    }

    #[test]
    fn adaptive_beats_uniform_on_bursty_data() {
        // The core claim of Fig. 4: for the same budget, adaptive
        // transmission yields lower staleness RMSE than uniform sampling on
        // data whose volatility varies over time.
        let mut rng = StdRng::seed_from_u64(11);
        let steps = 4000;
        // Bursty series: long quiet stretches + volatile bursts.
        let mut series = Vec::with_capacity(steps);
        let mut x: f64 = 0.5;
        for t in 0..steps {
            let vol = if (t / 200) % 4 == 0 { 0.08 } else { 0.003 };
            x = (x + vol * standard_normal(&mut rng)).clamp(0.0, 1.0);
            series.push(x);
        }
        let budget = 0.2;
        let mut ada = AdaptiveTransmitter::new(TransmitConfig::with_budget(budget));
        let mut uni = UniformTransmitter::new(budget);
        let (mut za, mut zu) = (series[0], series[0]);
        let (mut sse_a, mut sse_u) = (0.0, 0.0);
        for &v in &series {
            if ada.decide(&[v], &[za]) {
                za = v;
            }
            if uni.decide() {
                zu = v;
            }
            sse_a += (v - za) * (v - za);
            sse_u += (v - zu) * (v - zu);
        }
        assert!(
            sse_a < sse_u,
            "adaptive SSE {sse_a} should beat uniform SSE {sse_u}"
        );
        // And it must respect the budget.
        assert!(ada.frequency() <= budget + 0.02, "freq {}", ada.frequency());
    }

    #[test]
    fn retransmit_queue_resends_until_acked() {
        let mut q = RetransmitQueue::new(ArqConfig {
            timeout: 2,
            backoff_cap: 4,
            max_retransmits: 16,
        });
        q.track(0, "a", 0);
        q.track(1, "b", 0);
        assert!(q.poll(1).is_empty(), "timeout has not expired at tick 1");
        // Both expire at tick 2, in sequence order.
        let due = q.poll(2);
        assert_eq!(due.iter().map(|&(s, _)| s).collect::<Vec<_>>(), [0, 1]);
        // Ack one; only the other keeps retransmitting. After one attempt
        // the backoff doubles to 4 ticks (due again at tick 6).
        assert!(q.ack(0));
        assert!(!q.ack(0), "duplicate ack is reported as unknown");
        assert!(q.poll(5).is_empty());
        let due = q.poll(6);
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].0, 1);
        assert!(q.ack(1));
        assert!(q.is_empty());
        assert_eq!(q.abandoned(), 0);
    }

    #[test]
    fn retransmit_queue_abandons_after_budget() {
        let mut q = RetransmitQueue::new(ArqConfig {
            timeout: 1,
            backoff_cap: 0,
            max_retransmits: 2,
        });
        q.track(7, 42u32, 0);
        assert_eq!(q.poll(1).len(), 1);
        assert_eq!(q.poll(3).len(), 1);
        // Third expiry exceeds max_retransmits: dropped, not returned.
        assert!(q.poll(10).is_empty());
        assert!(q.is_empty());
        assert_eq!(q.abandoned(), 1);
    }

    #[test]
    fn retransmit_queue_disabled_tracks_nothing() {
        let mut q = RetransmitQueue::new(ArqConfig::default());
        assert!(!q.config.is_enabled());
        q.track(0, (), 0);
        assert!(q.is_empty());
        assert!(q.poll(100).is_empty());
    }
}
