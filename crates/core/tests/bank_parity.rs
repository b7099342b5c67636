//! Property-based parity suite: the SoA [`TransmitterBank`] must be
//! bit-identical to a fleet of per-node [`AdaptiveTransmitter`]s for any
//! configuration and input trace — decisions, queue backlogs (compared via
//! `to_bits`), send counters, and clocks all match exactly. Each side keeps
//! its own copy of the stored values, updated on send, as the controller
//! does for the bank.

use proptest::prelude::*;
use utilcast_core::transmit::{AdaptiveTransmitter, TransmitConfig, TransmitterBank};

/// Drives both implementations over the same width-1 trace and checks
/// every observable at every step.
fn assert_parity_scalar(config: TransmitConfig, trace: &[Vec<f64>]) -> Result<(), TestCaseError> {
    let n = trace[0].len();
    let mut fleet: Vec<AdaptiveTransmitter> =
        (0..n).map(|_| AdaptiveTransmitter::new(config)).collect();
    let mut fleet_stored = vec![0.0f64; n];
    let mut bank = TransmitterBank::new(config, n);
    let mut bank_stored = fleet_stored.clone();
    let mut decisions = Vec::new();
    for xs in trace {
        bank.decide_batch_against(xs, &bank_stored, &mut decisions);
        store_sent(&mut bank_stored, xs, &decisions, 1);
        for (i, tr) in fleet.iter_mut().enumerate() {
            let beta = tr.decide(&[xs[i]], &[fleet_stored[i]]);
            if beta {
                fleet_stored[i] = xs[i];
            }
            prop_assert_eq!(beta, decisions[i], "decision diverged at node {}", i);
            prop_assert_eq!(
                tr.queue().to_bits(),
                bank.queues()[i].to_bits(),
                "queue diverged at node {}",
                i
            );
            prop_assert_eq!(tr.sent(), bank.sent_counts()[i]);
            prop_assert_eq!(tr.steps(), bank.steps());
        }
        prop_assert_eq!(&fleet_stored, &bank_stored);
    }
    let fleet_sent: u64 = fleet.iter().map(|tr| tr.sent()).sum();
    prop_assert_eq!(fleet_sent, bank.total_sent());
    Ok(())
}

/// Copies the rows of the nodes that sent into the row-major `stored`.
fn store_sent(stored: &mut [f64], xs: &[f64], sent: &[bool], width: usize) {
    let rows = stored.chunks_exact_mut(width).zip(xs.chunks_exact(width));
    for (&send, (z, x)) in sent.iter().zip(rows) {
        if send {
            z.copy_from_slice(x);
        }
    }
}

proptest! {
    /// Width-1 parity over random configurations and traces, the shape the
    /// collection plane actually runs.
    #[test]
    fn bank_matches_fleet_scalar(
        budget in 0.05f64..1.0,
        v0 in 0.0f64..5.0,
        gamma in 0.0f64..1.0,
        trace in proptest::collection::vec(
            proptest::collection::vec(0.0f64..1.0, 7),
            1..60,
        ),
    ) {
        assert_parity_scalar(TransmitConfig { budget, v0, gamma }, &trace)?;
    }

    /// Width-2 and width-3 parity (`MultiPipeline` runs a width-`d` bank):
    /// the bank's mean-squared-error reduction over rows must match the
    /// per-node transmitter's multi-dimensional `decide`.
    #[test]
    fn bank_matches_fleet_width_two_and_three(
        budget in 0.05f64..1.0,
        v0 in 0.0f64..5.0,
        width in 2usize..4,
        trace in proptest::collection::vec(
            proptest::collection::vec(0.0f64..1.0, 15),
            1..40,
        ),
    ) {
        let config = TransmitConfig { budget, v0, gamma: 0.65 };
        let n = 5;
        let mut fleet: Vec<AdaptiveTransmitter> =
            (0..n).map(|_| AdaptiveTransmitter::new(config)).collect();
        let mut fleet_stored = vec![vec![0.0f64; width]; n];
        let mut bank = TransmitterBank::with_width(config, n, width);
        let mut bank_stored = vec![0.0f64; n * width];
        let mut decisions = Vec::new();
        for xs in &trace {
            let xs = &xs[..n * width];
            bank.decide_batch_against(xs, &bank_stored, &mut decisions);
            store_sent(&mut bank_stored, xs, &decisions, width);
            for (i, tr) in fleet.iter_mut().enumerate() {
                let row = &xs[i * width..(i + 1) * width];
                let beta = tr.decide(row, &fleet_stored[i]);
                if beta {
                    fleet_stored[i].copy_from_slice(row);
                }
                prop_assert_eq!(beta, decisions[i], "decision diverged at node {}", i);
                prop_assert_eq!(tr.queue().to_bits(), bank.queues()[i].to_bits());
                prop_assert_eq!(tr.sent(), bank.sent_counts()[i]);
            }
        }
        let flat_stored: Vec<f64> = fleet_stored.iter().flatten().copied().collect();
        prop_assert_eq!(flat_stored, bank_stored);
    }

    /// The signed-queue identity holds for the bank exactly as it does for
    /// the per-node transmitter: sent = B*T + Q(T) per node.
    #[test]
    fn bank_queue_identity(
        budget in 0.05f64..1.0,
        v0 in 0.0f64..5.0,
        trace in proptest::collection::vec(
            proptest::collection::vec(0.0f64..1.0, 4),
            10..120,
        ),
    ) {
        let mut bank = TransmitterBank::new(TransmitConfig { budget, v0, gamma: 0.65 }, 4);
        let mut stored = vec![0.0f64; 4];
        let mut decisions = Vec::new();
        for xs in &trace {
            bank.decide_batch_against(xs, &stored, &mut decisions);
            store_sent(&mut stored, xs, &decisions, 1);
        }
        for (i, &q) in bank.queues().iter().enumerate() {
            let identity = budget * bank.steps() as f64 + q;
            prop_assert!(
                (bank.sent_counts()[i] as f64 - identity).abs() < 1e-6,
                "node {} violated the queue identity",
                i
            );
        }
    }
}

/// `decide_batch_against` (external stored state, as used by the drivers)
/// agrees with the per-node fleet driven against the same external state.
#[test]
fn bank_against_external_store_matches_fleet() {
    let config = TransmitConfig {
        budget: 0.3,
        v0: 1.0,
        gamma: 0.65,
    };
    let n = 9;
    let mut fleet: Vec<AdaptiveTransmitter> =
        (0..n).map(|_| AdaptiveTransmitter::new(config)).collect();
    let mut bank = TransmitterBank::new(config, n);
    // A controller-style store both sides observe: updated only on send.
    let mut stored = vec![0.0f64; n];
    let mut decisions = Vec::new();
    for t in 0..400usize {
        let xs: Vec<f64> = (0..n)
            .map(|i| {
                let phase = (t as f64 * 0.1 + i as f64).sin();
                0.5 + 0.4 * phase
            })
            .collect();
        let zs = stored.clone();
        bank.decide_batch_against(&xs, &zs, &mut decisions);
        for (i, tr) in fleet.iter_mut().enumerate() {
            let beta = tr.decide(&[xs[i]], &[zs[i]]);
            assert_eq!(beta, decisions[i], "node {i} diverged at t {t}");
            assert_eq!(tr.queue().to_bits(), bank.queues()[i].to_bits());
            if beta {
                stored[i] = xs[i];
            }
        }
    }
    let fleet_sent: u64 = fleet.iter().map(|tr| tr.sent()).sum();
    assert_eq!(fleet_sent, bank.total_sent());
    assert!(bank.frequency() > 0.0 && bank.frequency() <= 1.0);
}
