//! The four workloads. Plain data: `sut.rs` turns a [`Workload`] into the
//! program's configuration, `run.rs` drives it.
//!
//! Tick and pass counts are fixed constants — never derived from the
//! clock — so every pass of every run replays the identical sequence.
//!
//! They are sized for the host the benchmark has to be steady on: a few
//! cores of a shared machine where a neighbour's load moves everything
//! that leaves the first-level caches by 20–80 % for seconds to minutes
//! (README, "Noise control"). So the fleets are small (the hot state of a
//! slot stays within a few hundred KB), a pass is short (130 slots), and a
//! run replays it some sixty times, which is what the per-slot minimum
//! needs to find the machine quiet once for every slot.

/// Which per-cluster model the controller fits (named here, built in
/// `sut.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// ARIMA(2,0,1) with the program's default fit options.
    Arima,
    /// The program's default LSTM with `hidden: 8, epochs: 2`.
    Lstm,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Fleet size `N`.
    pub nodes: usize,
    /// Latent groups in the fleet = clusters in the controller.
    pub k: usize,
    pub model: Model,
    /// Observations before a cluster's first fit.
    pub warmup: usize,
    pub retrain_every: usize,
    /// Controller compute threads.
    pub threads: usize,
    /// Clustering shards (`1` = flat).
    pub shards: usize,
    /// Sending edges: one frame and one ARQ link per shard per tick.
    pub source_shards: usize,
    /// Degraded forward and ack links instead of perfect ones.
    pub lossy: bool,
    /// Untimed-for-metrics warm ticks; they count towards `setup_s`.
    pub warm_ticks: usize,
    /// Measured ticks per pass.
    pub ticks: usize,
    /// Refresh the forecast table after every this many measured ticks.
    pub refresh_every: usize,
    /// Point reads after each refresh.
    pub reads: usize,
    /// Checkpoint + restore after every this many measured ticks.
    pub checkpoint_every: usize,
    /// Timed replays of the run seed's fleet, R: every timing sample is the
    /// minimum over them, so results taken at different R do not compare.
    pub passes: usize,
    /// Further fleets (seeds derived from the run seed), one pass each: the
    /// accuracy and wire metrics are the median over them and the timed
    /// fleet. The timings need one sequence replayed, the accuracy metrics
    /// need many sequences.
    pub accuracy_fleets: usize,
}

/// Ticks a restored controller is replayed beside the live one.
pub const REPLAY_TICKS: usize = 8;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "collect_wide",
        why: "healthy fleet (1000 nodes, 10 ARIMA clusters), table refreshed every 25th slot: \
              the median slot is the per-node collect path, the p90 slot a model refit, and \
              the table builder is nearly bypassed",
        nodes: 1_000,
        k: 10,
        model: Model::Arima,
        warmup: 24,
        retrain_every: 48,
        threads: 1,
        shards: 1,
        source_shards: 8,
        lossy: false,
        warm_ticks: 30,
        ticks: 100,
        refresh_every: 25,
        reads: 16_384,
        checkpoint_every: 30,
        passes: 68,
        accuracy_fleets: 12,
    },
    Workload {
        name: "serve_wide",
        why: "the same fleet queried every slot: a table build and a read burst after each \
              tick, so a faster-building but slower-reading table shows in both numbers",
        nodes: 1_000,
        k: 10,
        model: Model::Arima,
        warmup: 24,
        retrain_every: 48,
        threads: 1,
        shards: 1,
        source_shards: 8,
        lossy: false,
        warm_ticks: 30,
        ticks: 100,
        refresh_every: 1,
        reads: 4_096,
        checkpoint_every: 30,
        passes: 46,
        accuracy_fleets: 6,
    },
    Workload {
        name: "retrain_heavy",
        why: "1000 nodes, 16 LSTM clusters refit on a staggered 16-slot cycle so exactly one \
              model fits per slot: fitting is nearly all of the slot, clustering and table are not",
        nodes: 1_000,
        k: 16,
        model: Model::Lstm,
        warmup: 24,
        retrain_every: 16,
        threads: 1,
        shards: 1,
        source_shards: 2,
        lossy: false,
        warm_ticks: 30,
        ticks: 100,
        refresh_every: 10,
        reads: 16_384,
        checkpoint_every: 30,
        passes: 28,
        accuracy_fleets: 4,
    },
    Workload {
        name: "lossy_sharded",
        why: "1000 nodes behind 50 lossy, duplicating, reordering links, with 4-shard two-level \
              clustering: the sharded and degraded paths of the layers collect_wide runs healthy",
        nodes: 1_000,
        k: 10,
        model: Model::Arima,
        warmup: 24,
        retrain_every: 48,
        threads: 1,
        shards: 4,
        source_shards: 50,
        lossy: true,
        warm_ticks: 30,
        ticks: 100,
        refresh_every: 25,
        reads: 16_384,
        checkpoint_every: 30,
        passes: 66,
        accuracy_fleets: 20,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().find(|w| w.name == name).cloned()
    }

    /// The smoke scale, for tests and CI: a quarter of the nodes, half the
    /// measured ticks, two timed passes and one accuracy fleet.
    pub fn smoke(mut self) -> Workload {
        self.nodes /= 4;
        self.ticks /= 2;
        self.refresh_every = self.refresh_every.min(self.ticks / 4);
        self.checkpoint_every = 20;
        self.reads /= 8;
        self.passes = 2;
        self.accuracy_fleets = 1;
        self
    }

    /// Whether the schedule with period `every` fires after measured tick
    /// `i` (0-based).
    pub fn due(every: usize, i: usize) -> bool {
        (i + 1).is_multiple_of(every)
    }

    pub fn refreshes(&self) -> usize {
        self.ticks / self.refresh_every
    }

    pub fn checkpoints(&self) -> usize {
        self.ticks / self.checkpoint_every
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_leave_room_for_the_replay_and_the_h8_target() {
        for w in &WORKLOADS {
            let last_checkpoint = w.checkpoints() * w.checkpoint_every;
            assert!(w.ticks - last_checkpoint >= REPLAY_TICKS, "{}", w.name);
            assert!(w.checkpoint_every > REPLAY_TICKS, "{}", w.name);
        }
        for w in WORKLOADS
            .iter()
            .cloned()
            .flat_map(|w| [w.clone(), w.smoke()])
        {
            assert!(w.refreshes() >= 2 && w.checkpoints() >= 1, "{}", w.name);
            assert!(w.k <= w.nodes && w.source_shards <= w.nodes, "{}", w.name);
            assert!(w.refresh_every + REPLAY_TICKS <= w.ticks, "{}", w.name);
        }
    }

    #[test]
    fn tail_percentile_is_supported_at_default_scale() {
        for w in &WORKLOADS {
            let p = crate::stats::highest_supported_percentile(w.ticks);
            assert!(p >= 90.0, "{} has {} ticks", w.name, w.ticks);
        }
    }
}
