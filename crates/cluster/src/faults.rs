//! Deterministic fault injection: the `FaultPlan`.
//!
//! A [`FaultPlan`] is a *pure function* of `(seed, cluster config)` — it
//! precomputes node crash times and answers per-task/per-slot fault queries
//! by hashing, never by consuming shared RNG state. That purity is what
//! keeps faulted runs bit-identical across host thread counts: whether a
//! task's disk read fails depends only on `(seed, stage, task, attempt)`,
//! not on which worker thread asked first.
//!
//! The plan models four fault classes, mirroring what the paper's real
//! substrates tolerate (and what this simulator previously could not):
//!
//! * **node crashes** at scheduled simulated times — kills running tasks,
//!   removes the node's slots and block replicas for the rest of the run;
//! * **straggler slots** — a deterministic subset of slots runs tasks
//!   `straggler_slowdown×` slower (Hadoop speculates around these);
//! * **transient disk-read errors** — a per-attempt Bernoulli draw; the
//!   attempt's work is wasted and the task retries (bounded);
//! * **lost block replicas** — follows from node crashes: the share of a
//!   stage's input whose primary replica died before the stage started is
//!   re-read from remote replicas over the NIC (`failover_penalty` in
//!   `sjc-mapreduce`, the same closed form in `sjc-rdd`'s stage runner) and
//!   recorded as a [`crate::metrics::RecoveryKind::ReplicaFailover`] event.
//!
//! [`FaultPlan::none()`] is the identity plan: every query answers "no
//! fault", and every engine bypasses its fault machinery entirely, so
//! zero-fault traces are bit-identical to a build without this module.

use crate::config::ClusterConfig;
use crate::SimNs;

/// Hadoop's default `mapreduce.map.maxattempts`: a task may run at most
/// this many times before the job fails.
pub const MAX_TASK_ATTEMPTS: u32 = 4;

/// Spark's `spark.stage.maxConsecutiveAttempts`: a stage is resubmitted at
/// most this many times after fetch/executor loss before the job aborts.
pub const MAX_STAGE_RESUBMITS: u32 = 4;

/// A slot whose straggler factor reaches this threshold gets a speculative
/// duplicate attempt (Hadoop's speculative execution heuristic).
pub const SPECULATION_THRESHOLD: f64 = 1.5;

/// Default base of the exponential retry backoff: a task's first retry
/// after a transient disk error waits on the order of this long before
/// relaunching (Hadoop's `mapreduce.map.maxattempts` retries are likewise
/// spaced out rather than immediate).
pub const RETRY_BACKOFF_BASE_NS: SimNs = 500_000_000;

/// Hard cap on any single retry's backoff delay: the exponential term
/// `base × 2^(attempt-1)` never exceeds this, however many attempts a task
/// has burned.
pub const MAX_RETRY_BACKOFF_NS: SimNs = 8_000_000_000;

/// Default replacement-node provisioning delay: the order of time a cloud
/// substrate takes to spin up and enroll a fresh worker after a node dies
/// (EC2 instance launch + daemon registration — tens of seconds).
pub const DEFAULT_PROVISION_DELAY_NS: SimNs = 30_000_000_000;

/// Hard cap on the jittered provisioning delay: however large a base the
/// plan configures, a replacement node is never more than this long behind
/// its predecessor's crash.
pub const MAX_PROVISION_DELAY_NS: SimNs = 180_000_000_000;

/// Default HDFS replication factor for checkpoint files (matches
/// [`crate::hdfs::DEFAULT_REPLICATION`]).
pub const DEFAULT_CHECKPOINT_REPLICATION: u32 = 3;

/// One scheduled node crash.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeCrash {
    pub node: u32,
    /// Absolute simulated time of the crash (same clock as
    /// `RunTrace::total_ns` accumulation).
    pub at_ns: SimNs,
}

/// One scheduled graceful decommission: the node stops accepting task
/// launches at `at_ns`, already-running tasks drain to completion, and no
/// data is lost (the operator re-balanced replicas before pulling the
/// node). The controlled counterpart of a [`NodeCrash`].
#[derive(Debug, Clone, PartialEq)]
pub struct NodeDecommission {
    pub node: u32,
    /// Absolute simulated time after which the node launches nothing new.
    pub at_ns: SimNs,
}

/// Checkpointing policy: how often completed stage/wave output is persisted
/// to HDFS, and at what replication. Checkpoints bound recovery work —
/// Spark's lineage recompute truncates at the last durable checkpoint, and
/// Hadoop's completed-map re-runs become remote re-reads of the persisted
/// map output — at the price of the checkpoint writes themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Checkpoint every this many completed stages/waves. `0` disables
    /// checkpointing entirely (interval = ∞), which is bit-identical to the
    /// pre-checkpoint behaviour.
    pub interval_stages: u32,
    /// HDFS replication factor of checkpoint files; the write cost scales
    /// with it (the replication pipeline streams every copy).
    pub replication: u32,
}

impl CheckpointPolicy {
    /// The identity policy: never checkpoint (interval = ∞).
    pub fn disabled() -> Self {
        CheckpointPolicy { interval_stages: 0, replication: DEFAULT_CHECKPOINT_REPLICATION }
    }

    /// Whether this policy ever writes a checkpoint.
    pub fn enabled(&self) -> bool {
        self.interval_stages > 0
    }
}

impl Default for CheckpointPolicy {
    fn default() -> Self {
        CheckpointPolicy::disabled()
    }
}

/// The deterministic fault schedule for one simulated run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for every hashed fault draw.
    pub seed: u64,
    /// Node count of the cluster this plan was built for.
    pub nodes: u32,
    /// Per-attempt probability that a task's input read fails transiently.
    pub disk_error_rate: f64,
    /// Probability that a given (stage, slot) pair is a straggler.
    pub straggler_rate: f64,
    /// Slowdown factor applied to straggler slots (≥ 1).
    pub straggler_slowdown: f64,
    /// Base of the bounded exponential backoff applied to disk-error
    /// retries (`0` disables backoff: retries relaunch the instant the
    /// failed attempt's slot time has elapsed). Backoff only ever applies
    /// to retries, so plans that never inject a disk error are unaffected
    /// by this field.
    pub retry_backoff_base_ns: SimNs,
    /// Scheduled crashes, in schedule order.
    pub crashes: Vec<NodeCrash>,
    /// Scheduled graceful decommissions, in schedule order.
    pub decommissions: Vec<NodeDecommission>,
    /// Checkpointing policy (disabled by default).
    pub checkpoint: CheckpointPolicy,
    /// Base of the jittered replacement-node provisioning delay. `0`
    /// disables elasticity: crashed nodes stay dead for the rest of the
    /// run (the pre-elasticity behaviour). When positive, every crashed
    /// node gets a replacement whose slots come online
    /// [`Self::provision_delay_ns`] after the crash.
    pub provision_delay_base_ns: SimNs,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

/// SplitMix64 finalizer: a high-quality 64-bit mix, used as the stateless
/// hash behind every fault draw.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform `[0, 1)` from the top 53 bits of a hash.
fn unit_f64(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Stable tag for a stage name (FNV-1a), mixed into per-stage fault draws
/// so different stages see independent fault streams.
pub fn stage_tag(name: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

impl FaultPlan {
    /// The identity plan: no faults, ever. Engines check [`Self::is_none`]
    /// and skip their fault machinery entirely, so runs under this plan are
    /// bit-identical to the pre-fault-subsystem behaviour.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            nodes: 0,
            disk_error_rate: 0.0,
            straggler_rate: 0.0,
            straggler_slowdown: 1.0,
            retry_backoff_base_ns: RETRY_BACKOFF_BASE_NS,
            crashes: Vec::new(),
            decommissions: Vec::new(),
            checkpoint: CheckpointPolicy::disabled(),
            provision_delay_base_ns: 0,
        }
    }

    /// An empty plan bound to a cluster; compose faults with the builder
    /// methods ([`Self::crash_at`], [`Self::with_disk_errors`], [`Self::with_stragglers`],
    /// [`Self::with_retry_backoff`], [`Self::with_checkpoints`],
    /// [`Self::with_elastic_provisioning`], [`Self::decommission_at`]).
    pub fn seeded(seed: u64, config: &ClusterConfig) -> Self {
        FaultPlan {
            seed,
            nodes: config.nodes,
            disk_error_rate: 0.0,
            straggler_rate: 0.0,
            straggler_slowdown: 1.0,
            retry_backoff_base_ns: RETRY_BACKOFF_BASE_NS,
            crashes: Vec::new(),
            decommissions: Vec::new(),
            checkpoint: CheckpointPolicy::disabled(),
            provision_delay_base_ns: 0,
        }
    }

    /// A mild preset: occasional transient disk errors and a few slow
    /// slots — every system should finish, a little degraded.
    pub fn light(seed: u64, config: &ClusterConfig) -> Self {
        FaultPlan::seeded(seed, config).with_disk_errors(0.02).with_stragglers(0.05, 2.0)
    }

    /// A harsh preset: frequent disk errors and many slow slots.
    pub fn heavy(seed: u64, config: &ClusterConfig) -> Self {
        FaultPlan::seeded(seed, config).with_disk_errors(0.08).with_stragglers(0.15, 3.0)
    }

    /// Schedules an explicit crash of `node` at absolute simulated `at_ns`.
    pub fn crash_at(mut self, node: u32, at_ns: SimNs) -> Self {
        let node = if self.nodes > 0 { node % self.nodes } else { node };
        self.crashes.push(NodeCrash { node, at_ns });
        self
    }

    /// Sets the per-attempt transient disk-read error probability.
    pub fn with_disk_errors(mut self, rate: f64) -> Self {
        self.disk_error_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Sets the straggler probability and slowdown factor.
    pub fn with_stragglers(mut self, rate: f64, slowdown: f64) -> Self {
        self.straggler_rate = rate.clamp(0.0, 1.0);
        self.straggler_slowdown = slowdown.max(1.0);
        self
    }

    /// Sets the exponential retry-backoff base (`0` disables backoff).
    // sjc-lint: allow(dead-pub) — `retry_backoff_shifts_attempt_histograms_and_costs_time` in tests/fault_recovery.rs drives the backoff path with it
    pub fn with_retry_backoff(mut self, base_ns: SimNs) -> Self {
        self.retry_backoff_base_ns = base_ns;
        self
    }

    /// Sets the checkpointing policy: persist completed stage/wave output
    /// every `interval_stages` stages at `replication` copies. Interval `0`
    /// keeps checkpointing disabled (the bit-identical default).
    pub fn with_checkpoints(mut self, interval_stages: u32, replication: u32) -> Self {
        self.checkpoint = CheckpointPolicy { interval_stages, replication: replication.max(1) };
        self
    }

    /// Enables elastic re-scheduling: crashed nodes are replaced by fresh
    /// ones whose slots come online a jittered provisioning delay (based on
    /// `base_ns`, capped at [`MAX_PROVISION_DELAY_NS`]) after the crash.
    /// `0` disables elasticity.
    pub fn with_elastic_provisioning(mut self, base_ns: SimNs) -> Self {
        self.provision_delay_base_ns = base_ns;
        self
    }

    /// Schedules a graceful decommission of `node` at absolute simulated
    /// `at_ns`: from then on the node launches no new tasks, but running
    /// tasks drain and no replicas or map output are lost.
    // sjc-lint: allow(dead-pub) — `decommission_drains_gracefully_at_system_level` in tests/fault_recovery.rs drives the decommission path with it
    pub fn decommission_at(mut self, node: u32, at_ns: SimNs) -> Self {
        let node = if self.nodes > 0 { node % self.nodes } else { node };
        self.decommissions.push(NodeDecommission { node, at_ns });
        self
    }

    /// True iff this plan can never inject a fault *and* never charges any
    /// fault-subsystem cost. The fast path every engine takes before
    /// touching fault machinery. An enabled checkpoint policy costs time
    /// even in a fault-free run (the writes themselves), and a scheduled
    /// decommission reshapes capacity, so both force the event path; a bare
    /// provisioning delay does not (no crashes → no replacements).
    pub fn is_none(&self) -> bool {
        self.crashes.is_empty()
            && self.decommissions.is_empty()
            && self.disk_error_rate <= 0.0
            && self.straggler_rate <= 0.0
            && !self.checkpoint.enabled()
    }

    /// Earliest crash time of `node`, if any is scheduled.
    pub fn crash_ns(&self, node: u32) -> Option<SimNs> {
        self.crashes.iter().filter(|c| c.node == node).map(|c| c.at_ns).min()
    }

    /// Nodes dead at absolute simulated time `t` (crash at `t` counts as
    /// dead), ascending and deduplicated.
    pub fn dead_nodes_at(&self, t: SimNs) -> Vec<u32> {
        let mut dead: Vec<u32> =
            self.crashes.iter().filter(|c| c.at_ns <= t).map(|c| c.node).collect();
        dead.sort_unstable();
        dead.dedup();
        dead
    }

    /// Whether attempt `attempt` of `task` in the stage tagged `tag`
    /// suffers a transient disk-read error. Pure in all arguments.
    pub fn disk_error(&self, tag: u64, task: u64, attempt: u32) -> bool {
        if self.disk_error_rate <= 0.0 {
            return false;
        }
        let h = mix64(
            self.seed
                ^ tag.rotate_left(17)
                ^ task.wrapping_mul(0xA076_1D64_78BD_642F)
                ^ (attempt as u64).wrapping_mul(0xE703_7ED1_A0B4_28DB),
        );
        unit_f64(h) < self.disk_error_rate
    }

    /// Slowdown factor of `slot` for the stage tagged `tag`: 1.0 for a
    /// healthy slot, `straggler_slowdown` for a straggler. Pure.
    pub fn straggler_factor(&self, tag: u64, slot: u64) -> f64 {
        if self.straggler_rate <= 0.0 {
            return 1.0;
        }
        let h = mix64(self.seed ^ tag.rotate_left(41) ^ slot.wrapping_mul(0x8CB9_2BA7_2F3D_8DD7));
        if unit_f64(h) < self.straggler_rate {
            self.straggler_slowdown
        } else {
            1.0
        }
    }

    /// Backoff delay inserted before the retry that follows failed attempt
    /// `attempt` of `task` in the stage tagged `tag`. Bounded exponential:
    /// the cap doubles per failed attempt from `retry_backoff_base_ns` up
    /// to [`MAX_RETRY_BACKOFF_NS`], and the SplitMix64-jittered delay lands
    /// in `[cap/2, cap]`. Pure in all arguments — like every other fault
    /// draw, the jitter is a stateless hash of `(seed, stage, task,
    /// attempt)`, so backed-off schedules stay bit-identical across host
    /// thread counts.
    pub fn retry_backoff_ns(&self, tag: u64, task: u64, attempt: u32) -> SimNs {
        if self.retry_backoff_base_ns == 0 {
            return 0;
        }
        // 2^exp with exp clamped well below 64: the saturating_mul already
        // guards the product, the clamp guards the shift itself.
        let exp = attempt.saturating_sub(1).min(32);
        let raw = self.retry_backoff_base_ns.saturating_mul(1u64 << exp);
        let cap = raw.min(MAX_RETRY_BACKOFF_NS);
        let h = mix64(
            self.seed
                ^ tag.rotate_left(29)
                ^ task.wrapping_mul(0xD6E8_FEB8_6659_FD93)
                ^ (attempt as u64).wrapping_mul(0x2545_F491_4F6C_DD1D),
        );
        cap / 2 + h % (cap / 2 + 1)
    }

    /// Provisioning delay of the replacement for crashed `node`: how long
    /// after the crash the fresh node's slots come online. Bounded jitter in
    /// `[cap/2, cap]` where `cap = min(provision_delay_base_ns,`
    /// [`MAX_PROVISION_DELAY_NS`]`)` — same stateless SplitMix64 discipline
    /// as every other fault draw, keyed on `(seed, node)`, so elastic
    /// schedules stay bit-identical across host thread counts. `0` when
    /// elasticity is disabled.
    pub fn provision_delay_ns(&self, node: u32) -> SimNs {
        if self.provision_delay_base_ns == 0 {
            return 0;
        }
        let cap = self.provision_delay_base_ns.min(MAX_PROVISION_DELAY_NS);
        let h = mix64(self.seed ^ (node as u64).wrapping_mul(0x9FB2_1C65_1E98_DF25) ^ 0xE1A5);
        cap / 2 + h % (cap / 2 + 1)
    }

    /// Absolute time the replacement for crashed `node` comes online, if
    /// elasticity is enabled and `node` is scheduled to crash.
    pub fn replacement_ready_ns(&self, node: u32) -> Option<SimNs> {
        if self.provision_delay_base_ns == 0 {
            return None;
        }
        self.crash_ns(node).map(|c| c.saturating_add(self.provision_delay_ns(node)))
    }

    /// Earliest decommission time of `node`, if any is scheduled.
    pub fn decommission_ns(&self, node: u32) -> Option<SimNs> {
        self.decommissions.iter().filter(|d| d.node == node).map(|d| d.at_ns).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ec2() -> ClusterConfig {
        ClusterConfig::ec2(10)
    }

    #[test]
    fn none_is_identity() {
        let p = FaultPlan::none();
        assert!(p.is_none());
        assert!(!p.disk_error(1, 2, 3));
        assert_eq!(p.straggler_factor(1, 2), 1.0);
        assert!(p.dead_nodes_at(u64::MAX).is_empty());
        assert_eq!(p, FaultPlan::default());
    }

    #[test]
    fn queries_are_pure_functions() {
        let p = FaultPlan::heavy(42, &ec2());
        for task in 0..50u64 {
            for attempt in 1..=4u32 {
                assert_eq!(
                    p.disk_error(7, task, attempt),
                    p.disk_error(7, task, attempt),
                    "same draw twice"
                );
            }
        }
        assert_eq!(p.straggler_factor(9, 3), p.straggler_factor(9, 3));
    }

    #[test]
    fn rates_bite_at_roughly_the_configured_frequency() {
        let p = FaultPlan::seeded(1, &ec2()).with_disk_errors(0.10);
        let hits = (0..10_000u64).filter(|&t| p.disk_error(1, t, 1)).count();
        assert!((800..1200).contains(&hits), "10% rate drew {hits}/10000");
    }

    #[test]
    fn stage_tags_decorrelate_stages() {
        let p = FaultPlan::seeded(5, &ec2()).with_disk_errors(0.5);
        let a: Vec<bool> = (0..64).map(|t| p.disk_error(stage_tag("map"), t, 1)).collect();
        let b: Vec<bool> = (0..64).map(|t| p.disk_error(stage_tag("reduce"), t, 1)).collect();
        assert_ne!(a, b, "stages see independent fault streams");
    }

    #[test]
    fn crash_schedule_and_death_queries() {
        let p = FaultPlan::seeded(3, &ec2()).crash_at(4, 100).crash_at(7, 200);
        assert_eq!(p.crash_ns(4), Some(100));
        assert_eq!(p.crash_ns(5), None);
        assert!(p.dead_nodes_at(99).is_empty());
        assert_eq!(p.dead_nodes_at(100), vec![4]);
        assert_eq!(p.dead_nodes_at(500), vec![4, 7]);
    }

    #[test]
    fn backoff_is_jittered_bounded_and_pure() {
        let p = FaultPlan::seeded(17, &ec2());
        let mut caps_seen = Vec::new();
        for attempt in 1..=10u32 {
            let exp = attempt.saturating_sub(1).min(32);
            let cap = RETRY_BACKOFF_BASE_NS.saturating_mul(1u64 << exp).min(MAX_RETRY_BACKOFF_NS);
            caps_seen.push(cap);
            for task in 0..32u64 {
                let d = p.retry_backoff_ns(7, task, attempt);
                assert!(
                    d >= cap / 2 && d <= cap,
                    "attempt {attempt}: {d} outside [{}, {cap}]",
                    cap / 2
                );
                assert_eq!(d, p.retry_backoff_ns(7, task, attempt), "same draw twice");
            }
        }
        // The cap doubles until it hits the hard ceiling, then stays there.
        assert_eq!(caps_seen[0], RETRY_BACKOFF_BASE_NS);
        assert_eq!(caps_seen[1], 2 * RETRY_BACKOFF_BASE_NS);
        assert!(caps_seen.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*caps_seen.last().unwrap(), MAX_RETRY_BACKOFF_NS);
        // Jitter decorrelates tasks: not every task draws the same delay.
        let draws: Vec<SimNs> = (0..32).map(|t| p.retry_backoff_ns(7, t, 1)).collect();
        assert!(draws.windows(2).any(|w| w[0] != w[1]), "jitter is flat: {draws:?}");
        // Base 0 disables backoff entirely.
        let off = p.with_retry_backoff(0);
        assert_eq!(off.retry_backoff_ns(7, 3, 2), 0);
    }

    #[test]
    fn checkpoint_policy_enable_and_identity() {
        let p = FaultPlan::none();
        assert!(!p.checkpoint.enabled());
        assert!(p.is_none());
        // Interval 0 keeps the plan on the identity fast path.
        let q = FaultPlan::seeded(1, &ec2()).with_checkpoints(0, 3);
        assert!(q.is_none());
        // A finite interval forces the event path: writes cost time even
        // with no faults scheduled.
        let r = FaultPlan::seeded(1, &ec2()).with_checkpoints(2, 3);
        assert!(r.checkpoint.enabled());
        assert!(!r.is_none());
        assert_eq!(r.checkpoint.replication, 3);
        // Replication is clamped to at least 1.
        assert_eq!(FaultPlan::none().with_checkpoints(1, 0).checkpoint.replication, 1);
        assert_eq!(CheckpointPolicy::default(), CheckpointPolicy::disabled());
    }

    #[test]
    fn provision_delay_is_jittered_bounded_and_pure() {
        let p = FaultPlan::seeded(23, &ec2())
            .crash_at(3, 1_000)
            .with_elastic_provisioning(DEFAULT_PROVISION_DELAY_NS);
        let cap = DEFAULT_PROVISION_DELAY_NS;
        for node in 0..10u32 {
            let d = p.provision_delay_ns(node);
            assert!(d >= cap / 2 && d <= cap, "node {node}: {d} outside [{}, {cap}]", cap / 2);
            assert_eq!(d, p.provision_delay_ns(node), "same draw twice");
        }
        // Jitter decorrelates nodes.
        let draws: Vec<SimNs> = (0..10).map(|n| p.provision_delay_ns(n)).collect();
        assert!(draws.windows(2).any(|w| w[0] != w[1]), "jitter is flat: {draws:?}");
        // The base never exceeds the hard ceiling.
        let big = p.clone().with_elastic_provisioning(SimNs::MAX);
        assert!(big.provision_delay_ns(0) <= MAX_PROVISION_DELAY_NS);
        // Replacement readiness = crash + delay, only for crashed nodes.
        assert_eq!(p.replacement_ready_ns(3), Some(1_000 + p.provision_delay_ns(3)));
        assert_eq!(p.replacement_ready_ns(4), None);
        // Elasticity off: no delay, no replacement, still is_none-compatible.
        let off = FaultPlan::seeded(23, &ec2()).with_elastic_provisioning(0);
        assert_eq!(off.provision_delay_ns(3), 0);
        assert!(off.is_none());
        // A bare provisioning delay (no crashes) stays on the fast path.
        let idle = FaultPlan::seeded(23, &ec2()).with_elastic_provisioning(1_000);
        assert!(idle.is_none());
        assert_eq!(idle.replacement_ready_ns(3), None);
    }

    #[test]
    fn decommission_schedule_queries() {
        let p = FaultPlan::seeded(9, &ec2()).decommission_at(2, 500).decommission_at(2, 300);
        assert_eq!(p.decommission_ns(2), Some(300));
        assert_eq!(p.decommission_ns(3), None);
        // Decommissions reshape capacity, so they leave the fast path…
        assert!(!p.is_none());
        // …but never count as *dead*: no replicas or map output are lost.
        assert!(p.dead_nodes_at(u64::MAX).is_empty());
    }

    #[test]
    fn presets_are_nonempty_but_bounded() {
        let l = FaultPlan::light(1, &ec2());
        let h = FaultPlan::heavy(1, &ec2());
        assert!(!l.is_none() && !h.is_none());
        assert!(h.disk_error_rate > l.disk_error_rate);
        assert!(h.straggler_slowdown >= l.straggler_slowdown);
        assert!(l.straggler_slowdown >= 1.0);
    }
}
