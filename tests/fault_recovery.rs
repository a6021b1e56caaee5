//! Fault-injection contract tests.
//!
//! Three invariants the fault subsystem must hold:
//!
//! 1. `FaultPlan::none()` is the *identity*: a cluster built with it is
//!    bit-identical to a plain `Cluster::new` — every stage number, byte
//!    counter and result pair, for all three systems.
//! 2. Faulted runs are deterministic: the same plan gives the same trace,
//!    recovery ledger and results regardless of the host thread budget.
//! 3. A mid-run node crash is survivable: the run completes, the recovery
//!    work is visible in the trace, and the join results are identical to
//!    the fault-free run.

use std::collections::BTreeMap;

use sjc_cluster::scheduler::faulty_makespan;
use sjc_cluster::{
    Cluster, ClusterConfig, FaultPlan, RecoveryKind, RunTrace, SimNs, DEFAULT_PROVISION_DELAY_NS,
};
use sjc_core::experiment::{SystemKind, Workload};
use sjc_core::framework::{DistributedSpatialJoin, JoinInput, JoinPredicate};
use sjc_core::lde::LdeEngine;
use sjc_testkit::cases;

/// Every simulated number a stage reports, as a comparable row.
type StageRow = (String, u64, u64, u64, u64, u64, u64, u64, u64, u64, u64);

fn stage_rows(t: &RunTrace) -> Vec<StageRow> {
    t.stages
        .iter()
        .map(|s| {
            (
                s.name.clone(),
                s.sim_ns,
                s.hdfs_bytes_read,
                s.hdfs_bytes_written,
                s.shuffle_bytes,
                s.pipe_bytes,
                s.tasks,
                s.attempts,
                s.speculative,
                s.wasted_ns,
                s.bytes_reread,
            )
        })
        .collect()
}

/// The shared test workload: the one-month taxi slice at generation scale,
/// multiplier forced to 1 so HadoopGIS survives (its full-scale pipe break
/// is Table 2's story, not a fault-injection outcome).
fn workload() -> (JoinInput, JoinInput) {
    let (mut l, mut r) = Workload::taxi1m_nycb().prepare(1e-4, 42);
    l.multiplier = 1.0;
    r.multiplier = 1.0;
    (l, r)
}

#[test]
fn zero_fault_plan_is_bit_identical_to_a_plain_cluster() {
    let (l, r) = workload();
    let config = ClusterConfig::ec2(8);
    for sys in SystemKind::all() {
        let plain = sys
            .instance()
            .run(&Cluster::new(config.clone()), &l, &r, JoinPredicate::Intersects)
            .expect("fault-free run succeeds");
        let with_none = sys
            .instance()
            .run(
                &Cluster::with_faults(config.clone(), FaultPlan::none()),
                &l,
                &r,
                JoinPredicate::Intersects,
            )
            .expect("FaultPlan::none() run succeeds");
        assert_eq!(
            stage_rows(&plain.trace),
            stage_rows(&with_none.trace),
            "{}: FaultPlan::none() must not perturb a single stage number",
            sys.paper_name()
        );
        assert_eq!(plain.trace.total_ns(), with_none.trace.total_ns());
        assert!(plain.trace.recovery.is_empty() && with_none.trace.recovery.is_empty());
        assert_eq!(plain.sorted_pairs(), with_none.sorted_pairs());
    }
}

#[test]
fn faulted_runs_are_identical_across_thread_budgets() {
    let config = ClusterConfig::ec2(8);
    // A fixed mid-run crash plus heavy disk errors and stragglers: plenty
    // of recovery machinery exercised whichever system is running.
    let plan = FaultPlan::heavy(7, &config).crash_at(2, 30_000_000_000);
    let run_all = |threads: usize| {
        sjc_par::set_global_threads(threads);
        let (l, r) = workload();
        let cluster = Cluster::with_faults(config.clone(), plan.clone());
        let out: Vec<_> = SystemKind::all()
            .iter()
            .map(|sys| {
                let o = sys
                    .instance()
                    .run(&cluster, &l, &r, JoinPredicate::Intersects)
                    .expect("heavy plan at multiplier 1 completes for all systems");
                (
                    o.trace.total_ns(),
                    stage_rows(&o.trace),
                    o.trace.recovery.clone(),
                    o.sorted_pairs(),
                )
            })
            .collect();
        sjc_par::set_global_threads(0);
        out
    };
    let serial = run_all(1);
    let parallel = run_all(8);
    assert_eq!(
        serial, parallel,
        "fault draws are stateless hashes — traces, ledgers and results must not depend on SJC_PAR_THREADS"
    );
}

#[test]
fn recovery_never_changes_results_proptest() {
    // Property: for ANY fault plan, a run that completes produces exactly
    // the fault-free pair set — recovery may cost time, never correctness.
    let (l, r) = workload();
    let config = ClusterConfig::ec2(8);
    // (system, fault-free total ns, fault-free sorted pair set)
    type Reference = (SystemKind, u64, Vec<(u64, u64)>);
    let reference: Vec<Reference> = SystemKind::all()
        .iter()
        .map(|sys| {
            let out = sys
                .instance()
                .run(&Cluster::new(config.clone()), &l, &r, JoinPredicate::Intersects)
                .expect("fault-free baseline succeeds");
            (*sys, out.trace.total_ns(), out.sorted_pairs())
        })
        .collect();
    cases(0xFA01_7BAD, 18, |rng| {
        let (sys, base_ns, expect) = &reference[rng.usize_in(0..reference.len())];
        let mut plan = FaultPlan::seeded(rng.next_u64(), &config)
            .with_disk_errors(rng.f64_in(0.0..0.08))
            .with_stragglers(rng.f64_in(0.0..0.2), rng.f64_in(1.0..3.5));
        if rng.bool_with(0.6) {
            plan = plan.crash_at(rng.u32_in(0..8), rng.u64_in(0..*base_ns * 6 / 5));
        }
        let cluster = Cluster::with_faults(config.clone(), plan.clone());
        match sys.instance().run(&cluster, &l, &r, JoinPredicate::Intersects) {
            Ok(out) => {
                if !plan.is_none() {
                    assert!(
                        out.trace.total_ns() >= *base_ns,
                        "{}: faults never speed a run up",
                        sys.paper_name()
                    );
                }
                assert_eq!(
                    &out.sorted_pairs(),
                    expect,
                    "{}: recovery changed the join result under {plan:?}",
                    sys.paper_name()
                );
            }
            // Exhausted retries or a fatally shrunk cluster are legitimate
            // outcomes of a hostile random plan — the property constrains
            // only the runs that finish.
            Err(e) => {
                let k = e.kind();
                assert!(
                    ["task attempts exhausted", "node lost"].contains(&k),
                    "{}: unexpected failure kind {k:?} under {plan:?}",
                    sys.paper_name()
                );
            }
        }
    });
}

#[test]
fn retry_backoff_shifts_attempt_histograms_and_costs_time() {
    // The bounded exponential backoff delays every disk-error retry by a
    // jittered [cap/2, cap] interval. Around a node crash that delay is not
    // just slower — it reshuffles which attempts launch on the doomed node
    // (a retry pushed past the crash is stashed off the dying slot instead
    // of being KILLED on it), so the histogram of attempt outcomes shifts,
    // not only the makespan. The per-attempt-number retry counts, by
    // contrast, are pure `(stage, task, attempt)` hash draws and must stay
    // bit-identical whatever the backoff does to the timeline.
    let config = ClusterConfig::ec2(4);
    let with = FaultPlan::seeded(7, &config).with_disk_errors(0.3).crash_at(1, 3_000_000_000);
    let without = with.clone().with_retry_backoff(0);
    assert_eq!(with.retry_backoff_base_ns, sjc_cluster::RETRY_BACKOFF_BASE_NS);
    let tasks: Vec<SimNs> = (0..64).map(|i| 1_000_000_000 + 37_000_000 * (i % 11)).collect();

    // (makespan, attempt-outcome histogram, per-attempt-number retry counts)
    let run = |plan: &FaultPlan| {
        let s = faulty_makespan(&tasks, 2, 4, plan, "map", 0, false).expect("wave survives");
        let mut outcomes: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut retries_by_attempt: BTreeMap<u32, u64> = BTreeMap::new();
        outcomes.insert("launched", s.attempts);
        for e in &s.events {
            match e.kind {
                RecoveryKind::TaskRetry { attempt, .. } => {
                    *outcomes.entry("failed").or_default() += 1;
                    *retries_by_attempt.entry(attempt).or_default() += 1;
                }
                RecoveryKind::NodeCrash { tasks_killed, .. } => {
                    *outcomes.entry("killed").or_default() += tasks_killed;
                }
                _ => {}
            }
        }
        (s.makespan, outcomes, retries_by_attempt)
    };
    let (backed_ns, backed_outcomes, backed_retries) = run(&with);
    let (eager_ns, eager_outcomes, eager_retries) = run(&without);
    assert!(backed_outcomes["failed"] > 0, "the plan injects retries");
    assert!(backed_ns > eager_ns, "backoff gaps cost simulated time: {backed_ns} <= {eager_ns}");
    assert_ne!(
        backed_outcomes, eager_outcomes,
        "backoff around a crash must shift the attempt-outcome histogram"
    );
    assert_eq!(
        backed_retries, eager_retries,
        "disk-error draws are pure in (stage, task, attempt) — backoff must not change them"
    );
    // And the backed-off schedule is still a pure function of its inputs.
    assert_eq!(run(&with), run(&with));
}

#[test]
fn checkpoint_interval_infinity_degenerates_bit_identically() {
    // Interval 0 means "never checkpoint" — the plan must behave exactly
    // like today's lineage-only recovery, stage row for stage row, both
    // with and without faults.
    let (l, r) = workload();
    let config = ClusterConfig::ec2(8);
    for sys in SystemKind::all() {
        let base = sys
            .instance()
            .run(&Cluster::new(config.clone()), &l, &r, JoinPredicate::Intersects)
            .expect("fault-free baseline succeeds");
        let disabled_only = FaultPlan::seeded(7, &config).with_checkpoints(0, 3);
        assert!(disabled_only.is_none(), "a disabled checkpoint policy must keep the fast path");
        let heavy = FaultPlan::heavy(7, &config).crash_at(2, base.trace.total_ns() * 2 / 5);
        let lineage = sys
            .instance()
            .run(
                &Cluster::with_faults(config.clone(), heavy.clone()),
                &l,
                &r,
                JoinPredicate::Intersects,
            )
            .expect("heavy plan at multiplier 1 completes");
        let infinite = sys
            .instance()
            .run(
                &Cluster::with_faults(config.clone(), heavy.with_checkpoints(0, 3)),
                &l,
                &r,
                JoinPredicate::Intersects,
            )
            .expect("heavy plan at multiplier 1 completes");
        assert_eq!(
            stage_rows(&lineage.trace),
            stage_rows(&infinite.trace),
            "{}: interval-∞ checkpoints must not perturb a single stage number",
            sys.paper_name()
        );
        assert_eq!(lineage.trace.total_ns(), infinite.trace.total_ns());
        assert_eq!(lineage.trace.recovery, infinite.trace.recovery);
        assert_eq!(lineage.sorted_pairs(), infinite.sorted_pairs());
    }
}

#[test]
fn checkpointed_recovery_cost_never_exceeds_lineage_only_proptest() {
    // Property: for the Spark system, the *recovery* cost of a faulted run
    // (its total minus a fault-free run under the same write policy, so the
    // checkpoint-write premium cancels) never exceeds the lineage-only
    // recovery cost of the same seed and plan. Truncating the replay depth
    // and re-reading the durable copy can only cheapen recovery.
    let (l, r) = workload();
    let config = ClusterConfig::ec2(8);
    let sys = SystemKind::SpatialSpark;
    let run = |plan: FaultPlan| {
        sys.instance()
            .run(&Cluster::with_faults(config.clone(), plan), &l, &r, JoinPredicate::Intersects)
            .expect("plan completes at multiplier 1")
            .trace
            .total_ns()
    };
    let base = run(FaultPlan::none());
    // Checkpoint writes are seed-invariant (no fault draws fire), so the
    // fault-free-with-writes baseline depends only on the interval.
    let ckpt_base: Vec<u64> =
        (1..4).map(|iv| run(FaultPlan::seeded(0, &config).with_checkpoints(iv, 3))).collect();
    cases(0xC4E9_0217, 10, |rng| {
        let interval = rng.u32_in(1..4);
        let plan = FaultPlan::heavy(rng.next_u64(), &config)
            .crash_at(rng.u32_in(0..8), base * rng.u64_in(10..90) / 100);
        let lineage_recovery = run(plan.clone()) - base;
        let ckpt_total = run(plan.clone().with_checkpoints(interval, 3));
        let ckpt_recovery = ckpt_total.saturating_sub(ckpt_base[interval as usize - 1]);
        assert!(
            ckpt_recovery <= lineage_recovery,
            "checkpointed recovery ({ckpt_recovery} ns) must not exceed lineage-only \
             recovery ({lineage_recovery} ns) under {plan:?} interval {interval}"
        );
    });
}

#[test]
fn heavy_checkpointed_spark_strictly_improves_and_replacements_regain_capacity() {
    // The acceptance pin: under the heavy preset with a finite checkpoint
    // interval, the Spark system strictly beats lineage-only recovery, and
    // elastic replacement provisioning wins back the crashed node's slots.
    let (l, r) = workload();
    let config = ClusterConfig::ec2(8);
    let sys = SystemKind::SpatialSpark;
    let run = |plan: FaultPlan| {
        sys.instance()
            .run(&Cluster::with_faults(config.clone(), plan), &l, &r, JoinPredicate::Intersects)
            .expect("heavy plan at multiplier 1 completes")
    };
    let base = run(FaultPlan::none()).trace.total_ns();
    // Crash node 2 late enough that a completed stage's partitions are
    // resident on it: the resubmit then replays real lineage.
    let heavy = FaultPlan::heavy(7, &config).crash_at(2, base * 7 / 10);
    let lineage = run(heavy.clone());
    let ckpt = run(heavy.clone().with_checkpoints(2, 3));
    let resub_depth = |t: &RunTrace| {
        t.recovery
            .iter()
            .filter_map(|e| match e.kind {
                RecoveryKind::StageResubmit { lineage_depth, .. } => Some(lineage_depth),
                _ => None,
            })
            .max()
    };
    assert!(resub_depth(&lineage.trace).is_some(), "the heavy crash forces a stage resubmit");
    assert!(
        resub_depth(&ckpt.trace) <= resub_depth(&lineage.trace),
        "a durable checkpoint can only truncate the replay depth"
    );
    assert!(ckpt
        .trace
        .recovery
        .iter()
        .any(|e| matches!(e.kind, RecoveryKind::CheckpointWrite { .. })));
    assert!(
        ckpt.trace.total_ns() < lineage.trace.total_ns(),
        "finite checkpoint interval must strictly beat lineage-only under the heavy preset: \
         {} >= {}",
        ckpt.trace.total_ns(),
        lineage.trace.total_ns()
    );

    // Elastic re-scheduling: a replacement node provisioned within the run
    // regains the crashed node's slots and shrinks the makespan further.
    let elastic = run(heavy.with_checkpoints(2, 3).with_elastic_provisioning(4_000_000_000));
    assert!(
        elastic
            .trace
            .recovery
            .iter()
            .any(|e| matches!(e.kind, RecoveryKind::NodeReplaced { node: 2, .. })),
        "the replacement for the crashed node must be visible in the ledger"
    );
    assert!(
        elastic.trace.total_ns() < ckpt.trace.total_ns(),
        "regained slot capacity must shrink the run: {} >= {}",
        elastic.trace.total_ns(),
        ckpt.trace.total_ns()
    );
    assert_eq!(lineage.sorted_pairs(), elastic.sorted_pairs());

    // The Hadoop-family systems regain capacity at the default provisioning
    // delay (their runs are long enough for a 15-30 s spin-up to land).
    let sh = SystemKind::SpatialHadoop;
    let sh_run = |plan: FaultPlan| {
        sh.instance()
            .run(&Cluster::with_faults(config.clone(), plan), &l, &r, JoinPredicate::Intersects)
            .expect("heavy plan at multiplier 1 completes")
    };
    let sh_base = sh_run(FaultPlan::none()).trace.total_ns();
    let sh_heavy = FaultPlan::heavy(7, &config).crash_at(2, sh_base * 2 / 5);
    let dead = sh_run(sh_heavy.clone());
    let replaced = sh_run(sh_heavy.with_elastic_provisioning(DEFAULT_PROVISION_DELAY_NS));
    assert!(replaced
        .trace
        .recovery
        .iter()
        .any(|e| matches!(e.kind, RecoveryKind::NodeReplaced { node: 2, .. })));
    assert!(
        replaced.trace.total_ns() < dead.trace.total_ns(),
        "a mid-run replacement must shrink SpatialHadoop's makespan: {} >= {}",
        replaced.trace.total_ns(),
        dead.trace.total_ns()
    );
    assert_eq!(dead.sorted_pairs(), replaced.sorted_pairs());
}

#[test]
fn systems_survive_a_mid_run_crash_with_identical_results() {
    let (l, r) = workload();
    let config = ClusterConfig::ec2(8);
    for sys in SystemKind::all() {
        let clean = sys
            .instance()
            .run(&Cluster::new(config.clone()), &l, &r, JoinPredicate::Intersects)
            .expect("fault-free baseline succeeds");
        let base_ns = clean.trace.total_ns();
        // Crash node 2 at 40% of this system's own fault-free runtime so the
        // crash lands mid-execution for every system.
        let plan = FaultPlan::heavy(7, &config).crash_at(2, base_ns * 2 / 5);
        let faulted = sys
            .instance()
            .run(&Cluster::with_faults(config.clone(), plan), &l, &r, JoinPredicate::Intersects)
            .unwrap_or_else(|e| {
                panic!("{} must survive one crash on 8 nodes: {e}", sys.paper_name())
            });
        let name = sys.paper_name();
        assert!(
            !faulted.trace.recovery.is_empty(),
            "{name}: recovery actions must be visible in the trace"
        );
        let event_waste: u64 = faulted.trace.recovery.iter().map(|e| e.wasted_ns).sum();
        assert!(event_waste > 0, "{name}: recovery must charge wasted work");
        assert!(
            faulted.trace.total_attempts() > 0,
            "{name}: faulted schedulers meter task attempts"
        );
        assert!(
            faulted.trace.total_ns() > base_ns,
            "{name}: recovery costs simulated time ({} vs {base_ns})",
            faulted.trace.total_ns()
        );
        assert_eq!(
            clean.sorted_pairs(),
            faulted.sorted_pairs(),
            "{name}: fault recovery must not change the join result"
        );
    }
}

/// LDE-MC+'s partition-pair wave runs under the cluster's fault plan: a
/// node crashing halfway through the wave kills tasks that re-run
/// elsewhere, visible as attempts and recovery events, and the pairs are
/// the fault-free run's.
#[test]
fn lde_join_wave_recovers_from_a_crash() {
    let (l, r) = Workload::taxi1m_nycb().prepare(1e-4, 42);
    let config = ClusterConfig::ec2(10);
    let lde = LdeEngine::default();
    let clean = lde
        .run(&Cluster::new(config.clone()), &l, &r, JoinPredicate::Intersects)
        .expect("LDE-MC+ has no capacity limit");
    let join = clean.trace.stages.last().expect("LDE-MC+ runs three stages");
    let plan = FaultPlan::seeded(7, &config).crash_at(2, clean.trace.total_ns() - join.sim_ns / 2);
    let faulted = lde
        .run(&Cluster::with_faults(config, plan), &l, &r, JoinPredicate::Intersects)
        .expect("LDE-MC+ survives one crash on 10 nodes");
    assert!(faulted.trace.total_attempts() > 0, "the faulted wave meters its attempts");
    assert!(!faulted.trace.recovery.is_empty(), "the crash shows in the recovery ledger");
    assert_eq!(clean.sorted_pairs(), faulted.sorted_pairs());
}
