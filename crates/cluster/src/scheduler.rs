//! Task scheduling: turning per-task simulated durations into a makespan.
//!
//! Both Hadoop and Spark schedule ready tasks greedily onto free slots. We
//! model this with Longest-Processing-Time (LPT) list scheduling, which is
//! deterministic and within 4/3 of optimal — more than accurate enough for
//! the end-to-end comparisons the paper makes.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::error::SimError;
use crate::faults::{stage_tag, FaultPlan, MAX_TASK_ATTEMPTS, SPECULATION_THRESHOLD};
use crate::metrics::{RecoveryEvent, RecoveryKind};
use crate::SimNs;

/// LPT makespan of `tasks` on `slots` parallel slots.
pub fn lpt_makespan(tasks: &[SimNs], slots: usize) -> SimNs {
    assert!(slots > 0, "at least one slot required");
    if tasks.is_empty() {
        return 0;
    }
    // Scratch-recycled sort buffer: every wave (and every faulted re-run
    // wave) calls this, so the copy reuses the previous call's capacity.
    let mut sorted: Vec<SimNs> = sjc_par::scratch::take_vec();
    sorted.extend_from_slice(tasks);
    sorted.sort_unstable_by_key(|&t| Reverse(t));

    // Min-heap of slot finish times.
    let mut heap: BinaryHeap<Reverse<SimNs>> = (0..slots).map(|_| Reverse(0)).collect();
    #[cfg(feature = "sanitize")]
    let mut last_start: SimNs = 0;
    for &t in &sorted {
        // `slots > 0` is asserted above, so the heap is never empty; peek_mut
        // updates the least-loaded slot in place (and re-sifts on drop).
        if let Some(mut slot) = heap.peek_mut() {
            // List scheduling assigns each task at the current minimum finish
            // time, so successive start times can never move backwards.
            #[cfg(feature = "sanitize")]
            {
                debug_assert!(
                    slot.0 >= last_start,
                    "sanitize: scheduler start times went backwards ({} < {last_start})",
                    slot.0
                );
                last_start = slot.0;
            }
            slot.0 += t;
        }
    }
    sjc_par::scratch::put_vec(sorted);
    heap.into_iter().map(|Reverse(t)| t).max().unwrap_or(0)
}

/// Analytic makespan for the *same multiset of tasks replicated
/// `multiplier` times* — how full-scale runs are extrapolated from
/// scale-factor runs. With many replicas LPT converges to the area bound,
/// `max(total_work × multiplier / slots, longest_task)`.
pub fn replicated_makespan(tasks: &[SimNs], slots: usize, multiplier: f64) -> SimNs {
    assert!(slots > 0, "at least one slot required");
    assert!(multiplier >= 1.0, "multiplier extrapolates upward");
    if tasks.is_empty() {
        return 0;
    }
    // Replication only adds work, so the extrapolated makespan can never be
    // below the single-copy LPT makespan. Clamping to it keeps the estimate
    // monotone in `multiplier` (the bare area bound dips below the LPT value
    // for multipliers just above 1).
    let base = lpt_makespan(tasks, slots);
    let total: f64 = tasks.iter().map(|&t| t as f64).sum();
    let longest = tasks.iter().copied().max().unwrap_or(0) as f64;
    ((longest.max(total * multiplier / slots as f64)) as SimNs).max(base)
}

/// The outcome of scheduling one task wave under a [`FaultPlan`] — the
/// makespan plus the recovery ledger the trace layer surfaces.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TaskSchedule {
    pub makespan: SimNs,
    /// Attempts launched (≥ task count; > on any retry/speculation).
    pub attempts: u64,
    /// Speculative duplicate attempts launched.
    pub speculative: u64,
    /// Simulated ns of work thrown away (failed attempts, killed tasks,
    /// losing speculative copies, re-run map outputs).
    pub wasted_ns: SimNs,
    /// Recovery actions, in occurrence order.
    pub events: Vec<RecoveryEvent>,
    /// Node that produced each task's surviving output (input task order).
    pub task_nodes: Vec<u32>,
}

/// Straggler-scaled duration. Factor 1.0 is the exact identity (no float
/// round-trip), which keeps the zero-fault path bit-identical.
fn scaled(base: SimNs, factor: f64) -> SimNs {
    if factor <= 1.0 {
        base
    } else {
        (base as f64 * factor) as SimNs
    }
}

/// Pops the earliest-free slot whose node is still alive when an attempt
/// that becomes runnable at `ready` would actually launch
/// (`max(free, ready)`). Slots of nodes dead at their own free time are
/// lazily discarded for good; slots alive at `free` but dead by `ready`
/// (a retry of a task the crash itself killed) are kept for tasks with
/// earlier ready times. `last_dead` remembers the most recent casualty for
/// error reporting.
fn pop_live(
    heap: &mut BinaryHeap<Reverse<(SimNs, u32)>>,
    slots_per_node: u32,
    plan: &FaultPlan,
    last_dead: &mut u32,
    ready: SimNs,
) -> Option<(SimNs, u32)> {
    // Called once per attempt (the wave loop's hottest edge): the stash
    // buffer comes from the scratch arena instead of a per-call allocation.
    let mut stash: Vec<(SimNs, u32)> = sjc_par::scratch::take_vec();
    let mut found = None;
    while let Some(Reverse((free, sid))) = heap.pop() {
        let node = sid / slots_per_node;
        match plan.crash_ns(node) {
            Some(c) if c <= free => *last_dead = node,
            Some(c) if c <= free.max(ready) => {
                *last_dead = node;
                stash.push((free, sid));
            }
            _ => {
                found = Some((free, sid));
                break;
            }
        }
    }
    heap.extend(stash.drain(..).map(Reverse));
    sjc_par::scratch::put_vec(stash);
    found
}

/// Event-driven wave scheduler: the fault-aware generalization of
/// [`lpt_makespan`]. Tasks launch in LPT order onto the earliest-free live
/// slot, starting at absolute simulated time `start_ns` (node crashes are
/// scheduled on the run's global clock). Per attempt it models:
///
/// * **transient disk errors** — the attempt's work is wasted and the task
///   retries, bounded by [`MAX_TASK_ATTEMPTS`]; each retry waits out the
///   plan's bounded exponential backoff
///   ([`FaultPlan::retry_backoff_ns`]) before becoming runnable, while the
///   failed attempt's slot frees immediately;
/// * **node crashes** — running tasks die with the node, its slots leave
///   the pool; no surviving slot at all is [`SimError::NodeLost`];
/// * **stragglers** — slow slots stretch the attempt; at
///   [`SPECULATION_THRESHOLD`]× a speculative duplicate launches on the
///   next free slot and the first finisher wins (loser charged as waste);
/// * **map-output loss** (`rerun_on_crash`) — tasks that completed on a
///   node that later died within this wave re-run on surviving slots
///   (Hadoop re-executes completed maps whose host died before shuffle);
/// * **elastic re-scheduling** — when the plan enables provisioning
///   ([`FaultPlan::with_elastic_provisioning`]), every crashed node gets a
///   replacement whose slots come online a jittered
///   [`FaultPlan::provision_delay_ns`] after the crash; replacements never
///   crash themselves, and each one that actually runs work emits
///   [`RecoveryKind::NodeReplaced`].
///
/// With `FaultPlan::none()` its makespan is exactly `lpt_makespan`'s
/// (asserted by tests), though it still meters one attempt per task. The
/// engines schedule through [`Cluster::wave`](crate::Cluster::wave), which
/// makes that choice once: `lpt_makespan` alone when no fault is planned,
/// this scheduler otherwise.
pub fn faulty_makespan(
    tasks: &[SimNs],
    slots_per_node: u32,
    nodes: u32,
    plan: &FaultPlan,
    stage: &str,
    start_ns: SimNs,
    rerun_on_crash: bool,
) -> Result<TaskSchedule, SimError> {
    assert!(slots_per_node > 0 && nodes > 0, "at least one slot required");
    let mut out = TaskSchedule { task_nodes: vec![0; tasks.len()], ..TaskSchedule::default() };
    if tasks.is_empty() {
        return Ok(out);
    }
    let tag = stage_tag(stage);

    // LPT order: longest first, input index breaks ties deterministically.
    // The per-wave order buffer is scratch-recycled across waves.
    let mut order: Vec<(SimNs, usize)> = sjc_par::scratch::take_vec();
    order.extend(tasks.iter().enumerate().map(|(i, &t)| (t, i)));
    order.sort_unstable_by_key(|&(t, i)| (Reverse(t), i));

    // Min-heap of (free time, slot id); slot id breaks ties so the schedule
    // is a pure function of the inputs.
    let mut heap: BinaryHeap<Reverse<(SimNs, u32)>> =
        (0..nodes * slots_per_node).map(|sid| Reverse((start_ns, sid))).collect();

    // Elastic re-scheduling: the k-th distinct crashed node's replacement
    // gets node id `nodes + k` (so `crash_ns` — which only ever names
    // original nodes — answers None: replacements never die), with
    // slots coming online after the jittered provisioning delay.
    let mut crashed_nodes: Vec<u32> = Vec::new();
    if plan.provision_delay_base_ns > 0 {
        crashed_nodes = plan.crashes.iter().map(|c| c.node).filter(|&n| n < nodes).collect();
        crashed_nodes.sort_unstable();
        crashed_nodes.dedup();
        for (k, &n) in crashed_nodes.iter().enumerate() {
            if let Some(ready) = plan.replacement_ready_ns(n) {
                let base_sid = (nodes + k as u32) * slots_per_node;
                for j in 0..slots_per_node {
                    heap.push(Reverse((ready.max(start_ns), base_sid + j)));
                }
            }
        }
    }
    // Which replacements actually launched an attempt (index into
    // `crashed_nodes`); only those count as regained capacity.
    let mut replacement_used: Vec<bool> = vec![false; crashed_nodes.len()];

    let mut last_dead: u32 = 0;
    let mut end = start_ns;
    // Events are recorded stage-less inside the wave loop (hot path: one
    // entry per retry/speculation) and materialized with the stage name
    // once, after the loop — the wave loop itself never allocates strings.
    // The buffer is scratch-recycled, as a fault sweep runs thousands of
    // waves; an early error return skips the `put` and the buffer just drops.
    let mut wave_events: Vec<(RecoveryKind, SimNs)> = sjc_par::scratch::take_vec();

    for &(base, idx) in &order {
        let mut attempt: u32 = 0;
        // A retry cannot launch before the moment its predecessor failed.
        let mut ready = start_ns;
        // Bounded retry: FAILED attempts (disk errors) count against
        // MAX_TASK_ATTEMPTS; KILLED attempts (node crash took the task
        // down) do not — matching Hadoop's FAILED/KILLED distinction.
        // Kills still terminate: each one permanently removes a slot, so
        // the pool drains to NodeLost.
        loop {
            let (free, sid) = match pop_live(&mut heap, slots_per_node, plan, &mut last_dead, ready)
            {
                Some(s) => s,
                None => {
                    // sjc-lint: allow(hot-alloc) — cold error return: allocates once, then the run is over
                    return Err(SimError::NodeLost { stage: stage.to_string(), node: last_dead });
                }
            };
            let node = sid / slots_per_node;
            if let Some(used) = replacement_used.get_mut(node.wrapping_sub(nodes) as usize) {
                *used = true;
            }
            let launch = free.max(ready);
            attempt += 1;
            out.attempts += 1;
            let factor = plan.straggler_factor(tag, sid as u64);
            let dur = scaled(base, factor);

            // Transient disk error: the attempt runs, fails, and the slot is
            // busy for the wasted duration.
            if plan.disk_error(tag, idx as u64, attempt) {
                out.wasted_ns += dur;
                wave_events.push((RecoveryKind::TaskRetry { task: idx as u64, attempt }, dur));
                if attempt >= MAX_TASK_ATTEMPTS {
                    return Err(SimError::TaskAttemptsExhausted {
                        // sjc-lint: allow(hot-alloc) — cold error return: allocates once, then the run is over
                        stage: stage.to_string(),
                        task: idx as u64,
                        attempts: attempt,
                    });
                }
                // The slot frees the moment the failed attempt's work ends;
                // the *task* additionally sits out a bounded, jittered
                // exponential backoff before its retry becomes runnable.
                ready = launch + dur + plan.retry_backoff_ns(tag, idx as u64, attempt);
                heap.push(Reverse((launch + dur, sid)));
                continue;
            }

            let fin = launch + dur;

            // Node crash mid-attempt: the task dies with the node; its slots
            // never return to the pool. The attempt is KILLED, not FAILED —
            // it does not consume the retry budget.
            if let Some(c) = plan.crash_ns(node) {
                if c < fin {
                    let lost = c.saturating_sub(launch);
                    out.wasted_ns += lost;
                    wave_events.push((RecoveryKind::NodeCrash { node, tasks_killed: 1 }, lost));
                    last_dead = node;
                    attempt -= 1;
                    ready = c;
                    continue;
                }
            }

            // The attempt will complete. A straggling attempt additionally
            // gets a speculative duplicate on the next free live slot; the
            // first finisher wins and the loser is killed at that instant.
            let mut completion = fin;
            let mut winner_node = node;
            let mut primary_free = fin;
            if factor >= SPECULATION_THRESHOLD {
                if let Some((b_free, b_sid)) =
                    pop_live(&mut heap, slots_per_node, plan, &mut last_dead, ready)
                {
                    let b_node = b_sid / slots_per_node;
                    if let Some(used) =
                        replacement_used.get_mut(b_node.wrapping_sub(nodes) as usize)
                    {
                        *used = true;
                    }
                    let b_dur = scaled(base, plan.straggler_factor(tag, b_sid as u64));
                    let b_launch = b_free.max(ready);
                    let b_fin = b_launch + b_dur;
                    let backup_survives = match plan.crash_ns(b_node) {
                        Some(c) => c >= b_fin,
                        None => true,
                    };
                    if backup_survives && b_fin < fin {
                        // Backup wins; the straggler is killed at b_fin.
                        out.speculative += 1;
                        out.attempts += 1;
                        completion = b_fin;
                        winner_node = b_node;
                        let killed = b_fin.saturating_sub(launch).min(dur);
                        out.wasted_ns += killed;
                        wave_events.push((RecoveryKind::Speculation { task: idx as u64 }, killed));
                        primary_free = b_fin.max(free);
                        heap.push(Reverse((b_fin, b_sid)));
                    } else if backup_survives {
                        // Straggler wins anyway; the backup is killed at fin.
                        out.speculative += 1;
                        out.attempts += 1;
                        let killed = fin.saturating_sub(b_launch).min(b_dur);
                        out.wasted_ns += killed;
                        wave_events.push((RecoveryKind::Speculation { task: idx as u64 }, killed));
                        heap.push(Reverse((fin.clamp(b_launch, b_fin), b_sid)));
                    } else {
                        // Backup slot's node dies first — no speculation.
                        heap.push(Reverse((b_free, b_sid)));
                    }
                }
            }
            heap.push(Reverse((primary_free, sid)));
            if let Some(slot) = out.task_nodes.get_mut(idx) {
                *slot = winner_node;
            }
            end = end.max(completion);
            break;
        }
    }

    // Elasticity bookkeeping, appended in node order after the
    // per-task events so the ledger stays a pure function of the inputs.
    for (k, &orig) in crashed_nodes.iter().enumerate() {
        if replacement_used.get(k).copied().unwrap_or(false) {
            let delay_ns = plan.provision_delay_ns(orig);
            wave_events.push((RecoveryKind::NodeReplaced { node: orig, delay_ns }, 0));
        }
    }

    // Materialize the wave's events: the stage name is attached here, once
    // per event, outside the hot loop above.
    out.events = wave_events
        .drain(..)
        .map(|(kind, wasted_ns)| RecoveryEvent { stage: stage.to_string(), kind, wasted_ns })
        .collect();
    sjc_par::scratch::put_vec(wave_events);
    sjc_par::scratch::put_vec(order);

    // Map-output loss: a node that died within this wave takes the outputs
    // of every task it had already completed with it; those tasks re-run as
    // one extra LPT wave on the surviving slots.
    if rerun_on_crash {
        let dead = plan.dead_nodes_at(end);
        let mut rerun: Vec<SimNs> = sjc_par::scratch::take_vec();
        let mut rerun_wasted: SimNs = 0;
        // A task's winning node can only be in `dead` if it completed before
        // the crash (the crash check above kills in-flight attempts), so
        // every such task's output is gone and must be reproduced.
        for (idx, &base) in tasks.iter().enumerate() {
            if out.task_nodes.get(idx).is_some_and(|n| dead.contains(n)) {
                rerun.push(base);
                rerun_wasted += base;
            }
        }
        if !rerun.is_empty() {
            // Replacement nodes online by the end of the wave count as
            // survivors: elastic re-scheduling regains the lost capacity
            // for the re-run wave.
            let replacements = crashed_nodes
                .iter()
                .filter(|&&n| plan.replacement_ready_ns(n).is_some_and(|r| r <= end))
                .count();
            let survivors = (nodes as usize - dead.len() + replacements) * slots_per_node as usize;
            if survivors == 0 {
                return Err(SimError::NodeLost { stage: stage.to_string(), node: last_dead });
            }
            let extra = lpt_makespan(&rerun, survivors);
            out.wasted_ns += rerun_wasted;
            out.attempts += rerun.len() as u64;
            out.events.push(RecoveryEvent {
                stage: stage.to_string(),
                kind: RecoveryKind::MapRerun { tasks: rerun.len() as u64 },
                wasted_ns: rerun_wasted,
            });
            end += extra;
        }
        sjc_par::scratch::put_vec(rerun);
    }

    out.makespan = end - start_ns;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_slot_serializes() {
        assert_eq!(lpt_makespan(&[5, 3, 2], 1), 10);
    }

    #[test]
    fn perfect_parallelism() {
        assert_eq!(lpt_makespan(&[7, 7, 7, 7], 4), 7);
    }

    #[test]
    fn longest_task_dominates() {
        assert_eq!(lpt_makespan(&[100, 1, 1, 1], 4), 100);
    }

    #[test]
    fn lpt_balances_unequal_tasks() {
        // 6,5,4,3,2,1 on 2 slots: LPT gives {6,3,2}=11 vs {5,4,1}=10 → 11.
        assert_eq!(lpt_makespan(&[1, 2, 3, 4, 5, 6], 2), 11);
    }

    #[test]
    fn empty_task_list() {
        assert_eq!(lpt_makespan(&[], 8), 0);
        assert_eq!(replicated_makespan(&[], 8, 100.0), 0);
    }

    #[test]
    fn replicated_matches_lpt_at_multiplier_one() {
        let tasks = [9, 8, 1, 4, 4];
        assert_eq!(replicated_makespan(&tasks, 3, 1.0), lpt_makespan(&tasks, 3));
    }

    #[test]
    fn replicated_converges_to_area_bound() {
        let tasks = [10u64, 10, 10, 10];
        // 100 copies of 4×10 work on 4 slots → 100 waves of 10.
        assert_eq!(replicated_makespan(&tasks, 4, 100.0), 1000);
    }

    #[test]
    fn replicated_respects_longest_task() {
        // A single giant task bounds the makespan from below even when the
        // area bound is small.
        let tasks = [1_000u64, 1, 1];
        let m = replicated_makespan(&tasks, 1000, 2.0);
        assert!(m >= 1000);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slots_rejected() {
        let _ = lpt_makespan(&[1], 0);
    }

    // --- faulty_makespan -------------------------------------------------

    use crate::config::ClusterConfig;
    use crate::metrics::RecoveryKind;

    fn plan() -> FaultPlan {
        FaultPlan::seeded(99, &ClusterConfig::ec2(4))
    }

    #[test]
    fn zero_faults_degenerate_to_lpt() {
        // The event-driven scheduler with the identity plan must reproduce
        // the closed-form LPT makespan exactly, for many task shapes.
        let none = FaultPlan::none();
        let shapes: [&[SimNs]; 5] = [
            &[5, 3, 2],
            &[7, 7, 7, 7],
            &[100, 1, 1, 1],
            &[1, 2, 3, 4, 5, 6],
            &[9, 8, 1, 4, 4, 13, 2, 2, 2, 40],
        ];
        for tasks in shapes {
            for (spn, nodes) in [(1u32, 2u32), (2, 2), (8, 4)] {
                let s = faulty_makespan(tasks, spn, nodes, &none, "st", 0, true).unwrap();
                assert_eq!(s.makespan, lpt_makespan(tasks, (spn * nodes) as usize), "{tasks:?}");
                assert_eq!(s.attempts, tasks.len() as u64);
                assert_eq!(s.wasted_ns, 0);
                assert!(s.events.is_empty());
            }
        }
    }

    #[test]
    fn start_offset_does_not_change_a_fault_free_makespan() {
        let s0 = faulty_makespan(&[4, 4, 9], 2, 2, &FaultPlan::none(), "st", 0, false).unwrap();
        let s9 = faulty_makespan(&[4, 4, 9], 2, 2, &FaultPlan::none(), "st", 9_000, false).unwrap();
        assert_eq!(s0.makespan, s9.makespan);
    }

    #[test]
    fn disk_errors_retry_and_waste_work() {
        // 10%: plenty of retries over 64 tasks, yet the chance any one task
        // burns all four attempts (rate^4) is negligible.
        let p = plan().with_disk_errors(0.1);
        let tasks = vec![1_000u64; 64];
        let s = faulty_makespan(&tasks, 8, 4, &p, "map", 0, false).unwrap();
        assert!(s.attempts > 64, "retries happened: {}", s.attempts);
        assert!(s.wasted_ns > 0);
        assert!(s.events.iter().any(|e| matches!(e.kind, RecoveryKind::TaskRetry { .. })));
        assert!(s.makespan >= lpt_makespan(&tasks, 32), "faults never speed a wave up");
    }

    #[test]
    fn retry_backoff_extends_the_wave_but_not_the_retry_count() {
        // One slot serializes everything: with backoff each retry inserts a
        // dead gap, so the wave must take strictly longer than the
        // backoff-free schedule — while the disk-error draws (pure in
        // (stage, task, attempt)) produce the exact same retries.
        let with = plan().with_disk_errors(0.25);
        let without = with.clone().with_retry_backoff(0);
        let tasks = vec![1_000u64; 32];
        let s_with = faulty_makespan(&tasks, 1, 1, &with, "map", 0, false).unwrap();
        let s_without = faulty_makespan(&tasks, 1, 1, &without, "map", 0, false).unwrap();
        assert!(s_with.attempts > 32, "retries happened: {}", s_with.attempts);
        assert_eq!(s_with.attempts, s_without.attempts, "backoff never changes fault draws");
        assert_eq!(s_with.wasted_ns, s_without.wasted_ns);
        assert!(
            s_with.makespan > s_without.makespan,
            "backoff gaps cost wall time: {} <= {}",
            s_with.makespan,
            s_without.makespan
        );
    }

    #[test]
    fn disk_error_storm_exhausts_attempts() {
        let p = plan().with_disk_errors(1.0);
        let err = faulty_makespan(&[100], 8, 4, &p, "map", 0, false).unwrap_err();
        match err {
            SimError::TaskAttemptsExhausted { attempts, .. } => {
                assert_eq!(attempts, MAX_TASK_ATTEMPTS)
            }
            other => panic!("wrong error: {other:?}"),
        }
    }

    #[test]
    fn node_crash_is_survived_by_retrying_elsewhere() {
        // Node 0 dies 50ns in; its running tasks retry on survivors.
        let p = plan().crash_at(0, 50);
        let tasks = vec![100u64; 8];
        let s = faulty_makespan(&tasks, 2, 4, &p, "map", 0, false).unwrap();
        assert!(s.attempts > 8, "killed tasks re-ran");
        assert!(s.wasted_ns > 0);
        assert!(s.events.iter().any(|e| matches!(e.kind, RecoveryKind::NodeCrash { .. })));
        assert!(s.task_nodes.iter().all(|&n| n != 0), "no surviving output on the dead node");
    }

    #[test]
    fn losing_every_node_is_fatal() {
        let p = plan().crash_at(0, 10).crash_at(1, 10).crash_at(2, 10).crash_at(3, 10);
        let err = faulty_makespan(&[100, 100], 2, 4, &p, "map", 20, false).unwrap_err();
        assert!(matches!(err, SimError::NodeLost { .. }), "{err:?}");
    }

    #[test]
    fn stragglers_trigger_speculation() {
        let p = plan().with_stragglers(0.4, 4.0);
        let tasks = vec![1_000u64; 40];
        let s = faulty_makespan(&tasks, 8, 4, &p, "map", 0, false).unwrap();
        assert!(s.speculative > 0, "some slot of 32 straggles at 40% rate");
        assert!(s.events.iter().any(|e| matches!(e.kind, RecoveryKind::Speculation { .. })));
        // Speculation bounds the damage: strictly better than a world where
        // every straggler runs to completion at 4× (area argument is loose,
        // so just require the makespan stays below the full-slowdown bound).
        assert!(s.makespan < 4 * lpt_makespan(&tasks, 32) + 4_000);
    }

    #[test]
    fn completed_maps_on_a_dead_node_rerun() {
        // All tasks finish by t=100·8/8=100… node 2 dies at 150, after the
        // wave: its completed outputs are lost and re-run.
        let tasks = vec![100u64; 8];
        let p = plan().crash_at(2, 150);
        // Extend the wave past the crash with one long task so the crash
        // lands inside the stage window.
        let mut with_tail = tasks.clone();
        with_tail.push(400);
        let s = faulty_makespan(&with_tail, 2, 4, &p, "map", 0, true).unwrap();
        let reran = s
            .events
            .iter()
            .any(|e| matches!(e.kind, RecoveryKind::MapRerun { tasks } if tasks > 0));
        assert!(reran, "events: {:?}", s.events);
        let no_rerun = faulty_makespan(&with_tail, 2, 4, &p, "map", 0, false).unwrap();
        assert!(s.makespan > no_rerun.makespan, "re-running costs extra time");
    }

    #[test]
    fn schedules_are_pure_functions_of_inputs() {
        let p = FaultPlan::heavy(7, &ClusterConfig::ec2(4)).crash_at(1, 5_000);
        let tasks: Vec<SimNs> = (0..50).map(|i| 100 + 37 * i).collect();
        let a = faulty_makespan(&tasks, 8, 4, &p, "map", 123, true).unwrap();
        let b = faulty_makespan(&tasks, 8, 4, &p, "map", 123, true).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn elastic_replacement_regains_lost_capacity() {
        // Node 0 (2 of 8 slots) dies early in a long wave. Without
        // elasticity the remaining 6 slots carry the rest of the run; with a
        // provisioning delay much shorter than the wave, the replacement's
        // slots absorb work and the makespan strictly improves.
        let tasks = vec![1_000u64; 64];
        let dead = plan().crash_at(0, 500);
        let elastic = dead.clone().with_elastic_provisioning(1_000);
        let s_dead = faulty_makespan(&tasks, 2, 4, &dead, "map", 0, false).unwrap();
        let s_el = faulty_makespan(&tasks, 2, 4, &elastic, "map", 0, false).unwrap();
        assert!(
            s_el.makespan < s_dead.makespan,
            "replacement capacity must shorten the wave: {} >= {}",
            s_el.makespan,
            s_dead.makespan
        );
        assert!(
            s_el.task_nodes.iter().any(|&n| n >= 4),
            "some task must finish on the replacement node: {:?}",
            s_el.task_nodes
        );
        let replaced = s_el.events.iter().any(
            |e| matches!(e.kind, RecoveryKind::NodeReplaced { node: 0, delay_ns } if delay_ns > 0),
        );
        assert!(replaced, "events: {:?}", s_el.events);
        // An idle replacement (delay past the wave) emits no event and
        // changes nothing.
        let late = dead.clone().with_elastic_provisioning(crate::faults::MAX_PROVISION_DELAY_NS);
        let s_late = faulty_makespan(&tasks, 2, 4, &late, "map", 0, false).unwrap();
        assert_eq!(s_late.makespan, s_dead.makespan);
        assert!(!s_late.events.iter().any(|e| matches!(e.kind, RecoveryKind::NodeReplaced { .. })));
    }
}
