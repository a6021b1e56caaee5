//! Deterministic host-side parallelism for the spatial-join workspace.
//!
//! Every primitive in this crate obeys one contract: **the result is a pure
//! function of the inputs — never of the thread count, the chunk schedule, or
//! which worker ran first.** Simulated `RunTrace` numbers therefore do not
//! move by a nanosecond when `SJC_PAR_THREADS` changes; only host wall-clock
//! does. Concretely:
//!
//! * [`par_map`] is **order-preserving**: output slot `i` holds `f(&items[i])`,
//!   exactly as the serial `items.iter().map(f).collect()` would produce.
//!   Workers claim *chunks* of indices from a single cache-line-padded atomic
//!   cursor (one claim a chunk, not per-item), so contention and false
//!   sharing stay negligible, while the claimed pieces keep order.
//! * [`par_map_weighted`] is the same map over **coarse items with
//!   skew-aware (LPT) dispatch**: every item is claimed on its own, items
//!   are *processed* in descending estimated-cost order so one fat cell
//!   cannot serialize the tail, but results are still *written* to their
//!   input-order slots — the output is bit-identical to [`par_map`]'s.
//! * [`par_sort_by`] is a **stable** parallel merge sort (ties keep their
//!   original relative order, merges prefer the left run). A stable sort has a
//!   unique answer, so the result is identical to `slice::sort_by` for every
//!   thread count.
//! * [`par_group`] is the shuffle: keys ascending, each key's values in
//!   input order — a stable counting pass when every key has a dense rank
//!   ([`GroupKey`]), else the same stable sort on the key — cut into runs.
//! * [`par_chunks_mut`] is the in-place sibling of [`par_map`]: workers claim
//!   chunk indices and receive disjoint `&mut` sub-slices, so each chunk sees
//!   exactly the transformation the serial `chunks_mut` pass would apply.
//! * [`join`] runs two closures concurrently and returns both results in
//!   argument order.
//!
//! Every parallel write lands in a **claimed piece**: the destination is split
//! up front (`chunks_mut`, `iter_mut`) into pieces, each behind its own lock,
//! and only the participant that claimed index `i` from the cursor takes
//! piece `i`, once — so no lock is ever contended, and no code outside the
//! pool needs `unsafe` (the crate root denies it).
//!
//! Execution happens on a **lazily-initialized persistent worker pool**
//! (`pool`): workers are spawned once and parked between calls, so a
//! parallel call costs a condvar wake instead of a thread spawn/join. How a
//! [`par_map`] call is split — or whether it runs serially — is decided by
//! the pure chunk planner in [`plan`] (chunk sizing and a serial fast path
//! below a work threshold); a weighted map engages one helper per item
//! beyond the caller's. Both cap *ambient* budgets at the hardware
//! parallelism. Hot paths reuse buffers through the thread-local
//! [`scratch`] arena instead of reallocating per call.
//!
//! Thread budget resolution (first match wins): explicit
//! [`set_global_threads`] override → `SJC_PAR_THREADS` env var →
//! `std::thread::available_parallelism()`. The env var and the hardware
//! parallelism are read once per process (the pool is sized once too), so
//! resolving a budget is one atomic load plus two cached reads; only the
//! override changes mid-process. A budget of 1 short-circuits to
//! plain serial execution, which tests use to force determinism comparisons.
//! Ambient budgets above the core count are capped by the planner
//! ([`Budget::effective_threads`]); [`Budget::explicit`] is honored verbatim
//! so tests can drive the pool oversubscribed.

#![deny(unsafe_code)]

use std::cmp::Ordering as CmpOrdering;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

#[allow(unsafe_code)] // the pool erases its job's lifetime; see its module docs
mod pool;

pub mod plan;
pub mod scratch;

/// Minimum chunk the parallel sort hands one worker — large enough to
/// amortize the claim and the merge bookkeeping.
const MIN_SORT_CHUNK: usize = 64;

/// Below this length a parallel sort is slower than `slice::sort_by`.
const SORT_MIN: usize = 4096;

/// Process-global thread override (0 = unset). Set by tests and by
/// `benchmark/` to flip between serial and parallel execution in-process
/// without touching the environment.
static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-global thread budget; `0` clears the override so the
/// `SJC_PAR_THREADS` env var / hardware parallelism apply again.
pub fn set_global_threads(n: usize) {
    GLOBAL_THREADS.store(n, Ordering::SeqCst);
}

/// A resolved thread budget. Carries the number of worker threads the
/// primitives may use; `Budget::explicit(1)` forces serial execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    threads: usize,
    /// Ambient budgets (resolved from the override / env / hardware) are
    /// capped at the hardware parallelism by [`Budget::effective_threads`];
    /// explicit budgets are not, so tests can oversubscribe deliberately.
    capped: bool,
}

impl Budget {
    /// Resolves the ambient budget: global override → `SJC_PAR_THREADS` →
    /// hardware parallelism.
    pub fn resolve() -> Budget {
        let over = GLOBAL_THREADS.load(Ordering::SeqCst);
        if over > 0 {
            return Budget { threads: over, capped: true };
        }
        Budget { threads: env_threads().unwrap_or_else(hardware_threads), capped: true }
    }

    /// An explicit budget of exactly `n` threads (`n` is clamped to ≥ 1).
    /// Never capped to the hardware parallelism.
    pub fn explicit(n: usize) -> Budget {
        Budget { threads: n.max(1), capped: false }
    }

    /// Number of worker threads this budget allows, as requested.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The thread count the planner actually schedules for: ambient budgets
    /// are capped at [`hardware_threads`] — running more CPU-bound threads
    /// than cores only adds context-switch overhead (the negative scaling
    /// the pre-pool baseline measured) — while explicit budgets pass
    /// through untouched.
    pub fn effective_threads(&self) -> usize {
        if self.capped {
            self.threads.min(hardware_threads())
        } else {
            self.threads
        }
    }
}

/// The `SJC_PAR_THREADS` budget, if set to a positive integer. Read once:
/// every `par_*` call resolves the budget, and `std::env::var` takes the
/// environment lock and allocates a `String` each time.
// sjc-lint: allow(cache-purity) — memoizes a process-constant env var; the value cannot change between a cold and a warm cache hit, and the thread budget never alters results anyway
fn env_threads() -> Option<usize> {
    static THREADS: OnceLock<Option<usize>> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::env::var("SJC_PAR_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
    })
}

/// Hardware parallelism with a serial fallback. Read once: on Linux
/// `available_parallelism()` re-reads the cgroup quota files on every call
/// (≈ 12 µs), and the pool is sized from this value once per process
/// anyway, so a process-constant is the honest model.
// sjc-lint: allow(cache-purity) — memoizes the host's core count, which the once-built pool already treats as fixed for the process; the thread budget never alters results
pub fn hardware_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

/// Work-claim cursor padded to a cache line so the hot atomic never false-
/// shares with neighboring data.
#[repr(align(64))]
struct PaddedCursor(AtomicUsize);

/// Runs `task(i, piece)` once for every piece `i` of a destination split up
/// front (`chunks_mut`, `iter_mut`, zipped with its inputs), on the caller
/// and up to `helpers` pool workers. Each piece sits behind its own lock;
/// only the participant that claimed index `i` takes piece `i`, and only
/// once, so no lock is ever contended. Participants claim positions of
/// `order` (every index in turn when `None`) from one cursor; the caller
/// takes position 0 itself, so it starts before any helper wakes and never
/// loses that piece to a worker on wake-up timing. `task` is a trait
/// object: one copy of this loop per piece type, not per closure.
fn run_pieces<P: Send>(
    helpers: usize,
    pieces: impl IntoIterator<Item = P>,
    order: Option<&[u32]>,
    task: &(dyn Fn(usize, P) + Sync),
) {
    let pieces = pieces.into_iter();
    let mut locks: Vec<Mutex<Option<P>>> = Vec::with_capacity(pieces.size_hint().0);
    for piece in pieces {
        locks.push(Mutex::new(Some(piece)));
    }
    let at = |k: usize| match order {
        Some(order) => order.get(k).map(|&i| i as usize),
        None => Some(k),
    };
    let take =
        |i: usize| Some((i, locks.get(i)?.lock().unwrap_or_else(|e| e.into_inner()).take()?));
    let nested = pool::on_worker();
    let cursor = PaddedCursor(AtomicUsize::new(1));
    let work = || {
        let claim = || cursor.0.fetch_add(1, Ordering::Relaxed);
        let mut k = if pool::on_worker() && !nested { claim() } else { 0 };
        while let Some((i, piece)) = at(k).and_then(take) {
            task(i, piece);
            k = claim();
        }
    };
    pool::run(helpers.min(locks.len().saturating_sub(1)), &work);
}

/// Order-preserving parallel map: returns `f` applied to every item, in input
/// order, using the ambient [`Budget`].
pub fn par_map<T: Sync, U: Send>(items: &[T], f: impl Fn(&T) -> U + Sync) -> Vec<U> {
    par_map_budget(Budget::resolve(), items, f)
}

/// [`par_map`] with an explicit thread budget.
pub fn par_map_budget<T: Sync, U: Send>(
    budget: Budget,
    items: &[T],
    f: impl Fn(&T) -> U + Sync,
) -> Vec<U> {
    let n = items.len();
    let p = plan::plan_chunks(n, budget);
    if p.is_serial() || pool::on_worker() {
        return items.iter().map(f).collect();
    }
    let mut slots: Vec<Option<U>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    let pieces = slots.chunks_mut(p.chunk).zip(items.chunks(p.chunk));
    run_pieces(p.helpers, pieces, None, &|_, (out, items)| {
        for (slot, item) in out.iter_mut().zip(items) {
            *slot = Some(f(item));
        }
    });
    // sjc-lint: allow(panic-path) — the pieces cover every slot and each is claimed once; an empty one is a runtime bug this expect should surface loudly
    slots.into_iter().map(|s| s.expect("every piece is claimed exactly once")).collect()
}

/// Stable longest-processing-time-first schedule, into a caller-provided
/// (scratch) buffer: the indices of `weights` sorted by descending weight,
/// ties broken by ascending index. The result is always a permutation of
/// `0..weights.len()`; the weighted map *processes* items in this order
/// while *writing* results to input-order slots, so skew-aware scheduling
/// never changes an output.
fn lpt_sort(weights: &[u64], order: &mut Vec<u32>) {
    order.clear();
    order.extend(0..weights.len() as u32);
    // sjc-lint: allow(panic-path) — `order` holds exactly the indices 0..weights.len()
    order.sort_by(|&a, &b| weights[b as usize].cmp(&weights[a as usize]).then(a.cmp(&b)));
}

/// Runs `task` once on every piece, heaviest item first, on the caller and
/// up to `helpers` pool workers: piece `i` belongs to `items[i]`, and
/// [`run_pieces`] claims the pieces in [`lpt_sort`] order, so the caller
/// takes the heaviest item itself and helpers claim the rest one by one.
fn run_lpt<T, P: Send>(
    helpers: usize,
    items: &[T],
    weight: impl Fn(&T) -> u64,
    pieces: impl IntoIterator<Item = P>,
    task: &(dyn Fn(usize, P) + Sync),
) {
    let mut weights: Vec<u64> = scratch::take_vec();
    weights.extend(items.iter().map(weight));
    let mut order: Vec<u32> = scratch::take_vec();
    lpt_sort(&weights, &mut order);
    scratch::put_vec(weights);
    run_pieces(helpers, pieces, Some(&order), task);
    scratch::put_vec(order);
}

/// [`par_map`] over coarse items with skew-aware dispatch: one helper per
/// item beyond the caller's, up to the budget, however few items there are.
/// `weight` estimates each item's relative cost, and items are processed
/// heaviest-first (greedy LPT — with dynamic claiming, descending-cost
/// processing order *is* the longest-processing-time-first assignment).
/// The output is bit-identical to [`par_map`]: only the order changes.
pub fn par_map_weighted<T: Sync, U: Send>(
    items: &[T],
    weight: impl Fn(&T) -> u64,
    f: impl Fn(&T) -> U + Sync,
) -> Vec<U> {
    par_map_weighted_budget(Budget::resolve(), items, weight, f)
}

/// [`par_map_weighted`] with an explicit thread budget.
pub fn par_map_weighted_budget<T: Sync, U: Send>(
    budget: Budget,
    items: &[T],
    weight: impl Fn(&T) -> u64,
    f: impl Fn(&T) -> U + Sync,
) -> Vec<U> {
    let n = items.len();
    let helpers = budget.effective_threads().min(n).saturating_sub(1);
    if helpers == 0 || pool::on_worker() || n > u32::MAX as usize {
        return items.iter().map(f).collect();
    }
    let mut slots: Vec<Option<U>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    run_lpt(helpers, items, weight, slots.iter_mut().zip(items), &|_, (slot, item)| {
        *slot = Some(f(item));
    });
    // sjc-lint: allow(panic-path) — the LPT order is a permutation, so every slot is filled exactly once
    slots.into_iter().map(|s| s.expect("LPT claiming covers every index exactly once")).collect()
}

/// Stable parallel merge sort: identical output to `slice::sort_by` (which is
/// stable) for every thread count, because a stable sort's result is unique.
pub fn par_sort_by<T: Sync>(v: &mut [T], cmp: impl Fn(&T, &T) -> CmpOrdering + Sync) {
    par_sort_by_budget(Budget::resolve(), v, cmp)
}

/// [`par_sort_by`] with an explicit thread budget.
fn par_sort_by_budget<T: Sync>(
    budget: Budget,
    v: &mut [T],
    cmp: impl Fn(&T, &T) -> CmpOrdering + Sync,
) {
    let n = v.len();
    if budget.effective_threads() == 1 || n < SORT_MIN || n > u32::MAX as usize || pool::on_worker()
    {
        v.sort_by(cmp);
        return;
    }
    // Sort a permutation (u32 indices are cheap to merge), then apply it.
    // Its buffer comes from the scratch arena: repeated sorts reuse it.
    let mut order: Vec<u32> = scratch::take_vec();
    sorted_order(budget, v, cmp, &mut order);
    permute(v, &mut order);
    scratch::put_vec(order);
}

/// Fills `order` with the permutation that stably sorts `v` by `cmp`:
/// `order[j]` is the index of the element a stable sort puts at `j`. Chunk
/// sorts use std's stable sort and merges prefer the left (earlier-index)
/// run on ties, so every thread count gives the permutation a serial stable
/// sort would. `v.len()` must fit in a `u32`.
fn sorted_order<T: Sync>(
    budget: Budget,
    v: &[T],
    cmp: impl Fn(&T, &T) -> CmpOrdering + Sync,
    order: &mut Vec<u32>,
) {
    let n = v.len();
    order.clear();
    order.extend(0..n as u32);
    // sjc-lint: allow(panic-path) — `order` holds the indices 0..n of `v`
    let by = |a: &u32, b: &u32| cmp(&v[*a as usize], &v[*b as usize]);
    let threads = budget.effective_threads();
    if threads == 1 || n < SORT_MIN || pool::on_worker() {
        order.sort_by(by);
        return;
    }
    let chunk = n.div_ceil(threads).max(MIN_SORT_CHUNK);
    run_pieces(threads - 1, order.chunks_mut(chunk), None, &|_, piece| piece.sort_by(by));
    let mut buf: Vec<u32> = scratch::take_vec();
    buf.resize(n, 0);
    let mut width = chunk;
    while width < n {
        merge_round(order, &mut buf, width, &by, threads - 1);
        std::mem::swap(order, &mut buf);
        width *= 2;
    }
    scratch::put_vec(buf);
}

/// Moves `v[order[j]]` to slot `j` for every `j` by following the
/// permutation's cycles: each swap puts one element in its final slot, and
/// `order[j] = j` marks slot `j` placed. `order` must be a permutation of
/// `0..v.len()`; it is left as the identity.
fn permute<T>(v: &mut [T], order: &mut [u32]) {
    for i in 0..order.len() {
        let mut j = i;
        while let Some(slot) = order.get_mut(j) {
            let k = std::mem::replace(slot, j as u32) as usize;
            if k == i {
                break;
            }
            v.swap(j, k);
            j = k;
        }
    }
}

/// Pairs grouped by key, as [`par_group`] returns them: keys ascending, each
/// with the run of its values in input order, all runs in one buffer.
pub struct Groups<K, V> {
    /// Distinct keys with run lengths summing to `values.len()`: `iter` stays in bounds.
    keys: Vec<(K, usize)>,
    values: Vec<V>,
}

impl<K, V> Groups<K, V> {
    /// Each key with its run, in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &[V])> {
        self.keys.iter().scan(self.values.as_slice(), |rest, (k, len)| {
            let (run, tail) = rest.split_at(*len);
            *rest = tail;
            Some((k, run))
        })
    }

    /// Replaces every value by `f(value)`; keys and runs stay.
    pub fn map_values<W>(self, f: impl FnMut(V) -> W) -> Groups<K, W> {
        Groups { keys: self.keys, values: self.values.into_iter().map(f).collect() }
    }

    /// Each key with its run as an owned `Vec`, in key order.
    pub fn into_runs(self) -> impl Iterator<Item = (K, Vec<V>)> {
        let mut rest = self.values.into_iter();
        self.keys.into_iter().map(move |(k, len)| (k, rest.by_ref().take(len).collect()))
    }
}

/// A key [`par_group`] can group: ordered, and optionally ranked.
///
/// A *rank* is an order-preserving dense number: for two keys that both
/// have one, `a < b` exactly when `a.rank() < b.rank()` (so equal keys
/// rank equal and unequal keys apart). When every key of a grouping has a
/// rank, and the ranks span at most a small multiple of the pair count,
/// the grouping counts instead of comparing. A key without a rank
/// (`None`, the default) is grouped by comparison.
pub trait GroupKey: Ord {
    /// This key's rank, if it has one.
    fn rank(&self) -> Option<u32> {
        None
    }
}

/// Cell ids rank as themselves.
impl GroupKey for u32 {
    fn rank(&self) -> Option<u32> {
        Some(*self)
    }
}

/// A `u64` ranks as itself while it fits a `u32`.
impl GroupKey for u64 {
    fn rank(&self) -> Option<u32> {
        u32::try_from(*self).ok()
    }
}

impl GroupKey for String {}

impl GroupKey for &str {}

/// Counted ranks may span this many per pair, plus [`RANK_SLACK`]: a count
/// table past that costs more to clear and scan than the pairs' sort.
const RANKS_PER_PAIR: usize = 4;

/// The rank span any grouping may count over, however few its pairs.
const RANK_SLACK: usize = 1024;

/// Groups owned `(key, value)` pairs by key, the shuffle of both substrates
/// (Hadoop's sort, Spark's `groupByKey`/`join`): keys ascending, each
/// key's values in input order. That answer is unique, so every thread
/// count gives it. The pairs are put in order by a stable counting pass
/// over the keys' ranks when every key has one and they are dense
/// ([`GroupKey`]), else by [`par_sort_by`]'s stable sort on the key; then
/// cut into runs.
pub fn par_group<K: GroupKey + Sync, V: Sync>(pairs: Vec<(K, V)>) -> Groups<K, V> {
    par_group_budget(Budget::resolve(), pairs)
}

/// [`par_group`] with an explicit thread budget.
fn par_group_budget<K: GroupKey + Sync, V: Sync>(
    budget: Budget,
    mut pairs: Vec<(K, V)>,
) -> Groups<K, V> {
    let by_key = |a: &(K, V), b: &(K, V)| a.0.cmp(&b.0);
    if pairs.len() > u32::MAX as usize {
        pairs.sort_by(by_key);
        return runs(pairs);
    }
    // Order a permutation, not the pairs: its scratch is 4 bytes a pair,
    // not a copy of every pair. Then move each pair into its slot.
    let mut order = Vec::new();
    if !counted_order(&pairs, &mut order) {
        sorted_order(budget, &pairs, by_key, &mut order);
    }
    permute(&mut pairs, &mut order);
    let groups = runs(pairs);
    debug_assert!(
        groups.keys.windows(2).all(|w| matches!(w, [(a, _), (b, _)] if a < b)),
        "par_group: keys out of order; a rank does not keep key order"
    );
    groups
}

/// Fills `order` with the permutation that stably sorts `pairs` by key, by
/// counting ranks: count the pairs per rank, prefix-sum the counts into
/// each rank's first slot, then place every pair in input order. Returns
/// `false`, leaving `order` for a sort, when a key has no rank or the ranks
/// span more than [`RANKS_PER_PAIR`] per pair plus [`RANK_SLACK`].
fn counted_order<K: GroupKey, V>(pairs: &[(K, V)], order: &mut Vec<u32>) -> bool {
    let (mut lo, mut hi) = (u32::MAX, 0);
    for (k, _) in pairs {
        let Some(r) = k.rank() else { return false };
        (lo, hi) = (lo.min(r), hi.max(r));
    }
    let span = (hi as usize + 1).saturating_sub(lo as usize);
    if span > RANKS_PER_PAIR * pairs.len() + RANK_SLACK {
        return false;
    }
    let slot = |k: &K| k.rank().map_or(0, |r| (r - lo) as usize);
    let mut first: Vec<u32> = scratch::take_vec();
    first.resize(span + 1, 0);
    for (k, _) in pairs {
        if let Some(count) = first.get_mut(slot(k) + 1) {
            *count += 1;
        }
    }
    let mut at = 0;
    for start in first.iter_mut() {
        at += *start;
        *start = at;
    }
    order.clear();
    order.resize(pairs.len(), 0);
    for (i, (k, _)) in pairs.iter().enumerate() {
        if let Some(next) = first.get_mut(slot(k)) {
            if let Some(place) = order.get_mut(*next as usize) {
                *place = i as u32;
            }
            *next += 1;
        }
    }
    scratch::put_vec(first);
    true
}

/// Cuts key-ordered pairs into runs; std's in-place `collect` keeps the
/// pairs' buffer.
fn runs<K: PartialEq, V>(pairs: Vec<(K, V)>) -> Groups<K, V> {
    let mut keys: Vec<(K, usize)> = Vec::new();
    let values = pairs
        .into_iter()
        .map(|(k, v)| {
            match keys.last_mut() {
                Some((last, len)) if *last == k => *len += 1,
                _ => keys.push((k, 1)),
            }
            v
        })
        .collect();
    Groups { keys, values }
}

/// One parallel round of pairwise run merges from `src` into `dst`: each
/// `2 * width` piece of `dst` takes the merge of the two `width` runs of the
/// same range of `src`.
fn merge_round(
    src: &[u32],
    dst: &mut [u32],
    width: usize,
    cmp: &(impl Fn(&u32, &u32) -> CmpOrdering + Sync),
    helpers: usize,
) {
    let pieces = dst.chunks_mut(2 * width).zip(src.chunks(2 * width));
    run_pieces(helpers, pieces, None, &|_, (out, runs)| {
        let (a, b) = runs.split_at(width.min(runs.len()));
        merge_runs(a, b, out, cmp);
    });
}

/// Stable two-run merge: on ties the left run (earlier original index) wins.
fn merge_runs(a: &[u32], b: &[u32], out: &mut [u32], cmp: &impl Fn(&u32, &u32) -> CmpOrdering) {
    let (mut i, mut j, mut k) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        // sjc-lint: allow(panic-path) — i/j are loop-bounded
        if cmp(&a[i], &b[j]) != CmpOrdering::Greater {
            // sjc-lint: allow(panic-path) — k = i + j < a.len() + b.len() = out.len()
            out[k] = a[i];
            i += 1;
        } else {
            // sjc-lint: allow(panic-path) — k = i + j < a.len() + b.len() = out.len()
            out[k] = b[j];
            j += 1;
        }
        k += 1;
    }
    // sjc-lint: allow(panic-path) — k + remaining tail lengths equals out.len() exactly
    out[k..k + a.len() - i].copy_from_slice(&a[i..]);
    k += a.len() - i;
    // sjc-lint: allow(panic-path) — k + remaining tail lengths equals out.len() exactly
    out[k..k + b.len() - j].copy_from_slice(&b[j..]);
}

/// Runs `f` over disjoint `chunk`-sized sub-slices of `v` concurrently,
/// passing each chunk's index. Chunk boundaries depend only on `chunk` and
/// `v.len()` — never on the thread count — and each chunk is claimed exactly
/// once, so any deterministic per-chunk `f` leaves the slice in the same
/// state at every thread count (the in-place sibling of [`par_map`], used
/// for e.g. sorting independent strips of one buffer).
pub fn par_chunks_mut<T: Send>(v: &mut [T], chunk: usize, f: impl Fn(usize, &mut [T]) + Sync) {
    par_chunks_mut_budget(Budget::resolve(), v, chunk, f)
}

/// [`par_chunks_mut`] with an explicit thread budget.
fn par_chunks_mut_budget<T: Send>(
    budget: Budget,
    v: &mut [T],
    chunk: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    let chunk = chunk.max(1);
    let threads = budget.effective_threads();
    if threads == 1 || v.len() <= chunk || pool::on_worker() {
        for (i, c) in v.chunks_mut(chunk).enumerate() {
            f(i, c);
        }
        return;
    }
    run_pieces(threads - 1, v.chunks_mut(chunk), None, &f);
}

/// Runs two closures concurrently (when the budget allows) and returns both
/// results in argument order.
pub fn join<A: Send, B: Send>(
    fa: impl FnOnce() -> A + Send,
    fb: impl FnOnce() -> B + Send,
) -> (A, B) {
    join_budget(Budget::resolve(), fa, fb)
}

/// [`join`] with an explicit thread budget.
fn join_budget<A: Send, B: Send>(
    budget: Budget,
    fa: impl FnOnce() -> A + Send,
    fb: impl FnOnce() -> B + Send,
) -> (A, B) {
    if budget.effective_threads() == 1 || pool::on_worker() {
        return (fa(), fb());
    }
    // Both halves are claimed from a two-slot cursor, so the caller and at
    // most one pool helper split them; with no free helper the caller just
    // runs both. The result slots are written by whichever participant
    // claimed each half — argument order is restored on return.
    let fa_slot = Mutex::new(Some(fa));
    let fb_slot = Mutex::new(Some(fb));
    let ra: Mutex<Option<A>> = Mutex::new(None);
    let rb: Mutex<Option<B>> = Mutex::new(None);
    let cursor = PaddedCursor(AtomicUsize::new(0));
    let work = || loop {
        match cursor.0.fetch_add(1, Ordering::Relaxed) {
            0 => {
                let taken = fa_slot.lock().unwrap_or_else(|e| e.into_inner()).take();
                if let Some(fa) = taken {
                    let a = fa();
                    *ra.lock().unwrap_or_else(|e| e.into_inner()) = Some(a);
                }
            }
            1 => {
                let taken = fb_slot.lock().unwrap_or_else(|e| e.into_inner()).take();
                if let Some(fb) = taken {
                    let b = fb();
                    *rb.lock().unwrap_or_else(|e| e.into_inner()) = Some(b);
                }
            }
            _ => break,
        }
    };
    pool::run(1, &work);
    let a = ra.into_inner().unwrap_or_else(|e| e.into_inner());
    let b = rb.into_inner().unwrap_or_else(|e| e.into_inner());
    match (a, b) {
        (Some(a), Some(b)) => (a, b),
        // sjc-lint: allow(panic-path) — both halves were claimed and ran (pool::run returned without re-raising), so both slots are filled
        _ => unreachable!("join halves always run exactly once"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sjc_testkit::cases;
    use std::sync::atomic::AtomicBool;

    fn budgets() -> Vec<Budget> {
        vec![
            Budget::explicit(1),
            Budget::explicit(2),
            Budget::explicit(8),
            Budget::explicit(hardware_threads()),
        ]
    }

    #[test]
    fn par_map_matches_serial_for_arbitrary_inputs() {
        cases(0x5eed1, 40, |rng| {
            let items = rng.vec_u64(0..u64::MAX, 0..5000);
            let serial: Vec<u64> =
                items.iter().map(|&x| x.wrapping_mul(31).rotate_left(7)).collect();
            for b in budgets() {
                let par = par_map_budget(b, &items, |&x| x.wrapping_mul(31).rotate_left(7));
                assert_eq!(par, serial, "budget {b:?}");
            }
        });
    }

    #[test]
    fn weighted_map_matches_its_unweighted_sibling_bit_for_bit() {
        cases(0x5eed7, 30, |rng| {
            let items = rng.vec_u64(0..u64::MAX, 0..3000);
            let serial: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(17)).collect();
            for b in budgets() {
                // Skewed weights: the item value itself, so heavy and light
                // items interleave arbitrarily.
                let par =
                    par_map_weighted_budget(b, &items, |&x| x % 1000, |&x| x.wrapping_mul(17));
                assert_eq!(par, serial, "budget {b:?}");
            }
        });
    }

    /// Item `i` of two marks itself started, then waits for the other in
    /// millisecond naps, giving up after about ten seconds: both see each
    /// other only when two threads run them at once.
    fn meet(started: &[AtomicBool; 2], i: usize) -> bool {
        started[i].store(true, Ordering::SeqCst);
        (0..10_000).any(|_| {
            let seen = started[1 - i].load(Ordering::SeqCst);
            if !seen {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            seen
        })
    }

    #[test]
    fn weighted_map_runs_two_items_at_once() {
        let started = [AtomicBool::new(false), AtomicBool::new(false)];
        let met =
            par_map_weighted_budget(Budget::explicit(2), &[0, 1], |_| 1, |&i| meet(&started, i));
        assert_eq!(met, [true, true]);
    }

    #[test]
    fn the_caller_works_the_heaviest_item() {
        for _ in 0..20 {
            let on_worker = par_map_weighted_budget(
                Budget::explicit(2),
                &[1u64, 9, 4],
                |&w| w,
                |_| pool::on_worker(),
            );
            assert!(!on_worker[1], "{on_worker:?}");
        }
    }

    /// A panicking item re-raises on the caller through every map's pieces,
    /// and the very next call at the same budget returns the serial answer:
    /// no piece or lock of the failed call outlives it.
    #[test]
    fn a_panicking_item_re_raises_and_the_next_call_is_whole() {
        let b = Budget::explicit(2);
        let raises = |call: &mut dyn FnMut()| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(call)).is_err()
        };
        let boom = |x: u64| if x == 4321 { panic!("item {x}") } else { x.wrapping_mul(3) };
        let items: Vec<u64> = (0..5000).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(3)).collect();
        for _ in 0..3 {
            assert!(raises(&mut || drop(par_map_budget(b, &items, |&x| boom(x)))));
            assert_eq!(par_map_budget(b, &items, |&x| x.wrapping_mul(3)), serial);
            assert!(raises(&mut || drop(par_map_weighted_budget(b, &items, |&x| x, |&x| boom(x)))));
            assert_eq!(par_map_weighted_budget(b, &items, |&x| x, |&x| x.wrapping_mul(3)), serial);
            let mut v = items.clone();
            assert!(raises(&mut || {
                par_chunks_mut_budget(b, &mut v, 64, |_, c| {
                    c.iter_mut().for_each(|x| *x = boom(*x))
                })
            }));
            let mut v = items.clone();
            par_chunks_mut_budget(b, &mut v, 64, |_, c| c.iter_mut().for_each(|x| *x *= 3));
            assert_eq!(v, serial);
        }
    }

    #[test]
    fn lpt_order_is_a_descending_permutation() {
        cases(0x5eed8, 60, |rng| {
            let weights = rng.vec_u64(0..1000, 0..2000);
            let mut order = Vec::new();
            lpt_sort(&weights, &mut order);
            // A permutation: every index exactly once.
            let mut seen = vec![false; weights.len()];
            for &i in &order {
                assert!(!seen[i as usize], "index {i} scheduled twice");
                seen[i as usize] = true;
            }
            assert!(seen.iter().all(|&s| s), "some index never scheduled");
            // Non-increasing weights, ties in ascending index order.
            for pair in order.windows(2) {
                let (a, b) = (pair[0] as usize, pair[1] as usize);
                assert!(
                    weights[a] > weights[b] || (weights[a] == weights[b] && pair[0] < pair[1]),
                    "not an LPT order at {pair:?}"
                );
            }
        });
    }

    #[test]
    fn par_sort_matches_std_stable_sort_with_ties() {
        cases(0x5eed3, 30, |rng| {
            let n = rng.usize_in(0..20_000);
            // Pairs (key, payload) with heavy key collisions: stability shows
            // up as payload order within equal keys.
            let items: Vec<(u64, u64)> = (0..n).map(|i| (rng.u64_in(0..50), i as u64)).collect();
            let mut serial = items.clone();
            serial.sort_by_key(|a| a.0);
            for b in budgets() {
                let mut par = items.clone();
                par_sort_by_budget(b, &mut par, |a, bb| a.0.cmp(&bb.0));
                assert_eq!(par, serial, "budget {b:?}");
            }
        });
    }

    #[test]
    fn par_group_matches_a_btreemap_of_runs() {
        use std::collections::BTreeMap;
        cases(0x5eed9, 32, |rng| {
            // 0: empty; 1: one key; 2: all-distinct keys, descending;
            // 3: a few keys, interleaved. Lengths fall on both sides of
            // SORT_MIN, so the 4-thread runs take the parallel merge path.
            let shape = rng.usize_in(0..4);
            let n = match (shape, rng.bool_with(0.5)) {
                (0, _) => 0,
                (_, true) => rng.usize_in(SORT_MIN..3 * SORT_MIN),
                (_, false) => rng.usize_in(1..SORT_MIN),
            };
            // The value is the input position, so any reordering shows.
            let pairs: Vec<(u64, u64)> = (0..n as u64)
                .map(|i| match shape {
                    1 => (7, i),
                    2 => (n as u64 - i, i),
                    _ => (rng.u64_in(0..20), i),
                })
                .collect();
            let mut reference: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
            for &(k, v) in &pairs {
                reference.entry(k).or_default().push(v);
            }
            let expected: Vec<(u64, Vec<u64>)> = reference.into_iter().collect();
            for threads in [1, 4] {
                let groups = par_group_budget(Budget::explicit(threads), pairs.clone());
                let borrowed: Vec<(u64, Vec<u64>)> =
                    groups.iter().map(|(&k, run)| (k, run.to_vec())).collect();
                assert_eq!(borrowed, expected, "threads {threads}, shape {shape}, n {n}");
                let owned: Vec<(u64, Vec<u64>)> = groups.into_runs().collect();
                assert_eq!(owned, expected, "threads {threads}, shape {shape}, n {n}");
            }
        });
    }

    /// The comparison grouping: `par_group` without its counting pass.
    fn grouped_by_comparison<K: Ord + Sync, V: Sync>(
        budget: Budget,
        mut pairs: Vec<(K, V)>,
    ) -> Groups<K, V> {
        let mut order = Vec::new();
        sorted_order(budget, &pairs, |a, b| a.0.cmp(&b.0), &mut order);
        permute(&mut pairs, &mut order);
        runs(pairs)
    }

    /// Each key with its run, owned, for comparing two groupings.
    fn listed<K: Clone, V: Clone>(groups: &Groups<K, V>) -> Vec<(K, Vec<V>)> {
        groups.iter().map(|(k, run)| (k.clone(), run.to_vec())).collect()
    }

    /// Whether `par_group` would count `pairs`, and the grouping it returns
    /// against the comparison grouping at thread budgets 1, 2 and 4.
    fn counts_as_compared<K: GroupKey + Clone + Sync + std::fmt::Debug>(
        pairs: Vec<(K, u64)>,
    ) -> bool {
        let counted = counted_order(&pairs, &mut Vec::new());
        for threads in [1, 2, 4] {
            let budget = Budget::explicit(threads);
            let grouped = par_group_budget(budget, pairs.clone());
            let compared = grouped_by_comparison(budget, pairs.clone());
            assert_eq!(listed(&grouped), listed(&compared), "threads {threads}, counted {counted}");
        }
        counted
    }

    /// The counting grouping is the comparison grouping, over dense `u32`
    /// ranks at any offset (up to `u32::MAX`), sparse ranks (which must
    /// fall back), `u64` keys of which some have no rank, and `String`
    /// keys, which have none. The value is the input position plus noise,
    /// so an unstable placement shows as a reordered run.
    #[test]
    fn counted_grouping_matches_the_comparison_grouping() {
        let (mut counted, mut fell_back) = (0, 0);
        cases(0x5eedc, 48, |rng| {
            let n = match rng.usize_in(0..3) {
                0 => rng.usize_in(0..64),
                1 => rng.usize_in(64..SORT_MIN),
                _ => rng.usize_in(SORT_MIN..3 * SORT_MIN),
            };
            let noise = rng.u64_in(0..1 << 40);
            let value = |i: usize| ((i as u64) << 20) ^ noise;
            let keys = rng.u32_in(1..3000);
            let lo = if rng.bool_with(0.5) { u32::MAX - keys } else { rng.u32_in(0..1 << 20) };
            let dense: Vec<(u32, u64)> =
                (0..n).map(|i| (lo + rng.u32_in(0..keys), value(i))).collect();
            let fits = n * RANKS_PER_PAIR + RANK_SLACK >= keys as usize;
            let expect_count =
                fits || dense.iter().map(|p| p.0).max() == dense.iter().map(|p| p.0).min();
            if counts_as_compared(dense) {
                counted += 1;
            } else {
                assert!(!expect_count || n == 0, "{n} pairs over {keys} ranks fell back");
                fell_back += 1;
            }
            // Sparse: ranks spread over all of `u32`.
            let sparse: Vec<(u32, u64)> = (0..n.max(2))
                .map(|i| (if i % 2 == 0 { 0 } else { u32::MAX - rng.u32_in(0..9) }, value(i)))
                .collect();
            assert!(!counts_as_compared(sparse), "sparse ranks were counted");
            // `u64` keys above `u32::MAX` have no rank.
            let wide_at = rng.usize_in(0..n.max(1));
            let wide: Vec<(u64, u64)> = (0..n.max(1))
                .map(|i| (rng.u64_in(0..40) + if i == wide_at { 1 << 32 } else { 0 }, value(i)))
                .collect();
            assert!(!counts_as_compared(wide), "a key without a rank was counted");
            let texts: Vec<(String, u64)> = (0..n.clamp(1, 500))
                .map(|i| (format!("k{}", rng.u64_in(0..30)), value(i)))
                .collect();
            assert!(!counts_as_compared(texts), "a `String` key was counted");
        });
        assert!(counted > 20 && fell_back > 0, "counted {counted}, fell back {fell_back}");
    }

    #[test]
    fn par_chunks_mut_matches_serial_chunked_pass() {
        cases(0x5eed5, 30, |rng| {
            let items = rng.vec_u64(0..u64::MAX, 0..8000);
            let chunk = rng.usize_in(1..300);
            let mut serial = items.clone();
            for (i, c) in serial.chunks_mut(chunk).enumerate() {
                c.sort_unstable();
                for x in c.iter_mut() {
                    *x = x.wrapping_add(i as u64);
                }
            }
            for b in budgets() {
                let mut par = items.clone();
                par_chunks_mut_budget(b, &mut par, chunk, |i, c| {
                    c.sort_unstable();
                    for x in c.iter_mut() {
                        *x = x.wrapping_add(i as u64);
                    }
                });
                assert_eq!(par, serial, "budget {b:?} chunk {chunk}");
            }
        });
    }

    #[test]
    fn join_returns_in_argument_order() {
        for threads in [1, 2] {
            let (a, b) = join_budget(Budget::explicit(threads), || "left", || "right");
            assert_eq!((a, b), ("left", "right"));
        }
    }

    #[test]
    fn nested_parallel_calls_run_serially_on_workers_and_stay_correct() {
        // The experiment driver nests par_map inside join closures; with a
        // persistent pool this must neither deadlock nor change results.
        let outer: Vec<u64> = (0..64).collect();
        let expected: Vec<u64> = outer.iter().map(|&x| (0..2000).map(|k| x + k).sum()).collect();
        for b in budgets() {
            let got = par_map_weighted_budget(
                b,
                &outer,
                |_| 1,
                |&x| {
                    let inner: Vec<u64> = (0..2000).map(|k| x + k).collect();
                    par_map_budget(b, &inner, |&v| v).into_iter().sum::<u64>()
                },
            );
            assert_eq!(got, expected, "budget {b:?}");
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let empty: Vec<u64> = Vec::new();
        assert!(par_map_budget(Budget::explicit(8), &empty, |&x| x).is_empty());
        assert!(par_map_weighted_budget(Budget::explicit(8), &empty, |_| 1, |&x| x).is_empty());
        let mut one = vec![42u64];
        par_sort_by_budget(Budget::explicit(8), &mut one, |a, b| a.cmp(b));
        assert_eq!(one, vec![42]);
    }

    #[test]
    fn budget_resolution_prefers_global_override_and_caps_ambient_budgets() {
        // One test owns the process-global override: splitting these
        // assertions across tests would race under the parallel harness.
        set_global_threads(3);
        let resolved = Budget::resolve();
        set_global_threads(0);
        assert_eq!(resolved.threads(), 3);
        // Ambient budgets above the core count are capped by the planner;
        // the requested count itself is preserved for reporting.
        assert_eq!(resolved.effective_threads(), 3.min(hardware_threads()));
        let over = hardware_threads() + 7;
        set_global_threads(over);
        let ambient = Budget::resolve();
        set_global_threads(0);
        assert_eq!(ambient.threads(), over);
        assert_eq!(ambient.effective_threads(), hardware_threads());
    }
}
