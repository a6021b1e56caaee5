//! Thread-local scratch arena: typed buffer reuse across hot-path calls.
//!
//! The `hot-alloc` analyzer pass forbids per-iteration allocation inside
//! measured loops; this module is the sanctioned alternative. A hot
//! function *takes* a cleared, capacity-retaining `Vec<T>` from its
//! thread's arena, fills it, and *puts* it back when done — so the stripe
//! sweep's pair buffers, the SoA staging columns, and the scheduler's
//! per-wave vectors are allocated once per thread, not once per cell.
//!
//! ## Rules (see DESIGN.md §16)
//!
//! 1. A taken buffer is always **empty** (cleared on `put`, cleared again
//!    on `take`); only its capacity is recycled. Never rely on contents.
//! 2. `put` only what you own — never a buffer something else still
//!    borrows. The type system enforces this (`put_vec` takes by value).
//! 3. Capacity is advisory: the arena holds at most `MAX_PER_TYPE`
//!    buffers per element type and drops oversized ones
//!    (`MAX_KEEP_BYTES`), so a one-off giant query cannot pin its peak
//!    footprint forever.
//! 4. The arena is **per thread** (pool workers each have their own), so
//!    take/put never synchronize and buffers stay cache-warm on the thread
//!    that filled them. Migrating a buffer across threads (fill on a
//!    worker, put on the caller) is allowed — it only moves capacity.
//! 5. Determinism is unaffected by construction: a recycled buffer is
//!    indistinguishable from a fresh one to any correct user (rule 1).
//!
//! Forgetting to `put` is not a leak — the buffer just drops normally and
//! the next `take` falls back to a fresh allocation. [`with_vec`] wraps the
//! take/put pair for straight-line uses.

use std::any::{Any, TypeId};
use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Buffers retained per element type and thread.
const MAX_PER_TYPE: usize = 16;

/// Largest per-buffer capacity (in bytes) the arena keeps on `put`.
const MAX_KEEP_BYTES: usize = 1 << 22;

/// A `TypeId` is already a hash: its bits pass through, so a lookup costs
/// no hashing.
#[derive(Default)]
struct TypeIdHasher(u64);

impl Hasher for TypeIdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 ^= v;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Per buffer type, the type's free list: a boxed `Vec<Vec<T>>`.
type FreeLists = HashMap<TypeId, Box<dyn Any>, BuildHasherDefault<TypeIdHasher>>;

thread_local! {
    /// Per-thread free lists, keyed by the buffer's concrete `Vec<T>` type.
    /// A list is boxed once, when its type is first put, so a take/put
    /// cycle allocates nothing. A `HashMap` is fine here: iteration order
    /// is never observed — every access is a point lookup by `TypeId`.
    static ARENA: RefCell<FreeLists> = RefCell::new(FreeLists::default());
}

/// Takes an empty `Vec<T>` from this thread's arena, reusing a recycled
/// buffer's capacity when one is available.
pub fn take_vec<T: 'static>() -> Vec<T> {
    let recycled = ARENA.with(|arena| {
        let mut lists = arena.borrow_mut();
        lists.get_mut(&TypeId::of::<Vec<T>>())?.downcast_mut::<Vec<Vec<T>>>()?.pop()
    });
    let mut v = recycled.unwrap_or_default();
    v.clear();
    v
}

/// Returns a buffer to this thread's arena for later reuse. The contents
/// are dropped immediately; only the capacity is retained (bounded by
/// `MAX_PER_TYPE` and `MAX_KEEP_BYTES`).
pub fn put_vec<T: 'static>(mut v: Vec<T>) {
    // Clear before entering the arena borrow: element drops can run
    // arbitrary user code, which must not observe a held RefCell.
    v.clear();
    if v.capacity() == 0 || v.capacity().saturating_mul(size_of::<T>()) > MAX_KEEP_BYTES {
        return;
    }
    ARENA.with(|arena| {
        let mut lists = arena.borrow_mut();
        let list = lists
            .entry(TypeId::of::<Vec<T>>())
            .or_insert_with(|| Box::new(Vec::<Vec<T>>::with_capacity(MAX_PER_TYPE)));
        if let Some(list) = list.downcast_mut::<Vec<Vec<T>>>().filter(|l| l.len() < MAX_PER_TYPE) {
            list.push(v);
        }
    });
}

/// Runs `f` with a scratch `Vec<T>`, returning the buffer to the arena
/// afterwards. Nesting is fine — inner calls simply take another buffer.
pub fn with_vec<T: 'static, R>(f: impl FnOnce(&mut Vec<T>) -> R) -> R {
    let mut v = take_vec();
    let out = f(&mut v);
    put_vec(v);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_after_put_reuses_capacity_and_is_empty() {
        let mut v: Vec<u64> = take_vec();
        v.extend(0..1000);
        let cap = v.capacity();
        put_vec(v);
        let v2: Vec<u64> = take_vec();
        assert!(v2.is_empty());
        assert!(v2.capacity() >= cap, "capacity {} not recycled", v2.capacity());
    }

    #[test]
    fn types_do_not_cross_and_oversized_buffers_are_dropped() {
        put_vec::<u32>(Vec::with_capacity(64));
        let v: Vec<(u32, u32)> = take_vec();
        assert_eq!(v.capacity(), 0, "a Vec<u32> must not surface as Vec<(u32,u32)>");
        // A buffer past the byte cap is not retained.
        put_vec::<u64>(Vec::with_capacity(MAX_KEEP_BYTES / size_of::<u64>() + 1));
        let big: Vec<u64> = take_vec();
        assert_eq!(big.capacity(), 0);
    }

    #[test]
    fn with_vec_nests_without_aliasing() {
        let total = with_vec::<u64, u64>(|outer| {
            outer.extend(0..10);
            let inner_sum = with_vec::<u64, u64>(|inner| {
                inner.extend(100..110);
                inner.iter().sum()
            });
            outer.iter().sum::<u64>() + inner_sum
        });
        assert_eq!(total, (0..10u64).sum::<u64>() + (100..110u64).sum::<u64>());
    }
}
