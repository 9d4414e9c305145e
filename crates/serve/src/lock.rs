//! The crate's one lock-poisoning policy: every `Mutex` / `RwLock`
//! acquisition in kb-serve goes through this module.
//!
//! A lock is poisoned when a thread panics while holding it. The
//! router's locks guard state such a holder may have left half-updated —
//! partitions that have taken a delta beside ones that have not, a view
//! registry patched for some views and not others, a subscriber queue
//! or a tenant's token bucket mid-change — so taking a poisoned lock
//! panics in turn, at the caller's location, as each call site's own
//! `expect` did before. A reader is never answered from state a panic
//! interrupted: a panic is louder than a wrong answer, and the caller (a
//! thread's `catch_unwind`, or the process) decides what happens next.

use std::sync::{LockResult, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Takes `mutex`; panics if a holder panicked.
#[track_caller]
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    unpoisoned(mutex.lock())
}

/// Takes `lock` shared; panics if a writer panicked.
#[track_caller]
pub(crate) fn read<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    unpoisoned(lock.read())
}

/// Takes `lock` exclusively; panics if a writer panicked.
#[track_caller]
pub(crate) fn write<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    unpoisoned(lock.write())
}

#[track_caller]
fn unpoisoned<G>(taken: LockResult<G>) -> G {
    match taken {
        Ok(guard) => guard,
        Err(_) => panic!("lock poisoned: a thread panicked while holding it"),
    }
}
