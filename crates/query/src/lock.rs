//! The crate's one lock-poisoning policy: every `Mutex` / `RwLock`
//! acquisition in kb-query goes through this module.
//!
//! A lock is poisoned when a thread panics while holding it. The
//! service's locks guard serving state that such a holder may have left
//! half-updated — a registry whose standing views are patched for some
//! views of a delta and not others, a served view whose statistics
//! catalog is from another epoch — so taking a poisoned lock panics in
//! turn, at the caller's location, as each call site's own `expect` did
//! before. A reader is never answered from state a panic interrupted: a
//! panic is louder than a wrong answer, and the caller (a thread's
//! `catch_unwind`, or the process) decides what happens next.
//!
//! The single-flight cache is the one exception, and takes its locks
//! with [`recover`]: no cache update panics half-way, so its table is
//! valid under a poisoned lock; a leader whose `compute` unwinds poisons
//! its flight latch on purpose, which is how the flight's followers
//! learn there is no answer; and the leader's slot is retired during
//! that unwind, where a second panic would abort the process.

use std::sync::{LockResult, Mutex, MutexGuard, PoisonError, RwLock, RwLockWriteGuard};

/// Takes `mutex`; panics if a holder panicked.
#[track_caller]
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    unpoisoned(mutex.lock())
}

/// Takes `lock` exclusively; panics if a writer panicked.
#[track_caller]
pub(crate) fn write<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    unpoisoned(lock.write())
}

/// The guard whether or not a holder panicked — only for the cache, see
/// the module docs.
pub(crate) fn recover<G>(taken: LockResult<G>) -> G {
    taken.unwrap_or_else(PoisonError::into_inner)
}

#[track_caller]
fn unpoisoned<G>(taken: LockResult<G>) -> G {
    match taken {
        Ok(guard) => guard,
        Err(_) => panic!("lock poisoned: a thread panicked while holding it"),
    }
}
