//! Poison-free synchronization primitives.
//!
//! Thin wrappers over [`std::sync`] locks with the ergonomics the workspace
//! wants: `lock()` / `read()` / `write()` return guards directly instead of
//! a `Result`. A poisoned lock is recovered rather than propagated — every
//! structure guarded here (caches, statistics, RNG streams) stays internally
//! consistent even if a panicking thread held the guard, because all updates
//! are single-assignment or append-only from the guard's point of view.
//!
//! [`Shards`] is the one container both sharded caches are built on.

use crate::shard_index;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{
    Mutex as StdMutex, MutexGuard, PoisonError, RwLock as StdRwLock, RwLockReadGuard,
    RwLockWriteGuard,
};

/// A mutual-exclusion lock whose `lock()` never fails.
#[derive(Default)]
pub struct Mutex<T: ?Sized> {
    inner: StdMutex<T>,
}

impl<T> Mutex<T> {
    /// Wraps a value.
    pub fn new(value: T) -> Self {
        Mutex {
            inner: StdMutex::new(value),
        }
    }

    /// Consumes the lock, returning the value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, recovering from poison.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Attempts to acquire the lock without blocking, recovering from
    /// poison. `None` means another thread holds the guard right now —
    /// shard facades use this to count contention before falling back to
    /// a blocking `lock()`.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(guard) => Some(guard),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(p.into_inner()),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

/// A reader-writer lock whose `read()` / `write()` never fail.
#[derive(Default)]
pub struct RwLock<T: ?Sized> {
    inner: StdRwLock<T>,
}

impl<T> RwLock<T> {
    /// Wraps a value.
    pub fn new(value: T) -> Self {
        RwLock {
            inner: StdRwLock::new(value),
        }
    }

    /// Consumes the lock, returning the value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires a shared read guard, recovering from poison.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquires an exclusive write guard, recovering from poison.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.inner.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

/// N independently locked values partitioned by `(domain, function)`
/// ([`shard_index`]), counting the acquisitions that had to wait.
///
/// Lock order: a caller holds at most **one** shard lock at a time. Keyed
/// access locks one shard, and [`Shards::each`] hands out one guard per
/// step, which the caller drops before taking the next. There is
/// therefore no lock-ordering hazard between shards.
#[derive(Debug)]
pub struct Shards<T> {
    shards: Vec<Mutex<T>>,
    /// Shard-lock acquisitions that found the lock held (`try_lock`
    /// failed and the caller had to block).
    contention: AtomicU64,
}

impl<T> Shards<T> {
    /// The shards, in index order; panics if there are none.
    pub fn new(shards: Vec<T>) -> Self {
        assert!(!shards.is_empty(), "at least one shard");
        Shards {
            shards: shards.into_iter().map(Mutex::new).collect(),
            contention: AtomicU64::new(0),
        }
    }

    /// Number of shards.
    pub fn count(&self) -> usize {
        self.shards.len()
    }

    /// Locks the shard owning `(domain, function)`, counting contention.
    pub fn owner(&self, domain: &str, function: &str) -> MutexGuard<'_, T> {
        let shard = &self.shards[shard_index(domain, function, self.shards.len())];
        match shard.try_lock() {
            Some(guard) => guard,
            None => {
                self.contention.fetch_add(1, Ordering::Relaxed);
                shard.lock()
            }
        }
    }

    /// Locks shard 0: enough to read what every shard holds alike.
    pub fn first(&self) -> MutexGuard<'_, T> {
        self.shards[0].lock()
    }

    /// Each shard in index order, locked as the iterator reaches it.
    pub fn each(&self) -> impl Iterator<Item = MutexGuard<'_, T>> {
        self.shards.iter().map(Mutex::lock)
    }

    /// Blocking shard-lock acquisitions so far.
    pub fn contention(&self) -> u64 {
        self.contention.load(Ordering::Relaxed)
    }

    /// Hands every shard, locked once and in index order, the `items` it
    /// owns by `key`, in their given order (none: an empty `Vec`).
    pub fn distribute<I>(
        &self,
        items: impl IntoIterator<Item = I>,
        key: impl Fn(&I) -> (&str, &str),
        mut put: impl FnMut(&mut T, Vec<I>),
    ) {
        let n = self.count();
        let mut owned: Vec<Vec<I>> = (0..n).map(|_| Vec::new()).collect();
        for item in items {
            let (domain, function) = key(&item);
            owned[shard_index(domain, function, n)].push(item);
        }
        for (mut shard, items) in self.each().zip(owned) {
            put(&mut shard, items);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(3);
        *m.lock() += 4;
        assert_eq!(*m.lock(), 7);
        assert_eq!(m.into_inner(), 7);
    }

    #[test]
    fn rwlock_readers_and_writer() {
        let l = RwLock::new(vec![1]);
        assert_eq!(l.read().len(), 1);
        l.write().push(2);
        assert_eq!(*l.read(), vec![1, 2]);
        assert_eq!(l.into_inner(), vec![1, 2]);
    }

    #[test]
    fn try_lock_contended_and_free() {
        let m = Mutex::new(1);
        {
            let _g = m.lock();
            assert!(m.try_lock().is_none());
        }
        *m.try_lock().expect("uncontended") += 1;
        assert_eq!(*m.lock(), 2);
    }

    #[test]
    fn poisoned_mutex_recovers() {
        let m = Arc::new(Mutex::new(5));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison the lock");
        })
        .join();
        // A std Mutex would now be poisoned; ours recovers transparently.
        assert_eq!(*m.lock(), 5);
    }

    #[test]
    fn shards_route_by_key_and_distribute_to_the_owner() {
        let keys = ["a", "b", "c", "d", "e"];
        let shards = Shards::new(vec![Vec::new(); 3]);
        for key in keys {
            shards.owner("d", key).push(key);
        }
        let held = |s: &Shards<Vec<&'static str>>| s.each().map(|v| v.clone()).collect::<Vec<_>>();
        assert_eq!(held(&shards).concat().len(), keys.len());
        let again = Shards::new(vec![vec!["old"]; 3]);
        let mut visits = 0;
        again.distribute(
            keys,
            |key| ("d", *key),
            |shard, keys| {
                visits += 1;
                *shard = keys;
            },
        );
        assert_eq!(visits, 3, "every shard, owning or not, is visited once");
        assert_eq!(held(&again), held(&shards));
        assert_eq!(again.count(), 3);
    }

    #[test]
    fn poisoned_rwlock_recovers() {
        let l = Arc::new(RwLock::new(5));
        let l2 = l.clone();
        let _ = std::thread::spawn(move || {
            let _g = l2.write();
            panic!("poison the lock");
        })
        .join();
        assert_eq!(*l.read(), 5);
    }
}
