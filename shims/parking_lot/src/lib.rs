//! Offline stand-in for `parking_lot`: `Mutex` and `RwLock` with the
//! non-poisoning `lock()`/`read()`/`write()` signatures, implemented over
//! `std::sync`. Poison from a panicked holder is swallowed (the inner
//! value is recovered), matching parking_lot's "no poisoning" contract.

use std::sync::{self, MutexGuard, RwLockReadGuard, RwLockWriteGuard};

/// Non-poisoning mutex.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    inner: sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Wrap a value.
    pub fn new(value: T) -> Self {
        Mutex {
            inner: sync::Mutex::new(value),
        }
    }

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock (blocking); never returns a poison error.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Acquire the lock if it is free; `None` while another holder has it.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(guard) => Some(guard),
            Err(sync::TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires `&mut self`).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

/// Non-poisoning reader-writer lock.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized> {
    inner: sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Wrap a value.
    pub fn new(value: T) -> Self {
        RwLock {
            inner: sync::RwLock::new(value),
        }
    }

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire a shared read guard; never returns a poison error.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.inner.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Acquire an exclusive write guard; never returns a poison error.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.inner.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Mutable access without locking (requires `&mut self`).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn rwlock_readers_and_writer() {
        let l = RwLock::new(vec![1, 2]);
        {
            let a = l.read();
            let b = l.read();
            assert_eq!(a.len() + b.len(), 4);
        }
        l.write().push(3);
        assert_eq!(l.read().len(), 3);
    }
}
