//! Offline stand-in for parking_lot over std::sync, poison-unwrapping.

use std::ops::{Deref, DerefMut};
use std::sync as ss;

pub struct Mutex<T: ?Sized> {
    inner: ss::Mutex<T>,
}

pub struct MutexGuard<'a, T: ?Sized> {
    guard: ss::MutexGuard<'a, T>,
}

impl<T> Mutex<T> {
    pub fn new(value: T) -> Mutex<T> {
        Mutex {
            inner: ss::Mutex::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let guard = match self.inner.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        MutexGuard { guard }
    }

    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Some(MutexGuard { guard: g }),
            Err(ss::TryLockError::Poisoned(p)) => Some(MutexGuard {
                guard: p.into_inner(),
            }),
            Err(ss::TryLockError::WouldBlock) => None,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Mutex<T> {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

pub struct RwLock<T: ?Sized> {
    inner: ss::RwLock<T>,
}

pub struct RwLockReadGuard<'a, T: ?Sized> {
    guard: ss::RwLockReadGuard<'a, T>,
}

pub struct RwLockWriteGuard<'a, T: ?Sized> {
    guard: ss::RwLockWriteGuard<'a, T>,
}

impl<T> RwLock<T> {
    pub fn new(value: T) -> RwLock<T> {
        RwLock {
            inner: ss::RwLock::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let guard = match self.inner.read() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        RwLockReadGuard { guard }
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let guard = match self.inner.write() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        RwLockWriteGuard { guard }
    }

    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        match self.inner.try_read() {
            Ok(g) => Some(RwLockReadGuard { guard: g }),
            Err(ss::TryLockError::Poisoned(p)) => Some(RwLockReadGuard {
                guard: p.into_inner(),
            }),
            Err(ss::TryLockError::WouldBlock) => None,
        }
    }

    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        match self.inner.try_write() {
            Ok(g) => Some(RwLockWriteGuard { guard: g }),
            Err(ss::TryLockError::Poisoned(p)) => Some(RwLockWriteGuard {
                guard: p.into_inner(),
            }),
            Err(ss::TryLockError::WouldBlock) => None,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> RwLock<T> {
        RwLock::new(T::default())
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}
