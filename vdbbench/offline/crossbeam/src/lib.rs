//! Offline stand-in for crossbeam's scoped threads over std::thread::scope.

pub mod thread {
    use std::any::Any;

    pub struct Scope<'scope, 'env: 'scope> {
        inner: &'scope std::thread::Scope<'scope, 'env>,
    }

    pub struct ScopedJoinHandle<'scope, T> {
        inner: std::thread::ScopedJoinHandle<'scope, T>,
    }

    impl<T> ScopedJoinHandle<'_, T> {
        pub fn join(self) -> Result<T, Box<dyn Any + Send + 'static>> {
            self.inner.join()
        }
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
        where
            F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let inner_scope = self.inner;
            ScopedJoinHandle {
                inner: inner_scope.spawn(move || {
                    let scope = Scope { inner: inner_scope };
                    f(&scope)
                }),
            }
        }
    }

    /// Unlike crossbeam this propagates child panics as panics (std
    /// scope semantics) instead of collecting them into the `Err` arm;
    /// callers only `.unwrap()`/`.expect()` the result, so the failure
    /// mode is equivalent for tests.
    pub fn scope<'env, F, R>(f: F) -> Result<R, Box<dyn Any + Send + 'static>>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        Ok(std::thread::scope(|s| {
            let scope = Scope { inner: s };
            f(&scope)
        }))
    }
}
