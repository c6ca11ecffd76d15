//! Offline stand-in for the [`crossbeam`](https://crates.io/crates/crossbeam)
//! crate, covering exactly the `crossbeam::thread::scope` API the workspace
//! uses. Since Rust 1.63 the standard library provides scoped threads, so the
//! shim is a thin adapter over [`std::thread::scope`] that reproduces
//! crossbeam's calling convention (`scope` returns a `Result`, spawned
//! closures receive the scope handle, `join` returns a `Result`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Scoped threads (stand-in for `crossbeam::thread`).
pub mod thread {
    use std::any::Any;
    use std::thread::Scope as StdScope;
    use std::thread::ScopedJoinHandle as StdHandle;

    /// Boxed panic payload, as crossbeam reports it.
    pub type Payload = Box<dyn Any + Send + 'static>;

    /// A scope handle passed to [`scope`] closures and to spawned threads.
    #[derive(Debug)]
    pub struct Scope<'scope, 'env: 'scope> {
        inner: &'scope StdScope<'scope, 'env>,
    }

    /// A handle to a thread spawned inside a [`scope`].
    #[derive(Debug)]
    pub struct ScopedJoinHandle<'scope, T> {
        inner: StdHandle<'scope, T>,
    }

    impl<'scope, T> ScopedJoinHandle<'scope, T> {
        /// Waits for the thread to finish and returns its result, or the
        /// panic payload if it panicked.
        pub fn join(self) -> Result<T, Payload> {
            self.inner.join()
        }
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        /// Spawns a scoped thread. As in crossbeam, the closure receives the
        /// scope handle so it can spawn further threads.
        pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
        where
            F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let inner = self.inner;
            ScopedJoinHandle {
                inner: inner.spawn(move || f(&Scope { inner })),
            }
        }
    }

    /// Creates a scope in which threads borrowing from the environment can be
    /// spawned; all of them are joined before `scope` returns.
    ///
    /// # Errors
    ///
    /// Mirrors crossbeam's signature. With the std backing, a panic in an
    /// unjoined scoped thread propagates out of [`std::thread::scope`]
    /// directly instead of being returned as `Err`, so callers that
    /// `.expect()` the result behave identically.
    pub fn scope<'env, F, R>(f: F) -> Result<R, Payload>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        Ok(std::thread::scope(|s| f(&Scope { inner: s })))
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn scoped_threads_join_and_return_values() {
        let data = [1u64, 2, 3, 4];
        let total = crate::thread::scope(|s| {
            let handles: Vec<_> = data
                .chunks(2)
                .map(|chunk| s.spawn(move |_| chunk.iter().sum::<u64>()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum::<u64>()
        })
        .unwrap();
        assert_eq!(total, 10);
    }

    #[test]
    fn nested_spawn_through_the_scope_handle() {
        let result = crate::thread::scope(|s| {
            s.spawn(|inner| inner.spawn(|_| 7).join().unwrap())
                .join()
                .unwrap()
        })
        .unwrap();
        assert_eq!(result, 7);
    }
}
