//! A counting global allocator, for tests that pin how much a code path
//! allocates — a footprint that, unlike a timing, repeats exactly.
//!
//! A test binary installs it as its global allocator and reads it through
//! [`allocated_bytes`]:
//!
//! ```
//! use testutil::alloc_count::{allocated_bytes, CountingAlloc};
//!
//! #[global_allocator]
//! static ALLOC: CountingAlloc = CountingAlloc;
//!
//! let (bytes, v) = allocated_bytes(|| Vec::<u64>::with_capacity(4));
//! assert_eq!((bytes, v.capacity()), (32, 4));
//! ```
//!
//! Counts are per thread, so tests running in parallel in one binary do not
//! see each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes this thread has requested so far. `const`-initialized and
    /// without a destructor, so touching it from inside the allocator
    /// neither allocates nor outlives the thread.
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting the bytes each thread requests. Growth
/// through `realloc` and zeroed allocations go through the trait's default
/// methods, which call `alloc` — so they count at their new size.
pub struct CountingAlloc;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a thread-local counter bump
// that neither allocates nor unwinds (`try_with` reports a torn-down
// thread-local as an error, which is ignored).
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = BYTES.try_with(|bytes| bytes.set(bytes.get() + layout.size() as u64));
        // SAFETY: the caller's obligations for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`, as the
        // caller guarantees for the allocator that handed it out.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Runs `f` and returns the bytes the calling thread requested from the
/// allocator meanwhile, with `f`'s result.
///
/// # Panics
///
/// Panics if the binary did not install [`CountingAlloc`] as its global
/// allocator — every count would silently read 0.
pub fn allocated_bytes<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let read = || BYTES.with(Cell::get);
    let before = read();
    drop(std::hint::black_box(Box::new(0u8)));
    assert_eq!(
        read(),
        before + 1,
        "CountingAlloc is not this binary's #[global_allocator]"
    );
    let before = read();
    let result = f();
    (read() - before, result)
}
