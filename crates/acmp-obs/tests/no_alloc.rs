//! Disabled-mode overhead: the hot path must not allocate.
//!
//! This test binary installs a counting global allocator and never enables
//! any sink, so the default (disabled) state is what is measured.  The
//! check is counter-based, not timing-based, so it is stable on loaded CI
//! hosts.  It lives alone in this binary: a sibling test enabling a sink
//! would race the assertion.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

// Counted per thread: the test harness's own threads allocate at their
// leisure (channel wakeups, result reporting), and a process-wide counter
// would pick those up as flaky false positives.  `Cell<u64>` has no
// destructor, so the const-initialised TLS slot never allocates itself.
std::thread_local! {
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn thread_allocations() -> u64 {
    THREAD_ALLOCATIONS.with(Cell::get)
}

struct CountingAllocator;

// SAFETY: delegates directly to `System`; the counter update cannot
// itself allocate (plain `Cell` arithmetic, `try_with` to survive TLS
// teardown).
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = THREAD_ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = THREAD_ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn disabled_macros_allocate_nothing() {
    assert!(
        !acmp_obs::enabled(),
        "no sink may be attached in this binary"
    );
    // Warm anything lazily initialised outside the measured window.
    {
        let _span = acmp_obs::span!("warmup.span");
    }
    let before = thread_allocations();
    for i in 0..100_000u64 {
        let mut span = acmp_obs::span!("test.span", index = i, label = "cell");
        span.record_field("outcome", "skipped");
        acmp_obs::event!("test.event", index = i);
        acmp_obs::counter!("test.counter", 1);
        acmp_obs::histogram!("test.histogram", i);
    }
    let after = thread_allocations();
    assert_eq!(
        after - before,
        0,
        "disabled-mode hot path performed {} allocations",
        after - before
    );
}
