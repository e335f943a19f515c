//! The heap a clock model holds, counted per thread by a test allocator:
//! a rendezvous allocates nothing, a window of k samples holds exactly k,
//! and a sample added to a full window allocates nothing.

use parn_sched::{ClockSample, RemoteClockModel};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting this thread's allocations and live
/// bytes (tests run on parallel threads).
struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn note(allocs: usize, bytes: isize) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCS.try_with(|a| a.set(a.get() + allocs));
    let _ = LIVE.try_with(|l| l.set(l.get() + bytes));
}

// SAFETY: every call goes to `System` unchanged; the counters beside it
// are thread-locals that never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, -(layout.size() as isize));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(1, new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result, with the allocations it made and the bytes it left live.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize, isize) {
    let (a0, l0) = (ALLOCS.with(Cell::get), LIVE.with(Cell::get));
    let out = f();
    (out, ALLOCS.with(Cell::get) - a0, LIVE.with(Cell::get) - l0)
}

fn sample(i: u64) -> ClockSample {
    ClockSample {
        mine: 1_000 + i * 10_000_000,
        theirs: 9_000 + i * 10_001_000,
    }
}

#[test]
fn a_rendezvous_allocates_nothing() {
    let (m, allocs, live) = counted(|| RemoteClockModel::from_first_sample(sample(0)));
    assert_eq!((allocs, live), (0, 0));
    assert_eq!(m.samples().len(), 1);
}

#[test]
fn a_window_of_k_samples_holds_exactly_k() {
    for k in 2..=RemoteClockModel::DEFAULT_WINDOW as u64 {
        let (m, _, live) = counted(|| {
            let mut m = RemoteClockModel::from_first_sample(sample(0));
            for i in 1..k {
                m.add_sample(sample(i));
            }
            m
        });
        assert_eq!(m.samples().len() as u64, k);
        assert_eq!(
            live,
            (k as usize * std::mem::size_of::<ClockSample>()) as isize
        );
    }
}

#[test]
fn a_full_window_rotates_in_place() {
    let mut m = RemoteClockModel::from_first_sample(sample(0));
    for i in 1..RemoteClockModel::DEFAULT_WINDOW as u64 {
        m.add_sample(sample(i));
    }
    for i in 0..20 {
        let next = sample(RemoteClockModel::DEFAULT_WINDOW as u64 + i);
        let ((), allocs, live) = counted(|| m.add_sample(next));
        assert_eq!((allocs, live), (0, 0));
        assert_eq!(m.samples().last(), Some(&next));
    }
}
