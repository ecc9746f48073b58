//! Host speed, measured by a fixed probe between timed units.
//!
//! The benchmark runs on a few cores of a shared host.  Neighbours' load
//! slows those cores for seconds to minutes at a time, by up to 2× on a
//! grid pass, and no clock of the process tells that apart from the
//! program's own speed: CPU time slows just as wall time does.  So every
//! timed unit (a grid pass, a warm re-run, a server start) is bracketed by
//! probes: fixed code of the benchmark's own that slows with the host but
//! never with the program.  A unit's host time is scaled by
//! [`REFERENCE_PROBE_S`] over the mean of the probes just before and after
//! it: the time the unit would have taken on a host where the probe takes
//! the reference time.
//!
//! The probe is random updates of an 8 MiB table on each of
//! [`POOL_WORKERS`] threads, so it waits on the shared last-level cache
//! and memory, where neighbours' load lands.  Of the probes tried (an ALU
//! loop, and random updates of tables that fit in L2 or straddle it), this
//! one tracked a grid pass best: over 25 s runs in separate processes,
//! scaling cut the spread of the median pass from 18% to 4% of the median
//! while the host was busy, and left it at about 5% while it was quiet.
//!
//! Probes leave the allocator as they found them, so the passes' peak
//! resident set does not depend on them: the probe's threads start once
//! per run and allocate nothing, and each table is mapped straight from
//! the kernel and unmapped after the probe.  Probe threads started afresh,
//! or tables taken from the allocator, shuffled the arenas the next pass's
//! threads inherit and moved its peak resident set by up to half.

use crate::stats::median_or_zero;
use crate::workload::POOL_WORKERS;
use std::ffi::c_void;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::Instant;

/// The probe's seconds at the reference host speed: about its time on a
/// quiet 2-vCPU Xeon VM, so scaled times read like raw times there.
const REFERENCE_PROBE_S: f64 = 0.125;

/// Words of the table each probe thread updates at random (8 MiB).
const TABLE_WORDS: usize = 1 << 20;
const TABLE_UPDATES: u64 = 1_000_000;

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

extern "C" {
    fn mmap(addr: *mut c_void, len: usize, prot: i32, flags: i32, fd: i32, off: i64)
        -> *mut c_void;
    fn munmap(addr: *mut c_void, len: usize) -> i32;
}

const PROT_READ_WRITE: i32 = 0x1 | 0x2;
const MAP_PRIVATE_ANONYMOUS: i32 = 0x02 | 0x20;

/// A zero-filled anonymous mapping of `u64` words, unmapped on drop.
struct Table {
    words: *mut u64,
    len: usize,
}

impl Table {
    /// Maps `len` zero-filled words.
    ///
    /// # Panics
    ///
    /// Panics if the kernel refuses the mapping.
    fn new(len: usize) -> Table {
        let bytes = len * std::mem::size_of::<u64>();
        // SAFETY: a fresh private anonymous mapping aliases nothing.
        let addr = unsafe {
            mmap(
                std::ptr::null_mut(),
                bytes,
                PROT_READ_WRITE,
                MAP_PRIVATE_ANONYMOUS,
                -1,
                0,
            )
        };
        assert!(addr as isize != -1, "the probe table could not be mapped");
        Table {
            words: addr.cast(),
            len,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [u64] {
        // SAFETY: the mapping holds `len` zero-filled words, is aligned to
        // a page, and lives as long as `self`.
        unsafe { std::slice::from_raw_parts_mut(self.words, self.len) }
    }
}

impl Drop for Table {
    fn drop(&mut self) {
        // SAFETY: unmaps exactly the mapping `new` made; no slice of it
        // outlives `self`.
        unsafe { munmap(self.words.cast(), self.len * std::mem::size_of::<u64>()) };
    }
}

/// One probe thread's fixed work.
fn probe_work(thread: u64) -> u64 {
    let mut mapping = Table::new(TABLE_WORDS);
    let table = mapping.as_mut_slice();
    let mut x = 0x9E37_79B9_7F4A_7C15 ^ thread;
    for _ in 0..TABLE_UPDATES {
        x = xorshift(x);
        let slot = &mut table[x as usize % TABLE_WORDS];
        *slot = slot.wrapping_add(x);
        if *slot & 3 == 0 {
            x = x.wrapping_add(1);
        }
    }
    black_box(table);
    x
}

/// Brackets timed units with probes and scales them to the reference
/// host speed.  A probe runs the fixed work on the calling thread and on
/// helper threads that live as long as the gauge, [`POOL_WORKERS`] in all.
#[derive(Debug)]
pub struct Gauge {
    /// Every probe taken; the last is the one the next unit starts from.
    probes: Vec<f64>,
    helpers: Vec<JoinHandle<()>>,
    start: Arc<Barrier>,
    done: Arc<Barrier>,
    /// Set (Release) before the `start` wait that releases the helpers for
    /// the last time; each helper reads it (Acquire) after that wait.
    stop: Arc<AtomicBool>,
}

impl Gauge {
    /// A gauge with its helper threads started and its first probe taken.
    #[must_use]
    pub fn new() -> Gauge {
        let start = Arc::new(Barrier::new(POOL_WORKERS));
        let done = Arc::new(Barrier::new(POOL_WORKERS));
        let stop = Arc::new(AtomicBool::new(false));
        let helpers = (1..POOL_WORKERS as u64)
            .map(|thread| {
                let (start, done, stop) =
                    (Arc::clone(&start), Arc::clone(&done), Arc::clone(&stop));
                std::thread::spawn(move || loop {
                    start.wait();
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    black_box(probe_work(thread));
                    done.wait();
                })
            })
            .collect();
        let mut gauge = Gauge {
            probes: Vec::new(),
            helpers,
            start,
            done,
            stop,
        };
        let first = gauge.probe();
        gauge.probes.push(first);
        gauge
    }

    /// One probe: the seconds until every probe thread has done the fixed
    /// work once.
    fn probe(&self) -> f64 {
        let start = Instant::now();
        self.start.wait();
        black_box(probe_work(0));
        self.done.wait();
        start.elapsed().as_secs_f64()
    }

    /// Runs `unit` and probes after it.  Returns the unit's result and the
    /// factor that scales its host times to the reference speed.
    pub fn bracket<R>(&mut self, unit: impl FnOnce() -> R) -> (R, f64) {
        let result = unit();
        let before = self.probes[self.probes.len() - 1];
        let after = self.probe();
        self.probes.push(after);
        (result, scale_factor(before, after))
    }

    /// The median probe, in seconds.
    #[must_use]
    pub fn median_probe_s(&self) -> f64 {
        median_or_zero(&self.probes)
    }
}

impl Drop for Gauge {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        self.start.wait();
        for helper in self.helpers.drain(..) {
            let _ = helper.join();
        }
    }
}

/// The factor that scales a unit's host time to the reference speed,
/// given the probes just before and after it.
#[must_use]
fn scale_factor(before_s: f64, after_s: f64) -> f64 {
    REFERENCE_PROBE_S / ((before_s + after_s) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slower_host_scales_times_down_in_proportion() {
        assert_eq!(scale_factor(REFERENCE_PROBE_S, REFERENCE_PROBE_S), 1.0);
        // Probes twice as slow: the unit's time counts half.
        let slow = 2.0 * REFERENCE_PROBE_S;
        assert_eq!(scale_factor(slow, slow), 0.5);
        assert_eq!(
            scale_factor(REFERENCE_PROBE_S, 3.0 * REFERENCE_PROBE_S),
            0.5
        );
    }

    #[test]
    fn the_probe_does_fixed_work() {
        assert_eq!(probe_work(0), probe_work(0));
        assert_ne!(probe_work(0), probe_work(1));
        let mut gauge = Gauge::new();
        let (value, factor) = gauge.bracket(|| 7);
        assert_eq!(value, 7);
        assert!(factor.is_finite() && factor > 0.0);
        assert!(gauge.median_probe_s() > 0.0);
    }
}
