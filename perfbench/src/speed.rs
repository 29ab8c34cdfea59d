//! The host's speed, measured by fixed bench-side reference work, so
//! that timings taken while a shared virtual machine runs slow and
//! timings taken while it runs fast can be compared.
//!
//! On the machine the README's figures come from, the vCPU's speed
//! shifts by up to ≈1.7×, and memory bandwidth by up to ≈1.35×, while
//! other tenants load the host — for a fraction of a second at times, for
//! many minutes at others. A run therefore interleaves reference work,
//! whose amount never changes, with its own: a CPU block ([`time_block`])
//! next to CPU-bound work and a [`Stream`] pass next to memory-bound
//! work. Each session's timings are multiplied by the reference's nominal
//! time over the median of its times in that session, so they read as
//! wall-clock time on the host at its nominal speed; the unscaled figures
//! and the reference times are printed with the host facts.

use crate::report::{mean, median};
use std::time::Instant;

/// Milliseconds one reference block takes on the nominal host: an
/// uncontended vCPU of the 2.0 GHz Xeon virtual machine the README's
/// figures were taken on.
pub const NOMINAL_BLOCK_MS: f64 = 0.125;

/// Loop trips of one reference block.
const BLOCK_TRIPS: u64 = 20_000;

/// Reference blocks timed back to back per [`SpeedGauge::sample`].
const BLOCKS_PER_SAMPLE: usize = 64;

/// Times reference blocks over a run and turns them into a scale factor
/// for the run's timings.
#[derive(Debug)]
pub struct SpeedGauge {
    /// Milliseconds one block takes on the nominal host.
    nominal_ms: f64,
    /// Median block time of each sample, ms.
    samples: Vec<f64>,
    /// Blocks timed over every sample.
    blocks: usize,
}

impl Default for SpeedGauge {
    /// A gauge of CPU reference blocks ([`time_block`]).
    fn default() -> Self {
        Self::new(NOMINAL_BLOCK_MS)
    }
}

impl SpeedGauge {
    /// A gauge of blocks that take `nominal_ms` on the nominal host.
    pub fn new(nominal_ms: f64) -> Self {
        Self { nominal_ms, samples: Vec::new(), blocks: 0 }
    }

    /// Times [`BLOCKS_PER_SAMPLE`] CPU reference blocks back to back now.
    pub fn sample(&mut self) {
        let blocks: Vec<f64> = (0..BLOCKS_PER_SAMPLE).map(|_| time_block()).collect();
        self.record(&blocks);
    }

    /// Records blocks the caller timed, spread over a stretch of its own
    /// work, as one sample; returns the factor that scales that stretch's
    /// timings to the nominal host.
    pub fn record(&mut self, blocks: &[f64]) -> f64 {
        let ms = median(blocks);
        self.samples.push(ms);
        self.blocks += blocks.len();
        self.nominal_ms / ms
    }

    /// Milliseconds of one block: the mean over the samples of each
    /// sample's median block (the nominal time before any sample). The
    /// mean, not the median, so that the reading moves in proportion to
    /// the share of the run the host spent slow.
    pub fn block_ms(&self) -> f64 {
        if self.samples.is_empty() {
            self.nominal_ms
        } else {
            mean(&self.samples)
        }
    }

    /// Factor that turns a time measured on this run's host into the
    /// time on the nominal host.
    pub fn scale(&self) -> f64 {
        self.nominal_ms / self.block_ms()
    }

    /// Blocks timed so far.
    pub fn blocks(&self) -> usize {
        self.blocks
    }
}

/// Times one reference block; returns the milliseconds of CPU time the
/// calling thread spent in it. CPU time, not wall time, so that a block
/// run while other threads of the process are runnable on the same CPU
/// still times only its own work.
pub fn time_block() -> f64 {
    let at = thread_cpu_ns();
    std::hint::black_box(reference_block(std::hint::black_box(0)));
    (thread_cpu_ns() - at) as f64 / 1e6
}

/// Milliseconds one [`Stream::time_pass`] takes on the nominal host.
pub const NOMINAL_PASS_MS: f64 = 4.0;

/// Elements of each [`Stream`] buffer: 2.5 M `f64`, so the two buffers
/// hold 40 MB, the footprint of the kernel workload's shares, gains and
/// cost slab.
const STREAM_LEN: usize = 2_500_000;

/// Reference work for memory bandwidth: a pass reads two buffers and
/// writes one, streaming 60 MB through the cache hierarchy the way a
/// kernel round streams its slab. Its time follows what the host's other
/// tenants leave of the shared last-level cache and memory bus.
#[derive(Debug)]
pub struct Stream {
    src: Vec<f64>,
    dst: Vec<f64>,
}

impl Stream {
    /// Allocates and touches both buffers.
    pub fn new() -> Self {
        Self { src: vec![1.0; STREAM_LEN], dst: vec![0.5; STREAM_LEN] }
    }

    /// Streams one pass; returns its wall-clock milliseconds.
    pub fn time_pass(&mut self) -> f64 {
        let at = Instant::now();
        for (d, s) in self.dst.iter_mut().zip(&self.src) {
            *d = 0.5 * *d + *s;
        }
        std::hint::black_box(&mut self.dst);
        at.elapsed().as_secs_f64() * 1e3
    }
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn clock_gettime(clock: i32, now: *mut Timespec) -> i32;
}

/// Nanoseconds of CPU time the calling thread has used.
fn thread_cpu_ns() -> u64 {
    let mut now = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `now` is a live, writable `timespec` with the C layout
    // `clock_gettime` fills in; the clock id is a valid Linux clock.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut now) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    now.tv_sec as u64 * 1_000_000_000 + now.tv_nsec as u64
}

/// One block of reference work in the mix of the CPU-bound workloads:
/// integer hashing, data-dependent branches, float division, stores into
/// a table that fits the L1 cache, and small heap allocations.
fn reference_block(seed: u64) -> u64 {
    let mut table = [0u64; 1024];
    let mut z = seed;
    let mut acc = 1.0f64;
    let mut held: Vec<Vec<u64>> = Vec::with_capacity(16);
    for trip in 0..BLOCK_TRIPS {
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut h = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        let slot = (h as usize) & (table.len() - 1);
        if h & 3 == 0 {
            acc = acc / (1.0 + (h >> 40) as f64 * 1e-9) + 1.0;
        } else {
            table[slot] = table[slot].wrapping_add(h ^ trip);
        }
        if trip % 64 == 0 {
            let v: Vec<u64> = table[slot..].iter().take(8 + (h & 7) as usize).copied().collect();
            if held.len() == held.capacity() {
                held.clear();
            }
            held.push(v);
        }
    }
    let kept = held.iter().flatten().fold(0, |a, b| a ^ b);
    table.iter().fold(kept ^ acc.to_bits(), |a, &b| a.wrapping_add(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_sample_times_a_positive_block_and_a_finite_scale() {
        let mut gauge = SpeedGauge::default();
        gauge.sample();
        assert_eq!(gauge.blocks(), BLOCKS_PER_SAMPLE);
        assert!(gauge.block_ms() > 0.0);
        assert!(gauge.scale().is_finite() && gauge.scale() > 0.0);
    }
}
