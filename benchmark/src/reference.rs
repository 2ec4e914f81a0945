//! A fixed reference workload that measures how fast the host is running
//! right now.
//!
//! On a shared host the simulator's speed drifts with what other tenants
//! do to the caches it shares with them: the same simulation has read 1.5
//! times slower for minutes at a time. This kernel is a small frozen
//! discrete-event loop with the simulator's access pattern (a binary heap
//! of events, broadcasts to the neighbours of 500 nodes in the paper's
//! field, short per-node tables searched and pruned), so it slows down with
//! the simulator, but its code lives here and never changes with the
//! library crates. Each host time is divided by the kernel's slowdown
//! against [`NOMINAL_S`] read right around it; a change to the simulator
//! moves the scaled time as much as the raw one.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Seconds one [`time`] call took on the 2-vCPU Xeon VM the benchmark was
/// tuned on, when that host was quiet. Host times are scaled to this speed.
pub const NOMINAL_S: f64 = 0.13;

/// Events one call processes.
const EVENTS: usize = 50_000;

/// The host's slowdown against [`NOMINAL_S`] over an interval bracketed by
/// two [`time`] readings.
pub fn slowdown(before_s: f64, after_s: f64) -> f64 {
    (before_s + after_s) / 2.0 / NOMINAL_S
}

/// Host seconds of one run of the kernel.
pub fn time() -> f64 {
    let t0 = Instant::now();
    std::hint::black_box(work(EVENTS));
    t0.elapsed().as_secs_f64()
}

/// Process `events` broadcast events and return a checksum of the run.
fn work(events: usize) -> u64 {
    const NODES: usize = 500;
    const SIDE_M: f64 = 115.0;
    const RANGE_M: f64 = 20.0;
    /// Table entries older than this (in ticks) are pruned.
    const STALE: u64 = 3_000_000;
    let mut rng = XorShift(0x9E37_79B9_7F4A_7C15);
    let at: Vec<(f64, f64)> = (0..NODES)
        .map(|_| (rng.unit() * SIDE_M, rng.unit() * SIDE_M))
        .collect();
    let neighbours: Vec<Vec<u32>> = (0..NODES)
        .map(|i| {
            (0..NODES)
                .filter(|&j| {
                    let (dx, dy) = (at[i].0 - at[j].0, at[i].1 - at[j].1);
                    i != j && dx * dx + dy * dy <= RANGE_M * RANGE_M
                })
                .map(|j| j as u32)
                .collect()
        })
        .collect();
    // Per node: (sender, last heard) entries.
    let mut tables: Vec<Vec<(u32, u64)>> = vec![Vec::new(); NODES];
    let mut queue: BinaryHeap<Reverse<(u64, u32)>> = (0..NODES as u32)
        .map(|n| Reverse((rng.next() % 1_000_000, n)))
        .collect();
    let mut check = 0u64;
    for _ in 0..events {
        let Reverse((t, n)) = queue.pop().expect("every event reschedules itself");
        for &m in &neighbours[n as usize] {
            let table = &mut tables[m as usize];
            match table.iter_mut().find(|e| e.0 == n) {
                Some(e) => e.1 = t,
                None => table.push((n, t)),
            }
            if rng.next() & 15 == 0 {
                table.retain(|e| t - e.1 < STALE);
                queue.push(Reverse((t + rng.next() % 50_000, m)));
            }
        }
        check = check.wrapping_add(t ^ u64::from(n));
        queue.push(Reverse((t + 1_000_000 + rng.next() % 100_000, n)));
        while queue.len() > 4 * NODES {
            queue.pop();
        }
    }
    check
}

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_deterministic() {
        assert_eq!(work(2_000), work(2_000));
        assert_ne!(work(2_000), work(2_001));
    }

    #[test]
    fn slowdown_averages_the_readings_around_an_interval() {
        assert_eq!(slowdown(NOMINAL_S, NOMINAL_S), 1.0);
        assert!((slowdown(NOMINAL_S, 3.0 * NOMINAL_S) - 2.0).abs() < 1e-12);
    }
}
