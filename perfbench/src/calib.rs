//! Host-speed calibration.
//!
//! The measurement host is a shared virtual machine whose CPU runs slower or
//! faster with the load of other tenants, from one cell to the next and for
//! minutes at a time. A host time taken in a slow phase would read as a
//! slower simulator. So the harness times a fixed kernel of its own next to
//! every timed call and scales that call's host time by how much slower or
//! faster the kernel ran than [`REFERENCE_S`]. A change to the simulator does not touch the kernel,
//! so it still moves the scaled time; a change in host speed moves both and
//! cancels out.
//!
//! The kernel mixes the work the simulator does per packet: hash-map lookups
//! and inserts over a working set of about two megabytes (flow tables), a
//! binary heap (event queue), small allocations and integer arithmetic.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Host seconds of one [`kernel`] at the reference speed: about its median
/// on the recording host (see `README.md`), so scaled times read as host
/// time at that host's usual speed.
pub const REFERENCE_S: f64 = 0.009;

/// Keys the kernel's hash map cycles through.
const KEYS: u64 = 1 << 20;
/// Operations per kernel.
const OPS: u64 = 80_000;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A fixed amount of work, the same on every call. Its table and heap are
/// new on every call, so it also allocates, faults in and rehashes memory
/// the way the simulator's fleets and flow tables do.
fn kernel() -> u64 {
    let mut table: HashMap<u64, u64> = HashMap::new();
    let mut queue = BinaryHeap::new();
    let mut state = 2018;
    let mut sum = 0u64;
    for op in 0..OPS {
        let r = splitmix(&mut state);
        let key = r % KEYS;
        *table.entry(key).or_insert(0) += r >> 48;
        sum = sum.wrapping_add(table.get(&(key ^ 1)).copied().unwrap_or(op));
        queue.push(Reverse(r >> 16));
        if queue.len() > 512 {
            let Reverse(at) = queue.pop().unwrap_or_default();
            sum ^= at;
        }
        if op % 8 == 0 {
            let small: Vec<u64> = vec![r; 1 + (r % 48) as usize];
            sum = sum.wrapping_add(black_box(small)[0]);
        }
    }
    sum.wrapping_add(table.len() as u64)
}

/// Host seconds of one kernel, now.
pub fn sample() -> f64 {
    let started = Instant::now();
    black_box(kernel());
    started.elapsed().as_secs_f64()
}

/// Mean host seconds of one kernel on each of `threads` threads at once, so
/// that a measurement running that many lanes is scaled by the speed of as
/// many CPUs.
pub fn sample_on(threads: usize) -> f64 {
    if threads <= 1 {
        return sample();
    }
    let times: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|_| scope.spawn(sample)).collect();
        handles
            .into_iter()
            .map(|handle| handle.join().unwrap_or(f64::NAN))
            .collect()
    });
    times.iter().sum::<f64>() / threads as f64
}
