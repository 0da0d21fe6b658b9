//! Pins the zero-allocation steady state of the batched datapath.
//!
//! A counting global allocator wraps the system allocator; after a warm-up
//! phase has sized every recycled buffer (doorbell stages, the batch pool,
//! verdict scratch, calendar-queue buckets, flow tables), driving further
//! traffic through the chain must not allocate at all. Deallocations are
//! allowed — delivered packets free their frame bytes at egress — but any
//! `malloc`/`realloc` on the service path is a regression.
//!
//! The measured chain is the full Figure-1 chain, the [`pam_nf::Logger`]
//! included: its ring stores compact records and formats summary strings
//! only when the state is exported, so logging a sampled packet does not
//! allocate either.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use pam_core::Placement;
use pam_nf::{NfKind, ServiceChainSpec};
use pam_runtime::{ChainRuntime, RuntimeConfig};
use pam_traffic::{
    ArrivalProcess, FlowGeneratorConfig, PacketSizeProfile, TraceConfig, TraceSynthesizer,
    TrafficSchedule,
};
use pam_types::{ByteSize, Gbps, SimDuration, SimTime};

/// Counts every allocation and reallocation (frees are not counted: egress
/// legitimately drops packet buffers).
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn steady_state_batch_service_performs_zero_heap_allocations() {
    // Firewall -> Monitor -> Logger -> LoadBalancer on the SmartNIC: the
    // whole Figure-1 chain, including the two vNFs whose per-flow tables
    // dominate the hot path. A small flow population guarantees the warm-up
    // phase visits every flow, so the measured phase performs only
    // re-lookups.
    let spec = ServiceChainSpec::figure1();
    assert_eq!(spec.kinds()[2], NfKind::Logger);
    let placement = Placement::all_on(pam_types::Device::SmartNic, spec.len());
    let mut config = RuntimeConfig::evaluation_default().with_max_batch(8);
    // Keep the periodic metrics publication (it clones device labels into
    // the registry) out of the measured window.
    config.metrics_interval = SimDuration::from_secs(3600);
    let mut runtime = ChainRuntime::new(spec, &placement, config).unwrap();

    // Pre-generate the whole trace: packet *construction* allocates each
    // frame's bytes by design (that allocation is the offered workload, paid
    // by the traffic source), so it happens before the measured window.
    let trace = TraceSynthesizer::new(TraceConfig {
        sizes: PacketSizeProfile::Fixed(ByteSize::bytes(512)),
        flows: FlowGeneratorConfig {
            flow_count: 64,
            zipf_exponent: 1.0,
            tcp_fraction: 0.8,
        },
        arrival: ArrivalProcess::Cbr,
        schedule: TrafficSchedule::constant(Gbps::new(1.2), SimDuration::from_millis(8)),
        seed: 77,
    });
    let packets = trace.collect_all();
    assert!(
        packets.len() > 2_000,
        "trace is long enough to warm and measure"
    );

    // Warm-up: the first half sizes every pool, stage, table and bucket.
    let half = packets.len() / 2;
    let mut iter = packets.into_iter();
    for (send_time, packet) in iter.by_ref().take(half) {
        runtime.drain_until(send_time);
        runtime.submit(send_time, packet);
    }
    runtime.drain_until(SimTime::MAX);

    // Measured window: the steady state must stay off the allocator. The
    // run is deterministic (fixed seed, fixed schedule), so this assertion
    // cannot flake — it either always holds for a build or never does.
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for (send_time, packet) in iter {
        runtime.drain_until(send_time);
        runtime.submit(send_time, packet);
    }
    runtime.drain_until(SimTime::MAX);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    let outcome = runtime.outcome();
    assert!(outcome.delivered > 0, "traffic flowed");
    assert_eq!(
        allocations, 0,
        "steady-state batch service must not allocate (saw {allocations} allocations)"
    );
}
