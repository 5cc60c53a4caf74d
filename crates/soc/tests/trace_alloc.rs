//! Tracing into a `NullSink` costs a SoC run no allocation beyond what
//! the untraced run makes: names are interned at set-up and every record
//! reaches the sink as borrowed data. A counting global allocator
//! measures it, per thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use simcore::trace::{NullSink, Tracer};
use simcore::{SimDuration, SimTime};
use soc::{ServicePolicy, SocSim, SourceSpec, Stage, StreamSpec, Topology};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call forwards unchanged to the system allocator; the
// only addition is bumping a const-initialized thread-local counter,
// which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn ms(x: f64) -> SimDuration {
    SimDuration::from_millis_f64(x)
}

/// Allocations made by a 2 s run of a contended CPU/GPU/NPU SoC (FIFO
/// queues, a processor-sharing GPU, labelled and unlabelled streams, a
/// render source), counted over `run_until` only.
fn run_allocations(tracer: Tracer) -> u64 {
    let mut topo = Topology::new();
    let cpu = topo.add_processor("cpu", ServicePolicy::Fifo { slots: 2 });
    let gpu = topo.add_processor("gpu", ServicePolicy::ProcessorSharing);
    let npu = topo.add_processor("npu", ServicePolicy::Fifo { slots: 1 });
    let mut sim = SocSim::new(topo);
    sim.set_tracer(tracer);
    sim.add_stream(
        StreamSpec::new(
            vec![Stage::compute(cpu, ms(12.0)), Stage::compute(gpu, ms(4.0))],
            ms(1.0),
        )
        .with_label("detector"),
    );
    sim.add_stream(StreamSpec::new(vec![Stage::compute(npu, ms(9.0))], ms(0.0)));
    sim.add_stream(
        StreamSpec::new(vec![Stage::compute(npu, ms(7.0))], ms(0.0)).with_label("segmenter"),
    );
    sim.add_source(SourceSpec::new(
        vec![Stage::compute(gpu, ms(8.0))],
        ms(16.0),
        2,
    ));
    let before = ALLOCS.with(Cell::get);
    sim.run_until(SimTime::from_secs_f64(2.0));
    ALLOCS.with(Cell::get) - before
}

#[test]
fn null_sink_run_allocates_exactly_like_a_disabled_run() {
    let disabled = run_allocations(Tracer::disabled());
    let nulled = run_allocations(Tracer::new(NullSink));
    assert_eq!(nulled, disabled, "tracing into a NullSink allocated");
}
