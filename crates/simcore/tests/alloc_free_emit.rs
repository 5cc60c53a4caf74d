//! Steady-state trace emission allocates nothing: not through a disabled
//! tracer, not into a `NullSink`, and not into an `AggregatingSink` whose
//! series already exist. A counting global allocator measures it, per
//! thread, so tests running in parallel do not see each other's
//! allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

use simcore::metrics::AggregatingSink;
use simcore::trace::{ArgValue, NullSink, Tracer};
use simcore::{SimDuration, SimTime};

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

/// Allocations made on this thread while `f` runs.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

const EMITS: u64 = 10_000;

/// One of every record kind per step, all with numeric arguments, at
/// advancing simulated times.
fn emit_steps(tracer: &Tracer, from: u64, to: u64) {
    let track = tracer.register_track("soc", "CPU slot0");
    let (job, queue, mark) = (
        tracer.intern("job"),
        tracer.intern("queue"),
        tracer.intern("mark"),
    );
    for i in from..to {
        let at = SimTime::ZERO + SimDuration::from_nanos(i * 1_000);
        let args = [
            ("seq", ArgValue::U64(i)),
            ("latency_ms", ArgValue::F64(0.5)),
        ];
        tracer.begin(at, track, "soc", job, &args);
        tracer.end(at + SimDuration::from_nanos(400), track, "soc");
        tracer.complete(at, SimDuration::from_nanos(250), track, "soc", job, &args);
        tracer.counter(at, track, "soc", queue, (i % 5) as f64);
        tracer.instant(at, track, "soc", mark, &args[..1]);
    }
}

#[test]
fn disabled_tracer_emits_without_allocating() {
    let tracer = Tracer::disabled();
    assert_eq!(allocations(|| emit_steps(&tracer, 0, EMITS)), 0);
}

#[test]
fn null_sink_emits_without_allocating() {
    let tracer = Tracer::new(NullSink);
    assert_eq!(allocations(|| emit_steps(&tracer, 0, EMITS)), 0);
}

#[test]
fn aggregating_sink_folds_existing_series_without_allocating() {
    let sink = Rc::new(RefCell::new(AggregatingSink::default()));
    let tracer = Tracer::with_sink(Rc::clone(&sink));
    // The first step creates the span and counter series and the track's
    // open-span stack; every later event only folds into them.
    emit_steps(&tracer, 0, 1);
    assert_eq!(allocations(|| emit_steps(&tracer, 1, 1 + EMITS)), 0);
    let snap = sink.borrow().snapshot();
    let job = snap.span("soc", "CPU slot0", "job").expect("span series");
    assert_eq!(job.count, 2 * (1 + EMITS));
    let queue = snap.counter("soc", "CPU slot0", "queue").expect("counter");
    assert_eq!(queue.samples, 1 + EMITS);
    assert_eq!(snap.instants, 1 + EMITS);
}
