//! The tracer's steady-state hot path must not allocate.
//!
//! A counting global allocator keeps one counter per thread (every rank
//! runs on its own thread), and a wrapper `Tracer` reads it around the
//! inner `PilgrimTracer::on_call`. Once a regular workload has warmed up
//! — signatures interned, grammar rules formed, scratch buffers and hash
//! tables at their working size — a call must reuse what is already
//! there instead of allocating.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mpi_sim::hooks::{CallRec, TraceCtx, Tracer};
use mpi_sim::{World, WorldConfig};
use pilgrim::{PilgrimConfig, PilgrimTracer};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator can run while a thread's locals are torn
    // down; those allocations are outside any measured call anyway.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

fn allocs_so_far() -> u64 {
    ALLOCS.with(Cell::get)
}

/// `System`, counting every allocation and reallocation per thread.
struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a const-initialized thread local that never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Records how many allocations each inner `on_call` made.
struct CountingTracer {
    inner: PilgrimTracer,
    per_call: Vec<u64>,
}

impl Tracer for CountingTracer {
    fn on_call(&mut self, ctx: &TraceCtx<'_>, rec: &CallRec, t_start: u64, t_end: u64) {
        let before = allocs_so_far();
        self.inner.on_call(ctx, rec, t_start, t_end);
        let made = allocs_so_far() - before;
        self.per_call.push(made);
    }

    fn on_alloc(&mut self, addr: u64, size: u64) {
        self.inner.on_alloc(addr, size);
    }

    fn on_free(&mut self, addr: u64) {
        self.inner.on_free(addr);
    }

    fn on_finalize(&mut self, ctx: &TraceCtx<'_>) {
        self.inner.on_finalize(ctx);
    }
}

#[test]
fn steady_state_on_call_does_not_allocate() {
    const TRAJECTORIES: usize = 60;
    let body = mpi_workloads::by_name("milc", TRAJECTORIES);
    let tracers = World::run(
        &WorldConfig::new(2),
        |rank| CountingTracer {
            inner: PilgrimTracer::new(rank, PilgrimConfig::default()),
            per_call: Vec::with_capacity(16_384),
        },
        move |env| body(env),
    );
    for (rank, t) in tracers.iter().enumerate() {
        let calls = t.per_call.len();
        assert!(calls > 10_000, "rank {rank}: only {calls} calls traced");
        let steady = &t.per_call[calls / 2..];
        let made: u64 = steady.iter().sum();
        // At most one allocation per 1,000 steady-state calls.
        let allowed = steady.len() as u64 / 1_000;
        assert!(
            made <= allowed,
            "rank {rank}: {made} allocations over the last {} of {calls} calls (allowed {allowed})",
            steady.len()
        );
    }
}
