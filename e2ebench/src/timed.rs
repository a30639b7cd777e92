//! Traced mode: wrappers that delegate to the program's public types and
//! time every call, plus the accumulator they share with the benchmark's
//! own event loop.
//!
//! Untraced runs never construct any of these; the loop is then
//! monomorphised over [`Off`], whose `time` compiles to a direct call.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use chameleon_cluster::ChunkId;
use chameleon_codes::{ChunkClass, CodeError, ErasureCode, RepairRequirement};
use chameleon_core::{RepairDriver, RepairError, RepairOutcome, RepairPlan, RepairSpan};
use chameleon_gf::Gf256;
use chameleon_simnet::{Event, FaultEvent, Simulator};
use chameleon_traces::{Request, Workload};

/// A timed call site. Each slot accumulates nanoseconds and a call count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// `Simulator::next_event`, timed in the benchmark loop.
    NextEvent,
    /// `FaultInjector::on_event`, timed in the benchmark loop.
    Faults,
    /// `Orchestrator::on_event` / `on_fault`, timed in the benchmark loop
    /// (inclusive of the driver it wraps).
    Orchestrator,
    /// `ForegroundDriver::start` / `on_event`, timed in the benchmark loop
    /// (inclusive of the workload draws it makes).
    Foreground,
    /// `RepairDriver::start`, timed by [`TimedDriver`].
    DriverStart,
    /// `RepairDriver::on_event`, timed by [`TimedDriver`].
    DriverEvent,
    /// `RepairDriver::on_fault`, timed by [`TimedDriver`].
    DriverFault,
    /// `ErasureCode::repair_coefficients`, timed by [`TimedCode`].
    Coefficients,
    /// `ErasureCode::encode`, timed by [`TimedCode`].
    Encode,
    /// `ErasureCode::decode` / `repair`, timed by [`TimedCode`].
    Decode,
    /// `Workload::next_request`, timed by [`TimedWorkload`].
    NextRequest,
    /// `Cluster::new`, timed during set-up.
    ClusterBuild,
}

const SLOTS: usize = 12;

/// Per-slot nanoseconds and call counts. Atomics only because the program
/// requires drivers, workloads and codes to be `Send`; every update
/// happens on the benchmark's single thread, so `Relaxed` suffices (the
/// values publish no other data).
#[derive(Debug, Default)]
pub struct Acc {
    nanos: [AtomicU64; SLOTS],
    calls: [AtomicU64; SLOTS],
}

impl Acc {
    fn add(&self, slot: Slot, nanos: u64) {
        self.nanos[slot as usize].fetch_add(nanos, Ordering::Relaxed);
        self.calls[slot as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Seconds accumulated in `slot`.
    pub fn secs(&self, slot: Slot) -> f64 {
        self.nanos[slot as usize].load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Calls recorded in `slot`.
    pub fn calls(&self, slot: Slot) -> u64 {
        self.calls[slot as usize].load(Ordering::Relaxed)
    }
}

/// Times a call site, or not.
pub trait Probe {
    /// Runs `f`, attributing its duration to `slot` when tracing.
    fn time<R>(&self, slot: Slot, f: impl FnOnce() -> R) -> R;
}

/// The untraced probe: a direct call.
pub struct Off;

impl Probe for Off {
    #[inline(always)]
    fn time<R>(&self, _slot: Slot, f: impl FnOnce() -> R) -> R {
        f()
    }
}

impl Probe for Acc {
    #[inline]
    fn time<R>(&self, slot: Slot, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.add(slot, t.elapsed().as_nanos() as u64);
        r
    }
}

/// A repair driver whose `start`, `on_event` and `on_fault` are timed.
pub struct TimedDriver<D: ?Sized + RepairDriver = dyn RepairDriver> {
    /// The wrapped driver.
    pub inner: Box<D>,
    /// Where the timings go.
    pub acc: Arc<Acc>,
}

impl<D: ?Sized + RepairDriver> RepairDriver for TimedDriver<D> {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn start(&mut self, sim: &mut Simulator, chunks: Vec<ChunkId>) {
        let inner = &mut self.inner;
        self.acc
            .time(Slot::DriverStart, || inner.start(sim, chunks))
    }
    fn on_event(&mut self, sim: &mut Simulator, event: &Event) -> bool {
        let inner = &mut self.inner;
        self.acc
            .time(Slot::DriverEvent, || inner.on_event(sim, event))
    }
    fn on_fault(&mut self, sim: &mut Simulator, fault: &FaultEvent) {
        let inner = &mut self.inner;
        self.acc
            .time(Slot::DriverFault, || inner.on_fault(sim, fault))
    }
    fn is_done(&self) -> bool {
        self.inner.is_done()
    }
    fn outcome(&self, sim: &Simulator) -> RepairOutcome {
        self.inner.outcome(sim)
    }
    fn spans(&self) -> &[RepairSpan] {
        self.inner.spans()
    }
    fn errors(&self) -> &[RepairError] {
        self.inner.errors()
    }
    fn completed_plans(&self) -> &[RepairPlan] {
        self.inner.completed_plans()
    }
    fn set_external_admission(&mut self, external: bool) {
        self.inner.set_external_admission(external)
    }
}

/// A foreground workload whose request draws are timed.
pub struct TimedWorkload {
    /// The wrapped workload.
    pub inner: Box<dyn Workload>,
    /// Where the timings go.
    pub acc: Arc<Acc>,
}

impl Workload for TimedWorkload {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn next_request(&mut self) -> Request {
        let inner = &mut self.inner;
        self.acc.time(Slot::NextRequest, || inner.next_request())
    }
    fn default_request_count(&self) -> usize {
        self.inner.default_request_count()
    }
}

/// An erasure code whose coding and coefficient entry points are timed.
pub struct TimedCode {
    /// The wrapped code.
    pub inner: Arc<dyn ErasureCode>,
    /// Where the timings go.
    pub acc: Arc<Acc>,
}

impl ErasureCode for TimedCode {
    fn n(&self) -> usize {
        self.inner.n()
    }
    fn k(&self) -> usize {
        self.inner.k()
    }
    fn name(&self) -> String {
        self.inner.name()
    }
    fn fault_tolerance(&self) -> usize {
        self.inner.fault_tolerance()
    }
    fn chunk_class(&self, index: usize) -> Result<ChunkClass, CodeError> {
        self.inner.chunk_class(index)
    }
    fn encode(&self, data: &[&[u8]]) -> Result<Vec<Vec<u8>>, CodeError> {
        self.acc.time(Slot::Encode, || self.inner.encode(data))
    }
    fn encode_striped(&self, data: &[&[u8]], stripe: usize) -> Result<Vec<Vec<u8>>, CodeError> {
        self.acc
            .time(Slot::Encode, || self.inner.encode_striped(data, stripe))
    }
    fn decode(&self, available: &[(usize, &[u8])], wanted: usize) -> Result<Vec<u8>, CodeError> {
        self.acc
            .time(Slot::Decode, || self.inner.decode(available, wanted))
    }
    fn decode_striped(
        &self,
        available: &[(usize, &[u8])],
        wanted: usize,
        stripe: usize,
    ) -> Result<Vec<u8>, CodeError> {
        self.acc.time(Slot::Decode, || {
            self.inner.decode_striped(available, wanted, stripe)
        })
    }
    fn repair(&self, failed: usize, inputs: &[(usize, &[u8])]) -> Result<Vec<u8>, CodeError> {
        self.acc
            .time(Slot::Decode, || self.inner.repair(failed, inputs))
    }
    fn repair_requirement(
        &self,
        failed: usize,
        alive: &[usize],
    ) -> Result<RepairRequirement, CodeError> {
        self.inner.repair_requirement(failed, alive)
    }
    fn repair_coefficients(
        &self,
        failed: usize,
        sources: &[usize],
    ) -> Result<Vec<Gf256>, CodeError> {
        self.acc.time(Slot::Coefficients, || {
            self.inner.repair_coefficients(failed, sources)
        })
    }
}
