//! The RTOS cell payload: a [`Guest`] implementation that boots the
//! FreeRTOS-like kernel with the paper's workload.

use crate::kernel::Rtos;
use crate::task::TaskId;
use crate::workload;
use certify_arch::IrqId;
use certify_board::memmap;
use certify_hypervisor::{Guest, GuestCtx, GuestHealth};
use certify_obs::trace::{TraceEvent, TraceKind, TraceLog};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// The non-root cell guest of the paper: FreeRTOS with the blink /
/// send-receive / float / integer task set.
///
/// `Clone` is a deep copy of the running kernel (tasks and all); the
/// pristine image it restarts from is shared, and an attached trace
/// log stays a shared handle until [`RtosGuest::set_tracer`] replaces
/// it.
#[derive(Clone)]
pub struct RtosGuest {
    /// The running kernel: `None` until the first (re)start, while the
    /// guest is still its image.
    kernel: Option<Rtos>,
    /// The never-run kernel every (re)start copies: the workload is
    /// spawned once per process, not once per boot.
    image: Arc<Rtos>,
    expected_entry: u32,
    health: GuestHealth,
    booted: bool,
    banner_printed: bool,
    /// Set when a wild hypervisor store corrupted this cell's memory:
    /// the next slice dereferences the mangled state and faults.
    pending_corruption: bool,
    /// Booted, healthy, banner printed, no corruption pending: the
    /// per-slice fast path, re-derived whenever any of those change.
    steady: bool,
    /// The causal trace sink, if a flight recorder is attached; the
    /// guest records scheduler decisions into it.
    tracer: Option<TraceLog>,
}

impl RtosGuest {
    /// Creates the guest for a cell whose configured entry point is
    /// `expected_entry` (usually
    /// [`certify_hypervisor::SystemConfig::freertos_cell`]'s `entry`).
    pub fn new(expected_entry: u32) -> RtosGuest {
        static IMAGE: OnceLock<Arc<Rtos>> = OnceLock::new();
        let image = IMAGE.get_or_init(|| pristine(workload::spawn_paper_workload));
        Self::build(expected_entry, Arc::clone(image))
    }

    /// Like [`RtosGuest::new`], with the safety-heartbeat task added
    /// to the workload (extension experiment E5b).
    pub fn with_heartbeat(expected_entry: u32) -> RtosGuest {
        static IMAGE: OnceLock<Arc<Rtos>> = OnceLock::new();
        let image = IMAGE.get_or_init(|| pristine(workload::spawn_paper_workload_with_heartbeat));
        Self::build(expected_entry, Arc::clone(image))
    }

    fn build(expected_entry: u32, image: Arc<Rtos>) -> RtosGuest {
        RtosGuest {
            kernel: None,
            image,
            expected_entry,
            health: GuestHealth::Healthy,
            booted: false,
            banner_printed: false,
            pending_corruption: false,
            steady: false,
            tracer: None,
        }
    }

    /// Attaches a causal trace log; every scheduler decision is
    /// recorded into it.
    pub fn set_tracer(&mut self, tracer: TraceLog) {
        self.tracer = Some(tracer);
    }

    fn trace_sched(&self, ctx: &GuestCtx<'_>, picked: Option<TaskId>) {
        if let (Some(tracer), Some(task)) = (&self.tracer, picked) {
            tracer.record(TraceEvent {
                step: ctx.now(),
                cpu: ctx.cpu.0,
                kind: TraceKind::SchedDecision,
                arg_a: task.0 as u64,
                arg_b: 0,
            });
        }
    }

    /// The guest's kernel (scheduler statistics for the analysis); the
    /// pristine image until the first (re)start.
    pub fn kernel(&self) -> &Rtos {
        self.kernel.as_ref().unwrap_or(&self.image)
    }

    fn running(&mut self) -> &mut Rtos {
        self.kernel
            .as_mut()
            .expect("a booted guest runs its own copy of the image")
    }

    /// Whether the guest was ever entered.
    pub fn is_booted(&self) -> bool {
        self.booted
    }
}

/// The pristine kernel image: `spawn` run once on an empty kernel.
fn pristine(spawn: fn(&mut Rtos)) -> Arc<Rtos> {
    let mut kernel = Rtos::new("freertos-demo");
    spawn(&mut kernel);
    Arc::new(kernel)
}

impl fmt::Debug for RtosGuest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RtosGuest")
            .field("health", &self.health)
            .field("booted", &self.booted)
            .finish()
    }
}

impl Guest for RtosGuest {
    fn name(&self) -> &str {
        "freertos"
    }

    fn step(&mut self, ctx: &mut GuestCtx<'_>) {
        // Hot path: a healthy, booted, banner-printed guest just runs
        // its next slice.
        if self.steady {
            let picked = self.running().run_slice(ctx);
            self.trace_sched(ctx, picked);
            if ctx.parked() {
                self.health = GuestHealth::HardFault;
                self.steady = false;
            }
            return;
        }
        if !self.booted || !self.health.is_alive() {
            // A broken or never-booted guest produces nothing — the
            // blank USART of experiment E2.
            return;
        }
        if self.pending_corruption {
            // The mangled kernel structure is dereferenced: a wild
            // store escapes the cell and the stage-2 violation parks
            // the CPU (fault contained to this cell).
            self.pending_corruption = false;
            self.health = GuestHealth::HardFault;
            ctx.ram_write32(memmap::ROOT_RAM_BASE + 0x10, 0xdead_dead);
            return;
        }
        if !self.banner_printed {
            self.banner_printed = true;
            let line = format!(
                "[rtos] FreeRTOS boot: {} tasks ready\n",
                self.kernel().task_count()
            );
            ctx.console_print(&line);
            if ctx.parked() {
                return;
            }
        }
        self.steady = true;
        let picked = self.running().run_slice(ctx);
        self.trace_sched(ctx, picked);
        if ctx.parked() {
            // The slice triggered an unrecoverable trap; stop making
            // progress.
            self.health = GuestHealth::HardFault;
            self.steady = false;
        }
    }

    fn on_tick(&mut self, _ctx: &mut GuestCtx<'_>) {
        if self.booted && self.health.is_alive() {
            self.running().tick();
        }
    }

    fn on_irq(&mut self, _irq: IrqId, _ctx: &mut GuestCtx<'_>) {
        // The workload uses no SPIs; ivshmem doorbells are absorbed.
    }

    fn on_reset(&mut self, entry: u32) {
        // A (re)start reloads the image: fresh kernel, fresh banner.
        self.kernel = Some(Rtos::clone(&self.image));
        self.banner_printed = false;
        self.pending_corruption = false;
        self.steady = false;
        self.booted = true;
        if entry == self.expected_entry {
            self.health = GuestHealth::Healthy;
        } else {
            // Entered at a corrupted address: never becomes
            // executable (E2's second leg).
            self.health = GuestHealth::Broken;
        }
    }

    fn on_memory_corrupted(&mut self) {
        if self.health.is_alive() {
            self.pending_corruption = true;
            self.steady = false;
        }
    }

    fn health(&self) -> GuestHealth {
        self.health
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use certify_arch::CpuId;
    use certify_board::Machine;
    use certify_hypervisor::{Hypervisor, SystemConfig};

    fn ctx_parts() -> (Machine, Hypervisor) {
        let machine = Machine::new_banana_pi();
        let hv = Hypervisor::new(SystemConfig::banana_pi_demo());
        (machine, hv)
    }

    #[test]
    fn unbooted_guest_is_silent() {
        let (mut machine, mut hv) = ctx_parts();
        let mut guest = RtosGuest::new(0x7010_8000);
        let mut ctx = GuestCtx::new(CpuId(1), &mut machine, &mut hv);
        guest.step(&mut ctx);
        assert_eq!(machine.uart.byte_count(), 0);
        assert!(!guest.is_booted());
    }

    #[test]
    fn reset_at_expected_entry_boots_healthy() {
        let mut guest = RtosGuest::new(0x7010_8000);
        guest.on_reset(0x7010_8000);
        assert!(guest.is_booted());
        assert_eq!(guest.health(), GuestHealth::Healthy);
    }

    #[test]
    fn reset_at_wrong_entry_is_broken_and_silent() {
        let (mut machine, mut hv) = ctx_parts();
        let mut guest = RtosGuest::new(0x7010_8000);
        guest.on_reset(0x7010_8010);
        assert_eq!(guest.health(), GuestHealth::Broken);
        let mut ctx = GuestCtx::new(CpuId(1), &mut machine, &mut hv);
        guest.step(&mut ctx);
        guest.step(&mut ctx);
        // The blank-USART signature of E2.
        assert_eq!(machine.uart.byte_count(), 0);
    }

    #[test]
    fn memory_corruption_leads_to_contained_hard_fault() {
        let (mut machine, mut hv) = ctx_parts();
        let mut guest = RtosGuest::new(0x7010_8000);
        guest.on_reset(0x7010_8000);
        guest.on_memory_corrupted();
        let mut ctx = GuestCtx::new(CpuId(1), &mut machine, &mut hv);
        guest.step(&mut ctx);
        assert_eq!(guest.health(), GuestHealth::HardFault);
    }

    /// Boots `guest`, runs it for a while and resets it again: the
    /// kernel must come back exactly as `spawn` builds it.
    fn reset_after_running_is_a_fresh_spawn(mut guest: RtosGuest, spawn: fn(&mut Rtos)) {
        let (mut machine, mut hv) = ctx_parts();
        machine.cpu_mut(CpuId(1)).power_on();
        guest.on_reset(0x7010_8000);
        for _ in 0..200 {
            let mut ctx = GuestCtx::new(CpuId(1), &mut machine, &mut hv);
            guest.step(&mut ctx);
            guest.on_tick(&mut ctx);
        }
        assert_eq!(guest.health(), GuestHealth::Healthy);
        assert!(guest.kernel().total_slices() > 100);
        assert!(guest.kernel().tick_count() > 100);
        let mut fresh = Rtos::new("freertos-demo");
        spawn(&mut fresh);
        assert_ne!(guest.kernel().fingerprint(), fresh.fingerprint());
        guest.on_reset(0x7010_8000);
        assert_eq!(guest.kernel().fingerprint(), fresh.fingerprint());
        assert!(!guest.banner_printed && !guest.steady);
    }

    #[test]
    fn reset_restores_the_pristine_kernel() {
        reset_after_running_is_a_fresh_spawn(
            RtosGuest::new(0x7010_8000),
            workload::spawn_paper_workload,
        );
    }

    #[test]
    fn reset_restores_the_pristine_heartbeat_kernel() {
        reset_after_running_is_a_fresh_spawn(
            RtosGuest::with_heartbeat(0x7010_8000),
            workload::spawn_paper_workload_with_heartbeat,
        );
    }

    #[test]
    fn corruption_after_death_is_ignored() {
        let mut guest = RtosGuest::new(0x7010_8000);
        guest.on_reset(0x7010_9999);
        assert_eq!(guest.health(), GuestHealth::Broken);
        guest.on_memory_corrupted();
        assert!(!guest.pending_corruption);
    }
}
