//! A FreeRTOS-like real-time kernel model and the paper's workload.
//!
//! The DSN'22 paper runs "FreeRTOS, a market-leading real-time OS" in
//! the non-root cell, with a workload of:
//!
//! > *"a task to blink an onboard led, a couple of send/receive tasks,
//! > two floating-point arithmetic tasks, and fifteen integer ones."*
//!
//! This crate provides:
//!
//! * a priority-based, preemptive, tick-driven [`kernel`] with
//!   fixed-priority ready lists, round-robin within a priority level,
//!   delays, and bounded blocking [`queue`]s — the FreeRTOS semantics
//!   the workload needs;
//! * a [`task`] abstraction where task bodies are [`task::TaskCode`]
//!   implementations executed one *slice* at a time (the simulator's
//!   quantum);
//! * the exact paper [`workload`] (1 blink + sender/receiver pair +
//!   2 floating-point + 15 integer tasks);
//! * [`RtosGuest`], the [`certify_hypervisor::Guest`] implementation
//!   that boots the kernel inside a cell, prints through the
//!   hypervisor debug console (generating the `arch_handle_hvc`
//!   traffic the paper profiles) and blinks the LED through trapped
//!   GPIO MMIO (the `arch_handle_trap` traffic).
//!
//! # Example
//!
//! ```
//! use certify_rtos::kernel::Rtos;
//! use certify_rtos::task::Priority;
//! use certify_rtos::workload;
//!
//! let mut rtos = Rtos::new("freertos-demo");
//! workload::spawn_paper_workload(&mut rtos);
//! // 1 blink + 2 queue tasks + 2 float + 15 integer + idle
//! assert_eq!(rtos.task_count(), 21);
//! assert!(rtos.tasks_at_priority(Priority::IDLE) >= 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod guest;
pub mod kernel;
pub mod queue;
pub mod sync;
pub mod task;
pub mod workload;

pub use guest::RtosGuest;
pub use kernel::Rtos;
pub use queue::{QueueId, RecvOutcome, SendOutcome};
pub use sync::{LockOutcome, MutexId, SemaphoreId, TakeOutcome};
pub use task::{Priority, SliceResult, TaskCode, TaskCodeClone, TaskEnv, TaskId, TaskState};
