//! `parn-sched`: the decentralized pseudo-random scheduling substrate of
//! Shepard's channel access scheme (paper §7).
//!
//! * [`clock`] — free-running station clocks with random offsets and
//!   quartz-style drift;
//! * [`remoteclock`] — affine models of neighbours' clocks fitted from
//!   rendezvous samples;
//! * [`slots`] — the shared hash-based slot designation function
//!   (receive duty cycle `p`);
//! * [`windows`] — actual and predicted transmit/receive windows in global
//!   time, with guard bands;
//! * [`packing`] — quarter-slot packet placement;
//! * [`analysis`] — the §7.2 Bernoulli performance model.

#![warn(missing_docs)]

pub mod analysis;
pub mod clock;
pub mod packing;
pub mod remoteclock;
pub mod slots;
pub mod windows;

pub use clock::StationClock;
pub use packing::QuarterSlot;
pub use remoteclock::{ClockSample, RemoteClockModel};
pub use slots::{SchedParams, SlotKind};
pub use windows::{intersect_lists, subtract_lists, PredictedSchedule, StationSchedule, Window};
