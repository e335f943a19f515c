//! `parn-core`: Shepard's decentralized, collision-free channel access
//! scheme for large dense packet radio networks (SIGCOMM '96), as a
//! runnable simulation and library.
//!
//! * [`config`] — scenario description with paper-flavoured defaults;
//! * [`faults`] — deterministic fault plans (crash / crash-recover /
//!   clock jump / jammer) and the healing policy (oracle vs local);
//! * [`mobility`] — station motion models and join/leave churn plans
//!   (dynamic topology), and the motion runtime;
//! * [`packet`] — packets and loss causes;
//! * [`power`] — §6.1 power control (deliver constant power);
//! * [`collision`] — the §5 collision taxonomy over PHY failure reports;
//! * [`vecmap`] — the sorted-vector map that holds per-station state;
//! * [`network`] — the full event-driven simulator (event loop,
//!   reception, PHY bookkeeping, faults), with the §7 channel access
//!   (clocks, clock models, queues, plans and routing views), routing
//!   (the shared table or the per-station distance-vector exchange),
//!   local failure detection and the adversary runtime in four
//!   crate-private modules;
//! * [`traffic`] — composable traffic models (Poisson / bursty on-off
//!   sources × uniform / neighbour / gravity / hotspot destinations), and
//!   the generator that runs them;
//! * [`metrics`] — loss/delay/duty accounting.
//!
//! ```
//! use parn_core::{NetConfig, Network};
//! let mut cfg = NetConfig::paper_default(20, 1);
//! cfg.run_for = parn_sim::Duration::from_secs(3);
//! cfg.warmup = parn_sim::Duration::from_secs(1);
//! let metrics = Network::run(cfg);
//! assert_eq!(metrics.collision_losses(), 0);
//! ```

#![warn(missing_docs)]

mod adversary;
pub mod collision;
pub mod config;
pub mod faults;
mod heal;
mod mac;
pub mod metrics;
pub mod mobility;
pub mod network;
pub mod packet;
pub mod power;
mod routing;
pub mod traffic;
pub mod vecmap;

pub use collision::{classify, classify_with, CollisionKinds};
pub use config::{
    ClockConfig, DestPolicy, DvConfig, FarFieldConfig, NeighborProtection, NetConfig, PhyBackend,
    RouteMode, SourceModel, SyncMode, TrafficConfig,
};
pub use faults::{ByzMode, CutAxis, FaultEvent, FaultKind, FaultPlan, HealConfig, HealMode};
pub use metrics::Metrics;
pub use mobility::{ChurnEvent, ChurnKind, ChurnPlan, MobilityConfig, MobilityModel};
pub use network::{Event, Network};
pub use packet::{ControlPayload, LossCause, Packet, PacketKind};
pub use power::PowerPolicy;
