//! `parn-baseline`: the channel-access schemes the paper positions itself
//! against (§2), implemented under the *same* physical interference model
//! as the Shepard scheme.
//!
//! * [`common`] — the shared physical scenario ([`Scenario`]), its
//!   configuration ([`BaselineConfig`]) and the MAC selector ([`MacKind`]);
//! * [`model`] — [`Baseline`], one event model for pure and slotted ALOHA,
//!   CSMA with power-threshold deferral, and MACA-style RTS/CTS with NAV
//!   deferral. Only the channel-access decision differs between them.
//!
//! All four lose packets to collisions under load; the scheme does not.
//! That contrast is experiment E3.

#![warn(missing_docs)]

pub mod common;
pub mod model;

pub use common::{BaselineConfig, MacKind, Scenario};
pub use model::Baseline;
