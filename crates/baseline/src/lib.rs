//! `parn-baseline`: the channel-access schemes the paper positions itself
//! against (§2), implemented under the *same* physical interference model
//! as the Shepard scheme.
//!
//! [`model`] holds [`Baseline`], one event model for pure and slotted
//! ALOHA, CSMA with power-threshold deferral, and MACA-style RTS/CTS with
//! NAV deferral, selected by [`MacKind`]. Only the channel-access decision
//! differs between them. A baseline runs from the scheme's own
//! [`NetConfig`](parn_core::NetConfig) and builds its physical world with
//! [`World`](parn_core::World), as the scheme's `Network` does.
//!
//! All four lose packets to collisions under load; the scheme does not.
//! That contrast is experiment E3.

#![warn(missing_docs)]

pub mod model;

pub use model::{Baseline, MacKind};
