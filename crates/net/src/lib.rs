//! # nlft-net — time-triggered communication for NLFT clusters
//!
//! The paper assumes a time-triggered network (TTP/C or FlexRay) whose
//! interface delivers messages that are either correct or detectably
//! corrupt, with time-triggered slots for critical traffic and an optional
//! event-triggered segment for sporadic activity. This crate provides that
//! substrate:
//!
//! * [`frame`] — CRC-protected frames (end-to-end detectable corruption);
//! * [`bus`] — a FlexRay-style cycle: static TDMA slots guarded against
//!   babbling idiots + a priority-arbitrated dynamic mini-slot segment;
//! * [`membership`] — silent-node exclusion and reintegration, the
//!   mechanism behind the paper's repair rates `μ_R` and `μ_OM`;
//! * [`replication`] — duplex active replication (the central-unit
//!   configuration) and the §4 state-resynchronisation protocol over the
//!   dynamic segment;
//! * [`inject`] — deterministic network fault injection: per-node rates of
//!   corruption, omission, crash, babbling, masquerade and clock faults,
//!   driven against the bus to measure how well the above defences hold.
//!
//! # Examples
//!
//! A two-node duplex cluster surviving one replica's omission:
//!
//! ```
//! use nlft_net::bus::{Bus, BusConfig};
//! use nlft_net::frame::NodeId;
//! use nlft_net::replication::{select_duplex_among, DuplexPair, DuplexValue};
//!
//! let config = BusConfig::round_robin(2, 0);
//! let mut bus = Bus::new(config.clone());
//! let pair = DuplexPair::new(NodeId(0), NodeId(1));
//!
//! bus.start_cycle();
//! bus.transmit_static(NodeId(0), vec![1234]).unwrap(); // replica 1 omits
//! let delivery = bus.finish_cycle();
//! let value = select_duplex_among(&config, &delivery, pair, |_| true);
//! assert_eq!(value.payload(), Some(&[1234u32][..]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bus;
pub mod frame;
pub mod inject;
pub mod membership;
pub mod replication;
pub mod startup;
pub mod sync;
pub mod timing;

pub use bus::{Bus, BusConfig, CycleDelivery, TransmitError, WireFault};
pub use frame::{Frame, FrameError, NodeId, SlotId};
pub use inject::{BlackoutSpec, InjectionCounts, NetFaultInjector, NetFaultPlan, NetFaultRates};
pub use membership::{Membership, MembershipEvent};
pub use replication::{select_duplex_among, DuplexPair, DuplexValue, StateResync};
pub use startup::{
    StartupConfig, StartupEvent, StartupMetrics, StartupProtocol, StartupState, TransmitIntent,
};
pub use sync::{ClockBehaviour, SyncConfig, SyncReport};
pub use timing::{derive_repair_rates, BusTiming, DerivedRepairRates};
