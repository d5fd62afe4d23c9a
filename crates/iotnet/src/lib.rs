//! `iotnet` — the network substrate of the IoTSec reproduction.
//!
//! The HotNets '15 IoTSec paper assumes an enterprise or home network in
//! which every IoT device's first-hop switch or access point can be
//! programmed (SDN-style) to steer traffic through security functions.
//! This crate provides that substrate as a **deterministic discrete-event
//! simulation**:
//!
//! * [`time`] — simulated clock ([`time::SimTime`]) and durations.
//! * [`engine`] — a time-ordered, FIFO-stable event queue.
//! * [`faults`] — deterministic fault injection over the event queue:
//!   link flaps (fail *and* heal), loss/corruption bursts, partitions.
//! * [`addr`] — MAC/IPv4 addressing and node identifiers.
//! * [`packet`] — Ethernet/IPv4/UDP/TCP packet model with a real wire
//!   codec (encode to bytes, parse back), in the spirit of smoltcp's
//!   explicit representation types.
//! * [`flow`] — OpenFlow-like match/action rules and priority flow tables.
//! * [`hash`] — the unkeyed word hasher behind every map of the packet
//!   path, from the switch tables up to the world's.
//! * [`switch`] — SDN switches with flow tables, default actions and
//!   per-port counters.
//! * [`link`] — links with latency, bandwidth, loss and failure state.
//! * [`topology`] — topology graph plus builders for the deployments the
//!   paper targets (smart home behind an IoT router, enterprise with an
//!   on-premise NFV cluster).
//! * [`net`] — the [`net::Network`]: owns switches and links, moves
//!   packets between attached endpoints, invokes inline packet
//!   processors (the hook µmboxes attach to), and produces deliveries.
//! * [`capture`] — ring-buffer packet capture with filters, used by the
//!   IDS µmboxes, the learning layer and the test suite.
//!
//! Everything is driven by an explicit event clock and seeded RNG so that
//! every experiment in the reproduction is exactly repeatable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod capture;
pub mod engine;
pub mod faults;
pub mod flow;
pub mod hash;
pub mod link;
pub mod net;
pub mod packet;
pub mod stats;
pub mod switch;
pub mod time;
pub mod topology;

pub use addr::{EndpointId, Ipv4Addr, MacAddr, NodeId, PortNo, SwitchId};
pub use engine::EventQueue;
pub use faults::{FaultScheduler, NetFault};
pub use flow::{FlowAction, FlowMatch, FlowRule, FlowTable, PackedFlowKey};
pub use link::{Link, LinkParams};
pub use net::{Delivery, ForwardList, InlineProcessor, InlineVerdict, Network, SteerHandle};
pub use packet::{EthernetHeader, Ipv4Header, PackedHeaders, Packet, TransportHeader};
pub use switch::Switch;
pub use time::{SimDuration, SimTime};
pub use topology::{Topology, TopologyBuilder};
