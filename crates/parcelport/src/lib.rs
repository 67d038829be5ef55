//! Active messages and parcelports (paper §5.2).
//!
//! HPX transfers work between localities with *parcels*: active messages
//! that carry a serialized function id ("action") plus bound arguments,
//! and trigger that function on the destination. This crate reproduces
//! the two parcelports compared in the paper over a simulated in-process
//! cluster:
//!
//! * [`mpi_sim`] — the default **two-sided MPI** backend: tag matching of
//!   sends and receives, an eager/rendezvous protocol with extra copies,
//!   and a *progress engine guarded by a global lock* (modelling MPI's
//!   "internal progress/scheduling management and locking mechanisms that
//!   interfere with the smooth running of the HPX runtime").
//! * [`libfabric_sim`] — the **one-sided libfabric** backend: registered
//!   memory regions, RMA get of large payloads with zero copies (payload
//!   buffers are shared, not copied), and lock-free completion queues
//!   that "any task scheduling thread may poll ... and set futures to
//!   received data without any intervening layer".
//!
//! Two decorators can be stacked on either backend by the cluster
//! builder: [`fault`] injects seeded, deterministic parcel and locality
//! faults (drop/duplicate/delay/reorder, stall/crash), and [`reliable`]
//! adds ack/retransmit sequencing with duplicate suppression so every
//! action still runs effectively once under those faults.
//!
//! [`netmodel`] captures the quantitative cost model of both transports
//! (latency, bandwidth, per-message CPU overhead, progress contention),
//! which the `perfmodel` crate uses to regenerate Figures 2 and 3.
//! [`cluster`] wires several [`amt::Runtime`] localities together with
//! either backend; [`serialize`] is a compact binary serde codec used for
//! parcel payloads.

pub mod cluster;
pub mod fault;
pub mod libfabric_sim;
pub mod mpi_sim;
pub mod netmodel;
pub mod parcel;
pub mod reliable;
pub mod serialize;

pub use cluster::{Cluster, ClusterBuilder, Locality};
pub use fault::{FaultEvent, FaultPlan, FaultyTransport};
pub use netmodel::{NetParams, TransportKind};
pub use parcel::{ActionHandle, ActionId, ActionRegistry, Parcel};
pub use reliable::{ReliablePolicy, ReliableTransport};
pub use serialize::{from_bytes, to_bytes, CodecError};
