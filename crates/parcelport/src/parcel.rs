//! Parcels and the action registry.
//!
//! "We refer to the triggering of remote functions with bound arguments
//! as actions and the messages containing the serialized data and remote
//! function as parcels" (§5.2). A [`Parcel`] carries its destination
//! locality, a component tag ([`GlobalId`]) that the handler receives as
//! is, the [`ActionId`] naming the function to run there, and the
//! serialized argument payload. No registry resolves or re-routes the
//! tag: a parcel runs where it is sent. On arrival, the destination
//! locality looks the action up in its [`ActionRegistry`] and spawns
//! the handler as a task — the active-message model that lets HPX
//! "run functions close to the objects they operate on" and implicitly
//! overlap computation and communication.

use crate::serialize::to_bytes;
use amt::{GlobalId, Runtime};
use bytes::Bytes;
use parking_lot::RwLock;
use serde::Serialize;
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::Arc;

/// Identifies a remotely executable function. Action ids must be
/// registered identically on every locality (as with HPX action
/// registration, which happens at static initialization time).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ActionId(pub u32);

/// An active message: run `action` on `dest_locality`, handing it the
/// `dest_component` tag and the serialized `payload` as its argument.
#[derive(Debug, Clone)]
pub struct Parcel {
    pub dest_locality: u32,
    pub dest_component: GlobalId,
    pub action: ActionId,
    pub payload: Bytes,
}

impl Parcel {
    /// Total size on the wire: fixed header plus payload.
    pub fn wire_size(&self) -> usize {
        Self::HEADER_BYTES + self.payload.len()
    }

    /// Header size: locality (4) + component id (8) + action (4) +
    /// payload length (8).
    pub const HEADER_BYTES: usize = 24;
}

/// A typed handle to a registered fire-and-forget action.
///
/// Returned by `Cluster::register_action`; the only way to obtain one
/// is to register the action, so a send site holding an
/// `ActionHandle<Req>` is statically guaranteed to (a) name a
/// registered action and (b) encode the request type the handler
/// decodes — the raw `(ActionId, Bytes)` mismatch class of bugs is
/// unrepresentable.
pub struct ActionHandle<Req> {
    id: ActionId,
    _req: PhantomData<fn(&Req)>,
}

// Manual impls: `ActionHandle` is a copyable token regardless of
// whether `Req` itself is `Clone`.
impl<Req> Clone for ActionHandle<Req> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<Req> Copy for ActionHandle<Req> {}

impl<Req> std::fmt::Debug for ActionHandle<Req> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ActionHandle({:?})", self.id)
    }
}

impl<Req> ActionHandle<Req> {
    pub(crate) fn new(id: ActionId) -> Self {
        ActionHandle { id, _req: PhantomData }
    }

    /// The underlying action id (for metrics/trace labels).
    pub fn id(&self) -> ActionId {
        self.id
    }
}

impl<Req: Serialize> ActionHandle<Req> {
    /// Encode a request into the payload this action's handler decodes.
    /// Useful to serialize once and fan the same payload out to many
    /// destinations via `Locality::send_encoded`.
    pub fn encode(&self, req: &Req) -> util::Result<Bytes> {
        Ok(to_bytes(req)?)
    }
}

/// The handler type: receives the hosting runtime, the destination
/// component id, and the payload.
pub type ActionFn = Arc<dyn Fn(&Arc<Runtime>, GlobalId, Bytes) + Send + Sync>;

/// Per-locality map of action ids to handlers.
#[derive(Default, Clone)]
pub struct ActionRegistry {
    actions: Arc<RwLock<HashMap<ActionId, ActionFn>>>,
}

impl ActionRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register `handler` under `id`.
    ///
    /// # Panics
    /// If `id` is already registered — silently replacing a handler is
    /// almost always a bug in scenario setup.
    pub fn register(
        &self,
        id: ActionId,
        handler: impl Fn(&Arc<Runtime>, GlobalId, Bytes) + Send + Sync + 'static,
    ) {
        let prev = self.actions.write().insert(id, Arc::new(handler));
        assert!(prev.is_none(), "action {id:?} registered twice");
    }

    /// Look up the handler for `id`.
    pub fn get(&self, id: ActionId) -> Option<ActionFn> {
        self.actions.read().get(&id).cloned()
    }

    /// Invoke the action for `parcel` on `rt`, spawning it as a task.
    ///
    /// # Panics
    /// If the action is unknown — a protocol error in the simulated
    /// cluster.
    pub fn dispatch(&self, rt: &Arc<Runtime>, parcel: Parcel) {
        let handler = self
            .get(parcel.action)
            .unwrap_or_else(|| panic!("unknown action {:?}", parcel.action));
        let rt2 = Arc::clone(rt);
        rt.spawn(move || handler(&rt2, parcel.dest_component, parcel.payload));
    }

    /// Number of registered actions.
    pub fn len(&self) -> usize {
        self.actions.read().len()
    }

    /// Whether no actions are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn wire_size_includes_header() {
        let p = Parcel {
            dest_locality: 0,
            dest_component: GlobalId(1),
            action: ActionId(2),
            payload: Bytes::from_static(&[0u8; 100]),
        };
        assert_eq!(p.wire_size(), 124);
    }

    #[test]
    fn register_and_dispatch() {
        let rt = Runtime::new(2);
        let reg = ActionRegistry::new();
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        reg.register(ActionId(7), move |_rt, id, payload| {
            assert_eq!(id, GlobalId(42));
            assert_eq!(payload.len(), 3);
            h.fetch_add(1, Ordering::SeqCst);
        });
        reg.dispatch(
            &rt,
            Parcel {
                dest_locality: 0,
                dest_component: GlobalId(42),
                action: ActionId(7),
                payload: Bytes::from_static(&[1, 2, 3]),
            },
        );
        rt.wait_quiescent();
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_registration_panics() {
        let reg = ActionRegistry::new();
        reg.register(ActionId(1), |_, _, _| {});
        reg.register(ActionId(1), |_, _, _| {});
    }

    #[test]
    #[should_panic(expected = "unknown action")]
    fn unknown_action_panics() {
        let rt = Runtime::new(1);
        let reg = ActionRegistry::new();
        reg.dispatch(
            &rt,
            Parcel {
                dest_locality: 0,
                dest_component: GlobalId(0),
                action: ActionId(99),
                payload: Bytes::new(),
            },
        );
    }
}
