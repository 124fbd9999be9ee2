//! Actors and their execution context.

use crate::metrics::Metrics;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use crate::trace::{Trace, TraceEvent};
use std::fmt;

/// Identifies a node (an actor instance) in the simulated system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The pseudo-node representing the outside environment; messages
    /// injected with [`crate::World::send_from_env`] carry this sender.
    pub const ENV: NodeId = NodeId(u32::MAX);
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == NodeId::ENV {
            write!(f, "env")
        } else {
            write!(f, "n{}", self.0)
        }
    }
}

/// A deterministic event-driven process.
///
/// Actors never block: each callback runs to completion, emitting effects
/// (messages, timers) through the [`Ctx`]. All state an actor holds in `self`
/// is *volatile* unless the actor itself models stable storage — when the
/// failure injector crashes a node, [`Actor::on_crash`] must discard whatever
/// would not survive a real crash.
pub trait Actor {
    /// The message type exchanged between actors of this system.
    type Msg: Clone + fmt::Debug;

    /// Called once when the world starts (or when the node is added to an
    /// already-running world).
    fn on_start(&mut self, _ctx: &mut Ctx<Self::Msg>) {}

    /// Called when a message is delivered to this node.
    fn on_message(&mut self, ctx: &mut Ctx<Self::Msg>, from: NodeId, msg: Self::Msg);

    /// Called when a timer set by this node fires. `key` is the value passed
    /// to [`Ctx::set_timer`]. Timers do not survive crashes.
    fn on_timer(&mut self, _ctx: &mut Ctx<Self::Msg>, _key: u64) {}

    /// Called when the node crashes; must drop volatile state. No effects
    /// can be emitted from a crash.
    fn on_crash(&mut self) {}

    /// Called when the node recovers; may rebuild volatile state from
    /// whatever the actor models as stable storage and restart timers.
    fn on_recover(&mut self, _ctx: &mut Ctx<Self::Msg>) {}
}

/// Effects emitted by an actor callback; the world applies them in
/// emission order once the callback returns.
#[derive(Debug)]
pub(crate) enum Effect<M> {
    /// Send `msg` to node `to`.
    Send { to: NodeId, msg: M },
    /// Arm a timer carrying `key`, due at `at`.
    SetTimer { key: u64, at: SimTime },
}

/// The execution context handed to actor callbacks.
pub struct Ctx<'a, M> {
    pub(crate) now: SimTime,
    pub(crate) me: NodeId,
    pub(crate) effects: &'a mut Vec<Effect<M>>,
    pub(crate) rng: &'a mut SimRng,
    pub(crate) metrics: &'a mut Metrics,
    pub(crate) trace: &'a mut Trace,
}

impl<M> Ctx<'_, M> {
    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This node's identity.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// Sends `msg` to `to`. Delivery latency and loss follow the world's
    /// network configuration; messages to a crashed or partitioned node are
    /// silently dropped, exactly like a real datagram.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.effects.push(Effect::Send { to, msg });
    }

    /// Arms a timer that fires after `delay` with the given `key`. Timers
    /// are volatile: they are discarded if the node crashes.
    pub fn set_timer(&mut self, delay: SimDuration, key: u64) {
        self.effects.push(Effect::SetTimer {
            key,
            at: self.now + delay,
        });
    }

    /// This node's deterministic random stream.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// The world's metrics registry.
    pub fn metrics(&mut self) -> &mut Metrics {
        self.metrics
    }

    /// Records a protocol trace event at the current time, attributed to
    /// this node. No-op unless tracing was enabled for the run.
    pub fn trace(&mut self, event: TraceEvent) {
        self.trace.record(self.now, self.me, event);
    }

    /// Lends the random stream, the metrics registry and the trace at once,
    /// for a callee that records into all three in one call.
    pub fn lend(&mut self) -> (&mut SimRng, &mut Metrics, &mut Trace) {
        (self.rng, self.metrics, self.trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_display() {
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(NodeId::ENV.to_string(), "env");
    }

    #[test]
    fn ctx_accumulates_effects() {
        let mut rng = SimRng::new(1);
        let mut metrics = Metrics::new();
        let mut trace = Trace::collecting();
        let mut effects = Vec::new();
        let mut ctx: Ctx<'_, u32> = Ctx {
            now: SimTime::from_secs(1),
            me: NodeId(0),
            effects: &mut effects,
            rng: &mut rng,
            metrics: &mut metrics,
            trace: &mut trace,
        };
        assert_eq!(ctx.now(), SimTime::from_secs(1));
        assert_eq!(ctx.me(), NodeId(0));
        ctx.send(NodeId(1), 42);
        ctx.set_timer(SimDuration::from_secs(1), 7);
        ctx.rng().unit();
        ctx.metrics().inc("x");
        ctx.trace(TraceEvent::Decided {
            txn: 1,
            completed: true,
        });
        assert_eq!(ctx.effects.len(), 2);
        assert_eq!(trace.len(), 1);
        assert_eq!(trace.records()[0].at, SimTime::from_secs(1));
    }
}
