//! The timing shim: wraps each actor, times every `Actor::on_message`
//! call into it, and buckets the time by the message variant that entered
//! the layer. Everything outside the handlers is the simulator's own time.

use dex_broadcast::IdbMessage;
use dex_core::DexMsg;
use dex_harness::nodes::{DexNode, DexWire};
use dex_replication::{Node, ReplicaMsg, StateMachine};
use dex_simnet::{Actor, Context, MsgClass};
use dex_types::ProcessId;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// The layer a delivered message enters, by message variant.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layer {
    /// `P-Send` proposals: J1 view tally and the P1 gate (and `on_start`).
    CoreProposal,
    /// IDB `init` messages.
    IdbInit,
    /// IDB `echo` messages: witness bookkeeping, J2 tally and P2.
    IdbEcho,
    /// Aggregated IDB echo batches.
    EchoBatch,
    /// Echo-aggregator flush timers.
    FlushTick,
    /// Underlying-consensus traffic.
    Uc,
    /// Any delivery to a Byzantine actor.
    Byz,
    /// Slot-tagged proposals (and replica `on_start`).
    SlotProposal,
    /// Slot-tagged IDB `init`s.
    SlotIdbInit,
    /// Slot-tagged IDB `echo`s.
    SlotIdbEcho,
    /// Slot-tagged underlying-consensus traffic.
    SlotUc,
    /// Coalesced underlying-consensus batches across slots.
    UcBatch,
    /// Cross-slot echo batches (demultiplexed per slot on arrival).
    ReplicaEchoBatch,
    /// Replica self-timers (UC flush, echo flush, catch-up retry).
    Timer,
    /// Catch-up requests and replies.
    CatchUp,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 15] = [
        Layer::CoreProposal,
        Layer::IdbInit,
        Layer::IdbEcho,
        Layer::EchoBatch,
        Layer::FlushTick,
        Layer::Uc,
        Layer::Byz,
        Layer::SlotProposal,
        Layer::SlotIdbInit,
        Layer::SlotIdbEcho,
        Layer::SlotUc,
        Layer::UcBatch,
        Layer::ReplicaEchoBatch,
        Layer::Timer,
        Layer::CatchUp,
    ];

    /// Metric name prefix.
    pub fn name(self) -> &'static str {
        match self {
            Layer::CoreProposal => "core.proposal",
            Layer::IdbInit => "broadcast.idb_init",
            Layer::IdbEcho => "broadcast.idb_echo",
            Layer::EchoBatch => "broadcast.echo_batch",
            Layer::FlushTick => "broadcast.flush_tick",
            Layer::Uc => "underlying.uc",
            Layer::Byz => "adversary.byz",
            Layer::SlotProposal => "replication.slot_proposal",
            Layer::SlotIdbInit => "replication.slot_idb_init",
            Layer::SlotIdbEcho => "replication.slot_idb_echo",
            Layer::SlotUc => "replication.slot_uc",
            Layer::UcBatch => "replication.uc_batch",
            Layer::ReplicaEchoBatch => "replication.echo_batch",
            Layer::Timer => "replication.timer",
            Layer::CatchUp => "replication.catchup",
        }
    }
}

/// Calls, handler nanoseconds and batch entries per layer.
#[derive(Clone, Copy, Default, Debug, PartialEq)]
pub struct Clock {
    /// Handler calls per layer (indexed like [`Layer::ALL`]).
    pub calls: [u64; 15],
    /// Handler wall nanoseconds per layer.
    pub ns: [u64; 15],
    /// Batch entries carried into the layer (batch layers only).
    pub entries: [u64; 15],
}

impl Clock {
    /// Adds another clock's counts into this one.
    pub fn merge(&mut self, other: &Clock) {
        for i in 0..Layer::ALL.len() {
            self.calls[i] += other.calls[i];
            self.ns[i] += other.ns[i];
            self.entries[i] += other.entries[i];
        }
    }

    /// Handler nanoseconds over all layers.
    pub fn handler_ns(&self) -> u64 {
        self.ns.iter().sum()
    }
}

thread_local! {
    static CLOCK: RefCell<Clock> = RefCell::new(Clock::default());
}

/// Takes the clock accumulated on this thread since the last call.
pub fn take_clock() -> Clock {
    CLOCK.with(|c| std::mem::take(&mut *c.borrow_mut()))
}

fn charge(layer: Layer, started: Instant, entries: u64) {
    let ns = started.elapsed().as_nanos() as u64;
    let i = layer as usize;
    CLOCK.with(|c| {
        let mut c = c.borrow_mut();
        c.calls[i] += 1;
        c.ns[i] += ns;
        c.entries[i] += entries;
    });
}

/// An actor whose deliveries can be attributed to a [`Layer`].
pub trait Layered: Actor {
    /// The layer `msg` enters on this actor, and the batch entries it
    /// carries.
    fn layer(&self, msg: &Self::Msg) -> (Layer, u64);
    /// The layer `on_start` is charged to.
    fn start_layer(&self) -> Layer;
}

impl Layered for DexNode {
    fn layer(&self, msg: &DexWire) -> (Layer, u64) {
        if matches!(self, DexNode::Byz(_)) {
            return (Layer::Byz, 0);
        }
        match msg {
            DexMsg::Proposal(_) => (Layer::CoreProposal, 0),
            DexMsg::Idb(IdbMessage::Init { .. }) => (Layer::IdbInit, 0),
            DexMsg::Idb(IdbMessage::Echo { .. }) => (Layer::IdbEcho, 0),
            DexMsg::Uc(_) => (Layer::Uc, 0),
            DexMsg::EchoBatch(entries) => (Layer::EchoBatch, entries.len() as u64),
            DexMsg::EchoFlushTick => (Layer::FlushTick, 0),
        }
    }

    fn start_layer(&self) -> Layer {
        match self {
            DexNode::Byz(_) => Layer::Byz,
            _ => Layer::CoreProposal,
        }
    }
}

impl<SM: StateMachine> Layered for Node<SM> {
    fn layer(&self, msg: &ReplicaMsg<SM::Command>) -> (Layer, u64) {
        if matches!(self, Node::Byz(_)) {
            return (Layer::Byz, 0);
        }
        match msg {
            ReplicaMsg::Slot { inner, .. } => match inner {
                DexMsg::Proposal(_) => (Layer::SlotProposal, 0),
                DexMsg::Idb(IdbMessage::Init { .. }) => (Layer::SlotIdbInit, 0),
                DexMsg::Idb(IdbMessage::Echo { .. }) => (Layer::SlotIdbEcho, 0),
                DexMsg::Uc(_) => (Layer::SlotUc, 0),
                DexMsg::EchoBatch(entries) => (Layer::EchoBatch, entries.len() as u64),
                DexMsg::EchoFlushTick => (Layer::FlushTick, 0),
            },
            ReplicaMsg::UcBatch { .. } => (Layer::UcBatch, 0),
            ReplicaMsg::EchoBatch { entries } => (Layer::ReplicaEchoBatch, entries.len() as u64),
            ReplicaMsg::UcFlushTick | ReplicaMsg::EchoFlushTick | ReplicaMsg::CatchUpTick => {
                (Layer::Timer, 0)
            }
            ReplicaMsg::CatchUpRequest { .. } | ReplicaMsg::CatchUpReply { .. } => {
                (Layer::CatchUp, 0)
            }
        }
    }

    fn start_layer(&self) -> Layer {
        match self {
            Node::Byz(_) => Layer::Byz,
            Node::Correct(_) => Layer::SlotProposal,
        }
    }
}

/// Times every handler call of the wrapped actor into the thread's clock.
/// Everything else it forwards unchanged, so the simulation it runs in is
/// the one the untraced entry point runs.
pub struct Timed<A>(pub A);

impl<A: Layered> Actor for Timed<A> {
    type Msg = A::Msg;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        let layer = self.0.start_layer();
        let started = Instant::now();
        self.0.on_start(ctx);
        charge(layer, started, 0);
    }

    fn on_message(&mut self, from: ProcessId, msg: &Self::Msg, ctx: &mut Context<'_, Self::Msg>) {
        let (layer, entries) = self.0.layer(msg);
        let started = Instant::now();
        self.0.on_message(from, msg, ctx);
        charge(layer, started, entries);
    }

    fn recorder_mut(&mut self) -> Option<&mut dex_obs::Recorder> {
        self.0.recorder_mut()
    }

    fn msg_bytes(msg: &Self::Msg) -> usize {
        A::msg_bytes(msg)
    }

    fn msg_class(msg: &Self::Msg) -> MsgClass {
        A::msg_class(msg)
    }
}

/// Messages delivered during a run, with their causal depth.
pub type DeliveryLog<M> = Rc<RefCell<Vec<(u32, M)>>>;

/// Records every message delivered to the wrapped actor, with its causal
/// depth, into a shared log (untimed; feeds the codec post-pass).
pub struct Tap<A: Actor> {
    /// The wrapped actor.
    pub inner: A,
    /// Shared delivery log.
    pub log: DeliveryLog<A::Msg>,
}

impl<A: Actor> Actor for Tap<A> {
    type Msg = A::Msg;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        self.inner.on_start(ctx);
    }

    fn on_message(&mut self, from: ProcessId, msg: &Self::Msg, ctx: &mut Context<'_, Self::Msg>) {
        self.log.borrow_mut().push((ctx.depth().get(), msg.clone()));
        self.inner.on_message(from, msg, ctx);
    }

    fn recorder_mut(&mut self) -> Option<&mut dex_obs::Recorder> {
        self.inner.recorder_mut()
    }

    fn msg_bytes(msg: &Self::Msg) -> usize {
        A::msg_bytes(msg)
    }

    fn msg_class(msg: &Self::Msg) -> MsgClass {
        A::msg_class(msg)
    }
}
