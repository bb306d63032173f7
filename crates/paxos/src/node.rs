//! The actor glue: a simulation node is either a replica or a client.

use simnet::{Actor, Context, NodeId, TimerToken};

use crate::client::ClientState;
use crate::msg::Msg;
use crate::open_loop::OpenLoopClient;
use crate::replica::Replica;
use crate::service::Service;

/// A node in a replicated-service simulation: server replica or client.
// Replica state dwarfs client state by design; one enum per simulation
// node is the simnet contract, and nodes are few.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum PaxosNode<SM: Service> {
    /// A replica participating in consensus.
    Server(Replica<SM>),
    /// A closed-loop client.
    Client(ClientState<SM>),
    /// An open-loop workload session.
    OpenLoop(OpenLoopClient<SM>),
}

impl<SM: Service> PaxosNode<SM> {
    /// The replica state, if this is a server.
    pub fn as_server(&self) -> Option<&Replica<SM>> {
        match self {
            PaxosNode::Server(r) => Some(r),
            _ => None,
        }
    }

    /// Mutable replica state, if this is a server.
    pub fn as_server_mut(&mut self) -> Option<&mut Replica<SM>> {
        match self {
            PaxosNode::Server(r) => Some(r),
            _ => None,
        }
    }

    /// The client state, if this is a client.
    pub fn as_client(&self) -> Option<&ClientState<SM>> {
        match self {
            PaxosNode::Client(c) => Some(c),
            _ => None,
        }
    }

    /// Mutable client state, if this is a client.
    pub fn as_client_mut(&mut self) -> Option<&mut ClientState<SM>> {
        match self {
            PaxosNode::Client(c) => Some(c),
            _ => None,
        }
    }

    /// The open-loop session state, if this is one.
    pub fn as_open_loop(&self) -> Option<&OpenLoopClient<SM>> {
        match self {
            PaxosNode::OpenLoop(c) => Some(c),
            _ => None,
        }
    }

    /// Mutable open-loop session state, if this is one.
    pub fn as_open_loop_mut(&mut self) -> Option<&mut OpenLoopClient<SM>> {
        match self {
            PaxosNode::OpenLoop(c) => Some(c),
            _ => None,
        }
    }
}

impl<SM: Service> Actor for PaxosNode<SM> {
    type Msg = Msg<SM>;

    fn on_start(&mut self, ctx: &mut Context<Msg<SM>>) {
        match self {
            PaxosNode::Server(r) => r.on_start(ctx),
            PaxosNode::Client(c) => c.on_start(ctx),
            PaxosNode::OpenLoop(c) => c.on_start(ctx),
        }
    }

    fn on_message(&mut self, from: NodeId, msg: Msg<SM>, ctx: &mut Context<Msg<SM>>) {
        match self {
            PaxosNode::Server(r) => r.on_message(from, msg, ctx),
            PaxosNode::Client(c) => c.on_message(from, msg, ctx),
            PaxosNode::OpenLoop(c) => c.on_message(from, msg, ctx),
        }
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Context<Msg<SM>>) {
        match self {
            PaxosNode::Server(r) => r.on_timer(token, ctx),
            PaxosNode::Client(c) => c.on_timer(token, ctx),
            PaxosNode::OpenLoop(c) => c.on_timer(token, ctx),
        }
    }
}
