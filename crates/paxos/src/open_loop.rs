//! An open-loop session client: operations arrive on a precomputed
//! schedule (the arrival process decides *when*, not the service), and
//! latency is measured from the **scheduled arrival** to completion, so
//! server-side queueing is charged to the request instead of silently
//! delaying subsequent arrivals (no coordinated omission).
//!
//! One session keeps at most one operation on the wire. This is not a
//! throughput limitation — concurrency comes from running many session
//! actors — but a correctness requirement: the replicas' exactly-once
//! cache assumes each client's requests are proposed in `req_id` order,
//! and the simulated network does not preserve FIFO. A session with two
//! requests in flight could see request `k+1` commit first, after which
//! request `k` is dropped everywhere as a stale duplicate and the
//! session livelocks. Demand that outruns a session's single slot queues
//! here and shows up as latency, exactly like an open-loop load
//! generator's connection pool.

use std::collections::VecDeque;

use obs::{FieldValue, Obs, SpanHandle};
use simnet::{Context, NodeId, SimTime, TimerToken};

use crate::ballot::Slot;
use crate::msg::{ClientOp, Msg};
use crate::service::Service;

/// Arrival-release timer (tokens 0–2 belong to the replica and the
/// closed-loop client).
const ARRIVAL_TOKEN: TimerToken = TimerToken(3);
/// Retransmission check timer.
const RETRY_TOKEN: TimerToken = TimerToken(4);

/// Sim-time milliseconds as trace microseconds.
fn sim_micros(t: SimTime) -> u64 {
    t.as_millis().saturating_mul(1_000)
}

/// One scheduled operation and its outcome.
#[derive(Clone, Debug)]
pub struct OpenOp<SM: Service> {
    /// The command.
    pub cmd: SM::Command,
    /// Scheduled arrival time (latency is measured from here).
    pub scheduled: SimTime,
    /// Completion time and response, once acknowledged.
    pub completed: Option<(SimTime, SM::Response)>,
    /// Whether this was routed as a follower-local read.
    pub read: bool,
}

/// An open-loop session actor driving one replicated service.
#[derive(Clone, Debug)]
pub struct OpenLoopClient<SM: Service> {
    me: NodeId,
    servers: Vec<NodeId>,
    timeout: SimTime,
    local_reads: bool,
    /// Open a causal `client.request` root span for every Nth launched
    /// operation (0 disables tracing entirely). Sampling keeps the
    /// bounded trace ring representative at 100k-request scale.
    trace_every: u64,
    records: Vec<OpenOp<SM>>,
    /// Scheduled times still waiting for their arrival timer, oldest
    /// first (parallel prefix of `records`).
    pending_arrivals: VecDeque<SimTime>,
    /// Records released by the arrival process (prefix of `records`).
    arrived: usize,
    /// Records sent at least once (prefix of `arrived`).
    launched: usize,
    /// In-flight record index, if any.
    current: Option<usize>,
    last_sent: SimTime,
    target: usize,
    /// Current attempt is a follower-local read (cleared on timeout).
    read_in_flight: bool,
    span: Option<SpanHandle>,
    leader_hint: Option<NodeId>,
    floor: Slot,
    retransmits: u64,
    local_served: u64,
    obs: Obs,
}

impl<SM: Service> OpenLoopClient<SM> {
    /// A session that plays `schedule` (must be sorted by time) against
    /// `servers`. `req_id`s are assigned in schedule order starting at 1.
    pub fn new(me: NodeId, servers: Vec<NodeId>, schedule: Vec<(SimTime, SM::Command)>) -> Self {
        assert!(!servers.is_empty(), "session needs at least one server");
        debug_assert!(
            schedule.windows(2).all(|w| w[0].0 <= w[1].0),
            "schedule must be sorted by arrival time"
        );
        let pending_arrivals = schedule.iter().map(|(t, _)| *t).collect();
        let records = schedule
            .into_iter()
            .map(|(scheduled, cmd)| OpenOp {
                read: false, // resolved at launch, once local_reads is known
                cmd,
                scheduled,
                completed: None,
            })
            .collect();
        OpenLoopClient {
            me,
            servers,
            timeout: SM::PROFILE.session_timeout,
            local_reads: false,
            trace_every: 1,
            records,
            pending_arrivals,
            arrived: 0,
            launched: 0,
            current: None,
            last_sent: SimTime::ZERO,
            target: 0,
            read_in_flight: false,
            span: None,
            leader_hint: None,
            floor: 0,
            retransmits: 0,
            local_served: 0,
            obs: Obs::disabled(),
        }
    }

    /// Attach an observability handle (builder-style).
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Route read-only commands to followers as local reads.
    pub fn with_local_reads(mut self, enabled: bool) -> Self {
        self.local_reads = enabled;
        self
    }

    /// Retransmission timeout.
    pub fn with_timeout(mut self, timeout: SimTime) -> Self {
        self.timeout = timeout;
        self
    }

    /// Trace every Nth operation (0 traces none).
    pub fn with_trace_every(mut self, every: u64) -> Self {
        self.trace_every = every;
        self
    }

    /// Every scheduled operation and its outcome.
    pub fn records(&self) -> &[OpenOp<SM>] {
        &self.records
    }

    /// Operations acknowledged so far.
    pub fn completions(&self) -> usize {
        self.records.iter().filter(|r| r.completed.is_some()).count()
    }

    /// Operations not yet acknowledged (scheduled or in flight).
    pub fn outstanding(&self) -> usize {
        self.records.len() - self.completions()
    }

    /// Retransmissions performed.
    pub fn retransmits(&self) -> u64 {
        self.retransmits
    }

    /// Completions served locally by a follower.
    pub fn local_served(&self) -> u64 {
        self.local_served
    }

    /// The session floor (highest acknowledged applied index).
    pub fn floor(&self) -> Slot {
        self.floor
    }

    fn arm_next_arrival(&mut self, ctx: &mut Context<Msg<SM>>) {
        if let Some(&next) = self.pending_arrivals.front() {
            ctx.set_timer(next.saturating_sub(ctx.now), ARRIVAL_TOKEN);
        }
    }

    fn send_current(&mut self, ctx: &mut Context<Msg<SM>>) {
        let Some(idx) = self.current else { return };
        self.last_sent = ctx.now;
        let trace = match &self.span {
            Some(span) => span.context(),
            None => ctx.trace(),
        };
        let rec = &self.records[idx];
        let req_id = idx as u64 + 1;
        if self.read_in_flight {
            let target = self.servers[self.target % self.servers.len()];
            ctx.send_traced(
                target,
                Msg::ReadRequest {
                    client: self.me,
                    req_id,
                    cmd: rec.cmd.clone(),
                    floor: self.floor,
                },
                trace,
            );
        } else {
            let target = match self.leader_hint {
                Some(l) if self.servers.contains(&l) => l,
                _ => self.servers[self.target % self.servers.len()],
            };
            ctx.send_traced(
                target,
                Msg::Request {
                    client: self.me,
                    req_id,
                    op: ClientOp::App(rec.cmd.clone()),
                },
                trace,
            );
        }
        ctx.set_timer(self.timeout, RETRY_TOKEN);
    }

    /// Put the next released record on the wire if the slot is free.
    fn try_launch(&mut self, ctx: &mut Context<Msg<SM>>) {
        if self.current.is_some() || self.launched >= self.arrived {
            return;
        }
        let idx = self.launched;
        self.launched += 1;
        let read = self.local_reads && SM::is_read_only(&self.records[idx].cmd);
        self.records[idx].read = read;
        self.read_in_flight = read;
        self.current = Some(idx);
        // Spread sessions' first picks deterministically by identity.
        self.target = self.me.0 + idx;
        self.span = if self.trace_every > 0 && (idx as u64).is_multiple_of(self.trace_every) {
            self.obs.set_time_micros(sim_micros(ctx.now));
            Some(self.obs.trace.span_open_causal(
                "client.request",
                ctx.new_trace(),
                &[
                    ("client", FieldValue::U64(self.me.0 as u64)),
                    ("req_id", FieldValue::U64(idx as u64 + 1)),
                ],
            ))
        } else {
            None
        };
        self.send_current(ctx);
    }

    /// Boot: arm the first arrival.
    pub fn on_start(&mut self, ctx: &mut Context<Msg<SM>>) {
        self.arm_next_arrival(ctx);
    }

    /// Timers: arrival releases and retransmission checks.
    pub fn on_timer(&mut self, token: TimerToken, ctx: &mut Context<Msg<SM>>) {
        match token {
            ARRIVAL_TOKEN => {
                while self
                    .pending_arrivals
                    .front()
                    .is_some_and(|&t| t <= ctx.now)
                {
                    self.pending_arrivals.pop_front();
                    self.arrived += 1;
                }
                self.arm_next_arrival(ctx);
                self.try_launch(ctx);
            }
            RETRY_TOKEN => {
                if self.current.is_none() {
                    return; // stale timer from a completed op
                }
                if ctx.now.saturating_sub(self.last_sent) >= self.timeout {
                    self.retransmits += 1;
                    self.target += 1;
                    self.leader_hint = None;
                    // A timed-out read falls back to the leader path.
                    self.read_in_flight = false;
                    if let Some(span) = &self.span {
                        self.obs.set_time_micros(sim_micros(ctx.now));
                        self.obs.trace.event_causal(
                            "client.retransmit",
                            span.context(),
                            &[("req_id", FieldValue::U64(
                                self.current.map(|i| i as u64 + 1).unwrap_or(0),
                            ))],
                        );
                    }
                    self.send_current(ctx);
                }
            }
            _ => {}
        }
    }

    /// Message dispatch (responses only).
    pub fn on_message(&mut self, from: NodeId, msg: Msg<SM>, ctx: &mut Context<Msg<SM>>) {
        let (req_id, resp, at, from_leader) = match msg {
            Msg::Response { req_id, resp, at } => (req_id, resp, at, true),
            Msg::ReadResponse { req_id, resp, at } => (req_id, Some(resp), at, false),
            _ => return,
        };
        let Some(idx) = self.current else { return };
        if idx as u64 + 1 != req_id {
            return; // stale response for an already completed op
        }
        let Some(resp) = resp else {
            return; // reconfig-shaped response; sessions never send those
        };
        self.current = None;
        if from_leader {
            self.leader_hint = Some(from);
        } else {
            self.local_served += 1;
        }
        self.floor = self.floor.max(at);
        self.records[idx].completed = Some((ctx.now, resp));
        if let Some(span) = self.span.take() {
            self.obs.set_time_micros(sim_micros(ctx.now));
            self.obs.trace.span_close(
                span,
                "client.request",
                &[
                    ("req_id", FieldValue::U64(req_id)),
                    ("leader", FieldValue::U64(from.0 as u64)),
                ],
            );
        }
        self.try_launch(ctx);
    }
}
