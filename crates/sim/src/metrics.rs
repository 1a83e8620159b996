//! Protocol metrics, centred on the paper's responsiveness definition.
//!
//! **Definition 3**: *"The Responsiveness of a system is the maximum time
//! period during which at least one node requires the token and until the
//! token is given to a ready node."* Note the period ends when **any** ready
//! node is served, not necessarily the first requester — when all nodes
//! request simultaneously, responsiveness is O(1) even though average
//! waiting time is O(N).
//!
//! [`Metrics`] therefore tracks *demand periods*: a period opens when the
//! set of ready nodes becomes non-empty, ends at the next grant, and reopens
//! immediately if some node is still waiting. The figures plot the average
//! of these period lengths; Theorem 2's bound speaks to their maximum.

use std::collections::BTreeMap;

use atp_core::{RequestId, TokenEvent};
use atp_net::{NodeId, SimTime};
use atp_util::json::JsonWriter;

use crate::stats::{jain_index, SampleStats};

/// Aggregated measurements of one protocol run.
#[derive(Debug, Clone)]
pub struct Metrics {
    n: usize,
    outstanding: BTreeMap<RequestId, WaitState>,
    period_start: Option<SimTime>,
    resp_samples: Vec<u64>,
    wait_samples: Vec<u64>,
    /// Grants to *other* nodes observed while each request waited
    /// (Theorem 3's fairness quantity).
    other_grants_samples: Vec<u64>,
    grants_per_node: Vec<u64>,
    requests: u64,
    grants: u64,
    releases: u64,
    deliveries: u64,
    regenerations: u64,
    stale_discards: u64,
}

#[derive(Debug, Clone, Copy)]
struct WaitState {
    since: SimTime,
    /// Grants observed before this request arrived: the grants to others
    /// while it waits are the difference at its own grant.
    grants_before: u64,
}

/// Serializable summary of a [`Metrics`] accumulation.
#[derive(Debug, Clone)]
pub struct MetricsSummary {
    /// Ring size.
    pub n: usize,
    /// Responsiveness (Definition 3) sample statistics.
    pub responsiveness: SampleStats,
    /// Per-request waiting time statistics.
    pub waiting: SampleStats,
    /// Grants to other nodes while waiting (Theorem 3).
    pub other_grants_while_waiting: SampleStats,
    /// Jain fairness index of grants per node.
    pub jain: f64,
    /// Total requests observed.
    pub requests: u64,
    /// Total grants observed.
    pub grants: u64,
    /// Total releases observed.
    pub releases: u64,
    /// Total ordered deliveries observed.
    pub deliveries: u64,
    /// Token regenerations (failure handling).
    pub regenerations: u64,
    /// Stale-generation tokens discarded.
    pub stale_discards: u64,
    /// Requests still unserved at the end of the run.
    pub unserved: usize,
}

impl MetricsSummary {
    /// Writes this summary as a JSON object value into `w`.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_obj();
        w.key("n");
        w.u64(self.n as u64);
        w.key("responsiveness");
        self.responsiveness.write_json(w);
        w.key("waiting");
        self.waiting.write_json(w);
        w.key("other_grants_while_waiting");
        self.other_grants_while_waiting.write_json(w);
        w.key("jain");
        w.f64(self.jain);
        w.key("requests");
        w.u64(self.requests);
        w.key("grants");
        w.u64(self.grants);
        w.key("releases");
        w.u64(self.releases);
        w.key("deliveries");
        w.u64(self.deliveries);
        w.key("regenerations");
        w.u64(self.regenerations);
        w.key("stale_discards");
        w.u64(self.stale_discards);
        w.key("unserved");
        w.u64(self.unserved as u64);
        w.end_obj();
    }
}

impl Metrics {
    /// Creates an empty accumulator for a ring of `n` nodes.
    pub fn new(n: usize) -> Self {
        Metrics {
            n,
            outstanding: BTreeMap::new(),
            period_start: None,
            resp_samples: Vec::new(),
            wait_samples: Vec::new(),
            other_grants_samples: Vec::new(),
            grants_per_node: vec![0; n],
            requests: 0,
            grants: 0,
            releases: 0,
            deliveries: 0,
            regenerations: 0,
            stale_discards: 0,
        }
    }

    /// Feeds one protocol event from `node` into the accumulator.
    pub fn on_event(&mut self, _node: NodeId, ev: &TokenEvent) {
        match ev {
            TokenEvent::Requested { req, at } => {
                self.requests += 1;
                self.outstanding.insert(
                    *req,
                    WaitState {
                        since: *at,
                        grants_before: self.grants,
                    },
                );
                if self.period_start.is_none() {
                    self.period_start = Some(*at);
                }
            }
            TokenEvent::Granted { req, at } => {
                if let Some(w) = self.outstanding.remove(req) {
                    self.wait_samples.push(at.since(w.since));
                    self.other_grants_samples
                        .push(self.grants - w.grants_before);
                }
                self.grants += 1;
                self.grants_per_node[req.origin.index()] += 1;
                if let Some(start) = self.period_start.take() {
                    self.resp_samples.push(at.since(start));
                }
                if !self.outstanding.is_empty() {
                    self.period_start = Some(*at);
                }
            }
            TokenEvent::Released { .. } => self.releases += 1,
            TokenEvent::Delivered { .. } => self.deliveries += 1,
            TokenEvent::Regenerated { .. } => self.regenerations += 1,
            TokenEvent::StaleTokenDiscarded { .. } => self.stale_discards += 1,
            // Span instrumentation: aggregated per request by
            // `crate::span::SpanCollector`, not double-counted here.
            TokenEvent::SearchForwarded { .. } | TokenEvent::TokenDispatched { .. } => {}
        }
    }

    /// Number of requests not yet granted.
    pub fn unserved(&self) -> usize {
        self.outstanding.len()
    }

    /// Total grants so far.
    pub fn grants(&self) -> u64 {
        self.grants
    }

    /// Total requests so far.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Grants per node (fairness raw data).
    pub fn grants_per_node(&self) -> &[u64] {
        &self.grants_per_node
    }

    /// Finalizes into a serializable summary.
    pub fn summarize(&self) -> MetricsSummary {
        let mut resp = self.resp_samples.clone();
        let mut wait = self.wait_samples.clone();
        let mut other = self.other_grants_samples.clone();
        MetricsSummary {
            n: self.n,
            responsiveness: SampleStats::from_samples(&mut resp),
            waiting: SampleStats::from_samples(&mut wait),
            other_grants_while_waiting: SampleStats::from_samples(&mut other),
            jain: jain_index(&self.grants_per_node),
            requests: self.requests,
            grants: self.grants,
            releases: self.releases,
            deliveries: self.deliveries,
            regenerations: self.regenerations,
            stale_discards: self.stale_discards,
            unserved: self.outstanding.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(node: u32, seq: u64) -> RequestId {
        RequestId::new(NodeId::new(node), seq)
    }

    fn t(ticks: u64) -> SimTime {
        SimTime::from_ticks(ticks)
    }

    #[test]
    fn single_request_responsiveness_equals_wait() {
        let mut m = Metrics::new(4);
        m.on_event(
            NodeId::new(1),
            &TokenEvent::Requested {
                req: req(1, 1),
                at: t(10),
            },
        );
        m.on_event(
            NodeId::new(1),
            &TokenEvent::Granted {
                req: req(1, 1),
                at: t(17),
            },
        );
        let s = m.summarize();
        assert_eq!(s.responsiveness.max, 7);
        assert_eq!(s.waiting.max, 7);
        assert_eq!(s.unserved, 0);
    }

    #[test]
    fn period_restarts_after_each_grant() {
        // Definition 3: two simultaneous requests; grants at +2 and +5.
        // Periods: [0,2] and [2,5] — responsiveness max = 3, not 5.
        let mut m = Metrics::new(4);
        m.on_event(
            NodeId::new(0),
            &TokenEvent::Requested {
                req: req(0, 1),
                at: t(0),
            },
        );
        m.on_event(
            NodeId::new(1),
            &TokenEvent::Requested {
                req: req(1, 1),
                at: t(0),
            },
        );
        m.on_event(
            NodeId::new(0),
            &TokenEvent::Granted {
                req: req(0, 1),
                at: t(2),
            },
        );
        m.on_event(
            NodeId::new(1),
            &TokenEvent::Granted {
                req: req(1, 1),
                at: t(5),
            },
        );
        let s = m.summarize();
        assert_eq!(s.responsiveness.max, 3);
        assert_eq!(s.waiting.max, 5);
    }

    #[test]
    fn idle_gaps_do_not_count() {
        let mut m = Metrics::new(4);
        m.on_event(
            NodeId::new(0),
            &TokenEvent::Requested {
                req: req(0, 1),
                at: t(0),
            },
        );
        m.on_event(
            NodeId::new(0),
            &TokenEvent::Granted {
                req: req(0, 1),
                at: t(1),
            },
        );
        // Long idle gap, then another request.
        m.on_event(
            NodeId::new(2),
            &TokenEvent::Requested {
                req: req(2, 1),
                at: t(100),
            },
        );
        m.on_event(
            NodeId::new(2),
            &TokenEvent::Granted {
                req: req(2, 1),
                at: t(103),
            },
        );
        let s = m.summarize();
        assert_eq!(s.responsiveness.max, 3);
        assert_eq!(s.responsiveness.count, 2);
    }

    #[test]
    fn other_grants_counted_for_fairness() {
        let mut m = Metrics::new(4);
        m.on_event(
            NodeId::new(0),
            &TokenEvent::Requested {
                req: req(0, 1),
                at: t(0),
            },
        );
        m.on_event(
            NodeId::new(1),
            &TokenEvent::Requested {
                req: req(1, 1),
                at: t(0),
            },
        );
        // Node 0 gets three grants while node 1 waits.
        m.on_event(
            NodeId::new(0),
            &TokenEvent::Granted {
                req: req(0, 1),
                at: t(1),
            },
        );
        m.on_event(
            NodeId::new(0),
            &TokenEvent::Requested {
                req: req(0, 2),
                at: t(2),
            },
        );
        m.on_event(
            NodeId::new(0),
            &TokenEvent::Granted {
                req: req(0, 2),
                at: t(3),
            },
        );
        m.on_event(
            NodeId::new(1),
            &TokenEvent::Granted {
                req: req(1, 1),
                at: t(4),
            },
        );
        let s = m.summarize();
        assert_eq!(s.other_grants_while_waiting.max, 2);
        assert_eq!(s.grants, 3);
    }

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::new(2);
        m.on_event(
            NodeId::new(0),
            &TokenEvent::Regenerated {
                by: NodeId::new(0),
                generation: 1,
                at: t(5),
            },
        );
        m.on_event(
            NodeId::new(0),
            &TokenEvent::StaleTokenDiscarded {
                generation: 0,
                at: t(6),
            },
        );
        m.on_event(
            NodeId::new(0),
            &TokenEvent::Released {
                req: req(0, 1),
                seq: 1,
                payload: 0,
                at: t(7),
            },
        );
        let s = m.summarize();
        assert_eq!(s.regenerations, 1);
        assert_eq!(s.stale_discards, 1);
        assert_eq!(s.releases, 1);
    }

    #[test]
    fn unserved_requests_are_visible() {
        let mut m = Metrics::new(2);
        m.on_event(
            NodeId::new(0),
            &TokenEvent::Requested {
                req: req(0, 1),
                at: t(0),
            },
        );
        assert_eq!(m.unserved(), 1);
        assert_eq!(m.summarize().unserved, 1);
    }
}
