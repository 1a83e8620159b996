//! Bounded execution tracing for debugging protocol runs.

use std::collections::VecDeque;
use std::fmt;

use atp_util::json::JsonWriter;

use crate::event::MsgClass;
use crate::id::NodeId;
use crate::time::SimTime;

/// What happened at one traced instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceKind {
    /// A message was handed to the network.
    Sent {
        /// Sender.
        from: NodeId,
        /// Receiver.
        to: NodeId,
        /// Traffic class.
        class: MsgClass,
    },
    /// A message was delivered to a live node.
    Delivered {
        /// Sender.
        from: NodeId,
        /// Receiver.
        to: NodeId,
        /// Traffic class.
        class: MsgClass,
    },
    /// A message was lost (drop model or dead receiver).
    Lost {
        /// Sender.
        from: NodeId,
        /// Receiver.
        to: NodeId,
        /// Traffic class.
        class: MsgClass,
    },
    /// A timer fired at `node`.
    Timer {
        /// Owner of the timer.
        node: NodeId,
        /// Discriminator given at `set_timer`.
        kind: u64,
    },
    /// An external stimulus was delivered to `node`.
    External {
        /// Target node.
        node: NodeId,
    },
    /// `node` crashed.
    Crashed {
        /// The crashed node.
        node: NodeId,
    },
    /// `node` recovered.
    Recovered {
        /// The recovered node.
        node: NodeId,
    },
}

/// One entry of the trace log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// When it happened.
    pub at: SimTime,
    /// What happened.
    pub kind: TraceKind,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            TraceKind::Sent { from, to, class } => {
                write!(f, "{} send {} -> {} [{}]", self.at, from, to, class.label())
            }
            TraceKind::Delivered { from, to, class } => {
                write!(f, "{} dlvr {} -> {} [{}]", self.at, from, to, class.label())
            }
            TraceKind::Lost { from, to, class } => {
                write!(f, "{} lost {} -> {} [{}]", self.at, from, to, class.label())
            }
            TraceKind::Timer { node, kind } => {
                write!(f, "{} timer {} kind={}", self.at, node, kind)
            }
            TraceKind::External { node } => write!(f, "{} ext   {}", self.at, node),
            TraceKind::Crashed { node } => write!(f, "{} CRASH {}", self.at, node),
            TraceKind::Recovered { node } => write!(f, "{} RECOV {}", self.at, node),
        }
    }
}

/// A bounded ring buffer of the most recent [`TraceEvent`]s.
///
/// Tracing is off by default (capacity 0) because the figure-scale
/// experiments dispatch hundreds of millions of events.
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    capacity: usize,
    events: VecDeque<TraceEvent>,
}

impl TraceLog {
    /// Creates a log that retains the last `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        TraceLog {
            capacity,
            events: VecDeque::with_capacity(capacity.min(4096)),
        }
    }

    /// Whether tracing is enabled at all.
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    pub(crate) fn push(&mut self, at: SimTime, kind: TraceKind) {
        if self.capacity == 0 {
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
        }
        self.events.push_back(TraceEvent { at, kind });
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the log holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Serializes the retained events as JSON lines, oldest first: one
    /// standalone JSON object per line, ending with a trailing newline
    /// when any events exist.
    ///
    /// Every object carries `at` (tick) and `kind`; message events add
    /// `from`/`to`/`class`, timer events `node`/`timer_kind`, and the
    /// node-lifecycle events `node`. Field order is fixed, so identical
    /// runs export identical bytes.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for ev in &self.events {
            let mut w = JsonWriter::new();
            w.begin_obj();
            w.key("at");
            w.u64(ev.at.ticks());
            w.key("kind");
            match &ev.kind {
                TraceKind::Sent { from, to, class } => {
                    w.str("sent");
                    write_link(&mut w, *from, *to, *class);
                }
                TraceKind::Delivered { from, to, class } => {
                    w.str("delivered");
                    write_link(&mut w, *from, *to, *class);
                }
                TraceKind::Lost { from, to, class } => {
                    w.str("lost");
                    write_link(&mut w, *from, *to, *class);
                }
                TraceKind::Timer { node, kind } => {
                    w.str("timer");
                    w.key("node");
                    w.u64(node.index() as u64);
                    w.key("timer_kind");
                    w.u64(*kind);
                }
                TraceKind::External { node } => {
                    w.str("external");
                    w.key("node");
                    w.u64(node.index() as u64);
                }
                TraceKind::Crashed { node } => {
                    w.str("crashed");
                    w.key("node");
                    w.u64(node.index() as u64);
                }
                TraceKind::Recovered { node } => {
                    w.str("recovered");
                    w.key("node");
                    w.u64(node.index() as u64);
                }
            }
            w.end_obj();
            out.push_str(&w.finish());
            out.push('\n');
        }
        out
    }
}

fn write_link(w: &mut JsonWriter, from: NodeId, to: NodeId, class: MsgClass) {
    w.key("from");
    w.u64(from.index() as u64);
    w.key("to");
    w.u64(to.index() as u64);
    w.key("class");
    w.str(class.label());
}

impl fmt::Display for TraceLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for e in &self.events {
            writeln!(f, "{e}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_retention() {
        let mut log = TraceLog::with_capacity(3);
        for i in 0..5 {
            log.push(
                SimTime::from_ticks(i),
                TraceKind::Crashed {
                    node: NodeId::new(0),
                },
            );
        }
        assert_eq!(log.len(), 3);
        let first = log.events().next().unwrap();
        assert_eq!(first.at, SimTime::from_ticks(2));
    }

    #[test]
    fn disabled_log_ignores_pushes() {
        let mut log = TraceLog::default();
        assert!(!log.is_enabled());
        log.push(
            SimTime::ZERO,
            TraceKind::External {
                node: NodeId::new(1),
            },
        );
        assert!(log.is_empty());
    }

    #[test]
    fn json_lines_parse_and_cover_every_kind() {
        let mut log = TraceLog::with_capacity(16);
        log.push(
            SimTime::from_ticks(1),
            TraceKind::Sent {
                from: NodeId::new(0),
                to: NodeId::new(1),
                class: MsgClass::Token,
            },
        );
        log.push(
            SimTime::from_ticks(2),
            TraceKind::Delivered {
                from: NodeId::new(0),
                to: NodeId::new(1),
                class: MsgClass::Control,
            },
        );
        log.push(
            SimTime::from_ticks(3),
            TraceKind::Lost {
                from: NodeId::new(1),
                to: NodeId::new(0),
                class: MsgClass::Control,
            },
        );
        log.push(
            SimTime::from_ticks(4),
            TraceKind::Timer {
                node: NodeId::new(2),
                kind: 9,
            },
        );
        log.push(
            SimTime::from_ticks(5),
            TraceKind::External {
                node: NodeId::new(2),
            },
        );
        log.push(
            SimTime::from_ticks(6),
            TraceKind::Crashed {
                node: NodeId::new(2),
            },
        );
        log.push(
            SimTime::from_ticks(7),
            TraceKind::Recovered {
                node: NodeId::new(2),
            },
        );

        let lines = log.to_json_lines();
        assert!(lines.ends_with('\n'));
        let parsed: Vec<atp_util::json::Value> = lines
            .lines()
            .map(|l| atp_util::json::parse(l).expect("every line is standalone JSON"))
            .collect();
        assert_eq!(parsed.len(), 7);
        assert_eq!(parsed[0].get("kind").and_then(|v| v.as_str()), Some("sent"));
        assert_eq!(parsed[0].get("at").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(
            parsed[0].get("class").and_then(|v| v.as_str()),
            Some("token")
        );
        assert_eq!(
            parsed[3].get("timer_kind").and_then(|v| v.as_u64()),
            Some(9)
        );
        assert_eq!(parsed[6].get("node").and_then(|v| v.as_u64()), Some(2));
        // Empty log exports the empty string.
        assert_eq!(TraceLog::default().to_json_lines(), "");
    }

    #[test]
    fn display_formats_every_kind() {
        let kinds = [
            TraceKind::Sent {
                from: NodeId::new(0),
                to: NodeId::new(1),
                class: MsgClass::Token,
            },
            TraceKind::Delivered {
                from: NodeId::new(0),
                to: NodeId::new(1),
                class: MsgClass::Control,
            },
            TraceKind::Lost {
                from: NodeId::new(0),
                to: NodeId::new(1),
                class: MsgClass::Control,
            },
            TraceKind::Timer {
                node: NodeId::new(2),
                kind: 9,
            },
            TraceKind::External {
                node: NodeId::new(2),
            },
            TraceKind::Crashed {
                node: NodeId::new(2),
            },
            TraceKind::Recovered {
                node: NodeId::new(2),
            },
        ];
        for kind in kinds {
            let ev = TraceEvent {
                at: SimTime::from_ticks(1),
                kind,
            };
            assert!(!ev.to_string().is_empty());
        }
    }
}
