//! Typed, bounded event tracing.
//!
//! A trace is a ring of [`Record`]s, each holding a structured
//! [`TraceEvent`] rather than a pre-rendered string: a disabled tracer (or a
//! filtered level) costs one branch — no formatting, no allocation — which
//! the `trace_zero_cost` integration test verifies with a counting
//! allocator. Events render to text only on demand (`Display`), e.g. when
//! the CLI echoes them or a test inspects them.
//!
//! Use the [`crate::trace_event!`] macro at emission sites: it checks
//! [`Tracer::wants`] *before* evaluating the event expression, so arguments
//! that are expensive to compute (or that allocate, like [`TraceEvent::Note`]
//! messages) are never touched on the disabled path.

use crate::time::Time;
use std::collections::VecDeque;
use std::fmt;

/// Severity/kind of a trace record.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Verbose per-event detail.
    Debug,
    /// Normal protocol milestones.
    Info,
    /// Anomalies worth surfacing.
    Warn,
}

/// A structured trace event.
///
/// The variants cover the protocol milestones the simulator emits today;
/// [`TraceEvent::Note`] is the escape hatch for one-off annotations. Each
/// variant maps to a stable category string (see [`TraceEvent::category`])
/// used for filtering in tests and tooling.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// The MAC committed a packet to a future transmit window.
    MacPlanned {
        /// Transmitting station.
        station: usize,
        /// Packet id.
        packet: u64,
        /// Chosen next hop.
        next_hop: usize,
        /// Scheduled transmission start.
        start: Time,
    },
    /// A transmission attempt completed at the PHY.
    HopOutcome {
        /// Transmitting station.
        src: usize,
        /// Intended receiver.
        dst: usize,
        /// Packet id.
        packet: u64,
        /// Whether the receiver captured the packet.
        success: bool,
    },
    /// A station went permanently silent (injected failure).
    StationFailed {
        /// The failed station.
        station: usize,
    },
    /// A scripted fault struck a station (crash / clock jump / jammer
    /// window opening).
    FaultInjected {
        /// The afflicted station (jam: the jammer's anchor).
        station: usize,
        /// Fault tag (`"crash"`, `"clock_jump"`, `"jam"`).
        kind: &'static str,
    },
    /// Local failure detection: an observer saw enough consecutive hop
    /// failures to suspect a neighbor.
    NeighborSuspected {
        /// The suspecting station.
        observer: usize,
        /// The neighbor under suspicion.
        suspect: usize,
    },
    /// Local failure detection: a suspected neighbor kept failing past
    /// the eviction timeout and was removed from the routing view.
    NeighborEvicted {
        /// The evicting station.
        observer: usize,
        /// The evicted neighbor.
        evicted: usize,
    },
    /// A crashed station rebooted and rejoined with a fresh clock and
    /// schedule.
    StationRecovered {
        /// The rebooted station.
        station: usize,
    },
    /// Distributed routing: a station put a distance-vector advertisement
    /// on the air.
    RouteUpdateSent {
        /// The advertising station.
        station: usize,
        /// The neighbor addressed.
        neighbor: usize,
        /// Packet id of the update.
        packet: u64,
    },
    /// Distributed routing: a convergence episode quiesced — no table
    /// changed anywhere for the configured quiet period.
    RouteConverged {
        /// 1-based episode number within the run.
        episode: u64,
        /// Time of the last table change in the episode.
        quiesced_at: Time,
    },
    /// A geographic partition transient ended: the shadowing cut lifted
    /// and gains across it are restored.
    PartitionHealed {
        /// Index of the partition fault in the run's fault plan.
        index: usize,
    },
    /// Byzantine misbehavior detected and neutralized: the observer
    /// rejected provably poisoned distance-vector entries from a sender.
    ViolationDetected {
        /// The detecting station.
        observer: usize,
        /// The misbehaving sender.
        source: usize,
    },
    /// A budget-limited reactive jammer fired one burst against an
    /// ongoing reception.
    ReactiveJamBurst {
        /// The jammer's anchor station.
        station: usize,
        /// The receiver whose reception is being jammed.
        target: usize,
    },
    /// A motion epoch relocated a station (dynamic topology).
    StationMoved {
        /// The moved station.
        station: usize,
    },
    /// A departed station was re-admitted by the churn plan (at a new
    /// position, or back at its old one after a timed outage).
    StationJoined {
        /// The joining station.
        station: usize,
    },
    /// A station cleanly left the network per the churn plan.
    StationLeft {
        /// The departing station.
        station: usize,
    },
    /// Free-form annotation under a caller-chosen category.
    Note {
        /// Category tag (e.g. `"route"`).
        category: &'static str,
        /// Rendered message.
        message: String,
    },
}

impl TraceEvent {
    /// Stable category tag for filtering (`"mac"`, `"phy"`, `"fail"`,
    /// `"fault"`, `"heal"`, `"route"`, `"topo"`, or the note's own
    /// category).
    pub fn category(&self) -> &'static str {
        match self {
            TraceEvent::MacPlanned { .. } => "mac",
            TraceEvent::HopOutcome { .. } => "phy",
            TraceEvent::StationFailed { .. } => "fail",
            TraceEvent::FaultInjected { .. } => "fault",
            TraceEvent::NeighborSuspected { .. }
            | TraceEvent::NeighborEvicted { .. }
            | TraceEvent::StationRecovered { .. } => "heal",
            TraceEvent::RouteUpdateSent { .. } | TraceEvent::RouteConverged { .. } => "route",
            TraceEvent::PartitionHealed { .. }
            | TraceEvent::ViolationDetected { .. }
            | TraceEvent::ReactiveJamBurst { .. } => "fault",
            TraceEvent::StationMoved { .. }
            | TraceEvent::StationJoined { .. }
            | TraceEvent::StationLeft { .. } => "topo",
            TraceEvent::Note { category, .. } => category,
        }
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::MacPlanned {
                station,
                packet,
                next_hop,
                start,
            } => write!(
                f,
                "station {station} planned pkt {packet} -> {next_hop} at {start}"
            ),
            TraceEvent::HopOutcome {
                src,
                dst,
                packet,
                success,
            } => write!(
                f,
                "pkt {packet} {src} -> {dst}: {}",
                if *success { "received" } else { "failed" }
            ),
            TraceEvent::StationFailed { station } => write!(f, "station {station} failed"),
            TraceEvent::FaultInjected { station, kind } => {
                write!(f, "fault {kind} injected at station {station}")
            }
            TraceEvent::NeighborSuspected { observer, suspect } => {
                write!(f, "station {observer} suspects neighbor {suspect}")
            }
            TraceEvent::NeighborEvicted { observer, evicted } => {
                write!(f, "station {observer} evicted neighbor {evicted}")
            }
            TraceEvent::StationRecovered { station } => {
                write!(f, "station {station} recovered")
            }
            TraceEvent::RouteUpdateSent {
                station,
                neighbor,
                packet,
            } => write!(
                f,
                "station {station} advertised routes to {neighbor} (pkt {packet})"
            ),
            TraceEvent::RouteConverged {
                episode,
                quiesced_at,
            } => write!(f, "routing converged (episode {episode}) at {quiesced_at}"),
            TraceEvent::PartitionHealed { index } => {
                write!(f, "partition (fault {index}) healed")
            }
            TraceEvent::ViolationDetected { observer, source } => {
                write!(
                    f,
                    "station {observer} rejected poisoned routes from {source}"
                )
            }
            TraceEvent::ReactiveJamBurst { station, target } => {
                write!(f, "reactive jammer at {station} burst against rx {target}")
            }
            TraceEvent::StationMoved { station } => write!(f, "station {station} moved"),
            TraceEvent::StationJoined { station } => write!(f, "station {station} joined"),
            TraceEvent::StationLeft { station } => write!(f, "station {station} left"),
            TraceEvent::Note { message, .. } => f.write_str(message),
        }
    }
}

/// One trace record: a timestamped, levelled [`TraceEvent`].
#[derive(Clone, Debug)]
pub struct Record {
    /// Simulated time of the event.
    pub time: Time,
    /// Record severity.
    pub level: Level,
    /// The structured event.
    pub event: TraceEvent,
}

impl fmt::Display for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{} {:?} {}] {}",
            self.time,
            self.level,
            self.event.category(),
            self.event
        )
    }
}

/// A bounded ring-buffer trace sink.
pub struct Tracer {
    enabled: bool,
    min_level: Level,
    capacity: usize,
    records: VecDeque<Record>,
    dropped: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::disabled()
    }
}

impl Tracer {
    /// A tracer that stores nothing.
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            min_level: Level::Warn,
            capacity: 0,
            records: VecDeque::new(),
            dropped: 0,
        }
    }

    /// A tracer keeping the last `capacity` records at or above `min_level`.
    pub fn new(capacity: usize, min_level: Level) -> Tracer {
        Tracer {
            enabled: true,
            min_level,
            capacity,
            records: VecDeque::new(),
            dropped: 0,
        }
    }

    /// Whether records at `level` would be kept — [`crate::trace_event!`]
    /// checks this before building the event, so a disabled tracer pays one
    /// branch and nothing else.
    #[inline]
    pub fn wants(&self, level: Level) -> bool {
        self.enabled && level >= self.min_level
    }

    /// Store a pre-built event.
    ///
    /// Prefer [`crate::trace_event!`], which skips event construction when
    /// the record would be filtered; calling `record` directly still filters
    /// correctly but has already paid for the event.
    pub fn record(&mut self, time: Time, level: Level, event: TraceEvent) {
        if !self.wants(level) {
            return;
        }
        let rec = Record { time, level, event };
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.records.len() == self.capacity {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(rec);
    }

    /// Record a [`TraceEvent::Note`]; the message closure is only invoked
    /// when the record is kept.
    pub fn note<F: FnOnce() -> String>(
        &mut self,
        time: Time,
        level: Level,
        category: &'static str,
        message: F,
    ) {
        if !self.wants(level) {
            return;
        }
        self.record(
            time,
            level,
            TraceEvent::Note {
                category,
                message: message(),
            },
        );
    }

    /// All retained records, oldest first.
    pub fn records(&self) -> &VecDeque<Record> {
        &self.records
    }

    /// Retained records filtered by category.
    pub fn by_category(&self, category: &str) -> Vec<&Record> {
        self.records
            .iter()
            .filter(|r| r.event.category() == category)
            .collect()
    }

    /// Number of records dropped due to capacity (or a zero-capacity sink).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Trace a [`TraceEvent`] if the tracer wants `level`.
///
/// The event expression is evaluated **only** when the record will be kept,
/// so emission sites can build events (including allocating `Note` messages)
/// with zero cost on the disabled path:
///
/// ```
/// use parn_sim::trace::{Level, TraceEvent, Tracer};
/// use parn_sim::{trace_event, Time};
///
/// let mut t = Tracer::new(8, Level::Info);
/// trace_event!(t, Time(5), Level::Info, TraceEvent::HopOutcome {
///     src: 0, dst: 1, packet: 42, success: true,
/// });
/// assert_eq!(t.records().len(), 1);
///
/// let mut off = Tracer::disabled();
/// trace_event!(off, Time(5), Level::Warn, TraceEvent::Note {
///     category: "x",
///     message: "never built".to_string(), // not evaluated
/// });
/// assert!(off.records().is_empty());
/// ```
#[macro_export]
macro_rules! trace_event {
    ($tracer:expr, $time:expr, $level:expr, $event:expr) => {
        if $tracer.wants($level) {
            $tracer.record($time, $level, $event);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn note(i: u64) -> TraceEvent {
        TraceEvent::Note {
            category: "c",
            message: format!("m{i}"),
        }
    }

    #[test]
    fn disabled_stores_nothing() {
        let mut t = Tracer::disabled();
        t.record(
            Time(1),
            Level::Warn,
            TraceEvent::StationFailed { station: 3 },
        );
        assert!(t.records().is_empty());
        assert!(!t.wants(Level::Warn));
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn level_filtering() {
        let mut t = Tracer::new(10, Level::Info);
        t.record(Time(1), Level::Debug, note(0));
        t.record(
            Time(2),
            Level::Info,
            TraceEvent::MacPlanned {
                station: 1,
                packet: 7,
                next_hop: 2,
                start: Time(10),
            },
        );
        t.record(
            Time(3),
            Level::Warn,
            TraceEvent::StationFailed { station: 9 },
        );
        assert_eq!(t.records().len(), 2);
        assert_eq!(t.records()[0].event.category(), "mac");
        assert_eq!(t.by_category("fail").len(), 1);
        assert!(t.by_category("c").is_empty());
    }

    #[test]
    fn ring_never_exceeds_capacity_and_drops_oldest() {
        let mut t = Tracer::new(3, Level::Debug);
        for i in 0..100 {
            t.record(Time(i), Level::Info, note(i));
            assert!(t.records().len() <= 3, "ring exceeded capacity");
        }
        assert_eq!(t.records().len(), 3);
        assert_eq!(t.records()[0].event.to_string(), "m97");
        assert_eq!(t.records()[2].event.to_string(), "m99");
        assert_eq!(t.dropped(), 97);
    }

    #[test]
    fn macro_skips_event_construction_when_filtered() {
        let mut t = Tracer::new(10, Level::Warn);
        let mut built = false;
        trace_event!(t, Time(1), Level::Debug, {
            built = true;
            note(0)
        });
        assert!(!built);
        assert!(t.records().is_empty());
    }

    #[test]
    fn note_closure_is_lazy() {
        let mut t = Tracer::disabled();
        let mut called = false;
        t.note(Time(1), Level::Warn, "c", || {
            called = true;
            String::new()
        });
        assert!(!called);
    }

    #[test]
    fn display_formats() {
        let r = Record {
            time: Time::from_secs(1),
            level: Level::Info,
            event: TraceEvent::Note {
                category: "mac",
                message: "hello".into(),
            },
        };
        assert_eq!(format!("{r}"), "[1.000000s Info mac] hello");
        let e = TraceEvent::HopOutcome {
            src: 2,
            dst: 5,
            packet: 11,
            success: false,
        };
        assert_eq!(e.to_string(), "pkt 11 2 -> 5: failed");
        let e = TraceEvent::MacPlanned {
            station: 1,
            packet: 7,
            next_hop: 2,
            start: Time::from_secs(2),
        };
        assert_eq!(e.to_string(), "station 1 planned pkt 7 -> 2 at 2.000000s");
    }

    #[test]
    fn zero_capacity_counts_drops() {
        let mut t = Tracer::new(0, Level::Debug);
        t.record(Time(1), Level::Info, note(1));
        assert!(t.records().is_empty());
        assert_eq!(t.dropped(), 1);
    }
}
