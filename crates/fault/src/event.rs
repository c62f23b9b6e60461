//! Fault events and the accumulated fault state they produce.

use wmpt_obs::json::{self, Value};

/// A single injected fault.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultEvent {
    /// Permanent bidirectional failure of the physical link `a ↔ b`
    /// (node indices of the memory-centric network).
    LinkDown {
        /// One end of the link.
        a: usize,
        /// The other end.
        b: usize,
    },
    /// Permanent death of a worker node.
    WorkerDown {
        /// The worker's node index.
        node: usize,
    },
    /// Transient single-bit flip in the DRAM-resident Winograd-domain
    /// weights of one conv stage. `index` is taken modulo the stage's
    /// weight count, `bit` modulo 32.
    BitFlip {
        /// Conv stage (modulo depth).
        stage: usize,
        /// Flat weight index (modulo the stage's weight count).
        index: usize,
        /// Bit position (modulo 32).
        bit: u8,
    },
    /// Worker `node` slows down by `factor` (≥ 1.0) from this cycle on —
    /// thermal throttling, a failing DIMM retrying, etc.
    Straggler {
        /// The straggling worker's node index.
        node: usize,
        /// Slowdown multiplier applied to its compute and forwarding.
        factor: f64,
    },
    /// The host links of group `group` drop and come back `down_for`
    /// cycles later (a flapping SerDes), stalling host-stitched rings.
    HostLinkFlap {
        /// The affected physical group.
        group: usize,
        /// Outage length in cycles.
        down_for: u64,
    },
}

impl FaultEvent {
    /// Stable lower-kebab name of the event kind.
    pub fn kind(&self) -> &'static str {
        match self {
            FaultEvent::LinkDown { .. } => "link-down",
            FaultEvent::WorkerDown { .. } => "worker-down",
            FaultEvent::BitFlip { .. } => "bit-flip",
            FaultEvent::Straggler { .. } => "straggler",
            FaultEvent::HostLinkFlap { .. } => "host-link-flap",
        }
    }

    /// Serializes to a JSON object (`{"kind": ..., ...fields}`).
    pub fn to_json(&self) -> Value {
        match self {
            FaultEvent::LinkDown { a, b } => json::obj(vec![
                ("kind", json::s(self.kind())),
                ("a", json::num(*a as f64)),
                ("b", json::num(*b as f64)),
            ]),
            FaultEvent::WorkerDown { node } => json::obj(vec![
                ("kind", json::s(self.kind())),
                ("node", json::num(*node as f64)),
            ]),
            FaultEvent::BitFlip { stage, index, bit } => json::obj(vec![
                ("kind", json::s(self.kind())),
                ("stage", json::num(*stage as f64)),
                ("index", json::num(*index as f64)),
                ("bit", json::num(*bit as f64)),
            ]),
            FaultEvent::Straggler { node, factor } => json::obj(vec![
                ("kind", json::s(self.kind())),
                ("node", json::num(*node as f64)),
                ("factor", json::num(*factor)),
            ]),
            FaultEvent::HostLinkFlap { group, down_for } => json::obj(vec![
                ("kind", json::s(self.kind())),
                ("group", json::num(*group as f64)),
                ("down_for", json::num(*down_for as f64)),
            ]),
        }
    }

    /// Parses [`FaultEvent::to_json`] output back.
    pub fn from_json(v: &Value) -> Result<FaultEvent, String> {
        let kind = v
            .get("kind")
            .and_then(Value::as_str)
            .ok_or("event missing 'kind'")?;
        let field = |name: &str| -> Result<u64, String> {
            v.get(name)
                .and_then(Value::as_u64)
                .ok_or(format!("event missing '{name}'"))
        };
        match kind {
            "link-down" => Ok(FaultEvent::LinkDown {
                a: field("a")? as usize,
                b: field("b")? as usize,
            }),
            "worker-down" => Ok(FaultEvent::WorkerDown {
                node: field("node")? as usize,
            }),
            "bit-flip" => Ok(FaultEvent::BitFlip {
                stage: field("stage")? as usize,
                index: field("index")? as usize,
                bit: field("bit")? as u8,
            }),
            "straggler" => Ok(FaultEvent::Straggler {
                node: field("node")? as usize,
                factor: v
                    .get("factor")
                    .and_then(Value::as_f64)
                    .ok_or("event missing 'factor'")?,
            }),
            "host-link-flap" => Ok(FaultEvent::HostLinkFlap {
                group: field("group")? as usize,
                down_for: field("down_for")?,
            }),
            other => Err(format!("unknown fault kind '{other}'")),
        }
    }
}

impl std::fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultEvent::LinkDown { a, b } => write!(f, "link-down {a}<->{b}"),
            FaultEvent::WorkerDown { node } => write!(f, "worker-down {node}"),
            FaultEvent::BitFlip { stage, index, bit } => {
                write!(f, "bit-flip stage {stage} word {index} bit {bit}")
            }
            FaultEvent::Straggler { node, factor } => {
                write!(f, "straggler {node} x{factor:.2}")
            }
            FaultEvent::HostLinkFlap { group, down_for } => {
                write!(f, "host-link-flap group {group} for {down_for} cycles")
            }
        }
    }
}

/// Permanent fault state accumulated up to some cycle.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultState {
    /// Undirected links failed so far.
    pub dead_links: Vec<(usize, usize)>,
    /// Workers lost so far.
    pub dead_workers: Vec<usize>,
    /// Per-node slowdown factors in effect.
    pub stragglers: Vec<(usize, f64)>,
}

impl FaultState {
    /// `true` when nothing permanent has happened.
    pub fn is_clean(&self) -> bool {
        self.dead_links.is_empty() && self.dead_workers.is_empty() && self.stragglers.is_empty()
    }

    /// The worst slowdown factor in effect (1.0 when none): a pipelined
    /// grid advances at the pace of its slowest member.
    pub fn max_slowdown(&self) -> f64 {
        self.stragglers.iter().map(|(_, f)| *f).fold(1.0, f64::max)
    }

    /// Folds one event's permanent effect into the state. Transient
    /// events (bit flips, host flaps) leave no permanent state.
    pub fn apply(&mut self, ev: &FaultEvent) {
        match ev {
            FaultEvent::LinkDown { a, b } => self.dead_links.push((*a, *b)),
            FaultEvent::WorkerDown { node } => self.dead_workers.push(*node),
            FaultEvent::Straggler { node, factor } => self.stragglers.push((*node, *factor)),
            FaultEvent::BitFlip { .. } | FaultEvent::HostLinkFlap { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_round_trip_through_json() {
        let events = vec![
            FaultEvent::LinkDown { a: 3, b: 4 },
            FaultEvent::WorkerDown { node: 17 },
            FaultEvent::BitFlip {
                stage: 1,
                index: 250,
                bit: 30,
            },
            FaultEvent::Straggler {
                node: 9,
                factor: 2.5,
            },
            FaultEvent::HostLinkFlap {
                group: 2,
                down_for: 4000,
            },
        ];
        for ev in events {
            let text = ev.to_json().render();
            let back =
                FaultEvent::from_json(&wmpt_obs::json::parse(&text).expect("parse")).expect("back");
            assert_eq!(back, ev);
        }
    }

    #[test]
    fn state_accumulates_and_reports_slowdown() {
        let mut st = FaultState::default();
        assert!(st.is_clean());
        assert_eq!(st.max_slowdown(), 1.0);
        st.apply(&FaultEvent::Straggler {
            node: 4,
            factor: 3.0,
        });
        st.apply(&FaultEvent::LinkDown { a: 0, b: 1 });
        st.apply(&FaultEvent::BitFlip {
            stage: 0,
            index: 0,
            bit: 0,
        });
        assert!(!st.is_clean());
        assert_eq!(st.max_slowdown(), 3.0);
        assert_eq!(st.dead_links, vec![(0, 1)]);
        assert!(st.dead_workers.is_empty());
    }
}
