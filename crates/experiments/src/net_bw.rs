//! Network-bandwidth isolation (extension): the paper's §3.3 technique
//! applied to a NIC, as §5 sketches ("the implementation would be
//! similar to that of disk bandwidth, without the complication of head
//! position").
//!
//! Scenario: two SPUs share a 100 Mb/s transmit queue. One runs a bulk
//! transfer that keeps tens of full-size packets queued; the other sends
//! a small request every few milliseconds (an interactive/RPC stream).
//! Under FCFS the small sender's packets wait behind the bulk queue;
//! under the fairness criterion they are interleaved.

use event_sim::{EventQueue, SimDuration, SimTime};
use net_bw::{NetDevice, NicModel, Packet, PacketScheduler, TxDone};
use spu_core::SpuId;

use crate::report::render_table;
use crate::sweep::{self, Render, Scenario, Value};
use crate::Scale;

/// Results of the NIC-sharing experiment for one scheduler.
#[derive(Clone, Copy, Debug)]
pub struct NetRow {
    /// The packet scheduler.
    pub scheduler: PacketScheduler,
    /// Mean queue wait of the interactive stream's packets, ms.
    pub interactive_wait_ms: f64,
    /// Mean queue wait of the bulk stream's packets, ms.
    pub bulk_wait_ms: f64,
    /// When the bulk transfer finished, seconds.
    pub bulk_finish_s: f64,
}

/// The full FCFS-vs-Fair comparison.
#[derive(Clone, Debug)]
pub struct NetTable {
    /// Rows in FCFS, Fair order.
    pub rows: Vec<NetRow>,
}

impl NetTable {
    /// The row for a scheduler.
    pub fn row(&self, scheduler: PacketScheduler) -> &NetRow {
        self.rows
            .iter()
            .find(|r| r.scheduler == scheduler)
            .expect("scheduler present")
    }

    /// Renders the comparison table.
    pub fn format(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.scheduler.label().to_string(),
                    format!("{:.2}", r.interactive_wait_ms),
                    format!("{:.2}", r.bulk_wait_ms),
                    format!("{:.3}", r.bulk_finish_s),
                ]
            })
            .collect();
        let mut out = String::from(
            "Network-bandwidth isolation (extension): bulk vs interactive on one NIC\n",
        );
        out.push_str(&render_table(
            &[
                "sched",
                "interactive wait (ms)",
                "bulk wait (ms)",
                "bulk finish (s)",
            ],
            &rows,
        ));
        out
    }
}

/// Events of the standalone NIC simulation.
enum Ev {
    /// A bulk packet is enqueued (the bulk sender keeps a queue window).
    BulkSend,
    /// An interactive packet is enqueued.
    InteractiveSend,
    /// The NIC finished a transmission.
    Tx,
}

/// Runs the scenario under one scheduler.
pub fn run_one(scheduler: PacketScheduler, scale: Scale) -> NetRow {
    let (bulk_packets, interactive_packets) = match scale {
        Scale::Full => (2000u32, 400u32),
        Scale::Quick => (500, 100),
    };
    let mut nic = NetDevice::new(NicModel::fast_ethernet(), scheduler, 4);
    let mut events: EventQueue<Ev> = EventQueue::new();
    // The bulk sender dumps its packets in bursts of 32 every 10 ms,
    // keeping the queue deep (a TCP window's worth).
    let mut bulk_left = bulk_packets;
    let mut interactive_left = interactive_packets;
    events.schedule(SimTime::ZERO, Ev::BulkSend);
    events.schedule(SimTime::from_millis(1), Ev::InteractiveSend);
    let mut pending_tx: Option<TxDone> = None;
    let mut bulk_finish = SimTime::ZERO;
    while let Some((now, ev)) = events.pop() {
        match ev {
            Ev::BulkSend => {
                for _ in 0..32.min(bulk_left) {
                    if let Some(d) = nic.submit(Packet::new(SpuId::user(0), 64_000), now) {
                        pending_tx = Some(d);
                    }
                }
                bulk_left = bulk_left.saturating_sub(32);
                if bulk_left > 0 {
                    events.schedule(now + SimDuration::from_millis(10), Ev::BulkSend);
                }
            }
            Ev::InteractiveSend => {
                if let Some(d) = nic.submit(Packet::new(SpuId::user(1), 2_000), now) {
                    pending_tx = Some(d);
                }
                interactive_left -= 1;
                if interactive_left > 0 {
                    events.schedule(now + SimDuration::from_millis(5), Ev::InteractiveSend);
                }
            }
            Ev::Tx => {
                let (packet, next) = nic.complete(now);
                if packet.stream == SpuId::user(0) {
                    bulk_finish = now;
                }
                pending_tx = next;
            }
        }
        if let Some(d) = pending_tx.take() {
            events.schedule(d.at, Ev::Tx);
        }
    }
    NetRow {
        scheduler,
        interactive_wait_ms: nic.stats(SpuId::user(1)).mean_wait_ms(),
        bulk_wait_ms: nic.stats(SpuId::user(0)).mean_wait_ms(),
        bulk_finish_s: bulk_finish.as_secs_f64(),
    }
}

impl sweep::Outcome for NetRow {
    fn encode(&self) -> Value {
        Value::list(vec![
            Value::S(self.scheduler.label().to_string()),
            Value::F(self.interactive_wait_ms),
            Value::F(self.bulk_wait_ms),
            Value::F(self.bulk_finish_s),
        ])
    }
}

impl Render for NetTable {
    fn render(&self) -> String {
        self.format()
    }
}

/// The NIC-sharing comparison as a [`Scenario`]: one cell per packet
/// scheduler.
pub struct NetBwScenario {
    /// Workload scale.
    pub scale: Scale,
}

impl Scenario for NetBwScenario {
    type Cell = PacketScheduler;
    type Outcome = NetRow;
    type Report = NetTable;

    fn name(&self) -> &'static str {
        "net-bw"
    }

    fn cells(&self) -> Vec<PacketScheduler> {
        vec![PacketScheduler::Fcfs, PacketScheduler::Fair]
    }

    fn cell_key(&self, scheduler: &PacketScheduler) -> String {
        scheduler.label().to_lowercase()
    }

    fn run_cell(&self, &scheduler: &PacketScheduler) -> NetRow {
        run_one(scheduler, self.scale)
    }

    fn reduce(&self, outcomes: Vec<NetRow>) -> NetTable {
        NetTable { rows: outcomes }
    }
}

/// Runs both schedulers.
pub fn run(scale: Scale) -> NetTable {
    sweep::run_scenario(&NetBwScenario { scale }, 1).report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fairness_rescues_interactive_stream() {
        let t = run(Scale::Quick);
        let fcfs = t.row(PacketScheduler::Fcfs);
        let fair = t.row(PacketScheduler::Fair);
        assert!(
            fair.interactive_wait_ms < fcfs.interactive_wait_ms * 0.3,
            "fair={} fcfs={}",
            fair.interactive_wait_ms,
            fcfs.interactive_wait_ms
        );
        // The bulk transfer pays only a bounded cost (the interactive
        // stream is a tiny share of the bytes).
        assert!(
            fair.bulk_finish_s < fcfs.bulk_finish_s * 1.15,
            "fair={} fcfs={}",
            fair.bulk_finish_s,
            fcfs.bulk_finish_s
        );
    }
}
