//! Per-rank and per-run communication/computation accounting.

/// Counters accumulated by one rank during an SPMD run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RankStats {
    /// Messages sent by this rank (point-to-point, including those issued
    /// on behalf of collectives).
    pub msgs_sent: u64,
    /// Payload bytes sent by this rank.
    pub bytes_sent: u64,
    /// Virtual seconds spent in compute charges.
    pub compute_time: f64,
    /// Virtual seconds spent **blocked on peers**: clock jumps at
    /// receives whose message arrives "in the future", plus modeled
    /// retransmission timeouts under an active fault plan. This is the
    /// component a critical-path analysis can hope to remove by
    /// rebalancing work; [`RankStats::overhead_time`] is the part it
    /// cannot.
    pub wait_time: f64,
    /// Virtual seconds of send/receive **CPU overhead** (the machine
    /// model's per-message `send_overhead`/`recv_overhead` charges) —
    /// substrate cost paid even when no rank ever waits.
    pub overhead_time: f64,
    /// Faults injected into this rank's operations by an active
    /// [`crate::FaultPlan`]: delayed messages, dropped attempts, and
    /// duplicated copies (0 in fault-free runs and under an inert plan).
    pub fault_events: u64,
}

impl RankStats {
    /// Total communication time: blocked-on-peer waits plus send/receive
    /// CPU overhead (the two components are tracked separately — see
    /// [`RankStats::wait_time`] / [`RankStats::overhead_time`]).
    pub fn comm_time(&self) -> f64 {
        self.wait_time + self.overhead_time
    }
}

/// Aggregated statistics for a whole run.
#[derive(Clone, Debug, Default)]
pub struct RunStats {
    /// One entry per rank.
    pub per_rank: Vec<RankStats>,
}

impl RunStats {
    /// Total messages sent across all ranks.
    pub fn total_msgs(&self) -> u64 {
        self.per_rank.iter().map(|r| r.msgs_sent).sum()
    }

    /// Total payload bytes sent across all ranks.
    pub fn total_bytes(&self) -> u64 {
        self.per_rank.iter().map(|r| r.bytes_sent).sum()
    }

    /// Largest per-rank compute time (the critical path lower bound).
    pub fn max_compute_time(&self) -> f64 {
        self.per_rank
            .iter()
            .map(|r| r.compute_time)
            .fold(0.0, f64::max)
    }

    /// Total injected fault events across all ranks (see
    /// [`RankStats::fault_events`]).
    pub fn total_fault_events(&self) -> u64 {
        self.per_rank.iter().map(|r| r.fault_events).sum()
    }

    /// Fraction of the busiest rank's time spent communicating, a rough
    /// efficiency indicator: `comm / (comm + compute)` for the rank with
    /// the largest total.
    pub fn comm_fraction(&self) -> f64 {
        self.per_rank
            .iter()
            .map(|r| {
                let comm = r.comm_time();
                let tot = comm + r.compute_time;
                if tot > 0.0 {
                    comm / tot
                } else {
                    0.0
                }
            })
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_over_ranks() {
        let stats = RunStats {
            per_rank: vec![
                RankStats {
                    msgs_sent: 2,
                    bytes_sent: 100,
                    compute_time: 1.0,
                    wait_time: 0.75,
                    overhead_time: 0.25,
                    fault_events: 0,
                },
                RankStats {
                    msgs_sent: 3,
                    bytes_sent: 50,
                    compute_time: 2.0,
                    wait_time: 0.5,
                    overhead_time: 0.0,
                    fault_events: 1,
                },
            ],
        };
        assert_eq!(stats.total_msgs(), 5);
        assert_eq!(stats.total_bytes(), 150);
        assert_eq!(stats.max_compute_time(), 2.0);
        assert_eq!(stats.total_fault_events(), 1);
        assert!((stats.per_rank[0].comm_time() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn comm_fraction_bounded_by_one() {
        let stats = RunStats {
            per_rank: vec![RankStats {
                msgs_sent: 1,
                bytes_sent: 1,
                compute_time: 0.0,
                wait_time: 2.0,
                overhead_time: 1.0,
                fault_events: 0,
            }],
        };
        assert!((stats.comm_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_run_has_zero_fraction() {
        let stats = RunStats { per_rank: vec![] };
        assert_eq!(stats.comm_fraction(), 0.0);
        assert_eq!(stats.total_msgs(), 0);
    }
}
