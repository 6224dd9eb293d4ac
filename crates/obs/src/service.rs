//! Sweep-service metrics: the daemon-side counters `vpr-serve` exposes
//! through the same Prometheus text surface as the simulator metrics.
//!
//! The struct is a plain snapshot, not a live registry: the daemon keeps
//! atomics, snapshots them into a [`ServeMetrics`], and renders that
//! through [`crate::Registry`] — so the export path is identical to every
//! other artefact the workspace writes, and shard processes can report
//! their own snapshots for a deterministic [`ServeMetrics::merge`] at the
//! parent.

use crate::Registry;

/// One snapshot of the sweep service's health counters.
///
/// All fields are additive event counts except `queue_depth`, which is a
/// point-in-time gauge; [`ServeMetrics::merge`] sums everything (merging
/// shard snapshots taken at the same instant yields the fleet totals and
/// the fleet-wide queue depth).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeMetrics {
    /// Jobs accepted (journalled and acknowledged) over the process life.
    pub jobs_accepted: u64,
    /// Jobs that reached a terminal success.
    pub jobs_completed: u64,
    /// Jobs that exhausted their retry budget and degraded to a
    /// structured failure.
    pub jobs_failed: u64,
    /// Jobs currently queued or leased (gauge).
    pub queue_depth: u64,
    /// Leases reclaimed because their deadline passed (or an injected
    /// lease fault fired).
    pub lease_expiries: u64,
    /// Retry attempts scheduled (lease reclaims and worker deaths both
    /// land here).
    pub retries: u64,
    /// Warm passes avoided: the job restored a warm checkpoint another
    /// job had deposited, or reused a finished identical job's result
    /// (see `result_hits`, which this count includes).
    pub dedup_hits: u64,
    /// Measurement windows avoided by reusing a finished identical job's
    /// result instead of simulating it again.
    pub result_hits: u64,
    /// Completed results served straight from the journal on replay,
    /// without recomputation.
    pub replay_hits: u64,
}

impl ServeMetrics {
    /// Sums `other` into `self`, field by field. Addition is commutative
    /// and associative, so merging shard snapshots in any order yields
    /// the same totals — the determinism contract the merge test pins.
    pub fn merge(&mut self, other: &ServeMetrics) {
        self.jobs_accepted += other.jobs_accepted;
        self.jobs_completed += other.jobs_completed;
        self.jobs_failed += other.jobs_failed;
        self.queue_depth += other.queue_depth;
        self.lease_expiries += other.lease_expiries;
        self.retries += other.retries;
        self.dedup_hits += other.dedup_hits;
        self.result_hits += other.result_hits;
        self.replay_hits += other.replay_hits;
    }

    /// Renders the snapshot into a [`Registry`] under the `vpr_serve_*`
    /// namespace (insertion order is fixed, so the Prometheus text is
    /// byte-stable for equal snapshots).
    pub fn registry(&self) -> Registry {
        let mut r = Registry::new();
        r.gauge(
            "vpr_serve_queue_depth",
            "Jobs currently queued or leased in the sweep service",
            self.queue_depth as f64,
        );
        r.counter(
            "vpr_serve_jobs_accepted_total",
            "Jobs accepted and journalled by the sweep service",
            self.jobs_accepted,
        );
        r.counter(
            "vpr_serve_jobs_completed_total",
            "Jobs completed successfully by the sweep service",
            self.jobs_completed,
        );
        r.counter(
            "vpr_serve_jobs_failed_total",
            "Jobs that exhausted their retry budget and degraded to a structured failure",
            self.jobs_failed,
        );
        r.counter(
            "vpr_serve_lease_expiries_total",
            "Worker leases reclaimed after their deadline passed",
            self.lease_expiries,
        );
        r.counter(
            "vpr_serve_retries_total",
            "Job retry attempts scheduled by the sweep service",
            self.retries,
        );
        r.counter(
            "vpr_serve_dedup_hits_total",
            "Warm passes avoided by restoring a shared checkpoint or reusing an identical job's result",
            self.dedup_hits,
        );
        r.counter(
            "vpr_serve_result_hits_total",
            "Measurement windows avoided by reusing a finished identical job's result",
            self.result_hits,
        );
        r.counter(
            "vpr_serve_replay_hits_total",
            "Completed results served from the journal on restart without recomputation",
            self.replay_hits,
        );
        r
    }

    /// Prometheus text exposition of the snapshot.
    pub fn to_prometheus(&self) -> String {
        self.registry().to_prometheus()
    }

    /// JSON object rendering of the snapshot.
    pub fn to_json_value(&self) -> String {
        self.registry().to_json_value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(k: u64) -> ServeMetrics {
        ServeMetrics {
            jobs_accepted: 10 + k,
            jobs_completed: 7 + k,
            jobs_failed: k % 2,
            queue_depth: 3,
            lease_expiries: k,
            retries: 2 * k,
            dedup_hits: 5,
            result_hits: k + 1,
            replay_hits: k / 2,
        }
    }

    #[test]
    fn merge_is_order_independent() {
        let parts = [sample(1), sample(4), sample(9)];
        let mut forward = ServeMetrics::default();
        for p in &parts {
            forward.merge(p);
        }
        let mut backward = ServeMetrics::default();
        for p in parts.iter().rev() {
            backward.merge(p);
        }
        assert_eq!(forward, backward);
        // And the rendered surfaces are byte-identical, not just the
        // struct: this is what "determinism-safe merge" means for the
        // scrape endpoint.
        assert_eq!(forward.to_prometheus(), backward.to_prometheus());
        assert_eq!(forward.to_json_value(), backward.to_json_value());
    }

    #[test]
    fn prometheus_surface_has_the_contracted_names() {
        let text = sample(2).to_prometheus();
        for name in [
            "vpr_serve_queue_depth",
            "vpr_serve_lease_expiries_total",
            "vpr_serve_retries_total",
            "vpr_serve_dedup_hits_total",
            "vpr_serve_result_hits_total",
        ] {
            assert!(
                text.contains(&format!("# TYPE {name} ")),
                "missing {name} in:\n{text}"
            );
        }
        assert!(text.contains("vpr_serve_lease_expiries_total 2\n"));
        assert!(text.contains("vpr_serve_retries_total 4\n"));
        assert!(text.contains("vpr_serve_dedup_hits_total 5\n"));
        assert!(text.contains("vpr_serve_result_hits_total 3\n"));
        assert!(text.contains("vpr_serve_queue_depth 3\n"));
    }
}
