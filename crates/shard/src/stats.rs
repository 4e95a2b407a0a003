//! Router-level counters, folded with the per-shard serving stats.

use tnn_serve::ServeStats;

tnn_trace::stats! {
    /// A snapshot of one [`crate::ShardRouter`]'s activity: scatter-gather
    /// counters plus the [`ServeStats::fold`] of every shard server's
    /// serving counters.
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct ShardStats {
        /// Queries accepted by [`crate::ShardRouter::run`] (before
        /// validation; failed validations count too).
        pub queries: u64 => "tnn_shard_queries_total", "Queries accepted by the shard router",
        /// Sub-queries admitted by shard servers during scatter. The
        /// servers take submissions from the router only, so
        /// [`crate::ShardRouter::stats`] reads it as
        /// [`ServeStats::accepted`].
        pub scattered: u64 => "tnn_shard_scattered_total",
            "Sub-queries admitted by shard servers during scatter",
        /// Sub-queries a shard server refused at the door (full lane under
        /// `Backpressure::Reject`, or shutdown). The route is still exact —
        /// a refused shard just cannot tighten the gather bound. Read as
        /// [`ServeStats::rejected`], like `scattered`.
        pub scatter_rejected: u64 => "tnn_shard_scatter_rejected_total",
            "Sub-queries refused at a shard server's door",
        /// Admitted sub-queries that resolved to an error (cancelled,
        /// expired, …) instead of a bound-tightening outcome.
        pub scatter_errors: u64 => "tnn_shard_scatter_errors_total",
            "Admitted sub-queries that resolved to an error",
        /// Shards skipped in the scatter phase because the transitive bound
        /// proved they cannot improve the best-known route.
        pub scatter_pruned: u64 => "tnn_shard_scatter_pruned_total",
            "Shards skipped by the transitive scatter bound",
        /// `(shard, channel)` sub-trees actually range-searched in the
        /// gather phase.
        pub gather_probed: u64 => "tnn_shard_gather_probed_total",
            "(shard, channel) sub-trees range-searched in the gather phase",
        /// `(shard, channel)` sub-trees skipped in the gather phase because
        /// their root MBR lies entirely outside the gather circle.
        pub gather_pruned: u64 => "tnn_shard_gather_pruned_total",
            "(shard, channel) sub-trees skipped by root-MBR pruning",
        /// Queries that found no eligible shard (no single shard holds all
        /// `k` channels) and fell back to a locally computed gather bound.
        pub fallbacks: u64 => "tnn_shard_fallbacks_total",
            "Queries that fell back to a locally computed gather bound",
        /// Environment swaps published through
        /// [`crate::ShardRouter::swap_env`] — each one re-partitions the
        /// data and replaces every shard server.
        pub env_swaps: u64 => "tnn_shard_env_swaps_total",
            "Environment swaps published through the router",
        /// Shard servers retired by environment swaps. Their serving
        /// counters are *not* lost: each retiree's final stats fold into
        /// [`ShardStats::serve`] alongside the live servers'.
        pub retired_replicas: u64 => "tnn_shard_retired_replicas_total",
            "Replicas drained and retired by environment swaps",
        /// [`ServeStats::fold`] over every shard server — the live ones
        /// plus every server retired by an environment swap or stopped
        /// by [`crate::ShardRouter::shutdown`].
        pub serve: ServeStats,
    }
}

impl ShardStats {
    /// Fraction of gather sub-tree visits avoided by MBR pruning, in
    /// `[0, 1]` (`0.0` when nothing was gathered yet).
    pub fn gather_prune_rate(&self) -> f64 {
        let total = self.gather_probed + self.gather_pruned;
        if total == 0 {
            0.0
        } else {
            self.gather_pruned as f64 / total as f64
        }
    }

    /// The sharded conservation invariant: the folded serving stats
    /// conserve tickets, every scatter submission the router made is
    /// accounted for by the shard servers
    /// (`serve.submitted = scattered + scatter_rejected`; a router
    /// snapshot reads both terms from the fold, so this holds whenever
    /// the fold conserves, mid-scatter included), errored
    /// sub-queries are a subset of admitted ones, fallbacks are a
    /// subset of queries, and servers retire only through environment
    /// swaps (`retired_replicas == 0 || env_swaps > 0`) — the folded
    /// serving stats span retirees and live servers alike, so a swap
    /// can never drop or double-count pre-swap completions.
    pub fn conserved(&self) -> bool {
        let ShardStats {
            queries,
            scattered,
            scatter_rejected,
            scatter_errors,
            // Pruned shards are skipped work, not tickets: no identity
            // links them to admissions.
            scatter_pruned: _,
            // Gather probes and prunes are observability, the prune
            // rate's numerator and denominator.
            gather_probed: _,
            gather_pruned: _,
            fallbacks,
            env_swaps,
            retired_replicas,
            serve,
        } = self;
        serve.conserved()
            && serve.submitted == scattered + scatter_rejected
            && scatter_errors <= scattered
            && fallbacks <= queries
            && (*retired_replicas == 0 || *env_swaps > 0)
    }

    /// Publishes this snapshot into `registry`: the scatter-gather
    /// counters under `tnn_shard_*`, then the folded fleet serving
    /// stats through [`ServeStats::publish_metrics`] (so the
    /// `tnn_serve_*` series of a sharded deployment aggregate every
    /// shard server, retirees included). All fields only ever grow on a live
    /// router, so repeated publications are monotone.
    pub fn publish_metrics(&self, registry: &tnn_trace::MetricsRegistry) {
        self.publish_series(registry, "");
        self.serve.publish_metrics(registry);
    }
}
