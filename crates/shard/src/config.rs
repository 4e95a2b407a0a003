//! Configuration of the sharded serving layer: how many grid shards, and
//! the serving terms of each shard's server.

use tnn_serve::ServeConfig;

/// Configuration for a [`crate::ShardRouter`] — builder-style, like
/// [`ServeConfig`].
///
/// ```
/// use tnn_shard::ShardConfig;
/// use tnn_serve::ServeConfig;
///
/// let cfg = ShardConfig::new()
///     .shards(4)
///     .serve(ServeConfig::new().workers(1).queue_capacity(64));
/// assert_eq!(cfg.shards, 4);
/// ```
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of shards (clamped to at least 1): the cells of a uniform
    /// `cols × rows` grid over the union of every channel's bounding
    /// rectangle (`cols` is the largest divisor of the shard count that
    /// is at most its square root, so 4 shards → 2×2, 8 → 2×4). Default
    /// 4.
    pub shards: usize,
    /// Configuration applied to every per-shard [`tnn_serve::Server`]
    /// (workers, queue capacity, backpressure, cache, …).
    pub serve: ServeConfig,
}

impl ShardConfig {
    /// The default configuration: 4 grid shards, default serving terms.
    pub fn new() -> Self {
        ShardConfig::default()
    }

    /// Sets the shard count.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Sets the per-shard serving configuration.
    pub fn serve(mut self, serve: ServeConfig) -> Self {
        self.serve = serve;
        self
    }
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shards: 4,
            serve: ServeConfig::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_conservative() {
        let cfg = ShardConfig::new();
        assert_eq!(cfg.shards, 4);
    }

    #[test]
    fn builders_clamp_degenerate_values() {
        let cfg = ShardConfig::new().shards(0);
        assert_eq!(cfg.shards, 1);
    }
}
