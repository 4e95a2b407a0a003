//! Query answers and cost accounting.

use tnn_geom::Point;
use tnn_rtree::ObjectId;

/// The answer to a TNN query: the pair `(s, r)` and its transitive
/// distance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TnnPair {
    /// The intermediate stop: location and object id in `S`.
    pub s: (Point, ObjectId),
    /// The final stop: location and object id in `R`.
    pub r: (Point, ObjectId),
    /// `dis(p, s) + dis(s, r)`.
    pub dist: f64,
}

/// Per-channel cost accounting for one query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelCost {
    /// Pages downloaded during the estimate phase.
    pub estimate_pages: u64,
    /// Pages downloaded during the filter phase.
    pub filter_pages: u64,
    /// Pages downloaded retrieving the answer object.
    pub retrieve_pages: u64,
    /// Completion slot of the last activity on this channel.
    pub finish_time: u64,
    /// Peak client-queue occupancy of this channel's estimate-phase NN
    /// search (live queue + delayed-pruning parked list), per hop. The
    /// paper's §4.2.4 bounds the live queue alone by `(H−1)(M−1)`; the
    /// parked list is outside that bound, so this count can exceed it
    /// many times over.
    pub peak_queue: u64,
    /// Delayed-pruning hits during the estimate phase: entries parked
    /// (§4.2.4) instead of expanded, still parked when the search ended.
    pub prune_hits: u64,
}

impl ChannelCost {
    /// Total pages downloaded on this channel (its tune-in time).
    pub fn total_pages(&self) -> u64 {
        self.estimate_pages + self.filter_pages + self.retrieve_pages
    }
}
