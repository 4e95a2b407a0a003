//! Broadcast query tasks: arrival-ordered traversals of on-air R-trees.
//!
//! Random access is impossible on a broadcast channel, so every task keeps
//! its candidate nodes in a queue ordered by **next arrival time** and
//! processes them strictly in that order — the backtrack-free discipline
//! the paper adopts in §2.2/§6 ("we maintain the priority queue of the
//! candidate R-tree nodes according to their arrival time, so that
//! backtracking is avoided"). Both task types realize that priority queue
//! as a binary min-heap keyed `(arrival, node id)`, giving O(1) peeks and
//! O(log n) pops; see [`queue`] for the NN search's queue, its lazy
//! pruning discipline and the oracle the tests hold it to. The NN search
//! task is the only type generic over that queue.

mod nn;
pub mod queue;
mod window;

pub use nn::{BroadcastNnSearch, NnScratch, NnSearchTask};
pub use queue::{ArrivalHeap, CandidateQueue, QueueEntry};
pub use window::{WindowQueryTask, WindowScratch};
