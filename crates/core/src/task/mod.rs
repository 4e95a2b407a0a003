//! Broadcast query tasks: arrival-ordered traversals of on-air R-trees.
//!
//! Random access is impossible on a broadcast channel, so every task keeps
//! its candidate nodes in a queue ordered by **next arrival time** and
//! processes them strictly in that order — the backtrack-free discipline
//! the paper adopts in §2.2/§6 ("we maintain the priority queue of the
//! candidate R-tree nodes according to their arrival time, so that
//! backtracking is avoided"). The index is broadcast in preorder, so
//! arrival order is preorder: the window query keeps a depth-first stack
//! of node ids, and the NN search, the only task generic over its queue,
//! a stack sorted by descending `(arrival, node id)` ([`queue`] has it,
//! its lazy pruning and the oracle the tests hold it to).

mod nn;
pub mod queue;
mod window;

pub use nn::{BroadcastNnSearch, NnScratch, NnSearchTask};
pub use queue::{ArrivalStack, CandidateQueue, QueueEntry};
pub use window::{WindowQueryTask, WindowScratch};
