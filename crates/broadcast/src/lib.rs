//! # tnn-broadcast
//!
//! The wireless data-broadcast substrate of the EDBT 2008 TNN
//! reproduction: air-indexed broadcast programs, `(1, m)` interleaving, and
//! the multi-channel mobile-client model.
//!
//! ## Model (paper §2.1)
//!
//! A server broadcasts each dataset cyclically on its own channel, in
//! fixed-size **pages**. An R-tree *air index* is interleaved with the data
//! using the `(1, m)` scheme of Imielinski et al. \[10\]: the full index (in
//! depth-first preorder, one node per page) precedes each of the `m`
//! equal fractions of the data segment:
//!
//! ```text
//! cycle = [Index][Frac 1][Index][Frac 2] … [Index][Frac m]
//! ```
//!
//! Index pointers are **arrival times**: a child entry resolves to the
//! child node's page offset within the index segment, from which the next
//! on-air time is pure arithmetic. Nothing is ever materialized — a
//! 100,000-object program costs only the memory of its R-tree
//! ([`BroadcastLayout`] keeps a handful of integers plus one slot per
//! object).
//!
//! A mobile client ([`Tuner`]) tunes into one or more [`Channel`]s. The two
//! cost metrics follow the paper: **access time** (elapsed slots) and
//! **tune-in time** (pages downloaded), both counted in pages.
//!
//! Random access is impossible on air: a page missed waits a full bucket
//! (index + fraction) or cycle. Query processing therefore traverses
//! indexes in **arrival order** (see `tnn-core`).

#![warn(missing_docs)]

mod channel;
mod env;
mod layout;
mod overlay;
mod params;
mod tuner;

pub use channel::{Channel, ChannelView, PageContent};
pub use env::MultiChannelEnv;
pub use layout::BroadcastLayout;
pub use overlay::{InlineVec, PhaseOverlay, PhaseVec};
pub use params::{BroadcastParams, PAGE_CAPACITIES};
pub use tuner::Tuner;
