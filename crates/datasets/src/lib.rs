//! # tnn-datasets
//!
//! Deterministic spatial dataset generators for the EDBT 2008 TNN
//! reproduction (paper §6):
//!
//! * the **uniform density family** `UNIF(e)`: eight datasets of densities
//!   `10^−7.0 … 10^−4.2` in a 39,000 × 39,000 region (152 … 95,969
//!   points) — see [`unif`] and [`UNIF_EXPONENTS`];
//! * the **size family**: datasets of 2,000 … 32,000 points in steps of
//!   2,000 — see [`size_family`];
//! * **clustered stand-ins for the paper's real datasets** (the original
//!   CITY/Greece and POST/north-east-US sets from the rtreeportal archive
//!   are not redistributable): [`city_like`] (≈6,000 points, heavily
//!   clustered) and [`post_like`] (≈123,000 points, population-like,
//!   generated in a 1,000,000² region and scaled to the common region the
//!   way the paper scales its datasets).
//!
//! Everything is seeded and reproducible; the same seed always yields the
//! same dataset.

#![warn(missing_docs)]

mod clustered;
mod region;
mod uniform;

pub use clustered::{city_like, clustered, post_like, ClusterSpec};
pub use region::{paper_region, post_region, scale_points, PAPER_SIDE, POST_SIDE};
pub use uniform::{size_family, unif, unif_size, uniform_points, SIZE_FAMILY, UNIF_EXPONENTS};
