//! Result-cache key derivation: [`QueryKey`], the hashable identity of a
//! [`Query`] against a `k`-channel environment.
//!
//! The engine is deterministic: two queries with equal keys produce
//! byte-identical [`QueryOutcome`](crate::QueryOutcome)s on the same
//! environment. That is the contract a serving-layer result cache needs —
//! a cache hit may substitute the stored outcome for a fresh
//! [`QueryEngine::run`](crate::QueryEngine::run) without changing a
//! single byte (property-gated in `crates/bench/tests/qos_equivalence.rs`).
//!
//! The key therefore folds in **every** outcome-affecting request field:
//! the query kind (with the algorithm for plain TNN), the query point's
//! exact f64 bit patterns, the issue slot (access time depends on where
//! in each broadcast cycle the query starts), the materialized
//! per-channel ANN modes, the per-query phase substitution (or its
//! absence), the answer-object retrieval flag, and the channel count
//! itself. Float fields are keyed by `to_bits`, so `-0.0 ≠ 0.0` and any
//! NaN pattern is just another (never-hit, since NaN queries error) key.
//!
//! Since environments became mutable (epoch-versioned snapshots), the
//! key also folds the **environment's identity**: its mutation epoch and
//! content fingerprint. A cache keyed this way can never serve an answer
//! computed against a replaced or mutated environment — the stale
//! entries' keys simply stop being derivable, and they age out of the
//! LRU like any other cold entry.

use crate::engine::{Query, QueryKind};
use crate::AnnMode;
use tnn_broadcast::MultiChannelEnv;

/// One per-channel ANN mode, encoded exactly (discriminant + parameter
/// bits) so the key is `Eq + Hash` despite [`AnnMode`]'s float fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum AnnKey {
    Exact,
    Dynamic(u64),
    Fixed(u64),
}

impl From<AnnMode> for AnnKey {
    fn from(mode: AnnMode) -> Self {
        match mode {
            AnnMode::Exact => AnnKey::Exact,
            AnnMode::Dynamic { factor } => AnnKey::Dynamic(factor.to_bits()),
            AnnMode::Fixed { alpha } => AnnKey::Fixed(alpha.to_bits()),
        }
    }
}

/// The cache identity of one [`Query`] against a `k`-channel environment.
///
/// Built by [`Query::cache_key`]; equal keys guarantee byte-identical
/// engine outcomes on the same environment. Uniform and per-channel ANN
/// specifications that resolve to the same modes share a key (both are
/// materialized through [`AnnSpec::mode`](crate::AnnSpec::mode)), and a
/// query carrying no phase substitution keys differently from one that
/// spells out the environment's own phases — the engine runs them through
/// different overlay paths, and the key does not know the environment's
/// phases to prove them equal.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct QueryKey {
    /// The kind with its algorithm: every outcome reports its kind, so
    /// two kinds never share a key.
    kind: QueryKind,
    point_bits: (u64, u64),
    issued_at: u64,
    channels: usize,
    env_epoch: u64,
    env_fingerprint: u64,
    ann: Vec<AnnKey>,
    phases: Option<Vec<u64>>,
    retrieve_answer_objects: bool,
}

impl QueryKey {
    /// The epoch of the environment this key was derived against.
    #[inline]
    pub fn env_epoch(&self) -> u64 {
        self.env_epoch
    }

    /// The content fingerprint of the environment this key was derived
    /// against.
    #[inline]
    pub fn env_fingerprint(&self) -> u64 {
        self.env_fingerprint
    }

    /// `true` when this key was derived against an environment with
    /// `env`'s identity — serving layers use it to detect that the
    /// environment was swapped between key derivation and execution, and
    /// re-derive the key against the snapshot they actually run on.
    #[inline]
    pub fn matches_env(&self, env: &MultiChannelEnv) -> bool {
        self.channels == env.len()
            && self.env_epoch == env.epoch()
            && self.env_fingerprint == env.fingerprint()
    }
}

impl Query {
    /// Derives the result-cache key of this query against `env`. Two
    /// queries with equal keys produce byte-identical outcomes (the
    /// engine is deterministic in exactly the folded fields, and the
    /// key carries the environment's epoch + fingerprint, so keys from
    /// different environment snapshots never collide).
    ///
    /// # Panics
    /// Panics when a per-channel ANN mode list does not match the
    /// channel count — the same condition under which
    /// [`QueryEngine::run`] panics, so callers that validated the query
    /// via [`Query::check_channels`] (as `tnn-serve` does at admission)
    /// never hit it.
    ///
    /// [`QueryEngine::run`]: crate::QueryEngine::run
    pub fn cache_key(&self, env: &MultiChannelEnv) -> QueryKey {
        let k = env.len();
        let spec = self.ann_spec();
        spec.check_channels(k);
        let p = self.point();
        QueryKey {
            kind: self.kind(),
            point_bits: (p.x.to_bits(), p.y.to_bits()),
            issued_at: self.issue_slot(),
            channels: k,
            env_epoch: env.epoch(),
            env_fingerprint: env.fingerprint(),
            ann: (0..k).map(|i| AnnKey::from(spec.mode(i))).collect(),
            phases: self.phase_overrides().map(<[u64]>::to_vec),
            retrieve_answer_objects: self.retrieves_answer_objects(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Algorithm;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    use std::sync::Arc;
    use tnn_broadcast::BroadcastParams;
    use tnn_geom::Point;
    use tnn_rtree::{PackingAlgorithm, RTree};

    /// A tiny k-channel environment; `n0` varies channel 0's dataset so
    /// tests can build content-distinct environments.
    fn env_sized(k: usize, n0: usize) -> MultiChannelEnv {
        let params = BroadcastParams::new(64);
        let trees = (0..k)
            .map(|c| {
                let n = if c == 0 { n0 } else { 10 + 3 * c };
                let pts: Vec<Point> = (0..n)
                    .map(|i| Point::new((i * 7 + c) as f64, (i * 11) as f64))
                    .collect();
                Arc::new(RTree::build(&pts, params.rtree_params(), PackingAlgorithm::Str).unwrap())
            })
            .collect();
        let phases: Vec<u64> = (0..k as u64).map(|i| i * 13 + 1).collect();
        MultiChannelEnv::new(trees, params, &phases)
    }

    fn env(k: usize) -> MultiChannelEnv {
        env_sized(k, 12)
    }

    fn hash_of(key: &QueryKey) -> u64 {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        h.finish()
    }

    #[test]
    fn equal_queries_share_a_key() {
        let e = env(2);
        let a = Query::tnn(Point::new(3.0, 4.0))
            .issued_at(7)
            .phases(&[1, 2]);
        let b = Query::tnn(Point::new(3.0, 4.0))
            .issued_at(7)
            .phases(&[1, 2]);
        assert_eq!(a.cache_key(&e), b.cache_key(&e));
        assert_eq!(hash_of(&a.cache_key(&e)), hash_of(&b.cache_key(&e)));
        // ... and the same query keys identically against an environment
        // with the same content identity.
        assert_eq!(a.cache_key(&e), a.cache_key(&env(2)));
    }

    #[test]
    fn every_outcome_affecting_field_changes_the_key() {
        let e = env(2);
        let base = Query::tnn(Point::new(3.0, 4.0))
            .issued_at(7)
            .phases(&[1, 2]);
        let key = base.cache_key(&e);
        let variants = [
            Query::tnn(Point::new(3.0, 4.5))
                .issued_at(7)
                .phases(&[1, 2]),
            Query::tnn(Point::new(3.0, 4.0))
                .issued_at(8)
                .phases(&[1, 2]),
            Query::tnn(Point::new(3.0, 4.0))
                .issued_at(7)
                .phases(&[1, 3]),
            Query::tnn(Point::new(3.0, 4.0)).issued_at(7), // no substitution
            Query::tnn(Point::new(3.0, 4.0))
                .algorithm(Algorithm::WindowBased)
                .issued_at(7)
                .phases(&[1, 2]),
            Query::tnn(Point::new(3.0, 4.0))
                .ann(AnnMode::Dynamic { factor: 1.0 })
                .issued_at(7)
                .phases(&[1, 2]),
            Query::tnn(Point::new(3.0, 4.0))
                .issued_at(7)
                .phases(&[1, 2])
                .retrieve_answer_objects(false),
        ];
        for variant in &variants {
            assert_ne!(variant.cache_key(&e), key, "{variant:?}");
        }
    }

    #[test]
    fn environment_identity_changes_the_key() {
        let q = Query::tnn(Point::new(3.0, 4.0)).issued_at(7);
        let e = env(2);
        let key = q.cache_key(&e);
        assert_eq!(key.env_epoch(), 0);
        assert_eq!(key.env_fingerprint(), e.fingerprint());
        assert!(key.matches_env(&e));
        // Different dataset on one channel → different fingerprint → miss.
        let other = env_sized(2, 13);
        assert_ne!(q.cache_key(&other), key);
        assert!(!key.matches_env(&other));
        // An advance to identical content still bumps the epoch → miss.
        let trees = e
            .channels()
            .iter()
            .map(|c| Arc::clone(c.tree_arc()))
            .collect();
        let advanced = e.advance(trees);
        assert_eq!(advanced.fingerprint(), e.fingerprint());
        assert_ne!(q.cache_key(&advanced), key);
        assert!(!key.matches_env(&advanced));
        // Environment phases are folded via the fingerprint: a rephased
        // environment keys differently even for phase-overriding queries
        // (the engine may behave identically there, but the key has no
        // way to prove it — correctness over hit rate).
        let rephased = e.with_phases(&[9, 9]);
        assert_ne!(q.cache_key(&rephased), key);
    }

    #[test]
    fn kinds_key_differently_even_on_the_shared_pipeline() {
        let e = env(2);
        let p = Point::new(9.0, 9.0);
        // Every kind below estimates with Double-NN, but each reports its
        // own kind and route, so no two may share a cache entry.
        let tnn = Query::tnn(p).algorithm(Algorithm::DoubleNn).cache_key(&e);
        let free = Query::order_free(p).cache_key(&e);
        let tour = Query::round_trip(p).cache_key(&e);
        assert_ne!(tnn, free);
        assert_ne!(free, tour);
    }

    #[test]
    fn uniform_and_per_channel_ann_resolve_to_one_key() {
        let e3 = env(3);
        let p = Point::new(1.0, 2.0);
        let uniform = Query::tnn(p).ann(AnnMode::Dynamic { factor: 0.5 });
        let explicit = Query::tnn(p).ann_modes(&[AnnMode::Dynamic { factor: 0.5 }; 3]);
        assert_eq!(uniform.cache_key(&e3), explicit.cache_key(&e3));
        // ...but the same uniform spec at a different k keys differently.
        assert_ne!(uniform.cache_key(&e3), uniform.cache_key(&env(2)));
    }

    #[test]
    fn at_changes_only_the_point() {
        let e = env(2);
        let q = Point::new(5.0, 6.0);
        let template = Query::tnn(Point::new(1.0, 2.0))
            .algorithm(Algorithm::DoubleNn)
            .issued_at(11)
            .ann_modes(&[AnnMode::Exact, AnnMode::Fixed { alpha: 0.3 }])
            .phases(&[4, 9])
            .retrieve_answer_objects(false);
        let moved = template.clone().at(q);
        let built_at_q = Query::tnn(q)
            .algorithm(Algorithm::DoubleNn)
            .issued_at(11)
            .ann_modes(&[AnnMode::Exact, AnnMode::Fixed { alpha: 0.3 }])
            .phases(&[4, 9])
            .retrieve_answer_objects(false);
        assert_eq!(moved.cache_key(&e), built_at_q.cache_key(&e));
        assert_ne!(moved.cache_key(&e), template.cache_key(&e));
    }

    #[test]
    fn float_identity_is_bitwise() {
        let e = env(2);
        let pos = Query::tnn(Point::new(0.0, 1.0)).cache_key(&e);
        let neg = Query::tnn(Point::new(-0.0, 1.0)).cache_key(&e);
        assert_ne!(pos, neg, "-0.0 and 0.0 are distinct keys");
    }

    #[test]
    #[should_panic(expected = "one ANN mode per channel")]
    fn per_channel_arity_mismatch_panics() {
        let _ = Query::tnn(Point::ORIGIN)
            .ann_modes(&[AnnMode::Exact; 2])
            .cache_key(&env(3));
    }
}
