//! Every conservation equation, pinned field by field.
//!
//! Starting from conserved [`ClassStats`], [`ServeStats`] and
//! [`ShardStats`] snapshots whose inequalities are tight (e.g. a
//! class's latency count equal to its completions), each numeric field is moved by one in
//! either direction. A field that sits in an identity must be able to
//! turn `conserved()` false that way; an exempt field (an observability
//! counter no identity constrains) must leave it true however it moves.
//! Each field list is an exhaustive destructure, so a new stats field
//! does not compile here until it is placed on one side or the other.

use std::rc::Rc;
use std::time::Duration;
use tnn_serve::{ClassStats, LatencyHistogram, Priority, ServeStats};
use tnn_shard::ShardStats;

/// A one-step change of a stats field; `false` when the step is
/// impossible (a counter at zero cannot go down).
trait Nudge {
    fn nudge(&mut self, up: bool) -> bool;
}

impl Nudge for u64 {
    fn nudge(&mut self, up: bool) -> bool {
        match (up, self.checked_sub(1)) {
            (true, _) => *self += 1,
            (false, Some(less)) => *self = less,
            (false, None) => return false,
        }
        true
    }
}

impl Nudge for usize {
    fn nudge(&mut self, up: bool) -> bool {
        match (up, self.checked_sub(1)) {
            (true, _) => *self += 1,
            (false, Some(less)) => *self = less,
            (false, None) => return false,
        }
        true
    }
}

impl Nudge for LatencyHistogram {
    /// One more observation; observations cannot be taken back.
    fn nudge(&mut self, up: bool) -> bool {
        if up {
            self.record(Duration::from_micros(50));
        }
        up
    }
}

type Nudger<S> = Rc<dyn Fn(&mut S, bool) -> bool>;
type Field<S> = (String, Nudger<S>);

/// `(in_identity, exempt)` field lists of `$ty`; `nested` fields are
/// listed by the caller through [`lift`].
macro_rules! fields {
    ($ty:ident { pinned: [$($p:ident),*], exempt: [$($e:ident),*], nested: [$($n:ident),*] }) => {{
        let $ty { $($p: _,)* $($e: _,)* $($n: _,)* } = $ty::default();
        let pinned: Vec<Field<$ty>> = vec![$((
            stringify!($p).to_string(),
            Rc::new(|s: &mut $ty, up: bool| s.$p.nudge(up)),
        )),*];
        let exempt: Vec<Field<$ty>> = vec![$((
            stringify!($e).to_string(),
            Rc::new(|s: &mut $ty, up: bool| s.$e.nudge(up)),
        )),*];
        (pinned, exempt)
    }};
}

/// `fields` of an inner struct, reached through `get` from `S`.
fn lift<S: 'static, T: 'static>(
    prefix: &str,
    get: impl Fn(&mut S) -> &mut T + 'static,
    fields: Vec<Field<T>>,
) -> Vec<Field<S>> {
    let get = Rc::new(get);
    fields
        .into_iter()
        .map(|(name, nudge)| {
            let get = Rc::clone(&get);
            let lifted: Nudger<S> = Rc::new(move |s: &mut S, up: bool| nudge(get(s), up));
            (format!("{prefix}.{name}"), lifted)
        })
        .collect()
}

fn assert_pinned<S: Clone>(
    what: &str,
    bases: &[S],
    conserved: fn(&S) -> bool,
    pinned: &[Field<S>],
    exempt: &[Field<S>],
) {
    for (i, base) in bases.iter().enumerate() {
        assert!(conserved(base), "{what} base #{i} must start conserved");
    }
    for (name, nudge) in pinned {
        let breaks = bases.iter().any(|base| {
            [true, false].into_iter().any(|up| {
                let mut s = base.clone();
                nudge(&mut s, up) && !conserved(&s)
            })
        });
        assert!(
            breaks,
            "{what}.{name} sits in no identity: moving it by one leaves conserved() true"
        );
    }
    for (name, nudge) in exempt {
        for base in bases {
            for up in [true, false] {
                let mut s = base.clone();
                if nudge(&mut s, up) {
                    assert!(
                        conserved(&s),
                        "{what}.{name} is exempt, yet moving it by one broke conserved()"
                    );
                }
            }
        }
    }
}

fn class_fields() -> (Vec<Field<ClassStats>>, Vec<Field<ClassStats>>) {
    fields!(ClassStats {
        pinned: [
            submitted, accepted, rejected, shed, cancelled, completed, expired, queued, in_flight
        ],
        exempt: [retried],
        nested: [latency]
    })
}

fn serve_fields() -> (Vec<Field<ServeStats>>, Vec<Field<ServeStats>>) {
    let (mut pinned, exempt) = fields!(ServeStats {
        pinned: [
            submitted,
            accepted,
            rejected,
            shed,
            cancelled,
            completed,
            expired,
            queued,
            in_flight,
            cache_hits,
            cache_misses,
            cache_bypass,
            retried
        ],
        exempt: [worker_restarts],
        nested: [classes]
    });
    // Within a server snapshot every class field is pinned — the flat
    // totals are its sums — and so is each class's latency count, which
    // may not exceed that class's completions.
    for class in Priority::ALL {
        let (class_pinned, class_exempt) = class_fields();
        let latency: Field<ClassStats> = (
            "latency".to_string(),
            Rc::new(|s: &mut ClassStats, up: bool| s.latency.nudge(up)),
        );
        let all = class_pinned
            .into_iter()
            .chain(class_exempt)
            .chain([latency]);
        pinned.extend(lift(
            &format!("classes[{}]", class.name()),
            move |s: &mut ServeStats| &mut s.classes[class.index()],
            all.collect(),
        ));
    }
    (pinned, exempt)
}

/// A conserved class whose inequality is tight: `completed` latency
/// observations.
fn class_base(scale: u64) -> ClassStats {
    let mut latency = LatencyHistogram::default();
    for i in 0..5 * scale {
        latency.record(Duration::from_micros(10 * (i + 1)));
    }
    ClassStats {
        submitted: 35 * scale,
        accepted: 27 * scale,
        rejected: 8 * scale,
        shed: 2 * scale,
        cancelled: 3 * scale,
        completed: 5 * scale,
        expired: 4 * scale,
        queued: 6 * scale as usize,
        in_flight: 7 * scale as usize,
        retried: 9 * scale,
        latency,
    }
}

/// Three tight classes (scales 1, 2, 3), their totals, and 30
/// completions split over the three cache outcomes.
fn serve_base() -> ServeStats {
    let classes = [class_base(1), class_base(2), class_base(3)];
    let sum = |f: fn(&ClassStats) -> u64| classes.iter().map(f).sum::<u64>();
    ServeStats {
        submitted: sum(|c| c.submitted),
        accepted: sum(|c| c.accepted),
        rejected: sum(|c| c.rejected),
        shed: sum(|c| c.shed),
        cancelled: sum(|c| c.cancelled),
        completed: sum(|c| c.completed),
        expired: sum(|c| c.expired),
        queued: sum(|c| c.queued as u64) as usize,
        in_flight: sum(|c| c.in_flight as u64) as usize,
        cache_hits: 10,
        cache_misses: 13,
        cache_bypass: 7,
        retried: sum(|c| c.retried),
        worker_restarts: 2,
        classes,
    }
}

/// A tight router snapshot (`scatter_errors == scattered`, `fallbacks
/// == queries`), either after `env_swaps` swaps that retired
/// `retired_replicas` replicas or before any swap.
fn shard_base(env_swaps: u64, retired_replicas: u64) -> ShardStats {
    let serve = serve_base();
    ShardStats {
        queries: 40,
        scattered: 150,
        scatter_rejected: serve.submitted - 150,
        scatter_errors: 150,
        scatter_pruned: 3,
        gather_probed: 4,
        gather_pruned: 5,
        fallbacks: 40,
        env_swaps,
        retired_replicas,
        serve,
    }
}

#[test]
fn class_stats_conservation_pins_every_equation() {
    let (pinned, exempt) = class_fields();
    let bases = [class_base(1), class_base(2)];
    assert_pinned(
        "ClassStats",
        &bases,
        ClassStats::conserved,
        &pinned,
        &exempt,
    );
}

#[test]
fn serve_stats_conservation_pins_every_equation() {
    let (pinned, exempt) = serve_fields();
    assert_pinned(
        "ServeStats",
        &[serve_base()],
        ServeStats::conserved,
        &pinned,
        &exempt,
    );
}

#[test]
fn shard_stats_conservation_pins_every_equation() {
    let (mut pinned, mut exempt) = fields!(ShardStats {
        pinned: [
            queries,
            scattered,
            scatter_rejected,
            scatter_errors,
            fallbacks,
            env_swaps,
            retired_replicas
        ],
        exempt: [scatter_pruned, gather_probed, gather_pruned],
        nested: [serve]
    });
    let (serve_pinned, serve_exempt) = serve_fields();
    pinned.extend(lift(
        "serve",
        |s: &mut ShardStats| &mut s.serve,
        serve_pinned,
    ));
    exempt.extend(lift(
        "serve",
        |s: &mut ShardStats| &mut s.serve,
        serve_exempt,
    ));
    let bases = [shard_base(1, 2), shard_base(0, 0)];
    assert_pinned(
        "ShardStats",
        &bases,
        ShardStats::conserved,
        &pinned,
        &exempt,
    );
}
