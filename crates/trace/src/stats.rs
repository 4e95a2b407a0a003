//! One declaration per stats family: the [`stats!`](crate::stats!)
//! macro, and the two field traits it dispatches through — [`Merge`]
//! (how a field folds) and [`Metric`] (which metric kind it publishes
//! as, read off the field's type).

use crate::{LatencyHistogram, MetricsRegistry};

/// A stats field that folds by addition: counters and gauges add,
/// histograms pool their observations, and arrays and nested stats
/// structs merge field by field.
pub trait Merge {
    /// Adds `other` into `self`.
    fn merge(&mut self, other: &Self);
}

/// A stats field published as one metric series. The type picks the
/// kind: `u64` is a counter, `usize` a gauge, [`LatencyHistogram`] a
/// histogram.
pub trait Metric {
    /// Publishes (or overwrites) `self` as series `name`.
    fn publish(&self, registry: &MetricsRegistry, name: &str, help: &str);
}

impl Merge for u64 {
    fn merge(&mut self, other: &Self) {
        *self += other;
    }
}

impl Merge for usize {
    fn merge(&mut self, other: &Self) {
        *self += other;
    }
}

impl Merge for LatencyHistogram {
    fn merge(&mut self, other: &Self) {
        LatencyHistogram::merge(self, other);
    }
}

impl<T: Merge, const N: usize> Merge for [T; N] {
    fn merge(&mut self, other: &Self) {
        for (mine, theirs) in self.iter_mut().zip(other) {
            mine.merge(theirs);
        }
    }
}

impl Metric for u64 {
    fn publish(&self, registry: &MetricsRegistry, name: &str, help: &str) {
        registry.counter(name, help, *self);
    }
}

impl Metric for usize {
    fn publish(&self, registry: &MetricsRegistry, name: &str, help: &str) {
        registry.gauge(name, help, *self as f64);
    }
}

impl Metric for LatencyHistogram {
    fn publish(&self, registry: &MetricsRegistry, name: &str, help: &str) {
        registry.histogram(name, help, self);
    }
}

/// Declares a stats family once. Each field is written a single time,
/// with its doc comment and, when it is published, its series name and
/// HELP text after `=>`. The macro emits the struct plus:
///
/// * `merge(&mut self, other)` — every field through [`Merge`]; since
///   each conservation clause is linear (or a sum-side inequality),
///   merging conserved snapshots yields a conserved one;
/// * `fold(snapshots)` — `merge` over any number of snapshots, from
///   the all-zero one (the struct must derive `Default`);
/// * `publish_series(&self, registry, labels)` — every field that
///   names a series, through [`Metric`], with `labels` (empty, or a
///   `{name="value"}` set) appended to each name.
///
/// Fields without `=>` (nested stats, derived totals) merge but are
/// not published.
///
/// ```
/// use tnn_trace::MetricsRegistry;
///
/// tnn_trace::stats! {
///     /// Demo counters.
///     #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
///     pub struct DemoStats {
///         /// Requests seen.
///         pub requests: u64 => "tnn_demo_requests_total", "Requests seen",
///         /// Open connections.
///         pub open: usize => "tnn_demo_open", "Open connections",
///         /// Merged, never published.
///         pub internal: u64,
///     }
/// }
///
/// let a = DemoStats { requests: 2, open: 1, internal: 7 };
/// let total = DemoStats::fold([&a, &a]);
/// assert_eq!(total, DemoStats { requests: 4, open: 2, internal: 14 });
///
/// let registry = MetricsRegistry::new();
/// total.publish_series(&registry, "{node=\"a\"}");
/// let text = registry.render_prometheus();
/// assert!(text.contains("# TYPE tnn_demo_requests_total counter"));
/// assert!(text.contains("tnn_demo_requests_total{node=\"a\"} 4"));
/// assert!(text.contains("# TYPE tnn_demo_open gauge"));
/// assert_eq!(registry.len(), 2);
/// ```
#[macro_export]
macro_rules! stats {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $(
                $(#[$field_meta:meta])*
                $field_vis:vis $field:ident: $ty:ty $(=> $series:literal, $help:literal)?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$field_meta])* $field_vis $field: $ty,)*
        }

        impl $crate::Merge for $name {
            fn merge(&mut self, other: &Self) {
                $($crate::Merge::merge(&mut self.$field, &other.$field);)*
            }
        }

        impl $name {
            /// Adds `other` into `self`, field by field. Merging
            /// conserved snapshots yields a conserved one: every
            /// conservation clause is linear or a sum-side inequality.
            pub fn merge(&mut self, other: &$name) {
                $crate::Merge::merge(self, other);
            }

            /// Merges every snapshot into the all-zero one (the empty
            /// fold is the all-zero snapshot).
            pub fn fold<'a>(snapshots: impl IntoIterator<Item = &'a $name>) -> $name {
                let mut total = <$name>::default();
                for snapshot in snapshots {
                    total.merge(snapshot);
                }
                total
            }

            /// Publishes every declared series into `registry`, with
            /// `labels` appended to each name.
            pub fn publish_series(&self, registry: &$crate::MetricsRegistry, labels: &str) {
                $($(
                    $crate::Metric::publish(
                        &self.$field,
                        registry,
                        &format!("{}{labels}", $series),
                        $help,
                    );
                )?)*
            }
        }
    };
}
