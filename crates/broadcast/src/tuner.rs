//! Client-side tuning accounting: the paper's two cost metrics.

/// Accounting for one mobile client on one channel.
///
/// * **Tune-in time** ([`Tuner::pages`]): pages actually downloaded — the
///   energy metric. Pruned pages cost nothing (the client dozes).
/// * **Access time**: derived by the caller from [`Tuner::finish_time`]
///   relative to the query issue time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tuner {
    /// Number of pages downloaded so far.
    pub pages: u64,
    /// Completion slot of the last downloaded page (arrival + 1), if any.
    pub finish_time: Option<u64>,
}

impl Tuner {
    /// A fresh tuner with nothing downloaded.
    pub fn new() -> Self {
        Tuner::default()
    }

    /// Records the download of one page arriving at slot `arrival`
    /// (occupying `[arrival, arrival + 1)`).
    #[inline]
    pub fn download(&mut self, arrival: u64) {
        self.pages += 1;
        let done = arrival + 1;
        self.finish_time = Some(self.finish_time.map_or(done, |f| f.max(done)));
    }

    /// Merges another tuner's accounting into this one.
    pub fn merge(&mut self, other: &Tuner) {
        self.pages += other.pages;
        self.finish_time = match (self.finish_time, other.finish_time) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn download_counts_and_tracks_finish() {
        let mut t = Tuner::new();
        assert_eq!(t.pages, 0);
        assert_eq!(t.finish_time, None);
        t.download(10);
        t.download(5); // out-of-order arrival must not move finish backwards
        assert_eq!(t.pages, 2);
        assert_eq!(t.finish_time, Some(11));
    }

    #[test]
    fn merge_combines_counts_and_max_finish() {
        let mut a = Tuner::new();
        a.download(3);
        let mut b = Tuner::new();
        b.download(9);
        b.download(1);
        a.merge(&b);
        assert_eq!(a.pages, 3);
        assert_eq!(a.finish_time, Some(10));
        let mut empty = Tuner::new();
        empty.merge(&a);
        assert_eq!(empty, a);
    }
}
