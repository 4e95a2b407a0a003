//! Shared set-up of the scheduling-order gates: a whole mixed-class
//! submission list queued on a one-worker server before the worker's
//! next pop, through the public API alone.

use std::time::Duration;
use tnn_broadcast::MultiChannelEnv;
use tnn_core::Query;
use tnn_geom::Point;
use tnn_serve::{ChannelFaults, FaultPlan, RetryPolicy, ServeConfig, Server, ShutdownMode};

/// Spawns a one-worker server over `env` and runs `submit` on it while
/// the worker sleeps in a retry backoff on a blocker job (an outage
/// darkens channel 0 for job 0 alone), so that everything `submit`
/// admits is queued before the worker's next pop. The blocker is a
/// batch-class query away from every submission point and completes
/// with the rest. Should the blocker resolve before `submit` returns,
/// the set-up starts over on a fresh server with twice the backoff.
pub fn queue_behind_a_busy_worker<T>(
    env: &MultiChannelEnv,
    config: ServeConfig,
    mut submit: impl FnMut(&Server) -> T,
) -> (Server, T) {
    let mut pause = Duration::from_millis(25);
    for _ in 0..8 {
        let plan = FaultPlan::new(0).channel(0, ChannelFaults::NONE.outage(u64::MAX, 1));
        let retry = RetryPolicy::new().max_attempts(2).base(pause).cap(pause);
        let server = Server::spawn_with_faults(env.clone(), config.workers(1).retry(retry), plan);
        let blocker = server.submit(Query::tnn(Point::new(-1.0, -1.0))).unwrap();
        while server.stats().in_flight == 0 {
            std::thread::yield_now();
        }
        let submitted = submit(&server);
        if !blocker.is_done() {
            return (server, submitted);
        }
        server.shutdown(ShutdownMode::Drain);
        pause *= 2;
    }
    panic!("the submissions never fitted inside the blocker's backoff");
}
