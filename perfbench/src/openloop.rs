//! Open-loop load generation.
//!
//! Queries are due on a fixed schedule (one every `interval`) whatever
//! the system's state, as independent users would send them. Latency is
//! measured from each query's *due* time, not from when the generator
//! got around to sending it, so a stall that delays sending is charged
//! to the queries it delayed. The generator's own lateness (send − due)
//! is reported separately. One thread submits and polls; it never
//! blocks on a query.

use std::time::{Duration, Instant};

/// How long the generator sleeps between polls when nothing is due.
const POLL: Duration = Duration::from_micros(50);

/// Per-query timings of one open-loop phase, in query order.
#[derive(Debug, Default)]
pub struct OpenLoop {
    /// Due time → observed completion, ms.
    pub latency_ms: Vec<f64>,
    /// Due time → submission, ms (how late the generator ran).
    pub lag_ms: Vec<f64>,
}

/// Runs `count` queries due every `interval` from now. `submit(i)`
/// sends query `i` and returns its handle, `is_done` polls a handle, and
/// `finish(i, handle)` consumes a completed one (checking its result).
pub fn run<H>(
    count: usize,
    interval: Duration,
    mut submit: impl FnMut(usize) -> H,
    is_done: impl Fn(&H) -> bool,
    mut finish: impl FnMut(usize, H),
) -> OpenLoop {
    let start = Instant::now();
    let due = |i: usize| start + interval * i as u32;
    let mut out = OpenLoop { latency_ms: vec![f64::NAN; count], lag_ms: Vec::with_capacity(count) };
    let mut pending: Vec<(usize, H)> = Vec::new();
    let mut next = 0;
    while next < count || !pending.is_empty() {
        while next < count && due(next) <= Instant::now() {
            let h = submit(next);
            out.lag_ms.push(ms(Instant::now() - due(next)));
            pending.push((next, h));
            next += 1;
        }
        let mut k = 0;
        while k < pending.len() {
            if is_done(&pending[k].1) {
                let now = Instant::now();
                let (i, h) = pending.swap_remove(k);
                out.latency_ms[i] = ms(now - due(i));
                finish(i, h);
            } else {
                k += 1;
            }
        }
        let now = Instant::now();
        let wake =
            if next < count { due(next).saturating_duration_since(now).min(POLL) } else { POLL };
        if !wake.is_zero() {
            std::thread::sleep(wake);
        }
    }
    out
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fake query that completes a fixed time after it was sent.
    struct Fake {
        done_at: Instant,
    }

    #[test]
    fn latency_is_measured_from_the_due_time() {
        let service = Duration::from_millis(2);
        let mut finished = Vec::new();
        let res = run(
            3,
            Duration::from_millis(5),
            |i| {
                if i == 0 {
                    // The generator stalls while sending query 0, so
                    // query 1 (due at +5 ms) goes out ~30 ms late.
                    std::thread::sleep(Duration::from_millis(30));
                }
                Fake { done_at: Instant::now() + service }
            },
            |h| Instant::now() >= h.done_at,
            |i, _| finished.push(i),
        );
        finished.sort_unstable();
        assert_eq!(finished, vec![0, 1, 2]);
        // Query 1 was sent ≥ 25 ms after it was due ...
        assert!(res.lag_ms[1] >= 25.0, "lag {:?}", res.lag_ms);
        // ... and that wait counts: its latency covers the lag plus the
        // 2 ms service time, far more than the time since it was sent.
        assert!(res.latency_ms[1] >= res.lag_ms[1] + 1.9, "{res:?}");
        assert!(res.latency_ms[1] >= 27.0, "{res:?}");
        assert!(res.latency_ms.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn prompt_queries_have_small_lag() {
        let res = run(4, Duration::from_millis(3), |_| Instant::now(), |_| true, |_, _| {});
        assert_eq!(res.latency_ms.len(), 4);
        assert!(res.lag_ms.iter().all(|&l| l < 3.0), "{res:?}");
    }
}
