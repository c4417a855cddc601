//! Open-loop load generation and latency-from-due accounting.
//!
//! An open loop sends each request when it is *due*, whether or not the
//! previous one finished. If the generator itself falls behind, the wait it
//! imposes is part of the latency users see, so every request is timed from
//! its due time, and how late the generator ran is reported separately.

use std::time::{Duration, Instant};

/// Time source of the generator; a stub drives the tests.
pub trait Clock {
    /// Time since the schedule's origin.
    fn now(&self) -> Duration;
    /// Blocks until `at` (relative to the origin); returns at once when
    /// `at` has already passed.
    fn sleep_until(&self, at: Duration);
}

/// The wall clock, with its origin at construction.
pub struct WallClock(Instant);

impl WallClock {
    /// A clock whose origin is now.
    pub fn start() -> WallClock {
        WallClock(Instant::now())
    }
}

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.0.elapsed()
    }

    fn sleep_until(&self, at: Duration) {
        let now = self.now();
        if at > now {
            std::thread::sleep(at - now);
        }
    }
}

/// One offered request: when it was due, when the generator actually
/// submitted it, and whether the service accepted it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Offer {
    /// Scheduled send time, relative to the origin.
    pub due: Duration,
    /// Actual submit time, relative to the origin.
    pub submitted: Duration,
    /// Whether the service admitted the request.
    pub accepted: bool,
}

impl Offer {
    /// How late the generator submitted this request.
    pub fn late(&self) -> Duration {
        self.submitted.saturating_sub(self.due)
    }

    /// Latency seen from the due time, given the service's own
    /// submit-to-done latency. `None` for a request the service refused.
    pub fn latency_from_due(&self, service: Duration) -> Option<Duration> {
        self.accepted.then(|| self.late() + service)
    }
}

/// Drives `schedule` (due times, nondecreasing) on one thread: waits for
/// each due time, then calls `submit(i)`, which returns whether the request
/// was admitted. `between` runs after each submit (for sampling process
/// state). Returns one [`Offer`] per scheduled request.
pub fn run_schedule<C: Clock>(
    clock: &C,
    schedule: &[Duration],
    mut submit: impl FnMut(usize) -> bool,
    mut between: impl FnMut(),
) -> Vec<Offer> {
    let mut offers = Vec::with_capacity(schedule.len());
    for (i, &due) in schedule.iter().enumerate() {
        clock.sleep_until(due);
        let submitted = clock.now();
        let accepted = submit(i);
        offers.push(Offer { due, submitted, accepted });
        between();
    }
    offers
}

/// Rescales Poisson arrival offsets (microseconds, nondecreasing) so the
/// last one lands at `arrivals.len() / rate_hz` seconds: the realised rate
/// then equals the nominal rate exactly, and only the burst pattern varies
/// with the seed (a Poisson process conditioned on its count).
pub fn at_exact_rate(arrivals: &[u64], rate_hz: f64) -> Vec<u64> {
    let Some(&last) = arrivals.last().filter(|&&l| l > 0) else {
        return arrivals.to_vec();
    };
    let span_us = arrivals.len() as f64 / rate_hz * 1e6;
    arrivals.iter().map(|&t| (t as f64 * span_us / last as f64).round() as u64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that jumps straight to each due time, plus a fixed cost per
    /// submit (a slow generator).
    struct StubClock {
        now: Cell<Duration>,
    }

    impl Clock for StubClock {
        fn now(&self) -> Duration {
            self.now.get()
        }
        fn sleep_until(&self, at: Duration) {
            if at > self.now.get() {
                self.now.set(at);
            }
        }
    }

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn on_time_generator_adds_nothing_to_latency() {
        let clock = StubClock { now: Cell::new(Duration::ZERO) };
        let offers = run_schedule(&clock, &[ms(0), ms(100), ms(200)], |_| true, || {});
        for o in &offers {
            assert_eq!(o.late(), Duration::ZERO);
            assert_eq!(o.latency_from_due(ms(30)), Some(ms(30)));
        }
    }

    #[test]
    fn a_stall_delays_later_requests_and_counts_against_them() {
        let clock = StubClock { now: Cell::new(Duration::ZERO) };
        // Submitting request 0 stalls the generator for 250 ms.
        let offers = run_schedule(
            &clock,
            &[ms(0), ms(100), ms(200), ms(300)],
            |i| {
                if i == 0 {
                    clock.now.set(clock.now.get() + ms(250));
                }
                true
            },
            || {},
        );
        let late: Vec<Duration> = offers.iter().map(Offer::late).collect();
        assert_eq!(late, vec![ms(0), ms(150), ms(50), ms(0)]);
        // Request 1 waited 150 ms in the generator before a 20 ms service.
        assert_eq!(offers[1].latency_from_due(ms(20)), Some(ms(170)));
    }

    #[test]
    fn refused_requests_have_no_latency() {
        let clock = StubClock { now: Cell::new(Duration::ZERO) };
        let offers = run_schedule(&clock, &[ms(0), ms(10)], |i| i == 0, || {});
        assert_eq!(offers[0].latency_from_due(ms(5)), Some(ms(5)));
        assert_eq!(offers[1].latency_from_due(ms(5)), None);
    }

    #[test]
    fn exact_rate_keeps_the_burst_pattern() {
        let scaled = at_exact_rate(&[100, 300, 400, 1000], 2.0);
        assert_eq!(scaled, vec![200_000, 600_000, 800_000, 2_000_000]);
        assert_eq!(at_exact_rate(&[], 2.0), Vec::<u64>::new());
    }
}
