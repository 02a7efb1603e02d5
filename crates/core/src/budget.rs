//! Resource budgets and graceful degradation for the searches.
//!
//! Procedure 5.1, the ILP decomposition and the Problem 6.1/6.2
//! searches all enumerate candidate spaces whose size grows
//! combinatorially with the extents `μ`. A [`SearchBudget`] bounds the
//! work (candidates screened, branch-and-bound nodes, wall-clock time);
//! when a limit trips, the searches degrade gracefully: they return the
//! best mapping found so far — or a cheap deterministic fallback — tagged
//! with a [`Certification`] instead of hanging or panicking.
//!
//! Degradation with a candidate budget is **deterministic**: the
//! enumeration order is fixed, so the same budget always yields the same
//! outcome. Wall-clock budgets are inherently machine-dependent and
//! reproducibility is limited to "some prefix of the same ordered
//! enumeration".

use crate::error::BudgetLimit;
use crate::metrics::SearchTelemetry;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

pub mod clock {
    //! The budget clock: a process-wide monotonic microsecond counter
    //! with a thread-local test override.
    //!
    //! All time-based budget decisions ([`SearchBudget::max_wall`],
    //! [`Deadline`]) read this clock instead of [`std::time::Instant`]
    //! directly, so tests can drive expiry deterministically: install a
    //! [`TestClock`] and advance it from a candidate probe, and the
    //! search trips its deadline at an exact, reproducible candidate
    //! count. The override is thread-local, which suffices because every
    //! search runs on its caller's thread.

    use std::cell::Cell;
    use std::sync::OnceLock;
    use std::time::Instant;

    thread_local! {
        static TEST_NOW: Cell<Option<u64>> = const { Cell::new(None) };
    }

    /// Microseconds on the budget clock: the thread's test override if
    /// one is installed, otherwise time elapsed since the first call in
    /// this process.
    pub fn now_micros() -> u64 {
        if let Some(t) = TEST_NOW.with(Cell::get) {
            return t;
        }
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        let epoch = *EPOCH.get_or_init(Instant::now);
        u64::try_from(epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// A thread-local override of the budget clock, removed on drop.
    ///
    /// While installed, `now_micros()` on this thread returns exactly
    /// the value last set — time only moves when the test says so.
    #[derive(Debug)]
    pub struct TestClock {
        // !Send so the override provably dies on the thread it patched.
        _not_send: std::marker::PhantomData<*const ()>,
    }

    impl TestClock {
        /// Install the override on the current thread, starting at
        /// `start_us` microseconds.
        pub fn start_at(start_us: u64) -> TestClock {
            TEST_NOW.with(|c| c.set(Some(start_us)));
            TestClock { _not_send: std::marker::PhantomData }
        }

        /// Move the clock to an absolute time. Panics if moved backwards.
        pub fn set(&self, us: u64) {
            TEST_NOW.with(|c| {
                let now = c.get().expect("test clock was cleared");
                assert!(us >= now, "test clock moved backwards: {now} -> {us}");
                c.set(Some(us));
            });
        }

        /// Advance the clock by `us` microseconds.
        pub fn advance(&self, us: u64) {
            TEST_NOW.with(|c| {
                let now = c.get().expect("test clock was cleared");
                c.set(Some(now.saturating_add(us)));
            });
        }

        /// Current reading of the override.
        pub fn now(&self) -> u64 {
            TEST_NOW.with(|c| c.get().expect("test clock was cleared"))
        }
    }

    impl Drop for TestClock {
        fn drop(&mut self) {
            TEST_NOW.with(|c| c.set(None));
        }
    }
}

/// An absolute point on the budget clock by which a search must answer.
///
/// Unlike [`SearchBudget::max_wall`] — a relative allowance started when
/// the search starts — a deadline is anchored by the *caller*, so time a
/// request spends queued before the search begins counts against it. A
/// search whose deadline has already passed degrades on its first
/// candidate check.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Deadline {
    at_us: u64,
}

impl Deadline {
    /// A deadline at an absolute budget-clock reading (microseconds).
    pub fn at_micros(at_us: u64) -> Deadline {
        Deadline { at_us }
    }

    /// A deadline `d` from now on the budget clock.
    pub fn after(d: Duration) -> Deadline {
        let d_us = u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
        Deadline { at_us: clock::now_micros().saturating_add(d_us) }
    }

    /// A deadline `ms` milliseconds from now on the budget clock.
    pub fn after_millis(ms: u64) -> Deadline {
        Deadline::after(Duration::from_millis(ms))
    }

    /// The absolute budget-clock reading, in microseconds.
    pub fn as_micros(self) -> u64 {
        self.at_us
    }

    /// True once the budget clock has reached the deadline.
    pub fn is_expired(self) -> bool {
        clock::now_micros() >= self.at_us
    }

    /// Time left before expiry (zero once expired).
    pub fn remaining(self) -> Duration {
        Duration::from_micros(self.at_us.saturating_sub(clock::now_micros()))
    }
}

/// A cooperative cancellation flag shared between a search and its
/// controller.
///
/// The searches poll the token once per screened candidate; setting it
/// makes them wind down with a [`BudgetLimit::Cancelled`] degradation
/// within one candidate's latency. Cloning shares the flag.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    cancelled: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Set the flag. Idempotent; there is no way to un-cancel.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
    }

    /// True once [`CancelToken::cancel`] has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }
}

/// Resource limits for a search. The default is unlimited.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchBudget {
    /// Maximum number of schedule candidates screened.
    pub max_candidates: Option<u64>,
    /// Maximum number of branch-and-bound nodes (ILP searches).
    pub max_nodes: Option<u64>,
    /// Maximum wall-clock time.
    pub max_wall: Option<Duration>,
    /// Absolute deadline on the budget clock (caller-anchored; queueing
    /// delay counts, unlike `max_wall`).
    pub deadline: Option<Deadline>,
}

impl SearchBudget {
    /// No limits: searches run to completion (the pre-budget behaviour).
    pub fn unlimited() -> SearchBudget {
        SearchBudget::default()
    }

    /// Budget limited to `n` candidates.
    pub fn candidates(n: u64) -> SearchBudget {
        SearchBudget { max_candidates: Some(n), ..SearchBudget::default() }
    }

    /// Budget limited to `n` branch-and-bound nodes.
    pub fn nodes(n: u64) -> SearchBudget {
        SearchBudget { max_nodes: Some(n), ..SearchBudget::default() }
    }

    /// Budget limited to `d` of wall-clock time.
    pub fn wall_clock(d: Duration) -> SearchBudget {
        SearchBudget { max_wall: Some(d), ..SearchBudget::default() }
    }

    /// Budget limited by an absolute deadline.
    pub fn until(d: Deadline) -> SearchBudget {
        SearchBudget { deadline: Some(d), ..SearchBudget::default() }
    }

    /// Add a candidate-count limit.
    pub fn with_candidates(mut self, n: u64) -> SearchBudget {
        self.max_candidates = Some(n);
        self
    }

    /// Add a node limit.
    pub fn with_nodes(mut self, n: u64) -> SearchBudget {
        self.max_nodes = Some(n);
        self
    }

    /// Add a wall-clock limit.
    pub fn with_wall_clock(mut self, d: Duration) -> SearchBudget {
        self.max_wall = Some(d);
        self
    }

    /// Add an absolute deadline.
    pub fn with_deadline(mut self, d: Deadline) -> SearchBudget {
        self.deadline = Some(d);
        self
    }

    /// True when no limit is set.
    pub fn is_unlimited(&self) -> bool {
        self.max_candidates.is_none()
            && self.max_nodes.is_none()
            && self.max_wall.is_none()
            && self.deadline.is_none()
    }

    /// Start metering against this budget.
    pub fn start(&self) -> BudgetMeter {
        BudgetMeter { budget: *self, started_us: clock::now_micros(), candidates: 0, nodes: 0 }
    }
}

/// Running tally of work performed against a [`SearchBudget`].
#[derive(Clone, Debug)]
pub struct BudgetMeter {
    budget: SearchBudget,
    started_us: u64,
    /// Candidates charged so far.
    pub candidates: u64,
    /// Nodes charged so far.
    pub nodes: u64,
}

impl BudgetMeter {
    /// Charge one screened candidate. Returns the limit that tripped,
    /// if any (the charged candidate itself is still within budget; the
    /// *next* one would not be).
    pub fn charge_candidate(&mut self) -> Option<BudgetLimit> {
        self.candidates += 1;
        if let Some(max) = self.budget.max_candidates {
            if self.candidates >= max {
                return Some(BudgetLimit::Candidates);
            }
        }
        self.check_wall()
    }

    /// Charge `n` branch-and-bound nodes.
    pub fn charge_nodes(&mut self, n: u64) -> Option<BudgetLimit> {
        self.nodes += n;
        if let Some(max) = self.budget.max_nodes {
            if self.nodes >= max {
                return Some(BudgetLimit::Nodes);
            }
        }
        self.check_wall()
    }

    /// Branch-and-bound nodes still available (for passing down to the
    /// ILP solver's own node cap). `None` means unlimited.
    pub fn nodes_remaining(&self) -> Option<u64> {
        self.budget.max_nodes.map(|max| max.saturating_sub(self.nodes))
    }

    /// Candidates still available. `None` means unlimited.
    pub fn candidates_remaining(&self) -> Option<u64> {
        self.budget.max_candidates.map(|max| max.saturating_sub(self.candidates))
    }

    /// Check the time limits: the relative wall-clock cap and the
    /// absolute deadline. (Kept under the pre-deadline name; every
    /// charge path funnels through it.)
    pub fn check_wall(&self) -> Option<BudgetLimit> {
        if self.budget.max_wall.is_none() && self.budget.deadline.is_none() {
            return None;
        }
        let now = clock::now_micros();
        if let Some(max) = self.budget.max_wall {
            let max_us = u64::try_from(max.as_micros()).unwrap_or(u64::MAX);
            if now.saturating_sub(self.started_us) >= max_us {
                return Some(BudgetLimit::WallClock);
            }
        }
        if let Some(d) = self.budget.deadline {
            if now >= d.as_micros() {
                return Some(BudgetLimit::Deadline);
            }
        }
        None
    }
}

/// How much trust a search result carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Certification {
    /// The search ran to completion; the mapping is provably optimal
    /// for its objective (first accepted candidate in increasing-cost
    /// order, Theorem 2.1).
    Optimal,
    /// A budget limit tripped; the mapping is valid and conflict-free
    /// but may be suboptimal.
    BestEffort {
        /// Candidates screened before degradation.
        candidates_examined: u64,
    },
    /// The candidate space (up to the configured objective cap) was
    /// exhausted without finding any acceptable mapping.
    Infeasible,
}

impl Certification {
    /// True for [`Certification::Optimal`].
    pub fn is_optimal(&self) -> bool {
        matches!(self, Certification::Optimal)
    }

    /// True for [`Certification::BestEffort`].
    pub fn is_best_effort(&self) -> bool {
        matches!(self, Certification::BestEffort { .. })
    }
}

impl std::fmt::Display for Certification {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Certification::Optimal => write!(f, "optimal"),
            Certification::BestEffort { candidates_examined } => {
                write!(f, "best-effort (budget exhausted after {candidates_examined} candidates)")
            }
            Certification::Infeasible => write!(f, "infeasible"),
        }
    }
}

/// Which solver route produced a [`SearchOutcome`].
///
/// Orthogonal to [`Certification`]: an ILP-escalated answer can still be
/// `Optimal` (the decomposition proves optimality within its entry bound),
/// but downstream consumers that depend on the *enumerative* tie-break pin
/// (the schedule-family fitter, warm-start certificates) must not treat it
/// as a `TieBreak::LexMax` representative — the ILP route makes no promise
/// about which optimal schedule it returns among ties.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SolveRoute {
    /// Plain enumerative search (Procedure 5.1), honoring the configured
    /// tie-break pin.
    #[default]
    Enumeration,
    /// Enumeration escalated mid-search to the ILP decomposition via a
    /// [`HybridPolicy`](crate::HybridPolicy).
    HybridIlp,
}

/// A search result tagged with its [`Certification`].
///
/// `mapping` is `Some` exactly when the certification is `Optimal` or
/// `BestEffort`; an `Infeasible` outcome carries no mapping.
#[derive(Clone, Debug)]
pub struct SearchOutcome<T> {
    /// The mapping found, if any.
    pub mapping: Option<T>,
    /// Trust level of the result.
    pub certification: Certification,
    /// Total candidates screened by the search.
    pub candidates_examined: u64,
    /// Per-stage search effort counters (see [`SearchTelemetry`]).
    pub telemetry: SearchTelemetry,
    /// Which solver route produced this outcome.
    pub route: SolveRoute,
}

impl<T> SearchOutcome<T> {
    /// A completed search with a provably optimal result.
    pub fn optimal(mapping: T, candidates_examined: u64) -> SearchOutcome<T> {
        SearchOutcome {
            mapping: Some(mapping),
            certification: Certification::Optimal,
            candidates_examined,
            telemetry: SearchTelemetry::default(),
            route: SolveRoute::default(),
        }
    }

    /// A budget-degraded but valid result.
    pub fn best_effort(mapping: T, candidates_examined: u64) -> SearchOutcome<T> {
        SearchOutcome {
            mapping: Some(mapping),
            certification: Certification::BestEffort { candidates_examined },
            candidates_examined,
            telemetry: SearchTelemetry::default(),
            route: SolveRoute::default(),
        }
    }

    /// A completed search that proved the candidate space empty.
    pub fn infeasible(candidates_examined: u64) -> SearchOutcome<T> {
        SearchOutcome {
            mapping: None,
            certification: Certification::Infeasible,
            candidates_examined,
            telemetry: SearchTelemetry::default(),
            route: SolveRoute::default(),
        }
    }

    /// Attach search telemetry (builder style, used by the searches).
    pub fn with_telemetry(mut self, telemetry: SearchTelemetry) -> SearchOutcome<T> {
        self.telemetry = telemetry;
        self
    }

    /// Tag the outcome with the solver route that produced it (builder
    /// style, used by the searches).
    pub fn with_route(mut self, route: SolveRoute) -> SearchOutcome<T> {
        self.route = route;
        self
    }

    /// The mapping, discarding the certification.
    pub fn into_mapping(self) -> Option<T> {
        self.mapping
    }

    /// Borrow the mapping.
    pub fn mapping(&self) -> Option<&T> {
        self.mapping.as_ref()
    }

    /// True when the result is certified optimal.
    pub fn is_optimal(&self) -> bool {
        self.certification.is_optimal()
    }

    /// Unwrap a mapping that must be certified optimal; panics (with
    /// the caller's message) otherwise. Intended for tests and examples
    /// where optimality is part of the claim being checked.
    pub fn expect_optimal(self, msg: &str) -> T {
        assert!(self.certification.is_optimal(), "{msg}: certification was {}", self.certification);
        self.mapping.expect(msg)
    }

    /// Map the carried mapping type.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> SearchOutcome<U> {
        SearchOutcome {
            mapping: self.mapping.map(f),
            certification: self.certification,
            candidates_examined: self.candidates_examined,
            telemetry: self.telemetry,
            route: self.route,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_trips() {
        let mut meter = SearchBudget::unlimited().start();
        for _ in 0..10_000 {
            assert_eq!(meter.charge_candidate(), None);
        }
        assert_eq!(meter.charge_nodes(1 << 40), None);
    }

    #[test]
    fn candidate_budget_trips_at_limit() {
        let mut meter = SearchBudget::candidates(3).start();
        assert_eq!(meter.charge_candidate(), None);
        assert_eq!(meter.charge_candidate(), None);
        assert_eq!(meter.charge_candidate(), Some(BudgetLimit::Candidates));
        assert_eq!(meter.candidates, 3);
    }

    #[test]
    fn node_budget_trips_and_reports_remaining() {
        let mut meter = SearchBudget::nodes(100).start();
        assert_eq!(meter.charge_nodes(40), None);
        assert_eq!(meter.nodes_remaining(), Some(60));
        assert_eq!(meter.charge_nodes(60), Some(BudgetLimit::Nodes));
        assert_eq!(meter.nodes_remaining(), Some(0));
    }

    #[test]
    fn zero_wall_clock_trips_immediately() {
        let meter = SearchBudget::wall_clock(Duration::ZERO).start();
        assert_eq!(meter.check_wall(), Some(BudgetLimit::WallClock));
    }

    #[test]
    fn builder_composes_limits() {
        let b = SearchBudget::unlimited()
            .with_candidates(5)
            .with_nodes(7)
            .with_wall_clock(Duration::from_secs(1));
        assert_eq!(b.max_candidates, Some(5));
        assert_eq!(b.max_nodes, Some(7));
        assert!(!b.is_unlimited());
        assert!(SearchBudget::unlimited().is_unlimited());
        assert!(!SearchBudget::until(Deadline::at_micros(u64::MAX)).is_unlimited());
    }

    #[test]
    fn test_clock_drives_deadline_expiry() {
        let tc = clock::TestClock::start_at(1_000);
        let d = Deadline::after_millis(5); // expires at 6_000 µs
        assert_eq!(d.as_micros(), 6_000);
        assert!(!d.is_expired());
        assert_eq!(d.remaining(), Duration::from_millis(5));

        let mut meter = SearchBudget::until(d).start();
        assert_eq!(meter.charge_candidate(), None);
        tc.advance(4_999);
        assert_eq!(meter.charge_candidate(), None);
        tc.advance(1);
        assert!(d.is_expired());
        assert_eq!(meter.charge_candidate(), Some(BudgetLimit::Deadline));
        assert_eq!(meter.check_wall(), Some(BudgetLimit::Deadline));
    }

    #[test]
    fn test_clock_drives_wall_budget_too() {
        let tc = clock::TestClock::start_at(0);
        let meter = SearchBudget::wall_clock(Duration::from_millis(2)).start();
        assert_eq!(meter.check_wall(), None);
        tc.advance(2_000);
        assert_eq!(meter.check_wall(), Some(BudgetLimit::WallClock));
    }

    #[test]
    fn wall_clock_trips_before_deadline_when_both_expired() {
        let tc = clock::TestClock::start_at(0);
        let meter = SearchBudget::wall_clock(Duration::ZERO)
            .with_deadline(Deadline::at_micros(0))
            .start();
        let _ = &tc;
        assert_eq!(meter.check_wall(), Some(BudgetLimit::WallClock));
    }

    #[test]
    fn test_clock_is_removed_on_drop() {
        {
            let _tc = clock::TestClock::start_at(u64::MAX);
            assert_eq!(clock::now_micros(), u64::MAX);
        }
        // Back on the real monotonic clock: ordered, and far from MAX.
        let a = clock::now_micros();
        let b = clock::now_micros();
        assert!(b >= a);
        assert_ne!(a, u64::MAX, "override leaked past its scope");
    }

    #[test]
    fn cancel_token_is_shared_and_sticky() {
        let t = CancelToken::new();
        let u = t.clone();
        assert!(!t.is_cancelled() && !u.is_cancelled());
        u.cancel();
        assert!(t.is_cancelled() && u.is_cancelled());
        u.cancel(); // idempotent
        assert!(t.is_cancelled());
    }

    #[test]
    fn outcome_constructors_are_consistent() {
        let o = SearchOutcome::optimal("m", 4);
        assert!(o.is_optimal());
        assert_eq!(o.into_mapping(), Some("m"));

        let b = SearchOutcome::best_effort("m", 9);
        assert!(b.certification.is_best_effort());
        assert_eq!(b.candidates_examined, 9);

        let i: SearchOutcome<&str> = SearchOutcome::infeasible(12);
        assert_eq!(i.certification, Certification::Infeasible);
        assert!(i.mapping().is_none());
    }

    #[test]
    #[should_panic(expected = "best-effort")]
    fn expect_optimal_rejects_degraded_results() {
        SearchOutcome::best_effort((), 1).expect_optimal("must be optimal");
    }

    #[test]
    fn certification_display() {
        assert_eq!(Certification::Optimal.to_string(), "optimal");
        assert!(Certification::BestEffort { candidates_examined: 3 }
            .to_string()
            .contains("3 candidates"));
        assert_eq!(Certification::Infeasible.to_string(), "infeasible");
    }
}
