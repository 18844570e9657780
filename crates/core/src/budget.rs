//! Runtime tracking for [`TrainBudget`](crate::config::TrainBudget).
//!
//! One [`BudgetState`] lives for the duration of a parameter search and
//! is consulted before every *fresh* combination evaluation (cache hits
//! and checkpoint-restored scores never spend budget), by the searching
//! thread, in the search's order, as each batch claims its combinations.
//! Each (combination × split) job checks the deadline again as it
//! starts, so at most one job per engine worker runs past it. Exhaustion
//! is sticky: once either bound trips, every later claim is refused, the
//! search finishes with whatever scores it has, and the outcome is
//! flagged degraded instead of erroring.

use crate::config::TrainBudget;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

#[derive(Debug)]
pub(crate) struct BudgetState {
    deadline: Option<Instant>,
    max_evals: Option<usize>,
    claimed: AtomicUsize,
    exhausted: AtomicBool,
}

impl BudgetState {
    pub fn new(budget: &TrainBudget) -> Self {
        Self {
            // A wall-clock bound too large for the monotonic clock is no
            // bound at all.
            deadline: budget
                .wall_clock
                .and_then(|d| Instant::now().checked_add(d)),
            max_evals: budget.max_evals,
            claimed: AtomicUsize::new(0),
            exhausted: AtomicBool::new(false),
        }
    }

    /// Claims one fresh evaluation. Returns `false` — and latches the
    /// exhausted flag — once the deadline has passed or the evaluation
    /// cap is spent.
    pub fn try_claim(&self) -> bool {
        if self.exhausted.load(Ordering::Relaxed) || self.past_deadline() {
            return false;
        }
        if let Some(max) = self.max_evals {
            // fetch_add claims a slot atomically; over-claims past the
            // cap only latch the flag, they never run.
            if self.claimed.fetch_add(1, Ordering::Relaxed) >= max {
                self.exhausted.store(true, Ordering::Relaxed);
                return false;
            }
        }
        true
    }

    /// Whether the deadline has passed, latching the exhausted flag when
    /// it has. Safe from any thread: engine jobs call it as they start.
    pub fn past_deadline(&self) -> bool {
        let past = self.deadline.is_some_and(|d| Instant::now() >= d);
        if past {
            self.exhausted.store(true, Ordering::Relaxed);
        }
        past
    }

    /// Whether a claim was ever refused or a job found the deadline
    /// passed.
    pub fn exhausted(&self) -> bool {
        self.exhausted.load(Ordering::Relaxed)
    }

    /// Time left until the deadline (`None` = unbounded). Zero once the
    /// deadline has passed.
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_exhausts() {
        let b = BudgetState::new(&TrainBudget::unlimited());
        for _ in 0..10_000 {
            assert!(b.try_claim());
        }
        assert!(!b.exhausted());
        assert_eq!(b.remaining(), None);
    }

    #[test]
    fn eval_cap_latches_after_max_claims() {
        let b = BudgetState::new(&TrainBudget {
            max_evals: Some(3),
            wall_clock: None,
        });
        assert_eq!((0..8).filter(|_| b.try_claim()).count(), 3);
        assert!(b.exhausted());
        assert!(!b.try_claim(), "exhaustion is sticky");
    }

    #[test]
    fn zero_eval_cap_refuses_immediately() {
        let b = BudgetState::new(&TrainBudget {
            max_evals: Some(0),
            wall_clock: None,
        });
        assert!(!b.try_claim());
        assert!(b.exhausted());
    }

    #[test]
    fn expired_deadline_refuses_claims() {
        let b = BudgetState::new(&TrainBudget {
            wall_clock: Some(Duration::ZERO),
            max_evals: None,
        });
        assert!(!b.try_claim());
        assert!(b.exhausted());
        assert_eq!(b.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn a_passed_deadline_latches_exhaustion() {
        let b = BudgetState::new(&TrainBudget {
            wall_clock: Some(Duration::ZERO),
            max_evals: None,
        });
        assert!(b.past_deadline());
        assert!(
            b.exhausted(),
            "a job that finds the deadline passed latches it"
        );
        let unbounded = BudgetState::new(&TrainBudget::unlimited());
        assert!(!unbounded.past_deadline());
        assert!(!unbounded.exhausted());
    }

    #[test]
    fn generous_deadline_allows_claims() {
        let b = BudgetState::new(&TrainBudget {
            wall_clock: Some(Duration::from_secs(3600)),
            max_evals: None,
        });
        assert!(b.try_claim());
        assert!(!b.exhausted());
        assert!(b.remaining().unwrap() > Duration::from_secs(3000));
    }
}
