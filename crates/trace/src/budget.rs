//! Work budgets for the optimizer: bounded rounds, worklist pops, and
//! wall-clock time.
//!
//! A budget is installed for the dynamic extent of one optimization
//! attempt ([`install`], thread-local like the tracer). The pde/pfe
//! round loop charges rounds, and the dfa solver loops charge worklist
//! pops; either check can report exhaustion. A partially-converged
//! fixpoint is *unsound to use*, so pop exhaustion aborts the solve by
//! panicking with a typed [`BudgetExhausted`] payload — the sandboxed
//! driver catches it and degrades along the documented ladder instead
//! of consuming a wrong solution. Round/wall checks at round
//! granularity return `Err` instead (the program is consistent between
//! rounds, so no unwind is needed there).

use std::cell::RefCell;
use std::time::{Duration, Instant};

/// Resource limits for one optimization attempt. `None` = unlimited.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Budget {
    /// Maximum pde/pfe global rounds.
    pub max_rounds: Option<u64>,
    /// Maximum dfa worklist pops (FIFO + priority + seeded + sparse,
    /// the sparse faint closure charging each of its pops), summed
    /// across all solver runs under this budget.
    pub max_pops: Option<u64>,
    /// Wall-clock ceiling for the whole attempt.
    pub wall_time: Option<Duration>,
}

impl Budget {
    /// The no-limits budget (every check passes).
    pub const UNLIMITED: Budget = Budget {
        max_rounds: None,
        max_pops: None,
        wall_time: None,
    };

    /// Whether no limit is set at all.
    pub fn is_unlimited(&self) -> bool {
        *self == Budget::UNLIMITED
    }
}

/// Typed exhaustion report; also the panic payload used to abort an
/// in-flight solve (and by `FAULT_INJECT=budget:...` directives).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetExhausted {
    /// Which limit tripped: `"rounds"`, `"pops"`, `"wall_time"`, or
    /// `"injected"` for fault injection.
    pub resource: &'static str,
    /// The configured limit (milliseconds for `wall_time`).
    pub limit: u64,
    /// What had been spent when the check tripped.
    pub spent: u64,
}

impl std::fmt::Display for BudgetExhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "budget exhausted: {} (spent {} of {})",
            self.resource, self.spent, self.limit
        )
    }
}

struct BudgetState {
    budget: Budget,
    start: Instant,
    pops: u64,
    rounds: u64,
}

thread_local! {
    static ACTIVE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    static STATE: RefCell<Option<BudgetState>> = const { RefCell::new(None) };
    static CANCEL_ACTIVE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    static CANCEL: RefCell<Option<CancelToken>> = const { RefCell::new(None) };
}

/// A cooperative cancellation flag, shared between a supervisor (which
/// raises it) and a worker thread (which observes it at every budget
/// checkpoint). Deliberately *not* a field of [`Budget`] — budgets are
/// `Copy` snapshots of limits, while a token is live shared state — so
/// cancellation also works for workers running with an unlimited
/// budget.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(std::sync::Arc<std::sync::atomic::AtomicBool>);

impl CancelToken {
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Raises the flag. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.0.store(true, std::sync::atomic::Ordering::Relaxed);
    }

    pub fn is_cancelled(&self) -> bool {
        self.0.load(std::sync::atomic::Ordering::Relaxed)
    }
}

/// Installs `token` on this thread for the guard's lifetime (shadowing
/// any outer token). While installed, [`check_cancelled`] — and through
/// it every budget checkpoint — aborts the in-flight work by panicking
/// with a typed [`BudgetExhausted`] payload (`resource: "cancelled"`)
/// once the token is raised, so the sandbox catches it like any other
/// budget trip and the resilience ladder takes over.
pub fn install_cancel(token: CancelToken) -> CancelGuard {
    let prev = CANCEL.with(|c| c.borrow_mut().replace(token));
    let prev_active = CANCEL_ACTIVE.with(|a| a.replace(true));
    CancelGuard { prev, prev_active }
}

/// RAII guard from [`install_cancel`]; restores the previous token.
pub struct CancelGuard {
    prev: Option<CancelToken>,
    prev_active: bool,
}

impl Drop for CancelGuard {
    fn drop(&mut self) {
        CANCEL.with(|c| *c.borrow_mut() = self.prev.take());
        CANCEL_ACTIVE.with(|a| a.set(self.prev_active));
    }
}

/// Aborts the in-flight attempt if this thread's installed
/// [`CancelToken`] has been raised. One thread-local read and a branch
/// when no token is installed; called from every budget checkpoint and
/// safe to call from any long-running loop.
///
/// # Panics
/// Panics with a [`BudgetExhausted`] payload (`resource: "cancelled"`)
/// when cancellation was requested.
#[inline]
pub fn check_cancelled() {
    if !CANCEL_ACTIVE.with(|a| a.get()) {
        return;
    }
    check_cancelled_slow();
}

#[cold]
fn check_cancelled_slow() {
    let cancelled = CANCEL.with(|c| c.borrow().as_ref().is_some_and(CancelToken::is_cancelled));
    if cancelled {
        std::panic::panic_any(BudgetExhausted {
            resource: "cancelled",
            limit: 0,
            spent: 0,
        });
    }
}

/// Installs `budget` on this thread for the guard's lifetime, shadowing
/// any outer budget (restored on drop). Installing an unlimited budget
/// keeps every instrumentation site on its one-branch fast path.
pub fn install(budget: Budget) -> BudgetGuard {
    let prev = if budget.is_unlimited() {
        STATE.with(|s| s.borrow_mut().take())
    } else {
        STATE.with(|s| {
            s.borrow_mut().replace(BudgetState {
                budget,
                start: Instant::now(),
                pops: 0,
                rounds: 0,
            })
        })
    };
    let prev_active = ACTIVE.with(|a| a.replace(!budget.is_unlimited()));
    BudgetGuard { prev, prev_active }
}

/// RAII guard from [`install`]; restores the previous budget on drop.
pub struct BudgetGuard {
    prev: Option<BudgetState>,
    prev_active: bool,
}

impl Drop for BudgetGuard {
    fn drop(&mut self) {
        STATE.with(|s| *s.borrow_mut() = self.prev.take());
        ACTIVE.with(|a| a.set(self.prev_active));
    }
}

/// Whether a (limited) budget is installed on this thread.
#[inline]
pub fn active() -> bool {
    ACTIVE.with(|a| a.get())
}

/// How often (in pops) the wall clock is consulted from `charge_pops`:
/// `Instant::now` is too costly for every worklist pop.
const WALL_CHECK_MASK: u64 = 0xFF;

/// Charges `n` worklist pops against the active budget, if any.
///
/// # Panics
/// Panics with a [`BudgetExhausted`] payload when the pop or wall-time
/// limit is exceeded — an in-flight fixpoint cannot be used partially,
/// so the solve must unwind to the sandbox.
#[inline]
pub fn charge_pops(n: u64) {
    check_cancelled();
    if !active() {
        return;
    }
    charge_pops_slow(n);
}

#[cold]
fn charge_pops_slow(n: u64) {
    let exhausted = STATE.with(|s| {
        let mut s = s.borrow_mut();
        let state = s.as_mut()?;
        let before = state.pops;
        state.pops += n;
        if let Some(max) = state.budget.max_pops {
            if state.pops > max {
                return Some(BudgetExhausted {
                    resource: "pops",
                    limit: max,
                    spent: state.pops,
                });
            }
        }
        // Only look at the clock every few hundred pops.
        if before & !WALL_CHECK_MASK != state.pops & !WALL_CHECK_MASK {
            if let Some(wall) = state.budget.wall_time {
                let elapsed = state.start.elapsed();
                if elapsed > wall {
                    return Some(BudgetExhausted {
                        resource: "wall_time",
                        limit: wall.as_millis() as u64,
                        spent: elapsed.as_millis() as u64,
                    });
                }
            }
        }
        None
    });
    if let Some(e) = exhausted {
        std::panic::panic_any(e);
    }
}

/// Charges one pde/pfe round against the active budget and checks the
/// round and wall-time limits. Called between rounds, where the
/// program is consistent, so exhaustion is an `Err`, not an unwind.
pub fn charge_round() -> Result<(), BudgetExhausted> {
    check_cancelled();
    if !active() {
        return Ok(());
    }
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        let Some(state) = s.as_mut() else {
            return Ok(());
        };
        state.rounds += 1;
        if let Some(max) = state.budget.max_rounds {
            if state.rounds > max {
                return Err(BudgetExhausted {
                    resource: "rounds",
                    limit: max,
                    spent: state.rounds,
                });
            }
        }
        if let Some(wall) = state.budget.wall_time {
            let elapsed = state.start.elapsed();
            if elapsed > wall {
                return Err(BudgetExhausted {
                    resource: "wall_time",
                    limit: wall.as_millis() as u64,
                    spent: elapsed.as_millis() as u64,
                });
            }
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_is_free() {
        assert!(!active());
        charge_pops(1_000_000);
        assert!(charge_round().is_ok());
        let _g = install(Budget::UNLIMITED);
        assert!(!active());
    }

    #[test]
    fn pop_limit_panics_with_payload() {
        let _g = install(Budget {
            max_pops: Some(10),
            ..Budget::UNLIMITED
        });
        charge_pops(10); // exactly at the limit: fine
        let err = std::panic::catch_unwind(|| charge_pops(1)).unwrap_err();
        let e = err
            .downcast_ref::<BudgetExhausted>()
            .expect("typed payload");
        assert_eq!(e.resource, "pops");
        assert_eq!(e.limit, 10);
    }

    #[test]
    fn round_limit_is_an_err() {
        let _g = install(Budget {
            max_rounds: Some(2),
            ..Budget::UNLIMITED
        });
        assert!(charge_round().is_ok());
        assert!(charge_round().is_ok());
        let e = charge_round().unwrap_err();
        assert_eq!(e.resource, "rounds");
    }

    #[test]
    fn wall_time_zero_trips_immediately() {
        let _g = install(Budget {
            wall_time: Some(Duration::ZERO),
            ..Budget::UNLIMITED
        });
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(charge_round().unwrap_err().resource, "wall_time");
    }

    #[test]
    fn cancellation_aborts_at_budget_checkpoints() {
        let token = CancelToken::new();
        let _g = install_cancel(token.clone());
        // Not yet raised: checkpoints pass, even with no budget.
        check_cancelled();
        charge_pops(1_000);
        assert!(charge_round().is_ok());
        token.cancel();
        let err = std::panic::catch_unwind(|| charge_pops(1)).unwrap_err();
        let e = err
            .downcast_ref::<BudgetExhausted>()
            .expect("typed payload");
        assert_eq!(e.resource, "cancelled");
        assert!(std::panic::catch_unwind(|| charge_round().ok()).is_err());
    }

    #[test]
    fn cancel_guard_restores_outer_token() {
        let outer = CancelToken::new();
        let g = install_cancel(outer.clone());
        {
            let _inner = install_cancel(CancelToken::new());
            outer.cancel();
            check_cancelled(); // inner token not raised: no abort
        }
        assert!(std::panic::catch_unwind(check_cancelled).is_err());
        drop(g);
        check_cancelled(); // no token installed: free
    }

    #[test]
    fn guard_restores_outer_budget() {
        let outer = install(Budget {
            max_pops: Some(5),
            ..Budget::UNLIMITED
        });
        {
            let _inner = install(Budget::UNLIMITED);
            assert!(!active());
            charge_pops(100); // inner scope: no limit
        }
        assert!(active());
        drop(outer);
        assert!(!active());
    }
}
