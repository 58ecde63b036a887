//! The closed-loop terminal driver and the benchmark report.
//!
//! `concurrency` terminals each run transactions back to back. Under
//! group commit a terminal proceeds as soon as the engine accepts the
//! commit (the paper's simulated Berkeley DB behavior); without group
//! commit it waits for durability — exactly the difference that produces
//! Table 2's response-time column.

use std::cell::RefCell;
use std::rc::Rc;

use trail_db::{Database, TxnResult};
use trail_sim::{Delivered, DurationHistogram, SimDuration, SimTime, Simulator};

use crate::gen::TxnType;
use crate::workload::Workload;

/// When a terminal starts its next transaction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ChainOn {
    /// As soon as the engine finishes processing (group-commit style).
    Control,
    /// Only when the previous commit is durable (`O_SYNC` style).
    Durable,
}

/// Benchmark-run parameters.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Total transactions to run.
    pub transactions: usize,
    /// Concurrent terminals (the paper's "degree of concurrency").
    pub concurrency: usize,
    /// Next-transaction chaining policy.
    pub chain_on: ChainOn,
}

/// What a run measured.
#[derive(Clone, Debug)]
pub struct TpccReport {
    /// Transactions completed (durable).
    pub transactions: u64,
    /// New-Order transactions among them.
    pub new_orders: u64,
    /// Wall (virtual) time from first issue to last durability.
    pub elapsed: SimDuration,
    /// Transactions per minute, counting all types (the measure the
    /// paper's Table 2 reports as tpmC; see `EXPERIMENTS.md`).
    pub tpmc: f64,
    /// New-Order-only transactions per minute.
    pub tpmc_new_order: f64,
    /// Response times (start → durable), in completion order.
    pub response: Vec<SimDuration>,
    /// Synchronous log forces during the run (Table 3's "number of group
    /// commits").
    pub group_commits: u64,
    /// Total time a log force was outstanding (Table 2's "disk I/O time
    /// for logging").
    pub logging_io_time: SimDuration,
}

struct RunState {
    workload: Workload,
    to_issue: usize,
    completed: u64,
    new_orders: u64,
    response: Vec<SimDuration>,
    started_at: SimTime,
    last_durable: SimTime,
}

/// Runs a TPC-C measurement interval to completion (blocking: drives the
/// simulator until every transaction is durable).
///
/// # Panics
///
/// Panics if `config.concurrency` or `config.transactions` is zero.
pub fn run(
    sim: &mut Simulator,
    db: &Database,
    workload: Workload,
    config: RunConfig,
) -> TpccReport {
    assert!(config.transactions > 0, "need at least one transaction");
    assert!(config.concurrency > 0, "need at least one terminal");
    let wal_before = db.wal_stats();
    let state = Rc::new(RefCell::new(RunState {
        workload,
        to_issue: config.transactions,
        completed: 0,
        new_orders: 0,
        response: Vec::with_capacity(config.transactions),
        started_at: sim.now(),
        last_durable: sim.now(),
    }));
    for _ in 0..config.concurrency {
        issue_next(sim, db.clone(), Rc::clone(&state), config.chain_on);
    }
    let total = config.transactions as u64;
    loop {
        if state.borrow().completed >= total {
            break;
        }
        if !sim.step() {
            // A partial group is parked in the log buffer; force it.
            db.force_log(sim);
            assert!(
                db.pending_work() > 0 || state.borrow().completed >= total,
                "terminals stalled with no pending work"
            );
        }
    }
    db.run_until_quiescent(sim);
    let wal_after = db.wal_stats();
    let s = state.borrow();
    let elapsed = s.last_durable.duration_since(s.started_at);
    let minutes = (elapsed.as_secs_f64() / 60.0).max(1e-9);
    TpccReport {
        transactions: s.completed,
        new_orders: s.new_orders,
        elapsed,
        tpmc: s.completed as f64 / minutes,
        tpmc_new_order: s.new_orders as f64 / minutes,
        response: s.response.clone(),
        group_commits: wal_after.flushes - wal_before.flushes,
        logging_io_time: wal_after.logging_io_time - wal_before.logging_io_time,
    }
}

impl TpccReport {
    /// The mean response time, exact to the nanosecond.
    pub fn mean_response(&self) -> SimDuration {
        self.response
            .iter()
            .copied()
            .collect::<DurationHistogram>()
            .mean()
    }
}

fn issue_next(sim: &mut Simulator, db: Database, state: Rc<RefCell<RunState>>, chain: ChainOn) {
    let (ty, spec) = {
        let mut s = state.borrow_mut();
        if s.to_issue == 0 {
            return;
        }
        s.to_issue -= 1;
        s.workload.next_txn()
    };
    let db2 = db.clone();
    let state_c = Rc::clone(&state);
    let on_control = sim.completion(move |sim: &mut Simulator, del: Delivered<()>| {
        if del.is_ok() && chain == ChainOn::Control {
            issue_next(sim, db2, state_c, chain);
        }
    });
    let db3 = db.clone();
    let state_d = Rc::clone(&state);
    let on_durable = sim.completion(move |sim: &mut Simulator, del: Delivered<TxnResult>| {
        let Ok(res) = del else { return };
        {
            let mut s = state_d.borrow_mut();
            s.completed += 1;
            if ty == TxnType::NewOrder {
                s.new_orders += 1;
            }
            s.response.push(res.response());
            s.last_durable = sim.now();
        }
        if chain == ChainOn::Durable {
            issue_next(sim, db3, state_d, chain);
        }
    });
    db.execute(sim, spec, on_control, on_durable)
        .expect("engine accepts transactions");
}
