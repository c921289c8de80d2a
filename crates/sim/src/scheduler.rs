//! The work-stealing scheduler shared by grid runs and the `sweep-server`
//! service.
//!
//! PR 5's parallel grid runner handed cells to workers through a single
//! shared cursor — effectively static round-robin once the cell list was
//! fixed — which starves badly when cell costs are skewed: a detailed
//! contention cell runs ~5× longer than a fast cell of the same grid, so
//! one unlucky worker can still be simulating long after its siblings
//! went idle. This module replaces that with the classic work-stealing
//! shape:
//!
//! * one **deque per worker**, filled round-robin at batch submission
//!   (the old static partition becomes the *initial* assignment only);
//! * a **global injector** for jobs that arrive while workers run (the
//!   server's concurrent grid requests land here);
//! * idle workers **steal from the back** of the longest sibling deque,
//!   so imbalance self-corrects and the tail of a skewed grid is shared
//!   instead of serialized.
//!
//! Grid cells cost milliseconds to seconds each, so the scheduler
//! optimises for clarity over lock-freedom: one mutex guards all queues
//! (contention on it is unmeasurable next to a single cell simulation)
//! and a condvar parks idle workers. What matters — and what
//! [`SchedulerStats`] exposes — is the *shape*: who ran what, and how
//! often stealing had to rebalance it.
//!
//! The scheduler hands out opaque job payloads; executing them (and
//! writing results into per-slot storage so report order stays
//! deterministic regardless of execution order) is the caller's business.
//! That split lets the grid runner in the `tss` crate drive it with
//! scoped borrowing threads while the server drives the same type from
//! long-lived `Arc`-holding threads.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// A work-stealing multi-queue of jobs of type `T`. See the module docs
/// for the design; all methods are `&self` and thread-safe.
#[derive(Debug)]
pub struct WorkStealScheduler<T> {
    inner: Mutex<Inner<T>>,
    available: Condvar,
}

#[derive(Debug)]
struct Inner<T> {
    /// One FIFO deque per worker; stealing pops the *back*.
    deques: Vec<VecDeque<T>>,
    /// Jobs not assigned to any worker (single submissions, overflow).
    injector: VecDeque<T>,
    /// Round-robin cursor for batch distribution.
    next_worker: usize,
    /// After `close`, `next` returns `None` once everything drains.
    closed: bool,
    stats: SchedulerStats,
}

/// Counters describing how work actually flowed through the scheduler.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub struct SchedulerStats {
    /// Jobs accepted (batch + injected).
    pub submitted: u64,
    /// Jobs submitted through the global injector.
    pub injected: u64,
    /// Jobs each worker obtained by stealing from a sibling's deque.
    pub steals: Vec<u64>,
    /// Jobs dropped unexecuted by [`WorkStealScheduler::abandon`].
    pub abandoned: u64,
}

impl SchedulerStats {
    /// Total jobs obtained by stealing, over all workers.
    pub fn stolen(&self) -> u64 {
        self.steals.iter().sum()
    }
}

impl<T> WorkStealScheduler<T> {
    /// A scheduler feeding `workers` worker loops (at least one).
    pub fn new(workers: usize) -> WorkStealScheduler<T> {
        let workers = workers.max(1);
        WorkStealScheduler {
            inner: Mutex::new(Inner {
                deques: (0..workers).map(|_| VecDeque::new()).collect(),
                injector: VecDeque::new(),
                next_worker: 0,
                closed: false,
                stats: SchedulerStats {
                    submitted: 0,
                    injected: 0,
                    steals: vec![0; workers],
                    abandoned: 0,
                },
            }),
            available: Condvar::new(),
        }
    }

    /// How many worker loops this scheduler was built for.
    pub fn workers(&self) -> usize {
        self.inner.lock().expect("scheduler lock").deques.len()
    }

    /// Distributes a batch of jobs round-robin across the worker deques
    /// (the initial static assignment stealing then corrects). Returns
    /// `false` — dropping the jobs — if the scheduler is already closed.
    pub fn submit_batch(&self, jobs: impl IntoIterator<Item = T>) -> bool {
        let mut g = self.inner.lock().expect("scheduler lock");
        if g.closed {
            return false;
        }
        for job in jobs {
            let w = g.next_worker;
            g.deques[w].push_back(job);
            g.next_worker = (w + 1) % g.deques.len();
            g.stats.submitted += 1;
        }
        drop(g);
        self.available.notify_all();
        true
    }

    /// Submits one job through the global injector (no worker affinity).
    /// Returns `false` — dropping the job — if the scheduler is closed.
    pub fn inject(&self, job: T) -> bool {
        let mut g = self.inner.lock().expect("scheduler lock");
        if g.closed {
            return false;
        }
        g.injector.push_back(job);
        g.stats.submitted += 1;
        g.stats.injected += 1;
        drop(g);
        self.available.notify_one();
        true
    }

    /// The next job for worker `worker`: its own deque first, then the
    /// injector, then a steal from the back of the longest sibling deque.
    /// Blocks while everything is empty; returns `None` once the
    /// scheduler is closed and drained.
    pub fn next(&self, worker: usize) -> Option<T> {
        let mut g = self.inner.lock().expect("scheduler lock");
        loop {
            if let Some(job) = g.deques[worker].pop_front() {
                return Some(job);
            }
            if let Some(job) = g.injector.pop_front() {
                return Some(job);
            }
            let victim = (0..g.deques.len())
                .filter(|&v| v != worker)
                .max_by_key(|&v| g.deques[v].len())
                .filter(|&v| !g.deques[v].is_empty());
            if let Some(v) = victim {
                let job = g.deques[v].pop_back().expect("victim checked non-empty");
                g.stats.steals[worker] += 1;
                return Some(job);
            }
            if g.closed {
                return None;
            }
            g = self.available.wait(g).expect("scheduler lock");
        }
    }

    /// Accepts no further jobs; workers drain what is queued and then see
    /// `None`. Idempotent.
    pub fn close(&self) {
        self.inner.lock().expect("scheduler lock").closed = true;
        self.available.notify_all();
    }

    /// Closes the scheduler *and* drops everything still queued (counted
    /// in [`SchedulerStats::abandoned`]) — the graceful-shutdown path:
    /// in-flight jobs finish, queued ones are abandoned.
    pub fn abandon(&self) {
        let mut g = self.inner.lock().expect("scheduler lock");
        let dropped: usize = g.deques.iter().map(VecDeque::len).sum::<usize>() + g.injector.len();
        g.stats.abandoned += dropped as u64;
        for d in &mut g.deques {
            d.clear();
        }
        g.injector.clear();
        g.closed = true;
        drop(g);
        self.available.notify_all();
    }

    /// Jobs currently queued (not yet handed to any worker).
    pub fn queued(&self) -> usize {
        let g = self.inner.lock().expect("scheduler lock");
        g.deques.iter().map(VecDeque::len).sum::<usize>() + g.injector.len()
    }

    /// A snapshot of the flow counters.
    pub fn stats(&self) -> SchedulerStats {
        self.inner.lock().expect("scheduler lock").stats.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn batch_distributes_round_robin_and_drains_fifo() {
        let s: WorkStealScheduler<u32> = WorkStealScheduler::new(2);
        assert!(s.submit_batch([0, 1, 2, 3]));
        assert_eq!(s.queued(), 4);
        s.close();
        // Worker 0's own deque holds the even jobs, in order.
        assert_eq!(s.next(0), Some(0));
        assert_eq!(s.next(0), Some(2));
        // Own deque and injector empty: worker 0 steals from the *back*
        // of worker 1's deque (the cold end), then the front remainder.
        assert_eq!(s.next(0), Some(3));
        assert_eq!(s.next(0), Some(1));
        assert_eq!(s.next(0), None, "closed and drained");
        let stats = s.stats();
        assert_eq!(stats.submitted, 4);
        assert_eq!(stats.steals, vec![2, 0]);
        assert_eq!(stats.stolen(), 2);
        assert_eq!(stats.abandoned, 0);
    }

    #[test]
    fn injector_feeds_any_worker() {
        let s: WorkStealScheduler<&'static str> = WorkStealScheduler::new(3);
        assert!(s.inject("a"));
        assert!(s.inject("b"));
        assert_eq!(s.next(2), Some("a"));
        assert_eq!(s.next(0), Some("b"));
        let stats = s.stats();
        assert_eq!(stats.injected, 2);
        assert_eq!(stats.stolen(), 0, "injector pulls are not steals");
    }

    #[test]
    fn closed_scheduler_drops_submissions() {
        let s: WorkStealScheduler<u32> = WorkStealScheduler::new(1);
        s.close();
        assert!(!s.submit_batch([1, 2]));
        assert!(!s.inject(3));
        assert_eq!(s.next(0), None);
        assert_eq!(s.stats().submitted, 0);
    }

    #[test]
    fn abandon_counts_and_drops_queued_jobs() {
        let s: WorkStealScheduler<u32> = WorkStealScheduler::new(2);
        assert!(s.submit_batch([1, 2, 3]));
        assert!(s.inject(4));
        s.abandon();
        assert_eq!(s.next(0), None);
        assert_eq!(s.next(1), None);
        let stats = s.stats();
        assert_eq!(stats.abandoned, 4);
        assert_eq!(stats.submitted, 4);
    }

    #[test]
    fn workers_block_until_work_arrives_and_every_job_runs_once() {
        let s: Arc<WorkStealScheduler<u64>> = Arc::new(WorkStealScheduler::new(4));
        let sum = Arc::new(AtomicU64::new(0));
        let count = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..4)
            .map(|w| {
                let (s, sum, count) = (Arc::clone(&s), Arc::clone(&sum), Arc::clone(&count));
                std::thread::spawn(move || {
                    while let Some(j) = s.next(w) {
                        sum.fetch_add(j, Ordering::Relaxed);
                        count.fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        // Workers are already parked; feed them in two waves, then close.
        assert!(s.submit_batch(1..=100));
        assert!(s.submit_batch(101..=200));
        s.close();
        for h in handles {
            h.join().expect("worker thread");
        }
        assert_eq!(count.load(Ordering::Relaxed), 200, "each job exactly once");
        assert_eq!(sum.load(Ordering::Relaxed), 200 * 201 / 2);
        assert_eq!(s.stats().submitted, 200);
    }

    /// Stress for the in-cell frontier use: thousands of sub-microsecond
    /// jobs on a handful of workers force constant steal contention. Each
    /// job writes into its own index slot, so the final state must be
    /// independent of which worker ran what in which order — and `close`
    /// must stay safe however many times it is called, before, during,
    /// and after the drain.
    #[test]
    fn steal_contention_preserves_per_slot_results_and_close_is_idempotent() {
        const JOBS: usize = 4_096;
        for workers in [2usize, 4, 8] {
            let s: Arc<WorkStealScheduler<usize>> = Arc::new(WorkStealScheduler::new(workers));
            let slots: Arc<Vec<AtomicU64>> =
                Arc::new((0..JOBS).map(|_| AtomicU64::new(0)).collect());
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let (s, slots) = (Arc::clone(&s), Arc::clone(&slots));
                    std::thread::spawn(move || {
                        while let Some(i) = s.next(w) {
                            // A "simulation step": derive a value from the
                            // slot index alone so execution order cannot
                            // leak into the result.
                            slots[i].fetch_add(i as u64 * 3 + 1, Ordering::Relaxed);
                        }
                    })
                })
                .collect();
            // Many tiny batches maximise the window where some deques are
            // empty while others still hold work — the steal path.
            let ids: Vec<usize> = (0..JOBS).collect();
            for chunk in ids.chunks(13) {
                assert!(s.submit_batch(chunk.iter().copied()));
            }
            s.close();
            s.close(); // idempotent while workers are still draining
            for h in handles {
                h.join().expect("worker thread");
            }
            s.close(); // idempotent after the drain too
            assert_eq!(s.next(0), None, "closed and drained");
            for (i, slot) in slots.iter().enumerate() {
                assert_eq!(
                    slot.load(Ordering::Relaxed),
                    i as u64 * 3 + 1,
                    "slot {i} must be written exactly once with its own value"
                );
            }
            let stats = s.stats();
            assert_eq!(stats.submitted, JOBS as u64);
            assert_eq!(stats.abandoned, 0);
        }
    }
}
