//! The dynamic micro-batching queue.
//!
//! Request handler threads [`enqueue`](BatchQueue::enqueue) individual
//! scoring jobs; one batcher thread drains them in batches of up to
//! `max_batch`, waiting at most `max_delay` past the oldest job's
//! arrival so a lone request is never stalled for long. Under load the
//! queue fills faster than the delay expires and batches run full —
//! throughput then rides the blocked matrix kernels instead of
//! degrading to per-request `1 x h` matmuls.
//!
//! The queue is bounded: when `bound` jobs are already waiting,
//! [`enqueue`](BatchQueue::enqueue) fails immediately and the server
//! surfaces 429 backpressure instead of letting latency grow without
//! limit. Shutdown is graceful by construction — the batcher keeps
//! draining until the queue is empty *and* shutdown was signalled, so
//! every job enqueued before shutdown still gets its answer.

use fd_core::ScoreRequest;
use fd_obs::TraceCtx;
use std::collections::VecDeque;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Per-class probabilities, or an internal scoring failure.
pub type ScoreResult = Result<Vec<f32>, String>;

/// One queued scoring job: the request plus the channel its result
/// travels back on, and the trace context of the HTTP request it came
/// from — the context crosses the handler→batcher thread boundary
/// here, which is what links a request's queue wait and scoring time
/// into the one trace its handler started.
struct Job {
    request: ScoreRequest,
    reply: SyncSender<ScoreResult>,
    enqueued: Instant,
    trace: TraceCtx,
}

/// Rejection reasons for [`BatchQueue::enqueue`].
#[derive(Debug, PartialEq, Eq)]
pub enum EnqueueError {
    /// The queue already holds `bound` jobs — backpressure (HTTP 429).
    Full,
    /// The server is shutting down and takes no new work (HTTP 503).
    ShuttingDown,
}

struct State {
    queue: VecDeque<Job>,
    shutdown: bool,
}

/// The shared queue between handler threads and the batcher thread.
pub struct BatchQueue {
    state: Mutex<State>,
    arrival: Condvar,
    bound: usize,
    max_batch: usize,
    max_delay: Duration,
}

/// A drained batch: requests plus their reply channels, index-aligned.
pub struct Batch {
    /// The requests to score together in one matrix pass.
    pub requests: Vec<ScoreRequest>,
    /// Reply channels, one per request.
    pub replies: Vec<SyncSender<ScoreResult>>,
    /// Queue-wait of the oldest job in the batch.
    pub oldest_wait: Duration,
    /// Trace contexts, one per request (index-aligned with
    /// `requests`). The batcher parents its per-batch spans to these.
    pub traces: Vec<TraceCtx>,
    /// Per-request queue wait, index-aligned with `requests` — the
    /// batcher records each request's `queue.wait` span from this.
    pub waits: Vec<Duration>,
}

impl BatchQueue {
    /// Locks the queue state, recovering from a poisoned mutex. A panic
    /// in some other thread while it held the lock poisons the mutex,
    /// but `State` is only ever mutated by single `push_back`/`drain`
    /// calls that cannot leave it half-updated — so the data is intact
    /// and recovering the guard is sound. Propagating the poison
    /// instead would cascade one contained panic into an abort of every
    /// handler thread and the batcher.
    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|poisoned| {
            fd_obs::counter("serve.lock_poison_recovered").inc();
            poisoned.into_inner()
        })
    }

    /// An empty queue. `bound` caps waiting jobs, `max_batch` caps the
    /// jobs drained per batch, and `max_delay` caps how long the batcher
    /// waits past the oldest job's arrival before dispatching a partial
    /// batch.
    pub fn new(bound: usize, max_batch: usize, max_delay: Duration) -> Self {
        assert!(bound >= 1, "queue bound must be at least 1");
        assert!(max_batch >= 1, "max_batch must be at least 1");
        Self {
            state: Mutex::new(State { queue: VecDeque::new(), shutdown: false }),
            arrival: Condvar::new(),
            bound,
            max_batch,
            max_delay,
        }
    }

    /// Enqueues one request carrying the HTTP request's trace context,
    /// so the batcher can attribute queue wait and scoring time to it;
    /// returns the receiver its result will arrive on. Fails immediately
    /// (no blocking) when the queue is full or the server is shutting
    /// down.
    pub fn enqueue(
        &self,
        request: ScoreRequest,
        trace: TraceCtx,
    ) -> Result<Receiver<ScoreResult>, EnqueueError> {
        let (tx, rx) = sync_channel(1);
        {
            let mut st = self.lock();
            if st.shutdown {
                return Err(EnqueueError::ShuttingDown);
            }
            if st.queue.len() >= self.bound {
                fd_obs::counter("serve.queue_full").inc();
                return Err(EnqueueError::Full);
            }
            st.queue.push_back(Job { request, reply: tx, enqueued: Instant::now(), trace });
            fd_obs::gauge("serve.queue_depth").set(st.queue.len() as f64);
        }
        self.arrival.notify_all();
        Ok(rx)
    }

    /// The batch-size cap this queue dispatches at — the denominator of
    /// the batch-occupancy gauge.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// Jobs currently waiting. The 429 `Retry-After` estimate is
    /// `depth / max_batch` batches times the mean batch-scoring time.
    pub fn depth(&self) -> usize {
        self.lock().queue.len()
    }

    /// Signals shutdown: no new jobs are accepted, and the batcher
    /// exits once the queue is drained.
    pub fn shutdown(&self) {
        self.lock().shutdown = true;
        self.arrival.notify_all();
    }

    /// Blocks until a batch is ready and drains it, or returns `None`
    /// when shutdown was signalled and the queue is empty. The batching
    /// rule: dispatch as soon as `max_batch` jobs are waiting, the
    /// oldest job has waited `max_delay`, or shutdown begins (drain
    /// without further delay).
    pub fn next_batch(&self) -> Option<Batch> {
        let mut st = self.lock();
        let front_arrival = loop {
            match st.queue.front() {
                Some(job) => break job.enqueued,
                None if st.shutdown => return None,
                None => {
                    st = self
                        .arrival
                        .wait(st)
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                }
            }
        };
        // A batch exists; wait for it to fill or for the delay to
        // lapse. Shutdown flushes immediately.
        let deadline = front_arrival + self.max_delay;
        while st.queue.len() < self.max_batch && !st.shutdown {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let (next, timeout) = self
                .arrival
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            st = next;
            if timeout.timed_out() {
                break;
            }
        }
        let take = st.queue.len().min(self.max_batch);
        let now = Instant::now();
        let mut requests = Vec::with_capacity(take);
        let mut replies = Vec::with_capacity(take);
        let mut traces = Vec::with_capacity(take);
        let mut waits = Vec::with_capacity(take);
        let mut oldest_wait = Duration::ZERO;
        for job in st.queue.drain(..take) {
            let wait = now.duration_since(job.enqueued);
            oldest_wait = oldest_wait.max(wait);
            requests.push(job.request);
            replies.push(job.reply);
            traces.push(job.trace);
            waits.push(wait);
        }
        fd_obs::gauge("serve.queue_depth").set(st.queue.len() as f64);
        Some(Batch { requests, replies, oldest_wait, traces, waits })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    fn req(tag: &str) -> ScoreRequest {
        ScoreRequest::article(tag, None, vec![])
    }

    #[test]
    fn drains_up_to_max_batch() {
        let q = BatchQueue::new(64, 3, Duration::from_millis(1));
        for i in 0..5 {
            q.enqueue(req(&format!("r{i}")), TraceCtx::off()).unwrap();
        }
        let first = q.next_batch().unwrap();
        assert_eq!(first.requests.len(), 3);
        assert_eq!(first.requests[0].text, "r0");
        let second = q.next_batch().unwrap();
        assert_eq!(second.requests.len(), 2);
        assert_eq!(second.requests[0].text, "r3");
    }

    #[test]
    fn bound_rejects_excess_jobs() {
        let q = BatchQueue::new(2, 8, Duration::from_millis(1));
        q.enqueue(req("a"), TraceCtx::off()).unwrap();
        q.enqueue(req("b"), TraceCtx::off()).unwrap();
        assert_eq!(q.enqueue(req("c"), TraceCtx::off()).unwrap_err(), EnqueueError::Full);
    }

    #[test]
    fn dispatches_partial_batch_after_delay() {
        let q = BatchQueue::new(64, 32, Duration::from_millis(5));
        let start = Instant::now();
        q.enqueue(req("lonely"), TraceCtx::off()).unwrap();
        let batch = q.next_batch().unwrap();
        assert_eq!(batch.requests.len(), 1);
        // Dispatched once the delay lapsed, not after an indefinite wait.
        assert!(start.elapsed() >= Duration::from_millis(4));
        assert!(start.elapsed() < Duration::from_secs(2));
    }

    #[test]
    fn full_batch_dispatches_before_delay() {
        let q = BatchQueue::new(64, 2, Duration::from_secs(30));
        q.enqueue(req("a"), TraceCtx::off()).unwrap();
        q.enqueue(req("b"), TraceCtx::off()).unwrap();
        let start = Instant::now();
        let batch = q.next_batch().unwrap();
        assert_eq!(batch.requests.len(), 2);
        assert!(start.elapsed() < Duration::from_secs(5), "must not wait out the delay");
    }

    #[test]
    fn shutdown_drains_then_ends() {
        let q = Arc::new(BatchQueue::new(64, 4, Duration::from_secs(30)));
        q.enqueue(req("in-flight"), TraceCtx::off()).unwrap();
        q.shutdown();
        let late = q.enqueue(req("late"), TraceCtx::off());
        assert_eq!(late.unwrap_err(), EnqueueError::ShuttingDown);
        // The queued job is still delivered (no delay wait under shutdown)…
        let batch = q.next_batch().unwrap();
        assert_eq!(batch.requests.len(), 1);
        assert_eq!(batch.requests[0].text, "in-flight");
        // …then the batcher is told to exit.
        assert!(q.next_batch().is_none());
    }

    #[test]
    fn queue_survives_a_poisoned_lock() {
        // A thread panicking while holding the state lock must not take
        // the whole server down with it: later enqueues and drains
        // recover the (still consistent) state instead of cascading the
        // panic.
        let q = Arc::new(BatchQueue::new(4, 2, Duration::from_millis(1)));
        let poisoner = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                let _guard = q.lock();
                panic!("injected panic while holding the queue lock");
            })
        };
        assert!(poisoner.join().is_err(), "poisoner thread must have panicked");
        q.enqueue(req("after-poison"), TraceCtx::off()).unwrap();
        let batch = q.next_batch().unwrap();
        assert_eq!(batch.requests[0].text, "after-poison");
        q.shutdown();
        assert!(q.next_batch().is_none(), "shutdown still works on a recovered lock");
    }

    #[test]
    fn shutdown_wakes_a_blocked_batcher() {
        let q = Arc::new(BatchQueue::new(64, 4, Duration::from_millis(1)));
        let waiter = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.next_batch().is_none())
        };
        thread::sleep(Duration::from_millis(20));
        q.shutdown();
        assert!(waiter.join().unwrap(), "blocked batcher must observe shutdown");
    }
}
