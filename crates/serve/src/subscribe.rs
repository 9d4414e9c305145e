//! Standing-view subscriptions: bounded, non-blocking fan-out of
//! [`ViewUpdate`] batches from the router's epoch barrier to client
//! subscribers.
//!
//! The cardinal rule is that **an install never blocks on a
//! consumer**: the epoch barrier holds the router's write lock, so a
//! stalled subscriber must shed, not backpressure. Each subscriber
//! owns a bounded queue ([`AdmissionConfig::subscriber_buffer`]); when
//! a push finds the queue full, the *oldest* update drops, the
//! `view.lagged` counter ticks, and the subscriber's next receive
//! reports a typed [`ViewLag`] before resuming delivery. Every
//! [`ViewUpdate`] carries the view's full patched answer, so any
//! single update is a valid resync point after a lag — subscribers
//! lose intermediate diffs, never consistency.
//!
//! [`AdmissionConfig::subscriber_buffer`]: crate::AdmissionConfig::subscriber_buffer

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Mutex};

use kb_obs::Counter;
use kb_query::{ViewId, ViewUpdate};

use crate::lock::lock;

/// A subscriber fell behind: `missed` updates were dropped (oldest
/// first) since its last receive. The next received update carries the
/// view's full answer, so recovery is just "keep reading".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ViewLag {
    /// Updates dropped since the subscriber last kept up.
    pub missed: u64,
}

impl fmt::Display for ViewLag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "subscriber lagged: {} update(s) dropped", self.missed)
    }
}

impl std::error::Error for ViewLag {}

struct SubState {
    queue: VecDeque<Arc<ViewUpdate>>,
    missed: u64,
}

struct SubInner {
    view: ViewId,
    capacity: usize,
    state: Mutex<SubState>,
}

/// The receiving end of one standing-view subscription. Dropping it
/// unsubscribes (the hub prunes orphaned queues on the next push).
pub struct Subscription {
    inner: Arc<SubInner>,
}

impl Subscription {
    /// The view this subscription follows.
    pub fn view(&self) -> ViewId {
        self.inner.view
    }

    /// Pops the oldest pending update. Reports [`ViewLag`] first —
    /// exactly once per lag episode — when updates were shed since the
    /// last receive; `Ok(None)` means the queue is currently empty.
    pub fn try_recv(&self) -> Result<Option<Arc<ViewUpdate>>, ViewLag> {
        let mut st = lock(&self.inner.state);
        if st.missed > 0 {
            let missed = st.missed;
            st.missed = 0;
            return Err(ViewLag { missed });
        }
        Ok(st.queue.pop_front())
    }

    /// Updates currently queued.
    pub fn len(&self) -> usize {
        lock(&self.inner.state).queue.len()
    }

    /// Whether no updates are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The router's side of all subscriptions: push-only, never blocking.
pub(crate) struct SubscriptionHub {
    subs: Mutex<Vec<Arc<SubInner>>>,
    pushed: Arc<Counter>,
    lagged: Arc<Counter>,
}

impl SubscriptionHub {
    pub(crate) fn new(pushed: Arc<Counter>, lagged: Arc<Counter>) -> Self {
        SubscriptionHub { subs: Mutex::new(Vec::new()), pushed, lagged }
    }

    /// Opens a subscription on `view` with a queue bound of
    /// `capacity` updates (floored at 1 — a zero-capacity queue could
    /// never deliver anything).
    pub(crate) fn subscribe(&self, view: ViewId, capacity: usize) -> Subscription {
        let inner = Arc::new(SubInner {
            view,
            capacity: capacity.max(1),
            state: Mutex::new(SubState { queue: VecDeque::new(), missed: 0 }),
        });
        lock(&self.subs).push(Arc::clone(&inner));
        Subscription { inner }
    }

    /// Fans one install's update batch out to every live subscriber of
    /// each updated view. Bounded work, no waiting: full queues shed
    /// their oldest entry instead of blocking the epoch barrier.
    pub(crate) fn push(&self, updates: Vec<ViewUpdate>) {
        if updates.is_empty() {
            return;
        }
        let mut subs = lock(&self.subs);
        // A strong count of 1 means the `Subscription` handle is gone.
        subs.retain(|s| Arc::strong_count(s) > 1);
        for update in updates {
            let update = Arc::new(update);
            for sub in subs.iter() {
                if sub.view != update.id {
                    continue;
                }
                let mut st = lock(&sub.state);
                if st.queue.len() >= sub.capacity {
                    st.queue.pop_front();
                    st.missed += 1;
                    self.lagged.inc();
                }
                st.queue.push_back(Arc::clone(&update));
                self.pushed.inc();
            }
        }
    }
}
