//! Model `Mutex`, `RwLock`, `Condvar`, and `mpsc` channels. All establish
//! full happens-before edges the way their std counterparts do: the mutex
//! carries a clock from unlocker to next locker, the rwlock from a writer to
//! every later locker and from its readers to the next writer, a received
//! message carries the sender's clock, and `Condvar` inherits its edge from
//! the mutex re-acquisition.

use crate::rt::{self, VClock};
use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::sync::Mutex as StdMutex;
use std::time::Duration;

pub use std::sync::Arc;
pub use std::sync::{LockResult, PoisonError, TryLockError, TryLockResult};

pub mod atomic {
    pub use crate::atomic::*;
}

// ---------------------------------------------------------------- Mutex

struct MState {
    locked: bool,
    poisoned: bool,
    /// Clock of the last unlocker, joined by the next locker.
    clock: VClock,
    waiters: Vec<usize>,
}

/// Model mutex. Interior data lives in an `UnsafeCell`; exclusivity is
/// guaranteed by the `locked` flag plus the fact that only the token-holding
/// logical thread executes at any time.
pub struct Mutex<T: ?Sized> {
    s: StdMutex<MState>,
    cell: UnsafeCell<T>,
}

unsafe impl<T: ?Sized + Send> Send for Mutex<T> {}
unsafe impl<T: ?Sized + Send> Sync for Mutex<T> {}

pub struct MutexGuard<'a, T: ?Sized> {
    lock: &'a Mutex<T>,
}

impl<T> Mutex<T> {
    pub fn new(t: T) -> Self {
        Mutex {
            s: StdMutex::new(MState {
                locked: false,
                poisoned: false,
                clock: VClock::default(),
                waiters: Vec::new(),
            }),
            cell: UnsafeCell::new(t),
        }
    }

    pub fn into_inner(self) -> LockResult<T> {
        let poisoned = self.mstate(|m| m.poisoned);
        let v = self.cell.into_inner();
        if poisoned {
            Err(PoisonError::new(v))
        } else {
            Ok(v)
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    fn mstate<R>(&self, f: impl FnOnce(&mut MState) -> R) -> R {
        let mut g = self.s.lock().unwrap_or_else(|e| e.into_inner());
        f(&mut g)
    }

    /// Acquire without a scheduling point (used internally by Condvar
    /// re-acquisition, which already yielded).
    fn acquire(&self) -> bool {
        rt::with_rt(|rt, tid| loop {
            let grabbed = self.mstate(|m| {
                if m.locked {
                    m.waiters.push(tid);
                    false
                } else {
                    m.locked = true;
                    true
                }
            });
            if grabbed {
                let clock = self.mstate(|m| m.clock.clone());
                rt.join_clock(tid, &clock);
                return self.mstate(|m| m.poisoned);
            }
            rt.block(tid, false);
        })
    }

    fn release(&self) {
        rt::try_with_rt(|rt, tid| {
            let clock = rt.bump_clock(tid);
            let waiters = self.mstate(|m| {
                m.locked = false;
                m.clock = clock.clone();
                if std::thread::panicking() {
                    m.poisoned = true;
                }
                std::mem::take(&mut m.waiters)
            });
            for w in waiters {
                rt.unblock(w);
            }
        });
    }

    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        rt::schedule_point();
        let poisoned = self.acquire();
        let guard = MutexGuard { lock: self };
        if poisoned {
            Err(PoisonError::new(guard))
        } else {
            Ok(guard)
        }
    }

    pub fn try_lock(&self) -> TryLockResult<MutexGuard<'_, T>> {
        rt::schedule_point();
        let grabbed = self.mstate(|m| {
            if m.locked {
                false
            } else {
                m.locked = true;
                true
            }
        });
        if !grabbed {
            return Err(TryLockError::WouldBlock);
        }
        rt::with_rt(|rt, tid| {
            let clock = self.mstate(|m| m.clock.clone());
            rt.join_clock(tid, &clock);
        });
        let guard = MutexGuard { lock: self };
        if self.mstate(|m| m.poisoned) {
            Err(TryLockError::Poisoned(PoisonError::new(guard)))
        } else {
            Ok(guard)
        }
    }

    pub fn get_mut(&mut self) -> LockResult<&mut T> {
        let poisoned = self.mstate(|m| m.poisoned);
        let v = self.cell.get_mut();
        if poisoned {
            Err(PoisonError::new(v))
        } else {
            Ok(v)
        }
    }

    pub fn is_poisoned(&self) -> bool {
        self.mstate(|m| m.poisoned)
    }

    pub fn clear_poison(&self) {
        self.mstate(|m| m.poisoned = false);
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Mutex(model)")
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        unsafe { &*self.lock.cell.get() }
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        unsafe { &mut *self.lock.cell.get() }
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        self.lock.release();
    }
}

// --------------------------------------------------------------- RwLock

struct RwState {
    readers: usize,
    writer: bool,
    poisoned: bool,
    /// Clock of the last write unlocker, joined by every later locker.
    clock: VClock,
    /// Join of the read unlockers' clocks, joined by the next writer: a
    /// writer happens after every read it excluded.
    read_clock: VClock,
    waiters: Vec<usize>,
}

/// Model reader-writer lock: any number of readers, or one writer. Like
/// std, a writer that panics poisons it and a reader that panics does not.
pub struct RwLock<T: ?Sized> {
    s: StdMutex<RwState>,
    cell: UnsafeCell<T>,
}

unsafe impl<T: ?Sized + Send> Send for RwLock<T> {}
unsafe impl<T: ?Sized + Send + Sync> Sync for RwLock<T> {}

pub struct RwLockReadGuard<'a, T: ?Sized> {
    lock: &'a RwLock<T>,
}

pub struct RwLockWriteGuard<'a, T: ?Sized> {
    lock: &'a RwLock<T>,
}

impl<T> RwLock<T> {
    pub fn new(t: T) -> Self {
        RwLock {
            s: StdMutex::new(RwState {
                readers: 0,
                writer: false,
                poisoned: false,
                clock: VClock::default(),
                read_clock: VClock::default(),
                waiters: Vec::new(),
            }),
            cell: UnsafeCell::new(t),
        }
    }

    pub fn into_inner(self) -> LockResult<T> {
        let poisoned = self.rwstate(|m| m.poisoned);
        let v = self.cell.into_inner();
        if poisoned {
            Err(PoisonError::new(v))
        } else {
            Ok(v)
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    fn rwstate<R>(&self, f: impl FnOnce(&mut RwState) -> R) -> R {
        let mut g = self.s.lock().unwrap_or_else(|e| e.into_inner());
        f(&mut g)
    }

    /// Blocks until `grab` takes the lock, then joins the clocks `join`
    /// picks; returns whether the lock is poisoned.
    fn acquire(
        &self,
        grab: impl Fn(&mut RwState) -> bool,
        join: impl Fn(&RwState) -> VClock,
    ) -> bool {
        rt::schedule_point();
        rt::with_rt(|rt, tid| loop {
            let grabbed = self.rwstate(|m| {
                let ok = grab(m);
                if !ok {
                    m.waiters.push(tid);
                }
                ok
            });
            if grabbed {
                let clock = self.rwstate(|m| join(m));
                rt.join_clock(tid, &clock);
                return self.rwstate(|m| m.poisoned);
            }
            rt.block(tid, false);
        })
    }

    /// Releases a read (`write == false`) or the write lock.
    fn release(&self, write: bool) {
        rt::try_with_rt(|rt, tid| {
            let clock = rt.bump_clock(tid);
            let waiters = self.rwstate(|m| {
                if write {
                    m.writer = false;
                    m.clock = clock.clone();
                    if std::thread::panicking() {
                        m.poisoned = true;
                    }
                } else {
                    m.readers -= 1;
                    m.read_clock.join(&clock);
                }
                std::mem::take(&mut m.waiters)
            });
            for w in waiters {
                rt.unblock(w);
            }
        });
    }

    pub fn read(&self) -> LockResult<RwLockReadGuard<'_, T>> {
        let poisoned = self.acquire(
            |m| {
                let free = !m.writer;
                m.readers += usize::from(free);
                free
            },
            |m| m.clock.clone(),
        );
        let guard = RwLockReadGuard { lock: self };
        if poisoned {
            Err(PoisonError::new(guard))
        } else {
            Ok(guard)
        }
    }

    pub fn write(&self) -> LockResult<RwLockWriteGuard<'_, T>> {
        let poisoned = self.acquire(
            |m| {
                let free = !m.writer && m.readers == 0;
                m.writer |= free;
                free
            },
            |m| {
                let mut c = m.clock.clone();
                c.join(&m.read_clock);
                c
            },
        );
        let guard = RwLockWriteGuard { lock: self };
        if poisoned {
            Err(PoisonError::new(guard))
        } else {
            Ok(guard)
        }
    }

    pub fn is_poisoned(&self) -> bool {
        self.rwstate(|m| m.poisoned)
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RwLock(model)")
    }
}

impl<T: ?Sized> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        unsafe { &*self.lock.cell.get() }
    }
}

impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        self.lock.release(false);
    }
}

impl<T: ?Sized> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        unsafe { &*self.lock.cell.get() }
    }
}

impl<T: ?Sized> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        unsafe { &mut *self.lock.cell.get() }
    }
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        self.lock.release(true);
    }
}

// -------------------------------------------------------------- Condvar

/// Result of a timed wait. std's `WaitTimeoutResult` has no public
/// constructor, so the model defines its own API-compatible type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

#[derive(Default)]
struct CvState {
    waiters: Vec<usize>,
}

#[derive(Default)]
pub struct Condvar {
    s: StdMutex<CvState>,
}

impl Condvar {
    pub fn new() -> Self {
        Condvar::default()
    }

    fn cvstate<R>(&self, f: impl FnOnce(&mut CvState) -> R) -> R {
        let mut g = self.s.lock().unwrap_or_else(|e| e.into_inner());
        f(&mut g)
    }

    fn wait_inner<'a, T: ?Sized>(
        &self,
        guard: MutexGuard<'a, T>,
        timed: bool,
    ) -> (LockResult<MutexGuard<'a, T>>, bool) {
        rt::schedule_point();
        let mutex = guard.lock;
        // Unlock without running the guard's Drop twice.
        std::mem::forget(guard);
        mutex.release();
        // A timed wait may fire before any notify arrives: that is its own
        // explored branch, so "timeout first" schedules are covered even
        // when a notify would eventually come.
        let fire_early = timed && rt::choose(2) == 1;
        let timed_out = if fire_early {
            rt::schedule_point();
            true
        } else {
            rt::with_rt(|rt, tid| {
                self.cvstate(|c| c.waiters.push(tid));
                rt.block(tid, timed);
                let timed_out = timed && rt.take_timed_out(tid);
                if timed_out {
                    // Timed out rather than notified: withdraw from the wait
                    // list so a later notify does not target a gone waiter.
                    self.cvstate(|c| c.waiters.retain(|&w| w != tid));
                }
                timed_out
            })
        };
        let poisoned = mutex.acquire();
        let guard = MutexGuard { lock: mutex };
        let res = if poisoned {
            Err(PoisonError::new(guard))
        } else {
            Ok(guard)
        };
        (res, timed_out)
    }

    pub fn wait<'a, T: ?Sized>(&self, guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
        self.wait_inner(guard, false).0
    }

    /// Timed wait. The timeout itself is modeled as schedule-dependent: the
    /// explorer may wake the waiter spuriously-by-timeout whenever the
    /// system would otherwise be stuck, so "notify arrives" and "timeout
    /// fires first" are both explored without real clocks.
    pub fn wait_timeout<'a, T: ?Sized>(
        &self,
        guard: MutexGuard<'a, T>,
        _dur: Duration,
    ) -> LockResult<(MutexGuard<'a, T>, WaitTimeoutResult)> {
        let (res, timed_out) = self.wait_inner(guard, true);
        match res {
            Ok(g) => Ok((g, WaitTimeoutResult(timed_out))),
            Err(p) => Err(PoisonError::new((
                p.into_inner(),
                WaitTimeoutResult(timed_out),
            ))),
        }
    }

    pub fn notify_one(&self) {
        rt::schedule_point();
        rt::try_with_rt(|rt, _| {
            let w = self.cvstate(|c| {
                if c.waiters.is_empty() {
                    None
                } else {
                    Some(c.waiters.remove(0))
                }
            });
            if let Some(w) = w {
                rt.unblock(w);
            }
        });
    }

    pub fn notify_all(&self) {
        rt::schedule_point();
        rt::try_with_rt(|rt, _| {
            let ws = self.cvstate(|c| std::mem::take(&mut c.waiters));
            for w in ws {
                rt.unblock(w);
            }
        });
    }
}

impl std::fmt::Debug for Condvar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Condvar(model)")
    }
}

// ----------------------------------------------------------------- mpsc

pub mod mpsc {
    use super::*;

    pub use std::sync::mpsc::{RecvError, RecvTimeoutError, SendError, TryRecvError, TrySendError};

    struct Chan<T> {
        q: VecDeque<(T, VClock)>,
        cap: Option<usize>,
        senders: usize,
        rx_alive: bool,
        blocked_send: Vec<usize>,
        blocked_recv: Vec<usize>,
    }

    struct Shared<T> {
        s: StdMutex<Chan<T>>,
    }

    impl<T> Shared<T> {
        fn chan<R>(&self, f: impl FnOnce(&mut Chan<T>) -> R) -> R {
            let mut g = self.s.lock().unwrap_or_else(|e| e.into_inner());
            f(&mut g)
        }

        fn wake_recv(&self) {
            rt::try_with_rt(|rt, _| {
                let ws = self.chan(|c| std::mem::take(&mut c.blocked_recv));
                for w in ws {
                    rt.unblock(w);
                }
            });
        }

        fn wake_send(&self) {
            rt::try_with_rt(|rt, _| {
                let ws = self.chan(|c| std::mem::take(&mut c.blocked_send));
                for w in ws {
                    rt.unblock(w);
                }
            });
        }
    }

    pub struct Sender<T> {
        sh: Arc<Shared<T>>,
    }

    pub struct SyncSender<T> {
        sh: Arc<Shared<T>>,
    }

    pub struct Receiver<T> {
        sh: Arc<Shared<T>>,
    }

    unsafe impl<T: Send> Send for Sender<T> {}
    unsafe impl<T: Send> Send for SyncSender<T> {}
    unsafe impl<T: Send> Send for Receiver<T> {}

    pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
        let sh = Arc::new(Shared {
            s: StdMutex::new(Chan {
                q: VecDeque::new(),
                cap: None,
                senders: 1,
                rx_alive: true,
                blocked_send: Vec::new(),
                blocked_recv: Vec::new(),
            }),
        });
        (Sender { sh: sh.clone() }, Receiver { sh })
    }

    /// Bounded channel. A zero capacity (rendezvous) is modeled as capacity
    /// one — a deliberate simplification; none of the serve protocols use
    /// rendezvous hand-off.
    pub fn sync_channel<T>(cap: usize) -> (SyncSender<T>, Receiver<T>) {
        let sh = Arc::new(Shared {
            s: StdMutex::new(Chan {
                q: VecDeque::new(),
                cap: Some(cap.max(1)),
                senders: 1,
                rx_alive: true,
                blocked_send: Vec::new(),
                blocked_recv: Vec::new(),
            }),
        });
        (SyncSender { sh: sh.clone() }, Receiver { sh })
    }

    fn stamp<T>(t: T) -> (T, VClock) {
        let clock = rt::with_rt(|rt, tid| rt.bump_clock(tid));
        (t, clock)
    }

    impl<T> Sender<T> {
        pub fn send(&self, t: T) -> Result<(), SendError<T>> {
            rt::schedule_point();
            if !self.sh.chan(|c| c.rx_alive) {
                return Err(SendError(t));
            }
            let item = stamp(t);
            self.sh.chan(|c| c.q.push_back(item));
            self.sh.wake_recv();
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.sh.chan(|c| c.senders += 1);
            Sender {
                sh: self.sh.clone(),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let last = self.sh.chan(|c| {
                c.senders -= 1;
                c.senders == 0
            });
            if last {
                self.sh.wake_recv();
            }
        }
    }

    impl<T> SyncSender<T> {
        pub fn send(&self, t: T) -> Result<(), SendError<T>> {
            rt::schedule_point();
            let mut t = t;
            loop {
                enum S {
                    Sent,
                    Dead,
                    Full,
                }
                let (state, back) = {
                    let cap = self.sh.chan(|c| c.cap.unwrap_or(usize::MAX));
                    self.sh.chan(|c| {
                        if !c.rx_alive {
                            (S::Dead, Some(t))
                        } else if c.q.len() < cap {
                            c.q.push_back(stamp_in_place(t));
                            (S::Sent, None)
                        } else {
                            (S::Full, Some(t))
                        }
                    })
                };
                match state {
                    S::Sent => {
                        self.sh.wake_recv();
                        return Ok(());
                    }
                    S::Dead => return Err(SendError(back.unwrap())),
                    S::Full => {
                        t = back.unwrap();
                        rt::with_rt(|rt, tid| {
                            self.sh.chan(|c| c.blocked_send.push(tid));
                            rt.block(tid, false);
                        });
                    }
                }
            }
        }

        pub fn try_send(&self, t: T) -> Result<(), TrySendError<T>> {
            rt::schedule_point();
            let cap = self.sh.chan(|c| c.cap.unwrap_or(usize::MAX));
            let res = self.sh.chan(|c| {
                if !c.rx_alive {
                    Err(TrySendError::Disconnected(()))
                } else if c.q.len() < cap {
                    Ok(())
                } else {
                    Err(TrySendError::Full(()))
                }
            });
            match res {
                Ok(()) => {
                    let item = stamp(t);
                    self.sh.chan(|c| c.q.push_back(item));
                    self.sh.wake_recv();
                    Ok(())
                }
                Err(TrySendError::Disconnected(())) => Err(TrySendError::Disconnected(t)),
                Err(TrySendError::Full(())) => Err(TrySendError::Full(t)),
            }
        }
    }

    impl<T> Clone for SyncSender<T> {
        fn clone(&self) -> Self {
            self.sh.chan(|c| c.senders += 1);
            SyncSender {
                sh: self.sh.clone(),
            }
        }
    }

    impl<T> Drop for SyncSender<T> {
        fn drop(&mut self) {
            let last = self.sh.chan(|c| {
                c.senders -= 1;
                c.senders == 0
            });
            if last {
                self.sh.wake_recv();
            }
        }
    }

    fn stamp_in_place<T>(t: T) -> (T, VClock) {
        stamp(t)
    }

    impl<T> Receiver<T> {
        fn pop(&self) -> Option<T> {
            let item = self.sh.chan(|c| c.q.pop_front());
            item.map(|(t, clock)| {
                rt::with_rt(|rt, tid| rt.join_clock(tid, &clock));
                self.sh.wake_send();
                t
            })
        }

        pub fn recv(&self) -> Result<T, RecvError> {
            rt::schedule_point();
            loop {
                if let Some(t) = self.pop() {
                    return Ok(t);
                }
                if self.sh.chan(|c| c.senders == 0) {
                    return Err(RecvError);
                }
                rt::with_rt(|rt, tid| {
                    self.sh.chan(|c| c.blocked_recv.push(tid));
                    rt.block(tid, false);
                });
            }
        }

        /// Timed receive: an empty queue times out immediately (deliberate
        /// simplification — the model has no clock, and the serve worker
        /// loop treats `Timeout` as "poll again").
        pub fn recv_timeout(&self, _dur: Duration) -> Result<T, RecvTimeoutError> {
            rt::schedule_point();
            if let Some(t) = self.pop() {
                return Ok(t);
            }
            if self.sh.chan(|c| c.senders == 0) {
                return Err(RecvTimeoutError::Disconnected);
            }
            Err(RecvTimeoutError::Timeout)
        }

        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            rt::schedule_point();
            if let Some(t) = self.pop() {
                return Ok(t);
            }
            if self.sh.chan(|c| c.senders == 0) {
                return Err(TryRecvError::Disconnected);
            }
            Err(TryRecvError::Empty)
        }

        pub fn iter(&self) -> Iter<'_, T> {
            Iter { rx: self }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.sh.chan(|c| c.rx_alive = false);
            self.sh.wake_send();
        }
    }

    pub struct Iter<'a, T> {
        rx: &'a Receiver<T>,
    }

    impl<T> Iterator for Iter<'_, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.rx.recv().ok()
        }
    }

    impl<'a, T> IntoIterator for &'a Receiver<T> {
        type Item = T;
        type IntoIter = Iter<'a, T>;
        fn into_iter(self) -> Iter<'a, T> {
            self.iter()
        }
    }

    pub struct IntoIter<T> {
        rx: Receiver<T>,
    }

    impl<T> Iterator for IntoIter<T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.rx.recv().ok()
        }
    }

    impl<T> IntoIterator for Receiver<T> {
        type Item = T;
        type IntoIter = IntoIter<T>;
        fn into_iter(self) -> IntoIter<T> {
            IntoIter { rx: self }
        }
    }
}
