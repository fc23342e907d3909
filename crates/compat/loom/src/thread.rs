//! Model threads: each `loom::thread::spawn` creates a real OS thread, but
//! it only runs while holding the scheduler token, so spawning is a
//! scheduling choice like any other.

use crate::rt;
use std::marker::PhantomData;
use std::time::Duration;

pub struct JoinHandle<T> {
    tid: usize,
    thread: Thread,
    _p: PhantomData<T>,
}

/// A model thread, as `std::thread::Thread` describes one: by its name.
#[derive(Debug, Clone)]
pub struct Thread {
    name: Option<String>,
}

impl Thread {
    pub fn name(&self) -> Option<&str> {
        self.name.as_deref()
    }
}

impl<T> JoinHandle<T> {
    pub fn thread(&self) -> &Thread {
        &self.thread
    }
}

impl<T: 'static> JoinHandle<T> {
    pub fn join(self) -> std::thread::Result<T> {
        rt::schedule_point();
        rt::with_rt(|rt, tid| match rt.join_thread(tid, self.tid) {
            Ok(boxed) => Ok(*boxed.downcast::<T>().expect("join result type mismatch")),
            Err(p) => Err(p),
        })
    }
}

#[derive(Default)]
pub struct Builder {
    name: Option<String>,
}

impl Builder {
    pub fn new() -> Self {
        Builder::default()
    }

    pub fn name(mut self, name: String) -> Self {
        self.name = Some(name);
        self
    }

    pub fn stack_size(self, _bytes: usize) -> Self {
        self
    }

    pub fn spawn<F, T>(self, f: F) -> std::io::Result<JoinHandle<T>>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        Ok(spawn_named(f, self.name))
    }
}

pub fn spawn<F, T>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    spawn_named(f, None)
}

fn spawn_named<F, T>(f: F, name: Option<String>) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    rt::schedule_point();
    rt::with_rt(|rt, tid| {
        let child = rt.register_thread(Some(tid), name.clone());
        let rt2 = rt.clone();
        let os_name = name.clone().unwrap_or_else(|| format!("loom-{child}"));
        let body: Box<dyn FnOnce() -> Box<dyn std::any::Any + Send> + Send> =
            Box::new(move || Box::new(f()) as Box<dyn std::any::Any + Send>);
        let h = std::thread::Builder::new()
            .name(os_name)
            .spawn(move || rt2.thread_main(child, body))
            .expect("spawn loom thread");
        rt.add_handle(h);
        JoinHandle {
            tid: child,
            thread: Thread { name },
            _p: PhantomData,
        }
    })
}

/// Scheduling point only; the model has no time.
pub fn sleep(_dur: Duration) {
    rt::schedule_point();
}

pub fn yield_now() {
    rt::schedule_point();
}

pub fn panicking() -> bool {
    std::thread::panicking()
}
