//! Minimal scoped data-parallelism helpers built on [`std::thread::scope`].
//!
//! GNN inference kernels are embarrassingly parallel over matrix rows.
//! Rather than pulling in a work-stealing pool, we split the row range into
//! contiguous chunks, run the first on the calling thread and each other
//! on a scoped thread, and join ([`par_parts`]). Scoped threads let us
//! borrow the input matrices without `Arc` gymnastics.

/// Work below this many "cells" (rows × cost hint) runs sequentially.
///
/// Workers are scoped OS threads (no persistent pool), so each parallel
/// section pays thread spawn + join (~100 µs). That only amortises for
/// kernels in the ≥ milliseconds range — roughly a million multiply-adds —
/// hence the high threshold: classifier-sized matmuls run sequentially,
/// large SpMM frontiers and full-graph propagation parallelise.
pub const PAR_THRESHOLD: usize = 1 << 20;

/// Returns the number of worker threads to use for a task of the given size.
///
/// `work` is an approximate element count (e.g. `rows * cols`). Small tasks
/// get one thread; large tasks use the machine's available parallelism,
/// capped so each thread receives at least `PAR_THRESHOLD` work.
pub fn thread_count(work: usize) -> usize {
    if work < PAR_THRESHOLD {
        return 1;
    }
    hardware_threads().min(work / PAR_THRESHOLD).max(1)
}

/// The machine's available parallelism, read once per process:
/// `available_parallelism` re-reads the cgroup quota on every call
/// (tens of µs).
fn hardware_threads() -> usize {
    static HW: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *HW.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Runs `f(start_row, out_chunk)` over disjoint chunks of `out`,
/// splitting `out` by rows of width `row_width`.
///
/// `out.len()` must be a multiple of `row_width`. The closure receives the
/// global starting row of its chunk so it can index shared inputs.
///
/// # Panics
/// Panics if `row_width == 0` or `out.len() % row_width != 0`.
pub fn par_rows_mut<F>(out: &mut [f32], row_width: usize, cost_hint: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    assert!(row_width > 0, "row_width must be positive");
    assert_eq!(
        out.len() % row_width,
        0,
        "output length {} not a multiple of row width {}",
        out.len(),
        row_width
    );
    let rows = out.len() / row_width;
    if rows == 0 {
        return;
    }
    let threads = thread_count(rows.saturating_mul(cost_hint.max(1)));
    if threads <= 1 {
        f(0, out);
        return;
    }
    let rows_per = rows.div_ceil(threads);
    let chunks = out.chunks_mut(rows_per * row_width);
    par_parts(chunks, |i, chunk| f(i * rows_per, chunk));
}

/// Runs `f(i, part)` on every part, in parallel, and returns the
/// results in order. The calling thread runs the first part and one
/// scoped thread each of the others, so a single part spawns nothing. A
/// part's panic resumes on the caller once every thread has joined.
pub fn par_parts<P, R, F>(parts: impl IntoIterator<Item = P>, f: F) -> Vec<R>
where
    P: Send,
    R: Send,
    F: Fn(usize, P) -> R + Sync,
{
    let mut parts = parts.into_iter().enumerate();
    let Some((_, first)) = parts.next() else {
        return Vec::new();
    };
    let f = &f;
    std::thread::scope(|scope| {
        let others: Vec<_> = parts
            .map(|(i, part)| scope.spawn(move || f(i, part)))
            .collect();
        std::iter::once(f(0, first))
            .chain(
                others
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e))),
            )
            .collect()
    })
}

/// Parallel map over an index range, collecting results in order.
///
/// Used for per-node reductions (e.g. row norms) where each output is a
/// single value.
pub fn par_map_range<T, F>(n: usize, cost_hint: usize, f: F) -> Vec<T>
where
    T: Send + Default + Clone,
    F: Fn(usize) -> T + Sync,
{
    let mut out = vec![T::default(); n];
    let threads = thread_count(n.saturating_mul(cost_hint.max(1)));
    if threads <= 1 {
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = f(i);
        }
        return out;
    }
    let per = n.div_ceil(threads);
    par_parts(out.chunks_mut(per), |i, chunk| {
        for (off, slot) in chunk.iter_mut().enumerate() {
            *slot = f(i * per + off);
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_rows_mut_covers_all_rows_once() {
        let rows = 1000;
        let width = 8;
        let mut out = vec![0.0f32; rows * width];
        par_rows_mut(&mut out, width, PAR_THRESHOLD, |row0, chunk| {
            for (r, row) in chunk.chunks_mut(width).enumerate() {
                for v in row.iter_mut() {
                    *v += (row0 + r) as f32;
                }
            }
        });
        for (r, row) in out.chunks(width).enumerate() {
            assert!(row.iter().all(|&v| v == r as f32), "row {r} wrong: {row:?}");
        }
    }

    #[test]
    fn par_rows_mut_sequential_small() {
        let mut out = vec![0.0f32; 4];
        par_rows_mut(&mut out, 2, 1, |row0, chunk| {
            assert_eq!(row0, 0);
            chunk.fill(1.0);
        });
        assert_eq!(out, vec![1.0; 4]);
    }

    #[test]
    fn par_rows_mut_empty_output_is_noop() {
        let mut out: Vec<f32> = vec![];
        par_rows_mut(&mut out, 3, 100, |_, _| panic!("must not be called"));
    }

    #[test]
    #[should_panic(expected = "multiple of row width")]
    fn par_rows_mut_rejects_ragged() {
        let mut out = vec![0.0f32; 5];
        par_rows_mut(&mut out, 2, 1, |_, _| {});
    }

    #[test]
    fn par_parts_returns_results_in_order() {
        let caller = std::thread::current().id();
        let got = par_parts(0..5, |i, part| {
            assert_eq!(i, part);
            (part * 10, std::thread::current().id() == caller)
        });
        let values: Vec<usize> = got.iter().map(|&(v, _)| v).collect();
        assert_eq!(values, vec![0, 10, 20, 30, 40]);
        let on_caller: Vec<bool> = got.iter().map(|&(_, c)| c).collect();
        assert_eq!(on_caller, vec![true, false, false, false, false]);
        assert!(par_parts(std::iter::empty::<u8>(), |_, p| p).is_empty());
    }

    #[test]
    #[should_panic(expected = "part 3 failed")]
    fn par_parts_resumes_a_parts_panic() {
        par_parts(0..4, |i, _| {
            assert!(i != 3, "part {i} failed");
        });
    }

    #[test]
    fn par_map_range_matches_sequential() {
        let got = par_map_range(10_000, 64, |i| (i * 3) as u64);
        for (i, v) in got.iter().enumerate() {
            assert_eq!(*v, (i * 3) as u64);
        }
    }

    #[test]
    fn thread_count_is_one_for_tiny_work() {
        assert_eq!(thread_count(10), 1);
        assert!(thread_count(PAR_THRESHOLD * 64) >= 1);
    }
}
