//! Helpers of the s2d benchmark that carry no workload logic: order
//! statistics, the in-memory span tracer, process accounting read from
//! `/proc`, host provenance, a seeded generator for inputs and the
//! host-speed reference product. The workloads themselves live in the
//! binary (`src/main.rs`).

pub mod catalogue;
pub mod stats;
pub mod sys;
pub mod trace;

/// SplitMix64: a tiny seeded generator for right-hand sides and
/// arrival jitter, so the benchmark's inputs depend on `--seed` alone.
#[derive(Clone, Debug)]
pub struct SeedRng(u64);

impl SeedRng {
    /// A generator whose stream is fixed by `seed` and `stream` (one
    /// stream per independent input family of a workload).
    pub fn new(seed: u64, stream: u64) -> SeedRng {
        let mut r = SeedRng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    pub fn next_signed(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

    /// A vector of `n` values uniform in `[-1, 1)`.
    pub fn vector(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.next_signed()).collect()
    }
}

/// `y = A·x` for a CSR matrix given by its arrays, as the plainest
/// sequential loop. This is the benchmark's host-speed reference: it is
/// the benchmark's own code, so no change to the program moves it, and
/// it streams the same matrix the workload does, so a host that slows
/// down slows it alike. End-to-end times are reported as multiples of
/// it (see [`reference_product_on`] for the multi-threaded form).
///
/// # Panics
/// Panics when the arrays disagree in length or a column index is out
/// of range for `x`.
pub fn reference_product(
    rowptr: &[usize],
    colind: &[u32],
    values: &[f64],
    x: &[f64],
    y: &mut [f64],
) {
    assert_eq!(rowptr.len(), y.len() + 1, "one row pointer per row plus one");
    assert_eq!(colind.len(), values.len(), "one column index per value");
    for (i, yi) in y.iter_mut().enumerate() {
        let mut sum = 0.0;
        for e in rowptr[i]..rowptr[i + 1] {
            sum += values[e] * x[colind[e] as usize];
        }
        *yi = sum;
    }
}

/// [`reference_product`] over `threads` contiguous row blocks, one
/// scoped thread each (the calling thread alone for `threads <= 1`), so
/// the reference loads the host like a workload running that many
/// threads.
pub fn reference_product_on(
    threads: usize,
    rowptr: &[usize],
    colind: &[u32],
    values: &[f64],
    x: &[f64],
    y: &mut [f64],
) {
    let n = y.len();
    if threads <= 1 || n < threads {
        return reference_product(rowptr, colind, values, x, y);
    }
    std::thread::scope(|s| {
        let mut rest = y;
        let mut lo = 0;
        for t in 0..threads {
            let hi = (t + 1) * n / threads;
            let (mine, tail) = rest.split_at_mut(hi - lo);
            rest = tail;
            let rows = &rowptr[lo..=hi];
            s.spawn(move || reference_product(rows, colind, values, x, mine));
            lo = hi;
        }
    });
}
