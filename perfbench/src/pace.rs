//! Host-speed calibration.
//!
//! A shared VM runs the same code at different speeds from one minute to
//! the next: the hypervisor takes its CPUs away (steal), and other
//! tenants share its caches and memory bandwidth.  Ten runs of one
//! workload, a minute or more apart, then spread by more than any change
//! worth measuring.  So the benchmark runs a fixed reference kernel, the
//! probe, between the units of work it times, and scales each unit's
//! time to the host's reference speed: time × the probe's reference time
//! ÷ the mean of the probe's times just before and just after the unit.
//!
//! The probe belongs to the benchmark, not to the program: no change to
//! the engine changes it.  It does on fixed data what a DSMC step does —
//! move, bin into cells, counting-sort, pair and scatter into cells —
//! over a working set the size of the QUICK wedge's columns, so the
//! host's slow spells slow it about as much as they slow the engine.

use std::hint::black_box;
use std::time::Instant;

/// Elements the probe moves and sorts per pass (about 2.2 MB of state).
pub const PROBE_ELEMENTS: usize = 80_000;

/// A pass's typical time per element on the reference host (the 2-core
/// Xeon KVM guest of `perfbench/README.md`).  A calibrated time reads as
/// what the unit takes on that host when it runs at its typical speed.
pub const REFERENCE_NS_PER_ELEMENT: f64 = 14.0;

/// The probe's grid: the paper's 98 × 64 cells.
const W: usize = 98;
const H: usize = 64;

/// The reference kernel.
struct Probe {
    x: Vec<f32>,
    y: Vec<f32>,
    u: Vec<f32>,
    v: Vec<f32>,
    cell: Vec<u32>,
    order: Vec<u32>,
    count: Vec<u32>,
    acc: Vec<f32>,
}

impl Probe {
    fn new(n: usize) -> Self {
        let mut s = 0x1234_5678_9abc_def0_u64;
        let mut unit = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 40) as f32 / (1u64 << 24) as f32
        };
        let mut p = Probe {
            x: Vec::with_capacity(n),
            y: Vec::with_capacity(n),
            u: Vec::with_capacity(n),
            v: Vec::with_capacity(n),
            cell: vec![0; n],
            order: vec![0; n],
            count: vec![0; W * H + 1],
            acc: vec![0.0; W * H],
        };
        for _ in 0..n {
            p.x.push(unit() * W as f32);
            p.y.push(unit() * H as f32);
            p.u.push(unit() - 0.5);
            p.v.push(unit() - 0.5);
        }
        p
    }

    /// One pass: move with periodic x and specular y walls, bin, sort by
    /// cell, rotate each sorted neighbour pair's relative velocity (which
    /// keeps speeds bounded) and accumulate `u` per cell.
    fn pass(&mut self) -> f32 {
        let (w, h) = (W as f32, H as f32);
        for i in 0..self.x.len() {
            let mut x = self.x[i] + self.u[i];
            let mut y = self.y[i] + self.v[i];
            if x < 0.0 {
                x += w;
            } else if x >= w {
                x -= w;
            }
            if y < 0.0 {
                y = -y;
                self.v[i] = -self.v[i];
            } else if y >= h {
                y = 2.0 * h - y - 1e-3;
                self.v[i] = -self.v[i];
            }
            self.x[i] = x;
            self.y[i] = y;
            self.cell[i] = (y as u32).min(H as u32 - 1) * W as u32 + (x as u32).min(W as u32 - 1);
        }
        self.count.fill(0);
        for &c in &self.cell {
            self.count[c as usize + 1] += 1;
        }
        for c in 1..self.count.len() {
            self.count[c] += self.count[c - 1];
        }
        for (i, &c) in self.cell.iter().enumerate() {
            let slot = &mut self.count[c as usize];
            self.order[*slot as usize] = i as u32;
            *slot += 1;
        }
        for pair in self.order.chunks_exact(2) {
            let (a, b) = (pair[0] as usize, pair[1] as usize);
            let (cu, cv) = (0.5 * (self.u[a] + self.u[b]), 0.5 * (self.v[a] + self.v[b]));
            let (du, dv) = (self.u[a] - cu, self.v[a] - cv);
            self.u[a] = cu - dv;
            self.v[a] = cv + du;
            self.u[b] = cu + dv;
            self.v[b] = cv - du;
        }
        for (&c, &u) in self.cell.iter().zip(&self.u) {
            self.acc[c as usize] += u;
        }
        self.acc.iter().sum()
    }
}

/// Probe passes run before the first factor is taken.
const WARM_UP: usize = 3;

/// The calibration clock of one run.
pub struct Pace {
    probe: Probe,
    reference_ms: f64,
    /// Speed factor of the latest probe.
    last: f64,
    /// Every probe's speed factor, in order.
    factors: Vec<f64>,
}

impl Pace {
    pub fn new() -> Self {
        let mut probe = Probe::new(PROBE_ELEMENTS);
        for _ in 0..WARM_UP {
            black_box(probe.pass());
        }
        let mut p = Self {
            probe,
            reference_ms: PROBE_ELEMENTS as f64 * REFERENCE_NS_PER_ELEMENT * 1e-6,
            last: 1.0,
            factors: Vec::new(),
        };
        p.open();
        p
    }

    /// Run the probe: the host's speed now, as reference ÷ probe time.
    pub fn sample(&mut self) -> f64 {
        let t = Instant::now();
        black_box(self.probe.pass());
        let f = self.reference_ms / (t.elapsed().as_secs_f64() * 1e3);
        self.factors.push(f);
        f
    }

    /// Probe before a unit of work that does not follow another closed
    /// unit directly.
    pub fn open(&mut self) {
        self.last = self.sample();
    }

    /// Probe after a unit of work and return the factor its times are
    /// multiplied by: the mean of the speeds before and after it.  The
    /// probe also opens the next unit.
    pub fn close(&mut self) -> f64 {
        let now = self.sample();
        let f = 0.5 * (self.last + now);
        self.last = now;
        f
    }

    /// Time `work` as one unit: its result, its wall seconds, and its
    /// calibrated seconds.
    pub fn time<T>(&mut self, work: impl FnOnce() -> T) -> (T, f64, f64) {
        self.open();
        let t = Instant::now();
        let r = work();
        let raw = t.elapsed().as_secs_f64();
        (r, raw, raw * self.close())
    }

    /// Median speed factor over every probe of the run.
    pub fn speed(&self) -> f64 {
        crate::stats::median(&self.factors)
    }

    /// Probes run so far.
    pub fn probes(&self) -> usize {
        self.factors.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_probe_is_deterministic() {
        let run = || {
            let mut p = Probe::new(1_000);
            (0..5).map(|_| p.pass()).last().unwrap().to_bits()
        };
        assert_eq!(run(), run());
        let mut p = Probe::new(1_000);
        for _ in 0..50 {
            p.pass();
        }
        assert!(p
            .u
            .iter()
            .chain(&p.v)
            .all(|s| s.is_finite() && s.abs() < 2.0));
        assert!(p.cell.iter().all(|&c| (c as usize) < W * H));
    }

    #[test]
    fn a_unit_is_scaled_by_the_mean_of_its_probes() {
        let mut p = Pace::new();
        let n = p.probes();
        let (v, raw, cal) = p.time(|| 7);
        assert_eq!(v, 7);
        assert_eq!(p.probes(), n + 2);
        let (a, b) = (p.factors[n], p.factors[n + 1]);
        assert!((cal - raw * 0.5 * (a + b)).abs() <= 1e-12 * raw.max(1.0));
        assert!(p.speed() > 0.0 && p.speed().is_finite());
    }
}
