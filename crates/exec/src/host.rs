//! The serial-host cost model (the baseline side of every speedup ratio).
//!
//! The paper's speedups compare mpcgs-on-GPU against LAMARC-on-CPU. The host
//! model is deliberately simple: a single core retiring a fixed number of
//! arithmetic operations per cycle, with memory traffic absorbed into an
//! effective cycles-per-operation figure (a serial pruning likelihood is
//! compute-bound and cache-friendly, so this is a reasonable abstraction).

/// A single-core host processor model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostModel {
    /// Clock frequency in GHz.
    pub clock_ghz: f64,
    /// Average cycles retired per arithmetic operation (captures memory
    /// stalls, branch misses and instruction-level parallelism).
    pub cycles_per_op: f64,
}

impl HostModel {
    /// A contemporary workstation core (comparable to the thesis's host CPU).
    pub fn workstation() -> Self {
        HostModel { clock_ghz: 3.0, cycles_per_op: 1.4 }
    }

    /// Time in microseconds to retire `ops` operations serially.
    pub fn time_us(&self, ops: f64) -> f64 {
        // mpcgs-analyze: allow(r1, reason = "the only caller reachable from step, DeviceReport::new, passes DeviceStats::delta's modelled_host_ops, which saturates at 0")
        assert!(ops >= 0.0, "operation count must be non-negative");
        ops * self.cycles_per_op / (self.clock_ghz * 1_000.0)
    }

    /// Time in microseconds for `ops` operations spread perfectly over
    /// `cores` identical cores (used for the multi-chain baseline, which is
    /// embarrassingly parallel *outside* the burn-in).
    pub fn time_us_on_cores(&self, ops: f64, cores: usize) -> f64 {
        assert!(cores > 0, "core count must be positive");
        self.time_us(ops) / cores as f64
    }
}

impl Default for HostModel {
    fn default() -> Self {
        HostModel::workstation()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_scales_linearly_with_work() {
        let host = HostModel::workstation();
        let t1 = host.time_us(1.0e6);
        let t2 = host.time_us(2.0e6);
        assert!((t2 / t1 - 2.0).abs() < 1e-12);
        assert_eq!(host.time_us(0.0), 0.0);
    }

    #[test]
    fn workstation_throughput_is_plausible() {
        // ~2.1 Gop/s effective: one million operations near half a millisecond.
        let host = HostModel::default();
        let t = host.time_us(1.0e6);
        assert!(t > 100.0 && t < 2_000.0, "unexpected host time {t} us");
    }

    #[test]
    fn multicore_division() {
        let host = HostModel::workstation();
        assert!((host.time_us_on_cores(1e6, 4) - host.time_us(1e6) / 4.0).abs() < 1e-12);
        assert_eq!(host.time_us_on_cores(1e6, 1), host.time_us(1e6));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_work_is_rejected() {
        HostModel::workstation().time_us(-1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_cores_is_rejected() {
        HostModel::workstation().time_us_on_cores(1.0, 0);
    }
}
