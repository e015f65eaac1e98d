//! Figure 1: file access distributions for the (synthetic) Microsoft
//! traces vs Filebench's uniform policy.
//!
//! Prints the cumulative fraction of accesses going to the top-X % of
//! files, for the three trace devices and the uniform distribution.

use crate::cell::Ran;
use crate::{f2, BenchResult, Report, Sink};
use workloads::{cdf_at, ms_trace_weights};

/// Computes the figure. `scale` is unused: the figure is a property of
/// the access distributions, not of the simulated device.
pub fn render(_scale: u64, _: &[&Ran], sink: &mut Sink) -> BenchResult<Vec<Report>> {
    let n = 50_000;
    let fractions = [0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 1.0];
    let mut report = Report::new(
        "fig1_distributions",
        &[
            "top_frac_of_files",
            "dev0",
            "dev1",
            "dev2",
            "filebench_uniform",
        ],
    );
    report.print_header(sink);
    let devs: Vec<Vec<f64>> = (0..3).map(|d| ms_trace_weights(n, d)).collect();
    let uniform = vec![1.0; n];
    for &f in &fractions {
        report.row(
            sink,
            &[
                f2(f),
                f2(cdf_at(&devs[0], f)),
                f2(cdf_at(&devs[1], f)),
                f2(cdf_at(&devs[2], f)),
                f2(cdf_at(&uniform, f)),
            ],
        );
    }
    sink.line(
        "\nPaper shape: the trace devices are highly skewed (most accesses \
         hit a small fraction of files); Filebench's uniform policy is the \
         diagonal.",
    );
    Ok(vec![report])
}
