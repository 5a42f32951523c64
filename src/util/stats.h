// Streaming and batch summary statistics used by the experiment harnesses.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace mcdc {

/// Welford-style streaming accumulator: numerically stable mean/variance
/// plus min/max, usable for millions of samples without storing them.
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);

  std::size_t count() const { return n_; }
  double mean() const;
  double variance() const;  // sample variance (n-1); 0 if n < 2
  double stddev() const;
  double min() const;
  double max() const;
  double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Percentile of a sample set with linear interpolation; q in [0, 100].
/// Copies and sorts: intended for result post-processing, not hot paths.
double percentile(std::vector<double> values, double q);

/// Five-number-style summary of a sample set.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double max = 0.0;

  std::string to_string() const;
};

Summary summarize(const std::vector<double>& values);

/// Least-squares slope of log(y) vs log(x): empirical scaling exponent.
/// Used by bench_scaling to check the O(mn) claim (exponent ~= 1).
double loglog_slope(const std::vector<double>& x, const std::vector<double>& y);

}  // namespace mcdc
