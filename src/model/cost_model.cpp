#include "model/cost_model.h"

#include <charconv>
#include <cmath>
#include <cstddef>
#include <limits>

#include "util/contracts.h"
#include "util/kvform.h"

namespace mcdc {
namespace {

constexpr const char* kCtx = "HeterogeneousCostModel";
constexpr const char* kKeys = "mu|lam|tier|metric";

// Thin context-binding shims over util/kvform.h (shared with EngineConfig /
// ScenarioConfig): same shortest-round-trip floats, whole-token parses, and
// error shapes; this file only pins the surface name.

using kvform::fmt_double;

[[noreturn]] void fail(const std::string& msg) {
  throw std::invalid_argument(std::string(kCtx) + ": " + msg);
}

[[noreturn]] void bad_value(const std::string& key, const std::string& value,
                            const std::string& expected) {
  kvform::bad_value(kCtx, key, value, expected);
}

std::vector<double> parse_list(const std::string& key,
                               const std::string& value) {
  std::vector<double> out;
  for (const std::string& tok : kvform::split(value, '|')) {
    out.push_back(kvform::parse_f64(kCtx, key, tok, "a number"));
  }
  return out;
}

std::size_t flat(int m, int j, int k) {
  return static_cast<std::size_t>(j) * static_cast<std::size_t>(m) +
         static_cast<std::size_t>(k);
}

}  // namespace

HeterogeneousCostModel::HeterogeneousCostModel(int m, const CostModel& base) {
  if (m <= 0) fail("m must be > 0");
  m_ = m;
  mu_.assign(static_cast<std::size_t>(m), base.mu);
  lambda_.assign(static_cast<std::size_t>(m) * static_cast<std::size_t>(m),
                 base.lambda);
  for (int j = 0; j < m; ++j) lambda_[flat(m, j, j)] = 0.0;
  validate_and_index(Options{});
  if (m_ == 1) {
    // A single server has no transfer pairs; pin the derived quantities to
    // the base so the lift stays faithful even in the degenerate case.
    cheapest_in_[0] = base.lambda;
    min_lambda_ = max_lambda_ = base.lambda;
  }
  // A homogeneous lift must round-trip: cross-check tests depend on it.
  MCDC_INVARIANT(is_exactly_homogeneous(),
                 "homogeneous-equivalent constructor produced a "
                 "non-homogeneous model (m=%d)", m);
}

HeterogeneousCostModel::HeterogeneousCostModel(
    std::vector<double> mu, std::vector<std::vector<double>> lambda,
    Options options) {
  if (mu.empty()) fail("empty mu");
  if (lambda.size() != mu.size()) {
    fail("lambda shape mismatch: " + std::to_string(lambda.size()) +
         " rows for m=" + std::to_string(mu.size()));
  }
  m_ = static_cast<int>(mu.size());
  mu_ = std::move(mu);
  lambda_.assign(static_cast<std::size_t>(m_) * static_cast<std::size_t>(m_),
                 0.0);
  for (int j = 0; j < m_; ++j) {
    const auto& row = lambda[static_cast<std::size_t>(j)];
    if (row.size() != mu_.size()) {
      fail("lambda row " + std::to_string(j) + " has " +
           std::to_string(row.size()) + " entries (expected " +
           std::to_string(m_) + ")");
    }
    for (int k = 0; k < m_; ++k) {
      if (j != k) lambda_[flat(m_, j, k)] = row[static_cast<std::size_t>(k)];
    }
  }
  validate_and_index(options);
}

HeterogeneousCostModel HeterogeneousCostModel::edge_cloud(
    int edge_servers, int cloud_servers, double mu_edge, double mu_cloud,
    double lambda_edge, double lambda_cross, double lambda_cloud,
    Options options) {
  if (edge_servers < 0 || cloud_servers < 0 ||
      edge_servers + cloud_servers <= 0) {
    fail("edge_cloud: tier sizes must be >= 0 and sum to >= 1 (got " +
         std::to_string(edge_servers) + " edge, " +
         std::to_string(cloud_servers) + " cloud)");
  }
  const int m = edge_servers + cloud_servers;
  std::vector<double> mu;
  mu.reserve(static_cast<std::size_t>(m));
  for (int s = 0; s < m; ++s) {
    mu.push_back(s < edge_servers ? mu_edge : mu_cloud);
  }
  std::vector<std::vector<double>> lam(
      static_cast<std::size_t>(m),
      std::vector<double>(static_cast<std::size_t>(m), 0.0));
  for (int j = 0; j < m; ++j) {
    for (int k = 0; k < m; ++k) {
      if (j == k) continue;
      const bool je = j < edge_servers;
      const bool ke = k < edge_servers;
      lam[static_cast<std::size_t>(j)][static_cast<std::size_t>(k)] =
          je == ke ? (je ? lambda_edge : lambda_cloud) : lambda_cross;
    }
  }
  return HeterogeneousCostModel(std::move(mu), std::move(lam), options);
}

void HeterogeneousCostModel::validate_and_index(const Options& options) {
  for (int s = 0; s < m_; ++s) {
    const double v = mu_[static_cast<std::size_t>(s)];
    if (!std::isfinite(v) || v <= 0) {
      fail("mu[" + std::to_string(s) + "] must be a finite value > 0 (got " +
           fmt_double(v) + ")");
    }
  }
  min_lambda_ = 0.0;
  max_lambda_ = 0.0;
  bool first = true;
  for (int j = 0; j < m_; ++j) {
    for (int k = 0; k < m_; ++k) {
      if (j == k) continue;
      const double v = lambda_[flat(m_, j, k)];
      if (!std::isfinite(v) || v <= 0) {
        fail("lambda(" + std::to_string(j) + "," + std::to_string(k) +
             ") must be a finite value > 0 (got " + fmt_double(v) + ")");
      }
      if (first || v < min_lambda_) min_lambda_ = v;
      if (first || v > max_lambda_) max_lambda_ = v;
      first = false;
    }
  }
  cheapest_in_.assign(static_cast<std::size_t>(m_), 0.0);
  for (int k = 0; k < m_; ++k) {
    double best = 0.0;
    bool any = false;
    for (int j = 0; j < m_; ++j) {
      if (j == k) continue;
      const double v = lambda_[flat(m_, j, k)];
      if (!any || v < best) best = v;
      any = true;
    }
    cheapest_in_[static_cast<std::size_t>(k)] = best;
  }
  metric_checked_ = options.require_metric;
  if (!options.require_metric || m_ < 3) return;
  // Triangle inequality with a hair of relative slack for FP-constructed
  // matrices (distances computed from coordinates round both sides).
  for (int j = 0; j < m_; ++j) {
    for (int l = 0; l < m_; ++l) {
      if (j == l) continue;
      const double direct = lambda_[flat(m_, j, l)];
      for (int k = 0; k < m_; ++k) {
        if (k == j || k == l) continue;
        const double via =
            lambda_[flat(m_, j, k)] + lambda_[flat(m_, k, l)];
        if (direct > via * (1.0 + 1e-12)) {
          fail("lambda violates the triangle inequality: lambda(" +
               std::to_string(j) + "," + std::to_string(l) + ")=" +
               fmt_double(direct) + " > lambda(" + std::to_string(j) + "," +
               std::to_string(k) + ")+lambda(" + std::to_string(k) + "," +
               std::to_string(l) + ")=" + fmt_double(via) +
               " (Options{require_metric=false} accepts non-metric costs)");
        }
      }
    }
  }
}

bool HeterogeneousCostModel::is_homogeneous() const {
  const double mu0 = mu_[0];
  for (double v : mu_) {
    if (!almost_equal(v, mu0)) return false;
  }
  double l0 = -1.0;
  for (int j = 0; j < m_; ++j) {
    for (int k = 0; k < m_; ++k) {
      if (j == k) continue;
      const double v = lambda_[flat(m_, j, k)];
      if (l0 < 0) l0 = v;
      if (!almost_equal(v, l0)) return false;
    }
  }
  return true;
}

bool HeterogeneousCostModel::is_exactly_homogeneous() const {
  for (double v : mu_) {
    if (v != mu_[0]) return false;
  }
  double l0 = -1.0;
  for (int j = 0; j < m_; ++j) {
    for (int k = 0; k < m_; ++k) {
      if (j == k) continue;
      const double v = lambda_[flat(m_, j, k)];
      if (l0 < 0) l0 = v;
      if (v != l0) return false;
    }
  }
  return true;
}

CostModel HeterogeneousCostModel::as_homogeneous() const {
  return CostModel(mu_[0], m_ > 1 ? lambda_[flat(m_, 0, 1)] : 1.0);
}

std::string HeterogeneousCostModel::to_string() const {
  std::string out = "mu=";
  for (int s = 0; s < m_; ++s) {
    if (s > 0) out += '|';
    out += fmt_double(mu_[static_cast<std::size_t>(s)]);
  }
  out += ";lam=";
  for (std::size_t i = 0; i < lambda_.size(); ++i) {
    if (i > 0) out += '|';
    out += fmt_double(lambda_[i]);
  }
  if (!metric_checked_) out += ";metric=off";
  return out;
}

HeterogeneousCostModel HeterogeneousCostModel::parse(const std::string& spec) {
  std::vector<double> mu;
  std::vector<double> lam;
  bool have_mu = false;
  bool have_lam = false;
  bool have_tier = false;
  int tier_edge = 0;
  int tier_cloud = 0;
  Options options;
  kvform::for_each_kv(kCtx, spec, ';', kKeys, [&](const std::string& key,
                                                  const std::string& value) {
    if (key == "mu") {
      mu = parse_list(key, value);
      have_mu = true;
    } else if (key == "lam") {
      lam = parse_list(key, value);
      have_lam = true;
    } else if (key == "tier") {
      const std::size_t x = value.find('x');
      bool ok = x != std::string::npos && x > 0 && x + 1 < value.size();
      if (ok) {
        const auto parse_count = [&](const std::string& part, int* out_count) {
          const char* begin = part.data();
          const char* end = begin + part.size();
          const auto res = std::from_chars(begin, end, *out_count);
          return res.ec == std::errc() && res.ptr == end && *out_count >= 0;
        };
        ok = parse_count(value.substr(0, x), &tier_edge) &&
             parse_count(value.substr(x + 1), &tier_cloud) &&
             tier_edge <= std::numeric_limits<int>::max() - tier_cloud &&
             tier_edge + tier_cloud > 0;
      }
      if (!ok) bad_value(key, value, "<edge>x<cloud> server counts");
      have_tier = true;
    } else if (key == "metric") {
      options.require_metric = kvform::parse_on_off(kCtx, key, value);
    } else {
      return false;  // for_each_kv raises the uniform unknown-key error
    }
    return true;
  });
  if (!have_mu) fail("missing key \"mu\"");
  if (!have_lam) fail("missing key \"lam\"");
  if (have_tier) {
    if (mu.size() != 2) {
      fail("key \"mu\" needs exactly 2 values with tier "
           "(mu_edge|mu_cloud, got " +
           std::to_string(mu.size()) + ")");
    }
    if (lam.size() != 3) {
      fail("key \"lam\" needs exactly 3 values with tier "
           "(edge|cross|cloud, got " +
           std::to_string(lam.size()) + ")");
    }
    return edge_cloud(tier_edge, tier_cloud, mu[0], mu[1], lam[0], lam[1],
                      lam[2], options);
  }
  const std::size_t m = mu.size();
  if (lam.size() != m * m) {
    fail("key \"lam\" needs m*m=" + std::to_string(m * m) +
         " values row-major (got " + std::to_string(lam.size()) + ")");
  }
  std::vector<std::vector<double>> rows(m, std::vector<double>(m, 0.0));
  for (std::size_t j = 0; j < m; ++j) {
    for (std::size_t k = 0; k < m; ++k) {
      rows[j][k] = lam[j * m + k];
    }
  }
  return HeterogeneousCostModel(std::move(mu), std::move(rows), options);
}

ServingCostModel resolve_cost(const std::string& cost,
                              const ServingCostModel& explicit_model,
                              int num_servers, const std::string& caller) {
  ServingCostModel effective = explicit_model;
  if (cost != "hom") {
    if (cost.rfind("het:", 0) != 0) {
      throw std::invalid_argument(caller +
                                  ": the cost string must be \"hom\" or "
                                  "\"het:<spec>\", got \"" +
                                  cost + "\"");
    }
    if (explicit_model.heterogeneous()) {
      throw std::invalid_argument(
          caller + ": both the explicit cost model and the cost string are "
                   "heterogeneous — pick one");
    }
    effective = ServingCostModel(HeterogeneousCostModel::parse(cost.substr(4)));
  }
  if (effective.het() != nullptr && effective.het()->m() != num_servers) {
    throw std::invalid_argument(
        caller + ": heterogeneous model is sized for " +
        std::to_string(effective.het()->m()) + " servers, not " +
        std::to_string(num_servers));
  }
  return effective;
}

}  // namespace mcdc
