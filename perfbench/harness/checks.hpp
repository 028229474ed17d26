// Output checks shared by the library-driven workloads. They compare runs of
// the same commit's library against each other and against paper
// invariants, never against pinned bits, so a deliberate golden re-pin
// leaves them passing.
#pragma once

#include <bit>
#include <cstdint>

#include "bench.hpp"
#include "core/budget.hpp"
#include "core/runner.hpp"

namespace perfbench {

inline bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Bitwise equality of every reported field of two pipeline runs.
inline bool same_metrics(const vapb::core::RunMetrics& a,
                         const vapb::core::RunMetrics& b) {
  if (a.feasible != b.feasible || a.constrained != b.constrained ||
      !same_bits(a.alpha, b.alpha) ||
      !same_bits(a.target_freq_ghz, b.target_freq_ghz) ||
      !same_bits(a.makespan_s, b.makespan_s) ||
      !same_bits(a.total_power_w, b.total_power_w) ||
      !same_bits(a.total_cpu_power_w, b.total_cpu_power_w) ||
      !same_bits(a.total_dram_power_w, b.total_dram_power_w) ||
      a.modules.size() != b.modules.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.modules.size(); ++i) {
    const auto& x = a.modules[i];
    const auto& y = b.modules[i];
    if (x.id != y.id || x.op.throttled != y.op.throttled ||
        !same_bits(x.alloc_module_w, y.alloc_module_w) ||
        !same_bits(x.cpu_cap_w, y.cpu_cap_w) ||
        !same_bits(x.op.freq_ghz, y.op.freq_ghz) ||
        !same_bits(x.op.duty, y.op.duty) ||
        !same_bits(x.op.cpu_w, y.op.cpu_w) ||
        !same_bits(x.op.dram_w, y.op.dram_w) ||
        !same_bits(x.op.perf_freq_ghz, y.op.perf_freq_ghz)) {
      return false;
    }
  }
  return true;
}

inline void digest_metrics(Digest& d, const vapb::core::RunMetrics& m) {
  d.add(static_cast<std::uint64_t>(m.feasible));
  d.add(m.alpha);
  d.add(m.makespan_s);
  d.add(m.total_power_w);
  for (const auto& mod : m.modules) {
    d.add(mod.alloc_module_w);
    d.add(mod.op.freq_ghz);
  }
}

/// Relative slack for "the predicted total stays within the budget": the
/// allocations are sums of ~10^3..10^5 doubles.
constexpr double kBudgetSlack = 1e-9;

/// The solver's allocations of a feasible, constrained run sum to at most
/// its budget (Eq. 6/7: the budget is the constraint being solved).
inline bool allocations_within_budget(const vapb::core::RunMetrics& m) {
  if (!m.feasible || m.budget_w <= 0.0) return true;
  double total = 0.0;
  for (const auto& mod : m.modules) total += mod.alloc_module_w;
  return total <= m.budget_w * (1.0 + kBudgetSlack);
}

inline bool within_budget(const vapb::core::BudgetResult& b, double budget_w) {
  return !b.fits_at_fmin ||
         b.predicted_total_w.value() <= budget_w * (1.0 + kBudgetSlack);
}

inline bool same_budget(const vapb::core::BudgetResult& a,
                        const vapb::core::BudgetResult& b) {
  if (a.fits_at_fmin != b.fits_at_fmin || a.constrained != b.constrained ||
      !same_bits(a.alpha, b.alpha) ||
      !same_bits(a.target_freq_ghz.value(), b.target_freq_ghz.value()) ||
      !same_bits(a.predicted_total_w.value(), b.predicted_total_w.value()) ||
      a.allocations.size() != b.allocations.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.allocations.size(); ++i) {
    if (!same_bits(a.allocations[i].module_w.value(),
                   b.allocations[i].module_w.value()) ||
        !same_bits(a.allocations[i].cpu_cap_w.value(),
                   b.allocations[i].cpu_cap_w.value()) ||
        !same_bits(a.allocations[i].dram_w.value(),
                   b.allocations[i].dram_w.value())) {
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
