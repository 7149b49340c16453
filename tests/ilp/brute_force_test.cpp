// Property test: the branch-and-bound MILP solver agrees with exhaustive
// enumeration on random small integer programs.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>

#include "common/rng.hpp"
#include "ilp/model.hpp"

namespace acc::ilp {
namespace {

struct RandomIp {
  int num_vars;
  std::int64_t box;  // vars in [0, box]
  std::vector<std::vector<double>> rows;
  std::vector<Rel> rels;
  std::vector<double> rhs;
  std::vector<double> cost;
  Sense sense;
};

RandomIp make_random_ip(acc::SplitMix64& rng) {
  RandomIp ip;
  ip.num_vars = static_cast<int>(rng.uniform(1, 3));
  ip.box = rng.uniform(2, 6);
  const int rows = static_cast<int>(rng.uniform(1, 3));
  for (int r = 0; r < rows; ++r) {
    std::vector<double> row;
    for (int j = 0; j < ip.num_vars; ++j)
      row.push_back(static_cast<double>(rng.uniform(-4, 6)));
    ip.rows.push_back(std::move(row));
    ip.rels.push_back(rng.chance(0.5) ? Rel::kLe : Rel::kGe);
    ip.rhs.push_back(static_cast<double>(rng.uniform(-5, 20)));
  }
  for (int j = 0; j < ip.num_vars; ++j)
    ip.cost.push_back(static_cast<double>(rng.uniform(-5, 9)));
  ip.sense = rng.chance(0.5) ? Sense::kMinimize : Sense::kMaximize;
  return ip;
}

std::optional<double> brute_force(const RandomIp& ip) {
  std::optional<double> best;
  std::vector<std::int64_t> x(ip.num_vars, 0);
  const auto per = ip.box + 1;
  std::int64_t combos = 1;
  for (int j = 0; j < ip.num_vars; ++j) combos *= per;
  for (std::int64_t c = 0; c < combos; ++c) {
    std::int64_t v = c;
    for (int j = 0; j < ip.num_vars; ++j) {
      x[j] = v % per;
      v /= per;
    }
    bool ok = true;
    for (std::size_t r = 0; r < ip.rows.size() && ok; ++r) {
      double lhs = 0;
      for (int j = 0; j < ip.num_vars; ++j)
        lhs += ip.rows[r][j] * static_cast<double>(x[j]);
      ok = ip.rels[r] == Rel::kLe ? lhs <= ip.rhs[r] + 1e-9
                                  : lhs >= ip.rhs[r] - 1e-9;
    }
    if (!ok) continue;
    double obj = 0;
    for (int j = 0; j < ip.num_vars; ++j)
      obj += ip.cost[j] * static_cast<double>(x[j]);
    if (!best || (ip.sense == Sense::kMinimize ? obj < *best : obj > *best))
      best = obj;
  }
  return best;
}

TEST(IlpBruteForce, RandomIntegerProgramsMatchExhaustiveSearch) {
  acc::SplitMix64 rng(0xB4F);
  int solved = 0;
  int infeasible = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const RandomIp ip = make_random_ip(rng);
    Model m;
    std::vector<VarId> xs;
    for (int j = 0; j < ip.num_vars; ++j)
      xs.push_back(m.add_var(0, static_cast<double>(ip.box), /*integer=*/true));
    for (std::size_t r = 0; r < ip.rows.size(); ++r) {
      LinExpr e;
      for (int j = 0; j < ip.num_vars; ++j) e.add(xs[j], ip.rows[r][j]);
      m.add_constraint(e, ip.rels[r], ip.rhs[r]);
    }
    LinExpr obj;
    for (int j = 0; j < ip.num_vars; ++j) obj.add(xs[j], ip.cost[j]);
    m.set_objective(obj, ip.sense);

    const Solution sol = m.solve();
    const std::optional<double> truth = brute_force(ip);
    if (!truth.has_value()) {
      EXPECT_EQ(sol.status, SolveStatus::kInfeasible) << "trial " << trial;
      ++infeasible;
      continue;
    }
    ASSERT_TRUE(sol.optimal()) << "trial " << trial;
    EXPECT_NEAR(sol.objective, *truth, 1e-6) << "trial " << trial;
    // The returned point itself must be feasible and integral.
    for (int j = 0; j < ip.num_vars; ++j) {
      EXPECT_NEAR(sol.values[xs[j]], std::round(sol.values[xs[j]]), 1e-6);
      EXPECT_GE(sol.values[xs[j]], -1e-9);
      EXPECT_LE(sol.values[xs[j]], static_cast<double>(ip.box) + 1e-9);
    }
    ++solved;
  }
  EXPECT_GT(solved, 150);
  EXPECT_GT(infeasible, 5);
}

}  // namespace
}  // namespace acc::ilp
