#include "ilp/model.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"

namespace acc::ilp {
namespace {

TEST(Lp, SimpleMaximization) {
  // max 3x + 2y s.t. x + y <= 4, x + 3y <= 6, x,y >= 0  -> x=4, y=0, obj 12.
  Model m;
  const VarId x = m.add_var();
  const VarId y = m.add_var();
  m.add_constraint(LinExpr().add(x, 1).add(y, 1), Rel::kLe, 4);
  m.add_constraint(LinExpr().add(x, 1).add(y, 3), Rel::kLe, 6);
  m.set_objective(LinExpr().add(x, 3).add(y, 2), Sense::kMaximize);
  const Solution s = m.solve();
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 12.0, 1e-6);
  EXPECT_NEAR(s.values[x], 4.0, 1e-6);
  EXPECT_NEAR(s.values[y], 0.0, 1e-6);
}

TEST(Lp, MinimizationWithGeConstraints) {
  // min 2x + 3y s.t. x + y >= 10, x >= 2, y >= 1 -> x=9? obj: prefer x
  // (cheaper): x=9, y=1, obj 21.
  Model m;
  const VarId x = m.add_var(2.0);
  const VarId y = m.add_var(1.0);
  m.add_constraint(LinExpr().add(x, 1).add(y, 1), Rel::kGe, 10);
  m.set_objective(LinExpr().add(x, 2).add(y, 3), Sense::kMinimize);
  const Solution s = m.solve();
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 21.0, 1e-6);
  EXPECT_NEAR(s.values[x], 9.0, 1e-6);
  EXPECT_NEAR(s.values[y], 1.0, 1e-6);
}

TEST(Lp, EqualityConstraint) {
  Model m;
  const VarId x = m.add_var();
  const VarId y = m.add_var();
  m.add_constraint(LinExpr().add(x, 1).add(y, 1), Rel::kEq, 5);
  m.set_objective(LinExpr().add(x, 1), Sense::kMinimize);
  const Solution s = m.solve();
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.values[x], 0.0, 1e-6);
  EXPECT_NEAR(s.values[y], 5.0, 1e-6);
}

TEST(Lp, InfeasibleDetected) {
  Model m;
  const VarId x = m.add_var(0.0, 3.0);
  m.add_constraint(LinExpr().add(x, 1), Rel::kGe, 5);
  EXPECT_EQ(m.solve().status, SolveStatus::kInfeasible);
}

TEST(Lp, UnboundedDetected) {
  Model m;
  const VarId x = m.add_var();
  m.set_objective(LinExpr().add(x, 1), Sense::kMaximize);
  EXPECT_EQ(m.solve().status, SolveStatus::kUnbounded);
}

TEST(Lp, VariableUpperBoundsHonored) {
  Model m;
  const VarId x = m.add_var(0.0, 2.5);
  m.set_objective(LinExpr().add(x, 1), Sense::kMaximize);
  const Solution s = m.solve();
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.values[x], 2.5, 1e-6);
}

TEST(Lp, NonZeroLowerBoundsShiftCorrectly) {
  Model m;
  const VarId x = m.add_var(10.0);
  const VarId y = m.add_var(-5.0, 5.0);
  m.add_constraint(LinExpr().add(x, 1).add(y, 1), Rel::kLe, 20);
  m.set_objective(LinExpr().add(x, 1).add(y, 1), Sense::kMaximize);
  const Solution s = m.solve();
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 20.0, 1e-6);
}

TEST(Lp, ObjectiveConstantIncluded) {
  Model m;
  const VarId x = m.add_var(0.0, 1.0);
  m.set_objective(LinExpr(7.0).add(x, 1), Sense::kMaximize);
  const Solution s = m.solve();
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 8.0, 1e-6);
}

TEST(Ilp, KnapsackStyleIntegrality) {
  // max 5a + 4b s.t. 6a + 5b <= 10, a,b integer in [0, 3].
  // LP relaxation is fractional; optimum integer solution: a=0,b=2 -> 8 or
  // a=1,b=0 -> 5; best is 8.
  Model m;
  const VarId a = m.add_var(0, 3, /*integer=*/true);
  const VarId b = m.add_var(0, 3, /*integer=*/true);
  m.add_constraint(LinExpr().add(a, 6).add(b, 5), Rel::kLe, 10);
  m.set_objective(LinExpr().add(a, 5).add(b, 4), Sense::kMaximize);
  const Solution s = m.solve();
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 8.0, 1e-6);
  EXPECT_EQ(s.value_int(a), 0);
  EXPECT_EQ(s.value_int(b), 2);
}

TEST(Ilp, RoundingUpIsNotAssumed) {
  // min x s.t. 3x >= 7, x integer  -> x = 3 (not ceil of LP in general, but
  // here B&B must return exactly 3).
  Model m;
  const VarId x = m.add_var(0, kInf, true);
  m.add_constraint(LinExpr().add(x, 3), Rel::kGe, 7);
  m.set_objective(LinExpr().add(x, 1), Sense::kMinimize);
  const Solution s = m.solve();
  ASSERT_TRUE(s.optimal());
  EXPECT_EQ(s.value_int(x), 3);
}

TEST(Ilp, MixedIntegerAndContinuous) {
  // min 10i + c s.t. i + c >= 2.5, c <= 0.7, i integer >= 0.
  // c at its max 0.7 => i >= 1.8 => i = 2; obj = 20 + c with c >= 0.5;
  // minimize => c = 0.5, obj 20.5.
  Model m;
  const VarId i = m.add_var(0, kInf, true);
  const VarId c = m.add_var(0, 0.7);
  m.add_constraint(LinExpr().add(i, 1).add(c, 1), Rel::kGe, 2.5);
  m.set_objective(LinExpr().add(i, 10).add(c, 1), Sense::kMinimize);
  const Solution s = m.solve();
  ASSERT_TRUE(s.optimal());
  EXPECT_EQ(s.value_int(i), 2);
  EXPECT_NEAR(s.objective, 20.5, 1e-5);
}

TEST(Ilp, InfeasibleIntegerBox) {
  // 0.4 <= x <= 0.6 has no integer point.
  Model m;
  const VarId x = m.add_var(0.4, 0.6, true);
  m.set_objective(LinExpr().add(x, 1), Sense::kMinimize);
  EXPECT_EQ(m.solve().status, SolveStatus::kInfeasible);
}

TEST(Ilp, DegenerateConstraintsDoNotCycle) {
  // Classic degenerate LP; Bland's rule must terminate.
  Model m;
  const VarId x1 = m.add_var();
  const VarId x2 = m.add_var();
  const VarId x3 = m.add_var();
  m.add_constraint(LinExpr().add(x1, 0.5).add(x2, -5.5).add(x3, -2.5), Rel::kLe, 0);
  m.add_constraint(LinExpr().add(x1, 0.5).add(x2, -1.5).add(x3, -0.5), Rel::kLe, 0);
  m.add_constraint(LinExpr().add(x1, 1), Rel::kLe, 1);
  m.set_objective(LinExpr().add(x1, 10).add(x2, -57).add(x3, -9), Sense::kMaximize);
  const Solution s = m.solve();
  ASSERT_TRUE(s.optimal());
  // Optimum: x1=1 forces 1.5*x2 + 0.5*x3 >= 0.5; cheapest cover is x3=1,
  // giving 10 - 9 = 1.
  EXPECT_NEAR(s.objective, 1.0, 1e-5);
}

TEST(Ilp, RedundantEqualitiesHandled) {
  Model m;
  const VarId x = m.add_var();
  const VarId y = m.add_var();
  m.add_constraint(LinExpr().add(x, 1).add(y, 1), Rel::kEq, 4);
  m.add_constraint(LinExpr().add(x, 2).add(y, 2), Rel::kEq, 8);  // redundant
  m.set_objective(LinExpr().add(x, 1), Sense::kMaximize);
  const Solution s = m.solve();
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.values[x], 4.0, 1e-6);
}

// Property: B&B solution beats (or ties) rounding heuristics on random
// covering problems, and always satisfies every constraint.
TEST(IlpProperty, RandomCoveringProblemsSatisfyConstraints) {
  acc::SplitMix64 rng(0x11b);
  for (int trial = 0; trial < 50; ++trial) {
    Model m;
    const int n = static_cast<int>(rng.uniform(2, 4));
    std::vector<VarId> xs;
    for (int j = 0; j < n; ++j)
      xs.push_back(m.add_var(0, 50, true));
    std::vector<std::vector<double>> rows;
    std::vector<double> rhs;
    const int k = static_cast<int>(rng.uniform(1, 3));
    for (int i = 0; i < k; ++i) {
      LinExpr e;
      rows.emplace_back();
      for (int j = 0; j < n; ++j) {
        const double coef = static_cast<double>(rng.uniform(1, 5));
        rows.back().push_back(coef);
        e.add(xs[j], coef);
      }
      rhs.push_back(static_cast<double>(rng.uniform(5, 40)));
      m.add_constraint(e, Rel::kGe, rhs.back());
    }
    LinExpr obj;
    std::vector<double> costs;
    for (int j = 0; j < n; ++j) {
      costs.push_back(static_cast<double>(rng.uniform(1, 9)));
      obj.add(xs[j], costs.back());
    }
    m.set_objective(obj, Sense::kMinimize);
    const Solution s = m.solve();
    ASSERT_TRUE(s.optimal());
    for (int i = 0; i < k; ++i) {
      double lhs = 0;
      for (int j = 0; j < n; ++j) lhs += rows[i][j] * s.values[xs[j]];
      EXPECT_GE(lhs, rhs[i] - 1e-6);
    }
    for (int j = 0; j < n; ++j) {
      EXPECT_NEAR(s.values[xs[j]], std::round(s.values[xs[j]]), 1e-6);
      EXPECT_GE(s.values[xs[j]], -1e-9);
    }
  }
}

}  // namespace
}  // namespace acc::ilp
