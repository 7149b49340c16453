// Mixed-integer linear programming, implemented from scratch.
//
// The paper computes minimum block sizes with "an ILP" (its Algorithm 1);
// the original authors presumably used a commercial solver. This module is a
// self-contained replacement: a dense two-phase primal simplex for the LP
// relaxation plus depth-first branch-and-bound for integrality. It is sized
// for analysis-time models (tens of variables), not industrial MIPs.
#pragma once

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace acc::ilp {

using VarId = std::int32_t;

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// Linear expression: sum of coef*var + constant.
class LinExpr {
 public:
  LinExpr() = default;
  LinExpr(double constant) : constant_(constant) {}  // NOLINT — numeric literal terms

  LinExpr& add(VarId v, double coef);
  LinExpr& add_constant(double c);

  [[nodiscard]] const std::vector<std::pair<VarId, double>>& terms() const {
    return terms_;
  }
  [[nodiscard]] double constant() const { return constant_; }

 private:
  std::vector<std::pair<VarId, double>> terms_;
  double constant_ = 0.0;
};

enum class Rel { kLe, kGe, kEq };
enum class Sense { kMinimize, kMaximize };

enum class SolveStatus { kOptimal, kInfeasible, kUnbounded, kLimit };

struct Solution {
  SolveStatus status = SolveStatus::kInfeasible;
  double objective = 0.0;
  std::vector<double> values;  // indexed by VarId

  [[nodiscard]] bool optimal() const { return status == SolveStatus::kOptimal; }
  /// Value of a variable rounded to the nearest integer (for integer vars).
  [[nodiscard]] std::int64_t value_int(VarId v) const;
};

/// A small MILP model. Variables have bounds and an integrality flag;
/// constraints relate linear expressions to constants.
class Model {
 public:
  VarId add_var(double lower = 0.0, double upper = kInf, bool integer = false);
  [[nodiscard]] std::size_t num_vars() const { return vars_.size(); }

  void add_constraint(const LinExpr& lhs, Rel rel, double rhs);
  void set_objective(const LinExpr& objective, Sense sense);

  /// Solve. If any variable is integer, branch-and-bound runs on top of the
  /// LP relaxation; otherwise a single LP solve. Each LP solve stops after
  /// 200,000 simplex pivots and the branch-and-bound after 200,000 nodes
  /// (SolveStatus::kLimit).
  [[nodiscard]] Solution solve() const;

 private:
  struct Var {
    double lower;
    double upper;
    bool integer;
  };
  struct Constraint {
    LinExpr lhs;
    Rel rel;
    double rhs;
  };

  /// Solve the LP relaxation with extra bounds layered on (B&B nodes).
  Solution solve_lp(const std::vector<double>& lo,
                    const std::vector<double>& hi) const;

  std::vector<Var> vars_;
  std::vector<Constraint> constraints_;
  LinExpr objective_;
  Sense sense_ = Sense::kMinimize;
};

}  // namespace acc::ilp
