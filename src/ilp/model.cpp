#include "ilp/model.hpp"

#include <algorithm>
#include <cmath>
#include <stack>

#include "common/check.hpp"

namespace acc::ilp {

LinExpr& LinExpr::add(VarId v, double coef) {
  if (coef != 0.0) terms_.emplace_back(v, coef);
  return *this;
}

LinExpr& LinExpr::add_constant(double c) {
  constant_ += c;
  return *this;
}

std::int64_t Solution::value_int(VarId v) const {
  ACC_EXPECTS(v >= 0 && static_cast<std::size_t>(v) < values.size());
  return static_cast<std::int64_t>(std::llround(values[v]));
}

VarId Model::add_var(double lower, double upper, bool integer) {
  ACC_EXPECTS_MSG(std::isfinite(lower),
                  "variables need a finite lower bound in this solver");
  ACC_EXPECTS(upper >= lower);
  vars_.push_back(Var{lower, upper, integer});
  return static_cast<VarId>(vars_.size() - 1);
}

void Model::add_constraint(const LinExpr& lhs, Rel rel, double rhs) {
  for (const auto& [v, c] : lhs.terms())
    ACC_EXPECTS(v >= 0 && static_cast<std::size_t>(v) < vars_.size());
  constraints_.push_back(Constraint{lhs, rel, rhs - lhs.constant()});
  constraints_.back().lhs.add_constant(-lhs.constant());  // keep rhs-side form
}

void Model::set_objective(const LinExpr& objective, Sense sense) {
  objective_ = objective;
  sense_ = sense;
}

namespace {

/// Simplex pivots per LP solve before it gives up.
constexpr std::int64_t kMaxPivots = 200000;
/// Branch-and-bound nodes before the search gives up.
constexpr std::int64_t kMaxNodes = 200000;
/// A value within this of an integer counts as integral.
constexpr double kIntegralityEps = 1e-7;

/// Dense two-phase primal simplex with Bland's anti-cycling rule.
/// Operates on: minimize c'x s.t. Ax (rel) b, x >= 0.
class Simplex {
 public:
  Simplex(std::size_t n) : n_(n), cost_(n, 0.0) {}

  void set_cost(std::size_t j, double c) { cost_[j] = c; }

  void add_row(std::vector<double> coeffs, Rel rel, double rhs) {
    rows_.push_back(std::move(coeffs));
    rels_.push_back(rel);
    rhs_.push_back(rhs);
  }

  /// Returns status; on optimal, fills x (length n) and obj.
  SolveStatus run(std::vector<double>* x, double* obj) {
    build_tableau();
    // Phase 1: minimize artificial sum.
    if (num_artificial_ > 0) {
      std::vector<double> phase1(total_cols_, 0.0);
      for (std::size_t j = art_begin_; j < total_cols_; ++j) phase1[j] = 1.0;
      const SolveStatus st = optimize(phase1, /*allow_artificial=*/true);
      if (st != SolveStatus::kOptimal) return st;
      if (objective_value(phase1) > 1e-6) return SolveStatus::kInfeasible;
      drive_out_artificials();
    }
    // Phase 2.
    std::vector<double> phase2(total_cols_, 0.0);
    for (std::size_t j = 0; j < n_; ++j) phase2[j] = cost_[j];
    const SolveStatus st = optimize(phase2, /*allow_artificial=*/false);
    if (st != SolveStatus::kOptimal) return st;
    x->assign(n_, 0.0);
    for (std::size_t i = 0; i < m_; ++i) {
      if (row_dead_[i]) continue;
      if (basis_[i] < n_) (*x)[basis_[i]] = b_[i];
    }
    *obj = objective_value(phase2);
    return SolveStatus::kOptimal;
  }

 private:
  static constexpr double kEps = 1e-9;

  void build_tableau() {
    m_ = rows_.size();
    std::size_t num_slack = 0;
    num_artificial_ = 0;
    for (std::size_t i = 0; i < m_; ++i) {
      // Normalize to rhs >= 0 first; relation flips with the sign.
      if (rhs_[i] < 0) {
        for (double& v : rows_[i]) v = -v;
        rhs_[i] = -rhs_[i];
        if (rels_[i] == Rel::kLe) rels_[i] = Rel::kGe;
        else if (rels_[i] == Rel::kGe) rels_[i] = Rel::kLe;
      }
      if (rels_[i] != Rel::kEq) ++num_slack;
      if (rels_[i] != Rel::kLe) ++num_artificial_;
    }
    slack_begin_ = n_;
    art_begin_ = n_ + num_slack;
    total_cols_ = art_begin_ + num_artificial_;

    a_.assign(m_, std::vector<double>(total_cols_, 0.0));
    b_.assign(m_, 0.0);
    basis_.assign(m_, 0);
    row_dead_.assign(m_, false);
    std::size_t next_slack = slack_begin_;
    std::size_t next_art = art_begin_;
    for (std::size_t i = 0; i < m_; ++i) {
      for (std::size_t j = 0; j < n_; ++j) a_[i][j] = rows_[i][j];
      b_[i] = rhs_[i];
      switch (rels_[i]) {
        case Rel::kLe:
          a_[i][next_slack] = 1.0;
          basis_[i] = next_slack++;
          break;
        case Rel::kGe:
          a_[i][next_slack] = -1.0;
          ++next_slack;
          a_[i][next_art] = 1.0;
          basis_[i] = next_art++;
          break;
        case Rel::kEq:
          a_[i][next_art] = 1.0;
          basis_[i] = next_art++;
          break;
      }
    }
  }

  [[nodiscard]] double objective_value(const std::vector<double>& c) const {
    double v = 0.0;
    for (std::size_t i = 0; i < m_; ++i)
      if (!row_dead_[i]) v += c[basis_[i]] * b_[i];
    return v;
  }

  /// Reduced cost of column j under cost vector c.
  [[nodiscard]] double reduced_cost(const std::vector<double>& c,
                                    std::size_t j) const {
    double z = c[j];
    for (std::size_t i = 0; i < m_; ++i)
      if (!row_dead_[i]) z -= c[basis_[i]] * a_[i][j];
    return z;
  }

  void pivot(std::size_t row, std::size_t col) {
    const double p = a_[row][col];
    ACC_CHECK(std::abs(p) > kEps);
    const double inv = 1.0 / p;
    for (double& v : a_[row]) v *= inv;
    b_[row] *= inv;
    a_[row][col] = 1.0;  // cancel rounding
    for (std::size_t i = 0; i < m_; ++i) {
      if (i == row || row_dead_[i]) continue;
      const double f = a_[i][col];
      if (std::abs(f) < kEps) continue;
      for (std::size_t j = 0; j < total_cols_; ++j)
        a_[i][j] -= f * a_[row][j];
      a_[i][col] = 0.0;
      b_[i] -= f * b_[row];
      if (std::abs(b_[i]) < kEps) b_[i] = 0.0;
    }
    basis_[row] = col;
  }

  SolveStatus optimize(const std::vector<double>& c, bool allow_artificial) {
    const std::size_t col_limit = allow_artificial ? total_cols_ : art_begin_;
    for (std::int64_t it = 0; it < kMaxPivots; ++it) {
      // Bland: smallest-index column with negative reduced cost.
      std::size_t enter = total_cols_;
      for (std::size_t j = 0; j < col_limit; ++j) {
        if (reduced_cost(c, j) < -1e-9) {
          enter = j;
          break;
        }
      }
      if (enter == total_cols_) return SolveStatus::kOptimal;
      // Ratio test; Bland tie-break on smallest basis index.
      std::size_t leave = m_;
      double best_ratio = 0.0;
      for (std::size_t i = 0; i < m_; ++i) {
        if (row_dead_[i] || a_[i][enter] <= kEps) continue;
        const double ratio = b_[i] / a_[i][enter];
        if (leave == m_ || ratio < best_ratio - kEps ||
            (std::abs(ratio - best_ratio) <= kEps &&
             basis_[i] < basis_[leave])) {
          leave = i;
          best_ratio = ratio;
        }
      }
      if (leave == m_) return SolveStatus::kUnbounded;
      pivot(leave, enter);
    }
    return SolveStatus::kLimit;
  }

  /// After phase 1: pivot basic artificials (value 0) onto structural
  /// columns, or mark their rows dead if redundant.
  void drive_out_artificials() {
    for (std::size_t i = 0; i < m_; ++i) {
      if (row_dead_[i] || basis_[i] < art_begin_) continue;
      std::size_t col = art_begin_;
      for (std::size_t j = 0; j < art_begin_; ++j) {
        if (std::abs(a_[i][j]) > kEps) {
          col = j;
          break;
        }
      }
      if (col == art_begin_) {
        row_dead_[i] = true;  // redundant constraint
      } else {
        pivot(i, col);
      }
    }
  }

  std::size_t n_;
  std::vector<double> cost_;
  std::vector<std::vector<double>> rows_;
  std::vector<Rel> rels_;
  std::vector<double> rhs_;

  std::size_t m_ = 0;
  std::size_t slack_begin_ = 0;
  std::size_t art_begin_ = 0;
  std::size_t num_artificial_ = 0;
  std::size_t total_cols_ = 0;
  std::vector<std::vector<double>> a_;
  std::vector<double> b_;
  std::vector<std::size_t> basis_;
  std::vector<bool> row_dead_;
};

}  // namespace

Solution Model::solve_lp(const std::vector<double>& lo,
                         const std::vector<double>& hi) const {
  const std::size_t n = vars_.size();
  Simplex sx(n);

  // Shift every variable by its (node-local) lower bound: x = lo + x'.
  const double sign = sense_ == Sense::kMinimize ? 1.0 : -1.0;
  double obj_shift = 0.0;
  {
    std::vector<double> c(n, 0.0);
    for (const auto& [v, coef] : objective_.terms()) c[v] += coef;
    for (std::size_t j = 0; j < n; ++j) {
      sx.set_cost(j, sign * c[j]);
      obj_shift += c[j] * lo[j];
    }
  }

  for (const Constraint& con : constraints_) {
    std::vector<double> row(n, 0.0);
    double shift = 0.0;
    for (const auto& [v, coef] : con.lhs.terms()) {
      row[v] += coef;
      shift += coef * lo[v];
    }
    sx.add_row(std::move(row), con.rel, con.rhs - shift);
  }
  // Finite upper bounds as explicit rows (x' <= hi - lo).
  for (std::size_t j = 0; j < n; ++j) {
    if (hi[j] == kInf) continue;
    if (hi[j] < lo[j]) {
      Solution s;
      s.status = SolveStatus::kInfeasible;  // empty node box
      return s;
    }
    std::vector<double> row(n, 0.0);
    row[j] = 1.0;
    sx.add_row(std::move(row), Rel::kLe, hi[j] - lo[j]);
  }

  Solution s;
  std::vector<double> shifted;
  double obj = 0.0;
  s.status = sx.run(&shifted, &obj);
  if (s.status != SolveStatus::kOptimal) return s;
  s.values.resize(n);
  for (std::size_t j = 0; j < n; ++j) s.values[j] = lo[j] + shifted[j];
  s.objective = sign * obj + obj_shift + objective_.constant();
  return s;
}

Solution Model::solve() const {
  std::vector<double> lo(vars_.size());
  std::vector<double> hi(vars_.size());
  bool any_integer = false;
  for (std::size_t j = 0; j < vars_.size(); ++j) {
    lo[j] = vars_[j].lower;
    hi[j] = vars_[j].upper;
    any_integer |= vars_[j].integer;
  }

  Solution root = solve_lp(lo, hi);
  if (!any_integer || !root.optimal()) return root;

  // Depth-first branch and bound; `better` compares in the minimize sense.
  const double dir = sense_ == Sense::kMinimize ? 1.0 : -1.0;
  auto better = [&](double a, double b) { return dir * a < dir * b; };

  struct Node {
    std::vector<double> lo;
    std::vector<double> hi;
  };
  std::stack<Node> todo;
  todo.push(Node{lo, hi});
  Solution incumbent;
  incumbent.status = SolveStatus::kInfeasible;
  std::int64_t nodes = 0;

  while (!todo.empty()) {
    if (++nodes > kMaxNodes) {
      if (incumbent.optimal()) incumbent.status = SolveStatus::kLimit;
      break;
    }
    Node node = std::move(todo.top());
    todo.pop();
    Solution rel = solve_lp(node.lo, node.hi);
    if (rel.status == SolveStatus::kUnbounded) return rel;
    if (!rel.optimal()) continue;
    if (incumbent.optimal() && !better(rel.objective, incumbent.objective))
      continue;  // bound

    // Find the most fractional integer variable.
    VarId branch = -1;
    double worst_frac = kIntegralityEps;
    for (std::size_t j = 0; j < vars_.size(); ++j) {
      if (!vars_[j].integer) continue;
      const double v = rel.values[j];
      const double frac = std::abs(v - std::round(v));
      if (frac > worst_frac) {
        worst_frac = frac;
        branch = static_cast<VarId>(j);
      }
    }
    if (branch < 0) {
      // Integral: snap and accept as incumbent.
      for (std::size_t j = 0; j < vars_.size(); ++j)
        if (vars_[j].integer) rel.values[j] = std::round(rel.values[j]);
      if (!incumbent.optimal() || better(rel.objective, incumbent.objective))
        incumbent = std::move(rel);
      continue;
    }
    const double v = rel.values[branch];
    Node down = node;
    down.hi[branch] = std::floor(v);
    Node up = std::move(node);
    up.lo[branch] = std::ceil(v);
    // Explore the "down" branch first for minimization-style models.
    todo.push(std::move(up));
    todo.push(std::move(down));
  }
  return incumbent;
}

}  // namespace acc::ilp
