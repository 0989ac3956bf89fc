#include "lp/revised_simplex.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "obs/obs.h"
#include "util/tolerances.h"

namespace metaopt::lp {

namespace {

const obs::Counter c_revised_pivots = obs::counter("simplex.revised_pivots");
const obs::Counter c_dual_pivots = obs::counter("simplex.dual_pivots");
const obs::Counter c_bound_flips = obs::counter("simplex.bound_flips");
const obs::Counter c_refactorizations =
    obs::counter("simplex.refactorizations");
const obs::Counter c_factor_cache_hits =
    obs::counter("simplex.factor_cache_hits");
const obs::Counter c_perturbations = obs::counter("simplex.perturbations");
// Basis exchanges of phase 1, and exchanges (primal or dual) whose step
// is at most kDegenerateStep.
const obs::Counter c_phase1_pivots = obs::counter("simplex.phase1_pivots");
const obs::Counter c_degenerate_pivots =
    obs::counter("simplex.degenerate_pivots");
// Recomputations of the maintained reduced costs from y = B^{-T} c_B,
// and those at which some maintained d_j of a nonbasic, non-fixed
// column had strayed more than tol::kCostTol * (1 + |d_j|) from the
// fresh value (checked while metrics are recorded).
const obs::Counter c_cost_refreshes =
    obs::counter("simplex.reduced_cost_refreshes");
const obs::Counter c_cost_drift = obs::counter("simplex.reduced_cost_drift");
// Cold solves whose phase 2 ran from the caller's primal start basis,
// and starts the engine rejected (wrong size, singular, or a basic out
// of bounds) before crashing from the slack/artificial basis instead.
const obs::Counter c_start_solves = obs::counter("simplex.start_solves");
const obs::Counter c_start_rejects = obs::counter("simplex.start_rejects");
// The primal's cached pricing: stale columns re-scored, and pricings from
// scratch (loop entry, refactorization, or a y update that re-solved).
const obs::Counter c_primal_repriced = obs::counter("simplex.primal_repriced");
const obs::Counter c_primal_full_prices =
    obs::counter("simplex.primal_full_prices");

/// Absolute window inside which two ratio-test values count as tied.
constexpr double kRatioTieTol = 1e-12;

/// Step below which a pivot counts as degenerate (stall bookkeeping).
constexpr double kDegenerateStep = 1e-12;

/// Wrong-signed reduced cost a warm start tolerates on a column it
/// cannot flip, and that an Optimal verdict of the dual tolerates on
/// fresh reduced costs.
constexpr double kDualBailTol = 100.0 * tol::kCostTol;

/// Deterministic hash of a column id into [0, 1): the perturbation
/// spread. A local splitmix64 so the epsilons are a pure function of
/// the column — never of engine history or platform.
double hash01(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  x ^= x >> 31;
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

}  // namespace

RevisedSimplex::RevisedSimplex(const BoundedForm& form)
    : form_(form),
      n_(form.num_structs),
      m_(form.num_rows),
      total_(form.num_cols()) {
  cost2_.assign(total_, 0.0);
  for (int j = 0; j < n_; ++j) cost2_[j] = form_.cost[j];
  cl_.assign(total_, 0.0);
  cu_.assign(total_, 0.0);
  x_.assign(total_, 0.0);
  d_.assign(total_, 0.0);
  status_.assign(total_, VarStatus::AtLower);
  pos_.assign(total_, -1);
  basic_.reserve(m_);
}

void RevisedSimplex::set_bounds(const std::vector<double>& lb,
                                const std::vector<double>& ub) {
  for (int j = 0; j < n_; ++j) {
    cl_[j] = lb[j];
    cu_[j] = ub[j];
  }
  for (int i = 0; i < m_; ++i) {
    const int s = form_.logical_col(i);
    cl_[s] = 0.0;
    cu_[s] = form_.row_is_eq[i] ? 0.0 : kInf;
    const int a = form_.artificial_col(i);
    cl_[a] = 0.0;
    cu_[a] = 0.0;
  }
}

void RevisedSimplex::rebuild_positions() {
  std::fill(pos_.begin(), pos_.end(), -1);
  for (int i = 0; i < static_cast<int>(basic_.size()); ++i) {
    pos_[basic_[i]] = i;
  }
}

bool RevisedSimplex::refactorize() {
  c_refactorizations.inc();
  if (!factor_.factorize(form_, basic_)) {
    factored_basic_.clear();
    return false;
  }
  factored_basic_ = basic_;
  prices_fresh_ = false;
  compute_basic_values();
  if (dual_costs_) refresh_reduced_costs();
  return true;
}

void RevisedSimplex::compute_basic_values() {
  resid_ = form_.rhs;
  for (int j = 0; j < total_; ++j) {
    if (status_[j] == VarStatus::Basic) continue;
    const double xj = x_[j];
    if (xj == 0.0) continue;
    if (j < n_) {
      for (int t = form_.col_start[j]; t < form_.col_start[j + 1]; ++t) {
        resid_[form_.col_row[t]] -= form_.col_val[t] * xj;
      }
    } else {
      const int row = j < n_ + m_ ? j - n_ : j - n_ - m_;
      resid_[row] -= xj;
    }
  }
  factor_.ftran(resid_);
  for (int i = 0; i < m_; ++i) x_[basic_[i]] = resid_[i];
}

void RevisedSimplex::ftran_column(int j) {
  if (w_sparse_) {
    for (const int i : w_nz_) w_[i] = 0.0;
  } else {
    w_.assign(m_, 0.0);
  }
  w_nz_.clear();
  if (j < n_) {
    for (int t = form_.col_start[j]; t < form_.col_start[j + 1]; ++t) {
      w_[form_.col_row[t]] = form_.col_val[t];
      w_nz_.push_back(form_.col_row[t]);
    }
  } else {
    const int row = j < n_ + m_ ? j - n_ : j - n_ - m_;
    w_[row] = 1.0;
    w_nz_.push_back(row);
  }
  w_sparse_ = factor_.ftran(w_, w_nz_);
}

void RevisedSimplex::compute_y(const std::vector<double>& cost,
                               std::vector<double>& y) const {
  y.resize(m_);
  for (int i = 0; i < m_; ++i) y[i] = cost[basic_[i]];
  factor_.btran(y);
}

void RevisedSimplex::refresh_reduced_costs() {
  compute_y(cost2_, y_);
  const bool check = d_age_ > 0 && obs::enabled();
  bool drifted = false;
  for (int j = 0; j < total_; ++j) {
    if (status_[j] == VarStatus::Basic) {
      d_[j] = 0.0;
      continue;
    }
    const double d = cost2_[j] - form_.col_dot(y_, j);
    if (check && cu_[j] - cl_[j] > 0.0 &&
        std::abs(d_[j] - d) > tol::kCostTol * (1.0 + std::abs(d))) {
      drifted = true;
    }
    d_[j] = d;
  }
  d_age_ = 0;
  c_cost_refreshes.inc();
  if (drifted) c_cost_drift.inc();
}

bool RevisedSimplex::dual_feasible() const {
  for (int j = 0; j < total_; ++j) {
    if (status_[j] == VarStatus::Basic || cu_[j] - cl_[j] <= 0.0) continue;
    const double d = d_[j];
    switch (status_[j]) {
      case VarStatus::AtLower:
        if (d < -kDualBailTol) return false;
        break;
      case VarStatus::AtUpper:
        if (d > kDualBailTol) return false;
        break;
      case VarStatus::Free:
        if (std::abs(d) > kDualBailTol) return false;
        break;
      case VarStatus::Basic:
        break;
    }
  }
  return true;
}

void RevisedSimplex::pivot_row(int r) {
  if (rho_sparse_) {
    for (const int i : rho_nz_) rho_[i] = 0.0;
  } else {
    rho_.assign(m_, 0.0);
  }
  rho_sparse_ = factor_.btran_unit(r, rho_, rho_nz_);
  if (!rho_sparse_) {
    rho_nz_.clear();
    for (int i = 0; i < m_; ++i) {
      if (rho_[i] != 0.0) rho_nz_.push_back(i);
    }
  }
  if (alpha_.empty()) {
    alpha_.assign(n_, 0.0);
    alpha_mark_.assign(n_, 0);
  }
  if (form_.has_rows() &&
      static_cast<double>(rho_nz_.size()) <= kHyperMaxDensity * m_) {
    form_.row_product(rho_, rho_nz_, alpha_, alpha_nz_, alpha_mark_);
  } else {
    alpha_nz_.clear();
    for (int j = 0; j < n_; ++j) {
      if (status_[j] == VarStatus::Basic || cu_[j] - cl_[j] <= 0.0) continue;
      const double a = form_.col_dot(rho_, j);
      if (a != 0.0) {
        alpha_[j] = a;
        alpha_nz_.push_back(j);
      }
    }
  }
  for (const int i : rho_nz_) alpha_nz_.push_back(n_ + i);
  for (const int i : rho_nz_) alpha_nz_.push_back(n_ + m_ + i);
}

double RevisedSimplex::row_alpha(int j) const {
  if (j < n_) return alpha_[j];
  return rho_[j < n_ + m_ ? j - n_ : j - n_ - m_];
}

void RevisedSimplex::update_reduced_costs(int q, int leaving, double theta) {
  for (const int j : alpha_nz_) {
    if (status_[j] == VarStatus::Basic || cu_[j] - cl_[j] <= 0.0) continue;
    d_[j] -= theta * row_alpha(j);
  }
  d_[q] = 0.0;
  d_[leaving] = -theta;
  ++d_age_;
}

void RevisedSimplex::clear_pivot_row() {
  for (const int j : alpha_nz_) {
    if (j >= n_) break;  // structurals come first
    alpha_[j] = 0.0;
  }
}

bool RevisedSimplex::accuracy_ok() {
  // Terminal safety net against product-form drift: bounds and row
  // residuals must hold at a loose multiple of the feasibility
  // tolerance, else the result is discarded (Error).
  const double slack = 10.0 * tol::kFeasTol;
  for (int j = 0; j < total_; ++j) {
    const double xj = x_[j];
    if (std::isfinite(cl_[j]) &&
        xj < cl_[j] - slack * (1.0 + std::abs(cl_[j]))) {
      return false;
    }
    if (std::isfinite(cu_[j]) &&
        xj > cu_[j] + slack * (1.0 + std::abs(cu_[j]))) {
      return false;
    }
  }
  resid_ = form_.rhs;  // scratch: keeps its capacity across solves
  for (int j = 0; j < total_; ++j) {
    const double xj = x_[j];
    if (xj == 0.0) continue;
    if (j < n_) {
      for (int t = form_.col_start[j]; t < form_.col_start[j + 1]; ++t) {
        resid_[form_.col_row[t]] -= form_.col_val[t] * xj;
      }
    } else {
      resid_[j < n_ + m_ ? j - n_ : j - n_ - m_] -= xj;
    }
  }
  for (int i = 0; i < m_; ++i) {
    if (std::abs(resid_[i]) > slack * (1.0 + std::abs(form_.rhs[i]))) {
      return false;
    }
  }
  return true;
}

double RevisedSimplex::phase1_objective() const {
  // A nonbasic artificial rests at an exact zero, and a +-0 term changes
  // no bit of a sum that starts at +0.0: the basic artificials alone, in
  // row order, give the bits of the sum over every row.
  double obj = 0.0;
  for (const int i : phase1_rows_) {
    const int a = form_.artificial_col(i);
    obj += cost1_[a] * x_[a];
  }
  return obj;
}

void RevisedSimplex::refresh_prices(const std::vector<double>& cost) {
  bool full = !prices_fresh_;
  if (full) {
    price_dir_.resize(total_);
    price_score_.resize(total_);
    eligible_.assign((total_ + 63) / 64, 0);
    factor_.cost_btran(cost, basic_);
    prices_fresh_ = true;
  } else if (price_r_ >= 0) {
    full = !factor_.cost_btran_update(price_r_, cost[basic_[price_r_]],
                                      changed_rows_);
  } else {
    // No exchange since the last call (a bound flip): y kept its bits,
    // and the flipped column was marked stale by its status change.
    return;
  }
  price_r_ = -1;
  if (full) {
    stale_.assign(eligible_.size(), ~std::uint64_t{0});
    c_primal_full_prices.inc();
    return;
  }
  // A column's d_j reads y only on the rows of its nonzeros.
  for (const int i : changed_rows_) {
    for (int t = form_.row_start[i]; t < form_.row_start[i + 1]; ++t) {
      mark_stale(form_.row_col[t]);
    }
    mark_stale(form_.logical_col(i));
    mark_stale(form_.artificial_col(i));
  }
}

void RevisedSimplex::reprice_stale(const std::vector<double>& cost, int from,
                                   int to) {
  const std::vector<double>& y = factor_.cost_y();
  long count = 0;
  for (int w = from >> 6; w << 6 < to; ++w) {
    std::uint64_t bits = stale_[w] & range_bits(w, from, to);
    if (bits == 0) continue;
    stale_[w] &= ~bits;
    std::uint64_t elig = eligible_[w] & ~bits;
    for (; bits != 0; bits &= bits - 1) {
      const int b = std::countr_zero(bits);
      const int j = (w << 6) + b;
      double score = 0.0;
      const int dir = price_column(cost, y, j, &score);
      price_dir_[j] = static_cast<signed char>(dir);
      price_score_[j] = score;
      if (dir != 0) elig |= std::uint64_t{1} << b;
      ++count;
    }
    eligible_[w] = elig;
  }
  c_primal_repriced.add(static_cast<std::uint64_t>(count));
}

int RevisedSimplex::price_entering(const std::vector<double>& cost, bool bland,
                                   int* dir) {
  if (form_.has_rows()) {
    refresh_prices(cost);
    const int q = pick_entering(
        eligible_, price_score_, total_, bland, &price_cursor_,
        [&](int from, int to) { reprice_stale(cost, from, to); });
    *dir = q >= 0 ? price_dir_[q] : 0;
    return q;
  }

  compute_y(cost, y_);
  int q = -1;
  *dir = 0;

  if (bland) {
    // Bland's rule needs a fixed total order: always first eligible
    // from column 0, ignoring the pricing window.
    for (int j = 0; j < total_; ++j) {
      double score = 0.0;
      const int jdir = price_column(cost, y_, j, &score);
      if (jdir != 0) {
        *dir = jdir;
        return j;
      }
    }
    return -1;
  }

  // Cyclic window scan resuming at price_cursor_: take the best
  // candidate of the first window that has one; a full wrap with no
  // candidate proves optimality.
  const int window = std::max(kMinPriceWindow, total_ / 8);
  double best = 0.0;
  int idx = price_cursor_ >= total_ ? 0 : price_cursor_;
  int in_window = 0;
  for (int scanned = 0; scanned < total_; ++scanned) {
    double score = 0.0;
    const int jdir = price_column(cost, y_, idx, &score);
    if (jdir != 0 && (q < 0 || score > best)) {
      best = score;
      q = idx;
      *dir = jdir;
    }
    if (++idx == total_) idx = 0;
    if (++in_window == window) {
      if (q >= 0) break;
      in_window = 0;
    }
  }
  if (q >= 0) price_cursor_ = idx;
  return q;
}

void RevisedSimplex::apply_perturbation() {
  // EXPAND-style: relax the *active* finite bounds of basic variables
  // outward by deterministic per-column epsilons. No point moves, but
  // the tied ratio-test values that keep producing zero-step pivots
  // spread apart, so the next pivots make real progress. solve_cold
  // restores the bounds and cleans up before reporting.
  for (int i = 0; i < m_; ++i) {
    const int b = basic_[i];
    double ncl = cl_[b];
    double ncu = cu_[b];
    if (std::isfinite(cl_[b]) &&
        x_[b] - cl_[b] <= tol::kPerturbActiveTol * (1.0 + std::abs(cl_[b]))) {
      ncl -= tol::kPerturbBase * (1.0 + hash01(static_cast<std::uint64_t>(b))) *
             (1.0 + std::abs(cl_[b]));
    }
    if (std::isfinite(cu_[b]) &&
        cu_[b] - x_[b] <= tol::kPerturbActiveTol * (1.0 + std::abs(cu_[b]))) {
      ncu += tol::kPerturbBase *
             (1.0 + hash01(static_cast<std::uint64_t>(b) + 0x5bd1e995u)) *
             (1.0 + std::abs(cu_[b]));
    }
    if (ncl != cl_[b] || ncu != cu_[b]) {
      perturb_undo_.push_back({b, cl_[b], cu_[b]});
      cl_[b] = ncl;
      cu_[b] = ncu;
    }
  }
  if (!perturb_undo_.empty()) {
    perturbed_ = true;
    c_perturbations.inc();
  }
}

void RevisedSimplex::remove_perturbation() {
  for (const BoundPerturbation& p : perturb_undo_) {
    cl_[p.col] = p.cl;
    cu_[p.col] = p.cu;
  }
  perturb_undo_.clear();
  perturbed_ = false;
}

bool RevisedSimplex::exchange(int r, int q) {
  const int leaving = basic_[r];
  basic_[r] = q;
  pos_[leaving] = -1;
  pos_[q] = r;
  status_[q] = VarStatus::Basic;
  if (!factor_.update(r, w_, w_sparse_ ? &w_nz_ : nullptr)) {
    // The cheap update rejected the pivot element; a full
    // refactorization of the already-swapped basis usually survives.
    return refactorize();
  }
  // Keep the cache key honest: factor_ now represents the post-exchange
  // basis, so the next solve's cache lookup must compare against it —
  // matching the pre-update snapshot would reuse a wrong inverse.
  if (static_cast<int>(factored_basic_.size()) == m_) factored_basic_[r] = q;
  return true;
}

template <bool kSparse>
int RevisedSimplex::ratio_test(int dir, bool bland, double* limit_out,
                               bool* leave_up_out) const {
  // Bounded ratio test. Entering moves by dir * step; basic i moves by
  // -dir * step * w[i]. Steps clamp at >= 0 so tiny tolerance
  // violations trigger a degenerate pivot instead of growing. The
  // sparse instance walks w's ascending nonzero list: the zeros the
  // dense walk skips are the only rows it misses, so ties break the
  // same way.
  double limit = kInf;
  int leave = -1;
  bool leave_up = false;
  const int count = kSparse ? static_cast<int>(w_nz_.size()) : m_;
  for (int k = 0; k < count; ++k) {
    const int i = kSparse ? w_nz_[k] : k;
    const double g = dir * w_[i];
    const int b = basic_[i];
    double ratio;
    bool to_upper;
    if (g > tol::kPivotTol) {
      if (!std::isfinite(cl_[b])) continue;
      ratio = (x_[b] - cl_[b]) / g;
      to_upper = false;
    } else if (g < -tol::kPivotTol) {
      if (!std::isfinite(cu_[b])) continue;
      ratio = (cu_[b] - x_[b]) / (-g);
      to_upper = true;
    } else {
      continue;
    }
    if (ratio < 0.0) ratio = 0.0;
    bool take;
    if (leave < 0 || ratio < limit - kRatioTieTol) {
      take = true;
    } else if (ratio <= limit + kRatioTieTol) {
      take = bland ? b < basic_[leave]
                   : std::abs(w_[i]) > std::abs(w_[leave]);
    } else {
      take = false;
    }
    if (take) {
      limit = std::min(limit, ratio);
      leave = i;
      leave_up = to_upper;
    }
  }
  *limit_out = limit;
  *leave_up_out = leave_up;
  return leave;
}

SolveStatus RevisedSimplex::primal_iterate(const std::vector<double>& cost,
                                           bool phase1,
                                           const SimplexOptions& opt,
                                           long* iters) {
  long degen_streak = 0;
  bool bland = false;
  price_cursor_ = 0;
  prices_fresh_ = false;
  price_r_ = -1;
  for (;;) {
    if (*iters >= opt.max_iterations) return SolveStatus::IterationLimit;
    if ((*iters & 15) == 0 && watch_.seconds() > opt.time_limit_seconds) {
      return SolveStatus::TimeLimit;
    }
    if (factor_.needs_refactor() && !refactorize()) {
      return SolveStatus::Error;
    }
    if (phase1 && phase1_objective() <= 0.25 * tol::kFeasTol) {
      return SolveStatus::Optimal;
    }

    int dir = 0;
    const int q = price_entering(cost, bland, &dir);
    if (q < 0) return SolveStatus::Optimal;

    ftran_column(q);

    double limit = kInf;
    bool leave_up = false;
    const int leave =
        w_sparse_ ? ratio_test<true>(dir, bland, &limit, &leave_up)
                  : ratio_test<false>(dir, bland, &limit, &leave_up);

    // Bound flip: the entering column reaches its opposite bound before
    // any basic column blocks.
    const double flip = std::isfinite(cl_[q]) && std::isfinite(cu_[q])
                            ? cu_[q] - cl_[q]
                            : kInf;
    if (std::isfinite(flip) && flip <= limit + kRatioTieTol) {
      if (w_sparse_) {
        for (const int i : w_nz_) x_[basic_[i]] -= dir * flip * w_[i];
      } else {
        for (int i = 0; i < m_; ++i) {
          x_[basic_[i]] -= dir * flip * w_[i];
        }
      }
      x_[q] = dir > 0 ? cu_[q] : cl_[q];
      status_[q] = dir > 0 ? VarStatus::AtUpper : VarStatus::AtLower;
      mark_stale(q);
      ++*iters;
      c_bound_flips.inc();
      continue;
    }
    if (leave < 0) {
      // Phase 1 minimizes a sum of absolute values — it cannot be
      // unbounded, so an unbounded ray there is a numerical failure.
      return phase1 ? SolveStatus::Error : SolveStatus::Unbounded;
    }

    const double step = limit;
    const int lcol = basic_[leave];
    if (w_sparse_) {
      for (const int i : w_nz_) {
        if (i != leave) x_[basic_[i]] -= dir * step * w_[i];
      }
    } else {
      for (int i = 0; i < m_; ++i) {
        if (i == leave) continue;
        x_[basic_[i]] -= dir * step * w_[i];
      }
    }
    x_[lcol] = leave_up ? cu_[lcol] : cl_[lcol];
    x_[q] += dir * step;
    status_[lcol] = leave_up ? VarStatus::AtUpper : VarStatus::AtLower;
    if (!exchange(leave, q)) return SolveStatus::Error;
    price_r_ = leave;
    mark_stale(q);
    mark_stale(lcol);
    if (phase1) {
      const int art0 = form_.artificial_col(0);
      if (lcol >= art0) {
        phase1_rows_.erase(std::lower_bound(phase1_rows_.begin(),
                                            phase1_rows_.end(), lcol - art0));
      }
      if (q >= art0) {
        phase1_rows_.insert(std::lower_bound(phase1_rows_.begin(),
                                             phase1_rows_.end(), q - art0),
                            q - art0);
      }
    }
    ++*iters;
    c_revised_pivots.inc();
    if (phase1) c_phase1_pivots.inc();

    if (step <= kDegenerateStep) {
      c_degenerate_pivots.inc();
      ++degen_streak;
      if (!phase1 && opt.perturb && !perturbed_ &&
          degen_streak >= opt.perturb_after) {
        apply_perturbation();
        degen_streak = 0;
      }
      if (degen_streak >= opt.stall_limit && !bland) bland = true;
    } else {
      degen_streak = 0;
    }
  }
}

int RevisedSimplex::dual_entering(bool below, bool bland, double* ratio_out,
                                  double* alpha_out) const {
  // Dual ratio test. Eligibility keeps the step direction that repairs
  // the leaving value; min |d|/|alpha| preserves dual feasibility. It
  // visits alpha_nz_ (every column with alpha != 0, ascending): a scan of
  // every column would skip the others, since |alpha| = 0 fails the
  // pivot tolerance, so both pick the same column.
  int q = -1;
  double best_ratio = kInf;
  double best_alpha = 0.0;
  for (const int j : alpha_nz_) {
    if (status_[j] == VarStatus::Basic) continue;
    if (cu_[j] - cl_[j] <= 0.0) continue;
    const double alpha = row_alpha(j);
    if (std::abs(alpha) <= tol::kPivotTol) continue;
    bool ok = false;
    switch (status_[j]) {
      case VarStatus::AtLower:
        ok = below ? alpha < 0.0 : alpha > 0.0;
        break;
      case VarStatus::AtUpper:
        ok = below ? alpha > 0.0 : alpha < 0.0;
        break;
      case VarStatus::Free:
        ok = true;
        break;
      case VarStatus::Basic:
        break;
    }
    if (!ok) continue;
    const double ratio = std::max(std::abs(d_[j]), 0.0) / std::abs(alpha);
    bool take;
    if (q < 0 || ratio < best_ratio - kRatioTieTol) {
      take = true;
    } else if (ratio <= best_ratio + kRatioTieTol) {
      // Ascending j, so in Bland mode the first minimum sticks.
      take = !bland && std::abs(alpha) > std::abs(best_alpha);
    } else {
      take = false;
    }
    if (take) {
      best_ratio = std::min(best_ratio, ratio);
      best_alpha = alpha;
      q = j;
    }
  }
  *ratio_out = best_ratio;
  *alpha_out = best_alpha;
  return q;
}

SolveStatus RevisedSimplex::dual_iterate(const SimplexOptions& opt,
                                         long* iters, bool costs_fresh) {
  long degen_streak = 0;
  bool bland = false;
  dual_costs_ = true;
  if (!costs_fresh) refresh_reduced_costs();
  for (;;) {
    if (*iters >= opt.max_iterations) return SolveStatus::IterationLimit;
    if ((*iters & 15) == 0 && watch_.seconds() > opt.time_limit_seconds) {
      return SolveStatus::TimeLimit;
    }
    if (factor_.needs_refactor() && !refactorize()) {
      return SolveStatus::Error;
    }

    // Leaving: worst (relatively scaled) bound violation among basics.
    int r = -1;
    double worst = tol::kFeasTol;
    bool below = false;
    // worst starts above zero, so only an actual violation can win, and
    // only a violation pays for the division.
    for (int i = 0; i < m_; ++i) {
      const int b = basic_[i];
      if (std::isfinite(cl_[b]) && x_[b] < cl_[b]) {
        const double v = (cl_[b] - x_[b]) / (1.0 + std::abs(cl_[b]));
        if (v > worst) {
          worst = v;
          r = i;
          below = true;
        }
      }
      if (std::isfinite(cu_[b]) && x_[b] > cu_[b]) {
        const double v = (x_[b] - cu_[b]) / (1.0 + std::abs(cu_[b]));
        if (v > worst) {
          worst = v;
          r = i;
          below = false;
        }
      }
    }
    if (r < 0) {
      // Primal feasible: Optimal only if the fresh reduced costs agree.
      // Drift that left one of the wrong sign voids the answer, like a
      // failed accuracy check (a warm solve then falls back to cold).
      if (d_age_ > 0) refresh_reduced_costs();
      return dual_feasible() ? SolveStatus::Optimal : SolveStatus::Error;
    }

    const int brow = basic_[r];
    const double target = below ? cl_[brow] : cu_[brow];

    // Entering: the dual ratio test over the pivot row alpha = rho' A,
    // rho = row r of B^{-1}.
    pivot_row(r);
    double best_ratio = kInf;
    double best_alpha = 0.0;
    const int q = dual_entering(below, bland, &best_ratio, &best_alpha);
    if (q < 0) {
      // Dual unbounded along the repairing direction: the primal child
      // is infeasible (rho is the Farkas row certificate).
      clear_pivot_row();
      return SolveStatus::Infeasible;
    }
    update_reduced_costs(q, brow, d_[q] / best_alpha);
    clear_pivot_row();

    // x_r moves to its violated bound; the entering column absorbs the
    // step. (No dual bound-flip ratio test: if x_q overshoots its own
    // box it simply becomes the next leaving candidate — correctness is
    // preserved because dual feasibility is, at the cost of an extra
    // pivot in rare cases.)
    const double theta = (x_[brow] - target) / best_alpha;
    ftran_column(q);
    if (w_sparse_) {
      for (const int i : w_nz_) {
        if (i != r) x_[basic_[i]] -= theta * w_[i];
      }
    } else {
      for (int i = 0; i < m_; ++i) {
        if (i == r) continue;
        x_[basic_[i]] -= theta * w_[i];
      }
    }
    x_[brow] = target;
    status_[brow] = below ? VarStatus::AtLower : VarStatus::AtUpper;
    x_[q] += theta;
    if (!exchange(r, q)) return SolveStatus::Error;
    ++*iters;
    c_dual_pivots.inc();

    if (best_ratio <= kDegenerateStep) {
      c_degenerate_pivots.inc();
      if (++degen_streak >= opt.stall_limit && !bland) bland = true;
    } else {
      degen_streak = 0;
    }
  }
}

SolveStatus RevisedSimplex::solve_cold(const SimplexOptions& opt,
                                       const std::vector<double>& lb,
                                       const std::vector<double>& ub,
                                       long* iterations, const Basis* start) {
  watch_.reset();
  *iterations = 0;
  perturb_undo_.clear();
  perturbed_ = false;
  dual_costs_ = false;
  set_bounds(lb, ub);

  if (start != nullptr) {
    // The bounds keep every artificial closed, so an accepted start is a
    // phase-2 basis as it stands. A rejected one leaves nothing behind
    // that the crash below does not overwrite.
    if (load_start(*start)) {
      c_start_solves.inc();
      return phase2(opt, iterations);
    }
    c_start_rejects.inc();
  }

  // Crash point: structurals at their nearest finite bound (free at 0).
  for (int j = 0; j < n_; ++j) {
    if (std::isfinite(cl_[j])) {
      status_[j] = VarStatus::AtLower;
      x_[j] = cl_[j];
    } else if (std::isfinite(cu_[j])) {
      status_[j] = VarStatus::AtUpper;
      x_[j] = cu_[j];
    } else {
      status_[j] = VarStatus::Free;
      x_[j] = 0.0;
    }
  }

  // Row residuals at the crash point decide the starting basis: the
  // logical column covers a nonnegative-residual inequality row; every
  // other row opens its artificial (sign carried by the artificial's
  // per-solve bounds and phase-1 cost, the matrix column is always +e_i
  // so any leftover basis refactorizes identically in later solves).
  resid_ = form_.rhs;
  for (int j = 0; j < n_; ++j) {
    const double xj = x_[j];
    if (xj == 0.0) continue;
    for (int t = form_.col_start[j]; t < form_.col_start[j + 1]; ++t) {
      resid_[form_.col_row[t]] -= form_.col_val[t] * xj;
    }
  }
  cost1_.assign(total_, 0.0);
  basic_.clear();
  phase1_rows_.clear();
  bool need_phase1 = false;
  for (int i = 0; i < m_; ++i) {
    const int s = form_.logical_col(i);
    const int a = form_.artificial_col(i);
    const double r = resid_[i];
    status_[s] = VarStatus::AtLower;
    x_[s] = 0.0;
    status_[a] = VarStatus::AtLower;
    x_[a] = 0.0;
    if (!form_.row_is_eq[i] && r >= 0.0) {
      basic_.push_back(s);
      status_[s] = VarStatus::Basic;
      x_[s] = r;
    } else {
      basic_.push_back(a);
      phase1_rows_.push_back(i);
      status_[a] = VarStatus::Basic;
      x_[a] = r;
      if (r >= 0.0) {
        cl_[a] = 0.0;
        cu_[a] = kInf;
        cost1_[a] = 1.0;
      } else {
        cl_[a] = -kInf;
        cu_[a] = 0.0;
        cost1_[a] = -1.0;
      }
      if (std::abs(r) > 0.25 * tol::kFeasTol) need_phase1 = true;
    }
  }
  rebuild_positions();
  if (!refactorize()) return SolveStatus::Error;

  if (need_phase1) {
    const SolveStatus st =
        primal_iterate(cost1_, /*phase1=*/true, opt, iterations);
    if (st != SolveStatus::Optimal) {
      return st == SolveStatus::Unbounded ? SolveStatus::Error : st;
    }
    if (phase1_objective() > tol::kFeasTol) return SolveStatus::Infeasible;
  }

  // Close the artificials for phase 2: nonbasic ones pin to zero; basic
  // leftovers sit within the phase-1 tolerance and leave degenerately
  // if phase 2 ever tries to move them.
  for (int i = 0; i < m_; ++i) {
    const int a = form_.artificial_col(i);
    cl_[a] = 0.0;
    cu_[a] = 0.0;
    if (status_[a] != VarStatus::Basic) {
      status_[a] = VarStatus::AtLower;
      x_[a] = 0.0;
    }
  }

  return phase2(opt, iterations);
}

bool RevisedSimplex::load_statuses(const Basis& basis) {
  if (static_cast<int>(basis.status.size()) != total_) return false;
  status_ = basis.status;
  for (int j = 0; j < total_; ++j) {
    switch (status_[j]) {
      case VarStatus::Basic:
        break;
      case VarStatus::AtLower:
        if (std::isfinite(cl_[j])) {
          x_[j] = cl_[j];
        } else if (std::isfinite(cu_[j])) {
          status_[j] = VarStatus::AtUpper;
          x_[j] = cu_[j];
        } else {
          status_[j] = VarStatus::Free;
          x_[j] = 0.0;
        }
        break;
      case VarStatus::AtUpper:
        if (std::isfinite(cu_[j])) {
          x_[j] = cu_[j];
        } else if (std::isfinite(cl_[j])) {
          status_[j] = VarStatus::AtLower;
          x_[j] = cl_[j];
        } else {
          status_[j] = VarStatus::Free;
          x_[j] = 0.0;
        }
        break;
      case VarStatus::Free:
        if (std::isfinite(cl_[j])) {
          status_[j] = VarStatus::AtLower;
          x_[j] = cl_[j];
        } else if (std::isfinite(cu_[j])) {
          status_[j] = VarStatus::AtUpper;
          x_[j] = cu_[j];
        } else {
          x_[j] = 0.0;
        }
        break;
    }
  }
  basic_.clear();
  for (int j = 0; j < total_; ++j) {
    if (status_[j] == VarStatus::Basic) basic_.push_back(j);
  }
  if (static_cast<int>(basic_.size()) != m_) return false;
  rebuild_positions();
  return true;
}

bool RevisedSimplex::load_start(const Basis& start) {
  if (!load_statuses(start) || !refactorize()) return false;
  // Written so that a NaN basic value fails too.
  for (const int b : basic_) {
    if (!(x_[b] >= cl_[b] - tol::kFeasTol && x_[b] <= cu_[b] + tol::kFeasTol)) {
      return false;
    }
  }
  return true;
}

SolveStatus RevisedSimplex::phase2(const SimplexOptions& opt,
                                   long* iterations) {
  SolveStatus st = primal_iterate(cost2_, /*phase1=*/false, opt, iterations);
  if (perturbed_) {
    // The point optimized the relaxed box. Restore the true bounds,
    // re-pin the nonbasics, and let the dual simplex repair the (at most
    // epsilon-sized) primal violations — costs never changed, so the
    // basis is still dual feasible. Unboundedness survives restoration
    // (the recession cone ignores bound offsets); a cleanup that ends
    // Infeasible contradicts phase 1 (or the feasible start) and is
    // reported as Error rather than trusted.
    remove_perturbation();
    if (st == SolveStatus::Optimal) {
      for (int j = 0; j < total_; ++j) {
        if (status_[j] == VarStatus::AtLower && std::isfinite(cl_[j])) {
          x_[j] = cl_[j];
        } else if (status_[j] == VarStatus::AtUpper && std::isfinite(cu_[j])) {
          x_[j] = cu_[j];
        }
      }
      compute_basic_values();
      st = dual_iterate(opt, iterations, /*costs_fresh=*/false);
      if (st == SolveStatus::Infeasible) st = SolveStatus::Error;
    }
  }
  if (st == SolveStatus::Optimal && !accuracy_ok()) {
    return SolveStatus::Error;
  }
  return st;
}

SolveStatus RevisedSimplex::solve_warm(const SimplexOptions& opt,
                                       const std::vector<double>& lb,
                                       const std::vector<double>& ub,
                                       const Basis& hint, long* iterations) {
  watch_.reset();
  *iterations = 0;
  perturb_undo_.clear();
  perturbed_ = false;
  dual_costs_ = false;
  set_bounds(lb, ub);
  cost1_.assign(total_, 0.0);  // artificials closed: no phase-1 costs

  // Re-pin nonbasic columns to the (possibly tightened) child bounds.
  if (!load_statuses(hint)) return SolveStatus::Error;

  // Factorization cache: while branch-and-bound plunges, consecutive
  // warm solves often share the exact basis — skip the sparse LU
  // rebuild. Only a *pristine* factor qualifies (zero eta updates since
  // the last full factorize): an eta file carries roundoff that a fresh
  // LU of the same basis would not, so a hit would make the solve
  // depend on engine history. With the gate, every node solve is a pure
  // function of (bounds, hint basis) — the invariant the parallel B&B's
  // thread-count-independent tree relies on.
  if (basic_ == factored_basic_ && factor_.valid() &&
      factor_.pivots_since_factor() == 0) {
    c_factor_cache_hits.inc();
    compute_basic_values();
  } else if (!refactorize()) {
    return SolveStatus::Error;
  }

  // Restore dual feasibility. A parent-optimal basis is dual feasible
  // by construction (costs and matrix unchanged), but re-pinned columns
  // may sit at the wrong bound for their reduced-cost sign — a free
  // bound flip fixes those. Columns that cannot be repaired (no
  // opposite bound) void the warm start. The scan's reduced costs seed
  // the dual's maintained ones (fixed columns are never priced).
  compute_y(cost2_, y_);
  const double flip_tol = tol::kCostTol;
  bool flipped = false;
  for (int j = 0; j < total_; ++j) {
    if (status_[j] == VarStatus::Basic) {
      d_[j] = 0.0;
      continue;
    }
    if (cu_[j] - cl_[j] <= 0.0) continue;  // fixed: any sign is fine
    const double d = cost2_[j] - form_.col_dot(y_, j);
    d_[j] = d;
    if (status_[j] == VarStatus::AtLower && d < -flip_tol) {
      if (std::isfinite(cu_[j])) {
        status_[j] = VarStatus::AtUpper;
        x_[j] = cu_[j];
        flipped = true;
      } else if (d < -kDualBailTol) {
        return SolveStatus::Error;
      }
    } else if (status_[j] == VarStatus::AtUpper && d > flip_tol) {
      if (std::isfinite(cl_[j])) {
        status_[j] = VarStatus::AtLower;
        x_[j] = cl_[j];
        flipped = true;
      } else if (d > kDualBailTol) {
        return SolveStatus::Error;
      }
    } else if (status_[j] == VarStatus::Free && std::abs(d) > kDualBailTol) {
      return SolveStatus::Error;
    }
  }
  if (flipped) compute_basic_values();
  d_age_ = 0;

  const SolveStatus st = dual_iterate(opt, iterations, /*costs_fresh=*/true);
  if (st == SolveStatus::Optimal && !accuracy_ok()) {
    return SolveStatus::Error;
  }
  return st;
}

void RevisedSimplex::primal_values(std::vector<double>& x) const {
  x.assign(x_.begin(), x_.begin() + n_);
}

double RevisedSimplex::model_objective() const {
  double internal = form_.cost_offset;
  for (int j = 0; j < n_; ++j) internal += form_.cost[j] * x_[j];
  return form_.obj_scale * internal;  // obj_scale is +-1, its own inverse
}

void RevisedSimplex::extract_duals(const Model& model,
                                   std::vector<double>& duals,
                                   std::vector<double>& reduced_costs) const {
  std::vector<double> y;
  compute_y(cost2_, y);
  duals.assign(model.num_constraints(), 0.0);
  // Derivation against check::certify_lp's canonical signs (sig = +1 for
  // LessEqual, -1 for GreaterEqual AND Equal) with our row scaling
  // (sigma = -1 only for GreaterEqual): lambda_i = -y_i * sigma_i / sig_i,
  // which collapses to -y_i for both inequality senses and +y_i for
  // equalities.
  for (int i = 0; i < m_; ++i) {
    duals[form_.source_con[i]] = form_.row_is_eq[i] ? y[i] : -y[i];
  }
  // Structural columns map 1:1 to model variables with untransformed
  // coefficients, so reduced costs are direct.
  reduced_costs.assign(model.num_vars(), 0.0);
  for (int v = 0; v < n_; ++v) {
    reduced_costs[v] = cost2_[v] - form_.col_dot(y, v);
  }
}

void RevisedSimplex::export_basis(Basis& out) const { out.status = status_; }

}  // namespace metaopt::lp
