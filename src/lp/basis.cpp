#include "lp/basis.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "obs/obs.h"
#include "util/stopwatch.h"
#include "util/tolerances.h"

namespace metaopt::lp {

namespace {

const obs::Counter c_eta_count = obs::counter("simplex.eta_count");
const obs::Counter c_fillin_triggers =
    obs::counter("simplex.refactor_fillin_triggers");
// Fill-in per factorization, recorded in percent of the basis-matrix
// nonzeros (100 == no fill at all).
const obs::Histogram h_fillin_ratio = obs::histogram("simplex.fillin_ratio");
// Wall time of each successful factorization of a non-empty basis (the
// events simplex.fillin_ratio records): the lp.factorize ledger bucket.
const obs::Histogram h_factorize_ns = obs::histogram("simplex.factorize_ns");
// In-place updates of the primal's y (cost_btran_update), and the U'
// and L' steps they recomputed.
const obs::Counter c_y_updates = obs::counter("simplex.primal_y_updates");
const obs::Counter c_y_reach = obs::counter("simplex.primal_y_reach");

/// Bitwise equality: tells -0.0 from +0.0 (and compares NaN payloads).
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

}  // namespace

bool BasisFactor::factorize(const BoundedForm& form,
                            const std::vector<int>& basic) {
  // A refactorization demanded by the eta-file fill-in monitor is the
  // event the counter tracks; interval and cold refactorizations are
  // counted separately by the engine.
  if (fillin_triggered()) c_fillin_triggers.inc();

  const util::Stopwatch watch;
  const int m = form.num_rows;
  m_ = 0;
  pivots_ = 0;
  cost_etas_ = -1;
  etas_.clear();
  eta_nnz_ = 0;
  lu_nnz_ = 0;
  basis_nnz_ = 0;
  factorized_empty_ = m == 0;
  if (m == 0) return true;
  if (static_cast<int>(basic.size()) != m) return false;

  for (int k = 0; k < m; ++k) {
    const int j = basic[k];
    if (j < 0 || j >= form.num_cols()) return false;
    basis_nnz_ += j < form.num_structs
                      ? form.col_start[j + 1] - form.col_start[j]
                      : 1;
  }

  if (!factorize_lu(form, basic)) return false;
  m_ = m;
  if (m >= kHyperMinRows) build_transposed();
  h_fillin_ratio.observe(
      static_cast<std::uint64_t>(std::llround(fillin_ratio() * 100.0)));
  h_factorize_ns.observe(watch.elapsed_ns());
  return true;
}

double BasisFactor::fillin_ratio() const {
  if (m_ == 0) return 1.0;
  return static_cast<double>(lu_nnz_ + eta_nnz_) / std::max(1, basis_nnz_);
}

bool BasisFactor::fillin_triggered() const {
  if (m_ == 0) return false;
  return static_cast<double>(eta_nnz_) > kEtaFillFactor * (lu_nnz_ + m_);
}

// ---------------------------------------------------------------------------
// Left-looking LU with Markowitz-threshold pivoting and a symbolic reach
// per column.
// ---------------------------------------------------------------------------

bool BasisFactor::factorize_lu(const BoundedForm& form,
                               const std::vector<int>& basic) {
  const int m = form.num_rows;

  // Static row counts of the basis matrix (Markowitz tie-break) and
  // per-position column counts (elimination order: cheapest first).
  row_count_.assign(m, 0);
  col_nnz_.assign(m, 0);
  for (int p = 0; p < m; ++p) {
    const int j = basic[p];
    if (j < form.num_structs) {
      col_nnz_[p] = form.col_start[j + 1] - form.col_start[j];
      for (int t = form.col_start[j]; t < form.col_start[j + 1]; ++t) {
        ++row_count_[form.col_row[t]];
      }
    } else {
      col_nnz_[p] = 1;
      const int row = j < form.num_structs + m ? j - form.num_structs
                                               : j - form.num_structs - m;
      ++row_count_[row];
    }
  }
  // Stable counting sort of the positions by column count: the same
  // permutation a stable comparison sort gives, in O(m + max count).
  const int max_nnz = *std::max_element(col_nnz_.begin(), col_nnz_.end());
  nnz_bucket_.assign(max_nnz + 2, 0);
  for (int p = 0; p < m; ++p) ++nnz_bucket_[col_nnz_[p] + 1];
  for (int c = 1; c <= max_nnz; ++c) nnz_bucket_[c] += nnz_bucket_[c - 1];
  col_order_.resize(m);
  for (int p = 0; p < m; ++p) col_order_[nnz_bucket_[col_nnz_[p]]++] = p;

  pivrow_.assign(m, -1);
  col_of_step_.assign(m, -1);
  diag_.assign(m, 0.0);
  rowpos_.assign(m, -1);
  lstart_.assign(1, 0);
  ustart_.assign(1, 0);
  lcol_.clear();
  ucol_.clear();
  fwork_.assign(m, 0.0);
  fmark_.assign(m, 0);
  reached_.assign(m, 0);
  ftouched_.clear();

  const auto touch = [&](int row) {
    if (fmark_[row] == 0) {
      fmark_[row] = 1;
      ftouched_.push_back(row);
    }
  };
  const auto clear_touched = [&] {
    for (const int row : ftouched_) {
      fwork_[row] = 0.0;
      fmark_[row] = 0;
    }
    ftouched_.clear();
  };

  for (int k = 0; k < m; ++k) {
    const int p = col_order_[k];
    const int j = basic[p];

    // Scatter column p of B into the dense work vector.
    if (j < form.num_structs) {
      for (int t = form.col_start[j]; t < form.col_start[j + 1]; ++t) {
        const int row = form.col_row[t];
        touch(row);
        fwork_[row] += form.col_val[t];
      }
    } else {
      const int row = j < form.num_structs + m ? j - form.num_structs
                                               : j - form.num_structs - m;
      touch(row);
      fwork_[row] += 1.0;
    }

    // Symbolic reach (Gilbert & Peierls, SIAM J. Sci. Stat. Comput.
    // 1988): the earlier steps whose pivot row can be nonzero in this
    // column. The seeds are the scattered rows that are already
    // pivoted; step t reaches the step of every pivoted row in L
    // column t. Any other step's pivot row is never touched, so it
    // stays an exact zero and the elimination below would skip it.
    reach_.clear();
    const auto visit = [&](int row) {
      const int step = rowpos_[row];
      if (step >= 0 && reached_[step] == 0) {
        reached_[step] = 1;
        reach_.push_back(step);
      }
    };
    for (const int row : ftouched_) visit(row);
    for (std::size_t i = 0; i < reach_.size(); ++i) {
      const int t = reach_[i];
      for (int e = lstart_[t]; e < lstart_[t + 1]; ++e) visit(lcol_[e].idx);
    }
    // Ascending step order is topological (L column t only holds rows
    // pivoted after step t), and it is the order of a full 0..k-1
    // scan, so the arithmetic and the touch order match that scan bit
    // for bit.
    std::sort(reach_.begin(), reach_.end());
    for (const int t : reach_) reached_[t] = 0;

    // Left-looking elimination: apply the L columns of every reached
    // step whose pivot row carries a nonzero. A pivot row, once read
    // here, is never modified by later steps (their L columns only hold
    // still-unpivoted rows), so fwork_[pivrow_[t]] IS u_{t,k} below.
    for (const int t : reach_) {
      const double u = fwork_[pivrow_[t]];
      if (u == 0.0) continue;
      for (int e = lstart_[t]; e < lstart_[t + 1]; ++e) {
        const int row = lcol_[e].idx;
        touch(row);
        fwork_[row] -= lcol_[e].val * u;
      }
    }

    // Gather the U column.
    for (const int t : reach_) {
      const double u = fwork_[pivrow_[t]];
      if (u != 0.0) ucol_.push_back({t, u});
    }
    ustart_.push_back(static_cast<int>(ucol_.size()));

    // Markowitz-threshold pivot: among still-unpivoted rows within
    // kMarkowitzThreshold of the largest magnitude, take the one with
    // the fewest basis-matrix nonzeros (lowest row index on ties, so
    // the choice never depends on scatter order).
    double wmax = 0.0;
    for (const int row : ftouched_) {
      if (rowpos_[row] >= 0) continue;
      wmax = std::max(wmax, std::abs(fwork_[row]));
    }
    if (wmax <= tol::kPivotTol) {
      clear_touched();
      return false;  // numerically singular
    }
    const double accept =
        std::max(tol::kPivotTol, kMarkowitzThreshold * wmax);
    int best_row = -1;
    int best_cnt = std::numeric_limits<int>::max();
    for (const int row : ftouched_) {
      if (rowpos_[row] >= 0) continue;
      if (std::abs(fwork_[row]) < accept) continue;
      const int cnt = row_count_[row];
      if (cnt < best_cnt || (cnt == best_cnt && row < best_row)) {
        best_cnt = cnt;
        best_row = row;
      }
    }
    if (best_row < 0) {
      // Threshold floor sits above kPivotTol only when wmax does; the
      // max() above guarantees at least the wmax row qualifies.
      clear_touched();
      return false;
    }
    pivrow_[k] = best_row;
    rowpos_[best_row] = k;
    col_of_step_[k] = p;
    diag_[k] = fwork_[best_row];

    // L multipliers for the remaining unpivoted rows.
    const double inv_piv = 1.0 / diag_[k];
    for (const int row : ftouched_) {
      if (rowpos_[row] >= 0) continue;
      const double v = fwork_[row];
      if (v != 0.0) lcol_.push_back({row, v * inv_piv});
    }
    lstart_.push_back(static_cast<int>(lcol_.size()));
    clear_touched();
  }

  lu_nnz_ = static_cast<int>(lcol_.size() + ucol_.size()) + m;
  return true;
}

void BasisFactor::build_transposed() {
  step_of_pos_.resize(m_);
  for (int k = 0; k < m_; ++k) step_of_pos_[col_of_step_[k]] = k;
  // Counting transposes; walking the steps in ascending order lists each
  // step's referrers in ascending order. reach_ is free scratch here.
  const auto transpose = [&](const std::vector<int>& col_start,
                             const std::vector<SparseEntry>& entries,
                             const auto& target, std::vector<int>& start,
                             std::vector<int>& step) {
    start.assign(m_ + 1, 0);
    for (const SparseEntry& e : entries) ++start[target(e) + 1];
    for (int t = 0; t < m_; ++t) start[t + 1] += start[t];
    step.resize(entries.size());
    reach_.assign(start.begin(), start.end() - 1);
    for (int k = 0; k < m_; ++k) {
      for (int e = col_start[k]; e < col_start[k + 1]; ++e) {
        step[reach_[target(entries[e])]++] = k;
      }
    }
  };
  transpose(ustart_, ucol_, [](const SparseEntry& e) { return e.idx; },
            ut_start_, ut_step_);
  transpose(lstart_, lcol_,
            [this](const SparseEntry& e) { return rowpos_[e.idx]; }, lt_start_,
            lt_step_);
  reach_.clear();
}

void BasisFactor::ftran(std::vector<double>& x) const {
  if (m_ == 0) return;
  // Forward: L y = P x, in original row space.
  for (int k = 0; k < m_; ++k) {
    const double xk = x[pivrow_[k]];
    if (xk == 0.0) continue;
    for (int e = lstart_[k]; e < lstart_[k + 1]; ++e) {
      x[lcol_[e].idx] -= lcol_[e].val * xk;
    }
  }
  // Backward: U z = y, step space; y_t lives at x[pivrow_[t]]. A zero
  // y_t leaves z_t at +0.0 rather than the signed zero 0/diag would be.
  zwork_.assign(m_, 0.0);
  for (int k = m_ - 1; k >= 0; --k) {
    const double yk = x[pivrow_[k]];
    if (yk == 0.0) continue;
    const double zk = yk / diag_[k];
    zwork_[k] = zk;
    if (zk == 0.0) continue;
    for (int e = ustart_[k]; e < ustart_[k + 1]; ++e) {
      x[pivrow_[ucol_[e].idx]] -= ucol_[e].val * zk;
    }
  }
  // Permute steps back to basis positions.
  for (int k = 0; k < m_; ++k) x[col_of_step_[k]] = zwork_[k];

  // Eta file, oldest first (B = B0 E1 ... Ek, so B^-1 applies Ek^-1 last).
  for (const Eta& eta : etas_) {
    if (x[eta.r] == 0.0) continue;
    const double xr = x[eta.r] / eta.pivot;
    x[eta.r] = xr;
    if (xr == 0.0) continue;
    for (const SparseEntry& e : eta.terms) x[e.idx] -= e.val * xr;
  }
}

bool BasisFactor::ftran_reach(const std::vector<int>& nz, int limit) const {
  hreach_.clear();
  const auto visit = [&](int step) {
    if (hmark_[step] == 0) {
      hmark_[step] = 1;
      hreach_.push_back(step);
    }
  };
  for (const int row : nz) visit(rowpos_[row]);
  // L reach: step t feeds the steps of the rows in L column t.
  for (std::size_t i = 0;
       i < hreach_.size() && static_cast<int>(hreach_.size()) <= limit; ++i) {
    const int t = hreach_[i];
    for (int e = lstart_[t]; e < lstart_[t + 1]; ++e) {
      visit(rowpos_[lcol_[e].idx]);
    }
  }
  // Its U closure: step k feeds the earlier steps of U column k.
  for (std::size_t i = 0;
       i < hreach_.size() && static_cast<int>(hreach_.size()) <= limit; ++i) {
    const int k = hreach_[i];
    for (int e = ustart_[k]; e < ustart_[k + 1]; ++e) visit(ucol_[e].idx);
  }
  if (static_cast<int>(hreach_.size()) > limit) {
    for (const int t : hreach_) hmark_[t] = 0;
    return false;
  }
  std::sort(hreach_.begin(), hreach_.end());
  for (const int t : hreach_) hmark_[t] = 0;
  return true;
}

bool BasisFactor::ftran(std::vector<double>& x, std::vector<int>& nz) const {
  const int limit = static_cast<int>(kHyperMaxDensity * m_);
  const auto observe = [&](int nnz) {
    ftran_density_ += kHyperDensityWeight *
                      (static_cast<double>(nnz) / m_ - ftran_density_);
  };
  if (m_ < kHyperMinRows) {
    ftran(x);
    return false;
  }
  if (hmark_.size() != static_cast<std::size_t>(m_)) hmark_.assign(m_, 0);
  if (ftran_density_ > kHyperMaxDensity || !ftran_reach(nz, limit)) {
    ftran(x);
    observe(static_cast<int>(
        std::count_if(x.begin(), x.begin() + m_,
                      [](double v) { return v != 0.0; })));
    return false;
  }
  zwork_.resize(m_);

  // The dense loops restricted to the reach: every skipped step holds an
  // exact zero there, so the dense loops would skip it too, and the
  // reached ones run in the dense order (L ascending, U descending).
  for (const int k : hreach_) {
    const double xk = x[pivrow_[k]];
    if (xk == 0.0) continue;
    for (int e = lstart_[k]; e < lstart_[k + 1]; ++e) {
      x[lcol_[e].idx] -= lcol_[e].val * xk;
    }
  }
  for (auto it = hreach_.rbegin(); it != hreach_.rend(); ++it) {
    const int k = *it;
    const double yk = x[pivrow_[k]];
    if (yk == 0.0) {
      zwork_[k] = 0.0;
      continue;
    }
    const double zk = yk / diag_[k];
    zwork_[k] = zk;
    if (zk == 0.0) continue;
    for (int e = ustart_[k]; e < ustart_[k + 1]; ++e) {
      x[pivrow_[ucol_[e].idx]] -= ucol_[e].val * zk;
    }
  }
  // Every nonzero of x sits on a reached step's pivot row: clear those,
  // then permute the steps back to basis positions.
  for (const int k : hreach_) x[pivrow_[k]] = 0.0;
  nz.clear();
  for (const int k : hreach_) {
    const int p = col_of_step_[k];
    x[p] = zwork_[k];
    hmark_[p] = 1;
    nz.push_back(p);
  }

  // Eta file as in the dense ftran; its terms may add positions.
  for (const Eta& eta : etas_) {
    if (x[eta.r] == 0.0) continue;
    const double xr = x[eta.r] / eta.pivot;
    x[eta.r] = xr;
    if (xr == 0.0) continue;
    for (const SparseEntry& e : eta.terms) {
      x[e.idx] -= e.val * xr;
      if (hmark_[e.idx] == 0) {
        hmark_[e.idx] = 1;
        nz.push_back(e.idx);
      }
    }
  }
  for (const int p : nz) hmark_[p] = 0;
  std::erase_if(nz, [&](int p) { return x[p] == 0.0; });
  std::sort(nz.begin(), nz.end());
  observe(static_cast<int>(nz.size()));
  return true;
}

void BasisFactor::btran(std::vector<double>& x) const {
  if (m_ == 0) return;
  btran_stages(x, zwork_, x);
}

void BasisFactor::eta_pass(std::vector<double>& e) const {
  // Eta transposes, newest first.
  for (auto it = etas_.rbegin(); it != etas_.rend(); ++it) {
    double acc = e[it->r];
    for (const SparseEntry& t : it->terms) acc -= t.val * e[t.idx];
    e[it->r] = acc / it->pivot;
  }
}

void BasisFactor::btran_stages(std::vector<double>& e, std::vector<double>& z,
                               std::vector<double>& y) const {
  eta_pass(e);
  // Position space -> step space.
  z.resize(m_);
  for (int k = 0; k < m_; ++k) z[k] = e[col_of_step_[k]];
  // U' w = c': forward, U' is lower triangular in step order.
  for (int k = 0; k < m_; ++k) {
    double acc = z[k];
    for (int t = ustart_[k]; t < ustart_[k + 1]; ++t) {
      acc -= ucol_[t].val * z[ucol_[t].idx];
    }
    z[k] = acc / diag_[k];
  }
  // L' v = w: backward; the result lands row-indexed through pivrow_.
  // L columns only reference rows pivoted at later steps, which this
  // descending sweep has already written.
  y.resize(m_);
  for (int k = m_ - 1; k >= 0; --k) {
    double acc = z[k];
    for (int t = lstart_[k]; t < lstart_[k + 1]; ++t) {
      acc -= lcol_[t].val * y[lcol_[t].idx];
    }
    y[pivrow_[k]] = acc;
  }
}

bool BasisFactor::btran_reach(const std::vector<int>& start,
                              const std::vector<int>& step, int limit) const {
  for (const int t : hreach_) hmark_[t] = 1;
  for (std::size_t i = 0;
       i < hreach_.size() && static_cast<int>(hreach_.size()) <= limit; ++i) {
    const int t = hreach_[i];
    for (int e = start[t]; e < start[t + 1]; ++e) {
      const int k = step[e];
      if (hmark_[k] == 0) {
        hmark_[k] = 1;
        hreach_.push_back(k);
      }
    }
  }
  for (const int t : hreach_) hmark_[t] = 0;
  if (static_cast<int>(hreach_.size()) > limit) return false;
  std::sort(hreach_.begin(), hreach_.end());
  return true;
}

bool BasisFactor::btran_unit(int r, std::vector<double>& x,
                             std::vector<int>& nz) const {
  const auto observe = [&](int nnz) {
    btran_density_ += kHyperDensityWeight *
                      (static_cast<double>(nnz) / m_ - btran_density_);
  };
  const auto dense = [&] {
    x[r] = 1.0;
    btran(x);
    observe(static_cast<int>(
        std::count_if(x.begin(), x.begin() + m_,
                      [](double v) { return v != 0.0; })));
    return false;
  };
  if (m_ < kHyperMinRows || btran_density_ > kHyperMaxDensity) return dense();
  const int limit = static_cast<int>(kHyperMaxDensity * m_);
  if (hmark_.size() != static_cast<std::size_t>(m_)) hmark_.assign(m_, 0);
  if (bwork_.size() != static_cast<std::size_t>(m_)) bwork_.assign(m_, 0.0);

  // The eta pass exactly as in btran; it writes only r and the replaced
  // positions, which bpos_ lists.
  x[r] = 1.0;
  bpos_.assign(1, r);
  for (auto it = etas_.rbegin(); it != etas_.rend(); ++it) {
    double acc = x[it->r];
    for (const SparseEntry& e : it->terms) acc -= e.val * x[e.idx];
    x[it->r] = acc / it->pivot;
    bpos_.push_back(it->r);
  }
  // Position space -> step space; x is +0.0 everywhere afterwards.
  hreach_.clear();
  for (const int p : bpos_) {
    if (x[p] != 0.0) {
      const int k = step_of_pos_[p];
      if (bwork_[k] == 0.0) hreach_.push_back(k);
      bwork_[k] = x[p];
    }
    x[p] = 0.0;
  }
  const auto fall_back = [&](const std::vector<int>& written) {
    for (const int k : written) bwork_[k] = 0.0;
    return dense();
  };

  // U' w = c' over the reach (ascending: U' is lower triangular).
  if (!btran_reach(ut_start_, ut_step_, limit)) return fall_back(hreach_);
  for (const int k : hreach_) {
    double acc = bwork_[k];
    for (int e = ustart_[k]; e < ustart_[k + 1]; ++e) {
      acc -= ucol_[e].val * bwork_[ucol_[e].idx];
    }
    bwork_[k] = acc / diag_[k];
  }
  // L' v = w over the reach of w's nonzero steps (descending).
  bpos_.swap(hreach_);  // bpos_ now lists the steps bwork_ holds
  hreach_.clear();
  for (const int k : bpos_) {
    if (bwork_[k] != 0.0) hreach_.push_back(k);
  }
  if (!btran_reach(lt_start_, lt_step_, limit)) return fall_back(bpos_);
  for (auto it = hreach_.rbegin(); it != hreach_.rend(); ++it) {
    const int k = *it;
    double acc = bwork_[k];
    for (int e = lstart_[k]; e < lstart_[k + 1]; ++e) {
      acc -= lcol_[e].val * x[lcol_[e].idx];
    }
    x[pivrow_[k]] = acc;
  }
  for (const int k : bpos_) bwork_[k] = 0.0;
  nz.clear();
  for (const int k : hreach_) {
    double& v = x[pivrow_[k]];
    if (v != 0.0) {
      nz.push_back(pivrow_[k]);
    } else {
      v = 0.0;  // +0.0 off the list, so the caller's clear-through-nz holds
    }
  }
  std::sort(nz.begin(), nz.end());
  observe(static_cast<int>(nz.size()));
  return true;
}

void BasisFactor::cost_btran(const std::vector<double>& cost,
                             const std::vector<int>& basic) {
  cb_.resize(m_);
  for (int p = 0; p < m_; ++p) cb_[p] = cost[basic[p]];
  cost_btran_dense();
}

void BasisFactor::cost_btran_dense() {
  ce_ = cb_;
  btran_stages(ce_, cz_, cy_);
  if (cost_mark_.size() != static_cast<std::size_t>(m_)) {
    cost_mark_.assign(m_, 0);
  } else {
    for (const int p : cost_pos_) cost_mark_[p] = 0;
  }
  cost_pos_.clear();
  for (const Eta& eta : etas_) {
    if (cost_mark_[eta.r] == 0) {
      cost_mark_[eta.r] = 1;
      cost_pos_.push_back(eta.r);
    }
  }
  cost_etas_ = eta_count();
}

bool BasisFactor::cost_btran_update(int r, double c,
                                    std::vector<int>& changed) {
  const bool in_place = m_ >= kHyperMinRows && cost_etas_ >= 0 &&
                        cost_etas_ + 1 == eta_count() && etas_.back().r == r;
  cb_[r] = c;
  if (!in_place) {
    cost_btran_dense();
    return false;
  }

  // The eta pass from c_B, as in btran. Only the positions it writes
  // can differ from c_B, and r (the only changed entry of c_B) is one of
  // them: a step is a seed when its position's post-eta bits changed.
  if (cost_mark_[r] == 0) {
    cost_mark_[r] = 1;
    cost_pos_.push_back(r);
  }
  cost_old_.resize(cost_pos_.size());
  for (std::size_t k = 0; k < cost_pos_.size(); ++k) {
    const int p = cost_pos_[k];
    cost_old_[k] = ce_[p];
    ce_[p] = cb_[p];
  }
  eta_pass(ce_);
  cost_etas_ = eta_count();
  const int words = (m_ + 63) / 64;
  if (cost_due_.size() != static_cast<std::size_t>(words)) {
    cost_due_.assign(words, 0);
  }
  const auto due = [&](int k) {
    cost_due_[k >> 6] |= std::uint64_t{1} << (k & 63);
  };
  int lo = words;
  for (std::size_t k = 0; k < cost_pos_.size(); ++k) {
    const int p = cost_pos_[k];
    if (!same_bits(ce_[p], cost_old_[k])) {
      due(step_of_pos_[p]);
      lo = std::min(lo, step_of_pos_[p] >> 6);
    }
  }

  // U' steps, ascending (U' is lower triangular), each with the dense
  // loop's column sum over the current step-space vector. A step is due
  // when an input changed bits; one whose result kept its bits changes
  // nothing downstream, so only changed results make later steps due.
  long reach = 0;
  int hi = -1;
  bpos_.clear();  // the steps whose U' result changed
  for (int w = lo; w < words; ++w) {
    while (cost_due_[w] != 0) {
      const int k = (w << 6) + std::countr_zero(cost_due_[w]);
      cost_due_[w] &= cost_due_[w] - 1;
      ++reach;
      double acc = ce_[col_of_step_[k]];
      for (int e = ustart_[k]; e < ustart_[k + 1]; ++e) {
        acc -= ucol_[e].val * cz_[ucol_[e].idx];
      }
      const double z = acc / diag_[k];
      if (same_bits(z, cz_[k])) continue;
      cz_[k] = z;
      bpos_.push_back(k);
      hi = std::max(hi, k >> 6);
      for (int e = ut_start_[k]; e < ut_start_[k + 1]; ++e) due(ut_step_[e]);
    }
  }
  // L' steps, descending, the same way: rows of y whose bits changed
  // make the earlier steps whose L column reads them due.
  for (const int k : bpos_) due(k);
  changed.clear();
  for (int w = hi; w >= 0; --w) {
    while (cost_due_[w] != 0) {
      const int b = 63 - std::countl_zero(cost_due_[w]);
      cost_due_[w] &= ~(std::uint64_t{1} << b);
      const int k = (w << 6) + b;
      ++reach;
      double acc = cz_[k];
      for (int e = lstart_[k]; e < lstart_[k + 1]; ++e) {
        acc -= lcol_[e].val * cy_[lcol_[e].idx];
      }
      double& y = cy_[pivrow_[k]];
      if (same_bits(acc, y)) continue;
      y = acc;
      changed.push_back(pivrow_[k]);
      for (int e = lt_start_[k]; e < lt_start_[k + 1]; ++e) due(lt_step_[e]);
    }
  }
  c_y_updates.inc();
  c_y_reach.add(static_cast<std::uint64_t>(reach));
  return true;
}

bool BasisFactor::update(int r, const std::vector<double>& w,
                         const std::vector<int>* nz) {
  if (m_ == 0) return false;
  const double piv = w[r];
  if (std::abs(piv) <= tol::kPivotTol) return false;

  Eta eta;
  eta.r = r;
  eta.pivot = piv;
  if (nz != nullptr) {
    for (const int i : *nz) {
      if (i != r && w[i] != 0.0) eta.terms.push_back({i, w[i]});
    }
  } else {
    for (int i = 0; i < m_; ++i) {
      if (i != r && w[i] != 0.0) eta.terms.push_back({i, w[i]});
    }
  }
  eta_nnz_ += static_cast<int>(eta.terms.size()) + 1;
  etas_.push_back(std::move(eta));
  ++pivots_;
  c_eta_count.inc();
  return true;
}

}  // namespace metaopt::lp
