// Explicit simplex basis: per-column status plus a factorization of the
// basis matrix with eta-file updates.
//
// The status vector is the whole warm-start contract: it is tiny (one
// byte per column), independent of any factorization, and a
// parent-optimal status vector stays dual-feasible for every child node
// of a branch-and-bound tree (bounds only tighten, costs and matrix
// never change). Branch-and-bound therefore shares `Basis` objects down
// the tree and the solver refactorizes on demand.
//
// Sharing contract: a `Basis` is immutable once published — it travels
// as shared_ptr<const Basis> and nothing writes through it. That makes
// it safe to hand the same parent basis to sibling nodes processed on
// different threads; each worker's own engine copies the statuses into
// private scratch before pivoting.
//
// `BasisFactor` is a sparse LU factorization built column-by-column
// (left-looking) with Markowitz-threshold pivoting: columns are
// eliminated cheapest-first (ascending nonzero count) and the pivot row
// is the fewest-nonzeros row among those within a threshold factor of
// the largest candidate magnitude, so fill-in stays near the
// network-flow sparsity of the KKT-rewritten models. Each column visits
// only the earlier steps in its symbolic reach (Gilbert–Peierls), so a
// factorization costs O(m + nnz(B)) plus time proportional to the
// factor's nonzeros and the arithmetic on them (and a sort of each
// column's reach), not O(m^2) step visits. Basis exchanges append
// sparse eta vectors (the product-form / Forrest–Tomlin eta
// representation: one elementary transform per pivot, applied after the
// LU solve in ftran and before it in btran). The eta file is monitored
// for fill-in: when its nonzeros outgrow the LU factors,
// needs_refactor() fires and the solver rebuilds from scratch — the
// fill-in-triggered refactorize that keeps updates from degenerating
// into a dense product form.
//
// The factor drifts with updates, so the solver refactorizes every
// kRefactorInterval pivots (or at the fill-in trigger) and runs a
// residual accuracy check before trusting a terminal point (see
// revised_simplex.cpp).
//
// Hypersparse ftran (Hall & McKinnon, Comput. Optim. Appl. 2005): the
// simplex's entering column a_q has a handful of nonzeros and so, on
// these network-structured bases, does w = B^{-1} a_q (about 3% of the
// rows on the find_te B4 POP root). The sparse overload of ftran takes
// the right-hand side's nonzero rows, walks only the symbolic reach of
// those rows (the L reach in ascending step order, then its closure
// through the U columns in descending step order; the eta file is
// applied as in the dense solve) and returns the result's nonzero
// positions in ascending order. Skipped steps are exactly the ones the
// dense loops skip on an exact zero, and the reached ones run the same
// operations in the same order, so both paths return the same bits;
// both write +0.0 for every zero of the result. The dense loop runs
// instead when m < kHyperMinRows, when recent results were dense, or
// when the reach outgrows m * kHyperMaxDensity.
//
// Hypersparse btran of a unit vector: the simplex's pivot row needs
// rho_r = B^{-T} e_r, which on these bases is about as sparse (the dual
// pivots of the find_te node LPs average 49 nonzero rows).
// Each factorization of a form of at least kHyperMinRows rows also
// builds the transposed nonzero pattern of L and U (for each step, the
// later steps whose U column, and the earlier steps whose L column,
// reference it). btran_unit applies the eta file as the dense btran
// does, then walks the reach of the nonzero steps through U' (ascending)
// and L' (descending) and evaluates only the reached steps, each with
// the dense loop's column sum in the same entry order. An unreached step
// holds an exact zero that the dense loop would compute as a sum of
// zero terms, so both paths return the same values (they may differ
// only in the sign of a zero), and the result's nonzero rows come back
// in ascending order. The same density limits as the sparse ftran pick
// the dense loop instead.
//
// The primal's cost solve y = B^{-T} c_B, kept up to date in place
// (cost_btran, cost_btran_update): the factor keeps c_B by position and
// every stage of the last solve (post-eta vector, U' result by step, y
// by row). After an exchange at position r (one new eta, c_B changed at
// r only) the update re-runs the eta pass as btran_unit does, then
// re-evaluates, in a bitset sweep, only the U' steps (ascending) and L'
// steps (descending) with an input whose bits changed, each with the
// dense loop's column sum, and lists the rows of y whose bits changed.
// An entry whose inputs kept their bits keeps its bits, so y is
// bit-identical to a fresh dense btran of c_B, zero signs included.
// Forms below kHyperMinRows and any factor other than the one the last
// solve saw plus one eta solve densely.
#pragma once

#include <cstdint>
#include <vector>

#include "lp/bounded_form.h"

namespace metaopt::lp {

/// Simplex status of one column.
enum class VarStatus : std::uint8_t {
  AtLower,  ///< nonbasic at its (finite) lower bound
  AtUpper,  ///< nonbasic at its (finite) upper bound
  Basic,    ///< in the basis; value solved from the basis system
  Free,     ///< nonbasic with no finite bound; rests at zero
};

/// Basic/nonbasic status per BoundedForm column. This is all a warm
/// start needs: the factorization and the primal point are recomputed
/// from it on demand.
struct Basis {
  std::vector<VarStatus> status;
};

/// Pivots between full refactorizations. Eta/product-form updates cost
/// little but accumulate roundoff; a periodic rebuild keeps the factor
/// honest (and the accuracy check catches the rare escape).
inline constexpr int kRefactorInterval = 64;

/// Eta-file fill-in trigger: refactorize once the eta nonzeros exceed
/// this multiple of (LU nonzeros + m). Each refactorization is cheap,
/// so the trigger is tight — past this point applying
/// the eta file costs more than a fresh factorization would.
inline constexpr double kEtaFillFactor = 1.0;

/// Markowitz threshold: a pivot candidate must be at least this fraction
/// of the largest available magnitude in its column; among candidates
/// the sparsest row wins. Classic stability/sparsity trade-off (0.1 is
/// the textbook and HiGHS/SuiteSparse default neighborhood).
inline constexpr double kMarkowitzThreshold = 0.1;

/// Density above which a hypersparse kernel gives way to its dense
/// loop: for ftran, a symbolic reach past this fraction of m or a
/// running average of result densities above it; for the dual's pivot
/// row (revised_simplex.cpp), a rho with more nonzeros than this
/// fraction of m. Both paths return the same bits; the limit only picks
/// the cheaper one. Measured on the find_te roots: the B4 POP root's w
/// averages 3.3% nonzeros (sparse wins), the Abilene DP root's 9% (the
/// reach mostly crosses the limit and the dense loop runs).
inline constexpr double kHyperMaxDensity = 0.1;

/// Weight of the newest result in the running density average.
inline constexpr double kHyperDensityWeight = 0.1;

/// Sparse LU factorization of the basis matrix of a BoundedForm (see
/// file header).
class BasisFactor {
 public:
  /// Factorizes the basis given by `basic` (column ids, one per row;
  /// order defines the position <-> row mapping). Returns false when the
  /// matrix is numerically singular — the caller must repair or fall
  /// back, the factor is unusable.
  bool factorize(const BoundedForm& form, const std::vector<int>& basic);

  /// x := B^{-1} x (forward transform: solve B y = x). Input is indexed
  /// by row, output by basis position. Every zero of the result is
  /// +0.0 (short of an underflow), never the -0.0 a zero divided by a
  /// negative pivot would be.
  void ftran(std::vector<double>& x) const;

  /// Hypersparse ftran. On entry x is +0.0 outside the rows listed in
  /// `nz` (any order; duplicates allowed). Returns true when it took
  /// the sparse path: x then holds the same bits as ftran(x) and `nz`
  /// lists its nonzero positions in ascending order. Returns false when
  /// the dense loop ran instead (see kHyperMaxDensity); x is still
  /// ftran(x), and `nz` is unspecified.
  bool ftran(std::vector<double>& x, std::vector<int>& nz) const;

  /// x := B^{-T} x (backward transform: solve B' y = x). Input is
  /// indexed by basis position, output by row.
  void btran(std::vector<double>& x) const;

  /// Hypersparse btran of the unit vector e_r (basis position r): on
  /// entry x (size m) is +0.0 everywhere. Returns true when it took the
  /// sparse path: x then holds btran(e_r)'s values and `nz` lists its
  /// nonzero rows in ascending order. Returns false when the dense loop
  /// ran instead (see kHyperMaxDensity); x is btran(e_r) and `nz` is
  /// unspecified.
  bool btran_unit(int r, std::vector<double>& x, std::vector<int>& nz) const;

  /// The primal's cost solve y = B^{-T} c_B from scratch, with
  /// c_B[p] = cost[basic[p]]: the bits of btran() of that c_B. Keeps c_B
  /// and the solve's intermediates for cost_btran_update.
  void cost_btran(const std::vector<double>& cost,
                  const std::vector<int>& basic);

  /// Brings cost_y() up to date after update(r, ...) appended one eta
  /// to the factor cost_btran (or this) last solved for (see file
  /// header):
  /// c_B[r] := c, then the same bits a fresh cost_btran would give.
  /// Returns true when it updated in place; `changed` then lists (in no
  /// particular order, each once) every row whose bits changed. Returns
  /// false when it solved from scratch instead (forms below
  /// kHyperMinRows, or a factor it did not solve for); `changed` is then
  /// unspecified.
  bool cost_btran_update(int r, double c, std::vector<int>& changed);

  /// y of the last cost_btran / cost_btran_update, by row.
  [[nodiscard]] const std::vector<double>& cost_y() const { return cy_; }

  /// Replaces basis position `r` by a column whose ftran image is `w`
  /// (w = B^{-1} a_q). `nz`, when given, lists w's nonzero positions in
  /// ascending order (the sparse ftran's list) and saves the O(m) scan;
  /// the eta is the same either way. Returns false when
  /// |w[r]| <= tol::kPivotTol (the update would divide by numerical
  /// dust).
  bool update(int r, const std::vector<double>& w,
              const std::vector<int>* nz = nullptr);

  [[nodiscard]] bool valid() const { return m_ > 0 || factorized_empty_; }
  [[nodiscard]] int pivots_since_factor() const { return pivots_; }

  /// Eta vectors appended since the last factorize.
  [[nodiscard]] int eta_count() const { return static_cast<int>(etas_.size()); }

  /// (LU + eta nonzeros) / basis-matrix nonzeros — 1.0 means "no fill at
  /// all".
  [[nodiscard]] double fillin_ratio() const;

  /// True once the eta file outgrew the LU factors;
  /// cleared by the next factorize().
  [[nodiscard]] bool fillin_triggered() const;

  [[nodiscard]] bool needs_refactor() const {
    return pivots_ >= kRefactorInterval || fillin_triggered();
  }

 private:
  bool factorize_lu(const BoundedForm& form, const std::vector<int>& basic);
  /// Symbolic phase of the sparse ftran: fills hreach_ with the steps
  /// the rows in `nz` reach through L and then U, ascending. Returns
  /// false (marks cleared) once the reach passes `limit` steps.
  bool ftran_reach(const std::vector<int>& nz, int limit) const;
  /// Closure of the steps in hreach_ through a transposed pattern
  /// (start/step arrays), sorted ascending. Returns false (marks
  /// cleared) once it passes `limit` steps.
  bool btran_reach(const std::vector<int>& start, const std::vector<int>& step,
                   int limit) const;
  /// The transposed patterns and step_of_pos_ for btran_unit.
  void build_transposed();

  int m_ = 0;
  int pivots_ = 0;
  bool factorized_empty_ = false;
  int basis_nnz_ = 0;  ///< nonzeros of the factorized basis matrix

  // PBQ = LU in elimination-step order.
  // Step k eliminates basis position col_of_step_[k] with pivot row
  // pivrow_[k]. L is unit lower triangular: lcol_[lstart_[k]..) holds
  // (original row, multiplier) strictly below the diagonal. U is upper
  // triangular: ucol_[ustart_[k]..) holds (earlier step t, value) for
  // the entries above the diagonal of column k; diag_[k] is the pivot.
  struct SparseEntry {
    int idx;
    double val;
  };
  std::vector<int> pivrow_, col_of_step_;
  std::vector<int> lstart_, ustart_;
  std::vector<SparseEntry> lcol_, ucol_;
  std::vector<double> diag_;

  // Eta file: one elementary transform per basis exchange, in position
  // space. ftran applies them oldest-first after the LU solve; btran
  // newest-first before it.
  struct Eta {
    int r;                            ///< replaced basis position
    double pivot;                     ///< w[r]
    std::vector<SparseEntry> terms;   ///< (position != r, w value)
  };
  std::vector<Eta> etas_;
  int eta_nnz_ = 0;
  int lu_nnz_ = 0;

  // factorization scratch; reached_ is reset through
  // reach_ after each column, not by an O(m) clear. rowpos_ (row ->
  // step) outlives the factorization: the sparse ftran seeds from it.
  std::vector<double> fwork_;
  std::vector<int> ftouched_;
  std::vector<signed char> fmark_, reached_;
  std::vector<int> row_count_, col_nnz_, col_order_, rowpos_, reach_,
      nnz_bucket_;
  mutable std::vector<double> zwork_;

  // sparse-ftran scratch: step, then position, marks (all zero between
  // calls), the reach, and the running result density
  mutable std::vector<signed char> hmark_;
  mutable std::vector<int> hreach_;
  mutable double ftran_density_ = 0.0;

  // btran_unit: the basis position of each step's column, and for each
  // step t the later steps whose U column holds t (ut_step_ from
  // ut_start_[t]) and the earlier steps whose L column holds t's pivot
  // row (lt_step_ from lt_start_[t]). Built at factorize() when m >=
  // kHyperMinRows. bwork_ (step space) is zero between calls.
  std::vector<int> step_of_pos_, ut_start_, ut_step_, lt_start_, lt_step_;
  mutable std::vector<double> bwork_;
  mutable std::vector<int> bpos_;  ///< positions the eta pass wrote
  mutable double btran_density_ = 0.0;

  /// btran's eta transposes, newest first, in place on e (by position).
  void eta_pass(std::vector<double>& e) const;
  /// btran's dense loops: the eta pass in place on e (by position), the
  /// U' solve into z (by step), the L' solve into y (by row; may alias
  /// e, which the U' stage has finished reading).
  void btran_stages(std::vector<double>& e, std::vector<double>& z,
                    std::vector<double>& y) const;
  /// The dense solve of cost_btran from cb_, keeping every stage.
  void cost_btran_dense();

  // cost_btran: c_B and the stages of its solve (post-eta vector by
  // position, U' result by step, y by row), valid for the factor with
  // cost_etas_ etas (-1: none). cost_pos_ lists the positions the eta
  // pass writes (each once, flagged in cost_mark_), cost_old_ their
  // post-eta values before the current update.
  std::vector<double> cb_, ce_, cz_, cy_, cost_old_;
  std::vector<int> cost_pos_;
  std::vector<signed char> cost_mark_;
  std::vector<std::uint64_t> cost_due_;  ///< steps to re-evaluate (bitset)
  int cost_etas_ = -1;
};

}  // namespace metaopt::lp
