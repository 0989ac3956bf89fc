// A free list of revised-simplex contexts over one model, for const
// solvers whose solves may run concurrently (te::MaxFlowLp,
// kkt::InnerLp).
//
// A WarmStartContext is per-thread scratch (lp/revised_simplex.h), but
// an LP built once and shared across B&B workers or search threads needs
// one per concurrent solve. Each solve takes a Lease: it pops a context
// from the mutex-guarded free list, or builds one when the list is empty,
// and hands it back when the lease ends. A cold solve from a given
// start basis (or none), and a warm solve from a given hint, are pure
// functions of (bounds, start, hint), so which context serves a solve
// never changes its answer. A returned context keeps the last hint and
// start it was given, so a lessee that uses either sets it every solve.
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "lp/model.h"
#include "lp/revised_simplex.h"

namespace metaopt::lp {

class WarmStartPool {
 public:
  /// `model` must outlive the pool; contexts are built from it on
  /// demand, so it may still be filled in after the pool is constructed.
  explicit WarmStartPool(const Model& model) : model_(model) {}
  WarmStartPool(const WarmStartPool&) = delete;
  WarmStartPool& operator=(const WarmStartPool&) = delete;

  /// One solve's context, borrowed from the pool for the lease's
  /// lifetime.
  class Lease {
   public:
    explicit Lease(const WarmStartPool& pool);
    ~Lease();
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    [[nodiscard]] WarmStartContext& context() { return *context_; }

   private:
    const WarmStartPool& pool_;
    std::unique_ptr<WarmStartContext> context_;
  };

 private:
  const Model& model_;
  mutable std::mutex mutex_;  ///< guards free_
  mutable std::vector<std::unique_ptr<WarmStartContext>> free_;
};

}  // namespace metaopt::lp
