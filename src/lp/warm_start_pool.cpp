#include "lp/warm_start_pool.h"

#include <new>
#include <utility>

namespace metaopt::lp {

WarmStartPool::Lease::Lease(const WarmStartPool& pool) : pool_(pool) {
  {
    const std::lock_guard<std::mutex> lock(pool_.mutex_);
    if (!pool_.free_.empty()) {
      context_ = std::move(pool_.free_.back());
      pool_.free_.pop_back();
    }
  }
  if (!context_) context_ = std::make_unique<WarmStartContext>(pool_.model_);
}

WarmStartPool::Lease::~Lease() {
  const std::lock_guard<std::mutex> lock(pool_.mutex_);
  try {
    pool_.free_.push_back(std::move(context_));
  } catch (const std::bad_alloc&) {
    // Dropping the context only costs a rebuild on a later solve.
  }
}

}  // namespace metaopt::lp
