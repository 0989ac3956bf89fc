#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "util/jsonl.h"

namespace metaopt::obs {

namespace detail {

std::atomic<bool> g_enabled{false};

namespace {

/// Name table and shard list. Names are registered rarely (usually at
/// static-init time) under a mutex; hot-path updates never touch it.
struct Registry {
  std::mutex mutex;
  struct Entry {
    MetricKind kind;
    int id;
  };
  std::map<std::string, Entry> by_name;
  int num_counters = 0;
  int num_gauges = 0;
  int num_histograms = 0;
  std::array<std::atomic<double>, kMaxGauges> gauges{};
  /// All shards ever created; blocks are never freed so a retired
  /// thread's counts stay visible to snapshot().
  std::vector<std::unique_ptr<ThreadBlock>> blocks;
};

Registry& registry() {
  static Registry* r = new Registry();  // leaked: outlives exiting threads
  return *r;
}

int register_metric(const std::string& name, MetricKind kind, int* next,
                    int cap) {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  auto it = reg.by_name.find(name);
  if (it != reg.by_name.end()) {
    if (it->second.kind != kind) {
      throw std::runtime_error("obs: metric '" + name +
                               "' already registered with a different kind");
    }
    return it->second.id;
  }
  if (*next >= cap) {
    throw std::runtime_error("obs: too many metrics of kind " +
                             std::string(to_string(kind)) + " (cap " +
                             std::to_string(cap) + ") registering '" + name +
                             "'");
  }
  const int id = (*next)++;
  reg.by_name.emplace(name, Registry::Entry{kind, id});
  return id;
}

}  // namespace

namespace {

ThreadBlock* new_registered_block() {
  auto owned = std::make_unique<ThreadBlock>();
  ThreadBlock* raw = owned.get();
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  reg.blocks.push_back(std::move(owned));
  return raw;
}

/// When non-null, updates on this thread land in the override block
/// instead of its own shard — see ScopedWorkerShard.
thread_local ThreadBlock* t_block_override = nullptr;

}  // namespace

ThreadBlock& tls_block() {
  if (t_block_override != nullptr) return *t_block_override;
  thread_local ThreadBlock* block = new_registered_block();
  return *block;
}

std::atomic<double>& gauge_cell(int id) { return registry().gauges[id]; }

}  // namespace detail

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

void Histogram::observe(std::uint64_t value) const noexcept {
  if (!enabled() || id_ < 0) return;
  detail::ThreadBlock::Hist& h = detail::tls_block().hists[id_];
  // bit_width(0) == 0, bit_width(1) == 1, ...: bucket b holds values in
  // [2^(b-1), 2^b), clamped into the top bucket.
  const int bucket =
      std::min(static_cast<int>(std::bit_width(value)), kHistBuckets - 1);
  detail::shard_add(h.buckets[bucket], 1);
  detail::shard_add(h.count, 1);
  detail::shard_add(h.sum, value);
}

Counter counter(const std::string& name) {
  return Counter(detail::register_metric(name, MetricKind::Counter,
                                         &detail::registry().num_counters,
                                         kMaxCounters));
}

Gauge gauge(const std::string& name) {
  return Gauge(detail::register_metric(name, MetricKind::Gauge,
                                       &detail::registry().num_gauges,
                                       kMaxGauges));
}

Histogram histogram(const std::string& name) {
  return Histogram(detail::register_metric(name, MetricKind::Histogram,
                                           &detail::registry().num_histograms,
                                           kMaxHistograms));
}

namespace detail {

namespace {

/// Which shards a snapshot sums over.
enum class SnapshotScope { All, Thread, Group };

/// Process-unique shard-group ids; 0 is reserved for "ungrouped".
std::atomic<std::uint64_t> g_next_group{1};

}  // namespace

/// Snapshot helpers live here so they can see the registry internals.
MetricsSnapshot snapshot_blocks(SnapshotScope scope) {
  Registry& reg = registry();
  const std::uint64_t group =
      scope == SnapshotScope::Group
          ? tls_block().group.load(std::memory_order_relaxed)
          : 0;
  // An ungrouped caller asking for its group gets its own shard only —
  // group 0 is "no group", not a group every untagged thread shares.
  if (scope == SnapshotScope::Group && group == 0) {
    scope = SnapshotScope::Thread;
  }
  // Name table copy under the lock; cell reads are relaxed afterwards.
  std::vector<std::pair<std::string, Registry::Entry>> names;
  std::vector<const ThreadBlock*> blocks;
  {
    std::lock_guard<std::mutex> lock(reg.mutex);
    names.assign(reg.by_name.begin(), reg.by_name.end());
    if (scope != SnapshotScope::Thread) {
      blocks.reserve(reg.blocks.size());
      for (const auto& b : reg.blocks) {
        if (scope == SnapshotScope::Group &&
            b->group.load(std::memory_order_relaxed) != group) {
          continue;
        }
        blocks.push_back(b.get());
      }
    }
  }
  if (scope == SnapshotScope::Thread) blocks.push_back(&tls_block());

  MetricsSnapshot snap;
  snap.metrics.reserve(names.size());
  for (const auto& [name, entry] : names) {
    MetricValue mv;
    mv.name = name;
    mv.kind = entry.kind;
    switch (entry.kind) {
      case MetricKind::Counter: {
        std::uint64_t total = 0;
        for (const ThreadBlock* b : blocks) {
          total += b->counters[entry.id].load(std::memory_order_relaxed);
        }
        mv.value = static_cast<double>(total);
        break;
      }
      case MetricKind::Gauge:
        mv.value = reg.gauges[entry.id].load(std::memory_order_relaxed);
        break;
      case MetricKind::Histogram: {
        for (const ThreadBlock* b : blocks) {
          const ThreadBlock::Hist& h = b->hists[entry.id];
          mv.hist.count += h.count.load(std::memory_order_relaxed);
          mv.hist.sum += h.sum.load(std::memory_order_relaxed);
          for (int k = 0; k < kHistBuckets; ++k) {
            mv.hist.buckets[k] += h.buckets[k].load(std::memory_order_relaxed);
          }
        }
        mv.value = static_cast<double>(mv.hist.count);
        break;
      }
    }
    snap.metrics.push_back(std::move(mv));
  }
  // std::map iteration is already name-sorted; keep the invariant
  // explicit for diff()'s merge walk.
  return snap;
}

void reset_blocks() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  for (auto& g : reg.gauges) g.store(0.0, std::memory_order_relaxed);
  for (const auto& b : reg.blocks) {
    for (auto& c : b->counters) c.store(0, std::memory_order_relaxed);
    for (auto& h : b->hists) {
      h.count.store(0, std::memory_order_relaxed);
      h.sum.store(0, std::memory_order_relaxed);
      for (auto& bucket : h.buckets) bucket.store(0, std::memory_order_relaxed);
    }
  }
}

}  // namespace detail

std::uint64_t current_group() {
  return detail::tls_block().group.load(std::memory_order_relaxed);
}

ScopedShardGroup::ScopedShardGroup()
    : id_(detail::g_next_group.fetch_add(1, std::memory_order_relaxed)) {
  std::atomic<std::uint64_t>& tag = detail::tls_block().group;
  prev_ = tag.load(std::memory_order_relaxed);
  tag.store(id_, std::memory_order_relaxed);
}

ScopedShardGroup::~ScopedShardGroup() {
  detail::tls_block().group.store(prev_, std::memory_order_relaxed);
}

ScopedWorkerShard::ScopedWorkerShard(std::uint64_t id)
    : prev_(detail::t_block_override) {
  if (id == 0 ||
      detail::tls_block().group.load(std::memory_order_relaxed) == id) {
    // Already attributed correctly; no fresh block needed.
    return;
  }
  detail::ThreadBlock* fresh = detail::new_registered_block();
  fresh->group.store(id, std::memory_order_relaxed);
  detail::t_block_override = fresh;
}

ScopedWorkerShard::~ScopedWorkerShard() { detail::t_block_override = prev_; }

MetricsSnapshot snapshot() {
  return detail::snapshot_blocks(detail::SnapshotScope::All);
}

MetricsSnapshot snapshot_thread() {
  return detail::snapshot_blocks(detail::SnapshotScope::Thread);
}

MetricsSnapshot snapshot_group() {
  return detail::snapshot_blocks(detail::SnapshotScope::Group);
}

MetricsSnapshot diff(const MetricsSnapshot& before,
                     const MetricsSnapshot& after) {
  MetricsSnapshot out;
  std::size_t bi = 0;
  for (const MetricValue& a : after.metrics) {
    // Merge walk over the two name-sorted lists; metrics registered
    // after `before` was taken diff against zero.
    while (bi < before.metrics.size() && before.metrics[bi].name < a.name) {
      ++bi;
    }
    const MetricValue* b =
        (bi < before.metrics.size() && before.metrics[bi].name == a.name)
            ? &before.metrics[bi]
            : nullptr;
    MetricValue d = a;
    switch (a.kind) {
      case MetricKind::Counter:
        if (b != nullptr) d.value = a.value - b->value;
        if (d.value == 0.0) continue;
        break;
      case MetricKind::Gauge:
        break;  // last-write-wins: report the "after" value
      case MetricKind::Histogram:
        if (b != nullptr) {
          d.hist.count = a.hist.count - b->hist.count;
          d.hist.sum = a.hist.sum - b->hist.sum;
          for (int k = 0; k < kHistBuckets; ++k) {
            d.hist.buckets[k] = a.hist.buckets[k] - b->hist.buckets[k];
          }
          d.value = static_cast<double>(d.hist.count);
        }
        if (d.hist.count == 0) continue;
        break;
    }
    out.metrics.push_back(std::move(d));
  }
  return out;
}

void reset() { detail::reset_blocks(); }

const MetricValue* MetricsSnapshot::find(const std::string& name) const {
  for (const MetricValue& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

namespace {

using util::json_number;

std::string json_u64(std::uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
  return buf;
}

}  // namespace

std::string MetricsSnapshot::to_json() const {
  std::string out = "{";
  bool first = true;
  for (const MetricValue& m : metrics) {
    if (!first) out += ",";
    first = false;
    out += "\"" + m.name + "\":";
    switch (m.kind) {
      case MetricKind::Counter:
        out += json_u64(static_cast<std::uint64_t>(m.value));
        break;
      case MetricKind::Gauge:
        out += json_number(m.value);
        break;
      case MetricKind::Histogram: {
        const double mean =
            m.hist.count == 0
                ? 0.0
                : static_cast<double>(m.hist.sum) /
                      static_cast<double>(m.hist.count);
        out += "{\"count\":" + json_u64(m.hist.count) +
               ",\"sum\":" + json_u64(m.hist.sum) +
               ",\"mean\":" + json_number(mean) + "}";
        break;
      }
    }
  }
  out += "}";
  return out;
}

const char* to_string(MetricKind kind) {
  switch (kind) {
    case MetricKind::Counter: return "counter";
    case MetricKind::Gauge: return "gauge";
    case MetricKind::Histogram: return "histogram";
  }
  return "?";
}

}  // namespace metaopt::obs
