// Lock-free, thread-sharded metrics registry.
//
// Metrics are named hierarchically ("simplex.solves", "bnb.nodes_explored")
// and come in three kinds:
//   * Counter   — monotonic per-thread-sharded uint64; add()/inc()
//   * Gauge     — last-write-wins global double; set()
//   * Histogram — per-thread-sharded power-of-two buckets over uint64
//                 values (typically nanoseconds) with count and sum
//
// Handles are registered once (mutex-protected registry, usually at
// namespace scope) and are then trivially copyable ids. Hot-path updates
// touch only the calling thread's shard — a relaxed load/store pair on a
// cache line no other thread writes — behind a single relaxed-atomic
// `enabled()` branch.
//
// Snapshots:
//   snapshot()        — sums all shards (all threads, living or retired)
//   snapshot_thread() — the calling thread's shard only
//   snapshot_group()  — all shards tagged with the calling thread's
//                       shard group (see ScopedShardGroup); SweepRunner
//                       diffs it around each job for per-job attribution
//                       that stays correct when the job's work runs on
//                       scheduler workers too (parallel B&B)
//   diff(before, after) — per-metric delta, zero deltas dropped
//
// Shard groups: a thread opens a ScopedShardGroup to mint a fresh
// process-unique group id and tag its shard with it; scheduler workers
// that lend it a hand join the group through a ScopedWorkerShard on the
// id captured with current_group() before the fork. snapshot_group()
// then sums exactly the shards working for that job. Blocks are never
// freed, so a helper's fresh block still lands in the closing snapshot
// after its scope ended; ids are never reused, so a stale tag can't leak
// into a later group's sums.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace metaopt::obs {

/// Shard capacities (compile-time; registration past them throws).
inline constexpr int kMaxCounters = 256;
inline constexpr int kMaxGauges = 64;
inline constexpr int kMaxHistograms = 64;
/// Power-of-two histogram buckets: value v lands in bucket bit_width(v),
/// i.e. bucket b covers [2^(b-1), 2^b).
inline constexpr int kHistBuckets = 64;

namespace detail {

extern std::atomic<bool> g_enabled;

/// One thread's metric shard. Cells are written only by the owning
/// thread (relaxed load+store, no RMW contention) and read by snapshots
/// with relaxed loads; blocks outlive their thread so counts survive
/// pool teardown.
struct ThreadBlock {
  std::array<std::atomic<std::uint64_t>, kMaxCounters> counters{};
  struct Hist {
    std::array<std::atomic<std::uint64_t>, kHistBuckets> buckets{};
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
  };
  std::array<Hist, kMaxHistograms> hists{};
  /// Shard-group tag (0 = ungrouped). Written by the owning thread via
  /// ScopedShardGroup, read by snapshot_group() filters.
  std::atomic<std::uint64_t> group{0};
};

ThreadBlock& tls_block();

inline void shard_add(std::atomic<std::uint64_t>& cell, std::uint64_t n) {
  // Owning-thread-only write: a plain add would race with snapshot
  // reads; a relaxed load+store pair is as cheap and TSan-clean.
  cell.store(cell.load(std::memory_order_relaxed) + n,
             std::memory_order_relaxed);
}

std::atomic<double>& gauge_cell(int id);

}  // namespace detail

/// True when metric/trace recording is on: one relaxed atomic load.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Turns recording on/off globally (counters, gauges, histograms, trace).
void set_enabled(bool on);

// Handles default-construct to an invalid id (-1): updates through an
// unregistered handle are silent no-ops, so e.g. a ScopedSpan without an
// attached histogram costs nothing extra.

class Counter {
 public:
  constexpr Counter() = default;
  void add(std::uint64_t n) const noexcept {
    if (!enabled() || id_ < 0) return;
    detail::shard_add(detail::tls_block().counters[id_], n);
  }
  void inc() const noexcept { add(1); }

 private:
  friend Counter counter(const std::string& name);
  explicit constexpr Counter(int id) : id_(id) {}
  int id_ = -1;
};

class Gauge {
 public:
  constexpr Gauge() = default;
  void set(double v) const noexcept {
    if (!enabled() || id_ < 0) return;
    detail::gauge_cell(id_).store(v, std::memory_order_relaxed);
  }

 private:
  friend Gauge gauge(const std::string& name);
  explicit constexpr Gauge(int id) : id_(id) {}
  int id_ = -1;
};

class Histogram {
 public:
  constexpr Histogram() = default;
  void observe(std::uint64_t value) const noexcept;

 private:
  friend Histogram histogram(const std::string& name);
  explicit constexpr Histogram(int id) : id_(id) {}
  int id_ = -1;
};

/// Registers (or looks up) a metric by name. Idempotent for matching
/// kinds; throws std::runtime_error on a kind clash or shard overflow.
Counter counter(const std::string& name);
Gauge gauge(const std::string& name);
Histogram histogram(const std::string& name);

enum class MetricKind { Counter, Gauge, Histogram };

struct HistogramData {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::array<std::uint64_t, kHistBuckets> buckets{};
};

struct MetricValue {
  std::string name;
  MetricKind kind = MetricKind::Counter;
  /// Counter total (as double; exact below 2^53) or gauge value.
  double value = 0.0;
  HistogramData hist;  ///< kind == Histogram only
};

struct MetricsSnapshot {
  std::vector<MetricValue> metrics;  ///< sorted by name

  [[nodiscard]] bool empty() const { return metrics.empty(); }
  /// Finds a metric by exact name (nullptr when absent).
  [[nodiscard]] const MetricValue* find(const std::string& name) const;
  /// Compact single-line JSON object: counters/gauges as numbers,
  /// histograms as {"count":..,"sum":..,"mean":..}. Keys sorted.
  [[nodiscard]] std::string to_json() const;
};

/// The calling thread's current shard-group id (0 when ungrouped).
/// Capture it before forking work; each helper joins the group with a
/// ScopedWorkerShard on that id.
std::uint64_t current_group();

/// RAII shard-group membership for the calling thread: mints a fresh
/// process-unique id and tags this thread's shard with it — the "open a
/// job" form. The previous tag is restored on destruction, so nesting (a
/// grouped job starting a sub-group) works.
class ScopedShardGroup {
 public:
  ScopedShardGroup();
  ~ScopedShardGroup();

  ScopedShardGroup(const ScopedShardGroup&) = delete;
  ScopedShardGroup& operator=(const ScopedShardGroup&) = delete;

  [[nodiscard]] std::uint64_t id() const { return id_; }

 private:
  std::uint64_t id_ = 0;
  std::uint64_t prev_ = 0;
};

/// RAII shard-group membership for a *persistent* pool worker lending a
/// hand to someone else's job.
///
/// Re-tagging a worker that outlives jobs would not do: the worker's
/// one shard carries its *cumulative history*, which would then be
/// summed into the job's closing snapshot_group() but not its opening
/// one, over-attributing every count the worker ever recorded.
///
/// This form instead routes the scope's updates to a brand-new shard
/// block tagged with `id`. The fresh block holds exactly the counts
/// recorded inside the scope; it did not exist at the job's opening
/// snapshot and — blocks are never freed, ids never reused — it is
/// summed in full by the closing one, which is precisely the delta the
/// job should see. The worker's own shard (and its tag) are untouched.
/// Cost: one ThreadBlock allocation per adoption.
///
/// Adopting id 0 (no group) or the group the thread is already in is a
/// no-op: counts keep flowing to the current shard, which the target
/// snapshot already covers.
class ScopedWorkerShard {
 public:
  explicit ScopedWorkerShard(std::uint64_t id);
  ~ScopedWorkerShard();

  ScopedWorkerShard(const ScopedWorkerShard&) = delete;
  ScopedWorkerShard& operator=(const ScopedWorkerShard&) = delete;

 private:
  detail::ThreadBlock* prev_ = nullptr;
};

/// Sums every thread shard (including threads that have exited).
MetricsSnapshot snapshot();
/// The calling thread's shard only.
MetricsSnapshot snapshot_thread();
/// Sums the shards tagged with the calling thread's shard group
/// (including retired workers' shards). Falls back to snapshot_thread()
/// semantics when the calling thread is ungrouped (group 0): its own
/// shard only, so callers need not special-case "no group open".
MetricsSnapshot snapshot_group();
/// after - before for counters/histograms; gauges take `after`'s value.
/// Metrics whose delta is entirely zero are dropped.
MetricsSnapshot diff(const MetricsSnapshot& before,
                     const MetricsSnapshot& after);
/// Zeroes all shards and gauges. Call only while recording is quiesced
/// (no concurrent add/observe), e.g. at the start of a bench.
void reset();

const char* to_string(MetricKind kind);

}  // namespace metaopt::obs
