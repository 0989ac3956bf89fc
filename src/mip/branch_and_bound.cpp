#include "mip/branch_and_bound.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "check/certify.h"
#include "check/lint.h"
#include "lp/presolve.h"
#include "lp/revised_simplex.h"
#include "obs/obs.h"
#include "runner/scheduler.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/tolerances.h"

namespace metaopt::mip {

namespace {

using lp::Model;
using lp::Solution;
using lp::SolveStatus;
using lp::VarId;

const obs::Counter c_solves = obs::counter("bnb.solves");
const obs::Counter c_nodes = obs::counter("bnb.nodes_explored");
const obs::Counter c_popped = obs::counter("bnb.nodes_popped");
const obs::Counter c_pruned_bound = obs::counter("bnb.nodes_pruned_bound");
const obs::Counter c_pruned_infeas =
    obs::counter("bnb.nodes_pruned_infeasible");
const obs::Counter c_integer = obs::counter("bnb.nodes_integer_feasible");
const obs::Counter c_branched = obs::counter("bnb.nodes_branched");
const obs::Counter c_failed = obs::counter("bnb.nodes_failed");
const obs::Counter c_aborted = obs::counter("bnb.nodes_aborted");
const obs::Counter c_unbounded = obs::counter("bnb.nodes_unbounded");
const obs::Counter c_incumbents = obs::counter("bnb.incumbent_updates");
const obs::Counter c_lp_solves = obs::counter("bnb.lp_solves");
const obs::Counter c_solver_instances = obs::counter("bnb.solver_instances");
const obs::Gauge g_basis_reuse = obs::gauge("bnb.basis_reuse_ratio");
const obs::Gauge g_threads = obs::gauge("bnb.threads");
const obs::Histogram h_solve_ns = obs::histogram("bnb.solve_ns");
const obs::Histogram h_node_ns = obs::histogram("bnb.node_ns");
/// Wall time spent acquiring the shared node-queue mutex (per
/// pop/push/finish round-trip) — the parallel search's contention dial.
const obs::Histogram h_queue_wait_ns =
    obs::histogram("bnb.queue_contention_ns");
/// Nodes explored per worker over one solve: flat distribution = good
/// load balance, mass at zero = workers starved by a serial tree.
const obs::Histogram h_worker_nodes = obs::histogram("bnb.worker_nodes");

/// One bound tightening relative to the parent node.
struct BoundChange {
  VarId var;
  double lb;
  double ub;
};

/// Search-tree node; bounds are stored as a diff chain to the root.
/// Immutable once pushed — workers only ever read popped nodes, so the
/// chain can be shared freely across threads.
struct Node {
  std::shared_ptr<const Node> parent;
  std::vector<BoundChange> changes;
  double bound = 0.0;  ///< parent relaxation objective (valid for children)
  int depth = 0;
  /// Parent's optimal basis (statuses only, shared across siblings);
  /// null at the root, below an unbounded parent, and when the parent's
  /// optimum failed certification.
  std::shared_ptr<const lp::Basis> basis;

  /// Deep plunges create chains thousands of nodes long; default
  /// shared_ptr teardown would recurse once per ancestor and blow the
  /// stack. Flatten the recursion with a per-thread release trampoline:
  /// the outermost destructor drains a pending list, and re-entrant
  /// ~Node calls just append their parent link and return. Unlike the
  /// classic use_count()==1 unlink walk this never writes through a
  /// pointer into another node, so concurrent workers releasing chains
  /// that share ancestors stay race-free (use_count() is a relaxed
  /// load — it cannot order such a write against other threads' reads).
  ~Node() {
    thread_local std::vector<std::shared_ptr<const Node>> pending;
    thread_local bool draining = false;
    if (parent) pending.push_back(std::move(parent));
    if (draining) return;
    draining = true;
    while (!pending.empty()) {
      std::shared_ptr<const Node> p = std::move(pending.back());
      pending.pop_back();
      p.reset();  // may re-enter ~Node, which only appends and returns
    }
    draining = false;
  }
};

using NodePtr = std::shared_ptr<const Node>;

/// Materializes the node's variable bounds on top of the model's.
void materialize_bounds(const Model& model, const Node* node,
                        std::vector<double>& lb, std::vector<double>& ub) {
  lb.resize(model.num_vars());
  ub.resize(model.num_vars());
  for (VarId v = 0; v < model.num_vars(); ++v) {
    lb[v] = model.var(v).lb;
    ub[v] = model.var(v).ub;
  }
  // Walk root -> node so deeper (tighter) changes win; collect the chain
  // first because we only hold parent pointers.
  std::vector<const Node*> chain;
  for (const Node* n = node; n != nullptr; n = n->parent.get()) {
    chain.push_back(n);
  }
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    for (const BoundChange& ch : (*it)->changes) {
      lb[ch.var] = std::max(lb[ch.var], ch.lb);
      ub[ch.var] = std::min(ub[ch.var], ch.ub);
    }
  }
}

struct QueueEntry {
  double score;  ///< dir * bound: larger is better for either sense
  long seq;      ///< LIFO tie-break (see cmp below)
  NodePtr node;
};

/// Per-worker solver state. Each worker owns a full simplex stack —
/// engine scratch is stateful and must never be shared; only the
/// immutable Basis objects hanging off nodes cross threads.
struct WorkerState {
  WorkerState(const lp::SimplexOptions& lp_opts, const Model& model)
      : solver(lp_opts), warm(model) {
    c_solver_instances.inc();
  }

  lp::SimplexSolver solver;
  lp::WarmStartContext warm;
  lp::PresolveResult pre;
  std::vector<double> lbs, ubs;
  long nodes = 0;
  long lp_solves = 0;
  long warm_reuse = 0;
};

/// The whole shared search: queue, incumbent, termination protocol.
/// BranchAndBound::solve builds one per call, runs `threads` workers
/// over it (the calling thread is worker 0), and assembles the Solution.
class TreeSearch {
 public:
  TreeSearch(const Model& model, const MipOptions& options,
             const MipCallbacks& callbacks)
      : model_(model),
        options_(options),
        callbacks_(callbacks),
        maximize_(model.objective_sense() == lp::ObjSense::Maximize),
        dir_(maximize_ ? 1.0 : -1.0),
        root_score_(lp::kInf) {
    lp_opts_ = options.lp;
    lp_opts_.want_duals = false;
  }

  Solution run(int threads);

 private:
  // ---- worker protocol ----
  void worker_main(std::uint64_t obs_group);
  void worker_loop();
  void process_node(const QueueEntry& entry, WorkerState& ws);
  /// First caller wins; wakes every waiter. Safe from any thread.
  void request_stop(SolveStatus reason);
  /// Accepts a candidate incumbent (CAS claim on the packed dir*obj
  /// word, payload + callbacks under the incumbent mutex).
  void accept_incumbent(double obj, const std::vector<double>& values);
  void push_children(std::vector<QueueEntry> children);

  [[nodiscard]] double incumbent_score() const {
    return incumbent_score_.load(std::memory_order_acquire);
  }
  /// Pop-time and post-LP prune rule (score space: dir * bound).
  [[nodiscard]] bool prunable(double score) const {
    const double inc = incumbent_score();
    if (inc <= -lp::kInf) return false;
    if (score <= inc + tol::kAbsGap) return true;
    return score - inc <= tol::kRelGap * std::max(1.0, std::abs(inc));
  }

  // ---- immutable per-solve configuration ----
  const Model& model_;
  const MipOptions& options_;
  const MipCallbacks& callbacks_;
  const bool maximize_;
  const double dir_;
  const double root_score_;
  lp::SimplexOptions lp_opts_;
  util::Stopwatch watch_;

  // ---- node queue (guarded by queue_mutex_) ----
  std::mutex queue_mutex_;
  std::condition_variable work_cv_;
  // Best-bound first; LIFO on ties so equal-bound regions (notably pure
  // feasibility problems, where every bound is zero) are explored
  // depth-first and a complementarity-feasible point is reached by
  // plunging instead of a breadth-first crawl.
  struct Cmp {
    bool operator()(const QueueEntry& a, const QueueEntry& b) const {
      if (a.score != b.score) return a.score < b.score;
      return a.seq < b.seq;
    }
  };
  std::priority_queue<QueueEntry, std::vector<QueueEntry>, Cmp> queue_;
  long seq_ = 0;
  long nodes_ = 0;      ///< explored (popped and not bound-pruned at pop)
  int in_flight_ = 0;   ///< popped, still being processed by a worker
  /// Best dir-score among popped nodes whose processing was cut short
  /// (LP time-limit stop or failed node LP) — still "open" for bound
  /// purposes.
  double abandoned_score_ = -lp::kInf;
  /// Some node LP failed, so an exhausted queue proves nothing.
  bool node_failed_ = false;
  std::exception_ptr worker_error_;

  // ---- termination ----
  std::atomic<bool> stop_{false};
  SolveStatus stop_reason_ = SolveStatus::Optimal;  // valid when stop_
  bool stopped_early_ = false;
  bool found_unbounded_ = false;

  // ---- incumbent ----
  std::atomic<double> incumbent_score_{-lp::kInf};  ///< dir * objective
  std::mutex incumbent_mutex_;
  bool inc_have_ = false;
  double inc_obj_ = 0.0;
  std::vector<double> inc_values_;

  // ---- the root node's presolve, replayed at every other node ----
  lp::PresolveTrace root_presolve_;

  // ---- aggregated worker stats (filled at worker exit, under lock) ----
  long total_lp_solves_ = 0;
  long total_warm_reuse_ = 0;
};

void TreeSearch::request_stop(SolveStatus reason) {
  std::lock_guard<std::mutex> lock(queue_mutex_);
  if (!stop_.load(std::memory_order_relaxed)) {
    stop_reason_ = reason;
    stopped_early_ = true;
    // Under the mutex before notifying: a worker that just evaluated the
    // wait predicate cannot miss this (same lost-wakeup discipline as
    // runner::Scheduler::fork_join).
    stop_.store(true, std::memory_order_release);
  }
  work_cv_.notify_all();
}

void TreeSearch::accept_incumbent(double obj,
                                  const std::vector<double>& values) {
  // Claim the packed score word first: losers bail without touching the
  // payload lock, so bound pruning never waits on a values copy.
  const double score = dir_ * obj;
  double cur = incumbent_score_.load(std::memory_order_relaxed);
  do {
    if (score <= cur + tol::kAbsGap) return;
  } while (!incumbent_score_.compare_exchange_weak(
      cur, score, std::memory_order_acq_rel, std::memory_order_relaxed));

  std::lock_guard<std::mutex> lock(incumbent_mutex_);
  // Two winners can arrive out of order (A claims 5, B claims 7, B
  // stores its payload first): only advance the payload, never regress.
  if (inc_have_ && dir_ * obj <= dir_ * inc_obj_) return;
  inc_obj_ = obj;
  inc_values_ = values;
  inc_have_ = true;
  c_incumbents.inc();
  // Incumbent timeline: renders as the gap-vs-time curve in Perfetto.
  obs::record_counter("bnb.incumbent", obj);
  if (callbacks_.on_incumbent) {
    // Still under the incumbent mutex: callbacks see monotonically
    // improving objectives and never run concurrently.
    callbacks_.on_incumbent(obj, watch_.seconds(), values);
  }
}

void TreeSearch::push_children(std::vector<QueueEntry> children) {
  if (children.empty()) return;
  const std::uint64_t t0 = util::Stopwatch::now_ns();
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    h_queue_wait_ns.observe(util::Stopwatch::now_ns() - t0);
    for (QueueEntry& child : children) {
      child.seq = seq_++;
      queue_.push(std::move(child));
    }
  }
  work_cv_.notify_all();
}

void TreeSearch::process_node(const QueueEntry& entry, WorkerState& ws) {
  MO_SPAN_HIST("bnb.node", h_node_ns);
  c_nodes.inc();
  ++ws.nodes;
  materialize_bounds(model_, entry.node.get(), ws.lbs, ws.ubs);

  // Skip nodes whose bound fixings became contradictory.
  for (VarId v = 0; v < model_.num_vars(); ++v) {
    if (ws.lbs[v] > ws.ubs[v] + tol::kFixTol) {
      c_pruned_infeas.inc();
      return;
    }
  }

  // Bound-propagation presolve at every node prunes provably infeasible
  // nodes without an LP solve and shrinks node LPs by fixing variables
  // (big-M indicator rows propagate well). It pays per change: the root
  // records its run, and every other node replays each step whose row
  // still sees the root's bounds bit for bit, recomputing only the rows
  // its branching changes reach. The box is bit-identical to a full
  // presolve_into. The root's worker writes the trace before it pushes
  // any child, and the queue mutex orders that write before every
  // reader.
  if (entry.node == nullptr) {
    // The root box is the model's own (no bound changes yet).
    lp::presolve_record(model_, ws.pre, root_presolve_);
  } else {
    lp::presolve_replay(model_, root_presolve_, ws.lbs, ws.ubs, ws.pre);
  }
  if (ws.pre.infeasible) {
    c_pruned_infeas.inc();
    return;
  }
  ws.lbs = ws.pre.lb;
  ws.ubs = ws.pre.ub;

  // A complementarity pair with *both* sides bounded away from zero can
  // never be satisfied in this subtree — the node is infeasible. Caught
  // up front (bound tightening and presolve both manufacture this state)
  // so the branching code below always has a side left to fix; letting
  // it fall through used to drop the node silently with no counter.
  for (const auto& pair : model_.complementarities()) {
    if (ws.lbs[pair.a] > tol::kComplTol &&
        ws.lbs[pair.b] > tol::kComplTol) {
      MO_LOG(Debug) << "B&B: complementarity pair (" << pair.a << ","
                    << pair.b << ") has both lower bounds above "
                    << tol::kComplTol << "; pruning node as infeasible";
      c_pruned_infeas.inc();
      return;
    }
  }

  // Cap each node LP at the remaining budget so one long relaxation
  // cannot blow through the overall time limit.
  ws.solver.set_time_limit(
      std::max(0.05, options_.time_limit_seconds - watch_.seconds()));
  ++ws.lp_solves;
  c_lp_solves.inc();
  ws.warm.hint = entry.node ? entry.node->basis.get() : nullptr;
  const Solution relax =
      ws.solver.solve_with_bounds(model_, ws.lbs, ws.ubs, ws.warm);
  const std::shared_ptr<const lp::Basis> node_basis = ws.warm.take_result();
  if (ws.warm.hint != nullptr &&
      ws.warm.last_path == lp::WarmStartContext::Path::WarmDual) {
    ++ws.warm_reuse;
  }
  if (relax.status == SolveStatus::TimeLimit) {
    // The node is abandoned mid-solve: count it, and keep its bound
    // alive for the final best_bound — it is still an open subtree.
    c_aborted.inc();
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      abandoned_score_ = std::max(abandoned_score_, entry.score);
    }
    request_stop(SolveStatus::TimeLimit);
    return;
  }
  if (relax.status == SolveStatus::Infeasible) {
    c_pruned_infeas.inc();
    return;
  }
  if (relax.status == SolveStatus::Unbounded) {
    // KKT systems routinely have unbounded *relaxations* while the
    // complementarity-constrained problem is bounded (duals are free
    // until a pair is fixed). Branch on the first unresolved discrete
    // entity; only a fully fixed yet unbounded node proves the original
    // problem unbounded.
    std::vector<QueueEntry> children;
    auto push = [&](VarId v, double lb, double ub) {
      auto child = std::make_shared<Node>();
      child->parent = entry.node;
      child->changes = {BoundChange{v, lb, ub}};
      child->bound = maximize_ ? lp::kInf : -lp::kInf;
      child->depth = entry.node ? entry.node->depth + 1 : 1;
      child->basis = node_basis;  // null here (unbounded parent)
      children.push_back(QueueEntry{lp::kInf, 0, std::move(child)});
    };
    for (VarId v = 0; v < model_.num_vars() && children.empty(); ++v) {
      if (model_.var(v).kind == lp::VarKind::Binary &&
          ws.ubs[v] - ws.lbs[v] > tol::kIntTol) {
        push(v, 0.0, 0.0);
        push(v, 1.0, 1.0);
      }
    }
    if (children.empty()) {
      for (const auto& pair : model_.complementarities()) {
        if (ws.ubs[pair.a] > tol::kComplTol &&
            ws.ubs[pair.b] > tol::kComplTol) {
          // The up-front pair check guarantees at least one side is
          // still fixable to zero; a pair with neither side fixable
          // would have pruned the node as infeasible above.
          for (VarId side : {pair.a, pair.b}) {
            if (ws.lbs[side] > tol::kComplTol) continue;
            push(side, ws.lbs[side], 0.0);
          }
          if (!children.empty()) break;
        }
      }
    }
    if (!children.empty()) {
      c_branched.inc();
      push_children(std::move(children));
      return;
    }
    c_unbounded.inc();
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      found_unbounded_ = true;
    }
    request_stop(SolveStatus::Unbounded);
    return;
  }
  if (relax.status != SolveStatus::Optimal) {
    // The LP engine gave no answer (Error, IterationLimit): the subtree
    // is unexplored, not pruned. Keep its bound open and bar the tree
    // from claiming a proof (see run()).
    MO_LOG(Warn) << "B&B: node relaxation failed ("
                 << lp::to_string(relax.status) << "); abandoning node";
    c_failed.inc();
    std::lock_guard<std::mutex> lock(queue_mutex_);
    abandoned_score_ = std::max(abandoned_score_, entry.score);
    node_failed_ = true;
    return;
  }
  const double node_bound = relax.objective;
  if (prunable(dir_ * node_bound)) {
    c_pruned_bound.inc();
    return;
  }

  // Find violated discrete structure.
  VarId frac_bin = lp::kInvalidVar;
  double worst_frac = tol::kIntTol;
  for (VarId v = 0; v < model_.num_vars(); ++v) {
    if (model_.var(v).kind != lp::VarKind::Binary) continue;
    const double x = relax.values[v];
    const double frac = std::min(x - std::floor(x), std::ceil(x) - x);
    if (frac > worst_frac) {
      worst_frac = frac;
      frac_bin = v;
    }
  }
  int worst_pair = -1;
  double worst_product = tol::kComplTol;
  const auto& pairs = model_.complementarities();
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    const double prod = std::min(std::abs(relax.values[pairs[p].a]),
                                 std::abs(relax.values[pairs[p].b]));
    if (prod > worst_product) {
      worst_product = prod;
      worst_pair = static_cast<int>(p);
    }
  }

  if (frac_bin == lp::kInvalidVar && worst_pair < 0) {
    // Relaxation point satisfies all discrete structure: incumbent.
    c_integer.inc();
    accept_incumbent(node_bound, relax.values);
    return;
  }

  // Primal heuristic on the (possibly fractional) relaxation point.
  if (callbacks_.primal_heuristic) {
    if (auto cand = callbacks_.primal_heuristic(relax.values)) {
      // Tolerance sized for assembled KKT points, whose duals/slacks
      // carry simplex-tolerance noise through stationarity sums.
      if (cand->second.size() ==
              static_cast<std::size_t>(model_.num_vars()) &&
          model_.max_violation(cand->second) <= tol::kAssembledPointTol) {
        accept_incumbent(cand->first, cand->second);
      }
    }
  }

  // Branch. Binaries take priority (they gate big-M structure).
  std::vector<QueueEntry> children;
  auto push_child = [&](std::vector<BoundChange> changes) {
    auto child = std::make_shared<Node>();
    child->parent = entry.node;
    child->changes = std::move(changes);
    child->bound = node_bound;
    child->depth = entry.node ? entry.node->depth + 1 : 1;
    child->basis = node_basis;  // siblings share the parent basis
    children.push_back(QueueEntry{dir_ * node_bound, 0, std::move(child)});
  };

  if (frac_bin != lp::kInvalidVar) {
    push_child({BoundChange{frac_bin, 0.0, 0.0}});
    push_child({BoundChange{frac_bin, 1.0, 1.0}});
  } else {
    const auto& pair = pairs[worst_pair];
    if (ws.lbs[pair.a] <= tol::kComplTol) {
      push_child({BoundChange{pair.a, ws.lbs[pair.a], 0.0}});
    }
    if (ws.lbs[pair.b] <= tol::kComplTol) {
      push_child({BoundChange{pair.b, ws.lbs[pair.b], 0.0}});
    }
  }
  if (children.empty()) {
    // Unreachable given the up-front pair check, but never let a popped
    // node vanish without a counter: an unbranchable pair node means the
    // complementarity cannot be satisfied here.
    MO_LOG(Warn) << "B&B: branching produced no children; pruning node as "
                    "infeasible";
    c_pruned_infeas.inc();
    return;
  }
  c_branched.inc();
  push_children(std::move(children));
}

void TreeSearch::worker_loop() {
  WorkerState ws(lp_opts_, model_);
  for (;;) {
    QueueEntry entry;
    {
      const std::uint64_t t0 = util::Stopwatch::now_ns();
      std::unique_lock<std::mutex> lock(queue_mutex_);
      h_queue_wait_ns.observe(util::Stopwatch::now_ns() - t0);
      bool got = false;
      while (!got) {
        if (stop_.load(std::memory_order_relaxed)) break;
        // ---- stop rules, evaluated once per pop like the serial loop.
        if (watch_.seconds() > options_.time_limit_seconds) {
          stop_reason_ = SolveStatus::TimeLimit;
          stopped_early_ = true;
          stop_.store(true, std::memory_order_release);
          work_cv_.notify_all();
          break;
        }
        if (nodes_ >= options_.max_nodes) {
          stop_reason_ = SolveStatus::IterationLimit;
          stopped_early_ = true;
          stop_.store(true, std::memory_order_release);
          work_cv_.notify_all();
          break;
        }
        // ---- take the best open node, bound-pruning stale entries.
        while (!queue_.empty()) {
          entry = queue_.top();
          queue_.pop();
          c_popped.inc();
          if (prunable(entry.score)) {
            c_pruned_bound.inc();
            continue;
          }
          got = true;
          ++nodes_;
          ++in_flight_;
          break;
        }
        if (got) break;
        if (in_flight_ == 0) break;  // queue empty, nothing pending: done
        // Queue momentarily empty but siblings are still expanding
        // nodes: wait for a push, a stop, or exhaustion. Predicate
        // changes happen under queue_mutex_, so no wakeup can be lost.
        work_cv_.wait(lock, [this] {
          return stop_.load(std::memory_order_relaxed) || !queue_.empty() ||
                 in_flight_ == 0;
        });
      }
      if (!got) break;  // stop or exhausted
    }

    process_node(entry, ws);

    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      --in_flight_;
      if (in_flight_ == 0 && queue_.empty()) work_cv_.notify_all();
    }
  }

  // Fold this worker's stats into the shared totals.
  std::lock_guard<std::mutex> lock(queue_mutex_);
  total_lp_solves_ += ws.lp_solves;
  total_warm_reuse_ += ws.warm_reuse;
  h_worker_nodes.observe(static_cast<std::uint64_t>(ws.nodes));
}

void TreeSearch::worker_main(std::uint64_t obs_group) {
  // Helpers can land on persistent scheduler workers, so the spawner's
  // obs shard group is adopted with a *fresh* shard (ScopedWorkerShard):
  // per-job metric attribution (SweepRunner) sees their counts without
  // the worker's history bleeding into the job's snapshot diff. A no-op
  // on the spawning thread itself, which is already in the group.
  const obs::ScopedWorkerShard shard(obs_group);
  try {
    worker_loop();
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      if (!worker_error_) worker_error_ = std::current_exception();
    }
    request_stop(SolveStatus::Error);
  }
}

Solution TreeSearch::run(int threads) {
  Solution best;
  best.status = SolveStatus::Error;

  for (const auto& [obj, values] : callbacks_.initial_incumbents) {
    if (values.size() == static_cast<std::size_t>(model_.num_vars()) &&
        model_.max_violation(values) <= tol::kAssembledPointTol) {
      accept_incumbent(obj, values);
    } else {
      MO_LOG(Warn) << "B&B: rejected infeasible initial incumbent";
    }
  }

  queue_.push(QueueEntry{root_score_, seq_++, nullptr});

  // Node workers run through the shared scheduler's fork_join: this
  // thread is worker 0 and the pool grows to at least `threads` - 1
  // (max over components, never a product — a sweep's width does not
  // multiply with ours). Late helpers are cheap: worker_loop() exits as
  // soon as the queue is empty with nothing in flight.
  const std::uint64_t obs_group = obs::current_group();
  runner::Scheduler::global().fork_join(
      threads, [this, obs_group](int) { worker_main(obs_group); });
  if (worker_error_) std::rethrow_exception(worker_error_);

  // ---- assemble the Solution (single-threaded from here on).
  best.iterations = nodes_;
  best.solve_seconds = watch_.seconds();
  if (total_lp_solves_ > 0) {
    g_basis_reuse.set(static_cast<double>(total_warm_reuse_) /
                      static_cast<double>(total_lp_solves_));
  }
  if (found_unbounded_) {
    best.status = SolveStatus::Unbounded;
    return best;
  }
  // Open-bound cover at an early stop: the best remaining queue entry,
  // any node abandoned mid-LP, and the incumbent itself (score space).
  double open_score = -lp::kInf;
  if (!queue_.empty()) open_score = std::max(open_score, queue_.top().score);
  open_score = std::max(open_score, abandoned_score_);

  if (inc_have_) {
    best.objective = inc_obj_;
    best.values = std::move(inc_values_);
    if (stopped_early_ || node_failed_) {
      best.status = stopped_early_ && stop_reason_ == SolveStatus::TimeLimit
                        ? SolveStatus::TimeLimit
                        : SolveStatus::Feasible;
      // Remaining open nodes can sit on the wrong side of the incumbent
      // when it came from a better subtree; the incumbent itself is
      // always a valid bound.
      best.best_bound =
          open_score <= -lp::kInf
              ? inc_obj_
              : dir_ * std::max(open_score, dir_ * inc_obj_);
    } else {
      best.status = SolveStatus::Optimal;
      best.best_bound = inc_obj_;
    }
  } else if (stopped_early_) {
    best.status = SolveStatus::TimeLimit;
    best.best_bound =
        open_score <= -lp::kInf ? dir_ * root_score_ : dir_ * open_score;
  } else if (node_failed_) {
    // Exhausted, but over subtrees some failed LPs never explored: no
    // incumbent proves nothing either way.
    best.status = SolveStatus::Error;
    best.best_bound = dir_ * open_score;
  } else {
    best.status = SolveStatus::Infeasible;
  }
  // has_solution() includes time-limit stops with no incumbent; only
  // certify when an actual point was produced.
  if (options_.certify && best.has_solution() && !best.values.empty()) {
    const check::Certificate cert = check::certify_mip(
        model_, best, check::CertifyOptions::for_mip());
    best.certified = cert.ok;
    if (!cert.ok) {
      MO_LOG(Error) << "MIP certification FAILED: " << cert.to_string();
    }
  }
  return best;
}

}  // namespace

Solution BranchAndBound::solve(const Model& model,
                               const MipCallbacks& callbacks) const {
  MO_SPAN_HIST("bnb.solve", h_solve_ns);
  c_solves.inc();
  model.validate();

  if (options_.certify) {
    const check::LintReport lint = check::lint_model(model);
    if (lint.has_errors()) {
      MO_LOG(Error) << "B&B input model failed lint:\n" << lint.to_string();
    }
  }

  // No oversubscription clamp anymore: helper workers come from the
  // process-wide scheduler, whose size is the max of every component's
  // request — running inside a sweep lane adds zero threads beyond
  // max(sweep width, mip threads). (The old clamp forced threads = 1
  // inside any parallel region, and silently failed to fire when a job
  // body moved the solve to an unmarked helper thread; the shared pool
  // bounds those paths structurally.)
  const int threads = std::max(1, options_.threads);
  g_threads.set(static_cast<double>(threads));

  TreeSearch search(model, options_, callbacks);
  return search.run(threads);
}

}  // namespace metaopt::mip
