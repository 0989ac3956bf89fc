#include "lp/simplex.h"

#include <memory>
#include <vector>

#include "check/certify.h"
#include "lp/revised_simplex.h"
#include "obs/obs.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace metaopt::lp {

namespace {

// Hot-loop instrumentation: one relaxed-atomic branch each while
// observability is off (obs::enabled() == false). simplex.solves and the
// simplex.solve span/histogram count each public SimplexSolver call once,
// whichever rung answers it.
const obs::Counter c_solves = obs::counter("simplex.solves");
const obs::Counter c_warm_solves = obs::counter("simplex.warm_solves");
const obs::Counter c_warm_fallbacks = obs::counter("simplex.warm_fallbacks");
const obs::Counter c_cold_revised = obs::counter("simplex.cold_revised_solves");
const obs::Histogram h_solve_ns = obs::histogram("simplex.solve_ns");

}  // namespace

Solution SimplexSolver::solve(const Model& model) const {
  std::vector<double> lb(model.num_vars());
  std::vector<double> ub(model.num_vars());
  for (VarId v = 0; v < model.num_vars(); ++v) {
    lb[v] = model.var(v).lb;
    ub[v] = model.var(v).ub;
  }
  WarmStartContext cold(model);
  return solve_with_bounds(model, lb, ub, cold);
}

Solution SimplexSolver::solve_with_bounds(const Model& model,
                                          const std::vector<double>& lb,
                                          const std::vector<double>& ub,
                                          WarmStartContext& warm) const {
  MO_SPAN_HIST("simplex.solve", h_solve_ns);
  c_solves.inc();
  warm.set_result(nullptr);
  bool accepted = false;
  if (warm.hint != nullptr) {
    Solution sol = solve_revised(model, lb, ub, warm, /*use_hint=*/true,
                                 &accepted);
    if (accepted) {
      warm.last_path = WarmStartContext::Path::WarmDual;
      c_warm_solves.inc();
      return sol;
    }
    c_warm_fallbacks.inc();
  }
  Solution sol =
      solve_revised(model, lb, ub, warm, /*use_hint=*/false, &accepted);
  warm.last_path = WarmStartContext::Path::ColdRevised;
  c_cold_revised.inc();
  return sol;
}

Solution SimplexSolver::solve_revised(const Model& model,
                                      const std::vector<double>& lb,
                                      const std::vector<double>& ub,
                                      WarmStartContext& warm, bool use_hint,
                                      bool* accepted) const {
  *accepted = false;
  util::Stopwatch watch;
  RevisedSimplex& engine = warm.engine;
  Solution sol;
  long iters = 0;
  sol.status = use_hint
                   ? engine.solve_warm(options_, lb, ub, *warm.hint, &iters)
                   : engine.solve_cold(options_, lb, ub, &iters, warm.start);
  sol.iterations = iters;
  sol.solve_seconds = watch.seconds();
  switch (sol.status) {
    case SolveStatus::Error:
    case SolveStatus::IterationLimit:
    case SolveStatus::Feasible:  // never produced by the revised core
      // Not trustworthy (or not terminal): the warm rung drops to the
      // cold one; the cold rung reports it as-is.
      return sol;
    case SolveStatus::TimeLimit:
      // Retrying cold would double-spend an exhausted budget; report
      // honestly instead.
      *accepted = true;
      return sol;
    case SolveStatus::Infeasible:
      *accepted = true;
      return sol;
    case SolveStatus::Unbounded:
      engine.primal_values(sol.values);
      sol.objective = engine.model_objective();
      sol.best_bound = sol.objective;
      *accepted = true;
      return sol;
    case SolveStatus::Optimal:
      break;
  }
  engine.primal_values(sol.values);
  sol.objective = engine.model_objective();
  sol.best_bound = sol.objective;
  if (options_.want_duals) {
    engine.extract_duals(model, sol.duals, sol.reduced_costs);
  }
  maybe_certify(model, sol, lb, ub);
  if (options_.certify && !sol.certified) {
    // The independent certifier rejected this rung's optimum (and
    // maybe_certify logged it): not accepted, no basis published.
    return sol;
  }
  auto basis = std::make_shared<Basis>();
  engine.export_basis(*basis);
  warm.set_result(std::move(basis));
  *accepted = true;
  return sol;
}

void SimplexSolver::maybe_certify(const Model& model, Solution& sol,
                                  const std::vector<double>& lb,
                                  const std::vector<double>& ub) const {
  if (!options_.certify || sol.status != SolveStatus::Optimal) return;
  MO_SPAN("simplex.certify");
  const check::Certificate cert = check::certify_lp(model, sol, {}, &lb, &ub);
  sol.certified = cert.ok;
  if (!cert.ok) {
    MO_LOG(Error) << "LP certification FAILED: " << cert.to_string();
  }
}

}  // namespace metaopt::lp
