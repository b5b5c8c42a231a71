// The `dls` command-line tool: generate platforms, solve steady-state
// scheduling problems with any heuristic, reconstruct and simulate
// periodic schedules, and build NP-hardness reduction instances.
//
//   dls generate  --clusters K [--connectivity p] [--heterogeneity h]
//                 [--gateway g] [--bw b] [--maxcon m] [--latency ms]
//                 [--speed s] [--transit T] [--seed n] [--connected]
//                 [--out FILE]
//   dls solve     --platform FILE [--method g|lpr|lprg|lprr|lp|exact]
//                 [--objective maxmin|sum] [--payoffs 1,2,...]
//                 [--seed n] [--schedule]
//   dls simulate  --platform FILE [--method ...] [--objective ...]
//                 [--payoffs ...] [--policy paced|maxmin|tcp|window]
//                 [--window units] [--periods n] [--seed n]
//   dls campaign  --spec FILE [--jobs J] [--shard i/n] [--json|--csv]
//                 [--cases FILE] [--serve PORT [--range-size N] ...]
//                 (run a declarative .campaign scenario matrix through
//                  the sharded streaming runner; see src/campaign/.
//                  --shard partitions the case matrix deterministically
//                  for multi-machine splits, by execution unit so take
//                  and drop siblings stay together; --cases streams one
//                  JSON line per finished case, in case order. --serve
//                  coordinates worker processes instead; --range-size
//                  is the cases per lease, rounded up to whole units)
//   dls sweep     --clusters K --cases N [--jobs J] [--objective ...]
//                 [--seed n] [--lprr]
//                 (parallel replication sweep; a thin adapter that
//                  builds a one-cell campaign spec and runs it)
//   dls online    --platform FILE | <generate options>
//                 [--workload FILE | --arrivals N --arrival-rate R
//                  --arrival-model poisson|onoff --mean-load L
//                  --load-spread s --payoff-spread s]
//                 [--method g|lpr|lprg|lp] [--objective maxmin|sum]
//                 [--warm auto|never|always]
//                 [--rate-model fluid|sim] [--policy ...] [--seed n]
//                 [--save-workload FILE] [--json]
//                 [--reps N --jobs J]
//                 (replay an online arrival stream with adaptive
//                  warm-started rescheduling; see src/online/.
//                  --reps > 1 replays N seed-derived replications
//                  across the thread pool via the campaign runner and
//                  reports aggregate statistics)
//   dls dynamics  --platform FILE | <generate options>
//                 [--workload FILE | <online workload options>]
//                 [--events FILE | --event-rate R --severity S --horizon H]
//                 [--method ...] [--objective ...] [--warm ...] [--seed n]
//                 [--save-events FILE] [--save-workload FILE] [--json]
//                 [--reps N --jobs J]   (aggregated replications, as above)
//                 (replay a workload against a platform-event trace —
//                  link failures, bandwidth drift, cluster churn — and
//                  report the degradation vs the static platform plus the
//                  warm/repaired/cold re-solve split; see src/dynamics/)
//   dls serve     --platform FILE | <generate options>
//                 [--port P] [--port-file FILE] [--max-loads N]
//                 [--objective sum|maxmin|pf] [--warm auto|never|always]
//                 [--replay FILE] [--events FILE] [--replay-speed X]
//                 [--exit-after-replay] [--drain-grace S]
//                 [--trace-file FILE] [--trace-capacity N]
//                 [--load-eps e] [--seed n]
//                 (long-running scheduler daemon around the shared
//                  multi-load LP: HTTP GET /metrics (Prometheus text),
//                  /health, /stats; POST /arrive, /depart, /event; plus
//                  a newline line protocol on the same port. --replay
//                  feeds a recorded .workload at --replay-speed virtual
//                  seconds per wall second (0 = as fast as possible);
//                  --speed is the generated clusters' speed, as on every
//                  command. SIGTERM drains. See src/serve/)
//   dls reduce    --graph FILE   (edge list: "n m" then m lines "u v")
//   dls help
//
// run_cli is stream-parameterized so tests can drive it end to end.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace dls::cli {

/// Executes one command; returns a process exit code. Errors are written
/// to `err`, results to `out`.
int run_cli(std::vector<std::string> args, std::ostream& out, std::ostream& err);

}  // namespace dls::cli
