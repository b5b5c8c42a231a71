// Coordinator snapshots: {spec fingerprint, fold frontier, aggregate
// states, pending out-of-order case records} written atomically (tmp +
// rename, the ytsaurus snapshot_store idiom) so a restarted coordinator
// resumes from the last snapshot instead of re-running finished work.
//
// The snapshot captures exactly the coordinator's fold state: every
// case with index < frontier is already folded into the aggregate
// states in case order, and `pending` holds records from completed
// ranges beyond the frontier that are waiting for an earlier range to
// finish. Restoring therefore loses nothing a worker ever delivered —
// a resumed run re-executes only the indices in [frontier, total) that
// are not in `pending`, and the final report is bit-identical to an
// uninterrupted run.
//
// Format: line-oriented text, doubles as C99 hex-floats (bit-exact
// round trip), terminated by an `end` sentinel so a torn file is
// detected even if rename atomicity is lost (e.g. on NFS). The header
// is `dls-checkpoint 2`; version 1 numbered multi-exhaust cases in
// another order, so its frontier would name different cases and it is
// refused.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "support/stats.hpp"

namespace dls::campaign {
struct CampaignReport;
}

namespace dls::dist {

struct MetricState {
  Accumulator::State acc;
  P2Quantile::State p50;
  P2Quantile::State p95;
};

struct Checkpoint {
  std::uint64_t spec_fingerprint = 0;
  std::size_t total_cases = 0;
  /// Every case index < frontier is folded into the states below.
  std::size_t frontier = 0;
  /// [group][metric] aggregate states at the frontier.
  std::vector<std::vector<MetricState>> groups;
  /// Received-but-unfolded records: case index -> metric values.
  std::map<std::size_t, std::vector<double>> pending;
};

/// Captures the aggregate states out of a report skeleton the
/// coordinator has been folding into.
[[nodiscard]] Checkpoint capture_checkpoint(
    const campaign::CampaignReport& report, std::uint64_t spec_fingerprint,
    std::size_t total_cases, std::size_t frontier,
    const std::map<std::size_t, std::vector<double>>& pending);

/// Restores the captured aggregates into a freshly expanded report
/// skeleton. Throws dls::Error when the group/metric shape disagrees
/// (the spec changed — the fingerprint check should have caught it).
void restore_checkpoint(const Checkpoint& checkpoint,
                        campaign::CampaignReport& report);

/// Serializes to/from the text format. read throws dls::Error naming
/// the defect (bad header, truncation, malformed number).
void write_checkpoint(const Checkpoint& checkpoint, std::ostream& os);
[[nodiscard]] Checkpoint read_checkpoint(std::istream& is);

/// Atomic file write: serialize to `path + ".tmp"`, fsync, rename.
void save_checkpoint_file(const Checkpoint& checkpoint,
                          const std::string& path);

/// Loads and validates a snapshot file. Throws dls::Error when the file
/// is unreadable, malformed, or fingerprint-mismatched against
/// `expected_fingerprint`.
[[nodiscard]] Checkpoint load_checkpoint_file(
    const std::string& path, std::uint64_t expected_fingerprint);

}  // namespace dls::dist
