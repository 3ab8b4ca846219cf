#ifndef RICD_RICD_INCREMENTAL_H_
#define RICD_RICD_INCREMENTAL_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "ricd/framework.h"
#include "table/click_table.h"

namespace ricd::core {

/// What one Ingest() call did.
struct IncrementalUpdate {
  /// Standing edges the detection run covered (the whole standing table).
  uint64_t region_edges = 0;

  /// Nodes flagged by this run that the previous run did not flag
  /// (ascending ids).
  std::vector<table::UserId> newly_flagged_users;
  std::vector<table::ItemId> newly_flagged_items;
};

/// Batch-at-a-time RICD over a growing click table — the paper's Section
/// VIII future-work direction (online detection on dynamic graphs) in its
/// simplest well-defined form: a consolidated standing table plus one
/// offline RicdFramework::Run per batch. After every Ingest the flags are
/// exactly what an offline Run over the consolidated stream so far reports,
/// retractions included.
class IncrementalRicd {
 public:
  explicit IncrementalRicd(FrameworkOptions options)
      : framework_(std::move(options)) {}

  /// Installs the initial table and runs one detection pass.
  Status Bootstrap(const table::ClickTable& initial);

  /// Appends `batch` to the standing table and re-runs detection over it.
  /// Requires a prior Bootstrap().
  Result<IncrementalUpdate> Ingest(const table::ClickTable& batch);

  /// The standing consolidated click table, sorted by (user, item).
  const table::ClickTable& table() const { return table_; }

  /// Flags of the last run (external ids -> risk score).
  const std::unordered_map<table::UserId, double>& flagged_users() const {
    return flagged_users_;
  }
  const std::unordered_map<table::ItemId, double>& flagged_items() const {
    return flagged_items_;
  }

  bool IsFlaggedUser(table::UserId u) const { return flagged_users_.count(u) > 0; }
  bool IsFlaggedItem(table::ItemId v) const { return flagged_items_.count(v) > 0; }

  uint64_t num_edges() const { return table_.num_rows(); }

 private:
  /// Runs detection over table_ and replaces the flags; records newly
  /// flagged nodes in `update` when given.
  Status Detect(IncrementalUpdate* update);

  RicdFramework framework_;
  bool bootstrapped_ = false;
  table::ClickTable table_;
  std::unordered_map<table::UserId, double> flagged_users_;
  std::unordered_map<table::ItemId, double> flagged_items_;
};

}  // namespace ricd::core

#endif  // RICD_RICD_INCREMENTAL_H_
