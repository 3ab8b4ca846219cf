#ifndef RICD_PERFBENCH_DETECT_H_
#define RICD_PERFBENCH_DETECT_H_

#include <cstddef>
#include <vector>

#include "bench.h"
#include "common/result.h"
#include "ricd/framework.h"
#include "table/click_table.h"

namespace ricd::perfbench {

/// Times `framework.Run(table)`: at least `min_runs` runs, then more while
/// another fits in `budget_s` seconds of the phase, up to `max_runs`. Every
/// repeat must return the first run's groups and ranking (one checked
/// operation each). `*first` receives the first run's result. Returns each
/// run's wall time.
Result<std::vector<double>> TimeRuns(const core::RicdFramework& framework,
                                     const table::ClickTable& table,
                                     size_t min_runs, size_t max_runs,
                                     double budget_s,
                                     core::FrameworkResult* first,
                                     Report* report);

/// The detection layers of a traced run over `table`. Three times, an
/// untraced Run beside a traced replay of it from public calls, one span
/// per layer call; the replay must reproduce Run's groups and ranking
/// exactly and its leaf spans must cover >= 95% of its time. Then Extract
/// on an explicit 1-worker engine and on the pinned default engine, both
/// returning the replay's groups. Adds the graph, extraction, engine,
/// screening and identification per-layer metrics to `report` and returns
/// the tracing overhead: median traced replay / median untraced Run - 1.
Result<double> TraceRuns(const core::RicdFramework& framework,
                         const table::ClickTable& table, Tracer* tracer,
                         Report* report);

}  // namespace ricd::perfbench

#endif  // RICD_PERFBENCH_DETECT_H_
