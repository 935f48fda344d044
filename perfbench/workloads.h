// The four perfbench workloads (README.md explains why each exists and
// which layers it exercises). Each runs for config.seconds of measured
// work, checks every output outside the timed region (a failed check is
// recorded on the report and fails the run), and fills the report with its
// end-to-end metrics, or with its per-layer metrics when config.trace is
// set.

#ifndef CKSAFE_PERFBENCH_WORKLOADS_H_
#define CKSAFE_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <vector>

#include "bench_util.h"
#include "cksafe/data/table.h"

namespace perfbench {

/// The tenants of the publish, serve and fleet workloads: (c,k) policies
/// from strict to lax.
struct TenantSpec {
  const char* name;
  double c;
  size_t k;
};
inline constexpr TenantSpec kTenants[] = {
    {"gold", 0.5, 4}, {"std", 0.7, 2}, {"free", 0.85, 1}};

/// Row `row` of `table` as AddRow/AddBatch-ready cells.
inline std::vector<int32_t> RowCells(const cksafe::Table& table, size_t row) {
  std::vector<int32_t> cells(table.num_columns());
  for (size_t col = 0; col < table.num_columns(); ++col) {
    cells[col] = table.at(static_cast<cksafe::PersonId>(row), col);
  }
  return cells;
}

/// The paper's sanitizer: multi-tenant Incognito over synthetic Adult.
void RunPublishWorkload(const RunConfig& config, Tracer* tracer,
                        Report* report);

/// Durable in-process serving (`fleet` = false) or the same inputs,
/// phases and writer schedule through a two-shard fleet (`fleet` = true).
void RunServeWorkload(const RunConfig& config, bool fleet, Tracer* tracer,
                      Report* report);

/// The exact oracle on small worlds against the DP.
void RunOracleWorkload(const RunConfig& config, Tracer* tracer,
                       Report* report);

}  // namespace perfbench

#endif  // CKSAFE_PERFBENCH_WORKLOADS_H_
