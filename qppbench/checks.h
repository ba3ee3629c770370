#pragma once

// Correctness checks that do not trust the engine's own output: results
// are recomputed from table rows through the storage API, compared across
// independently chosen plans, or checked against the TPC-H sizing rules.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "catalog/database.h"
#include "storage/value.h"

namespace qppbench {

/// Tally of every check: how often each ran and failed, plus the first
/// failure messages. The run is correct only when nothing failed.
class CheckLog {
 public:
  void Record(const std::string& check, bool passed,
              const std::string& message = "");
  bool ok() const { return failures_ == 0; }
  uint64_t failures() const { return failures_; }
  /// check name -> {runs, failures}
  const std::map<std::string, std::pair<uint64_t, uint64_t>>& counts() const {
    return counts_;
  }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  std::map<std::string, std::pair<uint64_t, uint64_t>> counts_;
  std::vector<std::string> messages_;
  uint64_t failures_ = 0;
};

/// TPC-H sizing: region 5 and nation 25 rows; supplier, part, customer and
/// orders exactly SF x 10k / 200k / 150k / 1.5M; partsupp 4 x part;
/// every order has 1..7 lineitems and every lineitem has an order.
void CheckDbgenCardinalities(const qpp::Database& db, double scale_factor,
                             CheckLog* log);

/// Recomputes TPC-H template 1 (pricing summary) from lineitem rows for
/// the instance described by `param_desc` ("delta=N") and requires the
/// engine's rows to match exactly, Decimal for Decimal.
void CheckTemplate1(const qpp::Table& lineitem, const std::string& param_desc,
                    const std::vector<qpp::Tuple>& engine_rows, CheckLog* log);

/// Same for template 6 (forecast revenue change), "year=Y disc=0.0D qty=Q".
void CheckTemplate6(const qpp::Table& lineitem, const std::string& param_desc,
                    const std::vector<qpp::Tuple>& engine_rows, CheckLog* log);

/// Order-insensitive rendering of a result for multiset comparison across
/// plans. Doubles are rounded to 9 significant digits, since a different
/// join order sums them in a different order; every other type is exact.
std::vector<std::string> CanonicalRows(const std::vector<qpp::Tuple>& rows);

/// Requires two plans of the same bound query, one chosen with the learned
/// estimator and one with histograms only, to return the same multiset of
/// rows (compared through CanonicalRows). `what` names the query.
void CheckSameRows(const std::vector<qpp::Tuple>& learned_rows,
                   const std::vector<qpp::Tuple>& histogram_rows,
                   const std::string& what, CheckLog* log);

/// Algorithm 1 keeps a plan model only when it lowers the training error,
/// so the hybrid model's mean relative error over its training split may
/// not exceed that of an operator-level model trained on the same split.
/// Both errors are computed by the caller from PredictLatencyMs.
void CheckHybridNotWorse(double hybrid_mre, double operator_level_mre,
                         CheckLog* log);

}  // namespace qppbench
