#include "consistency/staleness.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "common/strings.h"

namespace wvm {

StalenessReport MeasureStaleness(const StateLog& log) {
  StalenessReport report;
  const ViewStates& src = log.source_view_states;
  const ViewStates& wh = log.warehouse_view_states;
  const size_t n = src.size();
  report.lags.assign(n, -1);

  // A source state ss_i is "visible" at the first warehouse state recorded
  // at or after ss_i's clock whose contents equal V[ss_i] — PROVIDED a
  // later source state has not already replaced it by then (once the
  // source has moved on, showing the old value is staleness of a later
  // state's delivery, not visibility of ss_i... we still count it: the
  // paper's consistency definitions are about values, and so are we).
  //
  // Only warehouse states with ss_i's fingerprint can equal it; those are
  // confirmed exactly, in recording order, so the first confirmed one is
  // the first equal one.
  if (n > 0 && !wh.empty()) {
    StatePair pair(src, wh);
    std::unordered_map<Fingerprint, std::vector<size_t>, FingerprintHash>
        by_fingerprint;
    for (size_t j = 0; j < wh.size(); ++j) {
      by_fingerprint[pair.warehouse_fingerprint(j)].push_back(j);
    }
    for (size_t i = 0; i < n; ++i) {
      auto it = by_fingerprint.find(pair.source_fingerprint(i));
      if (it == by_fingerprint.end()) {
        continue;
      }
      const uint64_t born = src.clock(i);
      for (size_t j : it->second) {
        if (wh.clock(j) >= born && pair.Equal(i, j)) {
          report.lags[i] = static_cast<int64_t>(wh.clock(j) - born);
          break;
        }
      }
    }
  }

  int64_t visible = 0;
  int64_t total_lag = 0;
  for (int64_t lag : report.lags) {
    if (lag >= 0) {
      ++visible;
      total_lag += lag;
      report.max_lag = std::max(report.max_lag, lag);
    }
  }
  report.coverage = n == 0 ? 0.0
                           : static_cast<double>(visible) /
                                 static_cast<double>(n);
  report.mean_lag =
      visible == 0 ? 0.0
                   : static_cast<double>(total_lag) /
                         static_cast<double>(visible);
  return report;
}

std::string StalenessReport::ToString() const {
  return StrCat("coverage=", coverage, " mean_lag=", mean_lag,
                " max_lag=", max_lag, " events");
}

}  // namespace wvm
