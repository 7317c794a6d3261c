// Full-state reference for the consistency oracle: the checker and the
// staleness analysis over materialized states, compared pairwise with
// Relation::operator==.
// Quadratic and memory-hungry on purpose: it is the obviously-correct
// specification the delta-based CheckConsistency / MeasureStaleness are
// differential-tested against, and the home of the materialized-state
// helpers that tests use to look at a log.
#ifndef WVM_TESTS_CONSISTENCY_REFERENCE_H_
#define WVM_TESTS_CONSISTENCY_REFERENCE_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/strings.h"
#include "consistency/checker.h"
#include "consistency/staleness.h"

namespace wvm {
namespace reference {

// Consecutive duplicates removed (a warehouse event that does not change
// the view does not create a new observable state).
inline std::vector<Relation> Dedup(const std::vector<Relation>& states) {
  std::vector<Relation> out;
  for (const Relation& r : states) {
    if (out.empty() || !(out.back() == r)) {
      out.push_back(r);
    }
  }
  return out;
}

// Greedy order-preserving match of `needles` into `haystack`: each needle
// must equal some haystack element at an index no smaller than the previous
// match (indices may repeat only by moving forward, never backward).
// Returns the index of the first unmatched needle, or -1 if all match.
inline int FirstUnmatched(const std::vector<Relation>& needles,
                          const std::vector<Relation>& haystack,
                          bool allow_same_index) {
  size_t h = 0;
  bool first = true;
  for (size_t n = 0; n < needles.size(); ++n) {
    size_t start = first ? 0 : (allow_same_index ? h : h + 1);
    bool found = false;
    for (size_t i = start; i < haystack.size(); ++i) {
      if (haystack[i] == needles[n]) {
        h = i;
        found = true;
        break;
      }
    }
    if (!found) {
      return static_cast<int>(n);
    }
    first = false;
  }
  return -1;
}

inline ConsistencyReport CheckConsistency(
    const std::vector<Relation>& src,
    const std::vector<Relation>& warehouse) {
  ConsistencyReport report;
  const std::vector<Relation> wh = Dedup(warehouse);

  if (src.empty() || wh.empty()) {
    report.violation = "empty execution";
    return report;
  }

  // Convergence.
  report.convergent = src.back() == wh.back();
  if (!report.convergent) {
    report.violation =
        StrCat("not convergent: final warehouse state ", wh.back().ToString(),
               " != final source state ", src.back().ToString());
  }

  // Weak consistency: every warehouse state is some source state.
  report.weakly_consistent = true;
  for (size_t i = 0; i < wh.size(); ++i) {
    bool found = false;
    for (const Relation& s : src) {
      if (s == wh[i]) {
        found = true;
        break;
      }
    }
    if (!found) {
      report.weakly_consistent = false;
      if (report.violation.empty()) {
        report.violation = StrCat("not weakly consistent: warehouse state ",
                                  wh[i].ToString(),
                                  " matches no source state");
      }
      break;
    }
  }

  // Consistency: order-preserving mapping into the source sequence.
  if (report.weakly_consistent) {
    int miss = FirstUnmatched(wh, src, /*allow_same_index=*/true);
    report.consistent = miss < 0;
    if (!report.consistent && report.violation.empty()) {
      report.violation =
          StrCat("not consistent: warehouse state #", miss, " (",
                 wh[static_cast<size_t>(miss)].ToString(),
                 ") breaks source-state order");
    }
  }

  report.strongly_consistent = report.consistent && report.convergent;

  // Completeness: additionally, every (deduplicated) source state shows up
  // at the warehouse, in order.
  if (report.strongly_consistent) {
    const std::vector<Relation> src_d = Dedup(src);
    int miss = FirstUnmatched(src_d, wh, /*allow_same_index=*/false);
    report.complete = miss < 0;
    if (!report.complete && report.violation.empty()) {
      report.violation = StrCat("not complete: source state #", miss,
                                " never observed at the warehouse");
    }
  }
  return report;
}

inline std::vector<uint64_t> Clocks(const ViewStates& states) {
  std::vector<uint64_t> clocks;
  for (size_t i = 0; i < states.size(); ++i) {
    clocks.push_back(states.clock(i));
  }
  return clocks;
}

inline StalenessReport MeasureStaleness(
    const std::vector<Relation>& src, const std::vector<uint64_t>& src_clock,
    const std::vector<Relation>& wh, const std::vector<uint64_t>& wh_clock) {
  StalenessReport report;
  const size_t n = src.size();
  report.lags.assign(n, -1);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t born = src_clock[i];
    for (size_t j = 0; j < wh.size(); ++j) {
      if (wh_clock[j] < born) {
        continue;
      }
      if (wh[j] == src[i]) {
        report.lags[i] = static_cast<int64_t>(wh_clock[j] - born);
        break;
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

// Both analyses over a log's materialized states.
inline ConsistencyReport CheckConsistency(const StateLog& log) {
  if (!log.source_drift.empty() && !log.source_view_states.empty() &&
      !log.warehouse_view_states.empty()) {
    ConsistencyReport report;
    report.violation = log.source_drift;
    return report;
  }
  return CheckConsistency(log.source_view_states.MaterializeAll(),
                          log.warehouse_view_states.MaterializeAll());
}

inline StalenessReport MeasureStaleness(const StateLog& log) {
  return MeasureStaleness(log.source_view_states.MaterializeAll(),
                          Clocks(log.source_view_states),
                          log.warehouse_view_states.MaterializeAll(),
                          Clocks(log.warehouse_view_states));
}

}  // namespace reference

// Expects the delta oracle and the full-state reference to agree on `log`
// exactly — every flag, the violation text, every staleness lag — and
// returns the delta oracle's verdict.
inline ConsistencyReport CheckedConsistency(const StateLog& log) {
  const ConsistencyReport got = CheckConsistency(log);
  const ConsistencyReport want = reference::CheckConsistency(log);
  EXPECT_EQ(got.ToString(), want.ToString());
  const StalenessReport lag = MeasureStaleness(log);
  const StalenessReport want_lag = reference::MeasureStaleness(log);
  EXPECT_EQ(lag.lags, want_lag.lags);
  EXPECT_EQ(lag.ToString(), want_lag.ToString());
  return got;
}

}  // namespace wvm

#endif  // WVM_TESTS_CONSISTENCY_REFERENCE_H_
