#include "consistency/checker.h"

#include <unordered_map>
#include <vector>

#include "common/strings.h"

namespace wvm {

namespace {

// Greedy order-preserving match of `needles` into `haystack` (state
// indices, compared by `equal(needle, hay)`): each needle must equal some
// haystack element at a position no smaller than the previous match
// (positions may repeat only by moving forward, never backward). Returns
// the position of the first unmatched needle, or -1 if all match. Greedy
// earliest-match is optimal for this subsequence-with-equality test, and
// both positions only move forward, so a StatePair walks each log once.
template <typename Equal>
int FirstUnmatched(const std::vector<size_t>& needles,
                   const std::vector<size_t>& haystack, bool allow_same_index,
                   Equal equal) {
  size_t h = 0;
  bool first = true;
  for (size_t n = 0; n < needles.size(); ++n) {
    size_t start = first ? 0 : (allow_same_index ? h : h + 1);
    bool found = false;
    for (size_t i = start; i < haystack.size(); ++i) {
      if (equal(needles[n], haystack[i])) {
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

// Indices of the states that differ from their predecessor: consecutive
// duplicates removed (a warehouse event that does not change the view does
// not create a new observable state). Exact and O(1) per state, because a
// state equals its predecessor iff its delta is empty.
std::vector<size_t> Distinct(const ViewStates& states) {
  std::vector<size_t> out;
  for (size_t i = 0; i < states.size(); ++i) {
    if (i == 0 || !states.delta(i).IsEmpty()) {
      out.push_back(i);
    }
  }
  return out;
}

}  // namespace

ConsistencyReport CheckConsistency(const StateLog& log) {
  ConsistencyReport report;
  const ViewStates& src = log.source_view_states;
  const ViewStates& wh = log.warehouse_view_states;

  if (src.empty() || wh.empty()) {
    report.violation = "empty execution";
    return report;
  }
  if (!log.source_drift.empty()) {
    // The source side is not the execution's history; no level can be
    // decided against it.
    report.violation = log.source_drift;
    return report;
  }
  const std::vector<size_t> wh_d = Distinct(wh);
  StatePair pair(src, wh);

  // Convergence.
  report.convergent = src.back() == wh.back();
  if (!report.convergent) {
    report.violation =
        StrCat("not convergent: final warehouse state ", wh.back().ToString(),
               " != final source state ", src.back().ToString());
  }

  // Consistency: order-preserving mapping into the source sequence. A
  // complete mapping also proves weak consistency; only when it breaks does
  // weak consistency need its own (unordered) search.
  std::vector<size_t> all_src(src.size());
  for (size_t i = 0; i < all_src.size(); ++i) {
    all_src[i] = i;
  }
  const int miss =
      FirstUnmatched(wh_d, all_src, /*allow_same_index=*/true,
                     [&pair](size_t j, size_t i) { return pair.Equal(i, j); });
  report.consistent = miss < 0;

  // Weak consistency: every warehouse state is some source state. The
  // states before `miss` were matched in order; each later one is looked up
  // among the source states with its fingerprint, and confirmed exactly.
  report.weakly_consistent = true;
  if (miss >= 0) {
    std::unordered_map<Fingerprint, std::vector<size_t>, FingerprintHash>
        by_fingerprint;
    for (size_t i = 0; i < src.size(); ++i) {
      by_fingerprint[pair.source_fingerprint(i)].push_back(i);
    }
    for (size_t k = static_cast<size_t>(miss); k < wh_d.size(); ++k) {
      const size_t j = wh_d[k];
      bool found = false;
      auto it = by_fingerprint.find(pair.warehouse_fingerprint(j));
      if (it != by_fingerprint.end()) {
        for (size_t i : it->second) {
          if (pair.Equal(i, j)) {
            found = true;
            break;
          }
        }
      }
      if (!found) {
        report.weakly_consistent = false;
        if (report.violation.empty()) {
          report.violation = StrCat("not weakly consistent: warehouse state ",
                                    wh.Materialize(j).ToString(),
                                    " matches no source state");
        }
        break;
      }
    }
    if (report.weakly_consistent && report.violation.empty()) {
      report.violation =
          StrCat("not consistent: warehouse state #", miss, " (",
                 wh.Materialize(wh_d[static_cast<size_t>(miss)]).ToString(),
                 ") breaks source-state order");
    }
  }

  report.strongly_consistent = report.consistent && report.convergent;

  // Completeness: additionally, every (deduplicated) source state shows up
  // at the warehouse, in order.
  if (report.strongly_consistent) {
    const int src_miss = FirstUnmatched(
        Distinct(src), wh_d, /*allow_same_index=*/false,
        [&pair](size_t i, size_t j) { return pair.Equal(i, j); });
    report.complete = src_miss < 0;
    if (!report.complete && report.violation.empty()) {
      report.violation = StrCat("not complete: source state #", src_miss,
                                " never observed at the warehouse");
    }
  }

  return report;
}

ReplicaConvergenceReport CheckReplicaConvergence(
    uint64_t head_lsn, const Relation& lead_view,
    const std::vector<ReplicaProbe>& replicas) {
  ReplicaConvergenceReport report;
  report.all_at_head = true;
  report.views_identical_at_lsn = true;
  report.match_lead = true;

  for (const ReplicaProbe& r : replicas) {
    if (r.in_group && r.applied_lsn != head_lsn) {
      report.all_at_head = false;
      if (report.violation.empty()) {
        report.violation =
            StrCat(r.name, " applied ", r.applied_lsn, " of ", head_lsn,
                   " sequenced messages");
      }
    }
  }
  // Same applied prefix must mean the same view — replica against replica
  // (deterministic replay), and replica against the lead at the head.
  for (size_t i = 0; i < replicas.size(); ++i) {
    for (size_t j = i + 1; j < replicas.size(); ++j) {
      if (replicas[i].applied_lsn == replicas[j].applied_lsn &&
          !(*replicas[i].view == *replicas[j].view)) {
        report.views_identical_at_lsn = false;
        if (report.violation.empty()) {
          report.violation = StrCat(
              replicas[i].name, " and ", replicas[j].name, " diverge at LSN ",
              replicas[i].applied_lsn, ": ", replicas[i].view->ToString(),
              " vs ", replicas[j].view->ToString());
        }
      }
    }
    if (replicas[i].in_group && replicas[i].applied_lsn == head_lsn &&
        !(*replicas[i].view == lead_view)) {
      report.match_lead = false;
      if (report.violation.empty()) {
        report.violation =
            StrCat(replicas[i].name, " at head LSN ", head_lsn,
                   " differs from the lead view: ",
                   replicas[i].view->ToString(), " vs ",
                   lead_view.ToString());
      }
    }
  }
  report.converged = report.all_at_head && report.views_identical_at_lsn &&
                     report.match_lead;
  return report;
}

std::string ReplicaConvergenceReport::ToString() const {
  return StrCat("at_head=", all_at_head ? "yes" : "no",
                " identical=", views_identical_at_lsn ? "yes" : "no",
                " match_lead=", match_lead ? "yes" : "no",
                " converged=", converged ? "yes" : "no",
                violation.empty() ? "" : StrCat(" [", violation, "]"));
}

std::string ConsistencyReport::ToString() const {
  return StrCat("convergent=", convergent ? "yes" : "no",
                " weak=", weakly_consistent ? "yes" : "no",
                " consistent=", consistent ? "yes" : "no",
                " strong=", strongly_consistent ? "yes" : "no",
                " complete=", complete ? "yes" : "no",
                violation.empty() ? "" : StrCat(" [", violation, "]"));
}

}  // namespace wvm
