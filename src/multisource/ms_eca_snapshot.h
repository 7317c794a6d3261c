#ifndef WVM_MULTISOURCE_MS_ECA_SNAPSHOT_H_
#define WVM_MULTISOURCE_MS_ECA_SNAPSHOT_H_

#include <string>

#include "multisource/ms_eca.h"

namespace wvm {

/// The constructive counterpart to MsEca's negative result: a multi-source
/// eager compensating algorithm that stays correct for ANY number of
/// sources, still without demanding anything from them beyond
/// notifications and snapshot answers.
///
/// MsEca fails (see its header) because a compensating term -Q_j<U> rides
/// a LATER query and is evaluated on that query's fresh fragments, while
/// exactness requires Q_j's own snapshots — which a stateless source
/// cannot reproduce. The fix exploits the one thing the fragment design
/// changes versus the paper: THE WAREHOUSE evaluates the query, so it can
/// apply compensation to the very snapshot it compensates.
///
///   * Each update's query is just V<U>; nothing rides along.
///   * While a query P still awaits a fragment from source s, every
///     relevant update u arriving from s is recorded in P's rewind list:
///     per-source FIFO guarantees s's eventual fragment will already
///     reflect u (an irrelevant update changes no term). This is the one
///     difference from MsEca, which compensates at that point;
///     the bookkeeping and the rewinding fold are MsEca's own.
///   * When P's fragments are complete, its delta is evaluated entirely on
///     its own fragment set, rewound to P's creation point:
///
///       delta_P = P<.>[frags] - IncExc(P, rewound)[frags]
///
///     using the inclusion-exclusion identity (Q[pre] = Q[post] -
///     IncExc(Q, batch)[post]), which handles several rewound updates —
///     including cross-source combinations — in one shot.
///
/// Correctness sketch: an update u is inside delta_P's effective snapshot
/// iff u was processed at the warehouse before P's update — the warehouse
/// processing order is a single total order, so the per-update deltas
/// telescope to the true total change (convergence); and at every install
/// point the incorporated update set is a global prefix (an update
/// executed globally earlier would have overtaken, on its own source's
/// FIFO, any fragment answer that a later-incorporated update's query
/// needed), giving consistency. The sweeps in tests/multisource_test.cc
/// exercise this over three- and four-source chains.
///
/// The price is unchanged from MsEca: whole-relation fragments per query
/// (RV-like shipping). Avoiding THAT cost — incremental multi-source
/// queries — is the part that genuinely needs the later Strobe machinery.
class MsEcaSnapshot : public MsEca {
 public:
  explicit MsEcaSnapshot(ViewDefinitionPtr view) : MsEca(std::move(view)) {}

  std::string name() const override { return "ms-eca-snapshot"; }

 protected:
  /// Nothing rides u's query: u joins the overtaken query's rewind list,
  /// and MsEca's fold undoes it on that query's own fragments.
  void Overtaken(const Update& u, PendingQuery* pending, Query* q) override;
};

}  // namespace wvm

#endif  // WVM_MULTISOURCE_MS_ECA_SNAPSHOT_H_
