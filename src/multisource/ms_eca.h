#ifndef WVM_MULTISOURCE_MS_ECA_H_
#define WVM_MULTISOURCE_MS_ECA_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "multisource/ms_maintainer.h"
#include "query/query.h"

namespace wvm {

/// A straightforward transplantation of ECA to multiple sources — the
/// extension Section 7 sketches and warns about. Per update:
///
///   1. build the compensated query Q = V<U> - sum Q_j<U>, compensating a
///      pending query Q_j only when the fragment it still awaits comes
///      from U's OWN source (per-source FIFO gives exactly the
///      single-source inference there: U's notification overtaking the
///      fragment answer proves the fragment will already reflect U);
///   2. fetch, from each source owning an unbound relation of Q, an atomic
///      snapshot of those relations;
///   3. when all fragments arrive, evaluate Q at the warehouse and fold
///      into COLLECT; install when no query is in flight.
///
/// What survives, empirically (see tests/multisource_test.cc):
///
///   * updates confined to one source — the single-source guarantees
///     (per-source FIFO restores the Appendix B argument);
///   * two sources with one unbound relation per query term — strong
///     consistency holds across random interleavings, because every
///     query's answer travels on the FIFO of the only source it visits,
///     behind that source's pending notifications (a de-facto
///     synchronization barrier).
///
/// What breaks — and precisely why: with a term spanning relations of
/// SEVERAL other sources, a compensating term -Q_j<U> must offset U's
/// contamination of Q_j's answer, and that offset is only exact when
/// evaluated at Q_j's OWN per-source snapshots. The compensating term
/// instead rides the NEW query and is evaluated on fresh fragments; if a
/// third source's update was processed before U arrived, the old snapshot
/// the offset needs is gone, and no further compensation can be generated
/// for it (the update is no longer "in flight" anywhere). A stateless
/// legacy source cannot answer "as of" an earlier state — exactly the
/// timestamp/versioning machinery the paper refuses to demand (Section
/// 1.2) and that the follow-up work (the Strobe family) engineers around.
/// The algorithm therefore fails even CONVERGENCE on some three-source
/// interleavings (residues like a stray -[w,z] tuple); reproducing and
/// explaining that breakage is the point of this module. With two sources
/// the gap cannot open: every compensating term's only unbound relation
/// belongs to the updating source itself, so no stale foreign snapshot is
/// ever needed.
class MsEca : public MsMaintainer {
 public:
  explicit MsEca(ViewDefinitionPtr view) : MsMaintainer(std::move(view)) {}

  std::string name() const override { return "ms-eca"; }

  Status Initialize(const Catalog& initial) override;
  Status OnUpdate(size_t source, const Update& u, MsContext* ctx) override;
  Status OnFragments(size_t source, const FragmentAnswer& answer,
                     MsContext* ctx) override;
  bool IsQuiescent() const override { return pending_.empty(); }

 protected:
  struct PendingQuery {
    Query query;
    Catalog fragments;                 // arrived relation snapshots
    std::set<std::string> missing;     // relation names still awaited
    std::set<size_t> awaiting_source;  // sources not yet answered
    /// Updates the fragments will show but the query must not: the fold
    /// rewinds the answer past them on the query's own fragments.
    std::vector<Update> rewound;
  };

  /// Called while a relevant update u is processed, once per pending query
  /// u overtakes: one whose fragment from u's source is still in flight,
  /// so per-source FIFO guarantees that fragment will already reflect u.
  /// `q` is u's own query under construction. MsEca compensates there,
  /// q -= pending.query<u>.
  virtual void Overtaken(const Update& u, PendingQuery* pending, Query* q);

 private:
  /// Evaluates a fully-fragmented query, rewound past its `rewound`
  /// updates, and folds it into COLLECT.
  Status Fold(PendingQuery* pending);
  void MaybeInstall();

  std::map<uint64_t, PendingQuery> pending_;
  Relation collect_;
};

}  // namespace wvm

#endif  // WVM_MULTISOURCE_MS_ECA_H_
