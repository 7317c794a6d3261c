#include "multisource/ms_eca_snapshot.h"

namespace wvm {

void MsEcaSnapshot::Overtaken(const Update& u, PendingQuery* pending,
                              Query* q) {
  (void)q;
  pending->rewound.push_back(u);
}

}  // namespace wvm
