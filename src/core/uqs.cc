#include "core/uqs.h"

namespace wvm {

Status UnansweredQueries::Answer(uint64_t query_id) {
  if (queries_.erase(query_id) == 0) {
    return Status::Internal("answer for unknown query id");
  }
  return Status::OK();
}

void UnansweredQueries::Compensate(const Update& u, Query* q) const {
  for (const auto& [id, pending] : queries_) {
    q->SubtractTerms(pending.Substitute(u));
  }
}

void UnansweredQueries::Compensate(const std::vector<Update>& batch,
                                   Query* q) const {
  for (const auto& [id, pending] : queries_) {
    q->SubtractTerms(pending.InclusionExclusionSubstitute(batch));
  }
}

TaggedDeltas::Entry* TaggedDeltas::Find(uint64_t tag) {
  auto it = entries_.find(tag);
  return it == entries_.end() ? nullptr : &it->second;
}

Status TaggedDeltas::CountTerm(uint64_t tag) {
  Entry* entry = Find(tag);
  if (entry == nullptr) {
    return Status::Internal("compensating term tags unknown update");
  }
  ++entry->open_terms;
  return Status::OK();
}

Status TaggedDeltas::AddLocal(uint64_t tag, const Relation& part) {
  Entry* entry = Find(tag);
  if (entry == nullptr) {
    return Status::Internal("compensating term tags unknown update");
  }
  entry->delta.Add(part);
  return Status::OK();
}

Status TaggedDeltas::Fold(const AnswerMessage& a) {
  if (a.term_delta_tags.size() != a.per_term.size()) {
    return Status::Internal("answer tags misaligned with term results");
  }
  for (size_t i = 0; i < a.per_term.size(); ++i) {
    Entry* entry = Find(a.term_delta_tags[i]);
    if (entry == nullptr) {
      return Status::Internal("answer term tags unknown update");
    }
    entry->delta.Add(a.per_term[i]);
    if (--entry->open_terms < 0) {
      return Status::Internal("more term answers than terms sent");
    }
  }
  return Status::OK();
}

bool TaggedDeltas::PopComplete(Entry* out) {
  // Map order is update order: ids follow source execution order, and
  // notifications arrive in it.
  if (entries_.empty() || entries_.begin()->second.open_terms != 0) {
    return false;
  }
  *out = std::move(entries_.begin()->second);
  entries_.erase(entries_.begin());
  return true;
}

}  // namespace wvm
