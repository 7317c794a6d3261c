#include "consistency/state_log.h"

#include "common/strings.h"

namespace wvm {

namespace {

// The splitmix64 finalizer: spreads the memoized tuple hash into a lane.
uint64_t Mix(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

}  // namespace

Fingerprint Fingerprint::Of(const Relation& r) {
  Fingerprint f;
  for (const auto& [t, count] : r.entries()) {
    const uint64_t h = t.Hash();
    const uint64_t c = static_cast<uint64_t>(count);  // wraps: -n subtracts
    f.lo += c * Mix(h ^ 0x243f6a8885a308d3ULL);
    f.hi += c * Mix(h ^ 0x13198a2e03707344ULL);
  }
  return f;
}

void ViewStates::AppendDelta(Relation delta, uint64_t clock) {
  if (last_.IsEmpty()) {
    last_ = delta;  // share the storage (Add would copy across schemas)
  } else {
    last_.Add(delta);
  }
  deltas_.push_back(std::move(delta));
  clocks_.push_back(clock);
}

void ViewStates::AppendState(const Relation& state, uint64_t clock) {
  AppendDelta(state - last_, clock);
}

Relation ViewStates::Materialize(size_t i) const {
  Relation state = deltas_[0];
  for (size_t k = 1; k <= i; ++k) {
    state.Add(deltas_[k]);
  }
  return state;
}

std::vector<Relation> ViewStates::MaterializeAll() const {
  std::vector<Relation> states;
  states.reserve(size());
  for (size_t i = 0; i < size(); ++i) {
    states.push_back(i == 0 ? deltas_[0] : states.back() + deltas_[i]);
  }
  return states;
}

void StateLog::RecordCheckedSourceState(const Relation& delta,
                                        const Relation& evaluated,
                                        uint64_t clock) {
  const size_t n = source_view_states.size();
  source_view_states.AppendState(evaluated, clock);
  if (n > 0 && !(source_view_states.delta(n) == delta)) {
    const Relation running = source_view_states.Materialize(n - 1) + delta;
    source_drift = StrCat("source state log drifted: V[ss", n,
                          "] evaluated from scratch is ", evaluated.ToString(),
                          ", the running sum of view deltas is ",
                          running.ToString());
  }
}

std::string StateLog::ToString() const {
  std::string out = "source states:\n";
  const std::vector<Relation> source = source_view_states.MaterializeAll();
  for (size_t i = 0; i < source.size(); ++i) {
    out += StrCat("  V[ss", i, "] = ", source[i].ToString(), "\n");
  }
  out += "warehouse states:\n";
  const std::vector<Relation> warehouse =
      warehouse_view_states.MaterializeAll();
  for (size_t i = 0; i < warehouse.size(); ++i) {
    out += StrCat("  V[ws", i, "] = ", warehouse[i].ToString(), "\n");
  }
  return out;
}

namespace {

// Fingerprint of every state, each advanced from its predecessor's by its
// delta's.
std::vector<Fingerprint> Fingerprints(const ViewStates& states) {
  std::vector<Fingerprint> out;
  out.reserve(states.size());
  Fingerprint f;
  for (size_t i = 0; i < states.size(); ++i) {
    f += Fingerprint::Of(states.delta(i));
    out.push_back(f);
  }
  return out;
}

}  // namespace

StatePair::StatePair(const ViewStates& source, const ViewStates& warehouse)
    : source_(source),
      warehouse_(warehouse),
      source_fingerprints_(Fingerprints(source)),
      warehouse_fingerprints_(Fingerprints(warehouse)) {
  // Usually V[ws_0] = V[ss_0] (the paper's assumption) and D starts empty.
  if (!(source.delta(0) == warehouse.delta(0))) {
    diff_ = warehouse.delta(0);
    Apply(source.delta(0), -1);
  }
}

bool StatePair::Equal(size_t i, size_t j) {
  if (!(source_fingerprints_[i] == warehouse_fingerprints_[j])) {
    return false;
  }
  MoveTo(i, j);
  return diff_.IsEmpty();
}

void StatePair::MoveTo(size_t i, size_t j) {
  for (; i_ < i; ++i_) {
    Apply(source_.delta(i_ + 1), -1);
  }
  for (; i_ > i; --i_) {
    Apply(source_.delta(i_), +1);
  }
  for (; j_ < j; ++j_) {
    Apply(warehouse_.delta(j_ + 1), +1);
  }
  for (; j_ > j; --j_) {
    Apply(warehouse_.delta(j_), -1);
  }
}

void StatePair::Apply(const Relation& delta, int64_t sign) {
  for (const auto& [t, count] : delta.entries()) {
    diff_.Insert(t, sign * count);
  }
}

}  // namespace wvm
