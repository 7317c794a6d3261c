#include "sim/threaded_runner.h"

#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>

#include "channel/cost_meter.h"
#include "channel/message.h"
#include "common/random.h"
#include "core/warehouse.h"
#include "query/evaluator.h"
#include "source/source.h"

namespace wvm {

namespace {

// A mutex-protected FIFO with blocking receive.
template <typename T>
class SyncChannel {
 public:
  void Send(T message) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.push_back(std::move(message));
    }
    cv_.notify_one();
  }

  std::optional<T> TryReceive() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (queue_.empty()) {
      return std::nullopt;
    }
    T out = std::move(queue_.front());
    queue_.pop_front();
    return out;
  }

  // Blocks until a message arrives or `stop` becomes true.
  std::optional<T> ReceiveOrStop(const std::atomic<bool>& stop) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return !queue_.empty() || stop.load(); });
    if (queue_.empty()) {
      return std::nullopt;
    }
    T out = std::move(queue_.front());
    queue_.pop_front();
    return out;
  }

  void Kick() { cv_.notify_all(); }

  bool Empty() {
    std::lock_guard<std::mutex> lock(mutex_);
    return queue_.empty();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<T> queue_;
};

// Meter shared between the two threads.
class LockedMeter {
 public:
  void RecordQuery(const QueryMessage& q) {
    std::lock_guard<std::mutex> lock(mutex_);
    meter_.RecordQuery(q);
  }
  void RecordAnswer(const AnswerMessage& a) {
    std::lock_guard<std::mutex> lock(mutex_);
    meter_.RecordAnswer(a);
  }
  void RecordNotification() {
    std::lock_guard<std::mutex> lock(mutex_);
    meter_.RecordNotification();
  }
  int64_t messages() {
    std::lock_guard<std::mutex> lock(mutex_);
    return meter_.messages();
  }
  bool AllQueriesAnswered() {
    std::lock_guard<std::mutex> lock(mutex_);
    return meter_.query_messages() == meter_.answer_messages();
  }

 private:
  std::mutex mutex_;
  CostMeter meter_;
};

// Warehouse-side context writing into the query channel.
class ThreadedContext : public WarehouseContext {
 public:
  ThreadedContext(SyncChannel<QueryMessage>* to_source, LockedMeter* meter)
      : to_source_(to_source), meter_(meter) {}

  uint64_t NextQueryId() override { return next_query_id_++; }

  void SendQuery(Query query) override {
    QueryMessage message{std::move(query)};
    meter_->RecordQuery(message);
    ++queries_sent_;
    to_source_->Send(std::move(message));
  }

  /// Only touched from the warehouse thread.
  uint64_t queries_sent() const { return queries_sent_; }

 private:
  uint64_t queries_sent_ = 0;
  SyncChannel<QueryMessage>* to_source_;
  LockedMeter* meter_;
  uint64_t next_query_id_ = 1;
};

}  // namespace

Result<ThreadedRunReport> RunThreaded(const Catalog& initial,
                                      ViewDefinitionPtr view,
                                      Algorithm algorithm,
                                      std::vector<Update> updates,
                                      uint64_t seed) {
  PhysicalConfig config;
  WVM_ASSIGN_OR_RETURN(Source source, Source::Create(initial, config, {}));
  WVM_ASSIGN_OR_RETURN(std::unique_ptr<ViewMaintainer> maintainer,
                       MakeMaintainer({.algorithm = algorithm}, view));
  WVM_RETURN_IF_ERROR(maintainer->Initialize(initial));

  SyncChannel<SourceMessage> to_warehouse;
  SyncChannel<QueryMessage> to_source;
  LockedMeter meter;
  ThreadedContext context(&to_source, &meter);

  std::atomic<bool> warehouse_done{false};
  std::atomic<bool> failed{false};
  Status source_status;
  Status warehouse_status;
  const size_t total_updates = updates.size();

  // Source thread: each loop iteration is one atomic source event (S_up or
  // S_qu); the site's own state is only touched here, which realizes the
  // paper's per-site concurrency-control assumption.
  std::thread source_thread([&] {
    Random rng(seed);
    size_t cursor = 0;
    uint64_t next_update_id = 1;
    while (!failed.load()) {
      const bool updates_left = cursor < updates.size();
      std::optional<QueryMessage> query;
      // Seeded coin between answering and updating keeps both races alive
      // regardless of how the OS schedules the threads.
      const bool prefer_update = updates_left && rng.Bernoulli(1, 2);
      if (!prefer_update) {
        query = to_source.TryReceive();
      }
      if (query.has_value()) {
        Result<AnswerMessage> answer = source.EvaluateQuery(query->query);
        if (!answer.ok()) {
          source_status = answer.status();
          failed.store(true);
          break;
        }
        meter.RecordAnswer(*answer);
        to_warehouse.Send(std::move(*answer));
        continue;
      }
      if (updates_left) {
        Update u = updates[cursor++];
        u.id = next_update_id++;
        Status executed = source.ExecuteUpdate(u);
        if (!executed.ok()) {
          source_status = executed;
          failed.store(true);
          break;
        }
        meter.RecordNotification();
        to_warehouse.Send(UpdateNotification{std::move(u)});
        continue;
      }
      if (warehouse_done.load() && to_source.Empty()) {
        break;
      }
      std::this_thread::yield();
    }
    to_warehouse.Kick();
  });

  // Warehouse thread: one atomic event per received message.
  std::thread warehouse_thread([&] {
    size_t notifications_seen = 0;
    uint64_t answers_seen = 0;
    while (!failed.load()) {
      // All counters here are warehouse-local, so the completion check is
      // race-free: once it holds, the source has nothing left to send.
      const bool complete = notifications_seen == total_updates &&
                            answers_seen == context.queries_sent() &&
                            to_warehouse.Empty();
      if (complete) {
        break;
      }
      std::optional<SourceMessage> m = to_warehouse.ReceiveOrStop(failed);
      if (!m.has_value()) {
        continue;
      }
      if (std::holds_alternative<UpdateNotification>(*m)) {
        ++notifications_seen;
        Status handled = maintainer->OnUpdate(
            std::get<UpdateNotification>(*m).update, &context);
        if (!handled.ok()) {
          warehouse_status = handled;
          failed.store(true);
        }
      } else {
        ++answers_seen;
        Status handled =
            maintainer->OnAnswer(std::get<AnswerMessage>(*m), &context);
        if (!handled.ok()) {
          warehouse_status = handled;
          failed.store(true);
        }
      }
    }
    warehouse_done.store(true);
    to_warehouse.Kick();
  });

  warehouse_thread.join();
  source_thread.join();

  WVM_RETURN_IF_ERROR(source_status);
  WVM_RETURN_IF_ERROR(warehouse_status);

  ThreadedRunReport report;
  report.final_view = maintainer->view_contents();
  WVM_ASSIGN_OR_RETURN(report.source_view,
                       EvaluateView(view, source.catalog()));
  report.converged = report.final_view == report.source_view;
  report.messages = meter.messages();
  return report;
}

}  // namespace wvm
