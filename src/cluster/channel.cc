#include "cluster/channel.h"

#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "obs/metrics.h"

namespace iotdb {
namespace cluster {

namespace {

struct ChannelInstruments {
  obs::Counter* sent;
  obs::Counter* delivered;
};

ChannelInstruments& Instruments() {
  static ChannelInstruments instruments = [] {
    auto& registry = obs::MetricsRegistry::Global();
    return ChannelInstruments{registry.GetCounter("cluster.channel.sent"),
                              registry.GetCounter("cluster.channel.delivered")};
  }();
  return instruments;
}

/// One endpoint's inbox plus the thread that drains it. The thread is the
/// only consumer, so per-destination FIFO order falls out for free.
struct Mailbox {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Message> queue;
  Channel::Handler handler;
  bool stop = false;
  std::thread thread;
};

class InProcessChannel : public Channel {
 public:
  ~InProcessChannel() override { Shutdown(); }

  void RegisterEndpoint(int endpoint, Handler handler) override {
    std::shared_ptr<Mailbox> box;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (shutdown_) return;
      auto it = mailboxes_.find(endpoint);
      if (it != mailboxes_.end()) {
        std::lock_guard<std::mutex> box_lock(it->second->mu);
        it->second->handler = std::move(handler);
        return;
      }
      box = std::make_shared<Mailbox>();
      box->handler = std::move(handler);
      mailboxes_[endpoint] = box;
    }
    box->thread = std::thread([box] { DrainLoop(box.get()); });
  }

  void UnregisterEndpoint(int endpoint) override {
    std::shared_ptr<Mailbox> box;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = mailboxes_.find(endpoint);
      if (it == mailboxes_.end()) return;
      box = std::move(it->second);
      mailboxes_.erase(it);
    }
    StopMailbox(box.get());
  }

  bool Send(Message msg) override {
    std::shared_ptr<Mailbox> box;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (shutdown_) return false;
      auto it = mailboxes_.find(msg.dst);
      if (it == mailboxes_.end()) return false;
      box = it->second;
    }
    {
      std::lock_guard<std::mutex> box_lock(box->mu);
      if (box->stop) return false;
      box->queue.push_back(std::move(msg));
    }
    box->cv.notify_one();
    Instruments().sent->Increment();
    return true;
  }

  void Shutdown() override {
    std::unordered_map<int, std::shared_ptr<Mailbox>> boxes;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (shutdown_) return;
      shutdown_ = true;
      boxes.swap(mailboxes_);
    }
    for (auto& [endpoint, box] : boxes) StopMailbox(box.get());
  }

 private:
  static void DrainLoop(Mailbox* box) {
    std::unique_lock<std::mutex> lock(box->mu);
    for (;;) {
      box->cv.wait(lock, [box] { return box->stop || !box->queue.empty(); });
      if (box->stop) return;
      Message msg = std::move(box->queue.front());
      box->queue.pop_front();
      Handler handler = box->handler;
      lock.unlock();
      if (handler) {
        handler(std::move(msg));
        Instruments().delivered->Increment();
      }
      lock.lock();
    }
  }

  static void StopMailbox(Mailbox* box) {
    {
      std::lock_guard<std::mutex> lock(box->mu);
      box->stop = true;
      box->queue.clear();
    }
    box->cv.notify_all();
    if (box->thread.joinable()) box->thread.join();
  }

  std::mutex mu_;
  bool shutdown_ = false;
  std::unordered_map<int, std::shared_ptr<Mailbox>> mailboxes_;
};

}  // namespace

std::unique_ptr<Channel> NewInProcessChannel() {
  return std::make_unique<InProcessChannel>();
}

}  // namespace cluster
}  // namespace iotdb
