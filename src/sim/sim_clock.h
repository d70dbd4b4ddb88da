#ifndef IOTDB_SIM_SIM_CLOCK_H_
#define IOTDB_SIM_SIM_CLOCK_H_

#include "common/clock.h"
#include "sim/simulator.h"

namespace iotdb {
namespace sim {

/// Adapts a Simulator to the library-wide Clock interface so components
/// written against Clock (generators, retention filters)
/// run unmodified inside a discrete-event simulation.
///
/// SleepMicros cannot block inside an event-driven simulation; it advances
/// the clock by running the simulator forward, which is only safe from the
/// driving thread between events. Prefer Simulator::Schedule for in-model
/// waiting.
class SimClock final : public Clock {
 public:
  explicit SimClock(Simulator* sim) : sim_(sim) {}

  uint64_t NowMicros() const override { return sim_->Now(); }

  void SleepMicros(uint64_t micros) override {
    sim_->RunUntil(sim_->Now() + micros);
  }

 private:
  Simulator* sim_;
};

}  // namespace sim
}  // namespace iotdb

#endif  // IOTDB_SIM_SIM_CLOCK_H_
