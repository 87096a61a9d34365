// Host-speed calibration kernel for the end-to-end benchmark.
//
// The benchmark host's speed changes in phases that last tens of seconds
// (memory-system contention from other tenants), which moves every wall-clock
// and CPU-time figure of a run together. This kernel does a fixed amount of
// work shaped like the simulator's - a binary event heap plus a hash table of
// small vectors spanning 32 MiB, touched at random - and shares no code with
// otpdb, so timing it between simulation slices measures the host's current
// speed and nothing the program under test can change. The benchmark divides
// its host-time figures by the kernel's time relative to kReferenceSeconds.
//
// All memory is allocated by the constructor; run_unit() allocates nothing,
// so interleaving it with a measured phase leaves the heap counter alone.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

class CalibrationKernel {
 public:
  /// Wall seconds of one unit on the reference host (the 4-vCPU KVM guest the
  /// benchmark was tuned on). Only the ratio to it matters; it is fixed so
  /// that normalized figures of two commits are comparable.
  static constexpr double kReferenceSeconds = 0.004;

  CalibrationKernel();

  /// Runs one fixed unit of work and returns its wall time in seconds.
  double run_unit();

 private:
  struct Bucket {
    std::uint32_t key = 0;
    std::uint32_t n = 0;
    std::uint32_t vals[6] = {};
  };
  struct Event {
    std::uint64_t at = 0;
    std::uint32_t key = 0;
  };

  void simulate();
  Bucket& find(std::uint32_t key);
  void push(Event e);
  Event pop();

  std::vector<Bucket> table_;
  std::vector<Event> heap_;
  std::uint64_t sink_ = 0;
};

}  // namespace perfbench
