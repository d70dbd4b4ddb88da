#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <thread>

#include "driver/workloads.h"

#ifndef KITBENCH_BUILD_TYPE
#define KITBENCH_BUILD_TYPE "unknown"
#endif

namespace kitbench {

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::vector<std::pair<std::string, std::string>> HostFacts() {
  return {
      {"nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN))},
      {"hardware_concurrency",
       std::to_string(std::thread::hardware_concurrency())},
      {"build_type", KITBENCH_BUILD_TYPE},
      {"compiler", __VERSION__},
  };
}

std::string Num(double v) {
  char buf[64];
  for (int precision = 6; precision <= 17; ++precision) {
    snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::stod(buf) == v) break;
  }
  return buf;
}

}  // namespace kitbench
