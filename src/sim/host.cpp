#include "collabqos/sim/host.hpp"

#include <algorithm>

namespace collabqos::sim {

Host::Host(Simulator& simulator, std::string name)
    : simulator_(simulator),
      name_(std::move(name)),
      cpu_(std::make_unique<ConstantProcess>(0.0)),
      page_faults_(std::make_unique<ConstantProcess>(0.0)),
      memory_(std::make_unique<ConstantProcess>(256.0 * 1024.0)) {}

void Host::set_cpu_process(std::unique_ptr<LoadProcess> process) {
  cpu_ = std::move(process);
}
void Host::set_page_fault_process(std::unique_ptr<LoadProcess> process) {
  page_faults_ = std::move(process);
}
void Host::set_memory_process(std::unique_ptr<LoadProcess> process) {
  memory_ = std::move(process);
}

HostMetrics Host::metrics() {
  const TimePoint now = simulator_.now();
  HostMetrics m;
  m.cpu_load_percent = std::clamp(cpu_->sample(now), 0.0, 100.0);
  m.page_faults = std::max(0.0, page_faults_->sample(now));
  m.free_memory_kb = std::max(0.0, memory_->sample(now));
  return m;
}

}  // namespace collabqos::sim
