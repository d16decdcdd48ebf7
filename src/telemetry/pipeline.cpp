#include "collabqos/telemetry/pipeline.hpp"

namespace collabqos::telemetry {

PipelineCounters& PipelineCounters::global() {
  // Leaked on purpose (like the registry): charged from layer
  // destructors that may run after static teardown begins.
  static PipelineCounters* instance = new PipelineCounters();
  return *instance;
}

}  // namespace collabqos::telemetry
